//! The kernel-synthesis service: a concurrent TCP server (and matching
//! client) in front of the enumerative search engine.
//!
//! Synthesizing a sorting kernel is seconds-to-hours of search for a
//! few-dozen-instruction answer, so the serving problem is dominated by
//! three concerns, each owned by one module:
//!
//! * [`proto`] — a length-prefixed JSON wire protocol, each message
//!   declared once as a table row (`synth`, `check`, `analyze`, the
//!   `metrics` / `stats` / `watch` observability verbs, …);
//! * `flight` — one registry of in-flight requests by flight key:
//!   concurrent identical queries coalesce onto a single search (with the
//!   persistent [`sortsynth_cache::KernelCache`], a cold query is searched
//!   exactly once no matter how many clients race), and the `watch` verb
//!   attaches to the same flight to stream its search's progress. Each
//!   flight holds only its latest frame; a watcher writes the newest one
//!   each time, so a slow watcher skips frames instead of queueing them;
//! * [`server`] — a thread per connection that runs its requests itself
//!   behind a *bounded* admission gate (overload is shed explicitly, not
//!   queued indefinitely), with per-request deadlines that propagate into
//!   the engine as a cooperative [`sortsynth_search::SearchBudget`] — an
//!   expired request returns partial search diagnostics instead of holding
//!   its run slot.
//!
//! # Quick start
//!
//! ```no_run
//! use sortsynth_cache::KernelQuery;
//! use sortsynth_isa::IsaMode;
//! use sortsynth_service::{Client, Server, ServiceConfig};
//!
//! let server = Server::bind(ServiceConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServiceConfig::default()
//! })?;
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(handle.addr())?;
//! let response = client.synth(KernelQuery::best(3, 1, IsaMode::Cmov), Some(5_000))?;
//! println!("{response:?}");
//! handle.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
mod flight;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{
    AnalyzeReply, CheckReply, LintReply, ReplySource, Request, Response, StatsReply, SynthReply,
    TimeoutReply,
};
pub use server::{Server, ServerHandle, ServiceConfig};

/// Locks `mutex`, ignoring poison: an unwinding flight leader takes these
/// locks in its token's `drop`, and must not abort the server.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}
