//! Zero-dependency observability for the sortsynth runtime: a metrics
//! registry with Prometheus text exposition, a structured tracing facility,
//! and leveled logging macros.
//!
//! The container this project builds in has no crates.io access, so the
//! usual `tracing`/`prometheus` stack is rebuilt here from scratch (the same
//! way `sortsynth-sat` stands in for z3), scoped to exactly what the
//! synthesis runtime needs:
//!
//! * [`metrics`] — lock-free [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s held in a [`Registry`] keyed by metric name, rendered in
//!   the Prometheus text exposition format. A process-wide default registry
//!   ([`registry()`]) lets every crate publish without plumbing a handle.
//! * [`trace`] — structured [`Event`]s with span IDs, parent links, and
//!   monotonic timestamps, fanned out to pluggable [`Subscriber`]s. A
//!   bounded [`RingBuffer`] subscriber keeps the latest events for JSON
//!   drain; a [`FileSubscriber`] streams them to a JSON-lines log.
//! * [`log`](crate::Level) — `error!`/`warn!`/`info!`/`debug!`/`trace!`
//!   macros gated by a process-wide [`Level`], writing to stderr and (when a
//!   subscriber is installed) mirroring into the event stream.
//! * [`profile`] — an instrumented (sampling-free) phase profiler for the
//!   search hot loop: per-worker cache-line-padded [`PhaseProbe`]s attribute
//!   wall time to a fixed [`Phase`] taxonomy, off by default with one
//!   relaxed load per search when disabled.
//! * [`progress`] — the one progress schema: the [`SearchProgress`]
//!   snapshot every layer carries, with its counter columns declared once.
//! * [`recorder`] — the flight recorder: a bounded, checksummed, crash-safe
//!   on-disk ring of search progress snapshots ([`FlightRecorder`]) with a
//!   torn-tail-tolerant reader ([`read_recording`]) for post-mortem
//!   analysis of long searches.
//! * [`segment`] — the one checksummed record-file layer: tagged records
//!   behind a magic + version header, written by the kernel cache's log,
//!   the flight recorder, and the search engine's spill tier, with a
//!   tolerant reader (keep the intact prefix; the cache and the recorder)
//!   and a strict reader (any defect inside a recorded valid length is a
//!   hard error; the spill tier), plus atomic whole-file replacement.
//!
//! Overhead is designed to vanish when nobody is watching: metric updates
//! are single relaxed atomic operations, span and event emission first check
//! one `AtomicBool` that is only set while the facility is
//! [enabled](set_enabled) *and* at least one subscriber is installed, and
//! progress emission in hot loops is throttled at the call site.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use sortsynth_obs as obs;
//!
//! // Metrics: register once, update lock-free.
//! let requests = obs::registry().counter("myapp_requests_total", "Requests served.");
//! requests.inc();
//! let text = obs::registry().render_prometheus();
//! assert!(text.contains("myapp_requests_total"));
//!
//! // Tracing: install a ring buffer, record a span, drain as JSON.
//! let ring = Arc::new(obs::RingBuffer::new(128));
//! let id = obs::add_subscriber(ring.clone());
//! {
//!     let span = obs::Span::root("work");
//!     span.event("step", &[("items", obs::FieldValue::U64(3))]);
//! }
//! obs::remove_subscriber(id);
//! let json = ring.drain_json();
//! assert!(json.contains("\"name\":\"work\""));
//! ```

mod level;
pub mod metrics;
pub mod names;
pub mod profile;
pub mod progress;
pub mod recorder;
pub mod segment;
pub mod trace;

pub use level::{log_emit, log_enabled, log_level, set_log_level, Level};
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use profile::{PaddedU64, Phase, PhaseProbe, PHASE_COUNT};
pub use progress::{SearchProgress, ShardSnapshot};
pub use recorder::{read_recording, FlightRecorder, Recording};
pub use trace::{
    add_subscriber, emit, enabled, now_micros, remove_subscriber, set_enabled, Event, EventKind,
    FieldValue, FileSubscriber, RingBuffer, Span, Subscriber,
};

/// Logs at an explicit [`Level`]. The message is formatted lazily: when the
/// level is filtered out nothing is formatted or emitted.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $($arg:tt)*) => {{
        let lvl = $lvl;
        if $crate::log_enabled(lvl) {
            $crate::log_emit(lvl, module_path!(), &format!($($arg)*));
        }
    }};
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Error, $($arg)*) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Warn, $($arg)*) };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Info, $($arg)*) };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Debug, $($arg)*) };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Trace, $($arg)*) };
}
