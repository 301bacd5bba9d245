//! First-win portfolio execution: race every synthesis backend behind one
//! dispatch layer.
//!
//! The repository grew six ways to produce a sorting kernel — the paper's
//! enumerative search, the SMT front-ends (CEGIS and iterated-deepening
//! SMT-Perm), the AlphaDev-style MCTS baseline, the STOKE-style MCMC
//! sampler, and the classical planner. They have wildly different sweet
//! spots, and no single choice dominates across query shapes. This crate
//! gives them one uniform face and races them:
//!
//! * [`Backend`] — one trait, `run(query, budget) -> BackendOutcome`, with
//!   an adapter per engine ([`backend_for`]).
//! * [`Portfolio`] — fans a [`KernelQuery`] out to a configurable backend
//!   set on scoped threads; the first solution that passes the static
//!   verification gate ([`sortsynth_verify::gate`]) wins and cancels the
//!   rest through the shared [`SearchBudget`] flag-chaining machinery.
//! * [`DispatchPolicy`] — a learned per-query-shape win-rate table,
//!   persisted as JSON next to the kernel cache, that shrinks the first
//!   wave to historically-best arms and only widens on a miss.
//! * [`Answerer`] — the one answer path the service and the CLI share:
//!   cache get, then [`Route`] (the engine, one backend, or a race), then
//!   run, then cache insert, with [`engine_config`] as the one mapping from
//!   a query to the engine configuration it describes.
//!
//! Losing arms are *cancelled, then joined*: every engine polls the shared
//! budget cooperatively (per expansion, per CDCL decision, per MCMC
//! proposal, …), so a race leaves no detached threads behind.
//!
//! # Example
//!
//! ```
//! use sortsynth_cache::KernelQuery;
//! use sortsynth_isa::IsaMode;
//! use sortsynth_portfolio::{BackendKind, Portfolio};
//! use sortsynth_search::SearchBudget;
//!
//! let query = KernelQuery::best(2, 1, IsaMode::Cmov);
//! let portfolio = Portfolio::from_kinds(&[BackendKind::AStar, BackendKind::SmtMin]);
//! let report = portfolio.run(&query, &SearchBudget::unlimited(), None);
//! assert_eq!(report.found_len, Some(4)); // the optimal n = 2 CAS
//! assert!(report.winner.is_some());
//! ```

mod answer;
mod backend;
mod executor;
mod policy;

pub use answer::{engine_config, Answer, Answerer, Failure, RaceTally, Route, Timeout};
pub use backend::{backend_for, upper_len, Backend, BackendKind, BackendOutcome, BackendStatus};
pub use executor::{Portfolio, RaceReport};
pub use policy::{DispatchPolicy, PolicyRow, POLICY_FILE};

// Re-exported so downstream callers (service, CLI) can build budgets
// without depending on the search crate directly.
pub use sortsynth_search::{CancelHandle, SearchBudget};
