//! The first-win racing executor.
//!
//! A race fans one query out to a set of arms on scoped threads. Arms
//! report back over a channel; the first solution that passes the static
//! verification gate wins, and the executor trips the shared race flag so
//! every other arm stops at its next budget poll. `std::thread::scope`
//! guarantees the losers are joined before the race returns — cancellation
//! is cooperative but never detached.
//!
//! On a single-core host the "race" is mostly a time-sliced interleaving;
//! correctness therefore leans on counters and invariants rather than wall
//! clock: exactly one win per successful race, every completed arm's
//! program accepted by the exhaustive oracle, and (for exact arms) the
//! winner's length equal to the sequential optimum. The differential tests
//! in `tests/race.rs` pin all three.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use sortsynth_cache::KernelQuery;
use sortsynth_isa::{Machine, Program};
use sortsynth_obs::names;
use sortsynth_obs::profile::{self, Phase};
use sortsynth_search::SearchBudget;

use crate::backend::{backend_for, Backend, BackendKind, BackendOutcome, BackendStatus};
use crate::policy::DispatchPolicy;

/// The executor: a fixed roster of arms plus the wave-sizing knob.
pub struct Portfolio {
    arms: Vec<Box<dyn Backend>>,
    /// Maximum arms in the policy-ranked first wave (default 2). Ignored
    /// when the dispatch policy has no history for the query's shape — the
    /// race then runs every arm at once.
    pub first_wave: usize,
}

/// What one race produced.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The verify-gated winning arm, if any arm found a program.
    pub winner: Option<BackendKind>,
    /// The winning program.
    pub program: Option<Program>,
    /// Its length.
    pub found_len: Option<u32>,
    /// Whether the winning backend certifies length-minimality.
    pub minimal_certified: bool,
    /// Every arm's outcome, winners and losers alike (one entry per arm
    /// that ran; arms in an unreached second wave are absent).
    pub outcomes: Vec<BackendOutcome>,
    /// Candidate solutions the verification gate refused.
    pub verify_rejected: u32,
    /// Whether the first wave missed and the race widened to the rest.
    pub widened: bool,
    /// Wall-clock time for the whole race.
    pub elapsed: Duration,
}

impl RaceReport {
    /// The outcome of one arm, if it ran.
    pub fn outcome_of(&self, kind: BackendKind) -> Option<&BackendOutcome> {
        self.outcomes.iter().find(|o| o.kind == kind)
    }
}

/// Bumps the per-backend counter `sortsynth_portfolio_<arm>_<what>`.
fn arm_counter(kind: BackendKind, what: &str, help: &str) {
    let name = format!("sortsynth_portfolio_{}_{}", kind.metric_token(), what);
    sortsynth_obs::registry().counter(&name, help).inc();
}

impl Portfolio {
    /// Builds an executor with the default adapter for each kind.
    pub fn from_kinds(kinds: &[BackendKind]) -> Portfolio {
        Portfolio {
            arms: kinds.iter().map(|&k| backend_for(k)).collect(),
            first_wave: 2,
        }
    }

    /// An executor racing every known backend.
    pub fn all() -> Portfolio {
        Portfolio::from_kinds(&BackendKind::ALL)
    }

    /// The roster, in construction order.
    pub fn kinds(&self) -> Vec<BackendKind> {
        self.arms.iter().map(|a| a.kind()).collect()
    }

    /// Races the arms on `query`.
    ///
    /// With a [`DispatchPolicy`], the race first runs only the arms the
    /// policy ranks best for this query's shape, widening to the remaining
    /// arms when the first wave completes without a verified winner and the
    /// outer budget still has room. The policy is read-only here; record
    /// the returned report into it (and persist) at the call site.
    pub fn run(
        &self,
        query: &KernelQuery,
        budget: &SearchBudget,
        policy: Option<&DispatchPolicy>,
    ) -> RaceReport {
        let start = Instant::now();
        names::counter(names::PORTFOLIO_RACES_TOTAL).inc();
        let machine = query.machine();
        let kinds = self.kinds();
        let (first, rest) = match policy {
            Some(policy) => policy.waves(query, &kinds, self.first_wave),
            None => (kinds, Vec::new()),
        };
        let mut report = RaceReport {
            winner: None,
            program: None,
            found_len: None,
            minimal_certified: false,
            outcomes: Vec::new(),
            verify_rejected: 0,
            widened: false,
            elapsed: Duration::ZERO,
        };
        self.run_wave(&first, query, budget, &machine, start, &mut report);
        if report.winner.is_none() && !rest.is_empty() && !budget.is_exhausted() {
            report.widened = true;
            names::counter(names::PORTFOLIO_WIDENED_TOTAL).inc();
            self.run_wave(&rest, query, budget, &machine, start, &mut report);
        }
        report.elapsed = start.elapsed();
        report
    }

    /// Runs one wave of arms to completion, updating `report` in place.
    fn run_wave(
        &self,
        wave: &[BackendKind],
        query: &KernelQuery,
        budget: &SearchBudget,
        machine: &Machine,
        start: Instant,
        report: &mut RaceReport,
    ) {
        let arms: Vec<&dyn Backend> = self
            .arms
            .iter()
            .map(|a| a.as_ref())
            .filter(|a| wave.contains(&a.kind()))
            .collect();
        if arms.is_empty() {
            return;
        }
        // One fresh race flag per wave, chained onto the caller's budget:
        // the service can still revoke the whole request while the race
        // separately cancels losing arms.
        let (race_budget, race_handle) = budget.clone().cancellable();
        let (tx, rx) = mpsc::channel::<BackendOutcome>();
        std::thread::scope(|scope| {
            for arm in &arms {
                let tx = tx.clone();
                let arm_budget = race_budget.clone();
                let arm = *arm;
                scope.spawn(move || {
                    // Per-arm wall attribution when the phase profiler is
                    // on: arms are black boxes (SMT, MCTS, …), so the race
                    // accounts their whole run rather than inner phases.
                    let profiled = profile::enabled().then(Instant::now);
                    let out = arm.run(query, &arm_budget);
                    if let Some(t0) = profiled {
                        let name = format!(
                            "sortsynth_portfolio_{}_nanos_total",
                            arm.kind().metric_token()
                        );
                        sortsynth_obs::registry()
                            .counter(&name, "Wall nanoseconds this arm ran in races.")
                            .add(t0.elapsed().as_nanos() as u64);
                    }
                    // The receiver hangs up only after all arms reported;
                    // a send can still race scope teardown on panic paths,
                    // so ignore the error.
                    let _ = tx.send(out);
                });
            }
            drop(tx);
            while let Ok(out) = rx.recv() {
                match &out.status {
                    BackendStatus::Found {
                        program,
                        minimal_certified,
                    } if report.winner.is_none() => {
                        match profile::time_global(Phase::VerifyGate, || {
                            sortsynth_verify::gate(machine, program)
                        }) {
                            Ok(()) => {
                                report.winner = Some(out.kind);
                                report.found_len = Some(program.len() as u32);
                                report.minimal_certified = *minimal_certified;
                                report.program = Some(program.clone());
                                names::counter(names::PORTFOLIO_WIN_TOTAL).inc();
                                arm_counter(
                                    out.kind,
                                    "wins_total",
                                    "Races this backend won with a verified solution.",
                                );
                                names::histogram(names::PORTFOLIO_TTFS_SECONDS)
                                    .observe_duration(start.elapsed());
                                race_handle.cancel();
                            }
                            Err(_) => {
                                report.verify_rejected += 1;
                                names::counter(names::PORTFOLIO_VERIFY_REJECTED_TOTAL).inc();
                                arm_counter(
                                    out.kind,
                                    "verify_rejected_total",
                                    "Candidate solutions from this backend the gate refused.",
                                );
                            }
                        }
                    }
                    BackendStatus::Found { .. } | BackendStatus::NoProgram => {
                        names::counter(names::PORTFOLIO_LOSS_TOTAL).inc();
                        arm_counter(
                            out.kind,
                            "losses_total",
                            "Races this backend completed but did not win.",
                        );
                    }
                    BackendStatus::Budget => {
                        names::counter(names::PORTFOLIO_CANCELLED_TOTAL).inc();
                        arm_counter(
                            out.kind,
                            "cancelled_total",
                            "Races where this backend was cancelled mid-run.",
                        );
                    }
                    BackendStatus::Unsupported => {}
                }
                report.outcomes.push(out);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    #[test]
    fn race_of_exact_arms_finds_the_n2_optimum() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        let portfolio = Portfolio::from_kinds(&[BackendKind::AStar, BackendKind::SmtMin]);
        let report = portfolio.run(&query, &SearchBudget::unlimited(), None);
        assert_eq!(report.found_len, Some(4));
        let prog = report.program.as_ref().expect("winner program");
        assert!(query.machine().is_correct(prog));
        assert!(report.winner.is_some());
        assert_eq!(report.verify_rejected, 0);
    }

    #[test]
    fn exhausted_budget_yields_no_winner() {
        let query = KernelQuery::best(3, 1, IsaMode::Cmov);
        let (budget, handle) = SearchBudget::unlimited().cancellable();
        handle.cancel();
        let portfolio = Portfolio::from_kinds(&[BackendKind::AStar, BackendKind::Cegis]);
        let report = portfolio.run(&query, &budget, None);
        assert!(report.winner.is_none());
        assert!(report.program.is_none());
        assert_eq!(report.outcomes.len(), 2);
        for out in &report.outcomes {
            assert_eq!(out.status, BackendStatus::Budget);
        }
    }
}
