//! The uniform backend trait and one adapter per synthesis engine.
//!
//! Every engine in the workspace answers the same question — "find a
//! correct kernel for this machine, as short as you can, within this
//! budget" — through a different API. The adapters here normalize them to
//! [`Backend::run`] over a [`KernelQuery`] and a shared [`SearchBudget`],
//! which is all the racing executor needs. Cancellation is cooperative:
//! each adapter threads the budget into its engine's own polling points, so
//! a cancelled arm returns [`BackendStatus::Budget`] instead of running to
//! completion.

use std::time::{Duration, Instant};

use sortsynth_cache::KernelQuery;
use sortsynth_isa::{IsaMode, Program};
use sortsynth_search::{
    try_synthesize, Outcome, ResumeError, SearchBudget, SynthesisConfig, SynthesisResult,
};
use sortsynth_solvers::{
    smt_cegis, synthesize_minimal, Budget, CegisDomain, EncodeOptions, SynthOutcome,
};

use crate::answer::engine_config;

/// The racing roster: every synthesis engine the portfolio can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendKind {
    /// The paper's enumerative search (§3). Named on its own, it runs the
    /// engine route under the caller's engine settings; in a race, under
    /// the query's configuration alone.
    AStar,
    /// SMT-CEGIS with the permutation counterexample domain, iterated over
    /// lengths so the first hit is minimal (§4.1).
    Cegis,
    /// Iterated-deepening SMT-Perm ([`synthesize_minimal`]).
    SmtMin,
    /// The AlphaDev-style MCTS baseline (unlearned).
    Mcts,
    /// The STOKE-style MCMC sampler, cold start.
    Stoke,
    /// The classical planner (BFS over the Plan-Parallel encoding).
    Plan,
}

impl BackendKind {
    /// All racing arms, in the order used when no dispatch policy ranks
    /// them (cheap exact engines first).
    pub const ALL: [BackendKind; 6] = [
        BackendKind::AStar,
        BackendKind::Cegis,
        BackendKind::SmtMin,
        BackendKind::Mcts,
        BackendKind::Stoke,
        BackendKind::Plan,
    ];

    /// Stable kebab-case name, used by the CLI (`--backend astar`), the
    /// wire protocol, and the dispatch-policy file.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::AStar => "astar",
            BackendKind::Cegis => "cegis",
            BackendKind::SmtMin => "smt-min",
            BackendKind::Mcts => "mcts",
            BackendKind::Stoke => "stoke",
            BackendKind::Plan => "plan",
        }
    }

    /// Parses a [`Self::name`].
    pub fn parse(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The name with `-` mapped to `_`, for embedding in Prometheus metric
    /// names (the registry has no label support, so per-backend series are
    /// name-suffixed: `sortsynth_portfolio_smt_min_wins_total`).
    pub fn metric_token(self) -> &'static str {
        match self {
            BackendKind::SmtMin => "smt_min",
            other => other.name(),
        }
    }

    /// Whether this backend is *exact*: it enumerates shortest-first (or
    /// proves shorter lengths empty), so a [`BackendStatus::Found`] program
    /// is length-minimal and a [`BackendStatus::NoProgram`] is a proof.
    /// Stochastic arms (MCTS, STOKE) are neither.
    pub fn is_exact(self) -> bool {
        !matches!(self, BackendKind::Mcts | BackendKind::Stoke)
    }
}

/// How one arm's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendStatus {
    /// A correct program. Minimal-length when the producing backend
    /// certifies it (see `minimal_certified`).
    Found {
        /// The kernel.
        program: Program,
        /// Whether the backend's strategy certifies length-minimality.
        minimal_certified: bool,
    },
    /// Completed without a solution. A nonexistence proof (within the
    /// query's length bound) for [`BackendKind::is_exact`] backends; merely
    /// "came up empty" for the stochastic ones.
    NoProgram,
    /// The budget expired or the race cancelled this arm.
    Budget,
    /// The backend cannot handle this query shape (e.g. the planner's
    /// grounded encoding at large `n`).
    Unsupported,
}

/// The uniform result of one arm's run.
#[derive(Debug, Clone)]
pub struct BackendOutcome {
    /// Which arm produced this.
    pub kind: BackendKind,
    /// How the run ended.
    pub status: BackendStatus,
    /// Wall-clock time the arm spent.
    pub elapsed: Duration,
}

/// One synthesis engine behind the uniform interface.
pub trait Backend: Send + Sync {
    /// Which arm this is.
    fn kind(&self) -> BackendKind;

    /// Runs the engine on `query` under `budget`. Implementations must poll
    /// the budget cooperatively and return [`BackendStatus::Budget`] when
    /// it trips; they must never outlive the call (no detached threads).
    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome;
}

/// Constructs the default adapter for `kind`.
pub fn backend_for(kind: BackendKind) -> Box<dyn Backend> {
    match kind {
        BackendKind::AStar => Box::new(AStarBackend),
        BackendKind::Cegis => Box::new(CegisBackend),
        BackendKind::SmtMin => Box::new(SmtMinBackend),
        BackendKind::Mcts => Box::new(MctsBackend {
            iterations: 4_000_000,
            seed: 1,
        }),
        BackendKind::Stoke => Box::new(StokeBackend {
            iterations: 2_000_000,
            seed: 1,
        }),
        BackendKind::Plan => Box::new(PlanBackend),
    }
}

/// A sound inclusive length bound for arms that need one (the solver,
/// sampler, and MCTS arms search *up to* a length rather than outward): a
/// bubble-sort network has `n(n−1)/2` compare-and-swap stages, each
/// costing 4 instructions in cmov mode (`mov` + `cmp` + 2×`cmov`) or 3 in
/// min/max mode (`mov` + `min` + `max`), so a correct program of that
/// length always exists. The query's own `max_len` tightens it further.
pub fn upper_len(query: &KernelQuery) -> u32 {
    let n = query.n as u32;
    let pairs = n * (n - 1) / 2;
    let per_cas = match query.mode {
        IsaMode::Cmov => 4,
        IsaMode::MinMax => 3,
    };
    let net = per_cas * pairs;
    query.max_len.map_or(net, |m| m.min(net))
}

fn outcome(kind: BackendKind, status: BackendStatus, start: Instant) -> BackendOutcome {
    BackendOutcome {
        kind,
        status,
        elapsed: start.elapsed(),
    }
}

/// The enumerative search (§3) as a race arm: the query's configuration
/// under the race's budget.
struct AStarBackend;

impl Backend for AStarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::AStar
    }

    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome {
        let mut cfg = engine_config(query);
        cfg.budget = budget.clone();
        search(&cfg)
            .expect("a search without a resume directory always starts")
            .0
    }
}

/// Runs the enumerative search `cfg` describes as the `astar` arm, and
/// hands back the whole result too: the body of the race arm, and of the
/// engine route, which runs it with the caller's engine settings.
pub(crate) fn search(
    cfg: &SynthesisConfig,
) -> Result<(BackendOutcome, SynthesisResult), ResumeError> {
    let start = Instant::now();
    let result = try_synthesize(cfg)?;
    let status = match result.outcome {
        Outcome::Solved | Outcome::SolvedAll | Outcome::Exhausted => match result.first_program() {
            Some(program) => BackendStatus::Found {
                program,
                minimal_certified: result.minimal_certified,
            },
            None => BackendStatus::NoProgram,
        },
        Outcome::TimeLimit | Outcome::Cancelled | Outcome::NodeLimit => BackendStatus::Budget,
    };
    Ok((outcome(BackendKind::AStar, status, start), result))
}

/// SMT-CEGIS, iterated over lengths from 1 so the first hit is minimal.
struct CegisBackend;

impl Backend for CegisBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cegis
    }

    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome {
        let start = Instant::now();
        let machine = query.machine();
        for len in 1..=upper_len(query) {
            if budget.is_exhausted() {
                return outcome(self.kind(), BackendStatus::Budget, start);
            }
            let (result, _) = smt_cegis(
                &machine,
                len,
                CegisDomain::Permutations,
                EncodeOptions::default(),
                Budget::with_shared(budget.clone()),
            );
            match result {
                SynthOutcome::Found(program) => {
                    // Every shorter length was proven empty, so this is
                    // length-minimal.
                    return outcome(
                        self.kind(),
                        BackendStatus::Found {
                            program,
                            minimal_certified: true,
                        },
                        start,
                    );
                }
                SynthOutcome::NoProgram => continue,
                SynthOutcome::Budget => return outcome(self.kind(), BackendStatus::Budget, start),
            }
        }
        outcome(self.kind(), BackendStatus::NoProgram, start)
    }
}

/// Iterated-deepening SMT-Perm ([`synthesize_minimal`]).
struct SmtMinBackend;

impl Backend for SmtMinBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SmtMin
    }

    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome {
        let start = Instant::now();
        let machine = query.machine();
        let (result, _) = synthesize_minimal(
            &machine,
            1,
            upper_len(query),
            EncodeOptions::default(),
            Budget::with_shared(budget.clone()),
        );
        let status = match result {
            SynthOutcome::Found(program) => BackendStatus::Found {
                program,
                minimal_certified: true,
            },
            SynthOutcome::NoProgram => BackendStatus::NoProgram,
            SynthOutcome::Budget => BackendStatus::Budget,
        };
        outcome(self.kind(), status, start)
    }
}

/// The unlearned MCTS baseline. Stochastic: a `Found` is correct (the
/// engine replays candidates on the full oracle) but not minimal, and an
/// empty run proves nothing.
struct MctsBackend {
    iterations: u64,
    seed: u64,
}

impl Backend for MctsBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mcts
    }

    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome {
        let start = Instant::now();
        let result = sortsynth_mcts::run(&sortsynth_mcts::MctsConfig {
            machine: query.machine(),
            max_len: upper_len(query),
            iterations: self.iterations,
            exploration: 1.4,
            seed: self.seed,
            budget: budget.clone(),
        });
        let status = match result.best_program {
            Some(program) => BackendStatus::Found {
                program,
                minimal_certified: false,
            },
            None if budget.is_exhausted() => BackendStatus::Budget,
            None => BackendStatus::NoProgram,
        };
        outcome(self.kind(), status, start)
    }
}

/// The STOKE-style MCMC sampler, cold start over `upper_len` slots.
struct StokeBackend {
    iterations: u64,
    seed: u64,
}

impl Backend for StokeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Stoke
    }

    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome {
        let start = Instant::now();
        let result = sortsynth_stoke::run(&sortsynth_stoke::StokeConfig {
            machine: query.machine(),
            start: sortsynth_stoke::Start::Cold {
                slots: upper_len(query) as usize,
            },
            iterations: self.iterations,
            beta: 1.0,
            seed: self.seed,
            tests: sortsynth_stoke::TestSuite::Full,
            minimize_length: true,
            budget: budget.clone(),
        });
        let status = match result.best_correct {
            Some(program) => BackendStatus::Found {
                program,
                minimal_certified: false,
            },
            None if budget.is_exhausted() => BackendStatus::Budget,
            None => BackendStatus::NoProgram,
        };
        outcome(self.kind(), status, start)
    }
}

/// The classical planner: BFS over the Plan-Parallel encoding. BFS is
/// shortest-first over unit-cost actions (one per instruction), so plans
/// are length-minimal. Grounding is per-permutation-copy, which explodes
/// past `n = 3`; larger queries are reported [`BackendStatus::Unsupported`]
/// rather than grounded into memory.
struct PlanBackend;

impl Backend for PlanBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Plan
    }

    fn run(&self, query: &KernelQuery, budget: &SearchBudget) -> BackendOutcome {
        let start = Instant::now();
        if query.n > 3 {
            return outcome(self.kind(), BackendStatus::Unsupported, start);
        }
        let machine = query.machine();
        let (problem, instrs, _) = sortsynth_plan::encode_synthesis(&machine);
        let limits = sortsynth_plan::PlanLimits {
            budget: budget.clone(),
            ..sortsynth_plan::PlanLimits::default()
        };
        let result = sortsynth_plan::solve(&problem, sortsynth_plan::PlanStrategy::Bfs, limits);
        let max = upper_len(query) as usize;
        let status = match result.plan {
            Some(plan) if plan.len() <= max => BackendStatus::Found {
                program: sortsynth_plan::plan_to_program(&plan, &instrs),
                minimal_certified: true,
            },
            Some(_) => BackendStatus::NoProgram,
            None => match result.outcome {
                sortsynth_plan::PlanOutcome::Unsolvable => BackendStatus::NoProgram,
                _ => BackendStatus::Budget,
            },
        };
        outcome(self.kind(), status, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert!(!kind.metric_token().contains('-'));
        }
        assert_eq!(BackendKind::parse("no-such"), None);
    }

    #[test]
    fn upper_len_covers_known_optima() {
        // Known optimal lengths: n=2 cmov 4, n=3 cmov 11, n=3 minmax 8.
        assert_eq!(upper_len(&KernelQuery::best(2, 1, IsaMode::Cmov)), 4);
        assert_eq!(upper_len(&KernelQuery::best(3, 1, IsaMode::Cmov)), 12);
        assert_eq!(upper_len(&KernelQuery::best(3, 1, IsaMode::MinMax)), 9);
    }

    #[test]
    fn each_exact_backend_solves_n2() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        let machine = query.machine();
        for kind in [
            BackendKind::AStar,
            BackendKind::Cegis,
            BackendKind::SmtMin,
            BackendKind::Plan,
        ] {
            let out = backend_for(kind).run(&query, &SearchBudget::unlimited());
            let BackendStatus::Found { program: prog, .. } = &out.status else {
                panic!("{} found no program: {:?}", kind.name(), out.status);
            };
            assert!(machine.is_correct(prog), "{} incorrect", kind.name());
            assert_eq!(prog.len(), 4, "{} non-minimal", kind.name());
        }
    }

    #[test]
    fn cancelled_budget_stops_every_backend() {
        let query = KernelQuery::best(3, 1, IsaMode::Cmov);
        let (budget, handle) = SearchBudget::unlimited().cancellable();
        handle.cancel();
        for kind in BackendKind::ALL {
            let out = backend_for(kind).run(&query, &budget);
            assert!(
                matches!(out.status, BackendStatus::Budget),
                "{} ignored a pre-cancelled budget: {:?}",
                kind.name(),
                out.status
            );
        }
    }
}
