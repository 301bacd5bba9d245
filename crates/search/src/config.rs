//! Synthesis configuration: strategy, heuristics, cuts, and limits.

use std::path::PathBuf;
use std::time::Duration;

use sortsynth_isa::Machine;

use crate::budget::SearchBudget;
use crate::progress::ProgressHook;

/// Open-state selection strategy (§3.1).
///
/// Layered runs take the layer-synchronous round loop, with
/// [`SynthesisConfig::threads`] workers for a first-solution run and the
/// same kernel at every worker count; best-first runs always run on one
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Dijkstra-style layered enumeration: all programs of length ℓ are
    /// processed before length ℓ+1, so the first solution is guaranteed to
    /// be of minimal length. Each layer is expanded in rounds by every
    /// worker and merged in frontier order, the same at every worker count
    /// — with more than one worker, the paper's "dijkstra, parallel"
    /// ablation row.
    Layered,
    /// Best-first search ordered by `g + h` for the chosen heuristic.
    AStar {
        /// The guiding heuristic.
        heuristic: Heuristic,
    },
}

/// Search heuristics of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// No guidance: `f = g` (degenerates to uniform-cost search).
    None,
    /// Number of distinct permutations remaining in the state. Not
    /// admissible (it is a sortedness measure, not a length bound), but the
    /// paper's best-performing guide.
    PermCount,
    /// Number of distinct register assignments remaining (includes scratch
    /// registers and flags). Not admissible.
    AssignCount,
    /// Maximum over the state's assignments of the precomputed shortest
    /// per-assignment sorting distance. **Admissible**: every assignment
    /// must individually be sorted by the remaining program, so A* with this
    /// heuristic preserves minimality.
    MaxRemaining,
}

impl Heuristic {
    /// Whether `A*` with this heuristic still guarantees minimal-length
    /// solutions.
    pub fn is_admissible(self) -> bool {
        matches!(self, Heuristic::None | Heuristic::MaxRemaining)
    }
}

/// The §3.5 non-optimality-preserving cut. A freshly generated state of
/// length ℓ is discarded when its permutation count exceeds the threshold
/// derived from the best (minimum) permutation count seen at length ℓ−1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    /// Keep the state only if `perm_count ≤ k · min_prev` (the paper's
    /// multiplicative cut; `k = 1` is the most aggressive setting).
    Factor(f64),
    /// Keep the state only if `perm_count ≤ min_prev + c` (the paper's
    /// "cut with +2" row).
    Additive(u32),
}

impl Cut {
    /// The largest permutation count that survives given the previous
    /// layer's minimum.
    pub fn threshold(self, min_prev: u32) -> u32 {
        match self {
            Cut::Factor(k) => (k * min_prev as f64).floor() as u32,
            Cut::Additive(c) => min_prev + c,
        }
    }
}

/// Full configuration for one synthesis run.
///
/// Construct with [`SynthesisConfig::new`] and refine with the builder
/// methods; run with [`crate::synthesize`].
///
/// # Examples
///
/// ```
/// use sortsynth_isa::{IsaMode, Machine};
/// use sortsynth_search::{Cut, Heuristic, Strategy, SynthesisConfig};
///
/// let cfg = SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov))
///     .strategy(Strategy::AStar { heuristic: Heuristic::PermCount })
///     .cut(Cut::Factor(1.0))
///     .budget_viability(true)
///     .optimal_instrs_only(true);
/// assert!(!cfg.guarantees_minimal()); // cuts may prune optimal states
/// ```
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// The machine to synthesize for.
    pub machine: Machine,
    /// Open-state selection strategy.
    pub strategy: Strategy,
    /// Optional §3.5 cut.
    pub cut: Option<Cut>,
    /// Enable the §3.3 per-assignment remaining-budget viability check
    /// (requires the distance table; implied by `MaxRemaining` and
    /// `optimal_instrs_only`).
    pub budget_viability: bool,
    /// Restrict expansion to the §3.2 precomputed optimal first
    /// instructions.
    pub optimal_instrs_only: bool,
    /// Skip successors whose new instruction makes the parent edge's
    /// instruction dead (a dead-write cut from the static analyzer's
    /// liveness rules): appending `cmp` directly after `cmp` kills the
    /// first compare's flags, and `mov dst, _` directly after a write to
    /// `dst` that it does not read kills that write. The pruned program is
    /// observationally equal to a one-instruction-shorter program the
    /// layered search has already expanded, so no minimal-length solution
    /// is lost.
    pub dead_write_cut: bool,
    /// Skip successors the symbolic value-flow analyzer proves redundant: a
    /// new instruction that cannot change any reachable register assignment
    /// (a `mov`/`min`/`max`/`cmov` whose destination already holds the
    /// selected value in every parent assignment, a `cmp` that recomputes the
    /// current flags) yields a state identical to its parent, which the
    /// search has already expanded at a shorter length — so the prune is
    /// lossless. When the run is not collecting all solutions and not
    /// restricted to optimal first instructions, the cut additionally drops
    /// conditional moves whose condition holds in every parent assignment
    /// (the successor equals the one reached by the unconditional `mov` with
    /// the same operands, which is generated alongside it).
    pub value_flow_cut: bool,
    /// Hard upper bound on program length (inclusive). Used both as a search
    /// budget and, by the lower-bound prover, as the exhaustion depth.
    pub max_len: Option<u32>,
    /// Keep searching after the first solution and collect every solution of
    /// the minimal length.
    pub all_solutions: bool,
    /// Abort after generating this many states.
    pub node_limit: Option<u64>,
    /// Abort after this much wall-clock time.
    pub time_limit: Option<Duration>,
    /// Cooperative deadline/cancellation budget (see [`SearchBudget`]).
    /// Unlike `time_limit`, its deadline is absolute and it can be revoked
    /// from another thread mid-search.
    pub budget: SearchBudget,
    /// Record a progress sample every this many generated states
    /// (0 disables; used to regenerate the paper's Figure 1). Also sets the
    /// throttle for [`SynthesisConfig::progress_hook`] delivery and
    /// `search_progress` trace events (default throttle when 0: every 4096
    /// expansions).
    pub progress_every: u64,
    /// Optional live-progress callback, invoked on the throttle above and
    /// once more with a `finished` snapshot when the run ends (any outcome,
    /// including cancellation).
    pub progress_hook: Option<ProgressHook>,
    /// Search worker threads of a layered run. `1` is the default; `0`
    /// means "auto": use [`std::thread::available_parallelism`]. A
    /// first-solution layered run expands each layer with that many
    /// workers on the round loop (see DESIGN.md, "Parallel search"), and
    /// returns the same kernel with the same counters at every count, once
    /// solved or exhausted. All-solutions runs (the full solution DAG needs
    /// every parent edge in one shard) and runs with a memory budget or a
    /// resume journal (the spill tier streams one partition) use one worker
    /// whatever this is set to; best-first ([`Strategy::AStar`]) runs use
    /// the calling thread.
    pub threads: usize,
    /// Approximate resident-memory budget for search bookkeeping (arena
    /// spans + closed map + per-node metadata). When set, a layered run
    /// activates the external-memory tier: frontier spans over budget
    /// spill to checksummed append-only segments under
    /// [`SynthesisConfig::spill_dir`], expanded layers are compacted out of
    /// the arena, old closed-set entries are evicted to sorted segments
    /// with delayed duplicate detection on re-read, and a journal
    /// checkpoint after every completed layer makes the run resumable. A
    /// budgeted run uses one worker; A* runs ignore the budget (documented
    /// limitation of this tier).
    pub mem_budget_bytes: Option<u64>,
    /// Directory for spill segments and the resume journal. Defaults to a
    /// fresh per-run directory under the system temp dir when a budget is
    /// set without an explicit location.
    pub spill_dir: Option<PathBuf>,
    /// Resume a killed budgeted search from the journal in this directory
    /// (the run's `spill_dir`). The journal's config fingerprint must
    /// match; segment checksums are verified before any state is trusted —
    /// a torn or corrupt journal/segment is reported as an error, never
    /// silently replayed. Use [`crate::try_synthesize`] to observe the
    /// error.
    pub resume_dir: Option<PathBuf>,
    /// Persisted per-(n, scratch, ISA) arena sizing table. When the file
    /// has a row for this run's machine, arenas and open lanes are
    /// pre-sized to the recorded high-water marks (eliminating growth
    /// reallocations); every `Solved` run max-merges its marks into the
    /// row. Without a file row, a run with a distance table and no memory
    /// budget pre-sizes from the shipped row of its machine (what a cold
    /// [`SynthesisConfig::best`] run records; paper machines only).
    pub sizing_path: Option<PathBuf>,
}

impl SynthesisConfig {
    /// A baseline configuration: serial layered (Dijkstra) search with the
    /// erasure viability check only — the paper's "dijkstra, single core"
    /// row.
    pub fn new(machine: Machine) -> Self {
        SynthesisConfig {
            machine,
            strategy: Strategy::Layered,
            cut: None,
            budget_viability: false,
            optimal_instrs_only: false,
            dead_write_cut: false,
            value_flow_cut: false,
            max_len: None,
            all_solutions: false,
            node_limit: None,
            time_limit: None,
            budget: SearchBudget::unlimited(),
            progress_every: 0,
            progress_hook: None,
            threads: 1,
            mem_budget_bytes: None,
            spill_dir: None,
            resume_dir: None,
            sizing_path: None,
        }
    }

    /// The paper's best configuration "(III)" (§5.2): optimal-instruction
    /// restriction, assignment viability check, and the `k = 1` cut, on the
    /// length-ordered (layered) open list.
    ///
    /// The layered open list realizes the paper's permutation-count guidance
    /// through the cut itself (each layer only keeps states close to the
    /// layer's permutation-count minimum) while retaining the
    /// shortest-first property that makes the reported kernel lengths (11 /
    /// 20 / ≈33 for n = 3/4/5) come out directly. A free-running best-first
    /// variant is available via [`Strategy::AStar`] for the ablation
    /// experiments, but being non-admissibly guided it may return
    /// non-minimal kernels.
    pub fn best(machine: Machine) -> Self {
        SynthesisConfig::new(machine)
            .optimal_instrs_only(true)
            .budget_viability(true)
            .cut(Cut::Factor(1.0))
    }

    /// Sets the open-state selection strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the §3.5 cut.
    pub fn cut(mut self, cut: Cut) -> Self {
        self.cut = Some(cut);
        self
    }

    /// Enables/disables the per-assignment budget viability check.
    pub fn budget_viability(mut self, on: bool) -> Self {
        self.budget_viability = on;
        self
    }

    /// Enables/disables the optimal-first-instruction restriction.
    pub fn optimal_instrs_only(mut self, on: bool) -> Self {
        self.optimal_instrs_only = on;
        self
    }

    /// Enables/disables the liveness-based dead-write successor cut.
    pub fn dead_write_cut(mut self, on: bool) -> Self {
        self.dead_write_cut = on;
        self
    }

    /// Enables/disables the symbolic value-flow successor cut.
    pub fn value_flow_cut(mut self, on: bool) -> Self {
        self.value_flow_cut = on;
        self
    }

    /// Sets the inclusive maximum program length.
    pub fn max_len(mut self, len: u32) -> Self {
        self.max_len = Some(len);
        self
    }

    /// Collect every minimal-length solution instead of stopping at the
    /// first.
    pub fn all_solutions(mut self, on: bool) -> Self {
        self.all_solutions = on;
        self
    }

    /// Aborts the search after generating `limit` states.
    pub fn node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Aborts the search after `limit` wall-clock time.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Bounds the search with a cooperative [`SearchBudget`] (absolute
    /// deadline and/or external cancellation).
    pub fn search_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Records progress samples (for Figure 1) every `every` generated
    /// states.
    pub fn progress_every(mut self, every: u64) -> Self {
        self.progress_every = every;
        self
    }

    /// Installs a live-progress callback (see
    /// [`SynthesisConfig::progress_hook`]).
    pub fn progress_hook(mut self, hook: ProgressHook) -> Self {
        self.progress_hook = Some(hook);
        self
    }

    /// Sets the worker-thread count: `1` = one thread, `0` = all available
    /// cores, otherwise that many parallel workers for a layered run.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the resident-memory budget that activates the external-memory
    /// spill tier (see [`SynthesisConfig::mem_budget_bytes`]).
    pub fn mem_budget_bytes(mut self, bytes: u64) -> Self {
        self.mem_budget_bytes = Some(bytes);
        self
    }

    /// Sets the spill/journal directory for the external-memory tier.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Resumes a killed budgeted search from the journal in `dir`.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_dir = Some(dir.into());
        self
    }

    /// Points the engine at a persisted arena sizing table (see
    /// [`SynthesisConfig::sizing_path`]).
    pub fn sizing_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.sizing_path = Some(path.into());
        self
    }

    /// The resolved worker count: `threads`, with `0` mapped to
    /// [`std::thread::available_parallelism`].
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }

    /// Whether this configuration guarantees that returned solutions have
    /// minimal length: layered search or admissible A*, with no cut and no
    /// optimal-instruction restriction (§3.2/§3.5 are explicitly
    /// non-optimality-preserving — though in practice, and in the paper's
    /// experiments, they retain minimal-length solutions).
    pub fn guarantees_minimal(&self) -> bool {
        let strategy_ok = match self.strategy {
            Strategy::Layered => true,
            Strategy::AStar { heuristic } => heuristic.is_admissible(),
        };
        strategy_ok && self.cut.is_none() && !self.optimal_instrs_only
    }

    /// Whether the engine must build a [`crate::DistanceTable`].
    pub(crate) fn needs_distance_table(&self) -> bool {
        self.budget_viability
            || self.optimal_instrs_only
            || matches!(
                self.strategy,
                Strategy::AStar {
                    heuristic: Heuristic::MaxRemaining
                }
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    #[test]
    fn cut_thresholds() {
        assert_eq!(Cut::Factor(1.0).threshold(6), 6);
        assert_eq!(Cut::Factor(1.5).threshold(6), 9);
        assert_eq!(Cut::Factor(2.0).threshold(5), 10);
        assert_eq!(Cut::Additive(2).threshold(6), 8);
    }

    #[test]
    fn admissibility() {
        assert!(Heuristic::MaxRemaining.is_admissible());
        assert!(Heuristic::None.is_admissible());
        assert!(!Heuristic::PermCount.is_admissible());
        assert!(!Heuristic::AssignCount.is_admissible());
    }

    #[test]
    fn minimality_guarantee() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        assert!(SynthesisConfig::new(m.clone()).guarantees_minimal());
        assert!(SynthesisConfig::new(m.clone())
            .strategy(Strategy::AStar {
                heuristic: Heuristic::MaxRemaining
            })
            .guarantees_minimal());
        assert!(!SynthesisConfig::new(m.clone())
            .cut(Cut::Factor(2.0))
            .guarantees_minimal());
        assert!(!SynthesisConfig::best(m).guarantees_minimal());
    }

    #[test]
    fn best_config_needs_distance_table() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        assert!(SynthesisConfig::best(m.clone()).needs_distance_table());
        assert!(!SynthesisConfig::new(m).needs_distance_table());
    }
}
