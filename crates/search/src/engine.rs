//! The enumerative synthesis engine: the public result types, the shared
//! expansion step (instruction selection, viability, goal detection, and
//! cuts — §3.2–§3.5 of the paper), and the single-shard driver running
//! layered (Dijkstra) or A* search over the core in [`crate::shard`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sortsynth_isa::{Instr, Machine, MachineState, Op, Program};

use sortsynth_obs::names;
use sortsynth_obs::profile::{Phase, PhaseProbe, PHASE_COUNT};

use crate::config::{Strategy, SynthesisConfig};
use crate::distance::{DistanceTable, UNSORTABLE};
use crate::live::LiveSpace;
use crate::shard::{
    parent_idx, parent_ref, Cand, Closing, Edge, Facts, Merged, MinPerm, ParentRef, RunFrame,
    Shard, Throttle, PARENT_NONE,
};
use crate::sizing::SizingTable;
use crate::spill::{self, ResumeError, SpillTier};
use crate::state::{narrow_key, Assign, IndexBits, ProjScratch};

/// How a synthesis run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A solution was found (first-solution mode).
    Solved,
    /// Every minimal-length solution reachable under the configuration was
    /// collected (all-solutions mode).
    SolvedAll,
    /// The reachable space within `max_len` was exhausted without finding a
    /// solution. Under an optimality-preserving configuration
    /// ([`SynthesisConfig::guarantees_minimal`]) this *proves* that no
    /// program of length ≤ `max_len` exists.
    Exhausted,
    /// The state budget ([`SynthesisConfig::node_limit`]) was hit.
    NodeLimit,
    /// The wall-clock budget ([`SynthesisConfig::time_limit`] or the
    /// [`crate::SearchBudget`] deadline) was hit.
    TimeLimit,
    /// The run's [`crate::SearchBudget`] was cancelled from another thread.
    Cancelled,
}

/// One sample of search progress, for regenerating the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSample {
    /// Seconds since the search started.
    pub elapsed_secs: f64,
    /// Open (not yet expanded) states at the time of the sample.
    pub open_states: u64,
    /// Goal states found so far.
    pub solutions: u64,
}

/// Counters and timings for one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// States produced by applying an instruction (before any pruning).
    pub generated: u64,
    /// States whose successors were explored.
    pub expanded: u64,
    /// Successors dropped because an equivalent state was already known
    /// (§3.6).
    pub dedup_hits: u64,
    /// Successors dropped by the viability checks (§3.3).
    pub viability_pruned: u64,
    /// Successors dropped by the cut (§3.5).
    pub cut_pruned: u64,
    /// Successors skipped by the liveness-based dead-write cut
    /// ([`SynthesisConfig::dead_write_cut`]): the appended instruction would
    /// have made the parent edge's instruction dead.
    pub dead_write_pruned: u64,
    /// Successors skipped by the symbolic value-flow cut
    /// ([`SynthesisConfig::value_flow_cut`]): the appended instruction was
    /// proven effect-free on every assignment of the parent state (or
    /// subsumed by the plain `mov` generated alongside it).
    pub value_flow_pruned: u64,
    /// Unique states kept (nodes in the solution DAG).
    pub states_kept: u64,
    /// The configuration asked for the distance table, but the machine has
    /// too many actions for [`DistanceTable::supports`]: the search ran with
    /// degraded pruning (no viability budget, no optimal-first-instruction
    /// restriction, no `MaxRemaining` heuristic).
    pub distance_table_skipped: bool,
    /// Time spent building the machine's live space
    /// ([`crate::LiveSpace`]) and the per-assignment distance table.
    pub distance_build: Duration,
    /// Total wall-clock time of the search (excluding table build).
    pub search_time: Duration,
    /// Progress samples (empty unless `progress_every > 0`).
    pub progress: Vec<ProgressSample>,
    /// Unique canonical states interned into the arena (sequential: equals
    /// [`SearchStats::states_kept`]; parallel: summed over the per-shard
    /// arenas).
    pub interned_states: u64,
    /// Bytes of span storage held by the state arena(s) at the end of the
    /// run (contiguous spans of 2-byte live indices, or of 8-byte
    /// `MachineState`s on machines without a live space; per-state metadata
    /// excluded).
    pub arena_bytes: u64,
    /// Expansions whose scratch buffers were served entirely from already-
    /// reserved capacity — the steady-state, allocation-free path. The
    /// complement (`expanded - scratch_reused`) counts the warm-up
    /// expansions that grew a scratch or arena buffer.
    pub scratch_reused: u64,
    /// Parallel mode only: successors filed for a key partition other than
    /// their parent's.
    pub routed: u64,
    /// Always 0: the layer-synchronous parallel driver splits each round
    /// through a shared cursor and never steals. Kept so the counter block
    /// and its readers keep their layout.
    pub steals: u64,
    /// Always 0: the layer-synchronous parallel driver merges in the
    /// single-shard order, so its first goal is minimal without an
    /// incumbent bound. Kept so the counter block and its readers keep
    /// their layout.
    pub bound_pruned: u64,
    /// Open entries discarded at pop without expansion: superseded by a
    /// reopen at a shorter length, or overtaken by the length bound while
    /// queued. Best-first runs count their pop-time skips here.
    pub stale_pops: u64,
    /// Cursor-advance steps the shards' bucketed open lists spent scanning
    /// empty buckets/lanes. The amortized-O(1) selection claim is this
    /// number staying small relative to [`SearchStats::expanded`].
    pub bucket_scans: u64,
    /// Passes taken by span stepping: each pass steps up to
    /// [`sortsynth_isa::SWAR_LANES`] parent assignments through one action
    /// (a live-index gather, or a SWAR lane kernel on machines without a
    /// live space).
    pub swar_batches: u64,
    /// Frontier states whose assignment spans were written to a spill
    /// segment instead of the arena (external-memory tier; 0 unless
    /// [`SynthesisConfig::mem_budget_bytes`] is set on a layered run).
    pub spilled_open: u64,
    /// Closed-map entries evicted to sorted on-disk segments under budget
    /// pressure.
    pub spilled_closed: u64,
    /// Frontier states deleted by delayed duplicate detection: they
    /// duplicated a state whose closed-map entry had been evicted to disk.
    /// These are dedup hits the resident map could no longer see.
    pub ddd_dedup_hits: u64,
    /// Frontier states restored from a resume journal
    /// ([`SynthesisConfig::resume_from`]); 0 for non-resumed runs.
    pub resumed_frontier_states: u64,
    /// Growth reallocations of the arena's backing stores (span store, meta
    /// store, closed map) after construction. A run pre-sized from the
    /// sizing table pins this to zero after warm-up.
    pub arena_reallocs: u64,
    /// Bytes of closed-map storage reserved at end of run: capacity × the
    /// 16-byte entry of a folded `u64` key and a `u32` id.
    pub key_bytes: u64,
    /// Bytes appended to spill segments (frontier spans + closed entries).
    pub spilled_bytes: u64,
    /// Spill segment files created over the run.
    pub spill_segments: u64,
    /// Estimated resident footprint at end of run: arena spans, closed map,
    /// per-state metadata, and edges. The quantity the spill tier
    /// holds under [`SynthesisConfig::mem_budget_bytes`].
    pub resident_bytes: u64,
    /// Parallel mode only: per-worker/shard counter blocks, in worker order.
    /// Empty for single-shard runs. The global counters above are the sums
    /// of these (each shard owns a disjoint slice of the key space, so no
    /// state is ever counted by two shards).
    pub shards: Vec<ShardStats>,
    /// Nanoseconds attributed to each engine phase by the instrumented
    /// profiler, indexed by [`sortsynth_obs::profile::Phase`]. All zero
    /// unless the profiler was enabled for the run
    /// ([`sortsynth_obs::profile::set_enabled`]).
    pub phase_nanos: [u64; PHASE_COUNT],
}

/// The counter block of one shard: the single-shard driver's only shard,
/// or one parallel worker's. The only counter type the search keeps —
/// expansion fills the pruning counters, [`crate::shard::Shard::merge`]
/// the merge dispositions — and the run's [`SearchStats`] totals are its
/// sums. See [`SearchStats::shards`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// States of this partition that were expanded, by any worker: every
    /// expansion-side counter is attributed to the partition that owns the
    /// expanded state, so the per-shard figures are deterministic.
    pub expanded: u64,
    /// States generated by applying instructions to this partition's
    /// states.
    pub generated: u64,
    /// Successors of this partition's states dropped by viability checks.
    pub viability_pruned: u64,
    /// Successors of this partition's states dropped by §3.5 cut checks.
    pub cut_pruned: u64,
    /// Successors of this partition's states skipped by the dead-write cut.
    pub dead_write_pruned: u64,
    /// Successors of this partition's states skipped by the value-flow cut.
    pub value_flow_pruned: u64,
    /// Candidates this shard disposed of as the owner of their keys.
    pub merged: u64,
    /// Candidates dropped by this shard's closed set (already known at an
    /// equal or shorter length).
    pub dedup_hits: u64,
    /// Candidates re-admitted at a strictly shorter length than previously
    /// recorded (the old open entry becomes stale).
    pub reopened: u64,
    /// Open entries discarded at pop without expansion: superseded by a
    /// reopen, or overtaken by the length bound while queued. Summed into
    /// [`SearchStats::stale_pops`] and `sortsynth_search_stale_pops_total`.
    pub stale_pops: u64,
    /// Always 0 (see [`SearchStats::bound_pruned`]); per shard
    /// `merged == dedup_hits + reopened + bound_pruned + fresh states kept`
    /// holds exactly (the root state is seeded, not merged).
    pub bound_pruned: u64,
    /// Unique states first recorded by this shard's closed set.
    pub states_kept: u64,
    /// Successors of this partition's states filed for another key
    /// partition.
    pub routed: u64,
    /// Always 0 (see [`SearchStats::steals`]).
    pub steals: u64,
    /// Expansions of this partition's states served entirely from
    /// already-reserved scratch capacity (see
    /// [`SearchStats::scratch_reused`]).
    pub scratch_reused: u64,
    /// Stepping passes taken by expansions of this partition's states (see
    /// [`SearchStats::swar_batches`]).
    pub swar_batches: u64,
    /// Frontier spans this shard's spill tier wrote to disk (see
    /// [`SearchStats::spilled_open`]).
    pub spilled_open: u64,
    /// Closed-map entries this shard's spill tier evicted to disk.
    pub spilled_closed: u64,
    /// Fresh states deleted by delayed duplicate detection.
    pub ddd_dedup_hits: u64,
    /// Bytes appended to this shard's spill segments.
    pub spilled_bytes: u64,
    /// Spill segment files this shard created.
    pub spill_segments: u64,
}

impl ShardStats {
    /// Number of counters in the block.
    pub(crate) const LEN: usize = 21;

    /// Every counter, in declaration order — the journal's persisted form.
    /// The destructure is exhaustive, so a counter added to the block does
    /// not compile until it is listed here (and so persisted).
    pub(crate) fn to_array(&self) -> [u64; Self::LEN] {
        let ShardStats {
            expanded,
            generated,
            viability_pruned,
            cut_pruned,
            dead_write_pruned,
            value_flow_pruned,
            merged,
            dedup_hits,
            reopened,
            stale_pops,
            bound_pruned,
            states_kept,
            routed,
            steals,
            scratch_reused,
            swar_batches,
            spilled_open,
            spilled_closed,
            ddd_dedup_hits,
            spilled_bytes,
            spill_segments,
        } = *self;
        [
            expanded,
            generated,
            viability_pruned,
            cut_pruned,
            dead_write_pruned,
            value_flow_pruned,
            merged,
            dedup_hits,
            reopened,
            stale_pops,
            bound_pruned,
            states_kept,
            routed,
            steals,
            scratch_reused,
            swar_batches,
            spilled_open,
            spilled_closed,
            ddd_dedup_hits,
            spilled_bytes,
            spill_segments,
        ]
    }

    /// The inverse of [`ShardStats::to_array`]: a struct literal, so a
    /// counter added to the block does not compile until it is read back.
    pub(crate) fn from_array(counters: [u64; Self::LEN]) -> ShardStats {
        let mut counters = counters.into_iter();
        let mut next = || counters.next().expect("one value per counter");
        ShardStats {
            expanded: next(),
            generated: next(),
            viability_pruned: next(),
            cut_pruned: next(),
            dead_write_pruned: next(),
            value_flow_pruned: next(),
            merged: next(),
            dedup_hits: next(),
            reopened: next(),
            stale_pops: next(),
            bound_pruned: next(),
            states_kept: next(),
            routed: next(),
            steals: next(),
            scratch_reused: next(),
            swar_batches: next(),
            spilled_open: next(),
            spilled_closed: next(),
            ddd_dedup_hits: next(),
            spilled_bytes: next(),
            spill_segments: next(),
        }
    }

    /// Adds `other` into `self`, counter by counter.
    pub(crate) fn add(&mut self, other: &ShardStats) {
        let mut sum = self.to_array();
        for (s, o) in sum.iter_mut().zip(other.to_array()) {
            *s += o;
        }
        *self = ShardStats::from_array(sum);
    }
}

/// The deduplicated search DAG with its goal nodes; every root-to-goal path
/// is a distinct minimal-length sorting kernel.
#[derive(Debug, Clone)]
pub struct SolutionDag {
    /// One primary edge per node (node ids are arena ids).
    edges: Vec<Edge>,
    /// Extra same-length parents per node (all-solutions mode only).
    more: HashMap<u32, Vec<(u32, u16)>>,
    goals: Vec<u32>,
    actions: Vec<Instr>,
}

impl SolutionDag {
    /// Builds a degenerate DAG holding exactly one root-to-goal chain (or
    /// just the root when `path` is `None`). `path` is a sequence of action
    /// indices; an empty path means the initial state itself is the goal.
    /// Used by the parallel driver, whose shards hold parent edges across
    /// partitions; its kernel is walked out of them as one path.
    pub(crate) fn from_path(actions: Vec<Instr>, path: Option<&[u16]>) -> SolutionDag {
        let mut edges = vec![Edge {
            parent: PARENT_NONE,
            g: 0,
            instr: 0,
        }];
        let mut goals = Vec::new();
        if let Some(path) = path {
            for (i, &ai) in path.iter().enumerate() {
                edges.push(Edge {
                    parent: parent_ref(0, i as u32),
                    g: (i + 1) as u32,
                    instr: ai,
                });
            }
            goals.push((edges.len() - 1) as u32);
        }
        SolutionDag {
            edges,
            more: HashMap::new(),
            goals,
            actions,
        }
    }

    /// Every `(parent, action)` edge into `node`: the primary edge first.
    fn parents(&self, node: u32) -> impl Iterator<Item = (u32, u16)> + '_ {
        let e = self.edges[node as usize];
        std::iter::once((parent_idx(e.parent), e.instr))
            .chain(self.more.get(&node).into_iter().flatten().copied())
    }

    /// The action list that edge indices refer to.
    pub fn actions(&self) -> &[Instr] {
        &self.actions
    }

    /// Number of goal *states* (distinct final register-assignment sets).
    pub fn goal_states(&self) -> usize {
        self.goals.len()
    }

    /// Total number of distinct solution programs: root-to-goal paths.
    ///
    /// Computed by dynamic programming over the DAG, so it is exact even
    /// when the count (2 233 360 for n = 4 in the paper) is far too large to
    /// enumerate.
    pub fn count_solutions(&self) -> u64 {
        if self.goals.is_empty() {
            return 0;
        }
        let mut order: Vec<u32> = (0..self.edges.len() as u32).collect();
        order.sort_unstable_by_key(|&i| self.edges[i as usize].g);
        let mut count = vec![0u64; self.edges.len()];
        for &i in &order {
            count[i as usize] = if self.edges[i as usize].parent == PARENT_NONE {
                1
            } else {
                self.parents(i)
                    .fold(0u64, |c, (p, _)| c.saturating_add(count[p as usize]))
            };
        }
        self.goals
            .iter()
            .fold(0u64, |acc, &g| acc.saturating_add(count[g as usize]))
    }

    /// Extracts up to `limit` distinct solution programs.
    pub fn programs(&self, limit: usize) -> Vec<Program> {
        let mut out = Vec::new();
        for &goal in &self.goals {
            if out.len() >= limit {
                break;
            }
            let mut suffix = Vec::new();
            self.walk(goal, &mut suffix, limit, &mut out);
        }
        out
    }

    /// The first solution program, if any.
    pub fn first_program(&self) -> Option<Program> {
        self.programs(1).into_iter().next()
    }

    fn walk(&self, node_idx: u32, suffix: &mut Vec<Instr>, limit: usize, out: &mut Vec<Program>) {
        if out.len() >= limit {
            return;
        }
        if self.edges[node_idx as usize].parent == PARENT_NONE {
            let mut prog: Program = suffix.clone();
            prog.reverse();
            out.push(prog);
            return;
        }
        for (parent, ai) in self.parents(node_idx) {
            if out.len() >= limit {
                return;
            }
            suffix.push(self.actions[ai as usize]);
            self.walk(parent, suffix, limit, out);
            suffix.pop();
        }
    }
}

/// The result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The deduplicated solution DAG.
    pub dag: SolutionDag,
    /// Length of the found solutions, if any.
    pub found_len: Option<u32>,
    /// Whether the configuration guarantees `found_len` is minimal.
    pub minimal_certified: bool,
    /// How the run ended.
    pub outcome: Outcome,
    /// Counters and timings.
    pub stats: SearchStats,
}

impl SynthesisResult {
    /// The first solution, if any.
    pub fn first_program(&self) -> Option<Program> {
        self.dag.first_program()
    }

    /// Total number of distinct solutions in the DAG.
    pub fn solution_count(&self) -> u64 {
        self.dag.count_solutions()
    }
}

/// Runs the enumerative synthesis described by `cfg`.
///
/// This is the main entry point of the crate; see [`SynthesisConfig`] for
/// the knobs and the crate docs for a guided example. A layered run with
/// [`SynthesisConfig::threads`] resolved to more than one worker is handed
/// to the layer-synchronous round loop ([`crate::parallel`]), which returns
/// the same kernel as one thread. Everything else runs on the single-shard
/// driver whatever the thread count: best-first ([`Strategy::AStar`]) runs,
/// whose pop order has no layers to synchronize on; all-solutions mode,
/// which builds the full solution DAG; and budgeted or resumed runs, whose
/// spill tier streams one shard's layers.
pub fn synthesize(cfg: &SynthesisConfig) -> SynthesisResult {
    try_synthesize(cfg).unwrap_or_else(|e| panic!("synthesis failed to start: {e}"))
}

/// [`synthesize`], but resume failures surface as a [`ResumeError`] instead
/// of a panic. Only [`SynthesisConfig::resume_from`] runs can fail here: a
/// missing journal, a checksum-detected torn segment, or a configuration
/// mismatch is reported, never silently replayed.
pub fn try_synthesize(cfg: &SynthesisConfig) -> Result<SynthesisResult, ResumeError> {
    let t0 = Instant::now();
    match LiveSpace::build(&cfg.machine) {
        Some(space) => run::<u16>(cfg, space, t0.elapsed()),
        None => run::<MachineState>(cfg, cfg.machine.clone(), t0.elapsed()),
    }
}

/// Runs `cfg` over spans of `A` on the driver its strategy calls for.
/// `setup` is the time already spent building `space`, counted with the
/// table build.
fn run<A: Assign>(
    cfg: &SynthesisConfig,
    space: A::Space,
    setup: Duration,
) -> Result<SynthesisResult, ResumeError> {
    let rounds = cfg.strategy == Strategy::Layered
        && !cfg.all_solutions
        && cfg.mem_budget_bytes.is_none()
        && cfg.resume_dir.is_none();
    if rounds && cfg.effective_threads() > 1 {
        return Ok(crate::parallel::run::<A>(cfg, space, setup));
    }
    Engine::<A>::new(cfg, space, setup).run()
}

/// The (states, assignments) arena pre-size for a run with a distance table
/// and no measured sizing row: 32 states per single-assignment encoding of a
/// three-flag-plane table, clamped. The estimate counts three planes even
/// for min/max, whose table holds one, so what small runs reserve (and so
/// what they pay in setup and RSS) does not depend on the table's layout.
fn presize_estimate(machine: &Machine) -> (usize, usize) {
    let encodings = 3 * (machine.n() as usize + 1).pow(machine.num_regs() as u32);
    let states = encodings.saturating_mul(32).min(512 * 1024);
    let per_state = sortsynth_isa::factorial(machine.n()) as usize;
    let assigns = states.saturating_mul(per_state).min(16 * 1024 * 1024);
    (states, assigns)
}

/// Builds the per-assignment distance table when the configuration needs it
/// and the machine fits, over the machine's live space when it has one.
/// Machines with many scratch registers overflow the table's action bitset;
/// they search without the distance-based aids instead of panicking, and
/// the fallback is recorded in [`SearchStats::distance_table_skipped`].
/// Shared by both drivers, so the skip flag is reported on both paths.
/// `setup` (the live-space build) is counted in
/// [`SearchStats::distance_build`] with the table.
pub(crate) fn build_distance_table(
    cfg: &SynthesisConfig,
    live: Option<&LiveSpace>,
    setup: Duration,
    stats: &mut SearchStats,
) -> Option<DistanceTable> {
    let t0 = Instant::now();
    let table = if cfg.needs_distance_table() && DistanceTable::supports(&cfg.machine) {
        Some(DistanceTable::build_over(
            &cfg.machine,
            live,
            cfg.optimal_instrs_only,
        ))
    } else {
        // Record the degraded-pruning fallback instead of silently searching
        // without the distance-based aids.
        stats.distance_table_skipped =
            cfg.needs_distance_table() && !DistanceTable::supports(&cfg.machine);
        None
    };
    stats.distance_build = setup + t0.elapsed();
    table
}

/// One successor surviving expansion, described by its span in the shared
/// scratch buffer ([`SuccessorBuf`]) plus every fact computed while it was
/// generated. The owner's [`Shard::merge`] consumes these without touching
/// the assignments again — beyond one `memcpy` of the span into the arena
/// for fresh states.
#[derive(Clone, Copy)]
pub(crate) struct SuccMeta {
    /// Index of the applied action in the machine's action list. `u16`
    /// because large machines exceed 256 actions.
    pub ai: u16,
    /// Span start in [`SuccessorBuf::assigns`].
    pub offset: u32,
    /// Span length (canonical assignment count).
    pub len: u32,
    /// Folded content hash of the span ([`crate::narrow_key`]).
    pub key: u64,
    /// Permutation count (for cuts and heuristics).
    pub perm: u32,
    /// Max per-assignment distance (0 when the run has no table).
    pub max_dist: u16,
    /// Whether every assignment in the successor is sorted.
    pub goal: bool,
}

/// Reusable successor storage: all survivors of one expansion, their spans
/// concatenated in `assigns` and described by `metas`. Cleared — never
/// shrunk — between expansions, so the steady state writes into
/// already-reserved memory.
pub(crate) struct SuccessorBuf<A> {
    pub assigns: Vec<A>,
    pub metas: Vec<SuccMeta>,
}

impl<A> Default for SuccessorBuf<A> {
    fn default() -> Self {
        SuccessorBuf {
            assigns: Vec::new(),
            metas: Vec::new(),
        }
    }
}

impl<A: Assign> SuccessorBuf<A> {
    pub fn clear(&mut self) {
        self.assigns.clear();
        self.metas.clear();
    }

    /// The span of one successor.
    pub fn assigns_of(&self, m: &SuccMeta) -> &[A] {
        &self.assigns[m.offset as usize..(m.offset + m.len) as usize]
    }

    /// One successor as a merge offer: the candidate at length `g` under
    /// `parent`, and the facts that insert it.
    pub fn offer(&self, m: &SuccMeta, g: u32, parent: ParentRef) -> (Cand, Facts<'_, A>) {
        let cand = Cand {
            key: m.key,
            g,
            parent,
            instr: m.ai,
        };
        let facts = Facts {
            assigns: self.assigns_of(m),
            perm: m.perm,
            max_dist: m.max_dist,
            goal: m.goal,
        };
        (cand, facts)
    }
}

/// Per-worker expansion scratch: the successor buffer, the projection
/// scratch used for permutation counting, the bitmap that canonicalizes
/// live-index spans, and the per-action successor distances of the state
/// under expansion.
pub(crate) struct ExpandScratch<A> {
    pub buf: SuccessorBuf<A>,
    pub(crate) proj: ProjScratch,
    bits: IndexBits,
    /// Per-action successor `max_dist` of the state under expansion
    /// ([`DistanceTable::succ_max_dist_sweep`] output).
    succ_worst: Vec<u16>,
}

impl<A> Default for ExpandScratch<A> {
    fn default() -> Self {
        ExpandScratch {
            buf: SuccessorBuf::default(),
            proj: ProjScratch::default(),
            bits: IndexBits::default(),
            succ_worst: Vec::new(),
        }
    }
}

impl<A> ExpandScratch<A> {
    /// Reserved capacities, for [`SearchStats::scratch_reused`]: an
    /// expansion that leaves the signature unchanged allocated nothing
    /// here.
    pub fn capacity_signature(&self) -> (usize, usize, usize, usize) {
        (
            self.buf.assigns.capacity(),
            self.buf.metas.capacity(),
            self.proj.capacity(),
            self.succ_worst.capacity(),
        )
    }
}

/// The read-only inputs of state expansion, shared by both drivers.
pub(crate) struct ExpandCtx<'a, A: Assign> {
    pub cfg: &'a SynthesisConfig,
    pub actions: &'a [Instr],
    pub table: Option<&'a DistanceTable>,
    /// What steps the spans: the live space, or the machine.
    pub space: &'a A::Space,
}

impl<A: Assign> ExpandCtx<'_, A> {
    /// The thread-safe part of expansion: instruction selection (§3.2),
    /// viability (§3.3), goal detection (§3.4), and the cut (§3.5).
    /// Deduplication (§3.6) happens later, at the owner of the successor's
    /// key ([`Shard::merge`]). `prev_instr` is the instruction on the edge
    /// that produced `state` (used by the dead-write cut; ignored when the
    /// cut is off), `bound` the caller's current inclusive length bound.
    ///
    /// `state` is a raw canonical span (arena-resident or copied scratch);
    /// survivors land in `scratch.buf` as spans plus cached facts, so the
    /// whole expansion allocates nothing once the scratch has grown to
    /// steady state.
    ///
    /// Expansion runs in two passes so the phase profiler can attribute
    /// time with one timestamp per pass instead of per candidate: the
    /// action sweep (select, viability, cut, step) leaves survivors as raw
    /// spans, then a second pass canonicalizes each span in place and
    /// computes its content hash. Dedup gaps the canonicalization leaves
    /// between spans are harmless — every consumer reads spans through
    /// `(offset, len)`, never by assuming dense packing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn expand(
        &self,
        state: &[A],
        prev_instr: Option<Instr>,
        g: u32,
        bound: u32,
        cut_threshold: Option<u32>,
        scratch: &mut ExpandScratch<A>,
        counters: &mut ShardStats,
        probe: &mut PhaseProbe,
    ) {
        counters.expanded += 1;
        // An expansion that leaves the scratch capacities unchanged
        // allocated nothing here ([`SearchStats::scratch_reused`]).
        let reserved = scratch.capacity_signature();
        scratch.buf.clear();
        let space = self.space;
        // Successor-row fast path: a live-index span reads its successors'
        // distances and projections straight off the table's rows, so a
        // candidate's viability and cut are decided before it is stepped.
        let succ_table = self
            .table
            .filter(|t| t.has_succ_dist())
            .zip(A::indices(state));
        if let Some((table, indices)) = succ_table {
            // Whole-sweep viability: one streaming pass computes every
            // action's successor distance up front (packed max over
            // contiguous rows), so the action loop below never touches the
            // table row-by-row for viability again.
            table.succ_max_dist_sweep(indices, &mut scratch.succ_worst);
        }
        let allowed = match self.table {
            Some(table) if self.cfg.optimal_instrs_only => {
                Some(table.optimal_first_moves_of(state))
            }
            _ => None,
        };
        // A successor whose new instruction erases the parent edge's effect
        // (cmp overwriting an unread cmp, mov killing an unread write)
        // equals a state already reachable one layer earlier.
        let prev_instr = if self.cfg.dead_write_cut {
            prev_instr
        } else {
            None
        };
        // Cut-bound permutation counting: a span the cut will discard only
        // needs its count known to exceed the threshold, so the scan stops
        // there. Kept spans never reach the cap — their count stays exact
        // (as [`SuccMeta::perm`] and the layer minima require). Goal spans
        // project to the single sorted tuple and finish at 1 regardless.
        let cut_cap = cut_threshold.unwrap_or(u32::MAX);
        // The sibling-subsumption half of the value-flow cut drops edges
        // whose successor duplicates the plain `mov` successor generated in
        // this same sweep — only safe when the full action set is on the
        // table and the caller does not want every minimal program.
        let vf_subsume =
            self.cfg.value_flow_cut && !self.cfg.all_solutions && !self.cfg.optimal_instrs_only;
        // An action that writes no value register (`cmp`, or any write
        // into a scratch register) leaves the value-register projection of
        // every assignment untouched, so all such successors share the
        // *parent's* permutation count — computed at most once per
        // expansion and reused across the whole sweep.
        let n_vals = self.cfg.machine.n() as usize;
        let mut parent_perm: Option<u32> = None;
        for (ai, &instr) in self.actions.iter().enumerate() {
            if let Some(set) = &allowed {
                // `cmp` is always permitted: a shortest program for a single
                // concrete assignment never compares (the values are known,
                // so comparing wastes an instruction), which means the
                // per-assignment guide can by construction never propose a
                // `cmp` — yet every correct sorting kernel needs them.
                // Restrict only the register-writing instructions.
                if instr.op != sortsynth_isa::Op::Cmp && !set.contains(ai) {
                    continue;
                }
            }
            if let Some(prev) = prev_instr {
                let kills_prev = (prev.op == Op::Cmp && instr.op == Op::Cmp)
                    || (prev.op != Op::Cmp
                        && instr.op == Op::Mov
                        && instr.dst == prev.dst
                        && instr.src != prev.dst);
                if kills_prev {
                    counters.dead_write_pruned += 1;
                    continue;
                }
            }
            if self.cfg.value_flow_cut && value_flow_redundant(space, state, ai, instr, vf_subsume)
            {
                counters.value_flow_pruned += 1;
                continue;
            }
            counters.generated += 1;

            // Viability (§3.3): erased values can never be sorted again; a
            // state whose worst per-assignment distance overshoots the
            // remaining budget cannot finish in time. With the successor
            // rows the check runs off the *parent's* indices, so a pruned
            // candidate is never stepped at all. Zero distance iff sorted,
            // so `d == 0` doubles as the §3.4 goal check for free.
            let mut max_dist = 0u16;
            let mut goal = false;
            let mut checked = false;
            let mut perm = 0u32;
            if let Some((table, indices)) = succ_table {
                let d = scratch.succ_worst[ai];
                if d == UNSORTABLE
                    || (self.cfg.budget_viability && bound != u32::MAX && g + 1 + d as u32 > bound)
                {
                    counters.viability_pruned += 1;
                    continue;
                }
                max_dist = d;
                goal = d == 0;
                checked = true;
                // Pre-step cut (§3.5): the successor span's permutation
                // count equals the distinct count of the parents' successor
                // projection numbers, so the cut verdict is known *before*
                // stepping — and the majority of generated candidates die
                // here without ever being stepped.
                let writes_value = instr.op != Op::Cmp && (instr.dst.index() as usize) < n_vals;
                perm = if writes_value {
                    table.succ_perm_capped(ai, indices, &mut scratch.proj, cut_cap)
                } else {
                    *parent_perm.get_or_insert_with(|| {
                        table.succ_perm_capped(ai, indices, &mut scratch.proj, cut_cap)
                    })
                };
                if !goal {
                    if let Some(threshold) = cut_threshold {
                        if perm > threshold {
                            counters.cut_pruned += 1;
                            continue;
                        }
                    }
                }
            }

            // Step into the shared buffer; a pruned successor is truncated
            // away again, so survivors stay densely packed. Goal,
            // permutation count, and the cut are all insensitive to order
            // and duplicates, so (on the fallback paths) they run on the
            // *raw* stepped span — the canonicalizing sort is paid only by
            // candidates that survive every filter.
            let start = scratch.buf.assigns.len();
            counters.swar_batches +=
                A::step_span(space, ai, instr, state, &mut scratch.buf.assigns);
            let stepped = &scratch.buf.assigns[start..];
            if checked {
                debug_assert_eq!(
                    max_dist,
                    self.table
                        .expect("checked implies table")
                        .max_dist_of(stepped),
                    "successor rows disagree with direct lookup"
                );
                debug_assert_eq!(
                    perm,
                    A::perm_count(space, stepped, &mut scratch.proj, u32::MAX),
                    "successor projections disagree with the stepped span's count"
                );
            } else {
                // No successor rows (no table, or a machine without a live
                // space): decide on the stepped span.
                let d = match self.table {
                    Some(table) => table.max_dist_of(stepped),
                    None if stepped.iter().any(|&a| A::erased(space, a)) => UNSORTABLE,
                    None => 0,
                };
                if d == UNSORTABLE
                    || (self.cfg.budget_viability && bound != u32::MAX && g + 1 + d as u32 > bound)
                {
                    counters.viability_pruned += 1;
                    scratch.buf.assigns.truncate(start);
                    continue;
                }
                max_dist = d;
                goal = match self.table {
                    Some(_) => d == 0,
                    None => stepped.iter().all(|&a| A::sorted(space, a)),
                };
                perm = A::perm_count(space, stepped, &mut scratch.proj, cut_cap);
                if !goal {
                    if let Some(threshold) = cut_threshold {
                        if perm > threshold {
                            counters.cut_pruned += 1;
                            scratch.buf.assigns.truncate(start);
                            continue;
                        }
                    }
                }
            }
            scratch.buf.metas.push(SuccMeta {
                ai: ai as u16,
                offset: start as u32,
                len: (scratch.buf.assigns.len() - start) as u32,
                key: 0,
                perm,
                max_dist,
                goal,
            });
        }
        probe.lap(Phase::Step);

        // Second pass: canonicalize every survivor's span in place (the
        // hottest single operation in the engine) and hash it. Dedup may
        // shrink a span, leaving a gap before the next one; `len` is
        // updated to the kept prefix.
        let SuccessorBuf { assigns, metas } = &mut scratch.buf;
        for m in metas {
            let span = &mut assigns[m.offset as usize..(m.offset + m.len) as usize];
            let kept = A::canonicalize(span, &mut scratch.bits);
            m.len = kept as u32;
            m.key = narrow_key(A::key(&span[..kept]));
        }
        if scratch.capacity_signature() == reserved {
            counters.scratch_reused += 1;
        }
        probe.lap(Phase::Canonicalize);
    }
}

/// The single-shard driver: layered or A* search over one [`Shard`], on the
/// calling thread, with the external-memory tier.
struct Engine<'a, A: Assign> {
    cfg: &'a SynthesisConfig,
    actions: Vec<Instr>,
    /// What steps the spans: the live space, or the machine.
    space: A::Space,
    table: Option<DistanceTable>,
    /// The only shard. Node ids and arena ids coincide.
    shard: Shard<A>,
    min_perm: MinPerm,
    /// Inclusive length bound (dynamic: shrinks when solutions are found in
    /// all-solutions mode).
    bound: u32,
    stats: SearchStats,
    frame: RunFrame<'a>,
    throttle: Throttle,
    /// Current frontier bound for progress snapshots: the layer depth in
    /// layered mode, the last popped `f` in A* mode.
    current_f: Option<u64>,
    /// Reused expansion buffers ([`ExpandCtx::expand`] output).
    scratch: ExpandScratch<A>,
    /// Per-run phase profiler probe (inert unless the profiler was enabled
    /// when the run started).
    probe: PhaseProbe,
}

impl<'a, A: Assign> Engine<'a, A> {
    fn new(cfg: &'a SynthesisConfig, space: A::Space, setup: Duration) -> Self {
        // Latch the profiler switch before the table build so its time is
        // attributable; the probe itself stamps from the first expansion.
        let probe = PhaseProbe::new();
        let mut stats = SearchStats::default();
        let table = build_distance_table(cfg, A::live(&space), setup, &mut stats);
        let frame = RunFrame::new(cfg, stats.distance_table_skipped);
        let throttle = Throttle::new(&frame);
        let actions = cfg.machine.actions();
        // Edge records store action indices as `u16`.
        assert!(actions.len() <= u16::MAX as usize + 1);
        let bound = cfg.max_len.unwrap_or(u32::MAX);
        let sizing_row = SizingTable::row_for(cfg, 1);
        // Open entries spread over a handful of hot (f, g) lanes; a quarter
        // of the recorded peak per lane covers the densest one without
        // over-reserving the rest.
        let lane_hint = sizing_row.map_or(0, |r| (r.open_depth / 4) as usize);
        let mut shard = Shard::new(cfg, open_f_hint(bound, table.as_ref()), lane_hint);
        // Pre-size the arena and edge table: a measured sizing row beats
        // everything; otherwise derive a (clamped) estimate from the
        // distance table's encoding count. Budgeted runs skip the estimate
        // — pre-reserving a full-population arena would defeat the budget.
        if let Some(row) = sizing_row {
            let states = row.states as usize + row.states as usize / 8 + 64;
            let assigns = row.assigns as usize + row.assigns as usize / 8 + 1024;
            shard.reserve(states, assigns);
        } else if cfg.mem_budget_bytes.is_none() && table.is_some() {
            let (states, assigns) = presize_estimate(&cfg.machine);
            shard.reserve(states, assigns);
        }
        Engine {
            cfg,
            actions,
            space,
            table,
            shard,
            min_perm: MinPerm::new(),
            bound,
            stats,
            frame,
            throttle,
            current_f: None,
            scratch: ExpandScratch::default(),
            probe,
        }
    }

    fn run(mut self) -> Result<SynthesisResult, ResumeError> {
        let cfg = self.cfg;
        let outcome = if let Some(dir) = cfg.resume_dir.as_deref() {
            let resumed = spill::restore(dir, cfg, &mut self.shard, &self.min_perm)?;
            self.bound = resumed.bound;
            self.frame.resumed_frontier_states = resumed.frontier.len() as u64;
            self.probe.skip();
            self.run_layered(resumed.frontier, resumed.g)
        } else {
            let (root, goal) = self.shard.seed(
                &self.space,
                &cfg.machine,
                self.table.as_ref(),
                &self.min_perm,
            );
            debug_assert_eq!(root, 0);
            if goal {
                self.shard.goals.push(root);
                Outcome::Solved
            } else {
                self.shard.enqueue(0, root);
                // The external-memory tier serves the layered strategy; A*
                // runs ignore the budget (their pop order revisits
                // arbitrary layers, which defeats streaming frontier
                // segments) — documented in DESIGN.md.
                if let Some(budget) = cfg.mem_budget_bytes {
                    if cfg.strategy == Strategy::Layered {
                        let dir = cfg
                            .spill_dir
                            .clone()
                            .unwrap_or_else(spill::default_spill_dir);
                        let tier = SpillTier::new(dir, budget)
                            .unwrap_or_else(|e| panic!("cannot create spill directory: {e}"));
                        self.shard.spill = Some(tier);
                        spill::checkpoint(
                            &mut self.shard,
                            cfg,
                            &self.min_perm,
                            0,
                            self.bound,
                            &[root],
                        );
                    }
                }
                // Re-stamp so the first Select lap starts at the search
                // proper, not at probe creation (the table build is
                // attributed separately).
                self.probe.skip();
                match cfg.strategy {
                    Strategy::Layered => {
                        let frontier = self.take_layer();
                        self.run_layered(frontier, 0)
                    }
                    Strategy::AStar { .. } => self.run_astar(),
                }
            }
        };

        let end = Closing {
            outcome,
            open: self.shard.open.len() as u64,
            f_bound: self.current_f,
        };
        let stats = self.frame.finish(
            self.throttle,
            std::slice::from_ref(&self.shard),
            self.stats,
            &self.probe,
            end,
        );
        let Shard {
            edges,
            goals,
            more_parents,
            ..
        } = self.shard;
        let found_len = goals.first().map(|&g| edges[g as usize].g);
        Ok(SynthesisResult {
            minimal_certified: found_len.is_some() && cfg.guarantees_minimal(),
            dag: SolutionDag {
                edges,
                more: more_parents,
                goals,
                actions: self.actions,
            },
            found_len,
            outcome,
            stats,
        })
    }

    /// End-of-layer spill maintenance: seal the frontier segment under
    /// construction, run delayed duplicate detection over this layer's
    /// fresh interns (deleting duplicates of evicted states from `next`),
    /// evict already-expanded closed entries under budget pressure, compact
    /// the arena's span store down to the surviving frontier, and write the
    /// journal checkpoint for the next layer.
    fn end_of_layer(&mut self, g: u32, next: &mut Vec<u32>) {
        debug_assert!(next.windows(2).all(|w| w[0] < w[1]), "frontier id order");
        let shard = &mut self.shard;
        let tier = shard.spill.as_mut().expect("end_of_layer without spill");
        tier.seal_frontier(&mut shard.counters);
        let dead = tier.ddd_filter(&mut shard.counters);
        if !dead.is_empty() {
            next.retain(|id| dead.binary_search(id).is_err());
        }
        let budget = tier.budget;
        if shard.resident_bytes() > budget {
            let evicted = shard
                .arena
                .evict_closed(|id| next.binary_search(&id).is_ok());
            let tier = shard.spill.as_mut().expect("spill tier");
            tier.append_closed(g, evicted, &mut shard.counters);
        }
        shard.arena.compact_spans(next);
        spill::checkpoint(shard, self.cfg, &self.min_perm, g + 1, self.bound, next);
    }

    /// Drains the open list — in layered mode, exactly the next layer, in
    /// ascending id order.
    fn take_layer(&mut self) -> Vec<u32> {
        let open = &mut self.shard.open;
        let mut layer = Vec::with_capacity(open.len());
        while let Some((_, _, id)) = open.pop() {
            layer.push(id);
        }
        layer
    }

    // ------------------------------------------------------------------
    // Layered (Dijkstra) search: process all programs of length g before
    // any of length g + 1 (§3.1). First solution is minimal.
    // ------------------------------------------------------------------
    fn run_layered(&mut self, mut frontier: Vec<u32>, mut g: u32) -> Outcome {
        loop {
            if g >= self.bound || frontier.is_empty() {
                return if self.shard.goals.is_empty() {
                    Outcome::Exhausted
                } else {
                    Outcome::SolvedAll
                };
            }
            self.current_f = Some(g as u64);
            let cut_threshold = self.min_perm.threshold(self.cfg.cut, g);
            // Merge each state's successors immediately, so goals (and
            // progress samples) accumulate through the layer instead of
            // appearing all at once at its end.
            for &node in &frontier {
                // One sampled probe cycle per expansion; frontier iteration
                // and bookkeeping up to the expansion are selection.
                self.probe.begin_cycle();
                self.probe.lap(Phase::Select);
                self.expand_node(node, g, cut_threshold);
                // Detach the successor buffer so merging (which grows the
                // arena) can't alias it; the move is two pointer swaps.
                let buf = std::mem::take(&mut self.scratch.buf);
                for m in &buf.metas {
                    match self.merge_succ(node, g, m, &buf) {
                        // Layer order makes the first goal minimal-length.
                        Merged::Goal(_) if !self.cfg.all_solutions => {
                            self.probe.lap(Phase::Intern);
                            return Outcome::Solved;
                        }
                        Merged::Goal(_) => self.bound = self.bound.min(g + 1),
                        _ => {}
                    }
                }
                self.scratch.buf = buf;
                self.probe.lap(Phase::Intern);
                self.tick();
                if let Some(limit) = self.frame.limit(self.shard.counters.generated) {
                    return limit;
                }
            }
            let mut next = self.take_layer();
            if self.shard.spill.is_some() {
                self.end_of_layer(g, &mut next);
            }
            if let Some(limit) = self.frame.limit(self.shard.counters.generated) {
                return limit;
            }
            frontier = next;
            g += 1;
        }
    }

    // ------------------------------------------------------------------
    // A* / best-first search ordered by f = g + h (§3.1).
    // ------------------------------------------------------------------
    fn run_astar(&mut self) -> Outcome {
        loop {
            // One sampled probe cycle per expansion; the pop and staleness
            // checks are selection.
            self.probe.begin_cycle();
            let Some((f, g, node)) = self.shard.open.pop() else {
                return if self.shard.goals.is_empty() {
                    Outcome::Exhausted
                } else {
                    Outcome::SolvedAll
                };
            };
            self.probe.lap(Phase::Select);
            self.current_f = Some(f);
            // Goals are queued with f = g and accepted when *popped*, the
            // standard A* discipline: every open state that could lead to a
            // shorter kernel (f < g_goal) is expanded first.
            if self.shard.arena.meta(node).goal {
                return Outcome::Solved;
            }
            // Skip entries overtaken by the bound, and stale entries: the
            // state was re-reached at a shorter length after this entry was
            // pushed.
            if g >= self.bound || self.shard.edges[node as usize].g != g {
                self.shard.counters.stale_pops += 1;
                continue;
            }
            let cut_threshold = self.min_perm.threshold(self.cfg.cut, g);
            self.expand_node(node, g, cut_threshold);
            let buf = std::mem::take(&mut self.scratch.buf);
            for m in &buf.metas {
                if let Merged::Goal(idx) = self.merge_succ(node, g, m, &buf) {
                    self.bound = self.bound.min(g + 1);
                    if !self.cfg.all_solutions {
                        self.shard.open.push((g + 1) as u64, g + 1, idx);
                    }
                }
            }
            self.scratch.buf = buf;
            self.probe.lap(Phase::Intern);
            self.tick();
            if let Some(limit) = self.frame.limit(self.shard.counters.generated) {
                return limit;
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared successor generation and bookkeeping
    // ------------------------------------------------------------------

    /// Expands `node` in place: runs the shared expansion core over the
    /// state's span (resident, or streamed back from its frontier
    /// segment) and leaves survivors in `self.scratch.buf`.
    fn expand_node(&mut self, node: u32, g: u32, cut_threshold: Option<u32>) {
        let Shard {
            arena,
            edges,
            counters,
            spill,
            ..
        } = &mut self.shard;
        // The instruction on the parent edge, for the dead-write cut.
        let e = edges[node as usize];
        let prev_instr = (e.parent != PARENT_NONE).then(|| self.actions[e.instr as usize]);
        let state = if arena.has_span(node) {
            arena.assignments(node)
        } else {
            // Spilled frontier state: layered expansion visits frontier ids
            // in increasing (append) order, so this is one sequential read
            // per layer.
            spill
                .as_mut()
                .expect("state without a resident span outside spill mode")
                .fetch_span(node)
        };
        let ctx = ExpandCtx {
            cfg: self.cfg,
            actions: &self.actions,
            table: self.table.as_ref(),
            space: &self.space,
        };
        ctx.expand(
            state,
            prev_instr,
            g,
            self.bound,
            cut_threshold,
            &mut self.scratch,
            counters,
            &mut self.probe,
        );
    }

    /// Offers one surviving successor of `parent` to the shard, queueing it
    /// on the open list when it is fresh or reopened.
    fn merge_succ(&mut self, parent: u32, g: u32, m: &SuccMeta, buf: &SuccessorBuf<A>) -> Merged {
        let (cand, facts) = buf.offer(m, g + 1, parent_ref(0, parent));
        let merged = self.shard.merge(&cand, facts, &self.min_perm);
        if let Merged::Queued(id) = merged {
            self.shard.enqueue(cand.g, id);
        }
        merged
    }

    /// Records a progress sample and delivers a throttled snapshot.
    fn tick(&mut self) {
        let open = self.shard.open.len() as u64;
        let (frame, shard) = (&self.frame, &self.shard);
        self.throttle.tick(
            frame,
            shard.counters.expanded,
            open,
            shard.goals.len() as u64,
            || frame.snapshot([shard], open, self.current_f),
        );
    }
}

/// Adds one run's totals to the process-wide metric families. Called once
/// per run, by [`RunFrame::finish`]; each family's kind and help text come
/// from the [`names::FAMILIES`] table.
pub(crate) fn publish_search_metrics(stats: &SearchStats, outcome: Outcome) {
    let parallel = !stats.shards.is_empty();
    for (name, value) in [
        (names::SEARCH_RUNS_TOTAL, 1),
        (names::SEARCH_EXPANDED_TOTAL, stats.expanded),
        (names::SEARCH_GENERATED_TOTAL, stats.generated),
        (names::SEARCH_VIABILITY_PRUNED_TOTAL, stats.viability_pruned),
        (names::SEARCH_CUT_PRUNED_TOTAL, stats.cut_pruned),
        (
            names::SEARCH_DEAD_WRITE_PRUNED_TOTAL,
            stats.dead_write_pruned,
        ),
        (
            names::SEARCH_VALUE_FLOW_PRUNED_TOTAL,
            stats.value_flow_pruned,
        ),
        (names::SEARCH_DEDUP_HITS_TOTAL, stats.dedup_hits),
        (names::SEARCH_INTERNED_STATES_TOTAL, stats.interned_states),
        (names::SEARCH_SCRATCH_REUSED_TOTAL, stats.scratch_reused),
        (names::SEARCH_STALE_POPS_TOTAL, stats.stale_pops),
        (names::SEARCH_BUCKET_SCANS_TOTAL, stats.bucket_scans),
        (names::SEARCH_SWAR_BATCHES_TOTAL, stats.swar_batches),
        (names::SEARCH_ARENA_BYTES, stats.arena_bytes),
        (names::SEARCH_RESIDENT_BYTES, stats.resident_bytes),
        (names::SEARCH_SPILLED_BYTES, stats.spilled_bytes),
        (names::SEARCH_SPILL_SEGMENTS, stats.spill_segments),
        (names::SEARCH_SPILLED_OPEN_TOTAL, stats.spilled_open),
        (names::SEARCH_SPILLED_CLOSED_TOTAL, stats.spilled_closed),
        (names::SEARCH_DDD_DEDUP_HITS_TOTAL, stats.ddd_dedup_hits),
        (
            names::SEARCH_RESUMED_FRONTIER_TOTAL,
            stats.resumed_frontier_states,
        ),
    ] {
        names::publish(name, value);
    }
    // Families that only count some runs.
    for (name, applies) in [
        (
            names::SEARCH_DISTANCE_TABLE_SKIPPED_TOTAL,
            stats.distance_table_skipped,
        ),
        (names::SEARCH_CANCELLED_TOTAL, outcome == Outcome::Cancelled),
        (names::SEARCH_PARALLEL_RUNS_TOTAL, parallel),
    ] {
        if applies {
            names::publish(name, 1);
        }
    }
    if parallel {
        names::publish(names::SEARCH_ROUTED_TOTAL, stats.routed);
        names::publish(names::SEARCH_STEALS_TOTAL, stats.steals);
    }
    sortsynth_obs::profile::publish_phase_nanos(&stats.phase_nanos);
}

/// Whether the symbolic value-flow cut may discard `instr` as a successor of
/// `state` without losing any reachable state.
///
/// The unconditional half fires when the instruction is effect-free on every
/// assignment: the successor *is* the parent (same canonical set), which the
/// search already expanded one layer earlier, so dropping the edge removes
/// only a guaranteed dedup hit. With `subsume` the cut additionally fires
/// when the instruction selects the source value in every assignment — the
/// successor then duplicates the one reached by `mov dst, src`, which the
/// same action sweep generates (callers must ensure the full action set is
/// in play and duplicate DAG edges are not wanted).
fn value_flow_redundant<A: Assign>(
    space: &A::Space,
    state: &[A],
    ai: usize,
    instr: Instr,
    subsume: bool,
) -> bool {
    if state.iter().all(|&a| A::fixed_by(space, ai, instr, a)) {
        return true;
    }
    if !subsume {
        return false;
    }
    let mut states = state.iter().map(|&a| A::state(space, a));
    match instr.op {
        Op::Cmovl => states.all(|a| a.lt_flag()),
        Op::Cmovg => states.all(|a| a.gt_flag()),
        Op::Min => states.all(|a| a.reg(instr.src) <= a.reg(instr.dst)),
        Op::Max => states.all(|a| a.reg(instr.src) >= a.reg(instr.dst)),
        _ => false,
    }
}

/// Pre-sizing hint for a bucketed open list: f-values are bounded by
/// `bound + max_dist` when the admissible distance heuristic is in play,
/// and stay near the depth bound otherwise. Clamped to keep an unbounded
/// run (`bound == u32::MAX`) from pre-allocating absurdly; the queue
/// grows past the hint on demand either way (see [`crate::BucketQueue`]).
pub(crate) fn open_f_hint(bound: u32, table: Option<&DistanceTable>) -> usize {
    let depth = if bound == u32::MAX {
        64
    } else {
        bound as usize + 1
    };
    let dist = table.map_or(0, |t| t.max_finite_dist() as usize);
    (depth + dist + 1).min(4096)
}

#[cfg(test)]
mod tests {
    use sortsynth_isa::{IsaMode, Machine};

    use super::presize_estimate;

    /// The arena pre-size for each machine a table-backed run can use: the
    /// three-plane values, for min/max as for cmp/cmov.
    #[test]
    fn presize_estimate_is_pinned() {
        let pinned = [
            (2, (2_592, 5_184)),
            (3, (24_576, 147_456)),
            (4, (300_000, 7_200_000)),
            (5, (524_288, 16_777_216)),
        ];
        for (n, expected) in pinned {
            for mode in [IsaMode::Cmov, IsaMode::MinMax] {
                assert_eq!(
                    presize_estimate(&Machine::new(n, 1, mode)),
                    expected,
                    "n = {n} {mode:?}"
                );
            }
        }
    }
}
