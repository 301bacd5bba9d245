//! The enumerative synthesis engine: the public result types, the shared
//! expansion step (instruction selection, viability, goal detection, and
//! cuts — §3.2–§3.5 of the paper), and the best-first (A*) driver over one
//! [`Shard`] of the core in [`crate::shard`]. Layered runs, at any thread
//! count, take the round loop in [`crate::layered`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sortsynth_isa::{Instr, MachineState, Op, Program};

use sortsynth_obs::profile::{Phase, PhaseProbe};

use crate::config::{Strategy, SynthesisConfig};
use crate::distance::{DistanceTable, UNSORTABLE};
use crate::live::LiveSpace;
use crate::shard::{
    parent_idx, parent_ref, Cand, Closing, Edge, Facts, Merged, MinPerm, ParentRef, RunFrame,
    Shard, Throttle, PARENT_NONE,
};
use crate::sizing::SizingTable;
use crate::spill::ResumeError;
use crate::state::{narrow_key, Assign, IndexBits, ProjScratch};
use crate::stats::{SearchStats, ShardStats};

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
    /// Used by the round loop's first-solution runs, whose shards hold
    /// parent edges across partitions; the kernel is walked out of them as
    /// one path.
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

    /// The DAG of a run's only shard: its edges, extra same-length parents
    /// and goals, as they are.
    pub(crate) fn from_shard<A>(shard: Shard<A>, actions: Vec<Instr>) -> SolutionDag {
        SolutionDag {
            edges: shard.edges,
            more: shard.more_parents,
            goals: shard.goals,
            actions,
        }
    }

    /// The result of a run that ended with this DAG: its first goal's
    /// length, certified minimal when `cfg` guarantees it.
    pub(crate) fn into_result(
        self,
        cfg: &SynthesisConfig,
        outcome: Outcome,
        stats: SearchStats,
    ) -> SynthesisResult {
        let found_len = self.goals.first().map(|&g| self.edges[g as usize].g);
        SynthesisResult {
            minimal_certified: found_len.is_some() && cfg.guarantees_minimal(),
            dag: self,
            found_len,
            outcome,
            stats,
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
/// the knobs and the crate docs for a guided example. Every layered run
/// takes the layer-synchronous round loop ([`crate::layered`]): a
/// first-solution run with [`SynthesisConfig::effective_threads`] workers,
/// which returns the same kernel and, once solved or exhausted, the same
/// counters at every worker count; an all-solutions, budgeted or resumed
/// run with one worker. Best-first ([`Strategy::AStar`]) runs, whose pop
/// order has no layers to synchronize on, take the best-first driver on the
/// calling thread whatever the thread count.
pub fn synthesize(cfg: &SynthesisConfig) -> SynthesisResult {
    try_synthesize(cfg).unwrap_or_else(|e| panic!("synthesis failed to start: {e}"))
}

/// [`synthesize`], but resume failures surface as a [`ResumeError`] instead
/// of a panic. Only [`SynthesisConfig::resume_from`] runs can fail here: a
/// missing journal, a checksum-detected torn segment, a configuration
/// mismatch, or a best-first strategy is reported, never silently
/// replayed.
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
    match cfg.strategy {
        Strategy::Layered => crate::layered::run::<A>(cfg, space, setup),
        // The journal records layers; a best-first pop order has none.
        Strategy::AStar { .. } if cfg.resume_dir.is_some() => Err(ResumeError::Unsupported {
            why: "resume requires the layered strategy",
        }),
        Strategy::AStar { .. } => Ok(run_astar::<A>(cfg, space, setup)),
    }
}

/// Pre-sizes each of a run's shards (its key partitions) so steady-state
/// interning does not reallocate, from one sizing row split evenly over the
/// shards with 1/8 headroom (hash partitioning is never perfectly
/// balanced): the row recorded at [`SynthesisConfig::sizing_path`], else,
/// for a run with a distance table and no memory budget, the shipped row
/// of the machine. A run with neither grows from empty.
pub(crate) fn presize<A: Assign>(cfg: &SynthesisConfig, has_table: bool, shards: &mut [Shard<A>]) {
    let row = SizingTable::row_for(cfg).or_else(|| {
        (has_table && cfg.mem_budget_bytes.is_none())
            .then(|| SizingTable::shipped_row(&cfg.machine))
            .flatten()
    });
    let Some(row) = row else {
        return;
    };
    let parts = shards.len();
    let per = |total: u64, floor: usize| {
        let even = total as usize / parts;
        even + even / 8 + floor
    };
    let (states, assigns) = (per(row.states, 64), per(row.assigns, 1024));
    for shard in shards {
        shard.reserve(states, assigns);
    }
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

/// Per-worker expansion scratch: the projection scratch used for
/// permutation counting, the bitmap that canonicalizes live-index spans,
/// and the per-action successor distances of the state under expansion.
#[derive(Default)]
pub(crate) struct ExpandScratch {
    pub(crate) proj: ProjScratch,
    bits: IndexBits,
    /// Per-action successor `max_dist` of the state under expansion
    /// ([`DistanceTable::succ_max_dist_sweep`] output).
    succ_worst: Vec<u16>,
}

/// Reserved capacities of an expansion's buffers, for
/// [`SearchStats::scratch_reused`]: an expansion that leaves the signature
/// unchanged allocated nothing there.
fn capacity_signature<A>(
    buf: &SuccessorBuf<A>,
    scratch: &ExpandScratch,
) -> (usize, usize, usize, usize) {
    (
        buf.assigns.capacity(),
        buf.metas.capacity(),
        scratch.proj.capacity(),
        scratch.succ_worst.capacity(),
    )
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
    /// survivors are appended to `buf` as spans plus cached facts, so the
    /// whole expansion allocates nothing once `buf` and the scratch have
    /// grown to steady state. `buf` may already hold other expansions'
    /// survivors (the one-partition round loop files straight into its
    /// outbox); they are left as they are.
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
        buf: &mut SuccessorBuf<A>,
        scratch: &mut ExpandScratch,
        counters: &mut ShardStats,
        probe: &mut PhaseProbe,
    ) {
        counters.expanded += 1;
        // An expansion that leaves the buffer capacities unchanged
        // allocated nothing here ([`SearchStats::scratch_reused`]).
        let reserved = capacity_signature(buf, scratch);
        let first = buf.metas.len();
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
            let start = buf.assigns.len();
            counters.swar_batches += A::step_span(space, ai, instr, state, &mut buf.assigns);
            let stepped = &buf.assigns[start..];
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
                    buf.assigns.truncate(start);
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
                            buf.assigns.truncate(start);
                            continue;
                        }
                    }
                }
            }
            buf.metas.push(SuccMeta {
                ai: ai as u16,
                offset: start as u32,
                len: (buf.assigns.len() - start) as u32,
                key: 0,
                perm,
                max_dist,
                goal,
            });
        }
        probe.lap(Phase::Step);

        // Second pass: canonicalize this expansion's survivors in place (the
        // hottest single operation in the engine) and hash them. Dedup may
        // shrink a span, leaving a gap before the next one; `len` is
        // updated to the kept prefix.
        let SuccessorBuf { assigns, metas } = &mut *buf;
        for m in &mut metas[first..] {
            let span = &mut assigns[m.offset as usize..(m.offset + m.len) as usize];
            let kept = A::canonicalize(span, &mut scratch.bits);
            m.len = kept as u32;
            m.key = narrow_key(A::key(&span[..kept]));
        }
        if capacity_signature(buf, scratch) == reserved {
            counters.scratch_reused += 1;
        }
        probe.lap(Phase::Canonicalize);
    }
}

/// The best-first driver: A* ordered by `f = g + h` (§3.1) over one
/// [`Shard`], on the calling thread. A memory budget does not apply: a
/// best-first pop order revisits arbitrary lengths, which defeats
/// streaming frontier segments.
fn run_astar<A: Assign>(
    cfg: &SynthesisConfig,
    space: A::Space,
    setup: Duration,
) -> SynthesisResult {
    // Latch the profiler switch before the table build so its time is
    // attributable; the probe itself stamps from the first expansion.
    let mut probe = PhaseProbe::new();
    let mut stats = SearchStats::default();
    let table = build_distance_table(cfg, A::live(&space), setup, &mut stats);
    let frame = RunFrame::new(cfg, stats.distance_table_skipped);
    let mut throttle = Throttle::new(&frame);
    let actions = cfg.machine.actions();
    // Edge records store action indices as `u16`.
    assert!(actions.len() <= u16::MAX as usize + 1);
    // Inclusive length bound: shrinks when a goal is generated.
    let mut bound = cfg.max_len.unwrap_or(u32::MAX);
    // Open entries spread over a handful of hot (f, g) lanes; a quarter of
    // the recorded peak per lane covers the densest one without
    // over-reserving the rest.
    let lane_hint = SizingTable::row_for(cfg).map_or(0, |r| (r.open_depth / 4) as usize);
    let mut shard = Shard::<A>::new(cfg, open_f_hint(bound, table.as_ref()), lane_hint);
    presize(cfg, table.is_some(), std::slice::from_mut(&mut shard));
    let min_perm = MinPerm::new();
    let ctx = ExpandCtx {
        cfg,
        actions: &actions,
        table: table.as_ref(),
        space: &space,
    };
    let mut buf = SuccessorBuf::default();
    let mut scratch = ExpandScratch::default();
    // The last popped `f`, for progress snapshots.
    let mut current_f = None;
    let (root, goal) = shard.seed(&space, &cfg.machine, table.as_ref(), &min_perm);
    let outcome = if goal {
        shard.goals.push(root);
        Outcome::Solved
    } else {
        shard.enqueue(0, root);
        // Re-stamp so the first Select lap starts at the search proper,
        // not at probe creation (the table build is attributed separately).
        probe.skip();
        loop {
            // One sampled probe cycle per expansion; the pop and staleness
            // checks are selection.
            probe.begin_cycle();
            let Some((f, g, node)) = shard.open.pop() else {
                break if shard.goals.is_empty() {
                    Outcome::Exhausted
                } else {
                    Outcome::SolvedAll
                };
            };
            probe.lap(Phase::Select);
            current_f = Some(f);
            // Goals are queued with f = g and accepted when *popped*, the
            // standard A* discipline: every open state that could lead to a
            // shorter kernel (f < g_goal) is expanded first.
            if shard.arena.meta(node).goal {
                break Outcome::Solved;
            }
            // Skip entries overtaken by the bound, and stale entries: the
            // state was re-reached at a shorter length after this entry was
            // pushed.
            let e = shard.edges[node as usize];
            if g >= bound || e.g != g {
                shard.counters.stale_pops += 1;
                continue;
            }
            // The instruction on the parent edge, for the dead-write cut.
            let prev_instr = (e.parent != PARENT_NONE).then(|| actions[e.instr as usize]);
            let cut = min_perm.threshold(cfg.cut, g);
            let (state, counters) = (shard.arena.assignments(node), &mut shard.counters);
            buf.clear();
            ctx.expand(
                state,
                prev_instr,
                g,
                bound,
                cut,
                &mut buf,
                &mut scratch,
                counters,
                &mut probe,
            );
            for m in &buf.metas {
                let (cand, facts) = buf.offer(m, g + 1, parent_ref(0, node));
                match shard.merge(&cand, facts, &min_perm) {
                    Merged::Queued(id) => shard.enqueue(cand.g, id),
                    Merged::Goal(id) => {
                        bound = bound.min(g + 1);
                        if !cfg.all_solutions {
                            shard.open.push((g + 1) as u64, g + 1, id);
                        }
                    }
                    Merged::Dup => {}
                }
            }
            probe.lap(Phase::Intern);
            let (open, goals) = (shard.open.len() as u64, shard.goals.len() as u64);
            throttle.tick(&frame, shard.counters.expanded, open, goals, || {
                frame.snapshot([&shard], &ShardStats::default(), open, current_f)
            });
            if let Some(limit) = frame.limit(shard.counters.generated) {
                break limit;
            }
        }
    };
    let end = Closing {
        outcome,
        open: shard.open.len() as u64,
        f_bound: current_f,
    };
    let stats = frame.finish(throttle, std::slice::from_ref(&shard), stats, &probe, end);
    SolutionDag::from_shard(shard, actions).into_result(cfg, outcome, stats)
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
fn open_f_hint(bound: u32, table: Option<&DistanceTable>) -> usize {
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
    use std::time::Duration;

    use sortsynth_isa::{IsaMode, Machine, MachineState};

    use super::{run, SearchStats};
    use crate::config::{Heuristic, Strategy, SynthesisConfig};
    use crate::live::LiveSpace;

    use IsaMode::{Cmov, MinMax};

    /// The configurations the fallback is compared on.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        /// Layered, erasure viability only.
        New,
        /// The paper's configuration (III).
        Best,
        /// Layered with the dead-write and value-flow cuts.
        Lossless,
        /// A* with `MaxRemaining` and the budget viability check.
        MaxRem,
    }

    fn fallback_config(n: u8, mode: IsaMode, kind: Kind) -> SynthesisConfig {
        let machine = Machine::new(n, 1, mode);
        let optimal = match (n, mode) {
            (2, Cmov) => 4,
            (2, MinMax) => 3,
            (3, Cmov) => 11,
            (3, MinMax) => 8,
            (4, Cmov) => 20,
            (4, MinMax) => 15,
            _ => unreachable!("no fallback rows for n = {n}"),
        };
        let base = SynthesisConfig::new(machine.clone()).max_len(optimal);
        match kind {
            Kind::New => base,
            Kind::Best => SynthesisConfig::best(machine),
            Kind::Lossless => base.dead_write_cut(true).value_flow_cut(true),
            Kind::MaxRem => base.budget_viability(true).strategy(Strategy::AStar {
                heuristic: Heuristic::MaxRemaining,
            }),
        }
    }

    /// The counters that record what the search decided, as opposed to how
    /// much memory it took to decide it.
    fn decisions(s: &SearchStats) -> [(&'static str, u64); 9] {
        [
            ("expanded", s.expanded),
            ("generated", s.generated),
            ("dedup_hits", s.dedup_hits),
            ("viability_pruned", s.viability_pruned),
            ("cut_pruned", s.cut_pruned),
            ("dead_write_pruned", s.dead_write_pruned),
            ("value_flow_pruned", s.value_flow_pruned),
            ("states_kept", s.states_kept),
            ("stale_pops", s.stale_pops),
        ]
    }

    /// Runs `cfg` over the machine's live-index spans and over the
    /// `MachineState` spans of the machines without a live space, and
    /// asserts both make the same decisions. Memory figures (arena, key and
    /// resident bytes, scratch reuse) follow the span width and are not
    /// compared; nor, with more than one worker, are routing and the
    /// per-shard blocks, since the key partition follows the span's key.
    ///
    /// Stepping passes agree exactly on runs without a distance table, where
    /// both paths step every generated candidate. With a table, live spans
    /// decide viability and the cut from the successor rows before stepping,
    /// while `MachineState` spans have no rows and step every candidate, so
    /// there the fallback takes at least as many passes.
    fn assert_fallback_matches_live(label: &str, cfg: &SynthesisConfig) {
        let space = LiveSpace::build(&cfg.machine).expect("the machine has a live space");
        let live = run::<u16>(cfg, space, Duration::ZERO).expect("live run starts");
        let fallback = run::<MachineState>(cfg, cfg.machine.clone(), Duration::ZERO)
            .expect("fallback run starts");
        assert_eq!(fallback.outcome, live.outcome, "{label}: outcome");
        assert_eq!(fallback.found_len, live.found_len, "{label}: found_len");
        assert_eq!(
            fallback.first_program(),
            live.first_program(),
            "{label}: first kernel"
        );
        assert_eq!(
            fallback.solution_count(),
            live.solution_count(),
            "{label}: solution count"
        );
        assert_eq!(
            decisions(&fallback.stats),
            decisions(&live.stats),
            "{label}: counters"
        );
        let (passes, live_passes) = (fallback.stats.swar_batches, live.stats.swar_batches);
        if cfg.needs_distance_table() {
            assert!(
                passes >= live_passes,
                "{label}: swar_batches {passes} < {live_passes}"
            );
        } else {
            assert_eq!(passes, live_passes, "{label}: swar_batches");
        }
        if cfg.effective_threads() == 1 {
            assert_eq!(fallback.stats.routed, live.stats.routed, "{label}: routed");
        }
    }

    fn check_fallback_rows(rows: &[(u8, IsaMode, Kind)]) {
        for &(n, mode, kind) in rows {
            let label = format!("n{n} {mode:?} {kind:?}");
            assert_fallback_matches_live(&label, &fallback_config(n, mode, kind));
        }
    }

    #[test]
    fn fallback_matches_live_on_n2_and_n3() {
        use Kind::*;
        check_fallback_rows(&[
            (2, Cmov, New),
            (2, Cmov, Best),
            (2, Cmov, Lossless),
            (2, Cmov, MaxRem),
            (2, MinMax, New),
            (2, MinMax, Best),
            (2, MinMax, Lossless),
            (2, MinMax, MaxRem),
            (3, Cmov, Best),
            (3, Cmov, MaxRem),
            (3, MinMax, New),
            (3, MinMax, Best),
            (3, MinMax, Lossless),
            (3, MinMax, MaxRem),
        ]);
    }

    #[test]
    #[ignore = "minutes in debug mode; CI runs it with --release"]
    fn fallback_matches_live_on_unpruned_n3_cmov() {
        check_fallback_rows(&[(3, Cmov, Kind::New), (3, Cmov, Kind::Lossless)]);
    }

    #[test]
    fn fallback_matches_live_on_all_solutions() {
        let cfg = fallback_config(3, MinMax, Kind::New)
            .budget_viability(true)
            .all_solutions(true);
        assert_fallback_matches_live("n3 MinMax all-solutions", &cfg);
    }

    #[test]
    fn fallback_matches_live_at_two_threads() {
        let cfg = fallback_config(3, Cmov, Kind::Best).threads(2);
        assert_fallback_matches_live("n3 Cmov Best threads 2", &cfg);
    }

    #[test]
    #[ignore = "minutes in debug mode; CI runs it with --release"]
    fn fallback_matches_live_on_n4() {
        check_fallback_rows(&[(4, MinMax, Kind::Best), (4, Cmov, Kind::Best)]);
    }
}
