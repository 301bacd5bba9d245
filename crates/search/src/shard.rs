//! The search core both drivers share: one shard store, one successor
//! merge, one counter block, and one run frame.
//!
//! The paper's §3 enumeration — select, step, viability, goal, cut, dedup —
//! runs under two drivers: the layer-synchronous round loop in
//! [`crate::layered`] (every layered run, one worker or many, with the
//! spill tier on one partition) and the best-first driver in
//! [`crate::engine`] (A* on one thread). Everything below the driver loops
//! is written once, here:
//!
//! * [`Shard`] is the store: a [`StateArena`], an id-aligned [`Edge`]
//!   table, and the states still to expand — one [`BucketQueue`] for the
//!   best-first driver, which holds `&mut Shard`, or the next layer so far
//!   for the round loop, which holds one `RwLock<Shard>` per key
//!   partition.
//! * [`Shard::merge`] is the only successor merge: dedup, reopen at a
//!   shorter length, and fresh insert with the spill decision. It reports
//!   a queued state's id; the caller decides where it goes next (the open
//!   list, or the round loop's next layer).
//! * [`ShardStats`] is the only counter block, declared in
//!   [`crate::stats`]. Each shard owns one; the run's [`SearchStats`]
//!   totals and every progress snapshot are folded from them by one fold,
//!   `RunFrame::fold`.
//! * [`RunFrame`] owns the deadline and the limit precedence, builds every
//!   progress snapshot, and finishes every run; [`Throttle`] is the
//!   progress throttle, owned by whichever thread emits snapshots.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use sortsynth_isa::Machine;
use sortsynth_obs::profile::{Phase, PhaseProbe};
use sortsynth_obs::progress::COLUMNS;
use sortsynth_obs::ShardSnapshot;

use crate::bucket::BucketQueue;
use crate::config::{Cut, Heuristic, Strategy, SynthesisConfig};
use crate::distance::DistanceTable;
use crate::engine::{Outcome, ProgressSample};
use crate::heuristics::heuristic_from_meta;
use crate::intern::StateArena;
use crate::progress::{deliver, delivery_active, SearchProgress};
use crate::sizing::{SizingRow, SizingTable};
use crate::spill::SpillTier;
use crate::state::{narrow_key, Assign, ProjScratch};
use crate::stats::{publish_search_metrics, SearchStats, ShardStats};

/// Default progress-emission throttle (expansions between snapshots) when
/// [`SynthesisConfig::progress_every`] is 0.
const DEFAULT_PROGRESS_EVERY: u64 = 4096;

/// Time floor on progress delivery: even when the expansion-count throttle
/// has not tripped, a snapshot is delivered at least this often, so slow
/// expansions (big machines, degraded pruning) still produce a live signal.
const PROGRESS_TIME_FLOOR: Duration = Duration::from_millis(500);

/// A node reference across shards: shard index in the high half, arena id
/// in the low half. The root's parent is [`PARENT_NONE`].
pub(crate) type ParentRef = u64;

pub(crate) const PARENT_NONE: ParentRef = u64::MAX;

pub(crate) fn parent_ref(shard: usize, idx: u32) -> ParentRef {
    ((shard as u64) << 32) | idx as u64
}

pub(crate) fn parent_shard(r: ParentRef) -> usize {
    (r >> 32) as usize
}

pub(crate) fn parent_idx(r: ParentRef) -> u32 {
    r as u32
}

/// One edge of the search forest, id-aligned with its shard's arena: the
/// parent that reached the state, the shortest known program length `g`,
/// and the producing action index (`u16`: large machines exceed 256
/// actions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    pub parent: ParentRef,
    pub g: u32,
    pub instr: u16,
}

const _: () = assert!(std::mem::size_of::<Edge>() == 16);

/// Depths tracked by [`MinPerm`]. Program lengths beyond this are far
/// outside anything the search reaches (n = 5 optimums are ≈33); deeper
/// states share the last slot.
const MAX_DEPTH: usize = 256;

/// Minimum permutation count among kept states of each length — the §3.5
/// cut's reference. Relaxed atomics so the round loop's partition mergers
/// can share one table; every driver reads a length's threshold only
/// after that length's states are all merged, so the value is final.
pub(crate) struct MinPerm(Vec<AtomicU32>);

impl MinPerm {
    pub fn new() -> Self {
        MinPerm((0..MAX_DEPTH).map(|_| AtomicU32::new(u32::MAX)).collect())
    }

    fn slot(&self, g: u32) -> &AtomicU32 {
        &self.0[(g as usize).min(MAX_DEPTH - 1)]
    }

    pub fn note(&self, g: u32, perm: u32) {
        self.slot(g).fetch_min(perm, Ordering::Relaxed);
    }

    /// The cut threshold for successors of length-`g` states.
    pub fn threshold(&self, cut: Option<Cut>, g: u32) -> Option<u32> {
        let cut = cut?;
        let min_prev = self.slot(g).load(Ordering::Relaxed);
        (min_prev != u32::MAX).then(|| cut.threshold(min_prev))
    }

    /// The recorded minima, trailing empty depths trimmed (journal form).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.0.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        while v.last() == Some(&u32::MAX) {
            v.pop();
        }
        v
    }

    /// Restores minima written by [`MinPerm::to_vec`].
    pub fn restore(&self, minima: &[u32]) {
        for (g, &perm) in minima.iter().enumerate() {
            self.note(g as u32, perm);
        }
    }
}

/// A successor offered to the shard that owns its key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand {
    /// Folded content key ([`crate::narrow_key`]).
    pub key: u64,
    pub g: u32,
    pub parent: ParentRef,
    pub instr: u16,
}

/// What [`Shard::merge`] needs beyond the key to insert a fresh state.
#[derive(Clone, Copy)]
pub(crate) struct Facts<'a, A> {
    pub assigns: &'a [A],
    pub perm: u32,
    pub max_dist: u16,
    pub goal: bool,
}

/// How [`Shard::merge`] disposed of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merged {
    /// Already known at an equal or shorter length.
    Dup,
    /// Fresh, or reopened at a shorter length: the state's id, for the
    /// caller to queue at the candidate's length.
    Queued(u32),
    /// A goal state (fresh or reopened); never queued.
    Goal(u32),
}

/// One closed-set shard: interned states, their edges, the open list, and
/// the shard's counter block.
pub(crate) struct Shard<A> {
    pub arena: StateArena<A>,
    /// Id-aligned with `arena`.
    pub edges: Vec<Edge>,
    /// Best-first runs: the open list.
    pub open: BucketQueue,
    /// Layered runs: the id of the first state interned for the next
    /// layer, so every state from it on is that layer so far (layer order
    /// admits no shorter path to a known state, so the merge queues only
    /// fresh states); `None` for best-first runs.
    pub layer_first: Option<u32>,
    /// Layered runs with several partitions: the merge tag of each state
    /// from `layer_first` on, to interleave the partitions by.
    pub layer_tags: Vec<u64>,
    pub counters: ShardStats,
    /// Goal states interned by the merge, in discovery order.
    pub goals: Vec<u32>,
    /// All-solutions mode only: the extra same-length parents of each
    /// state, as `(parent id, action)`.
    pub more_parents: HashMap<u32, Vec<(u32, u16)>>,
    /// External-memory tier (budgeted or resumed layered runs, which run
    /// one partition).
    pub spill: Option<SpillTier>,
    heuristic: Heuristic,
    all_solutions: bool,
}

impl<A: Assign> Shard<A> {
    /// An empty shard for `cfg`, its open list pre-sized for f-values below
    /// `f_hint` with `lane_hint` ids per lane. States are ordered by
    /// `g + heuristic`; layered runs order by `g` alone.
    pub fn new(cfg: &SynthesisConfig, f_hint: usize, lane_hint: usize) -> Self {
        let heuristic = match cfg.strategy {
            Strategy::Layered => Heuristic::None,
            Strategy::AStar { heuristic } => heuristic,
        };
        Shard {
            arena: StateArena::default(),
            edges: Vec::new(),
            open: BucketQueue::with_hints(f_hint, lane_hint),
            layer_first: None,
            layer_tags: Vec::new(),
            counters: ShardStats::default(),
            goals: Vec::new(),
            more_parents: HashMap::new(),
            spill: None,
            heuristic,
            all_solutions: cfg.all_solutions,
        }
    }

    /// Pre-sizes the arena and edge table for `states` states holding
    /// `assigns` assignments.
    pub fn reserve(&mut self, states: usize, assigns: usize) {
        self.arena.reserve(states, assigns);
        self.edges.reserve(states);
    }

    /// Interns the initial state of `machine` as the root. Returns its id
    /// and whether it is a goal; the caller queues a non-goal root.
    pub fn seed(
        &mut self,
        space: &A::Space,
        machine: &Machine,
        table: Option<&DistanceTable>,
        min_perm: &MinPerm,
    ) -> (u32, bool) {
        let init = A::initial(space, machine);
        let perm = A::perm_count(space, &init, &mut ProjScratch::default(), u32::MAX);
        let max_dist = table.map_or(0, |t| t.max_dist_of(&init));
        let goal = init.iter().all(|&a| A::sorted(space, a));
        let id = self
            .arena
            .insert_new(narrow_key(A::key(&init)), &init, perm, max_dist, goal);
        self.edges.push(Edge {
            parent: PARENT_NONE,
            g: 0,
            instr: 0,
        });
        self.counters.states_kept += 1;
        min_perm.note(0, perm);
        (id, goal)
    }

    /// Pushes state `id` on the open list at length `g`.
    pub fn enqueue(&mut self, g: u32, id: u32) {
        let m = self.arena.meta(id);
        let h = heuristic_from_meta(self.heuristic, m.perm, m.assign_count(), m.max_dist);
        self.open.push(g as u64 + h as u64, g, id);
    }

    /// The successor merge (§3.6). Disposes of `c` exactly once — counted
    /// in `merged` plus one of `dedup_hits`, `reopened`, `states_kept`.
    /// `f` describes the candidate's span, used only when its key is fresh.
    pub fn merge(&mut self, c: &Cand, f: Facts<'_, A>, min_perm: &MinPerm) -> Merged {
        if let Some(id) = self.arena.get(c.key) {
            self.counters.merged += 1;
            if self.layer_first.is_some() && !self.all_solutions {
                // Layer order: every known state was reached at the
                // candidate's length or shorter, so a first-solution layered
                // run needs no edge read to call a hit a duplicate.
                debug_assert!(self.edges[id as usize].g <= c.g, "layer order");
                self.counters.dedup_hits += 1;
                return Merged::Dup;
            }
            let edge = &mut self.edges[id as usize];
            if edge.g <= c.g {
                if edge.g == c.g && self.all_solutions {
                    self.more_parents
                        .entry(id)
                        .or_default()
                        .push((parent_idx(c.parent), c.instr));
                }
                self.counters.dedup_hits += 1;
                return Merged::Dup;
            }
            // Shorter path to a known state (A* has no global layer order):
            // re-parent it; an open entry at the old length turns stale and
            // is dropped at pop.
            *edge = Edge {
                parent: c.parent,
                g: c.g,
                instr: c.instr,
            };
            if self.all_solutions {
                self.more_parents.remove(&id);
            }
            self.counters.reopened += 1;
            let meta = *self.arena.meta(id);
            if meta.goal {
                return Merged::Goal(id);
            }
            min_perm.note(c.g, meta.perm);
            return Merged::Queued(id);
        }
        self.counters.merged += 1;
        self.counters.states_kept += 1;
        // Spill decision: once the resident estimate crosses the budget,
        // fresh non-goal states keep their closed-set entry and metadata
        // but their span goes to the frontier segment. Goals stay resident
        // — reconstruction and bound updates touch them immediately.
        let spill_over = match &self.spill {
            Some(tier) if !f.goal => self.resident_bytes() > tier.budget,
            _ => false,
        };
        let id = if spill_over {
            let id = self.arena.insert_spilled(
                c.key,
                f.assigns.len() as u32,
                f.perm,
                f.max_dist,
                f.goal,
            );
            let tier = self.spill.as_mut().expect("spill_over implies a tier");
            tier.spill_span(c.g, id, f.assigns, &mut self.counters);
            id
        } else {
            self.arena
                .insert_new(c.key, f.assigns, f.perm, f.max_dist, f.goal)
        };
        if let Some(tier) = &mut self.spill {
            tier.note_fresh(c.key, id);
        }
        self.edges.push(Edge {
            parent: c.parent,
            g: c.g,
            instr: c.instr,
        });
        if f.goal {
            self.goals.push(id);
            return Merged::Goal(id);
        }
        min_perm.note(c.g, f.perm);
        Merged::Queued(id)
    }

    /// Estimated resident footprint: arena spans + closed map + per-state
    /// metadata + edges. The spill tier's merge-time trigger.
    pub fn resident_bytes(&self) -> u64 {
        self.arena.assign_bytes()
            + self.arena.key_bytes()
            + self.arena.len() as u64 * 16
            + (self.edges.len() * std::mem::size_of::<Edge>()) as u64
    }

    /// Open states: the open list (best-first), or the next layer so far
    /// (layered).
    pub fn open_depth(&self) -> usize {
        match self.layer_first {
            Some(first) => self.arena.len() - first as usize,
            None => self.open.len(),
        }
    }

    fn snapshot_row(&self) -> ShardSnapshot {
        ShardSnapshot {
            interned_states: self.arena.len() as u64,
            arena_bytes: self.arena.assign_bytes(),
            open_depth: self.open_depth() as u64,
        }
    }
}

/// How a run ended, as [`RunFrame::finish`] reports it.
pub(crate) struct Closing {
    pub outcome: Outcome,
    /// Open states left (the final snapshot's `open`).
    pub open: u64,
    /// The final snapshot's `f_bound`.
    pub f_bound: Option<u64>,
}

/// The per-run frame every driver shares: deadline, limit precedence,
/// snapshot construction, and the one run finisher.
pub(crate) struct RunFrame<'a> {
    pub cfg: &'a SynthesisConfig,
    pub start: Instant,
    deadline: Option<Instant>,
    /// The configuration asked for a distance table the machine cannot
    /// carry (see [`SearchStats::distance_table_skipped`]).
    table_skipped: bool,
    /// Frontier states restored from a resume journal.
    pub resumed_frontier_states: u64,
}

impl<'a> RunFrame<'a> {
    /// Starts the run clock. The effective deadline is the earlier of the
    /// relative time limit and the budget's absolute deadline.
    pub fn new(cfg: &'a SynthesisConfig, table_skipped: bool) -> Self {
        let start = Instant::now();
        let deadline = match (cfg.time_limit.map(|d| start + d), cfg.budget.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        RunFrame {
            cfg,
            start,
            deadline,
            table_skipped,
            resumed_frontier_states: 0,
        }
    }

    /// The first limit the run has hit, by precedence: the node limit (on
    /// `generated`), then cancellation, then the deadline.
    pub fn limit(&self, generated: u64) -> Option<Outcome> {
        if self.cfg.node_limit.is_some_and(|limit| generated >= limit) {
            return Some(Outcome::NodeLimit);
        }
        if self.cfg.budget.is_cancelled() {
            return Some(Outcome::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Outcome::TimeLimit);
        }
        None
    }

    /// The one fold over the shards: sums their counter blocks into the
    /// totals of `stats`, adds their arena and memory figures, and returns one
    /// snapshot row per shard. Live snapshots and the run's final totals
    /// both come from here.
    fn fold<A: Assign, S: Deref<Target = Shard<A>>>(
        &self,
        shards: impl IntoIterator<Item = S>,
        pending: &ShardStats,
        stats: &mut SearchStats,
    ) -> Vec<ShardSnapshot> {
        let mut total = pending.clone();
        let mut rows = Vec::new();
        for shard in shards {
            total.add(&shard.counters);
            rows.push(shard.snapshot_row());
            stats.interned_states += shard.arena.len() as u64;
            stats.arena_bytes += shard.arena.assign_bytes();
            stats.key_bytes += shard.arena.key_bytes();
            stats.arena_reallocs += shard.arena.reallocs();
            stats.resident_bytes += shard.resident_bytes();
            stats.bucket_scans += shard.open.scans();
        }
        stats.set_totals(&total);
        stats.resumed_frontier_states = self.resumed_frontier_states;
        rows
    }

    /// The snapshot of folded `stats` (see [`RunFrame::fold`]).
    fn progress(
        &self,
        stats: &SearchStats,
        shards: Vec<ShardSnapshot>,
        open: u64,
        f_bound: Option<u64>,
        finished: Option<Outcome>,
    ) -> SearchProgress {
        let mut progress = SearchProgress {
            elapsed: self.start.elapsed(),
            open,
            f_bound,
            resumed_frontier_states: stats.resumed_frontier_states,
            resident_bytes: stats.resident_bytes,
            distance_table_skipped: self.table_skipped,
            finished: finished.is_some(),
            outcome: finished.map(|o| format!("{o:?}")),
            shards,
            ..SearchProgress::default()
        };
        // Every other column is a counter of the block, read by name.
        for col in COLUMNS {
            if let Some(value) = stats.get(col.name) {
                (col.set)(&mut progress, value);
            }
        }
        progress
    }

    /// One progress snapshot over `shards`, plus the `pending` counters
    /// of expansions not yet folded into a shard (live totals may trail
    /// other workers by a round; final snapshots are exact).
    pub fn snapshot<A: Assign, S: Deref<Target = Shard<A>>>(
        &self,
        shards: impl IntoIterator<Item = S>,
        pending: &ShardStats,
        open: u64,
        f_bound: Option<u64>,
    ) -> SearchProgress {
        let mut stats = SearchStats::default();
        let rows = self.fold(shards, pending, &mut stats);
        self.progress(&stats, rows, open, f_bound, None)
    }

    /// Ends a run: folds the shards into `stats` (per-shard counter blocks
    /// are kept only when there is more than one shard), records the
    /// sizing row of a solved run, reclaims a default spill directory on
    /// completed runs, emits the final snapshot, and publishes the run's
    /// metrics.
    pub fn finish<A: Assign>(
        &self,
        throttle: Throttle,
        shards: &[Shard<A>],
        mut stats: SearchStats,
        probe: &PhaseProbe,
        end: Closing,
    ) -> SearchStats {
        let rows = self.fold(shards, &ShardStats::default(), &mut stats);
        if shards.len() > 1 {
            stats.shards = shards.iter().map(|s| s.counters.clone()).collect();
        }
        stats.progress = throttle.samples;
        stats.search_time = self.start.elapsed();
        stats.phase_nanos = probe.nanos();
        if probe.is_on() {
            // The table build ran before the first probe stamp; its time is
            // already measured separately, so it joins the attribution for
            // free.
            stats.phase_nanos[Phase::TableBuild as usize] = stats.distance_build.as_nanos() as u64;
        }

        let outcome = end.outcome;
        // Solved runs feed the sizing table, so the next run of this shape
        // pre-sizes its arenas and skips the growth spikes. A proof or an
        // all-solutions run interns many times the states of a
        // first-solution run, and its row would size every later one.
        if let Some(path) = self.cfg.sizing_path.as_deref() {
            if outcome == Outcome::Solved {
                let mut table = SizingTable::load(path);
                table.record(
                    &self.cfg.machine,
                    SizingRow {
                        states: stats.interned_states,
                        assigns: shards.iter().map(|s| s.arena.assign_len() as u64).sum(),
                        open_depth: throttle.peak_open,
                    },
                );
                table.save(path);
            }
        }
        // A completed run that spilled into a default temp directory leaves
        // nothing to resume — reclaim the disk.
        let completed = matches!(
            outcome,
            Outcome::Solved | Outcome::SolvedAll | Outcome::Exhausted
        );
        if completed && self.cfg.spill_dir.is_none() && self.cfg.resume_dir.is_none() {
            for tier in shards.iter().filter_map(|s| s.spill.as_ref()) {
                tier.cleanup();
            }
        }
        // Every run — solved, exhausted, limited, or cancelled — flushes one
        // final snapshot (so consumers always see the closing counters) and
        // publishes its totals to the process-wide metrics registry.
        if delivery_active(self.cfg.progress_hook.as_ref()) {
            let snapshot = self.progress(&stats, rows, end.open, end.f_bound, Some(outcome));
            deliver(self.cfg.progress_hook.as_ref(), &snapshot);
        }
        publish_search_metrics(&stats, outcome);
        stats
    }
}

/// The progress throttle: Figure 1 samples, the delivery cadence, and the
/// open-depth high-water mark. Owned by the one thread that emits
/// snapshots, so it needs no synchronization.
pub(crate) struct Throttle {
    every: u64,
    last_expanded: u64,
    last_at: Instant,
    /// Sample buckets (`expanded / progress_every`) already recorded.
    sampled: u64,
    samples: Vec<ProgressSample>,
    peak_open: u64,
}

impl Throttle {
    pub fn new(frame: &RunFrame<'_>) -> Self {
        let every = match frame.cfg.progress_every {
            0 => DEFAULT_PROGRESS_EVERY,
            n => n,
        };
        Throttle {
            every,
            last_expanded: 0,
            last_at: frame.start,
            sampled: 0,
            samples: Vec::new(),
            peak_open: 0,
        }
    }

    /// Called after every expansion (best-first, and the round loop's
    /// worker 0 for its own) with the run's totals: records a
    /// progress sample each time `expanded` crosses a multiple of
    /// `progress_every`, and delivers `snapshot()` at most once per
    /// throttle interval (expansion count, with a time floor so slow
    /// expansions still produce a live signal).
    pub fn tick(
        &mut self,
        frame: &RunFrame<'_>,
        expanded: u64,
        open: u64,
        solutions: u64,
        snapshot: impl FnOnce() -> SearchProgress,
    ) {
        self.peak_open = self.peak_open.max(open);
        let sample_every = frame.cfg.progress_every;
        if sample_every != 0 && expanded / sample_every > self.sampled {
            self.sampled = expanded / sample_every;
            self.samples.push(ProgressSample {
                elapsed_secs: frame.start.elapsed().as_secs_f64(),
                open_states: open,
                solutions,
            });
        }
        let hook = frame.cfg.progress_hook.as_ref();
        if !delivery_active(hook)
            || (expanded.saturating_sub(self.last_expanded) < self.every
                && self.last_at.elapsed() < PROGRESS_TIME_FLOOR)
        {
            return;
        }
        self.last_expanded = expanded;
        self.last_at = Instant::now();
        deliver(hook, &snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    const SPAN: [u16; 3] = [0, 1, 2];

    fn facts() -> Facts<'static, u16> {
        Facts {
            assigns: &SPAN,
            perm: 2,
            max_dist: 1,
            goal: false,
        }
    }

    fn cand(key: u64, g: u32, parent: u32, instr: u16) -> Cand {
        Cand {
            key,
            g,
            parent: parent_ref(0, parent),
            instr,
        }
    }

    /// A layered shard holding one state: id 0, key 7, reached at length 1
    /// from parent 9 by action 4.
    fn layered_shard(cfg: &SynthesisConfig, min_perm: &MinPerm) -> Shard<u16> {
        let mut shard = Shard::new(cfg, 0, 0);
        shard.layer_first = Some(0);
        let fresh = shard.merge(&cand(7, 1, 9, 4), facts(), min_perm);
        assert_eq!(fresh, Merged::Queued(0));
        shard
    }

    #[test]
    fn first_solution_layered_duplicate_is_dup() {
        let cfg = SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov));
        let min_perm = MinPerm::new();
        let mut shard = layered_shard(&cfg, &min_perm);
        let before = shard.counters.clone();
        for g in [1, 2] {
            let dup = shard.merge(&cand(7, g, 0, 5), facts(), &min_perm);
            assert_eq!(dup, Merged::Dup, "a known key at length {g}");
        }
        assert_eq!(shard.counters.dedup_hits, before.dedup_hits + 2);
        assert_eq!(shard.counters.merged, before.merged + 2);
        assert_eq!(shard.counters.reopened, before.reopened);
        assert_eq!(shard.counters.states_kept, before.states_kept);
        assert!(shard.more_parents.is_empty());
        assert_eq!(
            (shard.edges[0].parent, shard.edges[0].instr),
            (parent_ref(0, 9), 4)
        );
    }

    #[test]
    fn all_solutions_duplicate_records_the_extra_parent() {
        let machine = Machine::new(3, 1, IsaMode::Cmov);
        let cfg = SynthesisConfig::new(machine).all_solutions(true);
        let min_perm = MinPerm::new();
        let mut shard = layered_shard(&cfg, &min_perm);
        let dup = shard.merge(&cand(7, 1, 0, 5), facts(), &min_perm);
        assert_eq!(dup, Merged::Dup);
        assert_eq!(shard.more_parents.get(&0), Some(&vec![(0, 5)]));
        // A longer path is no extra minimal parent.
        shard.merge(&cand(7, 2, 0, 6), facts(), &min_perm);
        assert_eq!(shard.more_parents.get(&0), Some(&vec![(0, 5)]));
        assert_eq!(shard.counters.dedup_hits, 2);
        assert_eq!(shard.counters.reopened, 0);
    }
}
