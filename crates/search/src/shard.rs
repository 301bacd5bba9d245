//! The search core both drivers share: one shard store, one successor
//! merge, one counter block, and one run frame.
//!
//! The paper's §3 enumeration — select, step, viability, goal, cut, dedup —
//! runs under two drivers: the single-shard driver in [`crate::engine`]
//! (layered or A* on one thread, with the spill tier) and the sharded
//! worker loop in [`crate::parallel`]. Everything below the driver loops is
//! written once, here:
//!
//! * [`Shard`] is the store: a [`StateArena`], an id-aligned [`Edge`]
//!   table, and one [`BucketQueue`]. The single-shard driver holds
//!   `&mut Shard`; the sharded driver holds one `Mutex<Shard>` per worker.
//! * [`Shard::merge`] is the only successor merge: incumbent cutoff,
//!   dedup, reopen at a shorter length, fresh insert with the spill
//!   decision, and the open-list push.
//! * [`ShardStats`] is the only counter block. Each shard owns one; the
//!   run's [`SearchStats`] totals and every progress snapshot are folded
//!   from them by one fold, `RunFrame::fold`.
//! * [`RunFrame`] owns the deadline and the limit precedence, builds every
//!   progress snapshot, and finishes every run; [`Throttle`] is the
//!   progress throttle, owned by whichever thread emits snapshots.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use sortsynth_isa::{Machine, MachineState};
use sortsynth_obs::profile::{Phase, PhaseProbe};
use sortsynth_obs::ShardSnapshot;

use crate::bucket::BucketQueue;
use crate::config::{Cut, Heuristic, Strategy, SynthesisConfig};
use crate::distance::DistanceTable;
use crate::engine::{publish_search_metrics, Outcome, ProgressSample, SearchStats, ShardStats};
use crate::heuristics::heuristic_from_meta;
use crate::intern::StateArena;
use crate::progress::{deliver, delivery_active, SearchProgress};
use crate::sizing::{SizingRow, SizingTable};
use crate::spill::SpillTier;
use crate::state::{narrow_key, StateSet};

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
/// cut's reference. Relaxed atomics so parallel workers can share one
/// table: a stale read yields a *laxer* threshold, never a stricter one.
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
pub(crate) struct Facts<'a> {
    pub assigns: &'a [MachineState],
    pub perm: u32,
    pub max_dist: u16,
    pub goal: bool,
}

/// How [`Shard::merge`] disposed of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merged {
    /// Already known at an equal or shorter length.
    Dup,
    /// At or past the cutoff: cannot begin a strictly shorter kernel.
    BoundPruned,
    /// Fresh, or reopened at a shorter length, and pushed on the open
    /// list.
    Queued,
    /// A goal state (fresh or reopened); never queued by the merge.
    Goal(u32),
    /// A fresh state offered without [`Facts`]: nothing was recorded, and
    /// the caller re-offers it with its span.
    NeedSpan,
}

/// One closed-set shard: interned states, their edges, the open list, and
/// the shard's counter block.
pub(crate) struct Shard {
    pub arena: StateArena,
    /// Id-aligned with `arena`.
    pub edges: Vec<Edge>,
    pub open: BucketQueue,
    pub counters: ShardStats,
    /// Goal states interned by the merge, in discovery order (single-shard
    /// runs; the sharded driver records goals as its incumbent instead).
    pub goals: Vec<u32>,
    /// All-solutions mode only: the extra same-length parents of each
    /// state, as `(parent id, action)`.
    pub more_parents: HashMap<u32, Vec<(u32, u16)>>,
    /// External-memory tier (budgeted or resumed layered runs).
    pub spill: Option<SpillTier>,
    heuristic: Heuristic,
    all_solutions: bool,
}

impl Shard {
    /// An empty shard for `cfg`, its open list pre-sized for f-values below
    /// `f_hint` with `lane_hint` ids per lane. States are ordered by
    /// `g + heuristic`; layered runs order by `g` alone — the sharded
    /// driver's uniform-cost form of layered search.
    pub fn new(cfg: &SynthesisConfig, f_hint: usize, lane_hint: usize) -> Self {
        let heuristic = match cfg.strategy {
            Strategy::Layered => Heuristic::None,
            Strategy::AStar { heuristic } => heuristic,
        };
        Shard {
            arena: StateArena::default(),
            edges: Vec::new(),
            open: BucketQueue::with_hints(f_hint, lane_hint),
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

    /// Interns the initial state `init` of `machine` as the root and
    /// queues it unless it is already a goal. Returns its id and whether it
    /// is a goal.
    pub fn seed(
        &mut self,
        init: &StateSet,
        machine: &Machine,
        table: Option<&DistanceTable>,
        min_perm: &MinPerm,
    ) -> (u32, bool) {
        let perm = init.perm_count(machine);
        let max_dist = table.map_or(0, |t| t.max_dist(init));
        let goal = init.is_goal(machine);
        let id = self.arena.insert_new(
            narrow_key(init.key()),
            init.assignments(),
            perm,
            max_dist,
            goal,
        );
        self.edges.push(Edge {
            parent: PARENT_NONE,
            g: 0,
            instr: 0,
        });
        self.counters.states_kept += 1;
        min_perm.note(0, perm);
        if !goal {
            self.enqueue(0, id);
        }
        (id, goal)
    }

    fn enqueue(&mut self, g: u32, id: u32) {
        let m = self.arena.meta(id);
        let h = heuristic_from_meta(self.heuristic, m.perm, m.assign_count(), m.max_dist);
        self.open.push(g as u64 + h as u64, g, id);
    }

    /// The successor merge (§3.6). Disposes of `c` exactly once — counted
    /// in `merged` plus one of `bound_pruned`, `dedup_hits`, `reopened`,
    /// `states_kept` — unless it returns [`Merged::NeedSpan`], which
    /// records nothing. `cutoff` is the sharded driver's incumbent bound
    /// (`u32::MAX` in single-shard runs, which prune by length at pop).
    pub fn merge(
        &mut self,
        c: &Cand,
        facts: Option<Facts<'_>>,
        cutoff: u32,
        min_perm: &MinPerm,
    ) -> Merged {
        if c.g >= cutoff {
            self.counters.merged += 1;
            self.counters.bound_pruned += 1;
            return Merged::BoundPruned;
        }
        if let Some(id) = self.arena.get(c.key) {
            self.counters.merged += 1;
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
            // Shorter path to a known state (no global layer order in A*
            // or the sharded driver): re-parent it; an open entry at the
            // old length turns stale and is dropped at pop.
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
            self.enqueue(c.g, id);
            return Merged::Queued;
        }
        let Some(f) = facts else {
            return Merged::NeedSpan;
        };
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
        self.enqueue(c.g, id);
        Merged::Queued
    }

    /// Estimated resident footprint: arena spans + closed map + per-state
    /// metadata + edges. The spill tier's merge-time trigger.
    pub fn resident_bytes(&self) -> u64 {
        self.arena.assign_bytes()
            + self.arena.key_bytes()
            + self.arena.len() as u64 * 16
            + (self.edges.len() * std::mem::size_of::<Edge>()) as u64
    }

    fn snapshot_row(&self) -> ShardSnapshot {
        ShardSnapshot {
            interned_states: self.arena.len() as u64,
            arena_bytes: self.arena.assign_bytes(),
            open_depth: self.open.len() as u64,
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

    /// The one fold over the shards: sums their counter blocks and their
    /// arena and memory figures into `stats`, and returns one
    /// snapshot row per shard. Live snapshots and the run's final totals
    /// both come from here.
    fn fold<S: Deref<Target = Shard>>(
        &self,
        shards: impl IntoIterator<Item = S>,
        stats: &mut SearchStats,
    ) -> Vec<ShardSnapshot> {
        let mut total = ShardStats::default();
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
        stats.expanded = total.expanded;
        stats.generated = total.generated;
        stats.dedup_hits = total.dedup_hits;
        stats.viability_pruned = total.viability_pruned;
        stats.cut_pruned = total.cut_pruned;
        stats.dead_write_pruned = total.dead_write_pruned;
        stats.value_flow_pruned = total.value_flow_pruned;
        stats.states_kept = total.states_kept;
        stats.scratch_reused = total.scratch_reused;
        stats.swar_batches = total.swar_batches;
        stats.stale_pops = total.stale_pops;
        stats.routed = total.routed;
        stats.steals = total.steals;
        stats.bound_pruned = total.bound_pruned;
        stats.spilled_open = total.spilled_open;
        stats.spilled_closed = total.spilled_closed;
        stats.ddd_dedup_hits = total.ddd_dedup_hits;
        stats.spilled_bytes = total.spilled_bytes;
        stats.spill_segments = total.spill_segments;
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
        SearchProgress {
            elapsed: self.start.elapsed(),
            expanded: stats.expanded,
            generated: stats.generated,
            open,
            f_bound,
            viability_pruned: stats.viability_pruned,
            cut_pruned: stats.cut_pruned,
            dedup_hits: stats.dedup_hits,
            dead_write_pruned: stats.dead_write_pruned,
            value_flow_pruned: stats.value_flow_pruned,
            spilled_open: stats.spilled_open,
            spilled_closed: stats.spilled_closed,
            ddd_dedup_hits: stats.ddd_dedup_hits,
            resumed_frontier_states: stats.resumed_frontier_states,
            resident_bytes: stats.resident_bytes,
            spilled_bytes: stats.spilled_bytes,
            distance_table_skipped: self.table_skipped,
            finished: finished.is_some(),
            outcome: finished.map(|o| format!("{o:?}")),
            shards,
        }
    }

    /// One progress snapshot over `shards` (live totals may trail the
    /// workers by an expansion; final snapshots are exact).
    pub fn snapshot<S: Deref<Target = Shard>>(
        &self,
        shards: impl IntoIterator<Item = S>,
        open: u64,
        f_bound: Option<u64>,
    ) -> SearchProgress {
        let mut stats = SearchStats::default();
        let rows = self.fold(shards, &mut stats);
        self.progress(&stats, rows, open, f_bound, None)
    }

    /// Ends a run: folds the shards into `stats` (per-shard counter blocks
    /// are kept only when there is more than one shard), records the
    /// sizing row and reclaims a default spill directory on completed
    /// runs, emits the final snapshot, and publishes the run's metrics.
    pub fn finish(
        &self,
        throttle: Throttle,
        shards: &[Shard],
        mut stats: SearchStats,
        probe: &PhaseProbe,
        end: Closing,
    ) -> SearchStats {
        let rows = self.fold(shards, &mut stats);
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
        if matches!(
            outcome,
            Outcome::Solved | Outcome::SolvedAll | Outcome::Exhausted
        ) {
            // Completed runs feed the sizing table, so the next run of this
            // shape pre-sizes its arenas and skips the growth spikes.
            if let Some(path) = self.cfg.sizing_path.as_deref() {
                let mut table = SizingTable::load(path);
                table.record(
                    &self.cfg.machine,
                    shards.len() as u32,
                    SizingRow {
                        states: stats.interned_states,
                        assigns: shards.iter().map(|s| s.arena.assign_len() as u64).sum(),
                        arena_bytes: stats.arena_bytes,
                        open_depth: throttle.peak_open,
                    },
                );
                table.save(path);
            }
            // A completed run that spilled into a default temp directory
            // leaves nothing to resume — reclaim the disk.
            if self.cfg.spill_dir.is_none() && self.cfg.resume_dir.is_none() {
                for tier in shards.iter().filter_map(|s| s.spill.as_ref()) {
                    tier.cleanup();
                }
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

    /// Called after every expansion with the run's totals: records a
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
