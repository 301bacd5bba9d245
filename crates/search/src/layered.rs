//! The layered driver: §3.1's layer-by-layer enumeration in
//! layer-synchronous rounds, the same loop at every worker count.
//!
//! * **Workers.** A first-solution, unbudgeted run has
//!   [`SynthesisConfig::effective_threads`] workers; an all-solutions,
//!   budgeted or resumed run has one, since its solution DAG, spill tier
//!   and journal each live in one shard.
//! * **Partitions.** The closed set is split into one [`Shard`] per
//!   worker by folded key ([`shard_of`]); worker `p` alone writes
//!   partition `p`. Parent edges are cross-partition [`ParentRef`]s.
//! * **Rounds.** A layer is expanded in rounds over frontier positions
//!   `[lo, hi)`. In the expand phase the shards are read-only: workers
//!   claim [`CHUNK`]-position slices from a shared cursor, run the shared
//!   [`ExpandCtx::expand`], and file each survivor (span, facts, tag) in
//!   their outbox bucket for the partition that owns its key, and each
//!   expansion's counters in the bucket for the parent's partition, so
//!   per-shard figures do not depend on who claimed what. With one
//!   partition the expansion appends straight into its bucket and the
//!   worker files only tags.
//! * **Merge order.** A survivor's tag is its parent's frontier position
//!   (high half) and its index among the parent's survivors (low half).
//!   After a barrier, worker `p` merges bucket `p` of every outbox through
//!   [`Shard::merge`] in tag order, so every key meets its duplicates in
//!   the same order at every worker count. The merge prefetches the
//!   closed-map slot of the item [`PREFETCH`] places ahead in the same
//!   run, so probes overlap their misses; in a first-solution run a hit
//!   is a duplicate without an edge read (layer order). At the end of the
//!   layer worker 0 concatenates the partitions' fresh states in tag order
//!   into the next frontier and fixes its cut threshold from [`MinPerm`].
//! * **Goals.** A goal ends its round at its parent's position `P`:
//!   workers claim nothing past the smallest goal tag, and if one expanded
//!   past `P` before the goal was filed, every outbox is dropped and
//!   `[lo, P]` expanded again. A first-solution run merges up to the goal
//!   and stops, minimal by layer order with no incumbent bound; an
//!   all-solutions run merges the round, lowers its length bound to the
//!   goal's length and finishes the layer. So kernels and counters of
//!   solved and exhausted runs are the same at every worker count.
//! * **Round length.** A round's outbox holds about [`ROUND_BYTES`] per
//!   worker, sized from the last round's bytes per expanded state, which
//!   depend only on which states were expanded: rounds are deterministic.
//! * **Spill.** A budgeted run attaches the spill tier to its one
//!   partition: a checkpoint at seed, a [`SpanStream`] for spilled
//!   frontier spans (claimed, like every position, in id order), and
//!   [`spill::end_of_layer`] at the layer barrier. A resumed run restores
//!   the journal into that partition and starts at the journal's layer.
//! * **Limits and progress.** Workers poll [`RunFrame::limit`] once per
//!   chunk. Worker 0 plans the rounds and ticks the progress [`Throttle`]
//!   after every expansion it makes, counting its own outbox in, so one
//!   worker's snapshots are exact. Barrier waits stay out of the phase
//!   attribution.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use sortsynth_isa::Instr;
use sortsynth_obs::profile::{Phase, PhaseProbe};

use crate::config::SynthesisConfig;
use crate::distance::DistanceTable;
use crate::engine::{
    build_distance_table, presize, ExpandCtx, ExpandScratch, Outcome, SolutionDag, SuccMeta,
    SuccessorBuf, SynthesisResult,
};
use crate::shard::{
    parent_idx, parent_ref, parent_shard, Closing, Merged, MinPerm, ParentRef, RunFrame, Shard,
    Throttle, PARENT_NONE,
};
use crate::spill::{self, ResumeError, SpanStream, SpillTier};
use crate::state::{narrow_key, Assign};
use crate::stats::{SearchStats, ShardStats};

/// Frontier positions a worker claims from the round cursor at a time.
const CHUNK: usize = 8;
/// Target outbox bytes of one round, per worker.
const ROUND_BYTES: usize = 256 << 10;
/// How many items of an inbox run ahead the merge prefetches closed-map
/// slots: enough probes in flight to cover a miss to memory.
const PREFETCH: usize = 32;
/// The goal tag while no goal was generated.
const NO_GOAL: u64 = u64::MAX;

/// A search lock is poisoned only when a worker panicked while holding it —
/// a bug, which the worker scope re-raises after the join anyway.
const POISONED: &str = "a search worker panicked while holding a search lock";

/// Maps a folded state key to its owning partition/worker.
fn shard_of(key: u64, workers: usize) -> usize {
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % workers
}

/// The frontier position of the parent behind a survivor's tag.
fn tag_position(tag: u64) -> u64 {
    tag >> 32
}

/// The next round's length after a `prev`-state round that filed `bytes`
/// of outbox over `workers` workers: enough states to fill [`ROUND_BYTES`]
/// per worker at that many bytes per state, at most four times `prev`, and
/// at least one chunk.
fn next_round_len(prev: usize, bytes: usize, workers: usize) -> usize {
    let target = ROUND_BYTES.saturating_mul(workers);
    let fit = target.saturating_mul(prev) / bytes.max(1);
    fit.min(prev.saturating_mul(4)).max(CHUNK)
}

/// Visits the items of `runs`, each sorted by `tag`, in ascending tag order
/// up to and including tag `until`, as `(run, index)` pairs.
fn merge_by_tag<T>(
    runs: &[&[T]],
    tag: impl Fn(&T) -> u64,
    until: u64,
    mut visit: impl FnMut(usize, usize),
) {
    let mut heads = vec![0usize; runs.len()];
    loop {
        let mut min: Option<(u64, usize)> = None;
        for (r, run) in runs.iter().enumerate() {
            if let Some(item) = run.get(heads[r]) {
                let t = tag(item);
                if min.is_none_or(|(m, _)| t < m) {
                    min = Some((t, r));
                }
            }
        }
        match min {
            Some((t, r)) if t <= until => {
                visit(r, heads[r]);
                heads[r] += 1;
            }
            _ => return,
        }
    }
}

/// What one worker filed for one partition in the current round: the
/// survivors whose keys the partition owns, in tag order — each one's span,
/// facts and tag — and the expansion counters of the partition's own states
/// that the worker expanded.
struct Bucket<A> {
    buf: SuccessorBuf<A>,
    /// Index-aligned with `buf.metas`. The tag is the survivor's merge
    /// position: its parent's frontier position in the high half, its index
    /// among the parent's survivors in the low half.
    tags: Vec<u64>,
    counters: ShardStats,
}

impl<A> Default for Bucket<A> {
    fn default() -> Self {
        Bucket {
            buf: SuccessorBuf::default(),
            tags: Vec::new(),
            counters: ShardStats::default(),
        }
    }
}

impl<A: Assign> Bucket<A> {
    fn push(&mut self, tag: u64, m: &SuccMeta, span: &[A]) {
        let offset = self.buf.assigns.len() as u32;
        self.buf.metas.push(SuccMeta { offset, ..*m });
        self.buf.assigns.extend_from_slice(span);
        self.tags.push(tag);
    }

    /// Outbox bytes held, for round sizing.
    fn bytes(&self) -> usize {
        self.buf.assigns.len() * std::mem::size_of::<A>()
            + self.tags.len() * std::mem::size_of::<(SuccMeta, u64)>()
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.tags.clear();
    }
}

/// The layer under expansion, in frontier order: each position's state id,
/// and its partition when there are several (`parts` stays empty with one).
#[derive(Default)]
struct Frontier {
    ids: Vec<u32>,
    parts: Vec<u32>,
}

impl Frontier {
    fn at(&self, pos: usize) -> ParentRef {
        let p = self.parts.get(pos).map_or(0, |&p| p as usize);
        parent_ref(p, self.ids[pos])
    }
}

/// The round every worker runs next, published by worker 0 while the
/// others wait at a barrier.
#[derive(Clone, Copy, Default)]
struct Plan {
    /// Length of the layer's states.
    g: u32,
    /// The round's frontier positions: `[lo, hi)` of `len`.
    lo: usize,
    hi: usize,
    len: usize,
    /// The layer's §3.5 cut threshold.
    cut: Option<u32>,
    /// Inclusive length bound: `max_len`, lowered to the goal's length
    /// once an all-solutions run has generated a goal.
    bound: u32,
    /// The layer is empty or at the length bound: the search is over.
    done: bool,
}

impl Plan {
    /// The first round of a `len`-state layer at length `g`: one chunk per
    /// worker, since the last layer's bytes per state say little about
    /// this one's.
    fn layer<A: Assign>(sh: &Rounds<'_, A>, g: u32, len: usize, bound: u32) -> Plan {
        sh.cursor.store(0, Ordering::Relaxed);
        sh.reach.store(0, Ordering::Relaxed);
        Plan {
            g,
            lo: 0,
            hi: (CHUNK * sh.workers).min(len),
            len,
            cut: sh.min_perm.threshold(sh.cfg.cut, g),
            bound,
            done: len == 0 || g >= bound,
        }
    }

    /// Whether a goal ends this round at its parent's position: always in
    /// a first-solution run, and in an all-solutions run until the bound
    /// has come down to the goal's length, so the rest of the layer expands
    /// under the lowered bound.
    fn stops_at_goal(&self, all_solutions: bool) -> bool {
        !all_solutions || self.bound > self.g + 1
    }
}

/// A reusable barrier that a panicking worker breaks, so its peers stop
/// instead of waiting forever; the scope then re-raises the panic.
struct RoundBarrier {
    workers: usize,
    /// Arrivals in the current generation, the generation, and whether a
    /// worker panicked.
    state: Mutex<(usize, u64, bool)>,
    cvar: Condvar,
}

impl RoundBarrier {
    fn new(workers: usize) -> Self {
        RoundBarrier {
            workers,
            state: Mutex::new((0, 0, false)),
            cvar: Condvar::new(),
        }
    }

    /// Waits for every worker; `false` when the barrier is broken.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().expect(POISONED);
        if state.2 {
            return false;
        }
        state.0 += 1;
        if state.0 == self.workers {
            state.0 = 0;
            state.1 += 1;
            self.cvar.notify_all();
            return true;
        }
        let generation = state.1;
        let state = self
            .cvar
            .wait_while(state, |s| s.1 == generation && !s.2)
            .expect(POISONED);
        !state.2
    }

    fn break_all(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.2 = true;
        }
        self.cvar.notify_all();
    }
}

/// Breaks the barrier if its worker unwinds.
struct BreakOnPanic<'a>(&'a RoundBarrier);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.break_all();
        }
    }
}

/// State shared by every worker of one run.
struct Rounds<'a, A: Assign> {
    cfg: &'a SynthesisConfig,
    frame: RunFrame<'a>,
    actions: Vec<Instr>,
    /// What steps the spans: the live space, or the machine.
    space: A::Space,
    table: Option<DistanceTable>,
    workers: usize,
    /// One key partition per worker: read by every worker while expanding,
    /// written by its owner alone while merging.
    shards: Vec<RwLock<Shard<A>>>,
    /// `buckets[w * workers + p]`: worker `w`'s survivors for partition
    /// `p`, and its counters for expanding partition `p`'s states.
    buckets: Vec<Mutex<Bucket<A>>>,
    frontier: RwLock<Frontier>,
    plan: Mutex<Plan>,
    // `cursor`, `reach`, `round_bytes` and `goal_tag` publish no other data
    // and are read after the barrier that ends the phase writing them
    // (worker 0 resets them between barriers); the barrier's mutex orders
    // the two, so `Relaxed` suffices.
    /// The round's next unclaimed frontier position.
    cursor: AtomicUsize,
    /// One past the furthest frontier position of the layer expanded so
    /// far.
    reach: AtomicUsize,
    /// Outbox bytes filed this round.
    round_bytes: AtomicUsize,
    /// Smallest tag of a goal survivor ([`NO_GOAL`] while none).
    goal_tag: AtomicU64,
    /// First limit a worker tripped.
    limit: Mutex<Option<Outcome>>,
    /// Run totals, for the node limit and the progress throttle (relaxed
    /// statistics: a limit poll may read them a chunk late).
    generated: AtomicU64,
    expanded: AtomicU64,
    min_perm: MinPerm,
    barrier: RoundBarrier,
    /// Workers fold their phase probes in here as they exit. Latches the
    /// profiler switch at run start; workers follow its setting.
    probe_acc: Mutex<PhaseProbe>,
}

impl<A: Assign> Rounds<'_, A> {
    fn limited(&self) -> bool {
        self.limit.lock().expect(POISONED).is_some()
    }

    /// The length bound once `plan`'s round is merged: lowered to the
    /// goal's length when the layer generated one (only an all-solutions
    /// run goes on after a goal).
    fn bound_after(&self, plan: &Plan) -> u32 {
        if self.goal_tag.load(Ordering::Relaxed) == NO_GOAL {
            plan.bound
        } else {
            plan.bound.min(plan.g + 1)
        }
    }

    /// Joins the shards into the run's result through the shared
    /// [`RunFrame::finish`].
    fn finish(self, stats: SearchStats, throttle: Throttle) -> SynthesisResult {
        let plan = *self.plan.lock().expect(POISONED);
        let probe = self.probe_acc.into_inner().expect(POISONED);
        let limit = self.limit.into_inner().expect(POISONED);
        let mut shards: Vec<Shard<A>> = self
            .shards
            .into_iter()
            .map(|s| s.into_inner().expect(POISONED))
            .collect();
        // Open states: the layer's unexpanded rest plus the next layer.
        let queued: usize = shards.iter().map(Shard::open_depth).sum();
        let open = (plan.len - plan.lo + queued) as u64;
        let goal = (shards.iter().enumerate())
            .find_map(|(p, s)| s.goals.first().map(|&id| parent_ref(p, id)));
        let kernel = goal.map(|goal| kernel_path(&shards, goal));
        let outcome = match (limit, &kernel) {
            (Some(limit), _) => limit,
            // A sorted root (n = 1) is a solved run at any setting.
            (None, Some(path)) if self.cfg.all_solutions && !path.is_empty() => Outcome::SolvedAll,
            (None, Some(_)) => Outcome::Solved,
            (None, None) => Outcome::Exhausted,
        };
        let end = Closing {
            outcome,
            open,
            f_bound: Some(plan.g as u64),
        };
        let stats = self.frame.finish(throttle, &shards, stats, &probe, end);
        let dag = if self.cfg.all_solutions {
            // One partition: its edges are the DAG of every minimal kernel.
            let shard = shards.pop().expect("an all-solutions run has one shard");
            SolutionDag::from_shard(shard, self.actions)
        } else {
            SolutionDag::from_path(self.actions, kernel.as_deref())
        };
        dag.into_result(self.cfg, outcome, stats)
    }
}

/// The kernel's action indices, walked from the goal state back to the root
/// through the cross-partition parent edges.
fn kernel_path<A>(shards: &[Shard<A>], goal: ParentRef) -> Vec<u16> {
    let mut rev = Vec::new();
    let mut node = goal;
    loop {
        let e = shards[parent_shard(node)].edges[parent_idx(node) as usize];
        if e.parent == PARENT_NONE {
            break;
        }
        rev.push(e.instr);
        node = e.parent;
    }
    rev.reverse();
    rev
}

/// Thread-local state of one worker.
struct Worker<'a, 'b, A: Assign> {
    sh: &'a Rounds<'b, A>,
    id: usize,
    /// Reused expansion scratch.
    scratch: ExpandScratch,
    /// With several partitions, one expansion's survivors before they are
    /// routed; one partition files them straight into its bucket.
    buf: SuccessorBuf<A>,
    /// The spilled spans of layer `stream.0`, when it spilled any.
    stream: (u32, Option<SpanStream<A>>),
    /// This worker's phase profiler probe (inert unless the profiler was
    /// enabled at run start); folded into the shared accumulator on exit.
    probe: PhaseProbe,
    /// Worker 0 alone: it also plans the rounds, and emits progress after
    /// every expansion it makes.
    throttle: Option<&'a mut Throttle>,
}

impl<'a, 'b, A: Assign> Worker<'a, 'b, A> {
    fn new(sh: &'a Rounds<'b, A>, id: usize, throttle: Option<&'a mut Throttle>) -> Self {
        let profile_on = sh.probe_acc.lock().expect(POISONED).is_on();
        Worker {
            sh,
            id,
            scratch: ExpandScratch::default(),
            buf: SuccessorBuf::default(),
            stream: (u32::MAX, None),
            probe: if profile_on {
                PhaseProbe::new()
            } else {
                PhaseProbe::disabled()
            },
            throttle,
        }
    }

    /// Waits at the round barrier; `false` when a peer panicked.
    fn sync(&mut self) -> bool {
        self.probe.pause();
        let ok = self.sh.barrier.wait();
        self.probe.skip();
        ok
    }

    fn run(mut self) {
        let sh = self.sh;
        let all_solutions = sh.cfg.all_solutions;
        let _guard = BreakOnPanic(&sh.barrier);
        loop {
            let mut plan = *sh.plan.lock().expect(POISONED);
            if plan.done {
                break;
            }
            self.expand_round(&plan);
            if !self.sync() || sh.limited() {
                break;
            }
            let goal = sh.goal_tag.load(Ordering::Relaxed);
            if goal != NO_GOAL && plan.stops_at_goal(all_solutions) {
                // The round ends at the goal's parent. A worker that
                // expanded past it before the goal was filed leaves
                // survivors and counters the one-worker run never makes:
                // expand the truncated round again.
                plan.hi = tag_position(goal) as usize + 1;
                if sh.reach.load(Ordering::Relaxed) > plan.hi {
                    self.discard_outbox();
                    if self.id == 0 {
                        sh.cursor.store(plan.lo, Ordering::Relaxed);
                        sh.round_bytes.store(0, Ordering::Relaxed);
                    }
                    if !self.sync() {
                        break;
                    }
                    self.expand_round(&plan);
                    if !self.sync() || sh.limited() {
                        break;
                    }
                }
            }
            let until = if goal != NO_GOAL && !all_solutions {
                goal
            } else {
                self.plan_round(&plan);
                u64::MAX
            };
            self.merge_round(&plan, until);
            if !self.sync() || until != u64::MAX {
                break;
            }
            if plan.hi == plan.len {
                self.next_layer(&plan);
                if !self.sync() {
                    break;
                }
            }
        }
        // Counters of a round that ended without its merge (a limit).
        for p in 0..sh.workers {
            let mut shard = sh.shards[p].write().expect(POISONED);
            let mut bucket = sh.buckets[self.id * sh.workers + p].lock().expect(POISONED);
            shard.counters.add(&std::mem::take(&mut bucket.counters));
        }
        sh.probe_acc.lock().expect(POISONED).merge(&self.probe);
    }

    /// The expand phase: claims chunks of `plan`'s positions until the round
    /// is done, or past a goal's parent when a goal ends the round, and
    /// files every survivor in this worker's outbox.
    fn expand_round(&mut self, plan: &Plan) {
        let sh = self.sh;
        let workers = sh.workers;
        let stops_at_goal = plan.stops_at_goal(sh.cfg.all_solutions);
        let frontier = sh.frontier.read().expect(POISONED);
        let shards: Vec<_> = (sh.shards.iter())
            .map(|s| s.read().expect(POISONED))
            .collect();
        if self.stream.0 != plan.g {
            let tier = shards.iter().find_map(|s| s.spill.as_ref());
            self.stream = (plan.g, tier.and_then(SpillTier::frontier_stream));
        }
        let mut outbox: Vec<MutexGuard<'_, Bucket<A>>> = sh.buckets
            [self.id * workers..(self.id + 1) * workers]
            .iter()
            .map(|b| b.lock().expect(POISONED))
            .collect();
        let ctx = ExpandCtx {
            cfg: sh.cfg,
            actions: &sh.actions,
            table: sh.table.as_ref(),
            space: &sh.space,
        };
        // Progress inputs that only the merge phase moves: the next layer
        // so far, and the goals found.
        let (queued, goals) = match self.throttle {
            Some(_) => (
                shards.iter().map(|s| s.open_depth()).sum::<usize>(),
                shards.iter().map(|s| s.goals.len() as u64).sum(),
            ),
            None => (0, 0),
        };
        loop {
            let start = sh.cursor.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= plan.hi || sh.limited() {
                break;
            }
            if let Some(limit) = sh.frame.limit(sh.generated.load(Ordering::Relaxed)) {
                sh.limit.lock().expect(POISONED).get_or_insert(limit);
                break;
            }
            let end = (start + CHUNK).min(plan.hi);
            let (mut expanded, mut generated) = (0, 0);
            for pos in start..end {
                if stops_at_goal && pos as u64 > tag_position(sh.goal_tag.load(Ordering::Relaxed)) {
                    break;
                }
                self.probe.begin_cycle();
                let node = frontier.at(pos);
                let owner = parent_shard(node);
                let shard = &shards[owner];
                let id = parent_idx(node);
                let e = shard.edges[id as usize];
                let prev_instr = (e.parent != PARENT_NONE).then(|| sh.actions[e.instr as usize]);
                let state = if shard.arena.has_span(id) {
                    shard.arena.assignments(id)
                } else {
                    // Spilled frontier state: one worker claims positions,
                    // and so ids, in increasing order — one sequential read
                    // per layer.
                    (self.stream.1.as_mut())
                        .expect("a spilled frontier state without a frontier segment")
                        .fetch(&sh.space, id)
                };
                self.probe.lap(Phase::Select);
                let bucket = &mut *outbox[owner];
                let (generated_before, first) = (bucket.counters.generated, bucket.buf.metas.len());
                // One partition owns every key: the survivors land in its
                // bucket as they are, and only their tags are filed.
                let buf = if workers == 1 {
                    &mut bucket.buf
                } else {
                    self.buf.clear();
                    &mut self.buf
                };
                ctx.expand(
                    state,
                    prev_instr,
                    plan.g,
                    plan.bound,
                    plan.cut,
                    buf,
                    &mut self.scratch,
                    &mut bucket.counters,
                    &mut self.probe,
                );
                generated += bucket.counters.generated - generated_before;
                expanded += 1;
                let tag_of = |i: usize| (pos as u64) << 32 | i as u64;
                let note_goal = |i: usize, m: &SuccMeta| {
                    if m.goal {
                        sh.goal_tag.fetch_min(tag_of(i), Ordering::Relaxed);
                    }
                };
                if workers == 1 {
                    for (i, m) in bucket.buf.metas[first..].iter().enumerate() {
                        note_goal(i, m);
                        bucket.tags.push(tag_of(i));
                    }
                } else {
                    for (i, m) in self.buf.metas.iter().enumerate() {
                        note_goal(i, m);
                        let p = shard_of(m.key, workers);
                        if p != owner {
                            outbox[owner].counters.routed += 1;
                        }
                        outbox[p].push(tag_of(i), m, self.buf.assigns_of(m));
                    }
                }
                self.probe.lap(Phase::Route);
                if let Some(throttle) = self.throttle.as_deref_mut() {
                    let open = (plan.len - pos - 1 + queued) as u64;
                    let total = sh.expanded.load(Ordering::Relaxed) + expanded;
                    throttle.tick(&sh.frame, total, open, goals, || {
                        let mut pending = ShardStats::default();
                        outbox.iter().for_each(|b| pending.add(&b.counters));
                        let shards = shards.iter().map(|s| &**s);
                        sh.frame
                            .snapshot(shards, &pending, open, Some(plan.g as u64))
                    });
                }
            }
            sh.generated.fetch_add(generated, Ordering::Relaxed);
            sh.expanded.fetch_add(expanded, Ordering::Relaxed);
            let stopped = start + expanded as usize;
            sh.reach.fetch_max(stopped, Ordering::Relaxed);
            if stopped < end {
                break;
            }
        }
        let bytes = outbox.iter().map(|b| b.bytes()).sum();
        sh.round_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Drops this worker's outbox of the round and takes its expansions
    /// back off the run totals.
    fn discard_outbox(&mut self) {
        let sh = self.sh;
        for bucket in &sh.buckets[self.id * sh.workers..(self.id + 1) * sh.workers] {
            let mut bucket = bucket.lock().expect(POISONED);
            let counters = std::mem::take(&mut bucket.counters);
            sh.expanded.fetch_sub(counters.expanded, Ordering::Relaxed);
            sh.generated
                .fetch_sub(counters.generated, Ordering::Relaxed);
            bucket.clear();
        }
    }

    /// Worker 0, after the expand phase: sizes the next round from this
    /// round's outbox, and publishes it unless this round ends the layer.
    fn plan_round(&mut self, plan: &Plan) {
        if self.id != 0 {
            return;
        }
        let sh = self.sh;
        let bytes = sh.round_bytes.swap(0, Ordering::Relaxed);
        if plan.hi < plan.len {
            let round_len = next_round_len(plan.hi - plan.lo, bytes, sh.workers);
            sh.cursor.store(plan.hi, Ordering::Relaxed);
            *sh.plan.lock().expect(POISONED) = Plan {
                lo: plan.hi,
                hi: (plan.hi + round_len).min(plan.len),
                bound: sh.bound_after(plan),
                ..*plan
            };
        }
    }

    /// The merge phase: merges this worker's partition from every outbox in
    /// tag order, up to and including tag `until`.
    fn merge_round(&mut self, plan: &Plan, until: u64) {
        let sh = self.sh;
        let (p, workers) = (self.id, sh.workers);
        let mut shard = sh.shards[p].write().expect(POISONED);
        let mut inbox: Vec<MutexGuard<'_, Bucket<A>>> = (0..workers)
            .map(|w| sh.buckets[w * workers + p].lock().expect(POISONED))
            .collect();
        for bucket in inbox.iter_mut() {
            shard.counters.add(&std::mem::take(&mut bucket.counters));
        }
        let frontier = sh.frontier.read().expect(POISONED);
        let runs: Vec<&[u64]> = inbox.iter().map(|b| &b.tags[..]).collect();
        merge_by_tag(
            &runs,
            |&tag| tag,
            until,
            |w, i| {
                self.probe.begin_cycle();
                // Closed-map probes miss the cache: start loading the slot
                // of the item this run merges `PREFETCH` items from now.
                if let Some(ahead) = inbox[w].buf.metas.get(i + PREFETCH) {
                    shard.arena.prefetch(ahead.key);
                }
                let tag = inbox[w].tags[i];
                let parent = frontier.at(tag_position(tag) as usize);
                let buf = &inbox[w].buf;
                let (cand, facts) = buf.offer(&buf.metas[i], plan.g + 1, parent);
                if let Merged::Queued(id) | Merged::Goal(id) =
                    shard.merge(&cand, facts, &sh.min_perm)
                {
                    debug_assert_eq!(id as usize + 1, shard.arena.len(), "a fresh state");
                    if workers > 1 {
                        shard.layer_tags.push(tag);
                    }
                }
                self.probe.lap(Phase::Intern);
            },
        );
        inbox.iter_mut().for_each(|b| b.clear());
    }

    /// Worker 0, after the layer's last merge: concatenates the partitions'
    /// fresh states in tag order into the next frontier, runs the spill
    /// tier's layer barrier, and publishes the next layer's first round.
    fn next_layer(&mut self, plan: &Plan) {
        if self.id != 0 {
            return;
        }
        let sh = self.sh;
        self.probe.begin_cycle();
        let bound = sh.bound_after(plan);
        let mut shards: Vec<_> = (sh.shards.iter())
            .map(|s| s.write().expect(POISONED))
            .collect();
        let mut frontier = sh.frontier.write().expect(POISONED);
        frontier.ids.clear();
        frontier.parts.clear();
        // Goals are never expanded.
        let mut keep = |p: usize, id: u32| {
            if !shards[p].arena.meta(id).goal {
                frontier.ids.push(id);
                if sh.workers > 1 {
                    frontier.parts.push(p as u32);
                }
            }
        };
        let first = |p: usize| shards[p].layer_first.expect("a layered shard");
        if sh.workers == 1 {
            (first(0)..shards[0].arena.len() as u32).for_each(|id| keep(0, id));
        } else {
            let runs: Vec<&[u64]> = shards.iter().map(|s| &s.layer_tags[..]).collect();
            merge_by_tag(
                &runs,
                |&tag| tag,
                u64::MAX,
                |p, i| keep(p, first(p) + i as u32),
            );
        }
        for shard in shards.iter_mut() {
            shard.layer_tags.clear();
            shard.layer_first = Some(shard.arena.len() as u32);
        }
        if shards[0].spill.is_some() {
            // One partition, whose frontier ids are in id order.
            let ids = &mut frontier.ids;
            spill::end_of_layer(&mut shards[0], sh.cfg, &sh.min_perm, plan.g, bound, ids);
        }
        let len = frontier.ids.len();
        *sh.plan.lock().expect(POISONED) = Plan::layer(sh, plan.g + 1, len, bound);
        self.probe.lap(Phase::Select);
    }
}

/// Interns the root in the partition that owns its key and returns the
/// first layer: empty when the root is already sorted (n = 1). A budgeted
/// run attaches the spill tier to that partition and checkpoints layer 0.
fn seed<A: Assign>(
    cfg: &SynthesisConfig,
    space: &A::Space,
    table: Option<&DistanceTable>,
    min_perm: &MinPerm,
    shards: &mut [Shard<A>],
) -> Frontier {
    let mut layer = Frontier::default();
    let key = narrow_key(A::key(&A::initial(space, &cfg.machine)));
    let owner = shard_of(key, shards.len());
    let shard = &mut shards[owner];
    let (root, goal) = shard.seed(space, &cfg.machine, table, min_perm);
    if goal {
        shard.goals.push(root);
        return layer;
    }
    if let Some(budget) = cfg.mem_budget_bytes {
        let dir = cfg
            .spill_dir
            .clone()
            .unwrap_or_else(spill::default_spill_dir);
        let tier = SpillTier::new(dir, budget)
            .unwrap_or_else(|e| panic!("cannot create spill directory: {e}"));
        shard.spill = Some(tier);
        let bound = cfg.max_len.unwrap_or(u32::MAX);
        spill::checkpoint(shard, cfg, min_perm, 0, bound, &[root]);
    }
    layer.ids.push(root);
    if shards.len() > 1 {
        layer.parts.push(owner as u32);
    }
    layer
}

/// Runs a layered search. Called by [`crate::synthesize`] for every
/// [`crate::Strategy::Layered`] configuration; only a resumed run can fail.
pub(crate) fn run<A: Assign>(
    cfg: &SynthesisConfig,
    space: A::Space,
    setup: Duration,
) -> Result<SynthesisResult, ResumeError> {
    let one_partition =
        cfg.all_solutions || cfg.mem_budget_bytes.is_some() || cfg.resume_dir.is_some();
    let workers = if one_partition {
        1
    } else {
        cfg.effective_threads().max(1)
    };
    // Latches the profiler switch; the accumulator itself times nothing.
    let mut probe_acc = PhaseProbe::new();
    probe_acc.pause();
    let mut stats = SearchStats::default();
    let table = build_distance_table(cfg, A::live(&space), setup, &mut stats);
    let mut frame = RunFrame::new(cfg, stats.distance_table_skipped);
    let mut throttle = Throttle::new(&frame);
    let mut shards: Vec<Shard<A>> = (0..workers).map(|_| Shard::new(cfg, 0, 0)).collect();
    presize(cfg, table.is_some(), &mut shards);
    let min_perm = MinPerm::new();
    // A resumed run enters the loop at the journal's layer.
    let (g, bound, layer) = match cfg.resume_dir.as_deref() {
        Some(dir) => {
            let resumed = spill::restore(dir, cfg, &space, &mut shards[0], &min_perm)?;
            frame.resumed_frontier_states = resumed.frontier.len() as u64;
            let layer = Frontier {
                ids: resumed.frontier,
                parts: Vec::new(),
            };
            (resumed.g, resumed.bound, layer)
        }
        None => {
            let layer = seed(cfg, &space, table.as_ref(), &min_perm, &mut shards);
            (0, cfg.max_len.unwrap_or(u32::MAX), layer)
        }
    };
    for shard in shards.iter_mut() {
        shard.layer_first = Some(shard.arena.len() as u32);
    }
    let sh = Rounds {
        cfg,
        frame,
        actions: cfg.machine.actions(),
        space,
        table,
        workers,
        shards: shards.into_iter().map(RwLock::new).collect(),
        buckets: (0..workers * workers).map(|_| Mutex::default()).collect(),
        frontier: RwLock::default(),
        plan: Mutex::default(),
        cursor: AtomicUsize::new(0),
        reach: AtomicUsize::new(0),
        round_bytes: AtomicUsize::new(0),
        goal_tag: AtomicU64::new(NO_GOAL),
        limit: Mutex::new(None),
        generated: AtomicU64::new(0),
        expanded: AtomicU64::new(0),
        min_perm,
        barrier: RoundBarrier::new(workers),
        probe_acc: Mutex::new(probe_acc),
    };
    // Edge records store action indices as `u16`.
    assert!(sh.actions.len() <= u16::MAX as usize + 1);
    *sh.plan.lock().expect(POISONED) = Plan::layer(&sh, g, layer.ids.len(), bound);
    *sh.frontier.write().expect(POISONED) = layer;

    std::thread::scope(|scope| {
        for id in 1..workers {
            let sh = &sh;
            scope.spawn(move || Worker::new(sh, id, None).run());
        }
        Worker::new(&sh, 0, Some(&mut throttle)).run();
    });

    Ok(sh.finish(stats, throttle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for workers in [1usize, 2, 3, 4, 8] {
            for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF, 1 << 57] {
                let s = shard_of(key, workers);
                assert!(s < workers);
                assert_eq!(s, shard_of(key, workers));
            }
        }
    }

    #[test]
    fn parent_refs_round_trip() {
        for (shard, idx) in [(0usize, 0u32), (3, 17), (7, u32::MAX - 1)] {
            let r = parent_ref(shard, idx);
            assert_ne!(r, PARENT_NONE);
            assert_eq!(parent_shard(r), shard);
            assert_eq!(parent_idx(r), idx);
        }
    }

    #[test]
    fn merge_by_tag_interleaves_sorted_runs_up_to_the_limit() {
        let a = [1u64, 4, 6];
        let b = [2u64, 3, 9];
        let runs: Vec<&[u64]> = vec![&a, &b, &[]];
        let mut seen = Vec::new();
        merge_by_tag(&runs, |&t| t, 6, |r, i| seen.push((r, runs[r][i])));
        assert_eq!(seen, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 6)]);
    }

    #[test]
    fn round_length_follows_bytes_per_state() {
        // 1 KiB per expanded state: the target's worth of states per
        // worker, capped at four times the last round.
        let per_target = ROUND_BYTES / 1024;
        assert_eq!(next_round_len(per_target, per_target * 1024, 1), per_target);
        assert_eq!(
            next_round_len(per_target, per_target * 1024, 2),
            2 * per_target
        );
        assert_eq!(next_round_len(10, 10 * 1024, 1), 40);
        // An empty outbox still grows by the cap; a huge one keeps a chunk.
        assert_eq!(next_round_len(100, 0, 1), 400);
        assert_eq!(next_round_len(100, usize::MAX / 2, 1), CHUNK);
    }
}
