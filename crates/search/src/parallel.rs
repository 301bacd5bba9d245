//! The parallel driver: layered search in layer-synchronous rounds over the
//! same core as the single-shard driver.
//!
//! `N` workers run the single-shard driver's layered enumeration with the
//! closed set hash-partitioned into `N` [`Shard`]s, one per worker, and
//! merge every successor in the order the single-shard driver would have:
//!
//! * **Partitions.** A state's folded key ([`crate::narrow_key`]) is mixed
//!   through a Fibonacci multiply and reduced mod `N` ([`shard_of`]);
//!   worker `p` is the only writer of partition `p`'s arena, edges and
//!   counters. Parent edges are cross-partition [`ParentRef`]s.
//! * **Rounds.** A layer is expanded in rounds, each covering frontier
//!   positions `[lo, hi)`. In the expand phase the shards are read-only:
//!   every worker takes one read guard per shard for the round, claims
//!   [`CHUNK`]-position slices from a shared cursor, runs the shared
//!   [`ExpandCtx::expand`], and files each survivor — span, key, facts,
//!   parent, action — in its outbox bucket for the partition that owns the
//!   key. Spans travel with the survivor, so nothing is re-derived.
//! * **Counters.** Each expansion's counters are attributed to the
//!   partition that owns the expanded state, not to the worker that
//!   claimed it: a worker tallies them in its outbox bucket for the
//!   parent's partition, and that partition's merger folds them in. So
//!   every per-shard figure is deterministic.
//! * **Merge order.** Each survivor carries a tag: its parent's frontier
//!   position in the high half, its index among the parent's survivors in
//!   the low half — the position at which the single-shard driver merges
//!   it. After a barrier, worker `p` alone merges bucket `p` of every
//!   outbox through [`Shard::merge`] in tag order (each bucket is already
//!   sorted: a worker claims positions in increasing order), so every key
//!   meets its duplicates in the single-shard order. Fresh states join
//!   partition `p`'s next-layer list with their tags; at the end of the
//!   layer worker 0 concatenates the lists in tag order, which is the
//!   single-shard frontier order, and fixes the next layer's cut threshold
//!   from [`MinPerm`].
//! * **Goals.** The smallest goal tag of a round wins, and merging stops
//!   there. Same order and same per-layer thresholds mean the same
//!   kernel as one thread at every thread count, minimal by layer order
//!   (§3.1) with no incumbent bound; a run that ends `Exhausted` has
//!   identical counters too. A solved run differs only in the goal
//!   round's extra expansions.
//! * **Round length.** A round's outbox holds about [`ROUND_BYTES`]: the
//!   next round is sized from the last one's outbox bytes per expanded
//!   state. That figure depends only on which states were expanded, so
//!   round boundaries, and with them every counter, are deterministic.
//! * **Limits and progress.** Workers poll [`RunFrame::limit`] once per
//!   chunk; worker 0 plans the rounds and owns the progress [`Throttle`].
//!   Barrier waits stay out of the phase attribution.
//!
//! First-solution, unbudgeted layered runs only: [`crate::synthesize`]
//! keeps best-first, all-solutions, budgeted and resumed runs on the
//! single-shard driver.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use sortsynth_isa::Instr;
use sortsynth_obs::profile::{Phase, PhaseProbe};

use crate::config::SynthesisConfig;
use crate::distance::DistanceTable;
use crate::engine::{
    build_distance_table, ExpandCtx, ExpandScratch, Outcome, SearchStats, ShardStats, SolutionDag,
    SuccMeta, SuccessorBuf, SynthesisResult,
};
use crate::shard::{
    parent_idx, parent_ref, parent_shard, Closing, Merged, MinPerm, ParentRef, RunFrame, Shard,
    Throttle, PARENT_NONE,
};
use crate::sizing::SizingTable;
use crate::state::{narrow_key, Assign};

/// Frontier positions a worker claims from the round cursor at a time.
const CHUNK: usize = 8;
/// Target outbox bytes of one round, summed over the workers.
const ROUND_BYTES: usize = 1 << 20;
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

/// The next round's length after a `prev`-state round that filed `bytes`
/// of outbox: enough states to fill [`ROUND_BYTES`] at that many bytes per
/// state, at most four times `prev`, and at least one chunk.
fn next_round_len(prev: usize, bytes: usize) -> usize {
    let fit = ROUND_BYTES.saturating_mul(prev) / bytes.max(1);
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
/// survivors whose keys the partition owns, in tag order — each one's span
/// and facts, and its tag and parent — and the expansion counters of the
/// partition's own states that the worker expanded.
struct Bucket<A> {
    buf: SuccessorBuf<A>,
    /// Index-aligned with `buf.metas`. The tag is the survivor's merge
    /// position: its parent's frontier position in the high half, its index
    /// among the parent's survivors in the low half.
    tags: Vec<(u64, ParentRef)>,
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
    fn push(&mut self, tag: u64, parent: ParentRef, m: &SuccMeta, span: &[A]) {
        let offset = self.buf.assigns.len() as u32;
        self.buf.metas.push(SuccMeta { offset, ..*m });
        self.buf.assigns.extend_from_slice(span);
        self.tags.push((tag, parent));
    }

    /// Outbox bytes held, for round sizing.
    fn bytes(&self) -> usize {
        self.buf.assigns.len() * std::mem::size_of::<A>()
            + self.tags.len() * std::mem::size_of::<(SuccMeta, u64, ParentRef)>()
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.tags.clear();
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
    /// The layer is empty or at the length bound: the search is exhausted.
    done: bool,
}

impl Plan {
    /// The first round of a `len`-state layer at length `g`: one chunk per
    /// worker, since the last layer's bytes per state say little about
    /// this one's.
    fn layer<A: Assign>(sh: &Rounds<'_, A>, g: u32, len: usize) -> Plan {
        sh.cursor.store(0, Ordering::Relaxed);
        Plan {
            g,
            lo: 0,
            hi: (CHUNK * sh.workers).min(len),
            len,
            cut: sh.min_perm.threshold(sh.cfg.cut, g),
            done: len == 0 || g >= sh.max_len,
        }
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
    /// Static inclusive length bound from `max_len`.
    max_len: u32,
    /// One key partition per worker: read by every worker while expanding,
    /// written by its owner alone while merging.
    shards: Vec<RwLock<Shard<A>>>,
    /// `buckets[w * workers + p]`: worker `w`'s survivors for partition
    /// `p`, and its counters for expanding partition `p`'s states.
    buckets: Vec<Mutex<Bucket<A>>>,
    /// Per partition: the next layer's fresh states so far, with their tags.
    next: Vec<Mutex<Vec<(u64, u32)>>>,
    /// The layer under expansion, in single-shard order.
    frontier: RwLock<Vec<ParentRef>>,
    plan: Mutex<Plan>,
    // `cursor`, `round_bytes` and `goal_tag` publish no other data and are
    // read after the barrier that ends the phase writing them (worker
    // 0 resets the cursor between barriers); the barrier's mutex orders
    // the two, so `Relaxed` suffices.
    /// The round's next unclaimed frontier position.
    cursor: AtomicUsize,
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
    fn ctx(&self) -> ExpandCtx<'_, A> {
        ExpandCtx {
            cfg: self.cfg,
            actions: &self.actions,
            table: self.table.as_ref(),
            space: &self.space,
        }
    }

    fn limited(&self) -> bool {
        self.limit.lock().expect(POISONED).is_some()
    }

    /// Open states: the layer's unexpanded rest plus the next layer so far.
    fn open(&self, plan: &Plan) -> u64 {
        let queued: usize = self
            .next
            .iter()
            .map(|n| n.lock().expect(POISONED).len())
            .sum();
        (plan.len - plan.lo + queued) as u64
    }

    /// Joins the shards into the run's result through the shared
    /// [`RunFrame::finish`].
    fn finish(self, stats: SearchStats, throttle: Throttle) -> SynthesisResult {
        let plan = *self.plan.lock().expect(POISONED);
        let open = self.open(&plan);
        let probe = self.probe_acc.into_inner().expect(POISONED);
        let limit = self.limit.into_inner().expect(POISONED);
        let shards: Vec<Shard<A>> = self
            .shards
            .into_iter()
            .map(|s| s.into_inner().expect(POISONED))
            .collect();
        let goal = (shards.iter().enumerate())
            .find_map(|(p, s)| s.goals.first().map(|&id| parent_ref(p, id)));
        let outcome = match (limit, goal) {
            (Some(limit), _) => limit,
            (None, Some(_)) => Outcome::Solved,
            (None, None) => Outcome::Exhausted,
        };
        let end = Closing {
            outcome,
            open,
            f_bound: Some(plan.g as u64),
        };
        let stats = self.frame.finish(throttle, &shards, stats, &probe, end);
        let path = goal.map(|goal| kernel_path(&shards, goal));
        SynthesisResult {
            found_len: path.as_ref().map(|p| p.len() as u32),
            minimal_certified: path.is_some() && self.cfg.guarantees_minimal(),
            dag: SolutionDag::from_path(self.actions, path.as_deref()),
            outcome,
            stats,
        }
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
    /// Reused expansion buffers ([`ExpandCtx::expand`] output).
    scratch: ExpandScratch<A>,
    /// This worker's phase profiler probe (inert unless the profiler was
    /// enabled at run start); folded into the shared accumulator on exit.
    probe: PhaseProbe,
    /// Worker 0 alone: it also plans the rounds and emits progress.
    throttle: Option<&'a mut Throttle>,
}

impl<'a, 'b, A: Assign> Worker<'a, 'b, A> {
    fn new(sh: &'a Rounds<'b, A>, id: usize, throttle: Option<&'a mut Throttle>) -> Self {
        let profile_on = sh.probe_acc.lock().expect(POISONED).is_on();
        Worker {
            sh,
            id,
            scratch: ExpandScratch::default(),
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
        let _guard = BreakOnPanic(&sh.barrier);
        loop {
            let plan = *sh.plan.lock().expect(POISONED);
            if plan.done {
                break;
            }
            self.tick(&plan);
            self.expand_round(&plan);
            if !self.sync() || sh.limited() {
                break;
            }
            let goal = sh.goal_tag.load(Ordering::Relaxed);
            if goal == NO_GOAL {
                self.plan_round(&plan);
            }
            self.merge_round(&plan, goal);
            if !self.sync() || goal != NO_GOAL {
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
    /// is done, and files every survivor in this worker's outbox.
    fn expand_round(&mut self, plan: &Plan) {
        let sh = self.sh;
        let workers = sh.workers;
        let frontier = sh.frontier.read().expect(POISONED);
        let shards: Vec<_> = (sh.shards.iter())
            .map(|s| s.read().expect(POISONED))
            .collect();
        let mut outbox: Vec<MutexGuard<'_, Bucket<A>>> = sh.buckets
            [self.id * workers..(self.id + 1) * workers]
            .iter()
            .map(|b| b.lock().expect(POISONED))
            .collect();
        let ctx = sh.ctx();
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
            let mut generated = 0;
            for pos in start..end {
                self.probe.begin_cycle();
                let node = frontier[pos];
                let owner = parent_shard(node);
                let shard = &shards[owner];
                let id = parent_idx(node);
                let e = shard.edges[id as usize];
                let prev_instr = (e.parent != PARENT_NONE).then(|| sh.actions[e.instr as usize]);
                self.probe.lap(Phase::Select);
                let counters = &mut outbox[owner].counters;
                let before = counters.generated;
                ctx.expand(
                    shard.arena.assignments(id),
                    prev_instr,
                    plan.g,
                    sh.max_len,
                    plan.cut,
                    &mut self.scratch,
                    counters,
                    &mut self.probe,
                );
                generated += counters.generated - before;
                let buf = &self.scratch.buf;
                for (i, m) in buf.metas.iter().enumerate() {
                    let tag = (pos as u64) << 32 | i as u64;
                    if m.goal {
                        sh.goal_tag.fetch_min(tag, Ordering::Relaxed);
                    }
                    let p = shard_of(m.key, workers);
                    if p != owner {
                        outbox[owner].counters.routed += 1;
                    }
                    outbox[p].push(tag, node, m, buf.assigns_of(m));
                }
                self.probe.lap(Phase::Route);
            }
            sh.generated.fetch_add(generated, Ordering::Relaxed);
            sh.expanded
                .fetch_add((end - start) as u64, Ordering::Relaxed);
        }
        let bytes = outbox.iter().map(|b| b.bytes()).sum();
        sh.round_bytes.fetch_add(bytes, Ordering::Relaxed);
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
            let round_len = next_round_len(plan.hi - plan.lo, bytes);
            sh.cursor.store(plan.hi, Ordering::Relaxed);
            *sh.plan.lock().expect(POISONED) = Plan {
                lo: plan.hi,
                hi: (plan.hi + round_len).min(plan.len),
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
        let mut next = sh.next[p].lock().expect(POISONED);
        let runs: Vec<&[(u64, ParentRef)]> = inbox.iter().map(|b| &b.tags[..]).collect();
        merge_by_tag(
            &runs,
            |&(tag, _)| tag,
            until,
            |w, i| {
                self.probe.begin_cycle();
                let (tag, parent) = inbox[w].tags[i];
                let buf = &inbox[w].buf;
                let (cand, facts) = buf.offer(&buf.metas[i], plan.g + 1, parent);
                if let Merged::Queued(id) = shard.merge(&cand, facts, &sh.min_perm) {
                    next.push((tag, id));
                }
                self.probe.lap(Phase::Intern);
            },
        );
        inbox.iter_mut().for_each(|b| b.clear());
    }

    /// Worker 0, after the layer's last merge: concatenates the partitions'
    /// fresh states in tag order into the next frontier and publishes its
    /// first round.
    fn next_layer(&mut self, plan: &Plan) {
        if self.id != 0 {
            return;
        }
        let sh = self.sh;
        self.probe.begin_cycle();
        let mut next: Vec<_> = (sh.next.iter())
            .map(|n| n.lock().expect(POISONED))
            .collect();
        let mut frontier = sh.frontier.write().expect(POISONED);
        frontier.clear();
        let runs: Vec<&[(u64, u32)]> = next.iter().map(|n| &n[..]).collect();
        merge_by_tag(
            &runs,
            |&(tag, _)| tag,
            u64::MAX,
            |p, i| {
                frontier.push(parent_ref(p, runs[p][i].1));
            },
        );
        next.iter_mut().for_each(|n| n.clear());
        *sh.plan.lock().expect(POISONED) = Plan::layer(sh, plan.g + 1, frontier.len());
        self.probe.lap(Phase::Select);
    }

    /// Worker 0, at the start of a round: throttled progress.
    fn tick(&mut self, plan: &Plan) {
        let Some(throttle) = self.throttle.as_deref_mut() else {
            return;
        };
        let sh = self.sh;
        let open = sh.open(plan);
        throttle.tick(
            &sh.frame,
            sh.expanded.load(Ordering::Relaxed),
            open,
            0,
            || {
                let shards = sh.shards.iter().map(|s| s.read().expect(POISONED));
                sh.frame.snapshot(shards, open, Some(plan.g as u64))
            },
        );
    }
}

/// Runs the parallel layered search. Called by [`crate::synthesize`] when
/// the resolved thread count exceeds one (first-solution, unbudgeted
/// layered runs).
pub(crate) fn run<A: Assign>(
    cfg: &SynthesisConfig,
    space: A::Space,
    setup: Duration,
) -> SynthesisResult {
    let workers = cfg.effective_threads().max(2);
    // Latches the profiler switch; the accumulator itself times nothing.
    let mut probe_acc = PhaseProbe::new();
    probe_acc.pause();
    let mut stats = SearchStats::default();
    let table = build_distance_table(cfg, A::live(&space), setup, &mut stats);
    let frame = RunFrame::new(cfg, stats.distance_table_skipped);
    let mut throttle = Throttle::new(&frame);
    // Pre-size each shard from the recorded high-water marks (plus 1/8
    // headroom over an even split: hash partitioning is never perfectly
    // balanced), so steady-state interning never reallocates.
    let sizing = SizingTable::row_for(cfg, workers as u32);
    let shards = (0..workers)
        .map(|_| {
            let mut shard = Shard::<A>::new(cfg, 0, 0);
            if let Some(row) = sizing {
                let per = |total: u64, slack_floor: u64| {
                    let even = total / workers as u64;
                    (even + even / 8 + slack_floor) as usize
                };
                shard.reserve(per(row.states, 64), per(row.assigns, 1024));
            }
            RwLock::new(shard)
        })
        .collect();
    let sh = Rounds {
        cfg,
        frame,
        actions: cfg.machine.actions(),
        space,
        table,
        workers,
        max_len: cfg.max_len.unwrap_or(u32::MAX),
        shards,
        buckets: (0..workers * workers).map(|_| Mutex::default()).collect(),
        next: (0..workers).map(|_| Mutex::default()).collect(),
        frontier: RwLock::new(Vec::new()),
        plan: Mutex::default(),
        cursor: AtomicUsize::new(0),
        round_bytes: AtomicUsize::new(0),
        goal_tag: AtomicU64::new(NO_GOAL),
        limit: Mutex::new(None),
        generated: AtomicU64::new(0),
        expanded: AtomicU64::new(0),
        min_perm: MinPerm::new(),
        barrier: RoundBarrier::new(workers),
        probe_acc: Mutex::new(probe_acc),
    };

    let owner = shard_of(
        narrow_key(A::key(&A::initial(&sh.space, &cfg.machine))),
        workers,
    );
    let mut shard = sh.shards[owner].write().expect(POISONED);
    let (root, goal) = shard.seed(&sh.space, &cfg.machine, sh.table.as_ref(), &sh.min_perm);
    // Degenerate machines (n = 1) are sorted from the start: an empty first
    // layer, and the workers stop at once.
    let layer = if goal {
        shard.goals.push(root);
        vec![]
    } else {
        vec![parent_ref(owner, root)]
    };
    drop(shard);
    *sh.plan.lock().expect(POISONED) = Plan::layer(&sh, 0, layer.len());
    *sh.frontier.write().expect(POISONED) = layer;

    std::thread::scope(|scope| {
        for id in 1..workers {
            let sh = &sh;
            scope.spawn(move || Worker::new(sh, id, None).run());
        }
        Worker::new(&sh, 0, Some(&mut throttle)).run();
    });

    sh.finish(stats, throttle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for workers in [2usize, 3, 4, 8] {
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
        // 1 KiB per expanded state: the target's worth of states, capped at
        // four times the last round.
        let per_target = ROUND_BYTES / 1024;
        assert_eq!(next_round_len(per_target, per_target * 1024), per_target);
        assert_eq!(next_round_len(10, 10 * 1024), 40);
        // An empty outbox still grows by the cap; a huge one keeps a chunk.
        assert_eq!(next_round_len(100, 0), 400);
        assert_eq!(next_round_len(100, usize::MAX / 2), CHUNK);
    }
}
