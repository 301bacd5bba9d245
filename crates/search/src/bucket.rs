//! The bucketed open list every search shard selects from.
//!
//! f-values in this search are small dense integers — bounded by
//! `max_len + max_dist` when the distance table is on, and by the depth
//! bound plus the largest heuristic value otherwise — so a bucket queue
//! (Dial's structure) replaces the `BinaryHeap`'s `O(log n)` sift with
//! `O(1)` pushes and an amortized-`O(1)` monotone cursor scan on pops.
//!
//! # Exact heap-order equivalence
//!
//! A binary-heap open list pops entries in ascending `(f, g, id)` order,
//! and the queue reproduces that order exactly: the `proptest_search`
//! suite pins it against a reference `BinaryHeap` over random push/pop
//! interleavings, and the `golden_trace` suite pins the whole search to
//! counters recorded while a heap reference ran alongside. A flat
//! bucket-per-f with FIFO lanes cannot promise that — f-ties
//! between goal entries (f = g) and frontier entries interleave by
//! arrival, not by `(g, id)`. So the queue is two-level: the outer `Vec`
//! is indexed by f, each f-bucket's inner `Vec` is indexed by g, and each
//! `(f, g)` lane holds state ids consumed through a cursor. Fresh arena
//! ids are allocated in increasing order, so within a lane pushes arrive
//! (almost) sorted; the rare out-of-order push — a reopened state or a
//! re-generated goal re-pushing an old id — bubbles backward into the
//! lane's unconsumed tail, which stays sorted. Pop therefore returns the
//! exact `(f, g, id)` minimum, bit-identical to a heap.
//!
//! # Monotone cursor and admissibility
//!
//! With an admissible, consistent heuristic the sequence of popped
//! f-values is non-decreasing and the outer cursor only ever advances —
//! the classic Dijkstra/A* argument, and why the cursor scan amortizes to
//! `O(max_f)` over the whole search. The engine, however, also runs
//! *inadmissible* heuristics (`PermCount`, `AssignCount`), under which a
//! successor's f can undercut the current pop. Correctness does not rest
//! on monotonicity: every push compares the target index against the
//! cursor and moves it *backward* when undercut (likewise for the per-f
//! g-cursor), so the minimum is never skipped; the scan bound degrades
//! gracefully instead of the result.
//!
//! # Staleness
//!
//! Like the heap, the queue never removes or rewrites an entry in place:
//! a reopened state is pushed again at its improved `(f, g)` and the old
//! entry is discarded lazily at pop time by the drivers' staleness checks
//! against the shard's edge table (counted in `stale_pops`). The queue
//! itself only promises ordered delivery of everything pushed.
//!
//! # Growth
//!
//! Both levels grow on demand. The shards size the outer level from the
//! `max_len + max_dist` estimate, but f-values above it are legal —
//! machines past the distance table's action limit skip the table and
//! search with weaker, unbounded heuristics — so `push` grows rather
//! than panicking (regression-tested next to the oversized-machine test).

/// An `(f, g)` lane: state ids sorted ascending from `next` on, consumed
/// through `next`. A fully drained lane releases its buffer only via
/// [`Lane::reset`] (cheap `Vec::clear`, capacity kept).
#[derive(Clone, Debug, Default)]
struct Lane {
    ids: Vec<u32>,
    next: usize,
}

impl Lane {
    #[inline]
    fn is_drained(&self) -> bool {
        self.next >= self.ids.len()
    }

    #[inline]
    fn reset(&mut self) {
        self.ids.clear();
        self.next = 0;
    }
}

/// One f-value's bucket: lanes indexed by g plus a backward-movable
/// g-cursor and a live-entry count.
#[derive(Clone, Debug, Default)]
struct FBucket {
    lanes: Vec<Lane>,
    cursor: usize,
    live: usize,
}

/// A two-level bucket queue over `(f, g, state id)` triples, popping the
/// exact `(f, g, id)` minimum like the `BinaryHeap` it replaces.
///
/// # Examples
///
/// ```
/// use sortsynth_search::BucketQueue;
///
/// let mut q = BucketQueue::with_f_hint(4);
/// q.push(3, 2, 7);
/// q.push(1, 1, 9);
/// q.push(3, 1, 4);
/// assert_eq!(q.pop(), Some((1, 1, 9)));
/// assert_eq!(q.pop(), Some((3, 1, 4)));
/// assert_eq!(q.pop(), Some((3, 2, 7)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BucketQueue {
    buckets: Vec<FBucket>,
    cursor: usize,
    len: usize,
    scans: u64,
    /// Initial id capacity of freshly created lanes (0 = grow on demand).
    /// Sized from the sizing table's recorded peak open depth so the hot
    /// lanes never pay growth reallocations mid-layer.
    lane_hint: usize,
}

impl BucketQueue {
    /// An empty queue with no pre-sized buckets.
    pub fn new() -> Self {
        BucketQueue::default()
    }

    /// An empty queue with the outer level pre-allocated for f-values up
    /// to `hint` (exclusive). Larger f-values still work — the level
    /// grows on demand.
    pub fn with_f_hint(hint: usize) -> Self {
        BucketQueue {
            buckets: Vec::with_capacity(hint),
            ..BucketQueue::default()
        }
    }

    /// [`BucketQueue::with_f_hint`] plus a per-lane id-capacity hint for
    /// freshly created lanes.
    pub fn with_hints(f_hint: usize, lane_hint: usize) -> Self {
        BucketQueue {
            buckets: Vec::with_capacity(f_hint),
            lane_hint,
            ..BucketQueue::default()
        }
    }

    /// Live (un-popped) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cursor-advance steps over empty buckets/lanes so far — the
    /// `bucket_scans` search counter.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Inserts `(f, g, id)`. Amortized `O(1)`: out-of-order ids within a
    /// lane (reopens, goal re-pushes) bubble backward, but fresh ids —
    /// the overwhelming majority — are already in arrival order.
    pub fn push(&mut self, f: u64, g: u32, id: u32) {
        let fi = usize::try_from(f).expect("f-value fits a usize");
        if fi >= self.buckets.len() {
            self.buckets.resize_with(fi + 1, FBucket::default);
        }
        let bucket = &mut self.buckets[fi];
        let gi = g as usize;
        if gi >= bucket.lanes.len() {
            let hint = self.lane_hint;
            bucket.lanes.resize_with(gi + 1, || Lane {
                ids: Vec::with_capacity(hint),
                next: 0,
            });
        }
        let lane = &mut bucket.lanes[gi];
        if lane.is_drained() {
            lane.reset();
        }
        lane.ids.push(id);
        let mut i = lane.ids.len() - 1;
        while i > lane.next && lane.ids[i - 1] > id {
            lane.ids.swap(i - 1, i);
            i -= 1;
        }
        if bucket.live == 0 || gi < bucket.cursor {
            bucket.cursor = gi;
        }
        bucket.live += 1;
        if self.len == 0 || fi < self.cursor {
            self.cursor = fi;
        }
        self.len += 1;
    }

    /// Removes and returns the `(f, g, id)` minimum, or `None` when
    /// empty.
    pub fn pop(&mut self) -> Option<(u64, u32, u32)> {
        if self.len == 0 {
            return None;
        }
        // A non-empty bucket exists at or past the cursor: pushes move
        // the cursor backward whenever they land below it.
        while self.buckets[self.cursor].live == 0 {
            self.cursor += 1;
            self.scans += 1;
        }
        let fi = self.cursor;
        let bucket = &mut self.buckets[fi];
        while bucket.lanes[bucket.cursor].is_drained() {
            bucket.cursor += 1;
            self.scans += 1;
        }
        let gi = bucket.cursor;
        let lane = &mut bucket.lanes[gi];
        let id = lane.ids[lane.next];
        lane.next += 1;
        if lane.is_drained() {
            lane.reset();
        }
        bucket.live -= 1;
        self.len -= 1;
        Some((fi as u64, gi as u32, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_fgid_minimum_across_interleavings() {
        let mut q = BucketQueue::new();
        q.push(2, 2, 10);
        q.push(2, 1, 11);
        q.push(0, 0, 3);
        q.push(2, 1, 2);
        assert_eq!(q.pop(), Some((0, 0, 3)));
        // Same (f, g): smallest id wins even though 11 arrived first.
        assert_eq!(q.pop(), Some((2, 1, 2)));
        q.push(1, 1, 9); // undercuts the cursor (inadmissible heuristic)
        assert_eq!(q.pop(), Some((1, 1, 9)));
        assert_eq!(q.pop(), Some((2, 1, 11)));
        assert_eq!(q.pop(), Some((2, 2, 10)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_cursor_moves_backward_on_undercutting_g() {
        let mut q = BucketQueue::new();
        q.push(5, 4, 1);
        assert_eq!(q.pop(), Some((5, 4, 1)));
        // Same f, smaller g than the already-consumed lane.
        q.push(5, 2, 7);
        assert_eq!(q.pop(), Some((5, 2, 7)));
    }

    #[test]
    fn duplicate_triples_pop_once_each() {
        // A goal state re-generated along a second path pushes the exact
        // same (f, g, id) twice; both copies must surface.
        let mut q = BucketQueue::new();
        q.push(3, 3, 8);
        q.push(3, 3, 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((3, 3, 8)));
        assert_eq!(q.pop(), Some((3, 3, 8)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn grows_past_the_f_hint_without_panicking() {
        // Satellite regression: oversized machines skip the distance
        // table, so f-values exceed the `max_len + max_dist` sizing
        // estimate. The queue must grow, not panic.
        let mut q = BucketQueue::with_f_hint(4);
        q.push(1, 1, 0);
        q.push(1000, 40, 1);
        q.push(17, 9, 2);
        assert_eq!(q.pop(), Some((1, 1, 0)));
        assert_eq!(q.pop(), Some((17, 9, 2)));
        assert_eq!(q.pop(), Some((1000, 40, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drained_lanes_release_their_entries() {
        let mut q = BucketQueue::new();
        for round in 0..100u32 {
            for id in 0..64 {
                q.push(3, 2, round * 64 + id);
            }
            while q.pop().is_some() {}
        }
        // The (3, 2) lane was fully drained each round, so its buffer was
        // reset rather than accumulating 6400 consumed ids.
        assert!(q.buckets[3].lanes[2].ids.capacity() <= 64);
    }

    #[test]
    fn lane_hint_presizes_fresh_lanes() {
        let mut q = BucketQueue::with_hints(4, 32);
        q.push(3, 2, 1);
        assert!(q.buckets[3].lanes[2].ids.capacity() >= 32);
        // Unhinted queues keep lanes lazily sized (see
        // `drained_lanes_release_their_entries`).
        let mut q = BucketQueue::new();
        q.push(3, 2, 1);
        assert!(q.buckets[3].lanes[2].ids.capacity() <= 8);
    }
}
