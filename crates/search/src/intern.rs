//! Arena-backed state interning: canonical states as dense `u32` ids.
//!
//! The engines used to carry every state as its own heap object
//! (`Box<[MachineState]>`) and key every bookkeeping structure by the full
//! 128-bit content hash. The arena replaces that layout with three dense
//! structures:
//!
//! * one contiguous span store holding every kept state's canonical span
//!   back to back (a state is an `(offset, len)` span): `u16` live indices
//!   ([`crate::LiveSpace`]), two bytes an assignment, or — for machines
//!   without a live space — 8-byte `MachineState`s;
//! * a `Vec<StateMeta>` of per-state facts — span, permutation count,
//!   max per-assignment distance, goal flag — computed **once** when the
//!   state is interned, so heuristics and goal checks become field reads;
//! * a [`ClosedMap`] from the folded 64-bit content key to the id, which
//!   doubles as the closed set: one flat array of 16-byte slots probed
//!   linearly from the key's own low bits (the key is already a uniform
//!   hash), so a probe is one cache line in the common case and the
//!   caller can prefetch it ([`StateArena::prefetch`]) ahead of the merge.
//!
//! Ids are dense and allocation stops once the backing vectors reach their
//! high-water mark, so the steady-state cost of keeping a state is a
//! `memcpy` of its span plus one map insert. Every [`crate::shard::Shard`]
//! owns one arena — the best-first driver's only shard, or one per key
//! partition of the layered round loop behind that shard's lock — so
//! interning never takes a global lock.

use crate::state::Assign;

/// Sentinel offset marking a state whose span is not resident (spilled to
/// a frontier segment, or compacted away after its layer was expanded).
pub(crate) const SPAN_NONE: u32 = u32::MAX;

/// Bytes of one `key → id` closed-map slot (`u64` key + `u32` id, padded
/// to 16): the per-state closed-set cost behind
/// [`crate::SearchStats::key_bytes`].
pub(crate) const KEY_ENTRY_BYTES: u64 = 16;

/// The id of an empty [`ClosedMap`] slot; never a state id.
const EMPTY: u32 = u32::MAX;

/// One closed-map slot. Sixteen-byte aligned, so a slot never straddles a
/// cache line and one prefetch covers it.
#[derive(Clone, Copy)]
#[repr(C, align(16))]
struct Slot {
    key: u64,
    id: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() as u64 == KEY_ENTRY_BYTES);

const EMPTY_SLOT: Slot = Slot { key: 0, id: EMPTY };

/// Slots holding room for `cap` entries, by the schedule of `std`'s
/// `HashMap`: 4 or 8 slots for small maps, else the next power of two at
/// a 7/8 load.
fn slots_for(cap: usize) -> usize {
    if cap < 8 {
        return if cap < 4 { 4 } else { 8 };
    }
    let adjusted = cap.checked_mul(8).expect("closed map capacity overflow") / 7;
    adjusted.next_power_of_two()
}

/// Entries `slots` slots hold before growing (`std`'s load factor).
fn capacity_of(slots: usize) -> usize {
    match slots {
        0 => 0,
        s if s <= 8 => s - 1,
        s => s / 8 * 7,
    }
}

/// The closed set: folded state key → arena id, in a power-of-two array of
/// [`Slot`]s with linear probing from the key's low bits. An empty slot
/// holds the id [`EMPTY`]; deletion shifts the rest of the chain back, so
/// the map never holds tombstones. Capacity follows `std`'s `HashMap`
/// exactly, so [`ClosedMap::capacity`] — and through it
/// [`crate::SearchStats::key_bytes`] and the spill trigger — reads what the
/// `std` map it replaced read.
#[derive(Default)]
pub(crate) struct ClosedMap {
    slots: Vec<Slot>,
    len: usize,
}

impl ClosedMap {
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    fn home(&self, key: u64) -> usize {
        key as usize & self.mask()
    }

    /// The slot holding `key`, or the empty slot ending its chain. The map
    /// must have slots; one is always empty, so the probe ends.
    fn probe(&self, key: u64) -> usize {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let s = self.slots[i];
            if s.id == EMPTY || s.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries the map holds before it grows.
    pub fn capacity(&self) -> usize {
        capacity_of(self.slots.len())
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let s = self.slots[self.probe(key)];
        (s.id != EMPTY).then_some(s.id)
    }

    /// Maps `key` to `id`, returning the id it replaced.
    pub fn insert(&mut self, key: u64, id: u32) -> Option<u32> {
        assert!(id != EMPTY, "closed map id overflow");
        if self.slots.is_empty() {
            self.resize(slots_for(1));
        }
        let mut i = self.probe(key);
        if self.slots[i].id != EMPTY {
            return Some(std::mem::replace(&mut self.slots[i].id, id));
        }
        if self.len == self.capacity() {
            self.resize(slots_for(self.capacity() + 1));
            i = self.probe(key);
        }
        self.slots[i] = Slot { key, id };
        self.len += 1;
        None
    }

    /// Makes room for `additional` more entries without growing.
    pub fn reserve(&mut self, additional: usize) {
        let need = self.len.checked_add(additional);
        let need = need.expect("closed map capacity overflow");
        if need > self.capacity() {
            self.resize(slots_for(need.max(self.capacity() + 1)));
        }
    }

    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; slots]);
        for s in old.into_iter().filter(|s| s.id != EMPTY) {
            let i = self.probe(s.key);
            self.slots[i] = s;
        }
    }

    /// Keeps the entries whose `(key, id)` passes `keep`, deleting the rest
    /// in place: each deletion shifts the entries behind it in its chain
    /// back, so no second table is built. `keep` sees every entry once.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, u32) -> bool) {
        let Some(start) = self.slots.iter().position(|s| s.id == EMPTY) else {
            return;
        };
        // Scanning from just past an empty slot, no chain wraps across the
        // scan's start, so a shift only moves entries not yet seen back to
        // the cursor or behind it.
        let mask = self.mask();
        let mut i = (start + 1) & mask;
        for _ in 0..self.slots.len() {
            while self.slots[i].id != EMPTY && !keep(self.slots[i].key, self.slots[i].id) {
                self.remove_at(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Deletes the entry in slot `hole` by backward shift: each later entry
    /// of the chain whose home is not between the hole and itself moves
    /// into the hole, which then moves to where it was.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.id == EMPTY {
                break;
            }
            let displacement = j.wrapping_sub(self.home(s.key)) & mask;
            if displacement >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
        self.len -= 1;
    }

    /// The entries `(key, id)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let entries = self.slots.iter().filter(|s| s.id != EMPTY);
        entries.map(|s| (s.key, s.id))
    }

    /// Hints the cache to load `key`'s home slot, so a [`ClosedMap::get`]
    /// issued a few dozen probes later finds it resident.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if let Some(slot) = self.slots.get(self.home(key)) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: a prefetch is a hint that neither faults nor reads
            // architecturally, and the pointer is to a live slot.
            unsafe { _mm_prefetch::<_MM_HINT_T0>((slot as *const Slot).cast()) };
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _ = key;
    }
}

/// Per-state facts cached at intern time. Everything the hot loop needs
/// after interning — heuristic inputs, goal flag, the span — without
/// touching the assignments again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StateMeta {
    /// Span start in the arena's assignment store.
    offset: u32,
    /// Number of assignments (also §3.1's `AssignCount` heuristic).
    len: u32,
    /// Distinct value-register projections (§3.1/§3.5's permutation count).
    pub perm: u32,
    /// Maximum per-assignment sorting distance ([`crate::DistanceTable`]),
    /// `0` when the run has no table — the `MaxRemaining` heuristic then
    /// degrades to uniform cost, matching the documented table-skip
    /// behavior.
    pub max_dist: u16,
    /// Whether every assignment is sorted (§3.4).
    pub goal: bool,
}

impl StateMeta {
    /// §3.1's second heuristic: the number of distinct assignments.
    pub fn assign_count(&self) -> u32 {
        self.len
    }
}

/// The interner. See the module docs for the layout.
pub(crate) struct StateArena<A> {
    assigns: Vec<A>,
    metas: Vec<StateMeta>,
    /// The closed set: folded content key ([`crate::narrow_key`]) → id.
    ids: ClosedMap,
    /// Growth events (capacity change of the span store, meta store, or
    /// closed map) since construction/pre-sizing — the
    /// [`crate::SearchStats::arena_reallocs`] counter. A correctly
    /// pre-sized run pins this to zero.
    reallocs: u64,
}

impl<A> Default for StateArena<A> {
    fn default() -> Self {
        StateArena {
            assigns: Vec::new(),
            metas: Vec::new(),
            ids: ClosedMap::default(),
            reallocs: 0,
        }
    }
}

impl<A: Assign> StateArena<A> {
    /// Pre-sizes the backing structures for an expected population
    /// (`states` interned states holding `assign_total` assignments in
    /// all), so steady-state interning never reallocates.
    pub fn reserve(&mut self, states: usize, assign_total: usize) {
        self.assigns.reserve(assign_total);
        self.metas.reserve(states);
        self.ids.reserve(states);
    }

    /// Looks up the id interned for `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        self.ids.get(key)
    }

    /// Starts loading the closed-map slot `key` probes first, ahead of a
    /// [`StateArena::get`] of it.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.ids.prefetch(key)
    }

    /// Interns a state known to be absent (callers check [`StateArena::get`]
    /// first) and returns its dense id.
    pub fn insert_new(
        &mut self,
        key: u64,
        assigns: &[A],
        perm: u32,
        max_dist: u16,
        goal: bool,
    ) -> u32 {
        let assign_cap = self.assigns.capacity();
        let offset = u32::try_from(self.assigns.len()).expect("state arena span overflow");
        self.assigns.extend_from_slice(assigns);
        let id = self.push_meta(StateMeta {
            offset,
            len: assigns.len() as u32,
            perm,
            max_dist,
            goal,
        });
        if assign_cap != 0 && self.assigns.capacity() != assign_cap {
            self.reallocs += 1;
        }
        let map_cap = self.ids.capacity();
        let previous = self.ids.insert(key, id);
        if map_cap != 0 && self.ids.capacity() != map_cap {
            self.reallocs += 1;
        }
        debug_assert!(previous.is_none(), "intern of an already-interned key");
        id
    }

    /// Interns a state whose span lives in a spill segment rather than the
    /// arena (external-memory tier): full closed-set membership and cached
    /// facts, no resident assignments.
    pub fn insert_spilled(
        &mut self,
        key: u64,
        len: u32,
        perm: u32,
        max_dist: u16,
        goal: bool,
    ) -> u32 {
        let id = self.push_meta(StateMeta {
            offset: SPAN_NONE,
            len,
            perm,
            max_dist,
            goal,
        });
        let previous = self.ids.insert(key, id);
        debug_assert!(previous.is_none(), "intern of an already-interned key");
        id
    }

    fn push_meta(&mut self, meta: StateMeta) -> u32 {
        let meta_cap = self.metas.capacity();
        let id = u32::try_from(self.metas.len()).expect("state arena id overflow");
        self.metas.push(meta);
        if meta_cap != 0 && self.metas.capacity() != meta_cap {
            self.reallocs += 1;
        }
        id
    }

    /// Whether state `id`'s assignments are resident in the arena.
    #[inline]
    pub fn has_span(&self, id: u32) -> bool {
        self.metas[id as usize].offset != SPAN_NONE
    }

    /// The canonical assignments of state `id`. Panics (via slice bounds)
    /// if the span was spilled or compacted away — the spill tier streams
    /// those from disk instead.
    #[inline]
    pub fn assignments(&self, id: u32) -> &[A] {
        let m = &self.metas[id as usize];
        debug_assert!(m.offset != SPAN_NONE, "assignments of a spilled state");
        &self.assigns[m.offset as usize..(m.offset + m.len) as usize]
    }

    /// The cached facts of state `id`.
    #[inline]
    pub fn meta(&self, id: u32) -> &StateMeta {
        &self.metas[id as usize]
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Assignments currently held by the span store (the sizing table's
    /// `assigns` mark; equals the total interned assignment count when no
    /// span was spilled or compacted).
    pub fn assign_len(&self) -> usize {
        self.assigns.len()
    }

    /// Bytes of span storage currently reserved (the arena's dominant
    /// memory term; per-state metadata is excluded by definition of
    /// [`crate::SearchStats::arena_bytes`]).
    pub fn assign_bytes(&self) -> u64 {
        (self.assigns.capacity() * std::mem::size_of::<A>()) as u64
    }

    /// Bytes of closed-map storage currently reserved (capacity × entry
    /// size) — the [`crate::SearchStats::key_bytes`] stat.
    pub fn key_bytes(&self) -> u64 {
        self.ids.capacity() as u64 * KEY_ENTRY_BYTES
    }

    /// Growth events since construction (see the `reallocs` field).
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }

    /// Drops every resident span except those of `live` ids (the next
    /// frontier), rewriting the span store densely in `live` order. Part of
    /// the external-memory tier's end-of-layer compaction: expanded layers'
    /// assignments are never read again (only their keys, metas, and parent
    /// edges are), so their spans are reclaimed.
    pub fn compact_spans(&mut self, live: &[u32]) {
        let total: usize = live
            .iter()
            .map(|&id| {
                let m = &self.metas[id as usize];
                if m.offset == SPAN_NONE {
                    0
                } else {
                    m.len as usize
                }
            })
            .sum();
        let mut packed = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(live.len());
        for &id in live {
            let m = &self.metas[id as usize];
            if m.offset == SPAN_NONE {
                offsets.push(SPAN_NONE);
                continue;
            }
            let start = u32::try_from(packed.len()).expect("state arena span overflow");
            packed.extend_from_slice(&self.assigns[m.offset as usize..(m.offset + m.len) as usize]);
            offsets.push(start);
        }
        for m in &mut self.metas {
            m.offset = SPAN_NONE;
        }
        for (&id, &offset) in live.iter().zip(&offsets) {
            self.metas[id as usize].offset = offset;
        }
        self.assigns = packed;
    }

    /// Evicts closed-map entries whose id fails `keep`, returning the
    /// evicted `(key, id)` pairs for the caller to persist in a sorted
    /// closed segment. Delayed duplicate detection re-checks future
    /// candidates against those segments.
    pub fn evict_closed<F: FnMut(u32) -> bool>(&mut self, mut keep: F) -> Vec<(u64, u32)> {
        let mut evicted = Vec::new();
        self.ids.retain(|k, id| {
            let live = keep(id);
            if !live {
                evicted.push((k, id));
            }
            live
        });
        evicted
    }

    /// The resident closed-map entries `(key, id)`, in slot order — what a
    /// journal checkpoint streams.
    pub fn closed(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.ids.iter()
    }

    /// Resident closed-map entries.
    pub fn closed_len(&self) -> usize {
        self.ids.len()
    }

    /// Resume support: re-registers a closed-map entry for an
    /// already-restored meta.
    pub fn restore_closed(&mut self, key: u64, id: u32) {
        self.ids.insert(key, id);
    }

    /// Resume support: appends a meta (in dense id order) without a span or
    /// closed-map entry.
    pub fn restore_meta(&mut self, len: u32, perm: u32, max_dist: u16, goal: bool) -> u32 {
        self.push_meta(StateMeta {
            offset: SPAN_NONE,
            len,
            perm,
            max_dist,
            goal,
        })
    }

    /// Resume support: re-attaches a resident span to a restored meta.
    pub fn restore_span(&mut self, id: u32, assigns: impl IntoIterator<Item = A>) {
        let offset = u32::try_from(self.assigns.len()).expect("state arena span overflow");
        self.assigns.extend(assigns);
        let m = &mut self.metas[id as usize];
        debug_assert_eq!(
            offset as usize + m.len as usize,
            self.assigns.len(),
            "restored span length mismatch"
        );
        m.offset = offset;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{key_of, narrow_key, StateSet};
    use sortsynth_isa::{IsaMode, Machine};
    use std::collections::HashMap;

    /// The folded closed-set key of a state.
    fn key(s: &StateSet) -> u64 {
        narrow_key(s.key())
    }

    #[test]
    fn intern_round_trip() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let set = StateSet::initial(&m);
        let mut arena = StateArena::default();
        assert_eq!(arena.get(key(&set)), None);
        let id = arena.insert_new(key(&set), set.assignments(), 6, 4, false);
        assert_eq!(arena.get(key(&set)), Some(id));
        assert_eq!(arena.assignments(id), set.assignments());
        let meta = arena.meta(id);
        assert_eq!((meta.perm, meta.assign_count()), (6, 6));
        assert_eq!(meta.max_dist, 4);
        assert!(!meta.goal);
        assert_eq!(arena.len(), 1);
        assert!(arena.assign_bytes() >= 6 * 8);
    }

    #[test]
    fn presizing_pins_reallocs() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let init = StateSet::initial(&m);
        let mut unsized_arena = StateArena::default();
        let mut sized = StateArena::default();
        sized.reserve(512, 8192);
        let mut frontier = vec![init];
        for _ in 0..2 {
            let mut next = Vec::new();
            for state in frontier {
                let k = key(&state);
                if sized.get(k).is_none() {
                    sized.insert_new(k, state.assignments(), 0, 0, false);
                    unsized_arena.insert_new(k, state.assignments(), 0, 0, false);
                    for a in m.actions() {
                        next.push(state.apply(a));
                    }
                }
            }
            frontier = next;
        }
        assert!(sized.len() > 10);
        assert_eq!(sized.reallocs(), 0, "pre-sized arena must not grow");
        assert!(
            unsized_arena.reallocs() > 0,
            "unsized arena grows from empty"
        );
        assert_eq!(
            sized.key_bytes() % KEY_ENTRY_BYTES,
            0,
            "closed-map bytes are whole entries"
        );
    }

    #[test]
    fn spill_span_lifecycle() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let a = StateSet::initial(&m);
        let b = a.apply(m.actions()[0]);
        let mut arena = StateArena::default();
        let ia = arena.insert_new(key(&a), a.assignments(), 0, 0, false);
        let ib = arena.insert_spilled(key(&b), b.assignments().len() as u32, 0, 0, false);
        assert!(arena.has_span(ia));
        assert!(!arena.has_span(ib));
        assert_eq!(arena.get(key(&b)), Some(ib));
        arena.restore_span(ib, b.assignments().iter().copied());
        assert_eq!(arena.assignments(ib), b.assignments());
        arena.compact_spans(&[ib]);
        assert!(!arena.has_span(ia));
        assert_eq!(arena.assignments(ib), b.assignments());
        let evicted = arena.evict_closed(|id| id != ia);
        assert_eq!(evicted, vec![(key(&a), ia)]);
        assert_eq!(arena.get(key(&a)), None);
        assert_eq!(arena.get(key(&b)), Some(ib));
        arena.restore_closed(key(&a), ia);
        assert_eq!(arena.get(key(&a)), Some(ia));
    }

    /// Satellite property: interner id equality must coincide with
    /// [`StateSet`] equality — distinct canonical states get distinct ids,
    /// and re-deriving a state (different instruction order, same effect)
    /// maps to the same id via the same key.
    #[test]
    fn id_equality_matches_state_equality() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let init = StateSet::initial(&m);
        let mut arena = StateArena::default();
        let mut seen: Vec<(StateSet, u32)> = Vec::new();
        let mut frontier = vec![init];
        for _ in 0..3 {
            let mut next = Vec::new();
            for state in frontier {
                assert_eq!(
                    key_of(state.assignments()),
                    state.key(),
                    "slice key matches StateSet::key"
                );
                let k = key(&state);
                let id = match arena.get(k) {
                    Some(id) => id,
                    None => {
                        let id = arena.insert_new(k, state.assignments(), 0, 0, false);
                        for a in m.actions() {
                            next.push(state.apply(a));
                        }
                        id
                    }
                };
                for (other, other_id) in &seen {
                    assert_eq!(
                        id == *other_id,
                        state == *other,
                        "id equality must match state equality"
                    );
                }
                if seen.iter().all(|(_, i)| *i != id) {
                    seen.push((state, id));
                }
            }
            frontier = next;
        }
        assert!(arena.len() > 10, "walk interned a real population");
    }

    /// Every capacity the map grows through, inserting one key at a time
    /// from empty, and the capacity `reserve` gives, equal those of `std`'s
    /// `HashMap` — the map `key_bytes()` and the spill trigger were
    /// measured with.
    #[test]
    fn closed_map_capacity_follows_std() {
        let n: u32 = if cfg!(miri) { 100 } else { 4000 };
        let (mut ours, mut theirs) = (ClosedMap::default(), HashMap::new());
        let mut grown = Vec::new();
        for i in 0..n {
            let key = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let cap = ours.capacity();
            ours.insert(key, i);
            theirs.insert(key, i);
            assert_eq!(
                ours.capacity(),
                theirs.capacity(),
                "after {} inserts",
                i + 1
            );
            if ours.capacity() != cap {
                grown.push(ours.capacity());
            }
        }
        assert_eq!(grown[..5], [3, 7, 14, 28, 56]);
        for additional in (0..n as usize).step_by(if cfg!(miri) { 13 } else { 1 }) {
            let mut ours = ClosedMap::default();
            let mut theirs = HashMap::<u64, u32>::new();
            ours.reserve(additional);
            theirs.reserve(additional);
            assert_eq!(ours.capacity(), theirs.capacity(), "reserve({additional})");
            ours.insert(1, 1);
            theirs.insert(1, 1);
            ours.reserve(additional);
            theirs.reserve(additional);
            assert_eq!(
                ours.capacity(),
                theirs.capacity(),
                "1 + reserve({additional})"
            );
        }
    }

    /// A chain that wraps past the last slot, with another key's home
    /// inside it: deleting from the chain's middle keeps every survivor
    /// reachable, and the slot scan sees each entry once.
    #[test]
    fn closed_map_retain_shifts_wrapped_chains_back() {
        let mut map = ClosedMap::default();
        map.reserve(7);
        assert_eq!(map.slots.len(), 8);
        // Homes 6, 6, 6, 6, 0: slots 6, 7, 0, 1, then 2.
        let keys = [0x1_0006, 0x2_0006, 0x3_0006, 0x4_0006, 0x5_0000u64];
        for (id, &key) in keys.iter().enumerate() {
            assert_eq!(map.insert(key, id as u32), None);
        }
        let mut seen = Vec::new();
        map.retain(|key, id| {
            seen.push(key);
            id != 1 && id != 2
        });
        seen.sort_unstable();
        assert_eq!(seen, keys);
        assert_eq!(map.len(), 3);
        for (id, &key) in keys.iter().enumerate() {
            let kept = id != 1 && id != 2;
            assert_eq!(map.get(key), kept.then_some(id as u32));
        }
        assert_eq!(map.iter().count(), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use sortsynth_isa::MachineState;

        /// Random single assignment for the n = 3, m = 1 machine.
        fn arb_assignment() -> impl Strategy<Value = MachineState> {
            (
                prop::collection::vec(0u8..=3, 4),
                prop_oneof![
                    Just((false, false)),
                    Just((true, false)),
                    Just((false, true))
                ],
            )
                .prop_map(|(vals, (lt, gt))| {
                    let mut st = MachineState::from_values(&vals);
                    st.set_flags(lt, gt);
                    st
                })
        }

        /// One step of a closed-map run.
        #[derive(Clone, Debug)]
        enum Op {
            Insert(u64, u32),
            Get(u64),
            /// Drops the entries whose id is `r` modulo `m`.
            Retain(u32, u32),
        }

        /// Keys that mostly share their low 16 bits — homes 0, 1 and the
        /// last two slots of any table up to 2^16 slots, so chains run
        /// long and wrap past the last slot — and some uniform ones.
        fn arb_key() -> BoxedStrategy<u64> {
            let low = prop_oneof![Just(0u64), Just(1), Just(0xfffe), Just(0xffff)];
            prop_oneof![
                (0u64..48, low).prop_map(|(hi, lo)| hi << 16 | lo).boxed(),
                any::<u64>().boxed(),
            ]
            .boxed()
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (arb_key(), 0u32..1000)
                    .prop_map(|(k, id)| Op::Insert(k, id))
                    .boxed(),
                (arb_key(), 0u32..1000)
                    .prop_map(|(k, id)| Op::Insert(k, id))
                    .boxed(),
                arb_key().prop_map(Op::Get).boxed(),
                (2u32..5, 0u32..5)
                    .prop_map(|(m, r)| Op::Retain(m, r % m))
                    .boxed(),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 64 }))]

            /// The closed map against a `std` `HashMap` model: every
            /// insert, get and retain answers alike from an empty start,
            /// and afterwards the slot scan holds exactly the model's
            /// entries.
            #[test]
            fn closed_map_matches_a_hash_map(ops in prop::collection::vec(arb_op(), 1..300)) {
                let mut map = ClosedMap::default();
                let mut model = HashMap::new();
                for op in ops {
                    match op {
                        Op::Insert(k, id) => {
                            prop_assert_eq!(map.insert(k, id), model.insert(k, id));
                        }
                        Op::Get(k) => prop_assert_eq!(map.get(k), model.get(&k).copied()),
                        Op::Retain(m, r) => {
                            let mut seen = 0;
                            map.retain(|_, id| {
                                seen += 1;
                                id % m != r
                            });
                            prop_assert_eq!(seen, model.len(), "retain sees each entry once");
                            model.retain(|_, id| *id % m != r);
                        }
                    }
                    prop_assert_eq!(map.len(), model.len());
                }
                for (&k, &id) in &model {
                    prop_assert_eq!(map.get(k), Some(id));
                }
                let mut entries: Vec<_> = map.iter().collect();
                let mut expected: Vec<_> = model.into_iter().collect();
                entries.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(entries, expected);
            }
        }

        proptest! {
            /// Satellite property over *random* sets: get-or-insert through
            /// the arena assigns equal ids exactly to equal `StateSet`s.
            #[test]
            fn random_sets_intern_to_matching_ids(
                sets in prop::collection::vec(
                    prop::collection::vec(arb_assignment(), 1..10),
                    2..8,
                ),
            ) {
                let sets: Vec<StateSet> = sets
                    .into_iter()
                    .map(StateSet::from_assignments)
                    .collect();
                let mut arena = StateArena::default();
                let ids: Vec<u32> = sets
                    .iter()
                    .map(|s| match arena.get(key(s)) {
                        Some(id) => id,
                        None => arena.insert_new(key(s), s.assignments(), 0, 0, false),
                    })
                    .collect();
                for i in 0..sets.len() {
                    for j in 0..sets.len() {
                        prop_assert_eq!(
                            ids[i] == ids[j],
                            sets[i] == sets[j],
                            "id equality must match state equality"
                        );
                        prop_assert_eq!(
                            arena.assignments(ids[i]) == sets[i].assignments(),
                            true
                        );
                    }
                }
            }
        }
    }
}
