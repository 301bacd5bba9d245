//! Arena-backed state interning: canonical states as dense `u32` ids.
//!
//! The engines used to carry every state as its own heap object
//! (`Box<[MachineState]>`) and key every bookkeeping structure by the full
//! 128-bit content hash. The arena replaces that layout with three dense
//! structures:
//!
//! * one contiguous `Vec<MachineState>` holding every kept state's
//!   assignments back to back (a state is an `(offset, len)` span);
//! * a `Vec<StateMeta>` of per-state facts — span, permutation count,
//!   max per-assignment distance, goal flag — computed **once** when the
//!   state is interned, so heuristics and goal checks become field reads;
//! * an identity-hashed map from the folded 64-bit content key to the id,
//!   which doubles as the closed set.
//!
//! Ids are dense and allocation stops once the backing vectors reach their
//! high-water mark, so the steady-state cost of keeping a state is a
//! `memcpy` of its span plus one map insert. Every [`crate::shard::Shard`]
//! owns one arena — the single-shard driver's only shard, or one per
//! parallel worker behind that shard's lock — so interning never takes a
//! global lock.

use sortsynth_isa::MachineState;

use crate::hashers::KeyMap;

/// Sentinel offset marking a state whose span is not resident (spilled to
/// a frontier segment, or compacted away after its layer was expanded).
pub(crate) const SPAN_NONE: u32 = u32::MAX;

/// Bytes of one `key → id` closed-map entry (`u64` key + `u32` id, padded
/// to the key's alignment): the per-state closed-set cost behind
/// [`crate::SearchStats::key_bytes`].
pub(crate) const KEY_ENTRY_BYTES: u64 = 16;

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
#[derive(Default)]
pub(crate) struct StateArena {
    assigns: Vec<MachineState>,
    metas: Vec<StateMeta>,
    /// The closed set: folded content key ([`crate::narrow_key`]) → id.
    ids: KeyMap<u32>,
    /// Growth events (capacity change of the span store, meta store, or
    /// closed map) since construction/pre-sizing — the
    /// [`crate::SearchStats::arena_reallocs`] counter. A correctly
    /// pre-sized run pins this to zero.
    reallocs: u64,
}

impl StateArena {
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
        self.ids.get(&key).copied()
    }

    /// Interns a state known to be absent (callers check [`StateArena::get`]
    /// first) and returns its dense id.
    pub fn insert_new(
        &mut self,
        key: u64,
        assigns: &[MachineState],
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
    pub fn assignments(&self, id: u32) -> &[MachineState] {
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

    /// Bytes of assignment storage currently reserved (the arena's dominant
    /// memory term; per-state metadata is excluded by definition of
    /// [`crate::SearchStats::arena_bytes`]).
    pub fn assign_bytes(&self) -> u64 {
        (self.assigns.capacity() * std::mem::size_of::<MachineState>()) as u64
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
        self.ids.retain(|&k, &mut id| {
            let live = keep(id);
            if !live {
                evicted.push((k, id));
            }
            live
        });
        evicted
    }

    /// The resident closed-map entries `(key, id)`, in map order — what a
    /// journal checkpoint streams.
    pub fn closed(&self) -> impl ExactSizeIterator<Item = (u64, u32)> + '_ {
        self.ids.iter().map(|(&k, &id)| (k, id))
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
    pub fn restore_span(&mut self, id: u32, assigns: impl IntoIterator<Item = MachineState>) {
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
