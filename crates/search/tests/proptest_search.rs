//! Property-based tests for search states, the distance table, and the
//! bucketed open list.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sortsynth_isa::{IsaMode, Machine, MachineState};
use sortsynth_search::{BucketQueue, DistanceTable, StateSet, UNSORTABLE};

fn machine() -> Machine {
    Machine::new(3, 1, IsaMode::Cmov)
}

/// Arbitrary single register assignment for the n = 3, m = 1 machine:
/// values in 0..=3 plus a legal flag combination.
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
    /// Canonicalization is order-insensitive and idempotent.
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn canonicalization_is_order_insensitive(
        mut assigns in prop::collection::vec(arb_assignment(), 1..12),
    ) {
        let a = StateSet::from_assignments(assigns.clone());
        assigns.reverse();
        let b = StateSet::from_assignments(assigns.clone());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.key(), b.key());
        let again = StateSet::from_assignments(a.assignments().to_vec());
        prop_assert_eq!(a, again);
    }

    /// Applying an instruction is a function, so the number of distinct
    /// assignments can never increase. (The *permutation* count is NOT
    /// monotone — a conditional move can split two assignments that
    /// differed only in their flags — so the correct upper bound for it is
    /// the predecessor's assignment count.)
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn counts_are_monotone_under_apply(
        assigns in prop::collection::vec(arb_assignment(), 1..12),
        action_idx in 0usize..64,
    ) {
        let m = machine();
        let actions = m.actions();
        let instr = actions[action_idx % actions.len()];
        let state = StateSet::from_assignments(assigns);
        let next = state.apply(instr);
        prop_assert!(next.assign_count() <= state.assign_count());
        prop_assert!(next.perm_count(&m) <= state.assign_count());
        prop_assert!(next.perm_count(&m) <= next.assign_count());
    }

    /// The distance table satisfies the Bellman consistency property over
    /// arbitrary assignments: one step changes the distance by at most one
    /// in each direction (so it is an admissible, consistent heuristic).
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn distance_table_is_consistent(assign in arb_assignment(), action_idx in 0usize..64) {
        let m = machine();
        let table = DistanceTable::build(&m, false);
        let actions = m.actions();
        let instr = actions[action_idx % actions.len()];
        let d = table.dist(assign);
        let ds = table.dist(assign.step(instr));
        if d == UNSORTABLE {
            // An erased state can never become sortable again.
            prop_assert_eq!(ds, UNSORTABLE);
        } else if ds != UNSORTABLE {
            prop_assert!(d <= ds + 1, "d {d} vs succ {ds}");
        }
    }

    /// Zero distance iff the assignment is sorted.
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn distance_zero_iff_sorted(assign in arb_assignment()) {
        let m = machine();
        let table = DistanceTable::build(&m, false);
        prop_assert_eq!(table.dist(assign) == 0, m.is_sorted(assign));
    }

    /// `max_dist` over a set is the max of the members' distances.
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn max_dist_is_the_maximum(assigns in prop::collection::vec(arb_assignment(), 1..8)) {
        let m = machine();
        let table = DistanceTable::build(&m, false);
        let set = StateSet::from_assignments(assigns.clone());
        let expected = set
            .assignments()
            .iter()
            .map(|&a| table.dist(a))
            .max()
            .expect("non-empty");
        let expected = if set.assignments().iter().any(|&a| table.dist(a) == UNSORTABLE) {
            UNSORTABLE
        } else {
            expected
        };
        prop_assert_eq!(table.max_dist(&set), expected);
    }

    /// Collision smoke test for `key()`: the engines dedup by the 128-bit
    /// content key alone and never re-compare assignments, so over random
    /// canonical sets key equality must coincide with set equality. (The
    /// forward direction — equal sets hash equal — is determinism; the
    /// interesting direction is the absence of observed collisions.)
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn key_equality_matches_set_equality(
        a in prop::collection::vec(arb_assignment(), 1..12),
        b in prop::collection::vec(arb_assignment(), 1..12),
    ) {
        let sa = StateSet::from_assignments(a);
        let sb = StateSet::from_assignments(b);
        prop_assert_eq!(sa.key() == sb.key(), sa == sb);
    }

    /// Erasure detection agrees with the distance table's unsortability.
    /// The table marks erased assignments UNSORTABLE up front, so one
    /// direction only checks the build against its own shortcut; the
    /// differential test against the full reference sweep
    /// (`distance::tests::build_matches_reference_*`) is the check on that
    /// shortcut. What this still pins is the converse: every assignment
    /// that keeps all of `1..=n` is sortable.
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn erasure_iff_unsortable(assign in arb_assignment()) {
        let m = machine();
        let table = DistanceTable::build(&m, false);
        let set = StateSet::from_assignments(vec![assign]);
        prop_assert_eq!(set.has_erased_value(&m), table.dist(assign) == UNSORTABLE);
    }

    /// The bucket queue is observationally a priority queue: under an
    /// *arbitrary* interleaving of pushes and pops — including f-values
    /// that undercut the cursor, duplicate triples, and pops on empty —
    /// every pop agrees with a reference `BinaryHeap` popping the
    /// smallest `(f, g, id)`. This is stronger than the engines need
    /// (their f-sequences are nearly monotone) and is exactly the
    /// contract the `bucket_equivalence` differential suite relies on.
    #[test]
    #[cfg_attr(miri, ignore = "property sweep is too slow under miri")]
    fn bucket_queue_matches_reference_heap(
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..24, 0u32..16, 0u32..128),
            1..200,
        ),
    ) {
        let mut bucket = BucketQueue::with_f_hint(8);
        let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
        for (is_push, f, g, id) in ops {
            if is_push {
                bucket.push(f, g, id);
                heap.push(Reverse((f, g, id)));
            } else {
                prop_assert_eq!(bucket.pop(), heap.pop().map(|Reverse(e)| e));
            }
            prop_assert_eq!(bucket.len(), heap.len());
            prop_assert_eq!(bucket.is_empty(), heap.is_empty());
        }
        // Drain: the live multisets are equal, delivered in sorted order.
        while let Some(expected) = heap.pop() {
            prop_assert_eq!(bucket.pop(), Some(expected.0));
        }
        prop_assert_eq!(bucket.pop(), None);
        prop_assert!(bucket.is_empty());
    }
}
