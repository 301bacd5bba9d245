//! Soundness of the folded u64 closed-set key.
//!
//! The closed sets store the xor-fold of the 128-bit content hash
//! ([`narrow_key`]), 16 bytes per map entry. A fold collision between two
//! *different* canonical states would silently merge them and could produce
//! a wrong "optimal" length, so the fold is fuzzed here: millions of random
//! canonical states must map to distinct folded keys (distinct 128-bit keys
//! implied). The states are what the search keys: sorted spans of live
//! indices ([`live_key`]) of each ISA's n = 4 live space. The quick rows
//! run in CI; the `#[ignore]` rows push past 10M states per ISA under
//! `--release -- --ignored`. The proptests also cover the assignment-span
//! key ([`StateSet::key`]) that machines without a live space use. Whole
//! searches are pinned by `golden_trace.rs`, whose constants were recorded
//! while a full 128-bit key ran alongside with identical counters.

use std::collections::HashMap;

use proptest::prelude::*;
use sortsynth_isa::{IsaMode, Machine, MachineState};
use sortsynth_search::{live_key, narrow_key, LiveSpace, StateSet};

/// Splitmix64: a tiny, deterministic PRNG so the fuzz corpus is reproducible
/// without threading `rand` state through helpers.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One random canonical state of a `live`-index space: a random-size set
/// of random live indices (up to n! = 24 of them, as at n = 4), sorted and
/// deduplicated as the search keeps it.
fn random_span(live: usize, rng: &mut u64) -> Vec<u16> {
    let count = 1 + (splitmix(rng) as usize % 24);
    let mut span: Vec<u16> = (0..count)
        .map(|_| (splitmix(rng) % live as u64) as u16)
        .collect();
    span.sort_unstable();
    span.dedup();
    span
}

/// Feeds `states` random canonical states of the n = 4 `mode` live space
/// through the fold, asserting that equal narrowed keys only ever come
/// from equal 128-bit keys *and* equal spans. Checking each new state
/// against everything already seen makes the pair count quadratic in
/// distinct states — well past the 10M pair target at the `#[ignore]`
/// scale.
fn fuzz_fold(mode: IsaMode, states: u64, seed: u64) {
    let live = LiveSpace::build(&Machine::new(4, 1, mode))
        .expect("n = 4 has a live space")
        .len();
    let mut rng = seed;
    let mut seen: HashMap<u64, (u128, Vec<u16>)> = HashMap::with_capacity(states as usize);
    for i in 0..states {
        let span = random_span(live, &mut rng);
        let key = live_key(&span);
        match seen.get(&narrow_key(key)) {
            None => {
                seen.insert(narrow_key(key), (key, span));
            }
            Some((prev_key, prev_span)) => {
                assert_eq!(
                    (*prev_key, prev_span),
                    (key, &span),
                    "{mode:?}: 64-bit fold collision after {i} states \
                     (fold {:#018x})",
                    narrow_key(key)
                );
            }
        }
    }
}

#[test]
fn narrowed_keys_are_collision_free_quick() {
    fuzz_fold(IsaMode::Cmov, 200_000, 0xC0FFEE);
    fuzz_fold(IsaMode::MinMax, 200_000, 0xB00B1E5);
}

#[test]
#[ignore = "10M+ states per ISA; CI memory-smoke runs it with --release"]
fn narrowed_keys_are_collision_free_deep() {
    fuzz_fold(IsaMode::Cmov, 12_000_000, 0xDEAD_BEEF);
    fuzz_fold(IsaMode::MinMax, 12_000_000, 0xFACE_FEED);
}

proptest! {
    /// Distinct live-index spans get distinct keys and folds, spans that
    /// differ only in their last index (or in length) included.
    #[test]
    fn distinct_live_spans_get_distinct_folds(
        xs in prop::collection::vec(0u16..1080, 1..24),
        ys in prop::collection::vec(0u16..1080, 1..24),
    ) {
        let canonical = |mut v: Vec<u16>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let (a, b) = (canonical(xs), canonical(ys));
        if a != b {
            prop_assert_ne!(live_key(&a), live_key(&b));
            prop_assert_ne!(narrow_key(live_key(&a)), narrow_key(live_key(&b)));
            let mut longer = a.clone();
            longer.push(1080);
            prop_assert_ne!(narrow_key(live_key(&a)), narrow_key(live_key(&longer)));
        } else {
            prop_assert_eq!(live_key(&a), live_key(&b));
        }
    }

    /// Key equality is exactly assignment-set equality, wide and folded: the
    /// canonical key (and its fold) is a pure function of the canonical
    /// assignment list, insensitive to input order and duplicates.
    #[test]
    fn key_is_a_pure_function_of_the_canonical_set(
        bits in prop::collection::vec(0u64..(1 << 16), 1..12),
        shuffle_seed in any::<u64>(),
    ) {
        let assigns: Vec<MachineState> =
            bits.iter().map(|&b| MachineState::from_bits(b)).collect();
        let a = StateSet::from_assignments(assigns.clone());
        // Same multiset, rotated order, plus a duplicated element.
        let mut rotated = assigns.clone();
        let pivot = (shuffle_seed as usize) % rotated.len();
        rotated.rotate_left(pivot);
        rotated.push(rotated[0]);
        let b = StateSet::from_assignments(rotated);
        prop_assert_eq!(a.assignments(), b.assignments());
        prop_assert_eq!(a.key(), b.key());
        prop_assert_eq!(narrow_key(a.key()), narrow_key(b.key()));
    }

    /// Distinct canonical sets get distinct keys and distinct folds across
    /// the proptest corpus (a probabilistic injectivity check, shrunk to a
    /// minimal witness on failure).
    #[test]
    fn distinct_sets_get_distinct_folds(
        xs in prop::collection::vec(0u64..(1 << 16), 1..12),
        ys in prop::collection::vec(0u64..(1 << 16), 1..12),
    ) {
        let a = StateSet::from_assignments(
            xs.iter().map(|&b| MachineState::from_bits(b)).collect());
        let b = StateSet::from_assignments(
            ys.iter().map(|&b| MachineState::from_bits(b)).collect());
        if a.assignments() != b.assignments() {
            prop_assert_ne!(a.key(), b.key());
            prop_assert_ne!(narrow_key(a.key()), narrow_key(b.key()));
        } else {
            prop_assert_eq!(a.key(), b.key());
        }
    }
}
