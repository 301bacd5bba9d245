//! Canonical search states: sets of register assignments.
//!
//! A search state represents a partial program by its *effect*: the set of
//! register assignments obtained by running the partial program on every
//! input permutation (§3 of the paper). Two partial programs with the same
//! effect are interchangeable, so states are canonicalized (assignments
//! sorted lexicographically and deduplicated, §3.6) and hashed for
//! deduplication.

use sortsynth_isa::{Instr, Machine, MachineState};

/// A canonicalized set of register assignments — one search state.
///
/// Invariant: `assigns` is sorted ascending by packed bits and contains no
/// duplicates. [`StateSet::initial`] and [`StateSet::apply`] maintain this.
///
/// # Examples
///
/// ```
/// use sortsynth_isa::{IsaMode, Machine};
/// use sortsynth_search::StateSet;
///
/// let machine = Machine::new(3, 1, IsaMode::Cmov);
/// let init = StateSet::initial(&machine);
/// assert_eq!(init.assign_count(), 6);
/// assert_eq!(init.perm_count(&machine), 6);
/// assert!(!init.is_goal(&machine));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateSet {
    assigns: Box<[MachineState]>,
}

impl StateSet {
    /// The initial state: one register assignment per input permutation of
    /// `1..=n` (§3, "the initial state consists of register assignments for
    /// each possible permutation").
    pub fn initial(machine: &Machine) -> Self {
        Self::from_assignments(machine.initial_states())
    }

    /// Builds a canonical state from arbitrary assignments (sorts + dedups).
    pub fn from_assignments(mut assigns: Vec<MachineState>) -> Self {
        canonicalize_tail(&mut assigns, 0);
        StateSet {
            assigns: assigns.into_boxed_slice(),
        }
    }

    /// The canonical assignments, sorted ascending.
    pub fn assignments(&self) -> &[MachineState] {
        &self.assigns
    }

    /// Number of distinct register assignments (§3.1's second heuristic:
    /// includes scratch registers and flags).
    pub fn assign_count(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Number of distinct *permutations* remaining: distinct projections of
    /// the assignments onto the value registers `r1..rn` (§3.1's first and
    /// §3.5's cut heuristic). Scratch registers and flags are ignored.
    pub fn perm_count(&self, machine: &Machine) -> u32 {
        let mut scratch = ProjScratch::default();
        perm_count_slice(
            &self.assigns,
            value_reg_mask(machine),
            &mut scratch,
            u32::MAX,
        )
    }

    /// Executes `instr` on every assignment and re-canonicalizes.
    pub fn apply(&self, instr: Instr) -> StateSet {
        let assigns: Vec<MachineState> = self.assigns.iter().map(|a| a.step(instr)).collect();
        Self::from_assignments(assigns)
    }

    /// Whether every assignment is sorted — the final-state test (§3.4).
    pub fn is_goal(&self, machine: &Machine) -> bool {
        self.assigns.iter().all(|&a| machine.is_sorted(a))
    }

    /// Whether some assignment has irrecoverably erased one of the values
    /// `1..=n` (§3.3): such a state can never be completed to a correct
    /// program.
    pub fn has_erased_value(&self, machine: &Machine) -> bool {
        self.assigns.iter().any(|a| assignment_erased(machine, *a))
    }

    /// A 128-bit content hash for deduplication (§3.6). Collision probability
    /// over even billions of states is negligible.
    pub fn key(&self) -> u128 {
        key_of(&self.assigns)
    }
}

/// The [`StateSet::key`] content hash over a canonical assignment slice.
/// Shared with the expansion hot loop, which hashes successors in the
/// scratch buffer before they become `StateSet`s (if they ever do).
pub(crate) fn key_of(assigns: &[MachineState]) -> u128 {
    // Two independent FxHash-style accumulators with distinct odd
    // multipliers, combined into 128 bits.
    const K1: u64 = 0x517c_c1b7_2722_0a95;
    const K2: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h1: u64 = 0x243f_6a88_85a3_08d3;
    let mut h2: u64 = 0x1319_8a2e_0370_7344;
    for a in assigns {
        let x = a.bits();
        h1 = (h1.rotate_left(5) ^ x).wrapping_mul(K1);
        h2 = (h2.rotate_left(7) ^ x).wrapping_mul(K2);
    }
    // Finalize both halves. The multiply chains never diffuse the *last*
    // element's high bits downward (a wrapping multiply only carries
    // upward), so without this the two halves differ only in their top
    // bits when states differ only in trailing flag bits — and the
    // [`narrow_key`] xor-fold cancels exactly those, colliding distinct
    // states. Caught by the fold collision fuzz.
    h1 = mix(h1 ^ assigns.len() as u64);
    h2 = mix(h2);
    ((h1 as u128) << 64) | h2 as u128
}

/// Splitmix64 finalizer: full avalanche, so every input bit reaches every
/// output bit before the halves are folded.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds a 128-bit content key to the 64-bit key the closed sets store and
/// route by. Soundness rests on the fold being collision-free between
/// distinct canonical states, which the `key_width` fuzz suite hunts for
/// over millions of random states per ISA. Public so that suite and the
/// benches can probe the fold directly.
#[inline]
pub fn narrow_key(key: u128) -> u64 {
    (key >> 64) as u64 ^ key as u64
}

/// Canonicalizes a span in place (sorts ascending, dedups adjacent
/// duplicates) and returns the deduplicated length; the elements past the
/// returned length are stale. The expansion loop uses this to canonicalize
/// each successor's span inside one shared scratch buffer — deferred to a
/// second pass after the whole action sweep, so the profiler can attribute
/// step/filter time and canonicalize/hash time with two timestamps per
/// expansion instead of two per candidate.
pub(crate) fn canonicalize_slice(s: &mut [MachineState]) -> usize {
    crate::netsort::sort_by_size(s, MachineState::from_bits(u64::MAX));
    let mut w = 0;
    for r in 0..s.len() {
        if w == 0 || s[r] != s[w - 1] {
            s[w] = s[r];
            w += 1;
        }
    }
    w
}

/// Canonicalizes `v[start..]` in place (sorts ascending, removes adjacent
/// duplicates, truncates). `start == 0` canonicalizes the whole vector.
pub(crate) fn canonicalize_tail(v: &mut Vec<MachineState>, start: usize) {
    let kept = canonicalize_slice(&mut v[start..]);
    v.truncate(start + kept);
}

/// Reusable scratch for [`perm_count_slice`]. The epoch-stamp half serves
/// values that fit 16 bits (machines through n = 4): a lazily-allocated
/// stamp per value, where "seen this call" is `stamp[v] == epoch`.
/// Bumping the epoch invalidates every stamp at once, so there is no
/// per-call reset pass — and unlike a shared-word bitmap, distinct values
/// never touch the same slot, so the scan carries no store-to-load
/// dependency between elements (only true duplicates revisit a slot).
/// Only the slots actually probed (≤ span length per call, clustered in
/// the low projection range) occupy cache. Wider masks fall back to the
/// sort-and-dedup path over `proj`.
#[derive(Default)]
pub(crate) struct ProjScratch {
    proj: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl ProjScratch {
    /// Combined reserved capacity, for the scratch-reuse counter.
    pub fn capacity(&self) -> usize {
        self.proj.capacity() + self.stamp.len()
    }

    /// Starts a fresh count: bumps the epoch (clearing the stamp array on
    /// the ~never wrap) and returns the stamp slots with the new epoch.
    /// Values stamped `== epoch` have been seen since this call.
    #[inline]
    pub(crate) fn stamp_begin(&mut self) -> (&mut [u32], u32) {
        if self.stamp.is_empty() {
            self.stamp.resize(1 << 16, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        (&mut self.stamp, self.epoch)
    }
}

/// Counts distinct `mask`-projections of `assigns` using `scratch` (the
/// permutation count when `mask` covers the value registers).
///
/// `cap` bounds the useful answer: once the count *exceeds* `cap` the scan
/// stops and returns the running count (some value `> cap`). Callers that
/// only compare the count against a cut threshold pass that threshold and
/// skip the tail of every span the cut will discard anyway; `u32::MAX`
/// counts exactly. Any return `<= cap` is always the exact count.
pub(crate) fn perm_count_slice(
    assigns: &[MachineState],
    mask: u64,
    scratch: &mut ProjScratch,
    cap: u32,
) -> u32 {
    if mask <= u16::MAX as u64 {
        let (stamp, epoch) = scratch.stamp_begin();
        let mut count = 0u32;
        // Chunked cap check: the fixed-size inner loop stays branch-lean
        // (exit tests per element would chain every iteration's branch on
        // the preceding stamp load), while the between-chunk test still
        // abandons spans the cut is going to discard.
        let mut chunks = assigns.chunks(8);
        for c in &mut chunks {
            for a in c {
                let v = (a.bits() & mask) as usize;
                let s = &mut stamp[v];
                count += u32::from(*s != epoch);
                *s = epoch;
            }
            if count > cap {
                break;
            }
        }
        count
    } else {
        let proj = &mut scratch.proj;
        proj.clear();
        proj.extend(assigns.iter().map(|a| a.bits() & mask));
        crate::netsort::sort_by_size(proj, u64::MAX);
        proj.dedup();
        proj.len() as u32
    }
}

/// Bitmask selecting the value registers `r1..rn` of a packed state (drops
/// scratch registers and flags).
pub(crate) fn value_reg_mask(machine: &Machine) -> u64 {
    let bits = 4 * machine.n() as u32;
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Whether `assign` is missing one of the values `1..=n` across *all*
/// registers (value erased ⇒ unsortable).
pub(crate) fn assignment_erased(machine: &Machine, assign: MachineState) -> bool {
    let mut present = 0u16;
    for r in machine.regs() {
        present |= 1 << assign.reg(r);
    }
    let needed: u16 = ((1u16 << machine.n()) - 1) << 1; // bits 1..=n
    present & needed != needed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::{IsaMode, Op, Reg};

    fn machine3() -> Machine {
        Machine::new(3, 1, IsaMode::Cmov)
    }

    fn instr(op: Op, dst: u8, src: u8) -> Instr {
        Instr::new(op, Reg::new(dst), Reg::new(src))
    }

    #[test]
    fn initial_counts() {
        let m = machine3();
        let s = StateSet::initial(&m);
        assert_eq!(s.assign_count(), 6);
        assert_eq!(s.perm_count(&m), 6);
        assert!(!s.is_goal(&m));
        assert!(!s.has_erased_value(&m));
    }

    #[test]
    fn canonicalization_sorts_and_dedups() {
        let m = machine3();
        let a = m.initial_state(&[1, 2, 3]);
        let b = m.initial_state(&[2, 1, 3]);
        let s1 = StateSet::from_assignments(vec![b, a, a]);
        let s2 = StateSet::from_assignments(vec![a, b]);
        assert_eq!(s1, s2);
        assert_eq!(s1.key(), s2.key());
        assert_eq!(s1.assign_count(), 2);
    }

    #[test]
    fn apply_reduces_permutations() {
        // The paper's §3.5 example: a compare-and-swap of r1/r2 halves the
        // distinct permutations of the 3-element initial state projections.
        let m = machine3();
        let s = StateSet::initial(&m);
        let cas = [
            instr(Op::Mov, 3, 1),
            instr(Op::Cmp, 0, 1),
            instr(Op::Cmovg, 1, 0),
            instr(Op::Cmovg, 0, 3),
        ];
        let after = cas.iter().fold(s, |st, &i| st.apply(i));
        assert_eq!(after.perm_count(&m), 3); // r1 <= r2 holds in all
        assert!(!after.has_erased_value(&m));
    }

    #[test]
    fn goal_detection() {
        let m = machine3();
        let sorted = m.initial_state(&[1, 2, 3]);
        let mut other = sorted;
        other.set_reg(Reg::new(3), 2);
        other.set_flags(true, false);
        let s = StateSet::from_assignments(vec![sorted, other]);
        assert!(s.is_goal(&m));
    }

    #[test]
    fn erasure_detection() {
        let m = machine3();
        let s = StateSet::initial(&m);
        // mov r1 r2 erases r1's value in every assignment (scratch is 0).
        let after = s.apply(instr(Op::Mov, 0, 1));
        assert!(after.has_erased_value(&m));
        // mov s1 r2 erases nothing (scratch held no needed value).
        let after = s.apply(instr(Op::Mov, 3, 1));
        assert!(!after.has_erased_value(&m));
    }

    #[test]
    fn perm_count_ignores_scratch_and_flags() {
        let m = machine3();
        let a = m.initial_state(&[1, 2, 3]);
        let mut b = a;
        b.set_reg(Reg::new(3), 3);
        b.set_flags(false, true);
        let s = StateSet::from_assignments(vec![a, b]);
        assert_eq!(s.assign_count(), 2);
        assert_eq!(s.perm_count(&m), 1);
    }

    #[test]
    fn keys_differ_for_different_states() {
        let m = machine3();
        let s = StateSet::initial(&m);
        let t = s.apply(instr(Op::Cmp, 0, 1));
        assert_ne!(s.key(), t.key());
    }
}
