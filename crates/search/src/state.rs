//! Canonical search states: sets of register assignments.
//!
//! A search state represents a partial program by its *effect*: the set of
//! register assignments obtained by running the partial program on every
//! input permutation (§3 of the paper). Two partial programs with the same
//! effect are interchangeable, so states are canonicalized (assignments
//! sorted and deduplicated, §3.6) and hashed for deduplication.
//!
//! The search stores a state as a canonical *span* of [`Assign`] elements:
//! sorted `u16` live indices ([`crate::LiveSpace`]) on every machine that
//! has a live space — hashed four to a word by [`live_key`] and
//! canonicalized by bitmap ([`IndexBits`]) — and sorted `MachineState`s,
//! stepped by [`MachineState::step`] and sorted by `sort_unstable`, on the
//! machines that have none. [`StateSet`] is the public, assignment-level
//! view of a state.

use sortsynth_isa::{Instr, Machine, MachineState};

use crate::distance::DistanceTable;
use crate::live::{LiveSpace, NONE};

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

/// The [`StateSet::key`] content hash over a canonical assignment slice:
/// one assignment per hashed word.
pub(crate) fn key_of(assigns: &[MachineState]) -> u128 {
    let mut h = KeyHasher::new();
    for a in assigns {
        h.absorb(a.bits());
    }
    h.finish(assigns.len())
}

/// The content hash of a canonical live-index span ([`crate::LiveSpace`]),
/// the key of every state a live-space search keeps: four indices per
/// hashed word, the last word padded with [`NONE`] (never an index).
/// Public so the fold-collision fuzz can probe it directly.
pub fn live_key(indices: &[u16]) -> u128 {
    let mut h = KeyHasher::new();
    let mut words = indices.chunks_exact(4);
    for w in &mut words {
        h.absorb(w[0] as u64 | (w[1] as u64) << 16 | (w[2] as u64) << 32 | (w[3] as u64) << 48);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = u64::MAX;
        for (i, &li) in rest.iter().enumerate() {
            word ^= ((NONE ^ li) as u64) << (16 * i);
        }
        h.absorb(word);
    }
    h.finish(indices.len())
}

/// Two independent FxHash-style accumulators with distinct odd
/// multipliers, combined into 128 bits.
struct KeyHasher {
    h1: u64,
    h2: u64,
}

impl KeyHasher {
    const K1: u64 = 0x517c_c1b7_2722_0a95;
    const K2: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        KeyHasher {
            h1: 0x243f_6a88_85a3_08d3,
            h2: 0x1319_8a2e_0370_7344,
        }
    }

    #[inline]
    fn absorb(&mut self, x: u64) {
        self.h1 = (self.h1.rotate_left(5) ^ x).wrapping_mul(Self::K1);
        self.h2 = (self.h2.rotate_left(7) ^ x).wrapping_mul(Self::K2);
    }

    /// Finalizes both halves. The multiply chains never diffuse the *last*
    /// word's high bits downward (a wrapping multiply only carries upward),
    /// so without this the two halves differ only in their top bits when
    /// states differ only in a trailing word's high bits — and the
    /// [`narrow_key`] xor-fold cancels exactly those, colliding distinct
    /// states. Caught by the fold collision fuzz.
    fn finish(self, len: usize) -> u128 {
        let h1 = mix(self.h1 ^ len as u64);
        let h2 = mix(self.h2);
        ((h1 as u128) << 64) | h2 as u128
    }
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
    s.sort_unstable();
    let mut w = 0;
    for r in 0..s.len() {
        if w == 0 || s[r] != s[w - 1] {
            s[w] = s[r];
            w += 1;
        }
    }
    w
}

/// Scratch for canonicalizing live-index spans by bitmap: one bit per
/// possible `u16` index, and one summary bit per bitmap word that holds a
/// set bit. Setting a span's bits and reading them back in order sorts and
/// dedups it in time linear in the span, plus a scan of 16 summary words —
/// no comparison, no data-dependent swap — and leaves both levels clear
/// again. Indexing by a `u16` (or its
/// word) needs no bounds check.
pub(crate) struct IndexBits {
    words: Box<[u64; 1 << 10]>,
    summary: [u64; 1 << 4],
}

impl Default for IndexBits {
    fn default() -> Self {
        IndexBits {
            words: vec![0; 1 << 10]
                .into_boxed_slice()
                .try_into()
                .expect("2^10 words"),
            summary: [0; 1 << 4],
        }
    }
}

impl IndexBits {
    /// Sorts `span` ascending and removes duplicates, in place; returns the
    /// deduplicated length (elements past it are stale).
    fn canonicalize(&mut self, span: &mut [u16]) -> usize {
        for &li in span.iter() {
            let w = li >> 6;
            self.words[w as usize] |= 1 << (li & 63);
            self.summary[(w >> 6) as usize] |= 1 << (w & 63);
        }
        let mut kept = 0;
        for (si, s) in self.summary.iter_mut().enumerate() {
            let mut set = std::mem::take(s);
            while set != 0 {
                let w = si << 6 | set.trailing_zeros() as usize;
                set &= set - 1;
                let mut bits = std::mem::take(&mut self.words[w]);
                while bits != 0 {
                    span[kept] = (w << 6) as u16 | bits.trailing_zeros() as u16;
                    kept += 1;
                    bits &= bits - 1;
                }
            }
        }
        kept
    }
}

/// Canonicalizes `v[start..]` in place (sorts ascending, removes adjacent
/// duplicates, truncates). `start == 0` canonicalizes the whole vector.
pub(crate) fn canonicalize_tail(v: &mut Vec<MachineState>, start: usize) {
    let kept = canonicalize_slice(&mut v[start..]);
    v.truncate(start + kept);
}

/// Reusable scratch for [`count_distinct`] and [`perm_count_slice`]. The
/// epoch-stamp half serves values that fit 16 bits (live projection
/// numbers, and packed projections through n = 3): a lazily-allocated
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
    /// One slot per 16-bit value, so indexing by a `u16` needs no bounds
    /// check.
    stamp: Option<Box<[u32; 1 << 16]>>,
    epoch: u32,
}

impl ProjScratch {
    /// Combined reserved capacity, for the scratch-reuse counter.
    pub fn capacity(&self) -> usize {
        self.proj.capacity() + self.stamp.as_ref().map_or(0, |s| s.len())
    }

    /// Starts a fresh count: bumps the epoch (clearing the stamp array on
    /// the ~never wrap) and returns the stamp slots with the new epoch.
    /// Values stamped `== epoch` have been seen since this call.
    #[inline]
    fn stamp_begin(&mut self) -> (&mut [u32; 1 << 16], u32) {
        let stamp = self.stamp.get_or_insert_with(|| {
            vec![0u32; 1 << 16]
                .into_boxed_slice()
                .try_into()
                .expect("2^16 slots")
        });
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            stamp.fill(0);
            self.epoch = 1;
        }
        (stamp, self.epoch)
    }
}

/// Counts the distinct `value(item)` over `items` using `scratch`.
///
/// `cap` bounds the useful answer: once the count *exceeds* `cap` the scan
/// stops and returns the running count (some value `> cap`). Callers that
/// only compare the count against a cut threshold pass that threshold and
/// skip the tail of every span the cut will discard anyway; `u32::MAX`
/// counts exactly. Any return `<= cap` is always the exact count.
#[inline]
pub(crate) fn count_distinct<T: Copy>(
    items: &[T],
    value: impl Fn(T) -> u16,
    scratch: &mut ProjScratch,
    cap: u32,
) -> u32 {
    let (stamp, epoch) = scratch.stamp_begin();
    let mut count = 0u32;
    // Chunked cap check: the fixed-size inner loop stays branch-lean (exit
    // tests per element would chain every iteration's branch on the
    // preceding stamp load), while the between-chunk test still abandons
    // spans the cut is going to discard.
    for chunk in items.chunks(8) {
        for &item in chunk {
            let s = &mut stamp[value(item) as usize];
            count += u32::from(*s != epoch);
            *s = epoch;
        }
        if count > cap {
            break;
        }
    }
    count
}

/// Counts distinct `mask`-projections of `assigns` using `scratch` (the
/// permutation count when `mask` covers the value registers), with the
/// [`count_distinct`] cap contract.
pub(crate) fn perm_count_slice(
    assigns: &[MachineState],
    mask: u64,
    scratch: &mut ProjScratch,
    cap: u32,
) -> u32 {
    if mask <= u16::MAX as u64 {
        count_distinct(assigns, |a| (a.bits() & mask) as u16, scratch, cap)
    } else {
        let proj = &mut scratch.proj;
        proj.clear();
        proj.extend(assigns.iter().map(|a| a.bits() & mask));
        proj.sort_unstable();
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

/// Assignments per stepping pass: [`Assign::step_span`] reports the passes
/// it takes over a span in chunks of this many, on either span type, for
/// the `swar_batches` counter.
pub(crate) const STEP_PASS_LEN: u64 = 8;

/// One element of a canonical span: a live index ([`LiveSpace`]) or a
/// register assignment itself. The search core — expansion, the arena, the
/// merge, both drivers and the spill tier — is written once over this
/// trait. [`crate::synthesize`] runs `u16` spans whenever the machine has a
/// live space, and `MachineState` spans (stepped by [`MachineState::step`])
/// only for the machines that have none; the choice follows from the
/// machine.
pub(crate) trait Assign: Copy + Ord + Send + Sync + 'static {
    /// What steps and inspects elements: the live space, or the machine.
    type Space: Send + Sync;
    /// A span's live indices, which read the distance table's successor
    /// rows directly; `None` for assignment spans.
    fn indices(span: &[Self]) -> Option<&[u16]>;
    /// The live space behind `u16` spans; `None` for assignment spans.
    fn live(space: &Self::Space) -> Option<&LiveSpace>;
    /// The initial state (one assignment per input permutation), canonical.
    fn initial(space: &Self::Space, machine: &Machine) -> Vec<Self>;
    /// The register assignment `a` stands for.
    fn state(space: &Self::Space, a: Self) -> MachineState;
    /// Appends `span` stepped through action `ai` (`instr`) to `out`, in
    /// span order, and returns the stepping passes of up to
    /// [`STEP_PASS_LEN`] assignments taken.
    fn step_span(
        space: &Self::Space,
        ai: usize,
        instr: Instr,
        span: &[Self],
        out: &mut Vec<Self>,
    ) -> u64;
    /// Whether action `ai` (`instr`) leaves `a` unchanged.
    fn fixed_by(space: &Self::Space, ai: usize, instr: Instr, a: Self) -> bool;
    /// Whether `a` has lost a value of `1..=n` (§3.3).
    fn erased(space: &Self::Space, a: Self) -> bool;
    /// Whether `a` is sorted (§3.4).
    fn sorted(space: &Self::Space, a: Self) -> bool;
    /// The §3.5 permutation count of `span`, with the [`count_distinct`]
    /// cap contract.
    fn perm_count(space: &Self::Space, span: &[Self], scratch: &mut ProjScratch, cap: u32) -> u32;
    /// `a`'s position in the distance table's live numbering.
    fn table_index(table: &DistanceTable, a: Self) -> Option<usize>;
    /// Sorts `span` ascending and removes duplicates, in place; returns the
    /// deduplicated length. `u16` spans go through `bits`.
    fn canonicalize(span: &mut [Self], bits: &mut IndexBits) -> usize;
    /// The 128-bit content key of a canonical span.
    fn key(span: &[Self]) -> u128;
    /// The spill codec's word for `a`.
    fn code(self) -> u64;
    /// The inverse of [`Assign::code`]; `None` for a word no element of
    /// `space` codes to.
    fn from_code(space: &Self::Space, word: u64) -> Option<Self>;
}

impl Assign for u16 {
    type Space = LiveSpace;

    fn indices(span: &[u16]) -> Option<&[u16]> {
        Some(span)
    }

    fn live(space: &LiveSpace) -> Option<&LiveSpace> {
        Some(space)
    }

    fn initial(space: &LiveSpace, machine: &Machine) -> Vec<u16> {
        // Ascending assignments have ascending indices.
        let assigns = StateSet::initial(machine);
        let live = assigns.assignments().iter().map(|&a| space.index_of(a));
        live.collect::<Option<_>>()
            .expect("input permutations are live")
    }

    #[inline]
    fn state(space: &LiveSpace, li: u16) -> MachineState {
        space.state(li)
    }

    #[inline]
    fn step_span(space: &LiveSpace, ai: usize, _: Instr, span: &[u16], out: &mut Vec<u16>) -> u64 {
        space.gather(ai, span, out)
    }

    #[inline]
    fn fixed_by(space: &LiveSpace, ai: usize, _: Instr, li: u16) -> bool {
        space.succ_row(ai)[li as usize] == li
    }

    #[inline]
    fn erased(_: &LiveSpace, li: u16) -> bool {
        li == NONE
    }

    #[inline]
    fn sorted(space: &LiveSpace, li: u16) -> bool {
        space.is_sorted(li)
    }

    #[inline]
    fn perm_count(space: &LiveSpace, span: &[u16], scratch: &mut ProjScratch, cap: u32) -> u32 {
        count_distinct(span, |li| space.proj(li), scratch, cap)
    }

    #[inline]
    fn table_index(_: &DistanceTable, li: u16) -> Option<usize> {
        Some(li as usize)
    }

    #[inline]
    fn canonicalize(span: &mut [u16], bits: &mut IndexBits) -> usize {
        bits.canonicalize(span)
    }

    #[inline]
    fn key(span: &[u16]) -> u128 {
        live_key(span)
    }

    fn code(self) -> u64 {
        self as u64
    }

    /// Only live indices of `space` decode: an index past its end would
    /// read out of bounds at the first expansion.
    fn from_code(space: &LiveSpace, word: u64) -> Option<u16> {
        u16::try_from(word)
            .ok()
            .filter(|&li| (li as usize) < space.len())
    }
}

impl Assign for MachineState {
    type Space = Machine;

    fn indices(_: &[MachineState]) -> Option<&[u16]> {
        None
    }

    fn live(_: &Machine) -> Option<&LiveSpace> {
        None
    }

    fn initial(_: &Machine, machine: &Machine) -> Vec<MachineState> {
        StateSet::initial(machine).assignments().to_vec()
    }

    #[inline]
    fn state(_: &Machine, a: MachineState) -> MachineState {
        a
    }

    #[inline]
    fn step_span(
        _: &Machine,
        _: usize,
        instr: Instr,
        span: &[MachineState],
        out: &mut Vec<MachineState>,
    ) -> u64 {
        out.extend(span.iter().map(|a| a.step(instr)));
        (span.len() as u64).div_ceil(STEP_PASS_LEN)
    }

    #[inline]
    fn fixed_by(_: &Machine, _: usize, instr: Instr, a: MachineState) -> bool {
        a.step(instr) == a
    }

    #[inline]
    fn erased(machine: &Machine, a: MachineState) -> bool {
        assignment_erased(machine, a)
    }

    #[inline]
    fn sorted(machine: &Machine, a: MachineState) -> bool {
        machine.is_sorted(a)
    }

    fn perm_count(
        machine: &Machine,
        span: &[MachineState],
        scratch: &mut ProjScratch,
        cap: u32,
    ) -> u32 {
        perm_count_slice(span, value_reg_mask(machine), scratch, cap)
    }

    #[inline]
    fn table_index(table: &DistanceTable, a: MachineState) -> Option<usize> {
        table.index(a)
    }

    #[inline]
    fn canonicalize(span: &mut [MachineState], _: &mut IndexBits) -> usize {
        canonicalize_slice(span)
    }

    #[inline]
    fn key(span: &[MachineState]) -> u128 {
        key_of(span)
    }

    /// The rotation moves the flag nibble (bits 60–63) to the bottom, so an
    /// n = 3 assignment codes in 3 varint bytes, not 8.
    fn code(self) -> u64 {
        self.bits().rotate_left(4)
    }

    fn from_code(_: &Machine, word: u64) -> Option<MachineState> {
        Some(MachineState::from_bits(word.rotate_right(4)))
    }
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
