//! Per-assignment optimal-distance precomputation.
//!
//! Before the main search starts, the paper (§3.1, third heuristic; §3.2;
//! §3.3) precomputes, for every *single* register assignment, the length of
//! the shortest instruction sequence that sorts it. The table covers
//! `(n+1)^(n+m)` register contents per flag plane: three planes (flags
//! clear, `lt`, `gt`) when the ISA has `cmp`, one for min/max, which never
//! writes a flag. [`DistanceTable::build`] does work only where an
//! assignment can still be sorted:
//!
//! 1. Every op copies a value and none makes a new one, so an assignment
//!    missing a value of `1..=n` is [`UNSORTABLE`] outright, and so is every
//!    successor. At n = 5, m = 1 only 2 520 of 46 656 contents per plane
//!    survive this filter.
//! 2. Each surviving (assignment, action) pair is stepped exactly once, into
//!    a transient successor index that is dropped before `build` returns.
//! 3. Backward induction from the sorted assignments runs over that index:
//!    round `d` gives distance `d + 1` to every undecided assignment with a
//!    distance-`d` successor.
//! 4. One pass over all encodings then fills the first moves and the
//!    successor-distance rows from that index, and each row of successor
//!    projections from the one digit an action can change.
//!
//! The table serves three purposes:
//!
//! * the admissible `MaxRemaining` search heuristic — the maximum per-
//!   assignment distance in a state lower-bounds the remaining program
//!   length;
//! * the §3.3 viability check — a state whose `g + max distance` exceeds the
//!   length budget can be pruned without losing optimality;
//! * the §3.2 action restriction — only instructions that start an optimal
//!   completion for *some* assignment of the state are explored.

use sortsynth_isa::{Instr, Machine, MachineState, Reg};

use crate::state::{assignment_erased, ProjScratch, StateSet};

/// Distance value meaning "cannot be sorted" (a value was erased).
pub const UNSORTABLE: u16 = u16::MAX;

/// A bitset over action indices (supports up to 256 actions, which covers
/// every machine this workspace constructs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActionSet([u64; 4]);

impl ActionSet {
    /// The empty set.
    pub fn empty() -> Self {
        ActionSet::default()
    }

    /// Inserts action index `i`.
    pub fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Whether action index `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &ActionSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// Number of actions in the set.
    pub fn len(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// Precomputed per-assignment shortest sorting distances (and optionally the
/// optimal first moves) for a [`Machine`].
///
/// # Examples
///
/// ```
/// use sortsynth_isa::{IsaMode, Machine};
/// use sortsynth_search::DistanceTable;
///
/// let machine = Machine::new(2, 1, IsaMode::Cmov);
/// let table = DistanceTable::build(&machine, false);
/// // The sorted assignment is at distance 0; the swapped one is fixed by a
/// // 3-mov rotation through the scratch register (no comparison needed —
/// // the concrete values are known).
/// assert_eq!(table.dist(machine.initial_state(&[1, 2])), 0);
/// assert_eq!(table.dist(machine.initial_state(&[2, 1])), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DistanceTable {
    layout: Layout,
    actions: Vec<Instr>,
    dist: Vec<u16>,
    first_moves: Option<Vec<ActionSet>>,
    /// Largest finite distance in the table.
    max_finite: u16,
    /// Successor distances, *encoding-major*: `succ_dist[enc * actions +
    /// ai]` is `dist(step(decode(enc), actions[ai]))`. One contiguous row
    /// holds a parent assignment's distance under *every* action, so
    /// [`DistanceTable::succ_max_dist_sweep`] streams the whole action
    /// sweep as packed integer max instead of gathering one scattered
    /// entry per (action, assignment) pair (n = 4, m = 1 cmp/cmov: 66
    /// actions × 9 375 encodings ≈ 1.2 MiB). Kept separate from
    /// [`DistanceTable::succ_proj`] — rather than packed into one u32 —
    /// so each of the two expansion passes streams only the 1.2 MiB half
    /// it reads, keeping both L2-resident. `None` when the product
    /// exceeds [`SUCC_DIST_MAX_ENTRIES`] or the projection outgrows 16
    /// bits.
    succ_dist: Option<Vec<u16>>,
    /// The radix-packed value-register projection of each successor (a
    /// bijection of the §3.5 permutation projection), same shape as
    /// [`DistanceTable::succ_dist`]. Lets the expansion loop count a
    /// candidate's distinct successor projections — the permutation-count
    /// cut — *before* the candidate is ever stepped.
    succ_proj: Option<Vec<u16>>,
}

/// Cap on `actions × encodings` for the successor-distance table (two u16
/// arrays, so 64 MiB total). Covers every machine through n = 5, m = 1;
/// beyond that the expansion loop falls back to per-successor lookups.
const SUCC_DIST_MAX_ENTRIES: usize = 1 << 24;

impl DistanceTable {
    /// Whether `machine` is within the table's representable limits
    /// ([`ActionSet`] holds at most 256 action indices). Machines with many
    /// scratch registers exceed this; callers should fall back to searching
    /// without the table rather than calling [`DistanceTable::build`].
    pub fn supports(machine: &Machine) -> bool {
        machine.actions().len() <= 256
    }

    /// Builds the table by backward induction from the sorted assignments.
    ///
    /// With `with_first_moves`, additionally records for every assignment the
    /// set of actions that start *some* shortest sorting sequence (the §3.2
    /// "optimal instructions" guide). This roughly doubles memory.
    pub fn build(machine: &Machine, with_first_moves: bool) -> Self {
        let actions = machine.actions();
        assert!(
            actions.len() <= 256,
            "ActionSet supports at most 256 actions"
        );
        let na = actions.len();
        let layout = Layout::of(machine);
        let total = layout.encodings();

        // Erasure ignores the flags, so the live (non-erased) encodings are
        // plane 0's, repeated in every plane — in ascending encoding order.
        let plane: Vec<u32> = (0..layout.flag_stride)
            .filter(|&e| !assignment_erased(machine, layout.decode(e)))
            .map(|e| e as u32)
            .collect();
        let live: Vec<u32> = (0..layout.planes)
            .flat_map(|p| {
                plane
                    .iter()
                    .map(move |&e| e + (p * layout.flag_stride) as u32)
            })
            .collect();

        // The successor index: `succ[li * na + ai]` is the encoding reached
        // from `live[li]` under `actions[ai]`.
        let mut succ = Vec::with_capacity(live.len() * na);
        for &e in &live {
            let st = layout.decode(e as usize);
            succ.extend(actions.iter().map(|&a| layout.encode(st.step(a)) as u32));
        }

        // Backward induction from the sorted assignments: an undecided
        // assignment gets distance d+1 in round d if some action leads to a
        // distance-d assignment. Erased successors stay UNSORTABLE, so they
        // never match.
        let mut dist = vec![UNSORTABLE; total];
        let mut undecided: Vec<u32> = Vec::with_capacity(live.len());
        for (li, &e) in live.iter().enumerate() {
            if machine.is_sorted(layout.decode(e as usize)) {
                dist[e as usize] = 0;
            } else {
                undecided.push(li as u32);
            }
        }
        let mut d: u16 = 0;
        while !undecided.is_empty() {
            let before = undecided.len();
            undecided.retain(|&li| {
                let li = li as usize;
                let reaches_d = succ[li * na..(li + 1) * na]
                    .iter()
                    .any(|&s| dist[s as usize] == d);
                if reaches_d {
                    dist[live[li] as usize] = d + 1;
                }
                !reaches_d
            });
            if undecided.len() == before {
                break; // the rest cannot reach a sorted assignment
            }
            d += 1;
        }
        let max_finite = d;

        // The packed projection must fit 16 bits; machines big enough to
        // overflow it also blow the entry cap, but gate explicitly rather
        // than rely on that coincidence. The projection of an encoding is
        // its low `n` digits (the value registers).
        let proj_modulus = layout.radix.pow(machine.n() as u32);
        let with_succ = proj_modulus <= 1 << 16 && na * total <= SUCC_DIST_MAX_ENTRIES;
        let weight: Vec<isize> = actions
            .iter()
            .map(|a| match a.dst.index() {
                r if r < machine.n() => layout.radix.pow(r as u32) as isize,
                _ => 0,
            })
            .collect();
        let mut first_moves = with_first_moves.then(|| vec![ActionSet::empty(); total]);
        let (mut td, mut tp) = if with_succ {
            (vec![UNSORTABLE; na * total], vec![0u16; na * total])
        } else {
            (Vec::new(), Vec::new())
        };
        // One pass over every encoding. Projections are stepped for every
        // row; distances and first moves come from the successor index for
        // live rows. An erased row's successors are erased too, so its
        // distances stay UNSORTABLE and its first moves empty.
        let mut next_live = live.iter().enumerate().peekable();
        for e in 0..total {
            let row = e * na..(e + 1) * na;
            if with_succ {
                // Only the destination digit changes, and it counts toward
                // the projection only if it is a value register.
                let st = layout.decode(e);
                let base = (e % proj_modulus) as isize;
                for ((p, &a), &w) in tp[row.clone()].iter_mut().zip(&actions).zip(&weight) {
                    let delta = st.step(a).reg(a.dst) as isize - st.reg(a.dst) as isize;
                    *p = (base + delta * w) as u16;
                }
            }
            let Some((li, _)) = next_live.next_if(|&(_, &l)| l as usize == e) else {
                continue;
            };
            let succs = &succ[li * na..(li + 1) * na];
            if with_succ {
                for (d, &s) in td[row].iter_mut().zip(succs) {
                    *d = dist[s as usize];
                }
            }
            let here = dist[e];
            if let Some(moves) = first_moves.as_mut() {
                if here != 0 && here != UNSORTABLE {
                    for (ai, &s) in succs.iter().enumerate() {
                        if dist[s as usize] == here - 1 {
                            moves[e].insert(ai);
                        }
                    }
                }
            }
        }

        DistanceTable {
            layout,
            actions,
            dist,
            first_moves,
            max_finite,
            succ_dist: with_succ.then_some(td),
            succ_proj: with_succ.then_some(tp),
        }
    }

    /// The action list the table indexes into (identical to
    /// [`Machine::actions`]).
    pub fn actions(&self) -> &[Instr] {
        &self.actions
    }

    /// Shortest number of instructions sorting `assign`, or [`UNSORTABLE`].
    pub fn dist(&self, assign: MachineState) -> u16 {
        self.dist[self.layout.encode(assign)]
    }

    /// Number of per-assignment encodings the table covers: `(n+1)^(n+m)`
    /// register contents times the flag planes the ISA can reach (three
    /// with `cmp`, one for min/max).
    pub fn encodings(&self) -> usize {
        self.dist.len()
    }

    /// The largest finite distance of any assignment — a lower bound on no
    /// program, but a useful diagnostic.
    pub fn max_finite_dist(&self) -> u16 {
        self.max_finite
    }

    /// Admissible heuristic for a search state: the maximum per-assignment
    /// distance (§3.1). Returns [`UNSORTABLE`] if any assignment is
    /// unsortable.
    pub fn max_dist(&self, set: &StateSet) -> u16 {
        self.max_dist_slice(set.assignments())
    }

    /// [`DistanceTable::max_dist`] over a raw assignment slice — the
    /// expansion hot loop evaluates successors while they still live in the
    /// shared scratch buffer, before (and usually instead of) building a
    /// `StateSet`.
    pub fn max_dist_slice(&self, assigns: &[MachineState]) -> u16 {
        let mut worst = 0;
        for &a in assigns {
            let d = self.dist(a);
            if d == UNSORTABLE {
                return UNSORTABLE;
            }
            worst = worst.max(d);
        }
        worst
    }

    /// The §3.2 action guide: the union, over all assignments of `set`, of
    /// the actions starting a shortest sorting sequence for that assignment.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without first moves.
    pub fn optimal_first_moves(&self, set: &StateSet) -> ActionSet {
        self.optimal_first_moves_slice(set.assignments())
    }

    /// [`DistanceTable::optimal_first_moves`] over a raw assignment slice
    /// (same panic contract).
    pub fn optimal_first_moves_slice(&self, assigns: &[MachineState]) -> ActionSet {
        let moves = self
            .first_moves
            .as_ref()
            .expect("DistanceTable built without first moves");
        let mut out = ActionSet::empty();
        for &a in assigns {
            out.union_with(&moves[self.layout.encode(a)]);
        }
        out
    }

    /// [`DistanceTable::optimal_first_moves_slice`] over already-computed
    /// assignment encodings ([`DistanceTable::encode_assign`]), so callers
    /// that hold the encodings anyway skip re-encoding every assignment.
    pub(crate) fn optimal_first_moves_enc(&self, enc: &[u32]) -> ActionSet {
        let moves = self
            .first_moves
            .as_ref()
            .expect("DistanceTable built without first moves");
        let mut out = ActionSet::empty();
        for &e in enc {
            out.union_with(&moves[e as usize]);
        }
        out
    }

    /// Whether first moves were recorded at build time.
    pub fn has_first_moves(&self) -> bool {
        self.first_moves.is_some()
    }

    /// Whether the successor-distance table was built (see
    /// [`DistanceTable::succ_max_dist`]).
    pub fn has_succ_dist(&self) -> bool {
        self.succ_dist.is_some()
    }

    /// The table encoding of one assignment, for use with
    /// [`DistanceTable::succ_max_dist`]. Computed once per *expanded* state
    /// and reused across its whole action sweep.
    pub fn encode_assign(&self, assign: MachineState) -> u32 {
        self.layout.encode(assign) as u32
    }

    /// `max_dist` of the successor reached by action `ai` from the parent
    /// whose assignment encodings are `enc` — without materializing the
    /// successor. Returns [`UNSORTABLE`] as soon as any assignment's
    /// successor is unsortable.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without successor distances
    /// ([`DistanceTable::has_succ_dist`]).
    pub fn succ_max_dist(&self, ai: usize, enc: &[u32]) -> u16 {
        let table = self
            .succ_dist
            .as_ref()
            .expect("DistanceTable built without successor distances");
        let na = self.actions.len();
        let mut worst = 0;
        for &e in enc {
            let d = table[e as usize * na + ai];
            if d == UNSORTABLE {
                return UNSORTABLE;
            }
            worst = worst.max(d);
        }
        worst
    }

    /// [`DistanceTable::succ_max_dist`] for *every* action at once:
    /// `worst[ai]` becomes the successor `max_dist` under action `ai`
    /// ([`UNSORTABLE`] — the numeric maximum — propagates through the
    /// running max for free). One expansion's whole viability sweep is a
    /// single streaming pass over `enc.len()` contiguous rows, which the
    /// compiler turns into packed integer max — replacing one scattered
    /// gather per surviving (action, assignment) pair.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without successor distances
    /// ([`DistanceTable::has_succ_dist`]).
    pub fn succ_max_dist_sweep(&self, enc: &[u32], worst: &mut Vec<u16>) {
        let table = self
            .succ_dist
            .as_ref()
            .expect("DistanceTable built without successor distances");
        let na = self.actions.len();
        worst.clear();
        worst.resize(na, 0);
        for &e in enc {
            let row = &table[e as usize * na..(e as usize + 1) * na];
            for (w, &d) in worst.iter_mut().zip(row) {
                *w = (*w).max(d);
            }
        }
    }

    /// The radix-packed value-register projections of the successors of
    /// the parent assignments `enc` under action `ai`, in parent order.
    /// Feeding these to a distinct-count gives the successor's permutation
    /// count (§3.5) *before* the successor is ever stepped: packing is a
    /// bijection on value-register contents, so distinct packed
    /// projections are exactly distinct permutation projections.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without successor distances
    /// ([`DistanceTable::has_succ_dist`]).
    #[inline]
    pub fn succ_projs<'a>(&'a self, ai: usize, enc: &'a [u32]) -> impl Iterator<Item = u16> + 'a {
        let table = self
            .succ_proj
            .as_ref()
            .expect("DistanceTable built without successor distances");
        let na = self.actions.len();
        enc.iter().map(move |&e| table[e as usize * na + ai])
    }

    /// Distinct successor projections of `enc` under action `ai` — the
    /// §3.5 permutation count of the successor, computed straight off the
    /// projection table with no successor materialized and nothing copied.
    /// Same cap contract and chunked cap placement as
    /// [`crate::state::perm_count_slice`]: a return `> cap` means the scan
    /// stopped early, any return `<= cap` is exact.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without successor distances
    /// ([`DistanceTable::has_succ_dist`]).
    pub(crate) fn succ_perm_capped(
        &self,
        ai: usize,
        enc: &[u32],
        scratch: &mut ProjScratch,
        cap: u32,
    ) -> u32 {
        let table = self
            .succ_proj
            .as_ref()
            .expect("DistanceTable built without successor distances");
        let na = self.actions.len();
        let (stamp, epoch) = scratch.stamp_begin();
        let mut count = 0u32;
        let mut chunks = enc.chunks(8);
        for c in &mut chunks {
            for &e in c {
                let v = table[e as usize * na + ai] as usize;
                let s = &mut stamp[v];
                count += u32::from(*s != epoch);
                *s = epoch;
            }
            if count > cap {
                break;
            }
        }
        count
    }
}

/// Where a single assignment sits in the table: the register digits
/// (`0..=n`) radix-packed with register 0 least significant, then one block
/// of `flag_stride` encodings per flag code. An ISA that never writes a flag
/// gets one plane; `cmp` machines get three (clear, `lt`, `gt`).
#[derive(Debug, Clone, Copy)]
struct Layout {
    regs: u8,
    /// Radix for register digits: `n + 1` (values `0..=n`).
    radix: usize,
    /// Stride between flag planes: `radix^(n+m)`.
    flag_stride: usize,
    planes: usize,
}

impl Layout {
    fn of(machine: &Machine) -> Self {
        let writes_flags = machine.mode().ops().iter().any(|op| op.writes_flags());
        Layout::with_planes(machine, if writes_flags { 3 } else { 1 })
    }

    fn with_planes(machine: &Machine, planes: usize) -> Self {
        let radix = machine.n() as usize + 1;
        Layout {
            regs: machine.num_regs(),
            radix,
            flag_stride: radix.pow(machine.num_regs() as u32),
            planes,
        }
    }

    fn encodings(self) -> usize {
        self.planes * self.flag_stride
    }

    fn encode(self, st: MachineState) -> usize {
        let mut idx = 0usize;
        for r in (0..self.regs).rev() {
            let v = st.reg(Reg::new(r)) as usize;
            debug_assert!(v < self.radix);
            idx = idx * self.radix + v;
        }
        let flags = flag_code(st);
        debug_assert!(flags < self.planes, "flagged state in a one-plane table");
        flags * self.flag_stride + idx
    }

    fn decode(self, idx: usize) -> MachineState {
        let flags = idx / self.flag_stride;
        let mut rest = idx % self.flag_stride;
        let mut st = MachineState::default();
        for r in 0..self.regs {
            st.set_reg(Reg::new(r), (rest % self.radix) as u8);
            rest /= self.radix;
        }
        st.set_flags(flags == 1, flags == 2);
        st
    }
}

fn flag_code(st: MachineState) -> usize {
    match (st.lt_flag(), st.gt_flag()) {
        (false, false) => 0,
        (true, false) => 1,
        (false, true) => 2,
        (true, true) => unreachable!("cmp never sets both flags"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    /// The full sweep, the reference for [`DistanceTable::build`]: three
    /// flag planes whatever the ISA, and every encoding re-stepped under
    /// every action in each round of induction, and again for the first
    /// moves and the successor rows. No shortcut, so it checks the build's.
    fn reference_build(machine: &Machine, with_first_moves: bool) -> DistanceTable {
        let actions = machine.actions();
        let layout = Layout::with_planes(machine, 3);
        let radix = layout.radix;
        let total = layout.encodings();

        let mut dist = vec![UNSORTABLE; total];
        for (idx, d) in dist.iter_mut().enumerate() {
            if machine.is_sorted(layout.decode(idx)) {
                *d = 0;
            }
        }

        let mut undecided: Vec<u32> = (0..total as u32)
            .filter(|&i| dist[i as usize] == UNSORTABLE)
            .collect();
        let mut d: u16 = 0;
        let mut max_finite = 0;
        while !undecided.is_empty() {
            let mut still = Vec::with_capacity(undecided.len());
            let mut progressed = false;
            for &idx in &undecided {
                let st = layout.decode(idx as usize);
                let reaches_d = actions
                    .iter()
                    .any(|&a| dist[layout.encode(st.step(a))] == d);
                if reaches_d {
                    dist[idx as usize] = d + 1;
                    max_finite = d + 1;
                    progressed = true;
                } else {
                    still.push(idx);
                }
            }
            undecided = still;
            if !progressed {
                break;
            }
            d += 1;
        }

        let first_moves = with_first_moves.then(|| {
            let mut moves = vec![ActionSet::empty(); total];
            for idx in 0..total {
                let here = dist[idx];
                if here == 0 || here == UNSORTABLE {
                    continue;
                }
                let st = layout.decode(idx);
                for (ai, &a) in actions.iter().enumerate() {
                    if dist[layout.encode(st.step(a))] == here - 1 {
                        moves[idx].insert(ai);
                    }
                }
            }
            moves
        });

        let proj_fits = (radix as u64).pow(machine.n() as u32) <= 1 << 16;
        let (succ_dist, succ_proj) = if proj_fits && actions.len() * total <= SUCC_DIST_MAX_ENTRIES
        {
            let mut td = vec![0u16; actions.len() * total];
            let mut tp = vec![0u16; actions.len() * total];
            for idx in 0..total {
                let st = layout.decode(idx);
                for (ai, &a) in actions.iter().enumerate() {
                    let succ = st.step(a);
                    td[idx * actions.len() + ai] = dist[layout.encode(succ)];
                    tp[idx * actions.len() + ai] = packed_proj(machine, radix, succ);
                }
            }
            (Some(td), Some(tp))
        } else {
            (None, None)
        };

        DistanceTable {
            layout,
            actions,
            dist,
            first_moves,
            max_finite,
            succ_dist,
            succ_proj,
        }
    }

    /// Radix-packs the value registers `r1..rn` of `st`: `Σ reg(r) · radixʳ`.
    fn packed_proj(machine: &Machine, radix: usize, st: MachineState) -> u16 {
        let mut p = 0usize;
        for r in (0..machine.n() as usize).rev() {
            p = p * radix + st.reg(Reg::new(r as u8)) as usize;
        }
        p as u16
    }

    /// [`DistanceTable::build`] agrees with [`reference_build`] field by
    /// field. A min/max table holds only the flag-free plane, which is the
    /// reference's first `encodings()` entries (and rows); the reference's
    /// flagged planes are unreachable without `cmp`.
    fn assert_matches_reference(n: u8, mode: IsaMode) {
        let m = Machine::new(n, 1, mode);
        for with_first_moves in [false, true] {
            let fast = DistanceTable::build(&m, with_first_moves);
            let slow = reference_build(&m, with_first_moves);
            let what = format!("n = {n} {mode:?} first moves {with_first_moves}");
            let planes = if mode == IsaMode::Cmov { 3 } else { 1 };
            assert_eq!(fast.encodings() * 3, slow.encodings() * planes, "{what}");
            let len = fast.encodings();
            let rows = len * fast.actions().len();
            assert_eq!(fast.actions, slow.actions, "{what}");
            assert!(fast.dist == slow.dist[..len], "dist differs: {what}");
            assert_eq!(
                fast.first_moves.as_deref(),
                slow.first_moves.as_ref().map(|v| &v[..len]),
                "first moves differ: {what}"
            );
            assert_eq!(fast.succ_dist.is_some(), slow.succ_dist.is_some(), "{what}");
            if let (Some(f), Some(s)) = (&fast.succ_dist, &slow.succ_dist) {
                assert!(f[..] == s[..rows], "succ_dist differs: {what}");
            }
            if let (Some(f), Some(s)) = (&fast.succ_proj, &slow.succ_proj) {
                assert!(f[..] == s[..rows], "succ_proj differs: {what}");
            }
            assert_eq!(fast.max_finite, slow.max_finite, "{what}");
        }
    }

    #[test]
    fn build_matches_reference_n2_to_n4() {
        for n in 2..=4 {
            for mode in [IsaMode::Cmov, IsaMode::MinMax] {
                assert_matches_reference(n, mode);
            }
        }
    }

    #[test]
    #[ignore = "the reference sweep takes seconds at n = 5; CI runs it in release"]
    fn build_matches_reference_n5_cmov() {
        assert_matches_reference(5, IsaMode::Cmov);
    }

    #[test]
    #[ignore = "the reference sweep takes seconds at n = 5; CI runs it in release"]
    fn build_matches_reference_n5_minmax() {
        assert_matches_reference(5, IsaMode::MinMax);
    }

    #[test]
    fn encode_decode_round_trip() {
        for mode in [IsaMode::Cmov, IsaMode::MinMax] {
            let layout = Layout::of(&Machine::new(3, 1, mode));
            for idx in 0..layout.encodings() {
                assert_eq!(layout.encode(layout.decode(idx)), idx);
            }
        }
    }

    /// The successor-distance table must agree with stepping and looking
    /// up directly, for every assignment and every action.
    #[test]
    fn succ_dist_agrees_with_direct_lookup() {
        for mode in [IsaMode::Cmov, IsaMode::MinMax] {
            let m = Machine::new(3, 1, mode);
            let table = DistanceTable::build(&m, false);
            assert!(table.has_succ_dist());
            for idx in 0..table.encodings() {
                let st = table.layout.decode(idx);
                let enc = [table.encode_assign(st)];
                for (ai, &a) in table.actions().iter().enumerate() {
                    assert_eq!(
                        table.succ_max_dist(ai, &enc),
                        table.dist(st.step(a)),
                        "{mode:?} idx {idx} action {ai}"
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_assignment_has_distance_zero() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        assert_eq!(t.dist(m.initial_state(&[1, 2, 3])), 0);
    }

    #[test]
    fn single_swap_needs_three_instructions_cmov() {
        // For a single *concrete* assignment the values are known, so no
        // comparison is needed: a transposition is a 3-mov rotation through
        // the scratch register. (This is why the per-assignment distance is
        // only a lower bound for the oblivious sorting kernel, which needs a
        // 4-instruction compare-and-swap.)
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        assert_eq!(t.dist(m.initial_state(&[2, 1])), 3);
    }

    #[test]
    fn single_swap_needs_three_instructions_minmax() {
        let m = Machine::new(2, 1, IsaMode::MinMax);
        let t = DistanceTable::build(&m, false);
        assert_eq!(t.dist(m.initial_state(&[2, 1])), 3);
    }

    #[test]
    fn erased_assignment_is_unsortable() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        // r = [1, 1], s = 0: the value 2 is gone.
        let st = MachineState::from_values(&[1, 1, 0]);
        assert_eq!(t.dist(st), UNSORTABLE);
    }

    #[test]
    fn scratch_can_rescue_values() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        // r = [1, 1], s = 2: one mov fixes it.
        let st = MachineState::from_values(&[1, 1, 2]);
        assert_eq!(t.dist(st), 1);
    }

    #[test]
    fn max_dist_over_state_set() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        let set = StateSet::initial(&m);
        assert_eq!(t.max_dist(&set), 3);
    }

    #[test]
    fn optimal_first_moves_decrease_distance() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, true);
        let set = StateSet::initial(&m);
        let moves = t.optimal_first_moves(&set);
        assert!(!moves.is_empty());
        // Every allowed move keeps the state sortable and at least one
        // strictly decreases the unsorted assignment's distance.
        let unsorted = m.initial_state(&[2, 1]);
        let mut improved = false;
        for (ai, &a) in t.actions().iter().enumerate() {
            if moves.contains(ai) && t.dist(unsorted.step(a)) == 2 {
                improved = true;
            }
        }
        assert!(improved);
    }

    #[test]
    fn action_set_basics() {
        let mut s = ActionSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(130);
        assert!(s.contains(0) && s.contains(130) && !s.contains(64));
        assert_eq!(s.len(), 2);
        let mut t = ActionSet::empty();
        t.insert(64);
        t.union_with(&s);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distances_are_consistent_one_step() {
        // Triangle inequality / Bellman consistency: dist(s) <= dist(succ)+1.
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let t = DistanceTable::build(&m, false);
        for perm in sortsynth_isa::permutations(3) {
            let st = m.initial_state(&perm);
            let d = t.dist(st);
            for &a in t.actions() {
                let ds = t.dist(st.step(a));
                if ds != UNSORTABLE {
                    assert!(d <= ds + 1, "inconsistent distance at {perm:?}");
                }
            }
        }
    }
}
