//! The live assignment space: every register assignment that can still be
//! sorted, numbered densely, with its successor under every action.
//!
//! Every op copies a value and none makes a new one, so an assignment that
//! has lost a value of `1..=n` can never be sorted again (§3.3), and every
//! state the search keeps holds only the others: the *live* assignments.
//! Counting by inclusion–exclusion, there are 1 080 of them at n = 4,
//! m = 1 over cmp/cmov's three flag planes, 2 520 at n = 5 min/max (one
//! plane), and 60 480 at n = 6 cmp/cmov. [`LiveSpace::build`] numbers them
//! in ascending packed-bit order — so a canonical span of indices sorts in
//! the same order as the assignments it stands for — and steps each (live
//! assignment, action) pair exactly once into a `u16` successor table.
//!
//! With a live space the search stores states as sorted `u16` index spans
//! and steps them by gathering from the successor table: no register is
//! decoded, no assignment re-encoded. A machine has a live space when its
//! live count fits `u16` (below the [`NONE`] sentinel) and `live × actions`
//! fits [`SUCC_MAX_ENTRIES`]: every m = 1 machine through n = 6. The rest —
//! n ≥ 7, and machines with many scratch registers — search over
//! `MachineState` spans instead, stepped by [`MachineState::step`] and
//! sorted by `sort_unstable` (see [`crate::state::Assign`]).

use sortsynth_isa::{Machine, MachineState, Reg};

use crate::state::{assignment_erased, value_reg_mask, STEP_PASS_LEN};

/// Successor-table entry of a step that erased a value of `1..=n`: the
/// successor is not live, so its state can never be completed.
pub const NONE: u16 = u16::MAX;

/// Cap on `live × actions` for the successor table, and so for the distance
/// table's successor rows (three `u16` tables, 96 MiB at the cap).
pub(crate) const SUCC_MAX_ENTRIES: usize = 1 << 24;

/// The live assignments of one machine and their successors.
///
/// # Examples
///
/// ```
/// use sortsynth_isa::{Instr, IsaMode, Machine, Op, Reg};
/// use sortsynth_search::{LiveSpace, NONE};
///
/// let machine = Machine::new(2, 1, IsaMode::Cmov);
/// let space = LiveSpace::build(&machine).expect("small machines have one");
/// let sorted = space.index_of(machine.initial_state(&[1, 2])).unwrap();
/// // `mov r1 r2` erases the value 1 from the sorted assignment.
/// let mov = Instr::new(Op::Mov, Reg::new(0), Reg::new(1));
/// let ai = machine.actions().iter().position(|&a| a == mov).unwrap();
/// assert_eq!(space.succ_row(ai)[sorted as usize], NONE);
/// ```
#[derive(Debug, Clone)]
pub struct LiveSpace {
    /// The live assignments, ascending by packed bits.
    states: Vec<MachineState>,
    /// Action-major successors: `succ[ai * len + li]` is the index of
    /// `states[li].step(actions[ai])`, or [`NONE`] when the step erases a
    /// value. One action's row is contiguous, so stepping a sorted span is
    /// one forward-moving gather.
    succ: Vec<u16>,
    /// Whether each live assignment is sorted (§3.4).
    sorted: Vec<bool>,
    /// Each live assignment's value-register projection (§3.5), numbered
    /// densely: two indices share a projection number exactly when their
    /// assignments agree on `r1..rn`.
    proj: Vec<u16>,
}

impl LiveSpace {
    /// Numbers `machine`'s live assignments and steps each under every
    /// action, or `None` when the machine has too many for `u16` indices or
    /// the successor table would exceed 2²⁴ entries.
    pub fn build(machine: &Machine) -> Option<LiveSpace> {
        let actions = machine.actions();
        let live = live_count(machine);
        if live > NONE as u128 || live * actions.len() as u128 > SUCC_MAX_ENTRIES as u128 {
            return None;
        }
        let (layout, states, index) = enumerate(machine);
        debug_assert_eq!(states.len() as u128, live, "inclusion–exclusion count");
        let mut succ = Vec::with_capacity(states.len() * actions.len());
        for &a in &actions {
            succ.extend(states.iter().map(|&st| {
                let s = index[layout.encode(st.step(a))];
                if s == u32::MAX {
                    NONE
                } else {
                    s as u16
                }
            }));
        }
        let sorted = states.iter().map(|&st| machine.is_sorted(st)).collect();
        let mask = value_reg_mask(machine);
        let mut packed: Vec<u64> = states.iter().map(|st| st.bits() & mask).collect();
        packed.sort_unstable();
        packed.dedup();
        let proj = states
            .iter()
            .map(|st| {
                packed
                    .binary_search(&(st.bits() & mask))
                    .expect("own projection") as u16
            })
            .collect();
        Some(LiveSpace {
            states,
            succ,
            sorted,
            proj,
        })
    }

    /// Number of live assignments.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the space is empty (never, for a machine with `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The assignment live index `li` stands for.
    #[inline]
    pub fn state(&self, li: u16) -> MachineState {
        self.states[li as usize]
    }

    /// The live index of `assign`, or `None` when it is not live.
    pub fn index_of(&self, assign: MachineState) -> Option<u16> {
        index_in(&self.states, assign).map(|i| i as u16)
    }

    /// The successors of every live assignment under action `ai`, by live
    /// index ([`NONE`] where the step erases a value).
    #[inline]
    pub fn succ_row(&self, ai: usize) -> &[u16] {
        let len = self.states.len();
        &self.succ[ai * len..(ai + 1) * len]
    }

    /// Whether live assignment `li` is sorted.
    #[inline]
    pub fn is_sorted(&self, li: u16) -> bool {
        self.sorted[li as usize]
    }

    /// The dense projection number of live assignment `li`.
    #[inline]
    pub fn proj(&self, li: u16) -> u16 {
        self.proj[li as usize]
    }

    /// The live assignments, ascending.
    pub(crate) fn states(&self) -> &[MachineState] {
        &self.states
    }

    /// Appends `span` stepped through action `ai` to `out`, in span order
    /// (erased successors as [`NONE`]), and returns the stepping passes of
    /// up to [`STEP_PASS_LEN`] assignments taken — the count a
    /// `MachineState` span of the same length reports, so the
    /// `swar_batches` counter means the same on either path.
    #[inline]
    pub(crate) fn gather(&self, ai: usize, span: &[u16], out: &mut Vec<u16>) -> u64 {
        let row = self.succ_row(ai);
        out.extend(span.iter().map(|&li| row[li as usize]));
        (span.len() as u64).div_ceil(STEP_PASS_LEN)
    }
}

/// The position of `assign` in the ascending `states`.
pub(crate) fn index_in(states: &[MachineState], assign: MachineState) -> Option<usize> {
    states.binary_search(&assign).ok()
}

/// The number of live assignments of `machine`: register contents over
/// `0..=n` that hold every value of `1..=n` (inclusion–exclusion over the
/// missing values), times the flag planes the ISA reaches.
fn live_count(machine: &Machine) -> u128 {
    let (n, regs) = (machine.n() as u32, machine.num_regs() as u32);
    let mut count: i128 = 0;
    let mut choose: i128 = 1;
    for k in 0..=n {
        let term = choose * ((n + 1 - k) as i128).pow(regs);
        count += if k % 2 == 0 { term } else { -term };
        choose = choose * (n - k) as i128 / (k + 1) as i128;
    }
    count as u128 * Layout::of(machine).planes as u128
}

/// The live assignments of `machine` in ascending packed-bit order, and a
/// map from every [`Layout`] encoding to its live index (`u32::MAX` where
/// the assignment is not live). Erasure ignores the flags, so each flag
/// plane holds the same contents; the flag bits sit above every register,
/// so plane by plane is ascending order.
pub(crate) fn enumerate(machine: &Machine) -> (Layout, Vec<MachineState>, Vec<u32>) {
    let layout = Layout::of(machine);
    let plane: Vec<usize> = (0..layout.flag_stride)
        .filter(|&e| !assignment_erased(machine, layout.decode(e)))
        .collect();
    let mut index = vec![u32::MAX; layout.encodings()];
    let mut states = Vec::with_capacity(plane.len() * layout.planes);
    for p in 0..layout.planes {
        for &e in &plane {
            let e = e + p * layout.flag_stride;
            index[e] = states.len() as u32;
            states.push(layout.decode(e));
        }
    }
    debug_assert!(states.windows(2).all(|w| w[0] < w[1]), "ascending order");
    (layout, states, index)
}

/// Where a single assignment sits in a dense table: the register digits
/// (`0..=n`) radix-packed with register 0 least significant, then one block
/// of `flag_stride` encodings per flag code. An ISA that never writes a flag
/// gets one plane; `cmp` machines get three (clear, `lt`, `gt`). Within a
/// plane, encoding order is packed-bit order: both compare the highest
/// register first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    regs: u8,
    /// Radix for register digits: `n + 1` (values `0..=n`).
    pub radix: usize,
    /// Stride between flag planes: `radix^(n+m)`.
    pub flag_stride: usize,
    pub planes: usize,
}

impl Layout {
    pub fn of(machine: &Machine) -> Self {
        let writes_flags = machine.mode().ops().iter().any(|op| op.writes_flags());
        Layout::with_planes(machine, if writes_flags { 3 } else { 1 })
    }

    pub fn with_planes(machine: &Machine, planes: usize) -> Self {
        let radix = machine.n() as usize + 1;
        Layout {
            regs: machine.num_regs(),
            radix,
            flag_stride: radix.pow(machine.num_regs() as u32),
            planes,
        }
    }

    pub fn encodings(self) -> usize {
        self.planes * self.flag_stride
    }

    pub fn encode(self, st: MachineState) -> usize {
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

    pub fn decode(self, idx: usize) -> MachineState {
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

    /// Every live index steps to the live index of the stepped assignment,
    /// and to [`NONE`] exactly when the step erases a value.
    #[test]
    fn successors_match_stepping_through_n4() {
        for n in 2..=4 {
            for mode in [IsaMode::Cmov, IsaMode::MinMax] {
                let m = Machine::new(n, 1, mode);
                let space = LiveSpace::build(&m).expect("m = 1 machines have a live space");
                for (ai, &a) in m.actions().iter().enumerate() {
                    let row = space.succ_row(ai);
                    for li in 0..space.len() as u16 {
                        let stepped = space.state(li).step(a);
                        let s = row[li as usize];
                        if assignment_erased(&m, stepped) {
                            assert_eq!(s, NONE, "n = {n} {mode:?} {li} {a:?}");
                        } else {
                            assert_ne!(s, NONE, "n = {n} {mode:?} {li} {a:?}");
                            assert_eq!(space.state(s), stepped, "n = {n} {mode:?} {li} {a:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn live_counts_and_order() {
        for (n, mode, live) in [
            (4, IsaMode::Cmov, 1_080),
            (5, IsaMode::MinMax, 2_520),
            (5, IsaMode::Cmov, 7_560),
        ] {
            let m = Machine::new(n, 1, mode);
            let space = LiveSpace::build(&m).unwrap();
            assert_eq!(space.len(), live, "n = {n} {mode:?}");
            assert!(space.states.windows(2).all(|w| w[0] < w[1]));
            for li in 0..space.len() as u16 {
                assert_eq!(space.index_of(space.state(li)), Some(li));
                assert_eq!(space.is_sorted(li), m.is_sorted(space.state(li)));
            }
        }
    }

    /// The counts that decide which machines have a live space, without
    /// enumerating the big ones.
    #[test]
    fn oversized_machines_have_no_live_space() {
        let count = |n, m, mode| live_count(&Machine::new(n, m, mode));
        assert_eq!(count(6, 1, IsaMode::Cmov), 60_480);
        assert_eq!(count(6, 1, IsaMode::MinMax), 20_160);
        assert!(count(7, 1, IsaMode::MinMax) > NONE as u128);
        assert!(LiveSpace::build(&Machine::new(2, 8, IsaMode::Cmov)).is_none());
        assert!(LiveSpace::build(&Machine::new(7, 1, IsaMode::MinMax)).is_none());
    }

    /// Projection numbers are equal exactly when the value registers are.
    #[test]
    fn projection_numbers_are_a_bijection_of_value_registers() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let space = LiveSpace::build(&m).unwrap();
        let mask = value_reg_mask(&m);
        for a in 0..space.len() as u16 {
            for b in 0..space.len() as u16 {
                let same = space.state(a).bits() & mask == space.state(b).bits() & mask;
                assert_eq!(space.proj(a) == space.proj(b), same);
            }
        }
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
}
