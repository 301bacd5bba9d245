//! Packed per-permutation machine states.

use std::fmt;

use crate::instr::{Instr, Op};
use crate::machine::Reg;

/// A complete register assignment plus flags, packed into a `u64`.
///
/// Register `i` occupies bits `4i..4i+4` (so values must fit in a nibble,
/// which holds for every supported `n ≤ 14`); the `lt` flag is bit 60 and the
/// `gt` flag is bit 61. This is the paper's *register assignment* (§2.2): one
/// exists per input permutation, and a synthesis search state is a set of
/// them.
///
/// The packing gives `O(1)` hashing/comparison and keeps multi-million-state
/// searches cache-friendly.
///
/// # Examples
///
/// ```
/// use sortsynth_isa::MachineState;
///
/// let st = MachineState::from_values(&[2, 1, 0]);
/// assert_eq!(st.values(3), vec![2, 1, 0]);
/// assert!(!st.lt_flag() && !st.gt_flag());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MachineState(u64);

const LT_BIT: u64 = 1 << 60;
const GT_BIT: u64 = 1 << 61;
const REG_MASK: u64 = 0xF;

/// Maximum number of registers representable in a packed state.
pub const MAX_REGS: u8 = 15;

impl MachineState {
    /// Builds a state with the given register values (index order), flags
    /// unset. Values must fit in 4 bits.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_REGS`] values are given or a value exceeds 15.
    pub fn from_values(values: &[u8]) -> Self {
        assert!(values.len() <= MAX_REGS as usize, "too many registers");
        let mut bits = 0u64;
        for (i, &v) in values.iter().enumerate() {
            assert!(v <= 15, "register value {v} does not fit in a nibble");
            bits |= (v as u64) << (4 * i);
        }
        MachineState(bits)
    }

    /// The raw packed representation.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a state from [`Self::bits`].
    pub const fn from_bits(bits: u64) -> Self {
        MachineState(bits)
    }

    /// Value of register `reg`.
    #[inline]
    pub fn reg(self, reg: Reg) -> u8 {
        ((self.0 >> (4 * reg.index())) & REG_MASK) as u8
    }

    /// Sets register `reg` to `value`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `value` fits in a nibble.
    #[inline]
    pub fn set_reg(&mut self, reg: Reg, value: u8) {
        debug_assert!(value <= 15);
        let shift = 4 * reg.index();
        self.0 = (self.0 & !(REG_MASK << shift)) | ((value as u64) << shift);
    }

    /// Whether the `lt` flag is set.
    #[inline]
    pub fn lt_flag(self) -> bool {
        self.0 & LT_BIT != 0
    }

    /// Whether the `gt` flag is set.
    #[inline]
    pub fn gt_flag(self) -> bool {
        self.0 & GT_BIT != 0
    }

    /// Sets both flags at once (at most one may be true after a `cmp` on
    /// distinct values; both false means "unset or compared equal").
    #[inline]
    pub fn set_flags(&mut self, lt: bool, gt: bool) {
        self.0 &= !(LT_BIT | GT_BIT);
        if lt {
            self.0 |= LT_BIT;
        }
        if gt {
            self.0 |= GT_BIT;
        }
    }

    /// The first `count` register values, in index order.
    pub fn values(self, count: u8) -> Vec<u8> {
        (0..count).map(|i| self.reg(Reg::new(i))).collect()
    }

    /// Executes one instruction in place.
    ///
    /// This is the single source of truth for ISA semantics; every
    /// interpreter, search, solver encoding, and JIT in the workspace is
    /// tested against it.
    #[inline]
    pub fn exec(&mut self, instr: Instr) {
        match instr.op {
            Op::Mov => {
                let v = self.reg(instr.src);
                self.set_reg(instr.dst, v);
            }
            Op::Cmp => {
                let a = self.reg(instr.dst);
                let b = self.reg(instr.src);
                self.set_flags(a < b, a > b);
            }
            Op::Cmovl => {
                if self.lt_flag() {
                    let v = self.reg(instr.src);
                    self.set_reg(instr.dst, v);
                }
            }
            Op::Cmovg => {
                if self.gt_flag() {
                    let v = self.reg(instr.src);
                    self.set_reg(instr.dst, v);
                }
            }
            Op::Min => {
                let v = self.reg(instr.dst).min(self.reg(instr.src));
                self.set_reg(instr.dst, v);
            }
            Op::Max => {
                let v = self.reg(instr.dst).max(self.reg(instr.src));
                self.set_reg(instr.dst, v);
            }
        }
    }

    /// Returns the successor state after executing `instr`.
    #[inline]
    pub fn step(mut self, instr: Instr) -> Self {
        self.exec(instr);
        self
    }
}

impl fmt::Debug for MachineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MachineState[")?;
        for i in 0..MAX_REGS {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", self.reg(Reg::new(i)))?;
        }
        write!(
            f,
            " | {}{}]",
            if self.lt_flag() { "<" } else { "-" },
            if self.gt_flag() { ">" } else { "-" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(op: Op, dst: u8, src: u8) -> Instr {
        Instr::new(op, Reg::new(dst), Reg::new(src))
    }

    #[test]
    fn pack_unpack_round_trip() {
        let st = MachineState::from_values(&[3, 1, 4, 1, 5, 9, 2, 6]);
        assert_eq!(st.values(8), vec![3, 1, 4, 1, 5, 9, 2, 6]);
        assert_eq!(MachineState::from_bits(st.bits()), st);
    }

    #[test]
    fn set_reg_preserves_neighbours_and_flags() {
        let mut st = MachineState::from_values(&[1, 2, 3]);
        st.set_flags(true, false);
        st.set_reg(Reg::new(1), 7);
        assert_eq!(st.values(3), vec![1, 7, 3]);
        assert!(st.lt_flag() && !st.gt_flag());
    }

    #[test]
    fn mov_copies() {
        let mut st = MachineState::from_values(&[2, 1, 0]);
        st.exec(i(Op::Mov, 2, 1));
        assert_eq!(st.values(3), vec![2, 1, 1]);
    }

    #[test]
    fn cmp_sets_flags_three_ways() {
        let mut st = MachineState::from_values(&[2, 1]);
        st.exec(i(Op::Cmp, 0, 1));
        assert!(!st.lt_flag() && st.gt_flag());
        st.exec(i(Op::Cmp, 1, 0));
        assert!(st.lt_flag() && !st.gt_flag());
        st.exec(i(Op::Mov, 1, 0));
        st.exec(i(Op::Cmp, 0, 1));
        assert!(!st.lt_flag() && !st.gt_flag());
    }

    #[test]
    fn cmov_respects_flags() {
        // Unset flags: both cmovs are no-ops.
        let mut st = MachineState::from_values(&[2, 1]);
        st.exec(i(Op::Cmovl, 0, 1));
        st.exec(i(Op::Cmovg, 0, 1));
        assert_eq!(st.values(2), vec![2, 1]);

        // The paper's worked n=2 example (§2.2): mov s1 r2; cmp r1 r2;
        // cmovg r2 r1; cmovg r1 s1 sorts [2, 1] into [1, 2].
        let mut st = MachineState::from_values(&[2, 1, 0]);
        st.exec(i(Op::Mov, 2, 1));
        st.exec(i(Op::Cmp, 0, 1));
        st.exec(i(Op::Cmovg, 1, 0));
        st.exec(i(Op::Cmovg, 0, 2));
        assert_eq!(st.values(3), vec![1, 2, 1]);
    }

    #[test]
    fn min_max_semantics() {
        let mut st = MachineState::from_values(&[3, 1]);
        st.exec(i(Op::Min, 0, 1));
        assert_eq!(st.values(2), vec![1, 1]);
        let mut st = MachineState::from_values(&[3, 1]);
        st.exec(i(Op::Max, 1, 0));
        assert_eq!(st.values(2), vec![3, 3]);
    }

    #[test]
    fn step_is_pure() {
        let st = MachineState::from_values(&[2, 1]);
        let st2 = st.step(i(Op::Mov, 0, 1));
        assert_eq!(st.values(2), vec![2, 1]);
        assert_eq!(st2.values(2), vec![1, 1]);
    }
}
