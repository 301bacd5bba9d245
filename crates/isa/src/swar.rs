//! SWAR batch stepping of packed machine states.
//!
//! The search expands one *action* across an entire set of register
//! assignments at a time, so the per-assignment work is the same
//! instruction applied to different packed `u64`s. [`BatchStepper`]
//! exploits that: it resolves the opcode and operand shifts once per
//! action, then sweeps the span with a branchless lane kernel in unrolled
//! chunks of [`LANES`] states — one opcode dispatch per span instead of
//! one per state, no data-dependent branch on the flag bits (the scalar
//! `cmovl`/`cmovg` branch is ~50% mispredicted on real search states),
//! and enough independent lanes in flight to cover the ALU latency.
//!
//! Every kernel is bit-for-bit equivalent to [`MachineState::exec`] on
//! *arbitrary* bit patterns — including states with both flag bits set
//! and with the unused bits 62–63 populated, which `exec` preserves even
//! though the search never constructs them. The property test in
//! `sortsynth-search` pins this equivalence over random batches.

use crate::instr::{Instr, Op};
use crate::state::MachineState;

/// Unroll factor of the batch loop: states stepped per pass.
pub const LANES: usize = 8;

const LT_BIT: u64 = 1 << 60;
const GT_BIT: u64 = 1 << 61;
const FLAGS: u64 = LT_BIT | GT_BIT;
const NIB: u64 = 0xF;

/// One action's step kernel, pre-resolved for batch application.
///
/// # Examples
///
/// ```
/// use sortsynth_isa::{BatchStepper, Instr, MachineState, Op, Reg};
///
/// let instr = Instr::new(Op::Min, Reg::new(0), Reg::new(1));
/// let batch = [
///     MachineState::from_values(&[3, 1]),
///     MachineState::from_values(&[0, 2]),
/// ];
/// let mut out = Vec::new();
/// BatchStepper::new(instr).append_stepped(&batch, &mut out);
/// assert_eq!(out, batch.map(|s| s.step(instr)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchStepper {
    op: Op,
    /// Bit offset of the destination register's nibble.
    d: u32,
    /// Bit offset of the source register's nibble.
    s: u32,
}

impl BatchStepper {
    /// Resolves `instr` into a reusable batch kernel.
    pub fn new(instr: Instr) -> Self {
        BatchStepper {
            op: instr.op,
            d: 4 * instr.dst.index() as u32,
            s: 4 * instr.src.index() as u32,
        }
    }

    /// Steps one state through the resolved kernel (scalar convenience;
    /// equals `state.step(instr)`).
    #[inline]
    pub fn step_one(&self, state: MachineState) -> MachineState {
        let (d, s) = (self.d, self.s);
        let x = state.bits();
        MachineState::from_bits(match self.op {
            Op::Mov => mov(x, d, s),
            Op::Cmp => cmp(x, d, s),
            Op::Cmovl => cmov(x, d, s, 60),
            Op::Cmovg => cmov(x, d, s, 61),
            Op::Min => min(x, d, s),
            Op::Max => max(x, d, s),
        })
    }

    /// Steps every state in `batch`, appending the successors to `out` in
    /// order. Returns the number of [`LANES`]-wide passes performed
    /// (counting a final partial chunk as one pass), for the
    /// `swar_batches` search counter.
    #[inline]
    pub fn append_stepped(&self, batch: &[MachineState], out: &mut Vec<MachineState>) -> u64 {
        let (d, s) = (self.d, self.s);
        match self.op {
            Op::Mov => run(batch, out, |x| mov(x, d, s)),
            Op::Cmp => run(batch, out, |x| cmp(x, d, s)),
            Op::Cmovl => run(batch, out, |x| cmov(x, d, s, 60)),
            Op::Cmovg => run(batch, out, |x| cmov(x, d, s, 61)),
            Op::Min => run(batch, out, |x| min(x, d, s)),
            Op::Max => run(batch, out, |x| max(x, d, s)),
        }
    }
}

/// Sweeps `batch` through `f` in one pass. The single trusted-length
/// `extend` of a branch-free body is the shape LLVM's auto-vectorizer
/// turns into [`LANES`]-state-wide SIMD iterations (verified on the
/// reference container: the sweep compiles to packed-integer code, where
/// the scalar `step` loop's flag branch forced one state at a time).
#[inline(always)]
fn run(batch: &[MachineState], out: &mut Vec<MachineState>, f: impl Fn(u64) -> u64) -> u64 {
    out.extend(batch.iter().map(|a| MachineState::from_bits(f(a.bits()))));
    (batch.len() as u64).div_ceil(LANES as u64)
}

/// `mov dst, src`: replace the dst nibble with the src nibble.
#[inline(always)]
fn mov(x: u64, d: u32, s: u32) -> u64 {
    (x & !(NIB << d)) | (((x >> s) & NIB) << d)
}

/// `cmp dst, src`: rewrite the two flag bits from the nibble comparison.
/// Nibbles are in `0..=15`, so `a - b` underflows (sign bit set after the
/// arithmetic shift down) exactly when `a < b`.
#[inline(always)]
fn cmp(x: u64, d: u32, s: u32) -> u64 {
    let a = (x >> d) & NIB;
    let b = (x >> s) & NIB;
    let lt = a.wrapping_sub(b) >> 63;
    let gt = b.wrapping_sub(a) >> 63;
    (x & !FLAGS) | (lt << 60) | (gt << 61)
}

/// `cmovl`/`cmovg dst, src`: select src or dst nibble under an all-ones /
/// all-zeros mask derived from the flag bit — no data-dependent branch.
#[inline(always)]
fn cmov(x: u64, d: u32, s: u32, flag_bit: u32) -> u64 {
    let m = 0u64.wrapping_sub((x >> flag_bit) & 1);
    let v = ((x >> s) & m | (x >> d) & !m) & NIB;
    (x & !(NIB << d)) | (v << d)
}

/// `min dst, src`: branchless nibble minimum into dst.
#[inline(always)]
fn min(x: u64, d: u32, s: u32) -> u64 {
    let a = (x >> d) & NIB;
    let b = (x >> s) & NIB;
    let m = 0u64.wrapping_sub(a.wrapping_sub(b) >> 63); // all-ones iff a < b
    let v = (a & m) | (b & !m);
    (x & !(NIB << d)) | (v << d)
}

/// `max dst, src`: branchless nibble maximum into dst.
#[inline(always)]
fn max(x: u64, d: u32, s: u32) -> u64 {
    let a = (x >> d) & NIB;
    let b = (x >> s) & NIB;
    let m = 0u64.wrapping_sub(b.wrapping_sub(a) >> 63); // all-ones iff a > b
    let v = (a & m) | (b & !m);
    (x & !(NIB << d)) | (v << d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{IsaMode, Machine, Reg};

    fn i(op: Op, dst: u8, src: u8) -> Instr {
        Instr::new(op, Reg::new(dst), Reg::new(src))
    }

    /// Deterministic xorshift so the exhaustive-ish sweep needs no deps.
    fn xorshift(seed: &mut u64) -> u64 {
        let mut x = *seed;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *seed = x;
        x
    }

    #[test]
    fn kernels_match_scalar_exec_on_arbitrary_bits() {
        // Arbitrary bit patterns: both flags set at once and bits 62–63
        // populated are representable even though the search never makes
        // them; the kernels must still agree with `exec`.
        let mut seed = 0x5EED_CAFE_F00D_0001u64;
        for op in [Op::Mov, Op::Cmp, Op::Cmovl, Op::Cmovg, Op::Min, Op::Max] {
            for dst in 0..4u8 {
                for src in 0..4u8 {
                    let instr = i(op, dst, src);
                    let stepper = BatchStepper::new(instr);
                    for _ in 0..256 {
                        let st = MachineState::from_bits(xorshift(&mut seed));
                        assert_eq!(
                            stepper.step_one(st),
                            st.step(instr),
                            "{instr:?} diverged on {:#018x}",
                            st.bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_output_matches_scalar_order_and_passes() {
        let mut seed = 0xDEAD_BEEF_0BAD_F00Du64;
        for mode in [IsaMode::Cmov, IsaMode::MinMax] {
            let machine = Machine::new(3, 1, mode);
            for instr in machine.actions() {
                for len in [0usize, 1, 7, 8, 9, 16, 37] {
                    let batch: Vec<MachineState> = (0..len)
                        .map(|_| MachineState::from_bits(xorshift(&mut seed)))
                        .collect();
                    let mut out = vec![MachineState::from_values(&[9])];
                    let passes = BatchStepper::new(instr).append_stepped(&batch, &mut out);
                    assert_eq!(out[0], MachineState::from_values(&[9]), "prefix kept");
                    let expect: Vec<MachineState> = batch.iter().map(|s| s.step(instr)).collect();
                    assert_eq!(out[1..], expect[..], "{instr:?} len {len}");
                    assert_eq!(passes, (len as u64).div_ceil(LANES as u64));
                }
            }
        }
    }
}
