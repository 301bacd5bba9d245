//! Hard-coded reference kernels from the paper and the literature.
//!
//! Each function returns `(Machine, Program)` pairs in this workspace's ISA
//! model. Provenance:
//!
//! * [`paper_synth_cmov3`] / [`paper_synth_minmax3`] — verbatim
//!   transcriptions of the §2.2 example columns ("synth cmov" /
//!   "synth min/max"), register-renamed to `r1..r3, s1`.
//! * [`alphadev_cmov3`] — a *reconstruction* of the AlphaDev sort3 kernel:
//!   AlphaDev's exact register allocation is published only as full
//!   load/store assembly, so we use an optimal 11-instruction kernel with
//!   AlphaDev's reported instruction mix (3 `cmp`, 2 register `mov`s,
//!   6 conditional moves — the §5.3 table row) drawn from the enumerated
//!   solution space.
//! * [`enum_worst_cmov3`] — the mov-free, 8-cmov signature the paper's
//!   `enum_worst` row exhibits (3 `cmp`, 8 `cmov`).
//! * [`enum_minmax3`] — an 8-instruction min/max kernel from the enumerated
//!   space (distinct from the paper's example).

use sortsynth_isa::{IsaMode, Machine, Program};

fn parsed(machine: Machine, text: &str) -> (Machine, Program) {
    let prog = machine
        .parse_program(text)
        .expect("reference kernel text is well-formed");
    (machine, prog)
}

/// The paper's §2.2 "synth cmov" kernel for n = 3 (11 instructions).
///
/// Original registers `rax, rbx, rcx, rdi` map to `r1, r2, r3, s1`. The
/// final block is the non-compare-and-swap fusion the paper highlights:
/// `r2 = ite(b > min(a, c), min(b, max(a, c)), min(a, c))`,
/// `r1 = min(b, min(a, c))`.
pub fn paper_synth_cmov3() -> (Machine, Program) {
    parsed(
        Machine::new(3, 1, IsaMode::Cmov),
        "mov s1 r1
         cmp r3 s1
         cmovl s1 r3
         cmovl r3 r1
         cmp r2 r3
         mov r1 r2
         cmovg r2 r3
         cmovg r3 r1
         cmp r1 s1
         cmovl r2 s1
         cmovg r1 s1",
    )
}

/// The paper's §2.2 "synth min/max" kernel for n = 3 (8 instructions).
///
/// Original registers `xmm0, xmm1, xmm2, xmm7` map to `r1, r2, r3, s1`; it
/// is one `movdqa` shorter than the 9-instruction network implementation:
/// `r2 = max(min(max(c, b), a), min(b, c))`, `r1 = min(a, min(b, c))`.
pub fn paper_synth_minmax3() -> (Machine, Program) {
    parsed(
        Machine::new(3, 1, IsaMode::MinMax),
        "mov s1 r2
         min s1 r3
         max r3 r2
         mov r2 r3
         min r2 r1
         max r3 r1
         max r2 s1
         min r1 s1",
    )
}

/// AlphaDev sort3 reconstruction: optimal length (11) with AlphaDev's
/// reported instruction mix (3 `cmp`, 2 `mov`, 6 conditional moves).
pub fn alphadev_cmov3() -> (Machine, Program) {
    parsed(
        Machine::new(3, 1, IsaMode::Cmov),
        "mov s1 r2
         cmp r1 r2
         cmovg s1 r1
         cmovl r2 r1
         mov r1 r2
         cmp r1 r3
         cmovl r2 r3
         cmovg r1 r3
         cmp r2 s1
         cmovl r3 s1
         cmovg r2 s1",
    )
}

/// The `enum_worst` profile for n = 3: an optimal-length kernel with no
/// register `mov`s at all — every data movement is conditional (3 `cmp`,
/// 8 `cmov`), which maximizes the flag-dependence chain and makes it the
/// slowest of the 5602 optimal kernels in the paper's standalone benchmark.
pub fn enum_worst_cmov3() -> (Machine, Program) {
    parsed(
        Machine::new(3, 1, IsaMode::Cmov),
        "cmp r1 r2
         cmovg s1 r1
         cmovg r1 r2
         cmovg r2 s1
         cmp r2 r3
         cmovg s1 r3
         cmovg r3 r2
         cmovg r2 s1
         cmp r1 r2
         cmovg r2 r1
         cmovg r1 s1",
    )
}

/// An 8-instruction min/max kernel for n = 3 from the enumerated solution
/// space (distinct from [`paper_synth_minmax3`]).
pub fn enum_minmax3() -> (Machine, Program) {
    parsed(
        Machine::new(3, 1, IsaMode::MinMax),
        "mov s1 r1
         min r1 r2
         max r2 s1
         mov s1 r1
         min r1 r3
         max s1 r3
         max r3 r2
         min r2 s1",
    )
}

/// A 33-instruction n = 5 cmov kernel synthesized by this workspace's
/// enumerative search (best configuration, 23 min on one core; the paper
/// reports the same optimal-class length ≈33).
pub fn enum_cmov5() -> (Machine, Program) {
    parsed(
        Machine::new(5, 1, IsaMode::Cmov),
        "mov s1 r1
         cmp r1 r2
         cmovl s1 r2
         cmovl r2 r1
         mov r1 r3
         cmp r1 r4
         cmovl r3 r4
         cmovl r4 r1
         mov r1 r2
         cmp r1 r4
         cmovl r2 r4
         cmovg r1 r4
         mov r4 r3
         cmp r3 s1
         cmovl r4 s1
         cmovg r3 s1
         mov s1 r2
         cmp r2 r3
         cmovg r2 r3
         cmovg r3 s1
         mov s1 r5
         cmp r4 r5
         cmovg r5 r4
         cmovg r4 s1
         cmp r3 r4
         cmovg r4 r3
         cmovg r3 s1
         cmp r2 r3
         cmovg r3 r2
         cmovg r2 s1
         cmp r1 r2
         cmovg r2 r1
         cmovg r1 s1",
    )
}

/// The 15-instruction n = 4 min/max kernel synthesized by this workspace
/// (matches the paper's reported size; equals the 5-comparator network
/// bound, which §5.4 also observes).
pub fn enum_minmax4() -> (Machine, Program) {
    parsed(
        Machine::new(4, 1, IsaMode::MinMax),
        "mov s1 r1
         min r1 r2
         max r2 s1
         mov s1 r3
         min r3 r4
         max r4 s1
         mov s1 r1
         min r1 r3
         max r3 s1
         mov s1 r2
         min r2 r4
         max r4 s1
         mov s1 r2
         min r2 r3
         max r3 s1",
    )
}

/// A **23-instruction** n = 5 min/max kernel found by this workspace's
/// search — three instructions shorter than the 26 the paper reports and
/// four below the 27-instruction optimal-network implementation. Verified
/// on all 120 permutations (constant-free kernels are correct on all
/// inputs when correct on the permutation suite, §2.3).
pub fn enum_minmax5() -> (Machine, Program) {
    parsed(
        Machine::new(5, 1, IsaMode::MinMax),
        "mov s1 r1
         min r1 r2
         max r2 s1
         mov s1 r3
         min r3 r5
         max r5 s1
         mov s1 r1
         min r1 r4
         max s1 r4
         max r4 r2
         min r2 s1
         mov s1 r1
         min r1 r3
         max s1 r3
         max r3 r2
         min r2 s1
         min r2 r5
         max s1 r5
         max r5 r4
         min r4 s1
         mov s1 r3
         min r3 r4
         max r4 s1",
    )
}

/// A **34-instruction** n = 6 min/max kernel synthesized by this workspace
/// (33 s, one core) — two instructions below the 36-instruction
/// 12-comparator optimal-network implementation. The paper's evaluation
/// stops at n = 5, so this extends its method one size further. Verified on
/// all 720 permutations.
pub fn enum_minmax6() -> (Machine, Program) {
    parsed(
        Machine::new(6, 1, IsaMode::MinMax),
        "mov s1 r1
         min r1 r2
         max r2 s1
         mov s1 r3
         min r3 r4
         max r4 s1
         mov s1 r5
         min r5 r6
         max r6 s1
         mov s1 r1
         min r1 r5
         max r5 s1
         mov s1 r2
         min r2 r6
         max r6 s1
         mov s1 r2
         min r2 r5
         max r5 s1
         mov s1 r1
         min r1 r3
         max s1 r3
         max r3 r2
         min r2 s1
         min r3 r5
         max r5 s1
         max s1 r4
         min r4 r6
         max r6 s1
         min r2 r4
         max r4 r3
         min r3 s1
         mov s1 r4
         min r4 r5
         max r5 s1",
    )
}

/// A deliberately tie-unsafe n = 5 cmov kernel: AlphaDev's sort3 on
/// `r1..r3` followed by the full optimal 5-network. Perm-correct (the
/// network re-sorts everything), but the AlphaDev prefix mangles the
/// multiset on tied inputs like `[1, 1, 0, …]`, which no suffix can repair
/// — so every 0-1 failure is tied and the 0-1 pipeline cannot decide it.
/// This is the gate's worst case below the stitched sizes: symbolic
/// certificate vs. `5!` oracle (the `verify_cost` E-V3 row).
pub fn tie_unsafe5() -> (Machine, Program) {
    let machine = Machine::new(5, 1, IsaMode::Cmov);
    let (_, prefix) = alphadev_cmov3();
    let mut prog: Program = prefix
        .iter()
        .map(|i| {
            // The 3-machine's scratch s1 is index 3; remap it to the
            // 5-machine's scratch (index 5). Value registers coincide.
            let remap = |r: sortsynth_isa::Reg| {
                if r.index() == 3 {
                    sortsynth_isa::Reg::new(5)
                } else {
                    r
                }
            };
            sortsynth_isa::Instr::new(i.op, remap(i.dst), remap(i.src))
        })
        .collect();
    prog.extend(crate::networks::network_to_cmov(
        &machine,
        &crate::networks::optimal_network(5),
    ));
    (machine, prog)
}

/// Every named cmov reference kernel for n = 3, `(name, machine, program)`.
pub fn cmov3_references() -> Vec<(&'static str, Machine, Program)> {
    let mut out = Vec::new();
    for (name, (machine, prog)) in [
        ("paper_synth", paper_synth_cmov3()),
        ("alphadev", alphadev_cmov3()),
        ("enum_worst", enum_worst_cmov3()),
    ] {
        out.push((name, machine, prog));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::InstrMix;

    #[test]
    fn all_reference_kernels_are_correct() {
        for (name, machine, prog) in [
            ("paper_synth_cmov3", paper_synth_cmov3()),
            ("paper_synth_minmax3", paper_synth_minmax3()),
            ("alphadev_cmov3", alphadev_cmov3()),
            ("enum_worst_cmov3", enum_worst_cmov3()),
            ("enum_minmax3", enum_minmax3()),
            ("enum_cmov5", enum_cmov5()),
            ("enum_minmax4", enum_minmax4()),
            ("enum_minmax5", enum_minmax5()),
            ("enum_minmax6", enum_minmax6()),
            ("tie_unsafe5", tie_unsafe5()),
        ]
        .map(|(n, (m, p))| (n, m, p))
        {
            assert!(
                machine.is_correct(&prog),
                "{name} is incorrect:\n{}",
                machine.format_program(&prog)
            );
        }
    }

    #[test]
    fn tie_unsafe5_fails_a_tied_input() {
        // Perm-correct (asserted above) but provably not a total sorting
        // function: the AlphaDev prefix destroys the multiset of a tied
        // input, which the network suffix cannot restore.
        let (machine, prog) = tie_unsafe5();
        let mut state = sortsynth_isa::MachineState::from_values(&[1, 1, 0, 0, 0, 0]);
        for &i in &prog {
            state.exec(i);
        }
        let out: Vec<u8> = (0..5)
            .map(|i| state.reg(sortsynth_isa::Reg::new(i)))
            .collect();
        assert_ne!(
            out,
            vec![0, 0, 0, 1, 1],
            "{}",
            machine.format_program(&prog)
        );
    }

    #[test]
    fn reference_kernels_have_paper_lengths() {
        assert_eq!(paper_synth_cmov3().1.len(), 11);
        assert_eq!(paper_synth_minmax3().1.len(), 8);
        assert_eq!(alphadev_cmov3().1.len(), 11);
        assert_eq!(enum_worst_cmov3().1.len(), 11);
        assert_eq!(enum_minmax3().1.len(), 8);
        assert_eq!(enum_cmov5().1.len(), 33); // paper: ≈33
        assert_eq!(enum_minmax4().1.len(), 15); // paper: 15
        assert_eq!(enum_minmax5().1.len(), 23); // paper reports 26 — ours is shorter
        assert_eq!(enum_minmax6().1.len(), 34); // beyond the paper; network is 36
    }

    #[test]
    fn instruction_mixes_match_paper_rows() {
        // §5.3 standalone table: alphadev has 3 cmp / 6 cmov (plus the 6
        // memory movs the table counts, which our register-only model
        // excludes — 8 movs total minus 6 memory = 2 register movs).
        let mix = InstrMix::of(&alphadev_cmov3().1);
        assert_eq!((mix.cmp, mix.mov, mix.cmov), (3, 2, 6));
        // enum_worst: 3 cmp / 8 cmov, no register movs.
        let mix = InstrMix::of(&enum_worst_cmov3().1);
        assert_eq!((mix.cmp, mix.mov, mix.cmov), (3, 0, 8));
    }
}
