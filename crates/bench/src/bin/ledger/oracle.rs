//! The answer oracle. It shares no code with the search or the verifier:
//! kernels run on `sortsynth_kernels::interp` over full-width integers,
//! inputs are enumerated here, and expected lengths come from the paper.

use sortsynth_isa::{IsaMode, Machine, Program};
use sortsynth_kernels::interpret;

/// Optimal kernel lengths (one scratch register) as published: §2.3 and
/// §5.3 for cmp/cmov, §5.4 for min/max, plus the 23-instruction n = 5
/// min/max kernel this repository found beyond the paper's tables.
pub fn expected_len(n: u8, mode: IsaMode) -> Option<usize> {
    match (n, mode) {
        (2, IsaMode::Cmov) => Some(4),
        (2, IsaMode::MinMax) => Some(3),
        (3, IsaMode::Cmov) => Some(11),
        (3, IsaMode::MinMax) => Some(8),
        (4, IsaMode::Cmov) => Some(20),
        (4, IsaMode::MinMax) => Some(15),
        (5, IsaMode::MinMax) => Some(23),
        _ => None,
    }
}

/// Every permutation of `1..=n`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<i32>> {
    let mut current: Vec<i32> = (1..=n as i32).collect();
    let mut out = vec![current.clone()];
    loop {
        let Some(i) = (1..n).rev().find(|&i| current[i - 1] < current[i]) else {
            return out;
        };
        let j = (i..n)
            .rev()
            .find(|&j| current[j] > current[i - 1])
            .expect("pivot exists");
        current.swap(i - 1, j);
        current[i..].reverse();
        out.push(current.clone());
    }
}

/// Every vector in `{0..n-1}^n`: the inputs with tied values.
fn tied_inputs(n: usize) -> Vec<Vec<i32>> {
    let total = n.pow(n as u32);
    (0..total)
        .map(|mut code| {
            (0..n)
                .map(|_| {
                    let digit = (code % n) as i32;
                    code /= n;
                    digit
                })
                .collect()
        })
        .collect()
}

/// Runs `prog` on every permutation of `1..=n` (and, for min/max kernels,
/// on every tied input) and demands sorted output in the value registers.
/// Tied inputs are not checked for cmp/cmov kernels: the paper's
/// correctness domain for them is permutations only.
pub fn sorts_everything(machine: &Machine, prog: &Program) -> Result<(), String> {
    let n = machine.n() as usize;
    let mut inputs = permutations(n);
    if machine.mode() == IsaMode::MinMax {
        inputs.extend(tied_inputs(n));
    }
    for input in inputs {
        let mut data = input.clone();
        interpret(machine, prog, &mut data);
        let mut want = input.clone();
        want.sort_unstable();
        if data[..n] != want[..] {
            return Err(format!("input {input:?} came out as {:?}", &data[..n]));
        }
    }
    Ok(())
}

/// Checks one returned kernel: parses it for `machine`, runs it on every
/// input, and compares its length with the published optimum.
pub fn check_kernel(machine: &Machine, text: &str) -> Result<Program, String> {
    let prog = machine
        .parse_program(text)
        .map_err(|e| format!("unparseable kernel: {e}"))?;
    sorts_everything(machine, &prog)?;
    if let Some(want) = expected_len(machine.n(), machine.mode()) {
        if prog.len() != want {
            return Err(format!("length {} but the optimum is {want}", prog.len()));
        }
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_kernels::reference::{paper_synth_cmov3, paper_synth_minmax3};

    #[test]
    fn accepts_the_papers_kernels_and_rejects_a_truncated_one() {
        let (machine, prog) = paper_synth_cmov3();
        let text = machine.format_program(&prog);
        assert!(check_kernel(&machine, &text).is_ok());
        let truncated = machine.format_program(&prog[..prog.len() - 1]);
        let err = check_kernel(&machine, &truncated).unwrap_err();
        assert!(err.starts_with("input"), "{err}");

        let (machine, prog) = paper_synth_minmax3();
        assert!(check_kernel(&machine, &machine.format_program(&prog)).is_ok());
    }

    #[test]
    fn input_sets_are_complete() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(5).len(), 120);
        assert_eq!(tied_inputs(3).len(), 27);
        assert!(tied_inputs(3).contains(&vec![2, 0, 2]));
        let mut distinct = permutations(4);
        distinct.dedup();
        assert_eq!(distinct.len(), 24);
    }
}
