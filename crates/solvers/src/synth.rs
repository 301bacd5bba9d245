//! Solver-based synthesis front-ends: SMT-Perm, SMT-CEGIS, and the CP
//! variants (§4.1, §4.2).

use std::time::{Duration, Instant};

use sortsynth_isa::{Machine, Program, Reg};
use sortsynth_obs::{names, FieldValue, Level};
use sortsynth_sat::{SolveResult, Solver};
use sortsynth_search::SearchBudget;

use crate::encoding::{encode, EncodeOptions};

/// Publishes one solver call's CDCL totals to the process-wide metrics and,
/// when tracing is active, emits a per-iteration `cegis_iteration` event.
/// The SAT core itself stays dependency-free; this front-end is the one
/// place its counters meet the observability layer.
fn report_solver_round(solver: &Solver, iteration: u32, tests: usize, result: SolveResult) {
    names::counter(names::SAT_CONFLICTS_TOTAL).add(solver.conflicts());
    names::counter(names::SAT_RESTARTS_TOTAL).add(solver.restarts());
    names::counter(names::SAT_LEARNED_CLAUSES_TOTAL).add(solver.num_learnt() as u64);
    if sortsynth_obs::enabled() {
        sortsynth_obs::trace::event(
            Level::Debug,
            "cegis_iteration",
            &[
                ("iteration", FieldValue::U64(iteration as u64)),
                ("tests", FieldValue::U64(tests as u64)),
                ("conflicts", FieldValue::U64(solver.conflicts())),
                ("restarts", FieldValue::U64(solver.restarts())),
                ("learned", FieldValue::U64(solver.num_learnt() as u64)),
                ("result", FieldValue::Str(format!("{result:?}"))),
            ],
        );
    }
}

/// Resource budget shared by all solver front-ends.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Conflict limit per solver call.
    pub conflicts: Option<u64>,
    /// Wall-clock limit for the whole synthesis run.
    pub timeout: Option<Duration>,
    /// Cooperative budget shared with the rest of the system: its deadline
    /// caps this run like `timeout` does, and its cancellation flags are
    /// polled *inside* the SAT core, so a portfolio race can stop a losing
    /// solver arm mid-solve instead of abandoning the thread.
    pub shared: SearchBudget,
}

impl Budget {
    /// A wall-clock-only budget.
    pub fn with_timeout(timeout: Duration) -> Self {
        Budget {
            conflicts: None,
            timeout: Some(timeout),
            shared: SearchBudget::unlimited(),
        }
    }

    /// A budget driven entirely by a shared cooperative [`SearchBudget`].
    pub fn with_shared(shared: SearchBudget) -> Self {
        Budget {
            conflicts: None,
            timeout: None,
            shared,
        }
    }

    /// Remaining wall-clock time under both the local timeout (relative to
    /// `start`) and the shared budget's absolute deadline; `None` when
    /// neither bounds the run.
    fn remaining(&self, start: Instant) -> Option<Duration> {
        let local = self
            .timeout
            .map(|t| (start + t).saturating_duration_since(Instant::now()));
        match (local, self.shared.remaining()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Outcome of a solver-based synthesis attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthOutcome {
    /// A correct program of the requested length.
    Found(Program),
    /// Proven: no program of the requested length exists (under the chosen
    /// symmetry toggles).
    NoProgram,
    /// The budget expired first (the paper's "—" table entries).
    Budget,
}

/// Statistics for one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// CEGIS iterations (1 for one-shot).
    pub iterations: u32,
    /// Test cases in the final encoding.
    pub tests_used: usize,
    /// CDCL conflicts summed over every solver call this run made.
    pub conflicts: u64,
}

/// SMT-Perm (§4.1): a single query with *all* `n!` permutations as test
/// cases. Any model is guaranteed correct.
pub fn smt_perm(
    machine: &Machine,
    len: u32,
    opts: EncodeOptions,
    budget: Budget,
) -> (SynthOutcome, SynthStats) {
    let start = Instant::now();
    let tests = sortsynth_isa::permutations(machine.n());
    if budget.shared.is_exhausted() {
        return (
            SynthOutcome::Budget,
            SynthStats {
                tests_used: tests.len(),
                iterations: 1,
                ..SynthStats::default()
            },
        );
    }
    let mut enc = encode(machine, len, &tests, opts);
    enc.solver.set_stop_flags(budget.shared.stop_flags());
    let result = enc
        .solver
        .solve_budgeted(budget.conflicts, budget.remaining(start));
    report_solver_round(&enc.solver, 1, tests.len(), result);
    let outcome = match result {
        SolveResult::Sat => SynthOutcome::Found(enc.decode()),
        SolveResult::Unsat => SynthOutcome::NoProgram,
        SolveResult::Unknown => SynthOutcome::Budget,
    };
    let stats = SynthStats {
        elapsed: start.elapsed(),
        iterations: 1,
        tests_used: tests.len(),
        conflicts: enc.solver.conflicts(),
    };
    (outcome, stats)
}

/// The CEGIS counterexample domain (§5.2's two SMT-CEGIS rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CegisDomain {
    /// Counterexamples restricted to permutations of `1..=n` (the paper's
    /// faster variant).
    Permutations,
    /// Arbitrary inputs: any tuple over `1..=n`, duplicates allowed.
    Arbitrary,
}

/// SMT-CEGIS (§4.1): synthesize against a growing set of counterexamples.
///
/// Starts from the single reversed input, asks the encoder for a candidate,
/// checks the candidate on the full input domain, and adds the first
/// failing input as a new test case until the candidate verifies.
pub fn smt_cegis(
    machine: &Machine,
    len: u32,
    domain: CegisDomain,
    opts: EncodeOptions,
    budget: Budget,
) -> (SynthOutcome, SynthStats) {
    let start = Instant::now();
    let mut tests: Vec<Vec<u8>> = vec![(1..=machine.n()).rev().collect()];
    let mut iterations = 0u32;
    let mut conflicts = 0u64;
    // Phase saving across solver instances: each iteration re-encodes from
    // scratch, so within-solver phase saving alone forgets everything the
    // previous iteration learned about polarities. Seeding the new solver's
    // instruction-selection phases from the previous candidate model makes
    // the next search start at (a neighbourhood of) the last candidate —
    // solution-guided search, in the phase-saving sense of keeping the last
    // polarity per variable alive across restarts *and* re-encodes.
    let mut prev_model: Option<Vec<bool>> = None;
    let stats = |iterations, tests: usize, conflicts| SynthStats {
        elapsed: start.elapsed(),
        iterations,
        tests_used: tests,
        conflicts,
    };
    loop {
        iterations += 1;
        let remaining = budget.remaining(start);
        if remaining == Some(Duration::ZERO) || budget.shared.is_cancelled() {
            return (
                SynthOutcome::Budget,
                stats(iterations, tests.len(), conflicts),
            );
        }
        let mut enc = encode(machine, len, &tests, opts);
        enc.solver.set_stop_flags(budget.shared.stop_flags());
        if opts.phase_saving {
            if let Some(model) = &prev_model {
                for (var, &value) in enc.instr_vars.iter().flatten().zip(model.iter()) {
                    enc.solver.set_phase(*var, value);
                }
            }
        }
        let result = enc.solver.solve_budgeted(budget.conflicts, remaining);
        conflicts += enc.solver.conflicts();
        report_solver_round(&enc.solver, iterations, tests.len(), result);
        names::counter(names::CEGIS_ITERATIONS_TOTAL).inc();
        match result {
            SolveResult::Unsat => {
                return (
                    SynthOutcome::NoProgram,
                    stats(iterations, tests.len(), conflicts),
                )
            }
            SolveResult::Unknown => {
                return (
                    SynthOutcome::Budget,
                    stats(iterations, tests.len(), conflicts),
                )
            }
            SolveResult::Sat => {
                let candidate = enc.decode();
                prev_model = Some(
                    enc.instr_vars
                        .iter()
                        .flatten()
                        .map(|&v| enc.solver.value(v) == Some(true))
                        .collect(),
                );
                match find_counterexample(machine, &candidate, domain) {
                    None => {
                        return (
                            SynthOutcome::Found(candidate),
                            stats(iterations, tests.len(), conflicts),
                        )
                    }
                    Some(cex) => tests.push(cex),
                }
            }
        }
    }
}

/// The verification oracle: the first input the candidate fails on.
///
/// For [`CegisDomain::Permutations`] the domain is the `n!` permutations;
/// for [`CegisDomain::Arbitrary`] it is all `n^n` tuples over `1..=n`
/// (constant-free kernels cannot distinguish larger domains, §2.3).
pub fn find_counterexample(
    machine: &Machine,
    prog: &Program,
    domain: CegisDomain,
) -> Option<Vec<u8>> {
    match domain {
        CegisDomain::Permutations => machine.counterexamples(prog).into_iter().next(),
        CegisDomain::Arbitrary => {
            let n = machine.n() as usize;
            let mut tuple = vec![1u8; n];
            loop {
                if !sorts_tuple(machine, prog, &tuple) {
                    return Some(tuple);
                }
                // Next tuple in odometer order.
                let mut i = 0;
                loop {
                    if i == n {
                        return None;
                    }
                    if tuple[i] < machine.n() {
                        tuple[i] += 1;
                        break;
                    }
                    tuple[i] = 1;
                    i += 1;
                }
            }
        }
    }
}

/// Whether `prog` sorts the (possibly duplicate-containing) input `tuple`:
/// ascending output that is a permutation of the input multiset.
fn sorts_tuple(machine: &Machine, prog: &Program, tuple: &[u8]) -> bool {
    let out = machine.run(prog, machine.initial_state(tuple));
    let n = machine.n();
    let result: Vec<u8> = (0..n).map(|i| out.reg(Reg::new(i))).collect();
    let mut expected = tuple.to_vec();
    expected.sort_unstable();
    result == expected
}

/// Iterates `len` upward from `min_len` until a program is found; the first
/// hit is length-minimal under the chosen toggles (each shorter length was
/// proven empty).
pub fn synthesize_minimal(
    machine: &Machine,
    min_len: u32,
    max_len: u32,
    opts: EncodeOptions,
    budget: Budget,
) -> (SynthOutcome, SynthStats) {
    let start = Instant::now();
    let mut total_iterations = 0;
    let mut tests_used = 0;
    let mut conflicts = 0u64;
    for len in min_len..=max_len {
        if budget.shared.is_cancelled() {
            break;
        }
        let step_budget = Budget {
            conflicts: budget.conflicts,
            timeout: budget.remaining(start),
            shared: budget.shared.clone(),
        };
        let (outcome, stats) = smt_perm(machine, len, opts, step_budget);
        total_iterations += stats.iterations;
        tests_used = stats.tests_used;
        conflicts += stats.conflicts;
        match outcome {
            SynthOutcome::NoProgram => continue,
            other => {
                return (
                    other,
                    SynthStats {
                        elapsed: start.elapsed(),
                        iterations: total_iterations,
                        tests_used,
                        conflicts,
                    },
                )
            }
        }
    }
    let outcome = if budget.shared.is_cancelled() {
        SynthOutcome::Budget
    } else {
        SynthOutcome::NoProgram
    };
    (
        outcome,
        SynthStats {
            elapsed: start.elapsed(),
            iterations: total_iterations,
            tests_used,
            conflicts,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    fn m2() -> Machine {
        Machine::new(2, 1, IsaMode::Cmov)
    }

    #[test]
    fn smt_perm_finds_n2_kernel() {
        let (outcome, stats) = smt_perm(&m2(), 4, EncodeOptions::default(), Budget::default());
        match outcome {
            SynthOutcome::Found(prog) => assert!(m2().is_correct(&prog)),
            other => panic!("expected Found, got {other:?}"),
        }
        assert_eq!(stats.tests_used, 2);
    }

    #[test]
    fn smt_cegis_permutation_domain() {
        let (outcome, stats) = smt_cegis(
            &m2(),
            4,
            CegisDomain::Permutations,
            EncodeOptions::default(),
            Budget::default(),
        );
        match outcome {
            SynthOutcome::Found(prog) => assert!(m2().is_correct(&prog)),
            other => panic!("expected Found, got {other:?}"),
        }
        assert!(stats.iterations >= 1);
    }

    #[test]
    fn phase_warm_start_cuts_cegis_conflicts() {
        // Cross-iteration phase seeding reuses the previous model as the
        // branching polarity, so iteration k + 1 starts near the last
        // near-solution instead of from scratch. The CDCL solver is
        // deterministic, so the comparison is exact and stable: on these
        // instances warm-starting cuts conflicts by 4-20x (e.g. 400 -> 94
        // at len 4), and any regression to parity is a plumbing bug (the
        // toggle no longer reaching the solver).
        for len in [4, 5, 6] {
            let run = |phase_saving| {
                let opts = EncodeOptions {
                    phase_saving,
                    ..EncodeOptions::default()
                };
                let (outcome, stats) = smt_cegis(
                    &m2(),
                    len,
                    CegisDomain::Permutations,
                    opts,
                    Budget::default(),
                );
                assert!(
                    matches!(outcome, SynthOutcome::Found(_)),
                    "len {len} phase_saving={phase_saving}: {outcome:?}"
                );
                stats.conflicts
            };
            let cold = run(false);
            let warm = run(true);
            assert!(
                warm < cold,
                "len {len}: phase saving must reduce conflicts ({warm} vs {cold})"
            );
        }
    }

    #[test]
    fn smt_cegis_arbitrary_domain_handles_duplicates() {
        let (outcome, _) = smt_cegis(
            &m2(),
            4,
            CegisDomain::Arbitrary,
            EncodeOptions::default(),
            Budget::default(),
        );
        match outcome {
            SynthOutcome::Found(prog) => {
                // Correct on permutations *and* on the duplicate input.
                assert!(m2().is_correct(&prog));
                assert!(sorts_tuple(&m2(), &prog, &[2, 2]));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn synthesize_minimal_proves_4_is_optimal_for_n2() {
        let (outcome, _) =
            synthesize_minimal(&m2(), 1, 5, EncodeOptions::default(), Budget::default());
        match outcome {
            SynthOutcome::Found(prog) => assert_eq!(prog.len(), 4),
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn zero_timeout_reports_budget() {
        let (outcome, _) = smt_perm(
            &m2(),
            4,
            EncodeOptions::default(),
            Budget::with_timeout(Duration::ZERO),
        );
        assert_eq!(outcome, SynthOutcome::Budget);
    }

    #[test]
    fn counterexample_oracle_finds_failures() {
        let machine = m2();
        let empty: Program = vec![];
        assert_eq!(
            find_counterexample(&machine, &empty, CegisDomain::Permutations),
            Some(vec![2, 1])
        );
        let (_, cas) = (
            0,
            machine
                .parse_program("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1")
                .unwrap(),
        );
        assert_eq!(
            find_counterexample(&machine, &cas, CegisDomain::Arbitrary),
            None
        );
    }
}
