//! Exhaustive lower-bound proofs on kernel length (§5.3).
//!
//! The paper establishes that the shortest n = 4 kernel has exactly 20
//! instructions by exhaustively enumerating the length-19 space and finding
//! no solution. This module packages that methodology: an
//! optimality-preserving exhaustion of all programs up to a length bound.

use std::time::Duration;

use sortsynth_isa::Machine;

use crate::config::{Strategy, SynthesisConfig};
use crate::engine::{synthesize, Outcome};
use crate::stats::SearchStats;

/// Verdict of a lower-bound exhaustion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundVerdict {
    /// The space of programs of length ≤ the bound holds no sorting kernel:
    /// the bound is proven strict (`optimal > bound`).
    NoSolution,
    /// A kernel of length ≤ the bound exists (a witness was found).
    SolutionExists,
    /// The exhaustion hit a node or time budget before finishing; nothing is
    /// proven.
    Inconclusive,
}

/// Result of [`prove_no_solution`].
#[derive(Debug, Clone)]
pub struct LowerBoundResult {
    /// The inclusive length bound that was exhausted.
    pub bound: u32,
    /// What the run established.
    pub verdict: BoundVerdict,
    /// Search counters.
    pub stats: SearchStats,
}

/// Exhaustively searches all programs of length ≤ `bound` (layered search,
/// optimality-preserving pruning only: deduplication plus the per-assignment
/// budget check, both of which never discard the last representative of a
/// solution class).
///
/// Returns [`BoundVerdict::NoSolution`] iff the space was fully exhausted
/// without finding a kernel — the paper's method for proving the length-20
/// optimum at n = 4. Pass `node_limit`/`time_limit` to bound the attempt;
/// hitting a limit yields [`BoundVerdict::Inconclusive`].
pub fn prove_no_solution(
    machine: &Machine,
    bound: u32,
    node_limit: Option<u64>,
    time_limit: Option<Duration>,
) -> LowerBoundResult {
    let mut cfg = SynthesisConfig::new(machine.clone())
        .strategy(Strategy::Layered)
        .budget_viability(true)
        .max_len(bound);
    cfg.node_limit = node_limit;
    cfg.time_limit = time_limit;
    debug_assert!(cfg.guarantees_minimal());

    let result = synthesize(&cfg);
    let verdict = match result.outcome {
        Outcome::Exhausted => BoundVerdict::NoSolution,
        Outcome::Solved | Outcome::SolvedAll => BoundVerdict::SolutionExists,
        Outcome::NodeLimit | Outcome::TimeLimit | Outcome::Cancelled => BoundVerdict::Inconclusive,
    };
    LowerBoundResult {
        bound,
        verdict,
        stats: result.stats,
    }
}

/// Proves that `len` is the exact optimal kernel length for `machine`:
/// exhausts length `len - 1` (no solution) and synthesizes a witness at
/// `len`.
///
/// Returns `None` if either phase hit the given budgets.
pub fn prove_optimal_length(
    machine: &Machine,
    len: u32,
    node_limit: Option<u64>,
    time_limit: Option<Duration>,
) -> Option<bool> {
    let below = prove_no_solution(machine, len - 1, node_limit, time_limit);
    match below.verdict {
        BoundVerdict::Inconclusive => return None,
        BoundVerdict::SolutionExists => return Some(false),
        BoundVerdict::NoSolution => {}
    }
    let mut cfg = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .max_len(len);
    cfg.node_limit = node_limit;
    cfg.time_limit = time_limit;
    let at = synthesize(&cfg);
    match at.outcome {
        Outcome::Solved | Outcome::SolvedAll => Some(true),
        Outcome::Exhausted => Some(false),
        Outcome::NodeLimit | Outcome::TimeLimit | Outcome::Cancelled => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    #[test]
    fn n2_cmov_optimum_is_four() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        assert_eq!(
            prove_no_solution(&m, 3, None, None).verdict,
            BoundVerdict::NoSolution
        );
        assert_eq!(
            prove_no_solution(&m, 4, None, None).verdict,
            BoundVerdict::SolutionExists
        );
        assert_eq!(prove_optimal_length(&m, 4, None, None), Some(true));
        assert_eq!(prove_optimal_length(&m, 5, None, None), Some(false));
    }

    #[test]
    fn n2_minmax_optimum_is_three() {
        let m = Machine::new(2, 1, IsaMode::MinMax);
        assert_eq!(prove_optimal_length(&m, 3, None, None), Some(true));
    }

    /// The n = 4 min/max optimum, 15, by exhausting length 14 (a fraction
    /// of a second in release).
    #[test]
    #[ignore = "seconds in release, minutes in debug; CI runs it with --release"]
    fn n4_minmax_has_no_kernel_of_length_14() {
        let m = Machine::new(4, 1, IsaMode::MinMax);
        assert_eq!(
            prove_no_solution(&m, 14, None, None).verdict,
            BoundVerdict::NoSolution
        );
    }

    #[test]
    fn budget_limits_yield_inconclusive() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let r = prove_no_solution(&m, 10, Some(5), None);
        assert_eq!(r.verdict, BoundVerdict::Inconclusive);
    }
}
