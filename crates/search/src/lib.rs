//! Enumerative synthesis of branchless sorting kernels — the core
//! contribution of Ullrich & Hack, *Synthesis of Sorting Kernels* (CGO
//! 2025), §3.
//!
//! The synthesizer explores the space of straight-line `mov`/`cmp`/`cmovl`/
//! `cmovg` (or `mov`/`min`/`max`) programs with a Dijkstra-style layered
//! enumeration or an A* best-first search over *sets of register
//! assignments*. Six ingredients (one per subsection of the paper's §3) make
//! the search practical:
//!
//! 1. **Open-state selection** — layered by program length, or best-first by
//!    `g + h` ([`Strategy`], [`Heuristic`]).
//! 2. **Instruction selection** — symmetry-reduced action set, optionally
//!    restricted to precomputed per-assignment optimal first moves
//!    ([`SynthesisConfig::optimal_instrs_only`]).
//! 3. **Viability** — erased-value detection and a per-assignment
//!    remaining-budget check against the precomputed [`DistanceTable`].
//! 4. **Correctness** — a state is a goal when every register assignment is
//!    sorted.
//! 5. **Cuts** — the non-optimality-preserving permutation-count cut
//!    ([`Cut`]).
//! 6. **Deduplication** — canonical hashing of assignment sets; every
//!    minimal-length parent edge is kept, so the search produces a DAG whose
//!    root-to-goal paths are exactly the distinct optimal kernels
//!    ([`SolutionDag`]).
//!
//! # Quick start
//!
//! ```
//! use sortsynth_isa::{IsaMode, Machine};
//! use sortsynth_search::{synthesize, SynthesisConfig};
//!
//! // Synthesize an optimal kernel sorting 2 values (the 4-instruction CAS).
//! let machine = Machine::new(2, 1, IsaMode::Cmov);
//! let result = synthesize(&SynthesisConfig::best(machine.clone()));
//! let kernel = result.first_program().expect("a kernel exists");
//! assert_eq!(kernel.len(), 4);
//! assert!(machine.is_correct(&kernel));
//! ```

mod bucket;
mod budget;
mod config;
mod distance;
mod engine;
mod heuristics;
mod intern;
mod layered;
mod live;
mod lower_bound;
mod progress;
mod shard;
mod sizing;
mod solutions;
mod spill;
mod state;
mod stats;

pub use bucket::BucketQueue;
pub use budget::{CancelHandle, SearchBudget};
pub use config::{Cut, Heuristic, Strategy, SynthesisConfig};
pub use distance::{ActionSet, DistanceTable, UNSORTABLE};
pub use engine::{
    synthesize, try_synthesize, Outcome, ProgressSample, SolutionDag, SynthesisResult,
};
pub use live::{LiveSpace, NONE};
pub use lower_bound::{prove_no_solution, prove_optimal_length, BoundVerdict, LowerBoundResult};
pub use progress::{ProgressHook, SearchProgress};
pub use solutions::{
    command_signature, distinct_command_signatures, sample_lowest_strata, score_strata,
};
pub use spill::ResumeError;
pub use state::{live_key, narrow_key, StateSet};
pub use stats::{SearchStats, ShardStats};

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::{IsaMode, Machine};

    fn check_kernel(machine: &Machine, cfg: SynthesisConfig, expected_len: u32) {
        let result = synthesize(&cfg);
        assert_eq!(
            result.found_len,
            Some(expected_len),
            "outcome {:?}, stats {:?}",
            result.outcome,
            result.stats
        );
        let prog = result.first_program().expect("solution");
        assert_eq!(prog.len() as u32, expected_len);
        assert!(
            machine.is_correct(&prog),
            "{}",
            machine.format_program(&prog)
        );
    }

    #[test]
    fn n2_layered_finds_optimal_cas() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        check_kernel(&m, SynthesisConfig::new(m.clone()), 4);
    }

    #[test]
    fn n2_astar_variants_find_optimal_cas() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        for heuristic in [
            Heuristic::None,
            Heuristic::PermCount,
            Heuristic::AssignCount,
            Heuristic::MaxRemaining,
        ] {
            check_kernel(
                &m,
                SynthesisConfig::new(m.clone()).strategy(Strategy::AStar { heuristic }),
                4,
            );
        }
    }

    #[test]
    fn n3_best_config_finds_length_11() {
        // The paper's headline result for n = 3: optimal kernels have 11
        // instructions (§2.3, §5.3).
        let m = Machine::new(3, 1, IsaMode::Cmov);
        check_kernel(&m, SynthesisConfig::best(m.clone()), 11);
    }

    #[test]
    fn n3_layered_certifies_length_11() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let cfg = SynthesisConfig::new(m.clone())
            .budget_viability(true)
            .max_len(11);
        let result = synthesize(&cfg);
        assert_eq!(result.found_len, Some(11));
        assert!(result.minimal_certified);
    }

    #[test]
    fn n3_minmax_finds_length_8() {
        // §5.4: the synthesized min/max kernel for n = 3 has 8 instructions
        // (one movdqa shorter than the 9-instruction sorting network).
        let m = Machine::new(3, 1, IsaMode::MinMax);
        check_kernel(&m, SynthesisConfig::best(m.clone()), 8);
    }

    #[test]
    fn n2_all_solutions_dag_counts_paths() {
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let cfg = SynthesisConfig::new(m.clone()).all_solutions(true);
        let result = synthesize(&cfg);
        assert_eq!(result.outcome, Outcome::SolvedAll);
        let count = result.solution_count();
        assert!(count >= 1);
        let progs = result.dag.programs(usize::MAX);
        assert_eq!(progs.len() as u64, count, "enumeration matches DP count");
        for p in &progs {
            assert_eq!(p.len(), 4);
            assert!(m.is_correct(p), "{}", m.format_program(p));
        }
        // All enumerated programs are distinct.
        let mut unique = progs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), progs.len());
    }

    #[test]
    fn cut_prunes_search() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let uncut = synthesize(
            &SynthesisConfig::new(m.clone())
                .strategy(Strategy::AStar {
                    heuristic: Heuristic::PermCount,
                })
                .budget_viability(true)
                .max_len(11),
        );
        let cut = synthesize(
            &SynthesisConfig::new(m.clone())
                .strategy(Strategy::AStar {
                    heuristic: Heuristic::PermCount,
                })
                .budget_viability(true)
                .cut(Cut::Factor(1.0))
                .max_len(11),
        );
        assert_eq!(uncut.found_len, Some(11));
        assert_eq!(cut.found_len, Some(11));
        assert!(
            cut.stats.generated <= uncut.stats.generated,
            "cut {} vs uncut {}",
            cut.stats.generated,
            uncut.stats.generated
        );
    }

    #[test]
    fn parallel_layered_agrees_with_serial() {
        let m = Machine::new(2, 2, IsaMode::Cmov);
        let serial = synthesize(&SynthesisConfig::new(m.clone()));
        let parallel = synthesize(&SynthesisConfig::new(m.clone()).threads(4));
        assert_eq!(serial.found_len, parallel.found_len);
        assert_eq!(parallel.stats.shards.len(), 4);
    }

    #[test]
    fn node_limit_stops_search() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let result = synthesize(&SynthesisConfig::new(m).node_limit(10));
        assert_eq!(result.outcome, Outcome::NodeLimit);
        assert!(result.found_len.is_none());
    }

    #[test]
    fn progress_samples_recorded() {
        let m = Machine::new(3, 1, IsaMode::Cmov);
        let result = synthesize(&SynthesisConfig::best(m).progress_every(1));
        assert!(!result.stats.progress.is_empty());
    }
}
