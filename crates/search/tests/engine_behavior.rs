//! Behavioral tests of the search engine through its public API: outcomes,
//! bounds, statistics, and solution-DAG invariants.

use std::time::Duration;

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{synthesize, Cut, Heuristic, Outcome, Strategy, SynthesisConfig};

fn m2() -> Machine {
    Machine::new(2, 1, IsaMode::Cmov)
}

#[test]
fn too_small_length_bound_exhausts() {
    let result = synthesize(&SynthesisConfig::new(m2()).budget_viability(true).max_len(3));
    assert_eq!(result.outcome, Outcome::Exhausted);
    assert_eq!(result.found_len, None);
    assert!(result.first_program().is_none());
    assert_eq!(result.solution_count(), 0);
}

#[test]
fn exact_length_bound_still_finds_the_kernel() {
    let result = synthesize(&SynthesisConfig::new(m2()).budget_viability(true).max_len(4));
    assert_eq!(result.found_len, Some(4));
    assert!(result.minimal_certified);
}

#[test]
fn zero_time_limit_reports_time_limit() {
    let result = synthesize(
        &SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov)).time_limit(Duration::ZERO),
    );
    assert_eq!(result.outcome, Outcome::TimeLimit);
}

#[test]
fn stats_are_internally_consistent() {
    let result = synthesize(&SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov)));
    let s = &result.stats;
    assert!(s.generated >= s.states_kept);
    assert!(s.expanded <= s.states_kept, "only kept states are expanded");
    // Every generated successor is accounted for exactly once: pruned by
    // viability or the cut, deduplicated, or kept as a fresh node (the root
    // is kept but never generated).
    assert_eq!(
        s.generated,
        s.viability_pruned + s.cut_pruned + s.dedup_hits + (s.states_kept - 1),
        "pruning counters partition the generated states"
    );
    assert!(
        s.distance_build > Duration::ZERO,
        "best config builds the table"
    );
}

#[test]
fn minmax_all_solutions_are_distinct_and_correct() {
    let machine = Machine::new(2, 1, IsaMode::MinMax);
    let result = synthesize(
        &SynthesisConfig::new(machine.clone())
            .budget_viability(true)
            .all_solutions(true)
            .max_len(3),
    );
    assert_eq!(result.outcome, Outcome::SolvedAll);
    let programs = result.dag.programs(usize::MAX);
    assert_eq!(programs.len() as u64, result.solution_count());
    assert!(!programs.is_empty());
    for prog in &programs {
        assert_eq!(prog.len(), 3);
        assert!(machine.is_correct(prog));
    }
    let mut unique = programs.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), programs.len());
}

#[test]
fn program_extraction_respects_the_limit() {
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let result = synthesize(
        &SynthesisConfig::new(machine)
            .budget_viability(true)
            .cut(Cut::Factor(1.0))
            .all_solutions(true)
            .max_len(11),
    );
    let total = result.solution_count();
    assert!(total > 10);
    assert_eq!(result.dag.programs(7).len(), 7);
    assert_eq!(result.dag.programs(usize::MAX).len() as u64, total);
    assert_eq!(result.dag.programs(0).len(), 0);
}

#[test]
fn additive_cut_behaves_like_a_loose_factor() {
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let strict = synthesize(
        &SynthesisConfig::new(machine.clone())
            .budget_viability(true)
            .cut(Cut::Factor(1.0))
            .all_solutions(true)
            .max_len(11),
    );
    let additive = synthesize(
        &SynthesisConfig::new(machine)
            .budget_viability(true)
            .cut(Cut::Additive(2))
            .all_solutions(true)
            .max_len(11),
    );
    assert!(additive.solution_count() >= strict.solution_count());
}

#[test]
fn astar_with_admissible_heuristic_certifies_minimality() {
    let result = synthesize(&SynthesisConfig::new(m2()).strategy(Strategy::AStar {
        heuristic: Heuristic::MaxRemaining,
    }));
    assert_eq!(result.found_len, Some(4));
    assert!(result.minimal_certified);
}

#[test]
fn every_extracted_program_has_the_reported_length() {
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    let result = synthesize(
        &SynthesisConfig::new(machine.clone())
            .budget_viability(true)
            .all_solutions(true)
            .max_len(8),
    );
    assert_eq!(result.found_len, Some(8));
    for prog in result.dag.programs(200) {
        assert_eq!(prog.len(), 8);
        assert!(machine.is_correct(&prog));
    }
}

#[test]
fn goal_states_have_multiple_parents_in_all_solutions_mode() {
    // The DAG must carry more programs than goal states (many programs per
    // final state).
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let result = synthesize(
        &SynthesisConfig::new(machine)
            .budget_viability(true)
            .cut(Cut::Factor(1.0))
            .all_solutions(true)
            .max_len(11),
    );
    assert!(result.solution_count() > result.dag.goal_states() as u64);
}

#[test]
fn oversized_machine_searches_without_the_distance_table() {
    // 10 registers put the action count past the distance table's 256-action
    // bitset; the distance-based aids must be skipped, not panic. The CAS
    // still needs 4 instructions, so a bound of 3 exhausts.
    let machine = Machine::new(2, 8, IsaMode::Cmov);
    assert!(!sortsynth_search::DistanceTable::supports(&machine));
    let result = synthesize(
        &SynthesisConfig::new(machine)
            .optimal_instrs_only(true)
            .budget_viability(true)
            .max_len(3),
    );
    assert_eq!(result.outcome, Outcome::Exhausted);
    assert_eq!(result.found_len, None);
    // The silent fallback is surfaced in the stats instead of being
    // inferable only from a missing `distance_build` time.
    assert!(result.stats.distance_table_skipped);
}

#[test]
fn distance_table_skipped_is_false_when_the_table_is_built_or_unneeded() {
    let best = synthesize(&SynthesisConfig::best(Machine::new(2, 1, IsaMode::Cmov)));
    assert!(!best.stats.distance_table_skipped);
    // A plain config never asks for the table, even on an oversized machine.
    let plain = synthesize(&SynthesisConfig::new(Machine::new(2, 8, IsaMode::Cmov)).max_len(2));
    assert!(!plain.stats.distance_table_skipped);
}

#[test]
fn dead_write_cut_preserves_optimal_cost() {
    // Acceptance criterion: enabling the liveness-based dead-write cut must
    // not change the optimal kernel length for n = 2..3 in either ISA mode.
    // With no other cut active the pruned states provably equal states one
    // layer shorter, so this also holds with a minimality guarantee.
    for mode in [IsaMode::Cmov, IsaMode::MinMax] {
        for n in 2..=3u8 {
            let machine = Machine::new(n, 1, mode);
            let base = synthesize(&SynthesisConfig::new(machine.clone()).budget_viability(true));
            let cut = synthesize(
                &SynthesisConfig::new(machine.clone())
                    .budget_viability(true)
                    .dead_write_cut(true),
            );
            assert_eq!(
                base.found_len, cut.found_len,
                "dead-write cut changed optimal cost for n={n} {mode:?}"
            );
            assert_eq!(base.stats.dead_write_pruned, 0);
            assert!(
                cut.stats.dead_write_pruned > 0,
                "cut never fired for n={n} {mode:?}"
            );
            assert!(cut.stats.generated < base.stats.generated);
            let kernel = cut.first_program().expect("kernel found");
            assert!(machine.is_correct(&kernel));

            // Same invariance under the paper's best configuration.
            let best = synthesize(&SynthesisConfig::best(machine.clone()));
            let best_cut = synthesize(&SynthesisConfig::best(machine).dead_write_cut(true));
            assert_eq!(best.found_len, best_cut.found_len);
        }
    }
}

#[test]
fn cancelled_search_flushes_final_progress_and_counts_cancellation() {
    use std::sync::{Arc, Mutex};

    use sortsynth_search::{ProgressHook, SearchBudget, SearchProgress};

    let cancelled_before =
        sortsynth_obs::registry().counter_value(sortsynth_obs::names::SEARCH_CANCELLED_TOTAL);

    // A search space far beyond any test budget (no pruning aids, generous
    // length bound), cancelled from another thread mid-flight.
    let machine = Machine::new(4, 1, IsaMode::Cmov);
    let (budget, cancel) = SearchBudget::unlimited().cancellable();
    let snapshots: Arc<Mutex<Vec<SearchProgress>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&snapshots);
    let config = SynthesisConfig::new(machine)
        .max_len(15)
        .search_budget(budget)
        .progress_every(1024)
        .progress_hook(ProgressHook::new(move |p: &SearchProgress| {
            sink.lock().unwrap().push(p.clone());
        }));
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        cancel.cancel();
    });
    let result = synthesize(&config);
    canceller.join().unwrap();
    assert_eq!(result.outcome, Outcome::Cancelled);

    // The final progress snapshot is flushed even though the search was
    // aborted: exactly one `finished` event, carrying the cancelled outcome
    // and the engine's definitive expansion count.
    let snapshots = snapshots.lock().unwrap();
    let finished: Vec<_> = snapshots.iter().filter(|p| p.finished).collect();
    assert_eq!(finished.len(), 1, "exactly one final snapshot");
    let last = snapshots.last().expect("at least the final snapshot");
    assert!(last.finished, "final snapshot comes last");
    assert_eq!(last.outcome.as_deref(), Some("Cancelled"));
    assert_eq!(last.expanded, result.stats.expanded);
    assert_eq!(last.generated, result.stats.generated);

    assert_eq!(
        sortsynth_obs::registry().counter_value(sortsynth_obs::names::SEARCH_CANCELLED_TOTAL)
            - cancelled_before,
        1,
        "cancellation must increment search_cancelled_total"
    );
}
