//! Best-first search at any thread count.
//!
//! The single-thread A* traces are pinned exactly by `golden_trace.rs`
//! (whose constants were recorded while the bucketed open list still ran
//! against a reference `BinaryHeap`; the queue-level comparison lives on in
//! `proptest_search.rs`). Best-first pop order has no layers for the
//! layered round loop to synchronize on, so an A* run asking for more
//! threads runs on the best-first driver's one shard: every row here
//! asserts that route (no per-shard counter blocks), the single-thread
//! optimal cost,
//! and a kernel the sortsynth-verify gate (exhaustive n! permutation oracle
//! at these sizes) accepts.

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{
    synthesize, Heuristic, Outcome, Strategy, SynthesisConfig, SynthesisResult,
};

/// Lossless best-first configurations for `machine`, labelled. Unlike the
/// layered rows of `parallel_equivalence`, every row here runs
/// [`Strategy::AStar`]. Both heuristics are admissible, and the dead-write
/// cut is lossless, so every thread count must agree on the optimal cost.
fn astar_configs(machine: &Machine, bound: u32) -> Vec<(&'static str, SynthesisConfig)> {
    let astar = |heuristic| Strategy::AStar { heuristic };
    let base = || SynthesisConfig::new(machine.clone()).max_len(bound);
    let guided = || {
        base()
            .budget_viability(true)
            .strategy(astar(Heuristic::MaxRemaining))
    };
    vec![
        ("ucs", base().strategy(astar(Heuristic::None))),
        (
            "ucs+dead-write",
            base().strategy(astar(Heuristic::None)).dead_write_cut(true),
        ),
        ("maxrem", guided()),
        ("maxrem+dead-write", guided().dead_write_cut(true)),
    ]
}

/// Oracle-verifies the kernel (when one was found) against the machine.
fn check_kernel(machine: &Machine, label: &str, result: &SynthesisResult) {
    if let Some(len) = result.found_len {
        let prog = result.first_program().expect("found_len implies a program");
        assert_eq!(prog.len() as u32, len, "{label}");
        sortsynth_verify::gate(machine, &prog)
            .unwrap_or_else(|e| panic!("{label}: oracle rejected kernel: {e:?}"));
    }
}

/// Asserts that `result` ran on one shard (the best-first driver).
fn assert_single_shard(label: &str, result: &SynthesisResult) {
    assert!(
        result.stats.shards.is_empty(),
        "{label}: best-first runs take the best-first driver's one shard"
    );
}

/// Runs `cfg` on one thread and at every count in `threads`, asserting the
/// runs take the best-first driver and land on the single-thread cost
/// with correct kernels.
fn assert_threads_agree(machine: &Machine, label: &str, cfg: &SynthesisConfig, threads: &[usize]) {
    let sequential = synthesize(cfg);
    check_kernel(machine, &format!("{label}@1"), &sequential);
    for &t in threads {
        let result = synthesize(&cfg.clone().threads(t));
        assert_single_shard(&format!("{label}@{t}"), &result);
        assert_eq!(
            result.found_len, sequential.found_len,
            "{label}@{t}: diverged from sequential ({:?})",
            result.outcome
        );
        check_kernel(machine, &format!("{label}@{t}"), &result);
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n2_both_isas_full_matrix() {
    for mode in [IsaMode::Cmov, IsaMode::MinMax] {
        let machine = Machine::new(2, 1, mode);
        let bound = match mode {
            IsaMode::Cmov => 4,
            IsaMode::MinMax => 3,
        };
        for (label, cfg) in astar_configs(&machine, bound) {
            assert_threads_agree(&machine, &format!("n2 {mode:?} {label}"), &cfg, &[2, 4]);
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_minmax_full_matrix() {
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    for (label, cfg) in astar_configs(&machine, 8) {
        assert_threads_agree(&machine, &format!("n3 MinMax {label}"), &cfg, &[2, 4]);
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_cmov_guided_rows() {
    // The unguided n = 3 cmov space is minutes-deep in debug mode; the
    // MaxRemaining rows finish in seconds and still exercise both
    // dead-write settings. The unguided axis is covered at n = 2 and
    // n = 3 minmax above.
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let rows: Vec<_> = astar_configs(&machine, 11)
        .into_iter()
        .filter(|(label, _)| label.starts_with("maxrem"))
        .collect();
    assert_eq!(rows.len(), 2);
    for (label, cfg) in rows {
        assert_threads_agree(&machine, &format!("n3 Cmov {label}"), &cfg, &[2]);
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n4_minmax_guided_row() {
    let machine = Machine::new(4, 1, IsaMode::MinMax);
    let cfg = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .strategy(Strategy::AStar {
            heuristic: Heuristic::MaxRemaining,
        })
        .max_len(15);
    assert_threads_agree(&machine, "n4 MinMax maxrem", &cfg, &[4]);
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn repeated_astar_at_eight_threads_runs_single_shard() {
    // The same A* search 20 times at 8 threads: every run must take the
    // best-first driver's one shard and land on the single-thread optimal cost with
    // an oracle-accepted kernel.
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    let cfg = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .strategy(Strategy::AStar {
            heuristic: Heuristic::MaxRemaining,
        })
        .max_len(8);
    let reference = synthesize(&cfg);
    let expected = reference.found_len.expect("n3 minmax solves");
    assert_eq!(expected, 8);

    for run in 0..20 {
        let result = synthesize(&cfg.clone().threads(8));
        assert_single_shard(&format!("run {run}"), &result);
        assert_eq!(
            result.found_len,
            Some(expected),
            "run {run}: cost diverged ({:?})",
            result.outcome
        );
        check_kernel(&machine, &format!("stress run {run}"), &result);
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn oversized_machine_runs_best_first_single_shard_at_any_thread_count() {
    // Regression: a machine past the distance table's action limit takes
    // the no-table fallback, whose f-values outgrow the open list's sizing
    // estimate; the best-first driver must not trip over it at any
    // thread count. The layered setup path for the same machine is
    // covered by `parallel_equivalence`'s layered
    // `oversized_machine_synthesizes_in_parallel_without_panic`.
    let machine = Machine::new(2, 8, IsaMode::Cmov);
    assert!(!sortsynth_search::DistanceTable::supports(&machine));
    for t in [1usize, 4] {
        let cfg = SynthesisConfig::new(machine.clone())
            .strategy(Strategy::AStar {
                heuristic: Heuristic::None,
            })
            .max_len(4)
            .threads(t);
        let result = synthesize(&cfg);
        assert_single_shard(&format!("oversized @{t}"), &result);
        assert_eq!(result.found_len, Some(4), "@{t}");
        assert_eq!(result.outcome, Outcome::Solved, "@{t}");
        check_kernel(&machine, &format!("oversized @{t}"), &result);
    }
}
