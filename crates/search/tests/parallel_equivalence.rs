//! Differential and determinism tests pinning the parallel engine to the
//! sequential one.
//!
//! The equivalence matrix covers n = 2..4 on both ISA modes across the
//! *lossless* pruning configurations (dead-write cut on/off × distance
//! table on/off): for those the parallel search is provably cost-equal to
//! the sequential search, so any divergence is a bug. The §3.5
//! permutation-count cut is deliberately absent from the matrix — its
//! thresholds are not optimality-preserving, so cost equality under racing
//! per-layer minima is checked empirically by the `parallel_speedup` bench
//! (and the release-only `#[ignore]` test below), not asserted here as a
//! theorem.
//!
//! Every synthesized kernel additionally passes the sortsynth-verify gate,
//! which falls back to the exhaustive n! permutation oracle — the parallel
//! engine must not just agree on cost, it must emit *correct* kernels.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{
    synthesize, Outcome, ProgressHook, SearchBudget, SearchProgress, SynthesisConfig,
    SynthesisResult,
};

/// Lossless configurations for `machine`, labelled. `bound` pins `max_len`
/// where the viability budget needs it (and keeps the plain rows small
/// enough for debug-mode CI).
fn lossless_configs(machine: &Machine, bound: u32) -> Vec<(&'static str, SynthesisConfig)> {
    // Viability only — `optimal_instrs_only` (§3.2) is formally
    // non-optimality-preserving and would void the certification check.
    let base = || SynthesisConfig::new(machine.clone()).max_len(bound);
    let table = || base().budget_viability(true);
    vec![
        ("plain", base()),
        ("dead-write", base().dead_write_cut(true)),
        ("table", table()),
        ("table+dead-write", table().dead_write_cut(true)),
    ]
}

/// Runs `cfg` sequentially and at each thread count, asserting identical
/// optimal cost and oracle-verified kernels throughout.
fn assert_equivalent(machine: &Machine, label: &str, cfg: &SynthesisConfig, threads: &[usize]) {
    let sequential = synthesize(cfg);
    check_result(machine, label, 1, &sequential);
    for &t in threads {
        let parallel = synthesize(&cfg.clone().threads(t));
        assert_eq!(
            sequential.found_len, parallel.found_len,
            "{label} diverged at {t} threads (seq {:?}, par {:?})",
            sequential.outcome, parallel.outcome
        );
        assert_eq!(
            parallel.stats.shards.len(),
            t.max(2),
            "{label}: one shard per worker"
        );
        check_result(machine, label, t, &parallel);
    }
}

/// Common per-result assertions: kernel correctness via the exhaustive
/// oracle, certification, and shard-counter aggregation.
fn check_result(machine: &Machine, label: &str, threads: usize, result: &SynthesisResult) {
    if let Some(len) = result.found_len {
        let prog = result.first_program().expect("found_len implies a program");
        assert_eq!(prog.len() as u32, len, "{label}@{threads}");
        sortsynth_verify::gate(machine, &prog)
            .unwrap_or_else(|e| panic!("{label}@{threads}: oracle rejected kernel: {e:?}"));
        assert!(
            result.minimal_certified,
            "{label}@{threads}: lossless layered config must certify"
        );
    }
    let s = &result.stats;
    if !s.shards.is_empty() {
        assert_eq!(
            s.expanded,
            s.shards.iter().map(|sh| sh.expanded).sum::<u64>(),
            "{label}@{threads}: expanded aggregates shards"
        );
        assert_eq!(
            s.generated,
            s.shards.iter().map(|sh| sh.generated).sum::<u64>(),
            "{label}@{threads}: generated aggregates shards"
        );
        assert_eq!(
            s.states_kept,
            s.shards.iter().map(|sh| sh.states_kept).sum::<u64>(),
            "{label}@{threads}: states_kept aggregates shards"
        );
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
        for (label, cfg) in lossless_configs(&machine, bound) {
            assert_equivalent(&machine, &format!("n2 {mode:?} {label}"), &cfg, &[2, 4, 8]);
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_minmax_full_matrix() {
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    for (label, cfg) in lossless_configs(&machine, 8) {
        assert_equivalent(&machine, &format!("n3 MinMax {label}"), &cfg, &[2, 4]);
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_cmov_table_rows() {
    // The plain n = 3 cmov space is minutes-deep in debug mode (the paper's
    // 56 s Dijkstra row); the distance-table rows finish in seconds and
    // still exercise both dead-write settings. The table-off axis is
    // covered at n = 2 and n = 3 minmax above.
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let table = || {
        SynthesisConfig::new(machine.clone())
            .budget_viability(true)
            .max_len(11)
    };
    assert_equivalent(&machine, "n3 Cmov table", &table(), &[2]);
    assert_equivalent(
        &machine,
        "n3 Cmov table+dead-write",
        &table().dead_write_cut(true),
        &[4],
    );
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n4_minmax_table_rows() {
    let machine = Machine::new(4, 1, IsaMode::MinMax);
    let cfg = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .max_len(15);
    assert_equivalent(&machine, "n4 MinMax table", &cfg, &[4]);
}

/// Release-only completion of the matrix: the n = 4 cmov space needs the
/// full best() configuration (including the non-lossless permutation cut)
/// to finish in reasonable time, so this row asserts *empirical* cost
/// equality at every thread count. Run by the CI `parallel-smoke` job with
/// `--release -- --include-ignored`.
#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
#[ignore = "minutes in debug mode; CI runs it with --release"]
fn n4_cmov_best_config_agrees_across_thread_counts() {
    let machine = Machine::new(4, 1, IsaMode::Cmov);
    let cfg = SynthesisConfig::best(machine.clone());
    let sequential = synthesize(&cfg);
    assert_eq!(sequential.found_len, Some(20));
    for t in [2, 4, 8] {
        let parallel = synthesize(&cfg.clone().threads(t));
        assert_eq!(parallel.found_len, Some(20), "diverged at {t} threads");
        let prog = parallel.first_program().expect("kernel");
        sortsynth_verify::gate(&machine, &prog)
            .unwrap_or_else(|e| panic!("oracle rejected n4 kernel at {t} threads: {e:?}"));
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn repeated_oversubscribed_runs_are_interleaving_invariant() {
    // The same sharded search, 20 times, at 8 workers: on a host with fewer
    // cores the workers are oversubscribed, so the scheduler preempts them
    // at different points every run and the thread interleavings genuinely
    // differ. Every run must produce the sequential optimal cost and
    // internally consistent statistics.
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    let cfg = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .max_len(8);
    let sequential = synthesize(&cfg);
    let expected = sequential.found_len.expect("n3 minmax solves");
    assert_eq!(expected, 8);

    for run in 0..20 {
        let result = synthesize(&cfg.clone().threads(8));
        assert_eq!(
            result.found_len,
            Some(expected),
            "run {run}: cost diverged ({:?})",
            result.outcome
        );
        let prog = result.first_program().expect("kernel");
        sortsynth_verify::gate(&machine, &prog)
            .unwrap_or_else(|e| panic!("run {run}: oracle rejected kernel: {e:?}"));

        let s = &result.stats;
        // Lower bounds from the optimal path: every proper prefix of the
        // kernel was expanded and kept.
        assert!(
            s.expanded >= expected as u64,
            "run {run}: expanded {} < {expected}",
            s.expanded
        );
        assert!(
            s.states_kept >= expected as u64,
            "run {run}: kept {} < {expected}",
            s.states_kept
        );
        // No state is counted twice by a shard: every merged candidate has
        // exactly one disposition, and fresh states are kept exactly once
        // (the root is seeded, never merged).
        let merged: u64 = s.shards.iter().map(|sh| sh.merged).sum();
        let dedup: u64 = s.shards.iter().map(|sh| sh.dedup_hits).sum();
        let reopened: u64 = s.shards.iter().map(|sh| sh.reopened).sum();
        let bound: u64 = s.shards.iter().map(|sh| sh.bound_pruned).sum();
        let kept: u64 = s.shards.iter().map(|sh| sh.states_kept).sum();
        assert_eq!(
            merged,
            dedup + reopened + bound + (kept - 1),
            "run {run}: merge dispositions must partition merged candidates"
        );
        assert_eq!(s.states_kept, kept, "run {run}: shard sums match totals");
        assert_eq!(
            s.expanded,
            s.shards.iter().map(|sh| sh.expanded).sum::<u64>(),
            "run {run}"
        );
        // Quiescence drained everything: a candidate routed off-shard is
        // merged by its owner exactly once.
        let routed: u64 = s.shards.iter().map(|sh| sh.routed).sum();
        assert!(
            merged >= routed,
            "run {run}: routed {routed} candidates but merged only {merged}"
        );
    }
}

/// Threads currently alive in this process (Linux).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn cancelled_parallel_search_joins_workers_and_flushes_once() {
    // Satellite 3: a parallel search cancelled mid-flight returns
    // `Cancelled` promptly, leaves no worker thread behind, and emits the
    // final progress snapshot exactly once.
    let machine = Machine::new(4, 1, IsaMode::Cmov);
    let (budget, cancel) = SearchBudget::unlimited().cancellable();
    let snapshots: Arc<Mutex<Vec<SearchProgress>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&snapshots);
    let cfg = SynthesisConfig::new(machine)
        .max_len(15)
        .threads(4)
        .search_budget(budget)
        .progress_every(512)
        .progress_hook(ProgressHook::new(move |p: &SearchProgress| {
            sink.lock().unwrap().push(p.clone());
        }));

    let threads_before = live_threads();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        cancel.cancel();
    });
    let started = Instant::now();
    let result = synthesize(&cfg);
    let elapsed = started.elapsed();
    canceller.join().unwrap();

    assert_eq!(result.outcome, Outcome::Cancelled);
    assert!(result.found_len.is_none());
    assert!(
        elapsed < Duration::from_secs(20),
        "cancellation took {elapsed:?}"
    );
    // All four workers joined before `synthesize` returned: thread count is
    // back to (at most) where it started, canceller aside. /proc/self/task
    // can briefly list a task whose join already completed (the kernel
    // removes the entry asynchronously), so poll for the count to settle
    // instead of sampling once.
    let mut threads_after = live_threads();
    let settle = Instant::now();
    while threads_after > threads_before && settle.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
        threads_after = live_threads();
    }
    assert!(
        threads_after <= threads_before,
        "worker threads leaked: {threads_before} before, {threads_after} after"
    );

    let snapshots = snapshots.lock().unwrap();
    let finished: Vec<_> = snapshots.iter().filter(|p| p.finished).collect();
    assert_eq!(finished.len(), 1, "exactly one final snapshot");
    assert_eq!(finished[0].outcome.as_deref(), Some("Cancelled"));
    let last = snapshots.last().expect("at least the final snapshot");
    assert!(last.finished, "final snapshot comes last");
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn oversized_machine_synthesizes_in_parallel_without_panic() {
    // Satellite 4 regression: a machine past the distance table's
    // 256-action limit must take the same graceful fallback on the parallel
    // setup path as on the sequential one — skip the table, record the skip
    // in the stats, and search on.
    let machine = Machine::new(2, 8, IsaMode::Cmov);
    assert!(!sortsynth_search::DistanceTable::supports(&machine));
    let cfg = SynthesisConfig::new(machine.clone())
        .optimal_instrs_only(true)
        .budget_viability(true)
        .max_len(3)
        .threads(4);
    let result = synthesize(&cfg);
    assert_eq!(result.outcome, Outcome::Exhausted);
    assert_eq!(result.found_len, None);
    assert!(
        result.stats.distance_table_skipped,
        "parallel runs must surface the distance-table fallback too"
    );

    // And with a feasible bound the kernel is found and correct.
    let found = synthesize(&cfg.clone().max_len(4));
    assert_eq!(found.found_len, Some(4));
    let prog = found.first_program().expect("kernel");
    sortsynth_verify::gate(&machine, &prog).expect("oracle accepts the CAS");
}
