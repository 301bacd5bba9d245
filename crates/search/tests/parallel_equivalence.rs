//! Differential and determinism tests pinning multi-worker layered runs to
//! the one-worker run.
//!
//! The layered round loop expands each layer in rounds and merges every key
//! partition in frontier order, with the same per-layer cut thresholds and
//! a goal round that ends at the goal's parent, at every worker count. So
//! every row here asserts more than cost equality: the kernel itself and
//! every counter the run decides must equal the `threads = 1` run's, under
//! the lossless configurations (dead-write cut on/off × distance table
//! on/off) and under the lossy `SynthesisConfig::best` configuration (the
//! §3.5 permutation-count cut plus the optimal-instruction restriction)
//! alike. A bounded row one below the optimum must exhaust with identical
//! counters at every thread count, and an all-solutions run (one worker at
//! any thread count) must count the same solutions.
//!
//! Every synthesized kernel additionally passes the sortsynth-verify gate,
//! which falls back to the exhaustive n! permutation oracle — the parallel
//! runs must not just agree on the kernel, they must emit *correct* ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{
    synthesize, Cut, Outcome, ProgressHook, SearchBudget, SearchProgress, SearchStats,
    SynthesisConfig, SynthesisResult,
};

/// The configurations for `machine`, labelled: the lossless ones, where
/// `bound` pins `max_len` (the viability budget needs it, and it keeps the
/// plain rows small enough for debug-mode CI), and the paper's lossy best
/// configuration.
fn configs(machine: &Machine, bound: u32) -> Vec<(&'static str, SynthesisConfig)> {
    let base = || SynthesisConfig::new(machine.clone()).max_len(bound);
    let table = || base().budget_viability(true);
    vec![
        ("plain", base()),
        ("dead-write", base().dead_write_cut(true)),
        ("table", table()),
        ("table+dead-write", table().dead_write_cut(true)),
        ("best", SynthesisConfig::best(machine.clone())),
    ]
}

/// Runs `cfg` sequentially and at each thread count, asserting the same
/// outcome, the same kernel, the same decided counters, and
/// oracle-verified kernels throughout.
fn assert_equivalent(machine: &Machine, label: &str, cfg: &SynthesisConfig, threads: &[usize]) {
    let sequential = synthesize(cfg);
    check_result(machine, label, 1, cfg, &sequential);
    for &t in threads {
        let parallel = synthesize(&cfg.clone().threads(t));
        assert_eq!(
            sequential.outcome, parallel.outcome,
            "{label} diverged at {t} threads"
        );
        assert_eq!(
            sequential.first_program(),
            parallel.first_program(),
            "{label}: the {t}-thread kernel differs from the 1-thread kernel"
        );
        assert_eq!(
            decided(&parallel.stats),
            decided(&sequential.stats),
            "{label}@{t}: [expanded, generated, viability, cut, dead-write, dedup, kept]"
        );
        assert_eq!(
            parallel.stats.shards.len(),
            t.max(2),
            "{label}: one shard per worker"
        );
        check_result(machine, label, t, cfg, &parallel);
    }
}

/// Common per-result assertions: kernel correctness via the exhaustive
/// oracle, certification, and shard-counter aggregation.
fn check_result(
    machine: &Machine,
    label: &str,
    threads: usize,
    cfg: &SynthesisConfig,
    result: &SynthesisResult,
) {
    if let Some(len) = result.found_len {
        let prog = result.first_program().expect("found_len implies a program");
        assert_eq!(prog.len() as u32, len, "{label}@{threads}");
        sortsynth_verify::gate(machine, &prog)
            .unwrap_or_else(|e| panic!("{label}@{threads}: oracle rejected kernel: {e:?}"));
        assert_eq!(
            result.minimal_certified,
            cfg.guarantees_minimal(),
            "{label}@{threads}: lossless layered configs certify, lossy ones do not"
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

/// The counters a run decides, in one comparable row: every one of them is
/// independent of the thread count and of scheduling on a solved or
/// exhausted run.
fn decided(s: &SearchStats) -> [u64; 7] {
    [
        s.expanded,
        s.generated,
        s.viability_pruned,
        s.cut_pruned,
        s.dead_write_pruned,
        s.dedup_hits,
        s.states_kept,
    ]
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
        for (label, cfg) in configs(&machine, bound) {
            assert_equivalent(&machine, &format!("n2 {mode:?} {label}"), &cfg, &[2, 4, 8]);
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_minmax_full_matrix() {
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    for (label, cfg) in configs(&machine, 8) {
        assert_equivalent(&machine, &format!("n3 MinMax {label}"), &cfg, &[2, 4]);
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_cmov_table_and_best_rows() {
    // The plain n = 3 cmov space is minutes-deep in debug mode (the paper's
    // 56 s Dijkstra row); the distance-table rows finish in seconds and
    // still exercise both dead-write settings. The table-off axis is
    // covered at n = 2 and n = 3 minmax above.
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let rows: Vec<_> = configs(&machine, 11)
        .into_iter()
        .filter(|(label, _)| label.starts_with("table") || *label == "best")
        .collect();
    assert_eq!(rows.len(), 3);
    for ((label, cfg), threads) in rows.into_iter().zip([2, 4, 8]) {
        assert_equivalent(&machine, &format!("n3 Cmov {label}"), &cfg, &[threads]);
    }
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
/// full best() configuration (including the lossy permutation cut) to
/// finish in reasonable time. Every thread count must return the
/// single-thread kernel itself. Run by the CI `parallel-smoke` job with
/// `--release -- --include-ignored`.
#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
#[ignore = "minutes in debug mode; CI runs it with --release"]
fn n4_cmov_best_config_agrees_across_thread_counts() {
    let machine = Machine::new(4, 1, IsaMode::Cmov);
    let cfg = SynthesisConfig::best(machine.clone());
    let sequential = synthesize(&cfg);
    assert_eq!(sequential.found_len, Some(20));
    let kernel = sequential.first_program().expect("kernel");
    for t in [2, 4, 8] {
        let parallel = synthesize(&cfg.clone().threads(t));
        assert_eq!(
            parallel.first_program().as_ref(),
            Some(&kernel),
            "the {t}-thread kernel differs from the 1-thread kernel"
        );
        sortsynth_verify::gate(&machine, &kernel)
            .unwrap_or_else(|e| panic!("oracle rejected n4 kernel at {t} threads: {e:?}"));
    }
}

/// Per-shard expansion counters belong to the partition that owns the
/// expanded state, not to whichever worker claimed it, so two runs of the
/// same 2-thread search report the same per-shard `expanded` and `routed`
/// vectors — the balance figure the ledger's `search.shard_skew` reads.
#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
#[ignore = "seconds in release, minutes in debug; CI runs it with --release"]
fn per_shard_expansion_counters_repeat_across_runs() {
    let cfg = SynthesisConfig::best(Machine::new(4, 1, IsaMode::Cmov)).threads(2);
    let per_shard = |s: &SearchStats| {
        let expanded: Vec<u64> = s.shards.iter().map(|sh| sh.expanded).collect();
        let routed: Vec<u64> = s.shards.iter().map(|sh| sh.routed).collect();
        (expanded, routed)
    };
    let first = synthesize(&cfg);
    let second = synthesize(&cfg);
    assert_eq!(first.stats.shards.len(), 2);
    assert!(first.stats.routed > 0, "a 2-way split routes successors");
    assert_eq!(per_shard(&first.stats), per_shard(&second.stats));
}

/// A bound one below the optimum leaves nothing to find: the run exhausts
/// the whole bounded space, and every counter it decides is the same at
/// every thread count.
fn assert_exhausts_identically(label: &str, cfg: &SynthesisConfig) {
    let sequential = synthesize(cfg);
    assert_eq!(sequential.outcome, Outcome::Exhausted, "{label}");
    for t in [2, 8] {
        let parallel = synthesize(&cfg.clone().threads(t));
        assert_eq!(parallel.outcome, Outcome::Exhausted, "{label}@{t}");
        assert_eq!(
            decided(&parallel.stats),
            decided(&sequential.stats),
            "{label}@{t}: [expanded, generated, viability, cut, dead-write, dedup, kept]"
        );
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn n3_cmov_one_below_the_optimum_exhausts_with_identical_counters() {
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let table = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .max_len(10);
    assert_exhausts_identically("n3 Cmov table", &table);
    assert_exhausts_identically("n3 Cmov table+dead-write", &table.dead_write_cut(true));
    assert_exhausts_identically("n3 Cmov best", &SynthesisConfig::best(machine).max_len(10));
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
#[ignore = "seconds in release, minutes in debug; CI runs it with --release"]
fn n4_minmax_one_below_the_optimum_exhausts_with_identical_counters() {
    let machine = Machine::new(4, 1, IsaMode::MinMax);
    let cfg = SynthesisConfig::new(machine)
        .budget_viability(true)
        .max_len(14);
    assert_exhausts_identically("n4 MinMax table", &cfg);
}

/// All-solutions runs take one worker at any thread count: `threads(4)`
/// counts the solutions `threads(1)` counts, the `golden_trace`
/// all-solutions values.
#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn all_solutions_runs_agree_across_thread_counts() {
    for (n, mode, cut, len, solutions) in [
        (2, IsaMode::Cmov, false, 4, 8),
        (2, IsaMode::MinMax, false, 3, 4),
        (3, IsaMode::Cmov, true, 11, 234),
        (3, IsaMode::MinMax, false, 8, 604),
    ] {
        let mut cfg = SynthesisConfig::new(Machine::new(n, 1, mode))
            .budget_viability(true)
            .max_len(len)
            .all_solutions(true);
        if cut {
            cfg = cfg.cut(Cut::Factor(1.0));
        }
        for t in [1, 4] {
            let result = synthesize(&cfg.clone().threads(t));
            let label = format!("n{n} {mode:?} all-solutions@{t}");
            assert_eq!(result.outcome, Outcome::SolvedAll, "{label}");
            assert_eq!(result.found_len, Some(len), "{label}");
            assert_eq!(result.solution_count(), solutions, "{label}");
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn repeated_oversubscribed_runs_are_interleaving_invariant() {
    // The same parallel search, 20 times, at 8 workers: on a host with
    // fewer cores the workers are oversubscribed, so the scheduler preempts
    // them at different points every run and the thread interleavings
    // genuinely differ. Every run must return the single-thread kernel,
    // internally consistent statistics, and the same decided counters:
    // round boundaries depend only on which states were expanded.
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    let cfg = SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .max_len(8);
    let sequential = synthesize(&cfg);
    let expected = sequential.found_len.expect("n3 minmax solves");
    assert_eq!(expected, 8);
    let kernel = sequential.first_program().expect("kernel");
    sortsynth_verify::gate(&machine, &kernel).expect("oracle accepts the kernel");

    let mut first: Option<[u64; 7]> = None;
    for run in 0..20 {
        let result = synthesize(&cfg.clone().threads(8));
        assert_eq!(
            result.first_program().as_ref(),
            Some(&kernel),
            "run {run}: kernel diverged ({:?})",
            result.outcome
        );

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
        // Layer order needs no stealing and no incumbent bound.
        assert_eq!((s.steals, s.bound_pruned, reopened), (0, 0, 0), "run {run}");
        match first {
            None => first = Some(decided(s)),
            Some(row) => assert_eq!(decided(s), row, "run {run}: decided counters moved"),
        }
    }
}

/// Threads currently alive in this process (Linux).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

/// Runs `cfg` (its progress hook replaced by a recorder) and asserts it
/// ends with `outcome` within `within`, leaves no worker thread behind, and
/// delivers exactly one final snapshot, last. `during` runs alongside the
/// search (a canceller, say) and is joined before the checks.
fn assert_limited(
    cfg: SynthesisConfig,
    outcome: Outcome,
    within: Duration,
    during: impl FnOnce() + Send + 'static,
) {
    let snapshots: Arc<Mutex<Vec<SearchProgress>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&snapshots);
    let cfg =
        cfg.progress_every(512)
            .progress_hook(ProgressHook::new(move |p: &SearchProgress| {
                sink.lock().unwrap().push(p.clone());
            }));

    let threads_before = live_threads();
    let side = std::thread::spawn(during);
    let started = Instant::now();
    let result = synthesize(&cfg);
    let elapsed = started.elapsed();
    side.join().unwrap();

    assert_eq!(result.outcome, outcome);
    assert!(result.found_len.is_none());
    assert!(elapsed < within, "{outcome:?} took {elapsed:?}");
    // Every worker joined before `synthesize` returned: the thread count is
    // back to (at most) where it started. /proc/self/task can briefly list
    // a task whose join already completed (the kernel removes the entry
    // asynchronously), so poll for the count to settle instead of sampling
    // once.
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
    assert_eq!(finished[0].outcome, Some(format!("{outcome:?}")));
    let last = snapshots.last().expect("at least the final snapshot");
    assert!(last.finished, "final snapshot comes last");
}

/// A large unpruned n = 4 space: far from done when any limit trips.
fn deep_n4() -> SynthesisConfig {
    SynthesisConfig::new(Machine::new(4, 1, IsaMode::Cmov)).max_len(15)
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn cancelled_parallel_search_joins_workers_and_flushes_once() {
    let (budget, cancel) = SearchBudget::unlimited().cancellable();
    let cfg = deep_n4().threads(4).search_budget(budget);
    assert_limited(
        cfg,
        Outcome::Cancelled,
        Duration::from_secs(20),
        move || {
            std::thread::sleep(Duration::from_millis(50));
            cancel.cancel();
        },
    );
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn node_limited_parallel_search_joins_workers_and_flushes_once() {
    let cfg = deep_n4().threads(2).node_limit(20_000);
    assert_limited(cfg, Outcome::NodeLimit, Duration::from_secs(20), || {});
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn time_limited_parallel_search_joins_workers_and_flushes_once() {
    let cfg = deep_n4().threads(2).time_limit(Duration::ZERO);
    assert_limited(cfg, Outcome::TimeLimit, Duration::from_secs(20), || {});
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn a_panicking_progress_hook_unwinds_out_of_a_parallel_search() {
    // Worker 0 delivers progress; when the hook panics there, the other
    // workers must stop at the round barrier instead of waiting for it
    // forever, and the panic must reach the caller.
    let cfg = deep_n4()
        .threads(4)
        .progress_every(1)
        .progress_hook(ProgressHook::new(|p: &SearchProgress| {
            if p.expanded >= 100 {
                panic!("injected crash at {} expansions", p.expanded);
            }
        }));
    let outcome = catch_unwind(AssertUnwindSafe(|| synthesize(&cfg)));
    assert!(outcome.is_err(), "the injected panic must propagate");
}

#[test]
#[cfg_attr(miri, ignore = "differential equivalence suite is too slow under miri")]
fn oversized_machine_synthesizes_in_parallel_without_panic() {
    // A machine past the distance table's 256-action limit must take the
    // same graceful fallback on the parallel setup path as on the
    // sequential one — skip the table, record the skip in the stats, and
    // search on.
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
