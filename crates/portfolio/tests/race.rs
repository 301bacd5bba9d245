//! Differential race tests: on a single-core host the portfolio's
//! correctness is argued through invariants, not wall clock.
//!
//! * Every arm that completes with a program produces one the exhaustive
//!   oracle accepts.
//! * The race winner's length equals the sequential enumerative optimum
//!   (exact arms enumerate shortest-first, and the verify gate never
//!   admits a wrong program).
//! * Exactly one `sortsynth_portfolio_win_total` increment per query.
//! * Cancellation reaches the losing arms: stochastic arms configured for
//!   millions of iterations report `Budget` (stopped at a poll point)
//!   instead of running to completion, and `thread::scope` has already
//!   joined them by the time the race returns.
//!
//! The metrics registry is process-global, so tests that assert on counter
//! deltas serialize on a mutex.

use std::sync::Mutex;

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;
use sortsynth_obs::names;
use sortsynth_portfolio::{backend_for, BackendKind, BackendStatus, Portfolio, SearchBudget};

/// Serializes tests that read process-global metric counters.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

fn win_total() -> u64 {
    sortsynth_obs::registry().counter_value(names::PORTFOLIO_WIN_TOTAL)
}

/// The sequential enumerative answer for `query` — the differential
/// reference every race is compared against.
fn sequential_optimum(query: &KernelQuery) -> u32 {
    let out = backend_for(BackendKind::AStar).run(query, &SearchBudget::unlimited());
    match out.status {
        BackendStatus::Found { program, .. } => program.len() as u32,
        other => panic!("sequential reference failed: {other:?}"),
    }
}

#[test]
fn differential_matrix_exact_arms() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let exact = [
        BackendKind::AStar,
        BackendKind::Cegis,
        BackendKind::SmtMin,
        BackendKind::Plan,
    ];
    for (n, mode) in [
        (2, IsaMode::Cmov),
        (2, IsaMode::MinMax),
        (3, IsaMode::Cmov),
        (3, IsaMode::MinMax),
    ] {
        let query = KernelQuery::best(n, 1, mode);
        let machine = query.machine();
        let expected = sequential_optimum(&query);
        let before = win_total();
        let report = Portfolio::from_kinds(&exact).run(&query, &SearchBudget::unlimited(), None);

        // A verified winner exists and matches the sequential optimum.
        let winner = report
            .winner
            .unwrap_or_else(|| panic!("no winner for n={n} {mode:?}: {:?}", report.outcomes));
        assert!(winner.is_exact());
        assert_eq!(
            report.found_len,
            Some(expected),
            "winner {} length for n={n} {mode:?}",
            winner.name()
        );
        let program = report.program.as_ref().expect("winner program");
        assert!(machine.is_correct(program), "winner fails the oracle");
        assert_eq!(report.verify_rejected, 0);

        // Every completing arm's program is accepted by the oracle, and
        // exact completers match the optimum (shortest-first enumeration):
        // the winner's cost is ≤ every completed loser's cost.
        for out in &report.outcomes {
            if let BackendStatus::Found { program, .. } = &out.status {
                assert!(
                    machine.is_correct(program),
                    "{} returned an incorrect program",
                    out.kind.name()
                );
                assert_eq!(
                    program.len() as u32,
                    expected,
                    "{} completed with a non-optimal length",
                    out.kind.name()
                );
            }
        }

        // Exactly one win increment per query.
        assert_eq!(win_total(), before + 1, "win counter for n={n} {mode:?}");
    }
}

#[test]
fn full_roster_race_produces_one_verified_winner() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let query = KernelQuery::best(2, 1, IsaMode::Cmov);
    let machine = query.machine();
    let before = win_total();
    let report = Portfolio::all().run(&query, &SearchBudget::unlimited(), None);
    assert!(report.winner.is_some());
    let program = report.program.as_ref().expect("winner program");
    assert!(machine.is_correct(program));
    assert_eq!(win_total(), before + 1);
    // All six arms ran (single wave without a policy) and were joined.
    assert_eq!(report.outcomes.len(), BackendKind::ALL.len());
    // Any stochastic arm that completed is also oracle-correct.
    for out in &report.outcomes {
        if let BackendStatus::Found { program, .. } = &out.status {
            assert!(machine.is_correct(program), "{}", out.kind.name());
        }
    }
}

#[test]
fn cancellation_stops_losing_stochastic_arms() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // MCTS and STOKE are configured for millions of iterations — far more
    // than they can run in the time the enumerative arm needs for n = 3.
    // Seeing `Budget` from them proves the race flag reached their poll
    // loops; seeing the race return proves the scope joined them.
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let portfolio =
        Portfolio::from_kinds(&[BackendKind::AStar, BackendKind::Mcts, BackendKind::Stoke]);
    let before_cancelled =
        sortsynth_obs::registry().counter_value(names::PORTFOLIO_CANCELLED_TOTAL);
    let report = portfolio.run(&query, &SearchBudget::unlimited(), None);
    assert_eq!(report.winner, Some(BackendKind::AStar));
    for kind in [BackendKind::Mcts, BackendKind::Stoke] {
        let out = report.outcome_of(kind).expect("arm ran");
        assert_eq!(
            out.status,
            BackendStatus::Budget,
            "{} was not cancelled",
            kind.name()
        );
    }
    let after_cancelled = sortsynth_obs::registry().counter_value(names::PORTFOLIO_CANCELLED_TOTAL);
    assert!(after_cancelled >= before_cancelled + 2);
}

#[test]
fn widen_on_miss_reaches_the_second_wave() {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let full = KernelQuery::best(2, 1, IsaMode::Cmov);
    let mut policy = sortsynth_portfolio::DispatchPolicy::new();
    let astar_race =
        Portfolio::from_kinds(&[BackendKind::AStar]).run(&full, &SearchBudget::unlimited(), None);
    policy.record(&full, &astar_race);
    // Policy knows A* wins 2/1/cmov. Race a roster whose non-A* arms would
    // be slow: first wave = [AStar], rest = others, no widening expected.
    let report = Portfolio::from_kinds(&[BackendKind::AStar, BackendKind::Cegis]).run(
        &full,
        &SearchBudget::unlimited(),
        Some(&policy),
    );
    assert_eq!(report.winner, Some(BackendKind::AStar));
    assert!(!report.widened);
    assert_eq!(report.outcomes.len(), 1, "second wave never started");

    // Miss case: a bounded query (max_len 2, below the n = 2 optimum of
    // 4) has the same shape, so the policy still routes A* first; A*
    // proves NoProgram, the race widens to the second wave.
    let bounded = KernelQuery {
        max_len: Some(2),
        ..KernelQuery::best(2, 1, IsaMode::Cmov)
    };
    let before_widened = sortsynth_obs::registry().counter_value(names::PORTFOLIO_WIDENED_TOTAL);
    let report = Portfolio::from_kinds(&[BackendKind::AStar, BackendKind::SmtMin]).run(
        &bounded,
        &SearchBudget::unlimited(),
        Some(&policy),
    );
    assert!(report.winner.is_none(), "nothing fits under max_len = 2");
    assert!(report.widened, "first wave missed, race must widen");
    assert_eq!(report.outcomes.len(), 2, "both waves ran");
    assert_eq!(
        sortsynth_obs::registry().counter_value(names::PORTFOLIO_WIDENED_TOTAL),
        before_widened + 1
    );
}
