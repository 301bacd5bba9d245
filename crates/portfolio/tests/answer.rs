//! The one answer path: query → config → route → cache, on every route.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;
use sortsynth_portfolio::{
    engine_config, Answerer, BackendKind, Failure, Route, SearchBudget, POLICY_FILE,
};
use sortsynth_search::{ProgressHook, SynthesisConfig};

#[test]
fn engine_config_of_the_best_query_is_the_best_config() {
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let cfg = engine_config(&query);
    let best = SynthesisConfig::best(query.machine());
    assert_eq!(cfg.cut, best.cut);
    assert_eq!(cfg.optimal_instrs_only, best.optimal_instrs_only);
    assert_eq!(cfg.budget_viability, best.budget_viability);
    assert_eq!(cfg.max_len, None);
}

#[test]
fn routes_resolve_and_perturb_the_flight_key() {
    let plain = Answerer::open(None, 4, None).unwrap();
    let racing = Answerer::open(None, 4, Some(&["astar".to_string()])).unwrap();
    assert_eq!(plain.route(None), Ok(Route::Engine));
    assert_eq!(
        racing.route(None),
        Ok(Route::Race(vec![BackendKind::AStar]))
    );
    assert_eq!(
        plain.route(Some("portfolio")),
        Ok(Route::Race(BackendKind::ALL.to_vec()))
    );
    assert_eq!(
        racing.route(Some("portfolio")),
        Ok(Route::Race(vec![BackendKind::AStar]))
    );
    assert_eq!(
        plain.route(Some("cegis")),
        Ok(Route::Single(BackendKind::Cegis))
    );
    let err = plain.route(Some("z3")).unwrap_err();
    assert!(err.to_string().starts_with("unknown backend `z3`"), "{err}");
    let err = Answerer::open(None, 4, Some(&["z3".to_string()])).err();
    assert!(err.is_some_and(|e| e.to_string().starts_with("unknown backend `z3`")));

    let query = KernelQuery::best(2, 1, IsaMode::Cmov);
    let keys = [
        Route::Engine.flight_key(&query),
        Route::Single(BackendKind::AStar).flight_key(&query),
        Route::Race(vec![BackendKind::AStar]).flight_key(&query),
    ];
    assert_eq!(keys[0], query.fingerprint());
    assert!(keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2]);
}

#[test]
fn every_route_answers_then_the_cache_does() {
    let query = KernelQuery::best(2, 1, IsaMode::Cmov);
    for backend in [None, Some("astar"), Some("smt-min"), Some("portfolio")] {
        let answers = Answerer::open(None, 4, None).unwrap();
        let cold = answers
            .answer(&query, backend, answers.engine_config(&query))
            .unwrap();
        assert!(!cold.cached);
        assert_eq!(cold.program.as_ref().map(|p| p.len()), Some(4));
        let engine = matches!(backend, None | Some("astar"));
        assert_eq!(cold.search.is_some(), engine, "{backend:?}");
        assert_eq!(cold.backend.is_none(), backend.is_none(), "{backend:?}");
        let warm = answers
            .answer(&query, backend, answers.engine_config(&query))
            .unwrap();
        assert!(warm.cached);
        assert_eq!(warm.program, cold.program);
        assert_eq!(warm.backend, None);
        let races = u64::from(backend == Some("portfolio"));
        assert_eq!(answers.policy().1.races, races);
    }
}

#[test]
fn an_exhausted_budget_is_a_timeout_on_every_route() {
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let answers = Answerer::open(None, 4, None).unwrap();
    for route in [
        Route::Engine,
        Route::Single(BackendKind::Cegis),
        Route::Race(vec![BackendKind::AStar, BackendKind::SmtMin]),
    ] {
        let (budget, handle) = SearchBudget::unlimited().cancellable();
        handle.cancel();
        let mut cfg = answers.engine_config(&query);
        cfg.budget = budget;
        match answers.run(&query, &route, cfg) {
            Err(Failure::Timeout(timeout)) => assert!(timeout.cancelled, "{route:?}"),
            other => panic!("{route:?}: {other:?}"),
        }
    }
    assert!(answers.cache().is_empty());
    assert_eq!(answers.policy().1.races, 1);
}

#[test]
fn an_unsupported_shape_is_a_failure_not_an_answer() {
    let query = KernelQuery::best(4, 1, IsaMode::Cmov);
    let answers = Answerer::open(None, 4, None).unwrap();
    let failure = answers
        .answer(&query, Some("plan"), answers.engine_config(&query))
        .unwrap_err();
    assert_eq!(failure, Failure::Unsupported(BackendKind::Plan));
    assert_eq!(
        failure.to_string(),
        "backend `plan` does not support this query"
    );
}

#[test]
fn the_astar_arm_runs_the_engine_under_the_callers_settings() {
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let answers = Answerer::open(None, 4, None).unwrap();
    let route = answers.route(Some("astar")).unwrap();
    assert_eq!(route, Route::Single(BackendKind::AStar));
    assert!(route.runs_engine() && Route::Engine.runs_engine());
    assert!(!Route::Single(BackendKind::Cegis).runs_engine());

    let frames = Arc::new(AtomicU64::new(0));
    let mut cfg = answers.engine_config(&query);
    cfg.threads = 2;
    cfg.progress_hook = Some(ProgressHook::new({
        let frames = Arc::clone(&frames);
        move |_| {
            frames.fetch_add(1, Ordering::Relaxed);
        }
    }));
    let named = answers.run(&query, &route, cfg).unwrap();
    let reference = Answerer::open(None, 4, None).unwrap();
    let default = reference
        .run(&query, &Route::Engine, reference.engine_config(&query))
        .unwrap();
    assert_eq!(named.backend, Some(BackendKind::AStar));
    assert_eq!(named.program, default.program);
    assert!(frames.load(Ordering::Relaxed) > 0, "the caller's hook ran");
    let (named, default) = (named.search.unwrap(), default.search.unwrap());
    assert_eq!(named.stats.generated, default.stats.generated);

    // A timeout counts the states the engine generated.
    let slow = KernelQuery {
        max_len: Some(15),
        optimal_instrs_only: false,
        budget_viability: false,
        cut: None,
        ..KernelQuery::best(4, 1, IsaMode::Cmov)
    };
    let mut cfg = answers.engine_config(&slow);
    cfg.budget = SearchBudget::with_timeout(Duration::from_millis(300));
    match answers.run(&slow, &route, cfg) {
        Err(Failure::Timeout(timeout)) => assert!(timeout.generated > 0, "{timeout:?}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_policy_naming_a_retired_arm_loads_and_races_only_the_roster() {
    let dir = std::env::temp_dir().join(format!("sortsynth-retired-arm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let row = |backend: &str, wins: u64| {
        format!(
            r#"{{"shape":"2/1/cmov","backend":"{backend}","wins":{wins},"losses":0,"cancelled":0,"total_millis":1}}"#
        )
    };
    let rows = [row("astar-par", 9), row("astar", 1)].join(",");
    std::fs::write(dir.join(POLICY_FILE), format!(r#"{{"rows":[{rows}]}}"#)).unwrap();

    let answers = Answerer::open(Some(dir.as_path()), 4, None).unwrap();
    let (loaded, _) = answers.policy();
    assert!(
        loaded.iter().all(|r| r.backend != "astar-par"),
        "the retired arm's row is dropped on load"
    );
    let query = KernelQuery::best(2, 1, IsaMode::Cmov);
    let answer = answers
        .answer(&query, Some("portfolio"), answers.engine_config(&query))
        .unwrap();
    assert_eq!(answer.backend, Some(BackendKind::AStar));
    let (rows, tally) = answers.policy();
    assert_eq!((tally.races, tally.wins, tally.widened), (1, 1, 0));
    let wins: Vec<(&str, u64)> = rows.iter().map(|r| (r.backend.as_str(), r.wins)).collect();
    assert_eq!(wins, [("astar", 2)], "only a roster arm raced");
    let _ = std::fs::remove_dir_all(&dir);
}
