//! The one answer path: query → config → route → cache, on every route.

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;
use sortsynth_portfolio::{engine_config, Answerer, BackendKind, Failure, Route, SearchBudget};
use sortsynth_search::SynthesisConfig;

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
        assert_eq!(cold.search.is_some(), backend.is_none(), "{backend:?}");
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
