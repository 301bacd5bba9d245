//! Observability contract of the service: single-flight deduplication must
//! be visible in the instrumentation. For N identical concurrent requests
//! the trace carries exactly one `search` span, and the
//! `singleflight_coalesced` counter advances by exactly N - 1.
//!
//! This file is its own integration-test binary on purpose: the obs
//! registry and trace dispatch are process-global, so the assertions here
//! must not share a process with unrelated service traffic.

use std::sync::Arc;

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;
use sortsynth_obs::{names, EventKind, RingBuffer};
use sortsynth_service::{Client, Response, Server, ServiceConfig, StatsReply};

#[test]
fn coalesced_requests_emit_one_search_span_and_n_minus_1_coalesced_increments() {
    let ring = Arc::new(RingBuffer::new(16384));
    let sub = sortsynth_obs::add_subscriber(ring.clone());
    sortsynth_obs::set_enabled(true);

    let handle = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        ..ServiceConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();
    // A cold query whose search takes a quarter second in release, far
    // longer than eight clients need to connect and join the flight. (A
    // query that finishes in a few milliseconds lets late clients miss the
    // flight and hit the cache instead.)
    let query = KernelQuery::best(4, 1, IsaMode::Cmov);

    let coalesced_before =
        sortsynth_obs::registry().counter_value(names::SINGLEFLIGHT_COALESCED_TOTAL);
    let searches_before = sortsynth_obs::registry().counter_value(names::SEARCHES_STARTED_TOTAL);

    const CLIENTS: usize = 8;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let query = query.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let reply = client.synth(query, Some(60_000)).unwrap();
                    assert!(matches!(reply, Response::Synth(_)), "got {reply:?}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // Exactly one leader ran a search; every other client coalesced onto it.
    assert_eq!(handle.searches_started(), 1);
    assert_eq!(
        sortsynth_obs::registry().counter_value(names::SEARCHES_STARTED_TOTAL) - searches_before,
        1,
    );
    assert_eq!(
        sortsynth_obs::registry().counter_value(names::SINGLEFLIGHT_COALESCED_TOTAL)
            - coalesced_before,
        (CLIENTS - 1) as u64,
        "N identical concurrent requests must record N - 1 coalesced hits"
    );

    // The same numbers flow through the `stats` protocol verb.
    let mut client = Client::connect(addr).unwrap();
    let Response::Stats(StatsReply {
        requests_total,
        searches_started,
        singleflight_coalesced,
        ..
    }) = client.stats().unwrap()
    else {
        panic!("expected stats reply");
    };
    assert_eq!(requests_total, CLIENTS as u64);
    assert_eq!(searches_started, 1);
    assert_eq!(singleflight_coalesced, (CLIENTS - 1) as u64);

    // The `metrics` verb renders a Prometheus exposition covering the
    // request, cache, search, and SAT metric families.
    let Response::Metrics { text } = client.metrics().unwrap() else {
        panic!("expected metrics reply");
    };
    for family in [
        "# TYPE sortsynth_requests_total counter",
        "sortsynth_cache_misses_total",
        "sortsynth_search_runs_total 1",
        "sortsynth_sat_conflicts_total",
        "sortsynth_singleflight_coalesced_total 7",
    ] {
        assert!(
            text.contains(family),
            "exposition missing {family:?}:\n{text}"
        );
    }

    handle.shutdown().unwrap();
    sortsynth_obs::set_enabled(false);
    sortsynth_obs::remove_subscriber(sub);

    // The trace contains exactly one `search` span (the leader's), parented
    // into exactly one of the eight request spans.
    let events = ring.drain();
    let search_spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "search")
        .collect();
    assert_eq!(
        search_spans.len(),
        1,
        "expected exactly one search span, got {}",
        search_spans.len()
    );
    // `stats`/`metrics` are answered inline without a span, so only the
    // eight synth requests open request spans.
    let request_starts = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "request")
        .count();
    assert_eq!(request_starts, CLIENTS);
    let parent = search_spans[0].parent.expect("search span has a parent");
    assert!(
        events.iter().any(|e| e.kind == EventKind::SpanStart
            && e.name == "request"
            && e.span == Some(parent)),
        "search span's parent must be a request span"
    );
}
