//! End-to-end service tests: cold/warm round trips over a real TCP socket,
//! cache persistence across server restarts, single-flight coalescing, load
//! shedding, deadline propagation, and faults injected on the wire.

use std::fs;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sortsynth_cache::KernelQuery;
use sortsynth_isa::{IsaMode, Machine};
use sortsynth_service::proto::{read_frame, read_message, MAX_FRAME};
use sortsynth_service::{
    Client, ReplySource, Request, Response, Server, ServerHandle, ServiceConfig, StatsReply,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sortsynth-svc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn start(config: ServiceConfig) -> ServerHandle {
    Server::bind(config).expect("bind").spawn()
}

fn local_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServiceConfig::default()
    }
}

/// A query whose search space is astronomically larger than any test budget:
/// n = 4 with no pruning aids and a length bound below nothing reachable
/// quickly — guaranteed to consume whatever deadline it is given.
fn slow_query() -> KernelQuery {
    KernelQuery {
        n: 4,
        scratch: 1,
        mode: IsaMode::Cmov,
        max_len: Some(15),
        optimal_instrs_only: false,
        budget_viability: false,
        cut: None,
    }
}

#[test]
fn synth_round_trip_cold_warm_and_persistent() {
    let dir = tmp_dir("roundtrip");
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);

    let handle = start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..local_config()
    });
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.ping().unwrap(), Response::Pong);

    // Cold: the search runs and the kernel comes back minimal (§5.3: 11
    // instructions for n = 3).
    let Response::Synth(cold) = client.synth(query.clone(), Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    assert_eq!(cold.source, ReplySource::Computed);
    assert_eq!(cold.found_len, Some(11));
    let program_text = cold.program.clone().expect("kernel text");
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let program = machine.parse_program(&program_text).unwrap();
    assert!(machine.is_correct(&program));

    // Warm: identical query is a cache hit with the identical kernel.
    let Response::Synth(warm) = client.synth(query.clone(), Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    assert_eq!(warm.source, ReplySource::Cache);
    assert_eq!(warm.program.as_deref(), Some(program_text.as_str()));
    assert_eq!(handle.searches_started(), 1);
    handle.shutdown().unwrap();

    // Restart over the same directory: the kernel is served from the
    // recovered log without any search.
    let handle = start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..local_config()
    });
    assert_eq!(handle.cache_stats().load.loaded, 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let Response::Synth(persisted) = client.synth(query, Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    assert_eq!(persisted.source, ReplySource::Cache);
    assert_eq!(persisted.program.as_deref(), Some(program_text.as_str()));
    assert_eq!(handle.searches_started(), 0);
    handle.shutdown().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_and_analyze_ops() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let machine = Machine::new(2, 1, IsaMode::Cmov);
    let cas = "mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1".to_string();

    let Response::Check(good) = client.check(machine.clone(), cas.clone()).unwrap() else {
        panic!("expected check reply");
    };
    assert!(good.correct);
    assert_eq!(good.counterexamples, 0);

    let Response::Check(bad) = client.check(machine.clone(), "mov r1 r2".into()).unwrap() else {
        panic!("expected check reply");
    };
    assert!(!bad.correct);
    assert_eq!(bad.counterexamples, 2);

    let Response::Analyze(report) = client.analyze(machine.clone(), cas).unwrap() else {
        panic!("expected analyze reply");
    };
    assert!(report.cycles_per_iteration > 0.0);
    assert!(report.critical_path > 0);
    // The CAS is a one-comparator network: the verifier certifies it and
    // has nothing to complain about.
    assert_eq!(report.verdict, "certified-network");
    assert!(report.lints.is_empty());

    // A kernel with a dead write draws a structured lint.
    let Response::Analyze(linted) = client
        .analyze(
            machine.clone(),
            "mov s1 r1; mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1".into(),
        )
        .unwrap()
    else {
        panic!("expected analyze reply");
    };
    assert!(linted
        .lints
        .iter()
        .any(|l| l.kind == "write-after-write" && l.index == Some(0)));

    // Malformed program text is an error, not a dead connection.
    let Response::Error { .. } = client.check(machine, "frobnicate r1 r2".into()).unwrap() else {
        panic!("expected error reply");
    };
    assert_eq!(client.ping().unwrap(), Response::Pong);
    handle.shutdown().unwrap();
}

#[test]
fn concurrent_identical_requests_run_exactly_one_search() {
    let handle = start(ServiceConfig {
        workers: 8,
        ..local_config()
    });
    let addr = handle.addr();
    // A query distinct from every other test's so the cache is cold.
    let query = KernelQuery::best(3, 2, IsaMode::Cmov);

    const CLIENTS: usize = 8;
    let replies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let query = query.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.synth(query, Some(60_000)).unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    let mut programs = Vec::new();
    for reply in &replies {
        let Response::Synth(synth) = reply else {
            panic!("expected synth reply, got {reply:?}");
        };
        programs.push(synth.program.clone().expect("kernel"));
    }
    programs.sort();
    programs.dedup();
    assert_eq!(programs.len(), 1, "all clients see the same kernel");
    assert_eq!(
        handle.searches_started(),
        1,
        "N identical concurrent requests must coalesce to one search"
    );
    handle.shutdown().unwrap();
}

#[test]
fn expired_deadline_returns_timeout_and_worker_survives() {
    let handle = start(ServiceConfig {
        workers: 2,
        ..local_config()
    });
    let mut client = Client::connect(handle.addr()).unwrap();

    let Response::Timeout(timeout) = client.synth(slow_query(), Some(300)).unwrap() else {
        panic!("expected timeout");
    };
    // Partial diagnostics: the search did run and report progress.
    assert!(timeout.generated > 0);
    assert!(timeout.elapsed_ms <= 5_000);
    assert!(!timeout.cancelled);

    // The worker that timed out is alive and can complete real work.
    assert_eq!(client.ping().unwrap(), Response::Pong);
    let Response::Synth(reply) = client
        .synth(KernelQuery::best(2, 1, IsaMode::Cmov), Some(60_000))
        .unwrap()
    else {
        panic!("expected synth reply");
    };
    assert_eq!(reply.found_len, Some(4));
    handle.shutdown().unwrap();
}

/// Sends one request on a fresh connection.
fn send(addr: SocketAddr, request: Request) -> Response {
    Client::connect(addr).unwrap().request(&request).unwrap()
}

fn stats(addr: SocketAddr) -> StatsReply {
    let Response::Stats(stats) = send(addr, Request::Stats) else {
        panic!("expected a stats reply");
    };
    stats
}

/// Polls `stats` (answered without passing the admission gate) until the
/// gate holds `queue_depth` waiting and `inflight` running requests.
fn await_gate(addr: SocketAddr, queue_depth: i64, inflight: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats(addr);
        if (stats.queue_depth, stats.inflight) == (queue_depth, inflight) {
            return;
        }
        assert!(Instant::now() < deadline, "gate stuck at {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_admission_queue_sheds_load() {
    let handle = start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        ..local_config()
    });
    let addr = handle.addr();

    std::thread::scope(|scope| {
        // Occupy the only run slot, then the single wait slot.
        let busy = scope.spawn(move || send(addr, Request::Sleep { ms: 800 }));
        await_gate(addr, 0, 1);
        let queued = scope.spawn(move || send(addr, Request::Sleep { ms: 100 }));
        await_gate(addr, 1, 1);
        // Slot busy + queue full → this one must be shed immediately.
        assert_eq!(send(addr, Request::Ping), Response::Overloaded);
        assert_eq!(stats(addr).shed_total, 1);
        assert_eq!(busy.join().unwrap(), Response::Slept);
        assert_eq!(queued.join().unwrap(), Response::Slept);
    });

    // Load shedding is not a failure state: once the backlog drains, the
    // server answers again and both gauges are back at zero.
    assert_eq!(send(addr, Request::Ping), Response::Pong);
    let drained = stats(addr);
    assert_eq!((drained.queue_depth, drained.inflight), (0, 0));
    handle.shutdown().unwrap();

    // Requests waiting behind a busy slot run in the order they arrived.
    // (Each sleeps long enough that a client thread scheduled late cannot
    // swap the order in which the replies are read.)
    let handle = start(ServiceConfig {
        workers: 1,
        queue_depth: 2,
        ..local_config()
    });
    let addr = handle.addr();
    let answered_at = move || {
        assert_eq!(send(addr, Request::Sleep { ms: 50 }), Response::Slept);
        Instant::now()
    };
    std::thread::scope(|scope| {
        let busy = scope.spawn(move || send(addr, Request::Sleep { ms: 400 }));
        await_gate(addr, 0, 1);
        let first = scope.spawn(answered_at);
        await_gate(addr, 1, 1);
        std::thread::sleep(Duration::from_millis(100));
        let second = scope.spawn(answered_at);
        await_gate(addr, 2, 1);
        assert_eq!(busy.join().unwrap(), Response::Slept);
        assert!(first.join().unwrap() < second.join().unwrap());
    });
    handle.shutdown().unwrap();
}

/// A request still waiting for its run slot when `shutdown` is called is
/// answered before the server stops.
#[test]
fn shutdown_answers_what_it_admitted() {
    let handle = start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        ..local_config()
    });
    let addr = handle.addr();
    std::thread::scope(|scope| {
        let busy = scope.spawn(move || send(addr, Request::Sleep { ms: 600 }));
        await_gate(addr, 0, 1);
        let queued = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            // A hang fails the test instead of wedging it.
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client.ping()
        });
        await_gate(addr, 1, 1);
        handle.shutdown().unwrap();
        assert_eq!(busy.join().unwrap(), Response::Slept);
        assert_eq!(queued.join().unwrap().unwrap(), Response::Pong);
    });
}

#[test]
fn queries_with_different_toggles_are_distinct_cache_keys() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();

    let best = KernelQuery::best(2, 1, IsaMode::Cmov);
    let plain = KernelQuery {
        optimal_instrs_only: false,
        budget_viability: false,
        cut: None,
        ..best.clone()
    };
    let Response::Synth(a) = client.synth(best, Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    let Response::Synth(b) = client.synth(plain, Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    assert_eq!(a.source, ReplySource::Computed);
    assert_eq!(
        b.source,
        ReplySource::Computed,
        "distinct key, distinct search"
    );
    assert_eq!(handle.searches_started(), 2);
    handle.shutdown().unwrap();
}

#[test]
fn exhausted_bound_reports_no_program() {
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    // No 2-instruction kernel sorts n = 2 (the CAS needs 4): the layered
    // search exhausts the bound and says so.
    let query = KernelQuery {
        max_len: Some(2),
        optimal_instrs_only: false,
        budget_viability: true,
        cut: None,
        ..KernelQuery::best(2, 1, IsaMode::Cmov)
    };
    let Response::Synth(reply) = client.synth(query, Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    assert_eq!(reply.program, None);
    assert_eq!(reply.found_len, None);
    handle.shutdown().unwrap();
}

#[test]
fn coalesced_source_is_reported() {
    // Directly exercise the follower path: a slow search with several
    // concurrent identical requests — at least one of them must have
    // joined the in-flight search rather than leading it or hitting the
    // cache (searches_started == 1 while no cache entry existed at launch
    // time for any of them, since all were admitted before completion).
    let handle = start(ServiceConfig {
        workers: 4,
        ..local_config()
    });
    let addr = handle.addr();
    let query = KernelQuery::best(3, 1, IsaMode::MinMax);
    let sources = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let query = query.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    match client.synth(query, Some(60_000)).unwrap() {
                        Response::Synth(reply) => reply.source,
                        other => panic!("unexpected {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(handle.searches_started(), 1);
    assert_eq!(
        sources
            .iter()
            .filter(|s| **s == ReplySource::Computed)
            .count(),
        1,
        "exactly one request computed; the rest coalesced or hit the cache"
    );
    handle.shutdown().unwrap();
}

#[test]
fn portfolio_route_races_persists_policy_and_reports_the_winner() {
    let dir = tmp_dir("portfolio");
    let handle = start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..local_config()
    });
    let mut client = Client::connect(handle.addr()).unwrap();

    // Explicit portfolio route: a verified winner with the known-optimal
    // n = 3 length, and the reply names the producing backend.
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let Response::Synth(reply) = client
        .synth_with(query.clone(), Some(120_000), Some("portfolio".into()))
        .unwrap()
    else {
        panic!("expected synth reply");
    };
    assert_eq!(reply.source, ReplySource::Computed);
    assert_eq!(reply.found_len, Some(11));
    let winner = reply.backend.clone().expect("winner backend name");
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let program = machine
        .parse_program(reply.program.as_deref().unwrap())
        .unwrap();
    assert!(machine.is_correct(&program));

    // The race's answer landed in the query-keyed cache: a plain request
    // for the same query is a cache hit, not another race.
    let Response::Synth(warm) = client.synth(query.clone(), Some(60_000)).unwrap() else {
        panic!("expected synth reply");
    };
    assert_eq!(warm.source, ReplySource::Cache);
    assert_eq!(warm.backend, None, "cache hits carry no backend");

    // Stats expose the race counters and the learned dispatch table, and
    // the table row for the winner records its win.
    let Response::Stats(stats) = client.stats().unwrap() else {
        panic!("expected stats reply");
    };
    assert_eq!(stats.portfolio_races, 1);
    assert_eq!(stats.portfolio_wins, 1);
    let row = stats
        .portfolio
        .iter()
        .find(|r| r.shape == "3/1/cmov" && r.backend == winner)
        .expect("dispatch row for the winner");
    assert_eq!(row.wins, 1);

    // The policy persisted next to the cache.
    assert!(dir.join("portfolio_policy.json").exists());

    // A single named backend answers with its own name; an unknown one is
    // a protocol error, not a crash.
    let single = KernelQuery::best(2, 1, IsaMode::Cmov);
    let Response::Synth(reply) = client
        .synth_with(single.clone(), Some(60_000), Some("astar".into()))
        .unwrap()
    else {
        panic!("expected synth reply");
    };
    assert_eq!(reply.found_len, Some(4));
    assert_eq!(reply.backend.as_deref(), Some("astar"));
    // (An uncached query — routing is resolved only after the cache miss.)
    match client
        .synth_with(
            KernelQuery::best(2, 1, IsaMode::MinMax),
            Some(60_000),
            Some("z3".into()),
        )
        .unwrap()
    {
        Response::Error { message } => assert!(message.contains("unknown backend"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown().unwrap();

    // A restarted server reloads the learned table from disk.
    let handle = start(ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..local_config()
    });
    let mut client = Client::connect(handle.addr()).unwrap();
    let Response::Stats(stats) = client.stats().unwrap() else {
        panic!("expected stats reply");
    };
    assert!(
        stats.portfolio.iter().any(|r| r.shape == "3/1/cmov"),
        "dispatch table survives restart"
    );
    handle.shutdown().unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// What one route's synth reply must look like.
struct RoutePin {
    /// The request's `backend` field.
    backend: Option<&'static str>,
    /// The server's `search_threads`.
    search_threads: usize,
    /// The cold reply's `backend`; `Some("*")` means "some exact arm" (a
    /// race's winner is whichever verified arm reported first).
    replied_backend: Option<&'static str>,
}

/// Whether an answer produced by `backend` certifies minimality: the
/// enumerative search under the query's `k = 1` cut does not, the solver
/// and planner arms do.
fn certifies_minimality(backend: Option<&str>) -> bool {
    !matches!(backend, None | Some("astar"))
}

/// Golden pins for every synth route on a fresh server: the cold reply,
/// the warm repeat, and the reply to an already-expired deadline.
#[test]
fn golden_route_pins() {
    const EXACT_ARMS: [&str; 4] = ["astar", "cegis", "smt-min", "plan"];
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let pins = [
        RoutePin {
            backend: None,
            search_threads: 1,
            replied_backend: None,
        },
        RoutePin {
            backend: Some("astar"),
            search_threads: 1,
            replied_backend: Some("astar"),
        },
        // The engine at two search threads, under the arm's name.
        RoutePin {
            backend: Some("astar"),
            search_threads: 2,
            replied_backend: Some("astar"),
        },
        RoutePin {
            backend: Some("portfolio"),
            search_threads: 1,
            replied_backend: Some("*"),
        },
    ];
    for pin in &pins {
        let route = pin.backend.unwrap_or("<engine>");
        let route = format!("{route} at {} search threads", pin.search_threads);
        let handle = start(ServiceConfig {
            search_threads: pin.search_threads,
            ..local_config()
        });
        let mut client = Client::connect(handle.addr()).unwrap();
        let backend = pin.backend.map(str::to_string);

        // A deadline that expired before the worker picked the request up
        // is answered without touching the cache or any engine.
        let expired = client
            .synth_with(query.clone(), Some(0), backend.clone())
            .unwrap();
        assert_eq!(
            expired,
            Response::Timeout(sortsynth_service::TimeoutReply {
                generated: 0,
                expanded: 0,
                elapsed_ms: 0,
                cancelled: false,
            }),
            "{route}: expired deadline"
        );
        assert_eq!(handle.searches_started(), 0, "{route}");

        let Response::Synth(cold) = client
            .synth_with(query.clone(), Some(120_000), backend.clone())
            .unwrap()
        else {
            panic!("{route}: expected a synth reply");
        };
        assert_eq!(cold.source, ReplySource::Computed, "{route}");
        assert_eq!(cold.found_len, Some(11), "{route}");
        let minimal = certifies_minimality(cold.backend.as_deref());
        assert_eq!(cold.minimal_certified, minimal, "{route}");
        assert!(!cold.distance_table_skipped, "{route}");
        match pin.replied_backend {
            Some("*") => assert!(
                EXACT_ARMS.contains(&cold.backend.as_deref().unwrap_or("")),
                "{route}: winner {:?}",
                cold.backend
            ),
            expected => assert_eq!(cold.backend.as_deref(), expected, "{route}"),
        }
        let text = cold.program.clone().expect("kernel text");
        let machine = query.machine();
        assert!(machine.is_correct(&machine.parse_program(&text).unwrap()));
        assert_eq!(handle.searches_started(), 1, "{route}");

        // The warm repeat is a cache hit whatever route was asked for, and
        // cache hits name no backend.
        let Response::Synth(warm) = client
            .synth_with(query.clone(), Some(120_000), backend.clone())
            .unwrap()
        else {
            panic!("{route}: expected a synth reply");
        };
        assert_eq!(warm.source, ReplySource::Cache, "{route}");
        assert_eq!(warm.backend, None, "{route}");
        assert_eq!(warm.found_len, Some(11), "{route}");
        assert_eq!(warm.minimal_certified, minimal, "{route}");
        assert!(!warm.distance_table_skipped, "{route}");
        assert_eq!(warm.program.as_deref(), Some(text.as_str()), "{route}");
        assert_eq!(handle.searches_started(), 1, "{route}");
        handle.shutdown().unwrap();
    }

    // An unknown backend is a protocol error on a cold cache, warm or not
    // (nothing was cached), and an expired deadline still wins over it.
    let handle = start(local_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    // The two-thread engine is no arm of its own: its old name is unknown.
    match client
        .synth_with(query.clone(), Some(60_000), Some("astar-par".to_string()))
        .unwrap()
    {
        Response::Error { message } => assert_eq!(
            message,
            "unknown backend `astar-par` (expected portfolio or one of: \
             astar, cegis, smt-min, mcts, stoke, plan)"
        ),
        other => panic!("unexpected {other:?}"),
    }
    let nope = Some("nope".to_string());
    let Response::Timeout(expired) = client
        .synth_with(query.clone(), Some(0), nope.clone())
        .unwrap()
    else {
        panic!("expired deadline answers before routing");
    };
    assert_eq!((expired.generated, expired.expanded), (0, 0));
    for _ in 0..2 {
        match client
            .synth_with(query.clone(), Some(60_000), nope.clone())
            .unwrap()
        {
            Response::Error { message } => {
                assert!(message.contains("unknown backend `nope`"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(handle.searches_started(), 0);
    handle.shutdown().unwrap();
}

/// Writes `bytes` on a fresh raw connection, closing the write half after
/// them when `close_write` is set. Returns the server's one reply and
/// whether the server closed the connection after it.
fn send_raw(addr: SocketAddr, bytes: &[u8], close_write: bool) -> (Response, bool) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    if close_write {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    let reply = read_message::<Response>(&mut stream)
        .unwrap()
        .expect("the server replies before closing");
    let closed = read_frame(&mut stream).unwrap().is_none();
    (reply, closed)
}

/// One frame around `payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Torn, oversized and garbage frames, and well-formed JSON that is not a
/// request: each gets an error reply naming the fault, then the server
/// closes that connection. No worker panics, and a fresh connection is
/// served as before.
#[test]
fn wire_faults_get_an_error_reply_and_the_server_keeps_serving() {
    let handle = start(local_config());
    let addr = handle.addr();
    let query = r#""query":{"budget_viability":true,"cut":null,"max_len":null,"mode":"cmov","n":2,"optimal_instrs_only":true,"scratch":1}"#;
    let faults: [(&str, Vec<u8>, bool, &str); 7] = [
        ("torn header", vec![0, 0], true, "torn frame header"),
        (
            "oversized frame",
            (MAX_FRAME + 1).to_be_bytes().to_vec(),
            false,
            "frame exceeds MAX_FRAME",
        ),
        (
            "non-UTF-8 payload",
            frame(b"\xff\xfe"),
            false,
            "bad message: invalid utf-8: invalid utf-8 sequence of 1 bytes from index 0",
        ),
        (
            "non-JSON payload",
            frame(b"not json"),
            false,
            "bad message: unexpected Some('n') at offset 0",
        ),
        (
            "unknown op",
            frame(br#"{"op":"frobnicate"}"#),
            false,
            "bad message: unknown op `frobnicate`",
        ),
        (
            "missing query",
            frame(br#"{"op":"synth","timeout_ms":100}"#),
            false,
            "bad message: missing field `query`",
        ),
        (
            "wrong type",
            frame(format!(r#"{{"op":"synth",{query},"timeout_ms":"soon"}}"#).as_bytes()),
            false,
            r#"bad message: expected integer, got Str("soon")"#,
        ),
    ];
    for (fault, bytes, close_write, message) in faults {
        let (reply, closed) = send_raw(addr, &bytes, close_write);
        assert_eq!(
            reply,
            Response::Error {
                message: message.to_string()
            },
            "{fault}"
        );
        assert!(closed, "{fault}: the server closes the connection");
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Pong, "{fault}");
    }
    let mut client = Client::connect(addr).unwrap();
    let Response::Stats(StatsReply {
        worker_panics,
        requests_total,
        ..
    }) = client.stats().unwrap()
    else {
        panic!("expected stats reply");
    };
    assert_eq!(worker_panics, 0);
    assert_eq!(requests_total, 7, "only the pings were admitted");
    handle.shutdown().unwrap();
}
