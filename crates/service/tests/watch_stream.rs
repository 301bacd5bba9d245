//! Live-attach end-to-end: a watcher on a real TCP connection streams
//! progress frames from an in-flight, coalesced search, the server's
//! flight recorder leaves a readable recording of the same run, and a
//! watcher that never reads holds up neither the flight nor other watchers.

use std::fs;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;
use sortsynth_service::proto::write_message;
use sortsynth_service::{Client, Request, Response, Server, ServiceConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sortsynth-watch-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A query whose search outlives any deadline the test gives it, in debug
/// and release builds alike: n = 4 with no pruning aids (so no distance
/// table, whose construction would delay the first progress frame) and a
/// length bound below the optimum of 20, so it can neither find a kernel
/// nor exhaust the space before the deadline, which expires long after
/// several 500 ms progress-floor ticks have fired.
fn slow_query() -> KernelQuery {
    KernelQuery {
        max_len: Some(15),
        optimal_instrs_only: false,
        budget_viability: false,
        cut: None,
        ..KernelQuery::best(4, 1, IsaMode::Cmov)
    }
}

#[test]
fn watcher_streams_frames_from_a_coalesced_flight_and_recorder_persists_them() {
    let record_dir = tmp_dir("rec");
    let handle = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        record_dir: Some(record_dir.clone()),
        ..ServiceConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();
    let query = slow_query();

    // Two identical synth requests: one leads, one coalesces. A watcher
    // attaches to the same flight and streams until the search times out.
    let synth_a = {
        let query = query.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.synth(query, Some(2_500)).unwrap()
        })
    };
    let synth_b = {
        let query = query.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.synth(query, Some(2_500)).unwrap()
        })
    };
    let mut watcher = Client::connect(addr).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let frames = watcher
        .watch(query.clone(), None, Some(10_000))
        .expect("flight is live long enough to attach");

    let a = synth_a.join().unwrap();
    let b = synth_b.join().unwrap();
    assert!(
        matches!(a, Response::Timeout(_)) && matches!(b, Response::Timeout(_)),
        "the deliberately slow query must time out: {a:?} / {b:?}"
    );
    assert_eq!(
        handle.searches_started(),
        1,
        "watch rode one coalesced search"
    );

    // The stream: at least two frames, strictly growing expansion counts,
    // terminated by the finished frame carrying the outcome and live
    // per-shard memory levels.
    assert!(frames.len() >= 2, "got {} frames", frames.len());
    for pair in frames.windows(2) {
        assert!(pair[1].expanded >= pair[0].expanded);
        assert!(!pair[0].finished, "only the last frame is final");
    }
    let last = frames.last().unwrap();
    assert!(last.finished);
    assert_eq!(last.outcome.as_deref(), Some("TimeLimit"));
    assert!(!last.shards.is_empty());
    assert!(last.shards[0].arena_bytes > 0);

    // After the stream the connection is back in request/response.
    assert!(matches!(watcher.ping().unwrap(), Response::Pong));

    // The recorder left the same run on disk, parseable and finished.
    let recordings: Vec<_> = fs::read_dir(&record_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ssfr"))
        .collect();
    assert_eq!(recordings.len(), 1, "one flight, one recording");
    let recording = sortsynth_obs::read_recording(&recordings[0]).unwrap();
    assert!(recording.frames.len() >= 2);
    let final_frame = recording.frames.last().unwrap();
    assert!(final_frame.finished);
    assert_eq!(final_frame.outcome.as_deref(), Some("TimeLimit"));
    assert_eq!(
        final_frame.expanded, last.expanded,
        "recording and stream agree"
    );

    handle.shutdown().unwrap();
    let _ = fs::remove_dir_all(&record_dir);
}

#[test]
fn watch_without_a_matching_flight_errors_after_the_wait_window() {
    let handle = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServiceConfig::default()
    })
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client
        .watch(KernelQuery::best(2, 1, IsaMode::Cmov), None, Some(50))
        .expect_err("no flight to attach to");
    assert!(err.to_string().contains("no in-flight search"), "{err}");
    // The connection survives the refused watch.
    assert!(matches!(client.ping().unwrap(), Response::Pong));
    handle.shutdown().unwrap();
}

#[test]
fn a_watcher_that_never_reads_holds_up_neither_the_flight_nor_other_watchers() {
    let handle = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServiceConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();
    let query = slow_query();
    let synth = || {
        let query = query.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.synth(query, Some(2_500)).unwrap()
        })
    };
    let (synth_a, synth_b) = (synth(), synth());

    // The stalled watcher asks for the stream and never reads a byte of it.
    let mut stalled = TcpStream::connect(addr).unwrap();
    let watch = Request::Watch {
        query: query.clone(),
        backend: None,
        wait_ms: Some(10_000),
    };
    write_message(&mut stalled, &watch).unwrap();

    let mut watcher = Client::connect(addr).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let frames = watcher
        .watch(query, None, Some(10_000))
        .expect("flight is live long enough to attach");

    let (a, b) = (synth_a.join().unwrap(), synth_b.join().unwrap());
    assert!(
        matches!(a, Response::Timeout(_)) && matches!(b, Response::Timeout(_)),
        "the deliberately slow query must time out: {a:?} / {b:?}"
    );
    assert_eq!(handle.searches_started(), 1, "one coalesced search");
    assert!(frames.len() >= 2, "got {} frames", frames.len());
    let last = frames.last().unwrap();
    assert!(last.finished);
    assert_eq!(last.outcome.as_deref(), Some("TimeLimit"));

    drop(stalled);
    handle.shutdown().unwrap();
}

/// A server running two search threads per request, recording every
/// engine search into `record_dir`.
fn two_thread_server(record_dir: Option<PathBuf>) -> sortsynth_service::ServerHandle {
    Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        search_threads: 2,
        record_dir,
        ..ServiceConfig::default()
    })
    .expect("bind")
    .spawn()
}

/// `--backend astar` runs the engine route under the server's engine
/// settings: it answers with the default route's kernel, takes watchers,
/// leaves a recording, and counts states when it times out.
#[test]
fn the_astar_arm_runs_the_engine_route_under_the_server_settings() {
    let astar = Some("astar".to_string());
    let query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let synth_on_a_fresh_server = |backend: Option<String>| {
        let handle = two_thread_server(None);
        let mut client = Client::connect(handle.addr()).unwrap();
        let Response::Synth(reply) = client.synth_with(query.clone(), None, backend).unwrap()
        else {
            panic!("expected a synth reply");
        };
        handle.shutdown().unwrap();
        reply
    };
    let named = synth_on_a_fresh_server(astar.clone());
    let default = synth_on_a_fresh_server(None);
    assert_eq!(named.backend.as_deref(), Some("astar"));
    assert_eq!(default.backend, None);
    assert_eq!(named.found_len, Some(11));
    assert_eq!(named.program, default.program, "the default route's kernel");
    assert_eq!(named.minimal_certified, default.minimal_certified);

    let record_dir = tmp_dir("astar");
    let handle = two_thread_server(Some(record_dir.clone()));
    let addr = handle.addr();
    let synth = {
        let (query, astar) = (slow_query(), astar.clone());
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.synth_with(query, Some(2_500), astar).unwrap()
        })
    };
    let mut watcher = Client::connect(addr).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let frames = watcher
        .watch(slow_query(), astar, Some(10_000))
        .expect("an astar flight takes watchers");
    let Response::Timeout(timeout) = synth.join().unwrap() else {
        panic!("the deliberately slow query must time out");
    };
    assert!(timeout.generated > 0, "{timeout:?}");
    assert!(frames.len() >= 2, "got {} frames", frames.len());
    let last = frames.last().unwrap();
    assert!(last.finished);
    assert_eq!(last.outcome.as_deref(), Some("TimeLimit"));
    assert_eq!(last.generated, timeout.generated, "stream and reply agree");

    let recordings: Vec<_> = fs::read_dir(&record_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(recordings.len(), 1, "one astar search, one recording");
    let recording = sortsynth_obs::read_recording(&recordings[0]).unwrap();
    assert!(recording.frames.last().is_some_and(|f| f.finished));

    handle.shutdown().unwrap();
    let _ = fs::remove_dir_all(&record_dir);
}
