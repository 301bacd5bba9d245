//! Service load generator: throughput and tail latency of the synthesis
//! server under three workloads.
//!
//! * **cold-cache** — every request is a distinct query, so every request
//!   pays for a real search;
//! * **warm-cache** — one query repeated, served from the in-memory cache
//!   front after the first hit;
//! * **duplicate-storm** — many clients fire the *same* cold query
//!   concurrently; single-flight coalescing must run exactly one search.
//!
//! Reports requests/s and p50/p95/p99 latency per workload, plus the number
//! of searches the server actually started (the cache/coalescing
//! effectiveness measure).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sortsynth_cache::{CutSpec, KernelQuery};
use sortsynth_isa::IsaMode;
use sortsynth_obs::RingBuffer;
use sortsynth_service::{Client, Response, Server, ServerHandle, ServiceConfig};

use crate::util::{fmt_duration, write_bench_json, BenchConfig, Table};

/// Latency percentile over an already-sorted sample.
fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// `count` distinct cheap queries (n = 2 and n = 3 machines, varied scratch
/// and cut) — each fingerprint is new to the server, so each is a cold miss.
/// Scratch counts stay within the distance table's supported machine sizes
/// so every cold search keeps its pruning aids and finishes in milliseconds.
fn cold_queries(count: usize) -> Vec<KernelQuery> {
    let mut queries = Vec::new();
    for add in 0u32.. {
        for (n, max_scratch) in [(2u8, 7u8), (3, 6)] {
            for scratch in 1..=max_scratch {
                let mut query = KernelQuery::best(n, scratch, IsaMode::Cmov);
                if add > 0 {
                    query.cut = Some(CutSpec::Additive { add });
                }
                queries.push(query);
                if queries.len() == count {
                    return queries;
                }
            }
        }
    }
    unreachable!("the loop above returns once `count` queries exist")
}

/// Round-robins `queries` over `clients` connections (one thread each) and
/// returns (sorted per-request latencies, wall-clock for the whole batch).
fn run_workload(
    addr: SocketAddr,
    clients: usize,
    queries: &[KernelQuery],
) -> (Vec<Duration>, Duration) {
    let started = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let share: Vec<KernelQuery> =
                    queries.iter().skip(c).step_by(clients).cloned().collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lats = Vec::with_capacity(share.len());
                    for query in share {
                        let sent = Instant::now();
                        let response = client.synth(query, Some(120_000)).expect("synth request");
                        assert!(
                            matches!(response, Response::Synth(_)),
                            "unexpected response {response:?}"
                        );
                        lats.push(sent.elapsed());
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    latencies.sort();
    (latencies, elapsed)
}

fn report_row(
    table: &mut Table,
    name: &str,
    clients: usize,
    latencies: &[Duration],
    elapsed: Duration,
    searches: u64,
) {
    let throughput = latencies.len() as f64 / elapsed.as_secs_f64();
    table.row_strings(vec![
        name.to_string(),
        latencies.len().to_string(),
        clients.to_string(),
        format!("{throughput:.0}"),
        fmt_duration(percentile(latencies, 50.0)),
        fmt_duration(percentile(latencies, 95.0)),
        fmt_duration(percentile(latencies, 99.0)),
        searches.to_string(),
    ]);
}

/// Runs the three workloads against an in-process server.
pub fn run(cfg: &BenchConfig) {
    println!("== service load: throughput and tail latency ==");
    let handle: ServerHandle = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 256,
        cache_dir: None,
        cache_capacity: 4096,
        default_timeout: Some(Duration::from_secs(120)),
        search_threads: 1,
        self_report: None,
        portfolio: None,
        record_dir: None,
        search_mem_limit: None,
    })
    .expect("bind service")
    .spawn();
    let addr = handle.addr();

    let mut table = Table::new(&[
        "workload", "requests", "clients", "req/s", "p50", "p95", "p99", "searches",
    ]);

    // Cold cache: every request is a distinct query → one search each.
    let cold = cold_queries(if cfg.quick { 8 } else { 24 });
    let (latencies, elapsed) = run_workload(addr, 4, &cold);
    report_row(
        &mut table,
        "cold-cache",
        4,
        &latencies,
        elapsed,
        handle.searches_started(),
    );

    // Warm cache: one already-computed query, repeated. Zero new searches.
    let warm_query = KernelQuery::best(3, 1, IsaMode::Cmov);
    let before = handle.searches_started();
    let warm: Vec<KernelQuery> = vec![warm_query.clone(); if cfg.quick { 64 } else { 512 }];
    let (latencies, elapsed) = run_workload(addr, 4, &warm);
    report_row(
        &mut table,
        "warm-cache",
        4,
        &latencies,
        elapsed,
        handle.searches_started() - before,
    );

    // Duplicate storm: 16 clients race the same cold query; single-flight
    // must coalesce them onto exactly one search.
    let storm_query = KernelQuery::best(3, 2, IsaMode::MinMax);
    let before = handle.searches_started();
    let storm: Vec<KernelQuery> = vec![storm_query; 16];
    let (latencies, elapsed) = run_workload(addr, 16, &storm);
    let storm_searches = handle.searches_started() - before;
    assert_eq!(storm_searches, 1, "duplicate storm must coalesce");
    report_row(
        &mut table,
        "duplicate-storm",
        16,
        &latencies,
        elapsed,
        storm_searches,
    );

    // Instrumentation overhead: replay the warm-cache workload with tracing
    // fully active (a live ring-buffer subscriber receiving every span and
    // event) and again with it disabled. Warm-cache is the worst case for
    // overhead — requests are microseconds of cache lookup, so fixed
    // per-request instrumentation cost is maximally visible. Each mode takes
    // the best of three runs (after an untimed warmup) so scheduler noise
    // doesn't masquerade as instrumentation cost.
    let probe: Vec<KernelQuery> = vec![warm_query; if cfg.quick { 512 } else { 2048 }];
    let best_rps = |addr, probe: &[KernelQuery]| {
        let _ = run_workload(addr, 4, probe);
        (0..3)
            .map(|_| {
                let (lats, elapsed) = run_workload(addr, 4, probe);
                lats.len() as f64 / elapsed.as_secs_f64()
            })
            .fold(0.0f64, f64::max)
    };
    let ring = Arc::new(RingBuffer::new(65536));
    let sub = sortsynth_obs::add_subscriber(ring);
    sortsynth_obs::set_enabled(true);
    let rps_on = best_rps(addr, &probe);
    sortsynth_obs::set_enabled(false);
    sortsynth_obs::remove_subscriber(sub);
    let rps_off = best_rps(addr, &probe);
    let overhead_pct = (rps_off / rps_on - 1.0) * 100.0;

    handle.shutdown().expect("shutdown");
    table.print();
    println!(
        "obs overhead (warm cache): {rps_on:.0} req/s traced vs {rps_off:.0} req/s untraced \
         ({overhead_pct:+.1}% throughput cost)"
    );
    table.write_csv(&cfg.ensure_out_dir().join("service_load.csv"));
    write_bench_json(
        "service_load",
        &format!(
            "{{\"experiment\":\"service_load\",\"rows\":{},\
             \"obs_overhead\":{{\"warm_requests\":{},\"req_per_s_obs_on\":{rps_on:.1},\
             \"req_per_s_obs_off\":{rps_off:.1},\"overhead_pct\":{overhead_pct:.2}}}}}\n",
            table.rows_json(),
            probe.len(),
        ),
    );
}
