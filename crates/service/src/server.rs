//! The synthesis server: acceptor, admission gate, cache + coalesced synth
//! pipeline, live attach, and deadline propagation.
//!
//! # Architecture
//!
//! ```text
//! acceptor ──> connection thread (one per client)
//!                │  read frame, parse request
//!                │  admission gate: take a free run slot, else wait in
//!                │    arrival order for one, else (wait slots full) Overloaded
//!                │  execute on this thread, holding the run slot:
//!                │    synth: cache → flight registry → search
//!                │    deadline → SearchBudget → Timeout reply
//!                │    check/analyze/sleep: direct
//!                ▼
//!              write response
//! ```
//!
//! One flight registry (`crate::flight`) serves coalescing and live attach:
//! a cache miss joins the flight for its key (leading the search or
//! following the leader's reply), the engine's progress hook publishes into
//! that flight, and a `watch` on the connection thread reads the flight's
//! newest frame each time it writes, so a watcher that stops reading costs
//! the server one frame, not a queue.
//!
//! Admission control is a gate of `workers` run slots and `queue_depth`
//! wait slots, filled in arrival order: a request that finds both full is
//! answered [`Response::Overloaded`] at once instead of letting latency
//! grow without bound. Deadlines are stamped before the wait, so a request
//! that waits out its deadline is answered with [`Response::Timeout`]
//! without ever reaching the engine.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sortsynth_cache::KernelQuery;
use sortsynth_isa::{analyze, ThroughputModel};
use sortsynth_obs::FlightRecorder;
use sortsynth_obs::{names, FieldValue, Span};
use sortsynth_portfolio::{Answerer, Route};
use sortsynth_search::{ProgressHook, SearchBudget};

use crate::flight::{Flights, Role};
use crate::lock;
use crate::proto::{
    read_message, write_message, AnalyzeReply, CheckReply, LintReply, ReplySource, Request,
    Response, StatsReply, TimeoutReply,
};

/// Upper bound honoured for `Request::Sleep` (keeps the diagnostic op from
/// holding a run slot for long).
const MAX_SLEEP_MS: u64 = 10_000;

/// How long a `watch` request waits for a matching flight to start when the
/// client doesn't say.
const DEFAULT_WATCH_WAIT_MS: u64 = 2_000;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Requests executing at once, each on the connection thread that read
    /// it (the admission gate's run slots; at least one).
    pub workers: usize,
    /// Requests waiting for a run slot (at least one); requests beyond it
    /// are shed with [`Response::Overloaded`].
    pub queue_depth: usize,
    /// Durable cache directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Capacity of the in-memory cache front.
    pub cache_capacity: usize,
    /// Deadline applied to synth requests that don't carry their own.
    pub default_timeout: Option<Duration>,
    /// Search-engine threads per synth request (`1` = sequential engine,
    /// `0` = all available cores). Interplay with admission control: up to
    /// `workers` synth requests execute at once, each using up to
    /// `search_threads` engine threads, so the process can run
    /// `workers × search_threads` search threads at peak. Size the two
    /// knobs together — e.g. on an 8-core box prefer `workers = 2,
    /// search_threads = 4` for latency, or `workers = 8,
    /// search_threads = 1` for throughput. The thread count never changes
    /// an answer (only how fast it arrives), so it is deliberately not part
    /// of the cache fingerprint.
    pub search_threads: usize,
    /// When set, a background thread logs a one-line load summary (queue
    /// depth, inflight, shed, cache hit counts) at this interval. Enabled by
    /// `sortsynth serve --metrics`.
    pub self_report: Option<Duration>,
    /// Default synthesis route for synth requests that don't name a
    /// backend. `None` keeps the classic engine path; `Some(names)` races
    /// that backend set through the portfolio executor (an empty list means
    /// every known backend). Requests carrying an explicit `backend`
    /// override this. Enabled by `sortsynth serve --portfolio`.
    pub portfolio: Option<Vec<String>>,
    /// When set, every engine search (no backend, or `astar`) leaves a
    /// recording `search-<fingerprint>-<seq>.ssfr` in this directory
    /// (bounded by the recorder's segment rotation), readable post-mortem
    /// with `sortsynth inspect`. Enabled by `sortsynth serve --record-dir`.
    pub record_dir: Option<PathBuf>,
    /// Memory budget applied to every engine search. When the
    /// resident estimate crosses it, cold open-list buckets and closed-set
    /// segments spill to disk instead of growing the heap. A budgeted
    /// search always runs on one search thread, whatever `search_threads`
    /// says.
    /// Enabled by `sortsynth serve --search-mem-limit`.
    pub search_mem_limit: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_dir: None,
            cache_capacity: 1024,
            default_timeout: Some(Duration::from_secs(30)),
            search_threads: 1,
            self_report: None,
            portfolio: None,
            record_dir: None,
            search_mem_limit: None,
        }
    }
}

/// State shared by the acceptor and the connection threads.
struct Shared {
    /// The answer path: kernel cache, dispatch table, and default roster.
    answers: Answerer,
    /// In-flight requests by flight key: coalescing and live attach.
    flights: Flights,
    gate: Gate,
    /// Timeouts, search threads, recording directory, memory budget.
    config: ServiceConfig,
    searches_started: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// Per-server counters behind [`Request::Stats`] (the gate keeps the
    /// admission ones); unlike the process-wide registry, they stay per
    /// server when several servers share one process (tests).
    worker_panics: AtomicU64,
    coalesced: AtomicU64,
    /// Distinguishes recordings of repeated identical queries.
    recording_seq: AtomicU64,
}

/// Admission control: `run_slots` requests execute at once, up to
/// `wait_slots` more wait for a run slot in arrival order, and the rest are
/// shed.
struct Gate {
    run_slots: usize,
    wait_slots: u64,
    counts: Mutex<GateCounts>,
    /// Signalled when a run slot frees up or the head of the line moves.
    turn: Condvar,
}

/// Admission counts. Each admitted request takes a ticket; the waiters
/// hold `next..issued`.
#[derive(Default)]
struct GateCounts {
    running: usize,
    issued: u64,
    next: u64,
    shed: u64,
}

impl GateCounts {
    fn waiting(&self) -> u64 {
        self.issued - self.next
    }
}

/// A held run slot, given back on drop (also when the handler unwinds).
struct RunSlot<'a>(&'a Gate);

impl Gate {
    /// Takes a run slot, first waiting for one behind earlier arrivals;
    /// `None` (the request is shed) when every wait slot is taken too.
    fn enter(&self) -> Option<RunSlot<'_>> {
        let mut counts = lock(&self.counts);
        if counts.waiting() >= self.wait_slots {
            counts.shed += 1;
            names::counter(names::REQUESTS_SHED_TOTAL).inc();
            return None;
        }
        names::counter(names::REQUESTS_TOTAL).inc();
        let ticket = counts.issued;
        counts.issued += 1;
        let blocked = |c: &mut GateCounts| c.next != ticket || c.running >= self.run_slots;
        if blocked(&mut counts) {
            let queued = names::gauge(names::QUEUE_DEPTH);
            queued.inc();
            counts = self
                .turn
                .wait_while(counts, blocked)
                .unwrap_or_else(|e| e.into_inner());
            queued.dec();
        }
        counts.next += 1;
        counts.running += 1;
        names::gauge(names::INFLIGHT_REQUESTS).inc();
        // The next in line may find a slot free too.
        self.turn.notify_all();
        Some(RunSlot(self))
    }

    /// Blocks until no request holds or waits for a run slot.
    fn wait_idle(&self) {
        let busy = |c: &mut GateCounts| c.running > 0 || c.waiting() > 0;
        drop(self.turn.wait_while(lock(&self.counts), busy));
    }
}

impl Drop for RunSlot<'_> {
    fn drop(&mut self) {
        lock(&self.0.counts).running -= 1;
        names::gauge(names::INFLIGHT_REQUESTS).dec();
        self.0.turn.notify_all();
    }
}

impl Shared {
    /// Builds the [`Request::Stats`] snapshot.
    fn stats_reply(&self) -> StatsReply {
        let cache = self.answers.cache().stats();
        let (rows, races) = self.answers.policy();
        let gate = lock(&self.gate.counts);
        StatsReply {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: gate.waiting() as i64,
            inflight: gate.running as i64,
            requests_total: gate.issued,
            shed_total: gate.shed,
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            searches_started: self.searches_started.load(Ordering::SeqCst),
            singleflight_coalesced: self.coalesced.load(Ordering::Relaxed),
            cache_memory_hits: cache.memory_hits,
            cache_disk_hits: cache.disk_hits,
            cache_misses: cache.misses,
            cache_insertions: cache.insertions,
            cache_evictions: cache.evictions,
            cache_verify_rejected: cache.verify_rejected,
            cache_verify_skipped: cache.verify_skipped + cache.load.verify_skipped,
            portfolio_races: races.races,
            portfolio_wins: races.wins,
            portfolio_widened: races.widened,
            portfolio: rows,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    reporter: Option<JoinHandle<()>>,
}

/// Control handle for a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Binds the listener, opens the cache, and starts the self-report
    /// thread if one is configured. The server does not accept connections
    /// until [`Server::run`] (or [`Server::spawn`]).
    pub fn bind(config: ServiceConfig) -> io::Result<Server> {
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let addr = listener.local_addr()?;
        // The dispatch and sizing tables live next to the durable cache, so
        // a restarted server keeps what it learned; memory-only servers
        // start cold.
        let answers = Answerer::open(
            config.cache_dir.as_deref(),
            config.cache_capacity,
            config.portfolio.as_deref(),
        )?;
        // Pre-register every metric family so the first `metrics` reply is
        // complete even before any request has touched a counter.
        names::register_well_known();
        if let Some(dir) = &config.record_dir {
            std::fs::create_dir_all(dir)?;
        }
        let shared = Arc::new(Shared {
            answers,
            flights: Flights::default(),
            gate: Gate {
                run_slots: config.workers.max(1),
                wait_slots: config.queue_depth.max(1) as u64,
                counts: Mutex::default(),
                turn: Condvar::new(),
            },
            searches_started: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            worker_panics: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            recording_seq: AtomicU64::new(0),
            config,
        });
        let reporter = shared.config.self_report.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sortsynth-reporter".to_string())
                .spawn(move || self_report_loop(shared, interval))
                .expect("spawn reporter")
        });
        Ok(Server {
            listener,
            addr,
            shared,
            reporter,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts connections until shut down, then waits until every admitted
    /// request is answered. Blocks the calling thread.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            shared,
            reporter,
            ..
        } = self;
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name("sortsynth-conn".to_string())
                        .spawn(move || handle_connection(stream, shared))
                        .expect("spawn connection thread");
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        shared.gate.wait_idle();
        if let Some(reporter) = reporter {
            let _ = reporter.join();
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread and returns a control
    /// handle.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let acceptor = std::thread::Builder::new()
            .name("sortsynth-acceptor".to_string())
            .spawn(move || self.run())
            .expect("spawn acceptor");
        ServerHandle {
            addr,
            shared,
            acceptor,
        }
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of synthesis searches actually started (cache hits and
    /// coalesced requests excluded) — the observable the single-flight
    /// tests assert on.
    pub fn searches_started(&self) -> u64 {
        self.shared.searches_started.load(Ordering::SeqCst)
    }

    /// Cache statistics snapshot.
    pub fn cache_stats(&self) -> sortsynth_cache::CacheStats {
        self.shared.answers.cache().stats()
    }

    /// Stops accepting, waits until every admitted request is answered, and
    /// joins the acceptor.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.acceptor.join().expect("acceptor panicked")
    }
}

/// Periodic self-reporting: one summary log line per interval, until
/// shutdown. The line carries the same gauges as [`Request::Stats`].
fn self_report_loop(shared: Arc<Shared>, interval: Duration) {
    let interval = interval.max(Duration::from_millis(100));
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        let stats = shared.stats_reply();
        sortsynth_obs::info!(
            "# sortsynth stats uptime_ms={} queue={} inflight={} requests={} shed={} panics={} searches={} coalesced={} cache_hits={} cache_misses={}",
            stats.uptime_ms,
            stats.queue_depth,
            stats.inflight,
            stats.requests_total,
            stats.shed_total,
            stats.worker_panics,
            stats.searches_started,
            stats.singleflight_coalesced,
            stats.cache_memory_hits + stats.cache_disk_hits,
            stats.cache_misses,
        );
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    loop {
        let request = match read_message::<Request>(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean close
            Err(e) => {
                let _ = write_message(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        // Observability verbs are answered without passing the admission
        // gate: a scrape must keep working precisely when the server is
        // overloaded and sheds everything else.
        let response = match &request {
            Request::Metrics | Request::Stats => execute(&shared, &request, None, 0),
            Request::Watch {
                query,
                backend,
                wait_ms,
            } => {
                if !handle_watch(&shared, &mut writer, query, backend.as_deref(), *wait_ms) {
                    return;
                }
                continue;
            }
            _ => admit(&shared, &request),
        };
        if write_message(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// Answers one request that needs a run slot, under its request span.
/// Admission is implied by the span itself; only the shed path gets an
/// explicit marker event.
fn admit(shared: &Shared, request: &Request) -> Response {
    let span = Span::root_with("request", &[("op", FieldValue::Static(request.tag()))]);
    let accepted = Instant::now();
    // Synth requests honour their own `timeout_ms`, falling back to the
    // server default; the deadline is stamped before the wait.
    let deadline = match request {
        Request::Synth { timeout_ms, .. } => timeout_ms
            .map(Duration::from_millis)
            .or(shared.config.default_timeout)
            .map(|t| accepted + t),
        _ => None,
    };
    let response = match shared.gate.enter() {
        Some(_slot) => {
            let _execute = Span::child_of(span.id(), "execute");
            // A panicking handler (engine bug, pathological query) must not
            // take the connection down with it: answer with an error and
            // keep serving. An unwinding search leader drops its flight
            // token, which releases any followers.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(shared, request, deadline, span.id())
            }))
            .unwrap_or_else(|payload| {
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                names::counter(names::WORKER_PANICS_TOTAL).inc();
                Response::Error {
                    message: format!("request handler panicked: {}", panic_message(&payload)),
                }
            })
        }
        None => {
            span.event("shed", &[]);
            Response::Overloaded
        }
    };
    names::histogram(names::REQUEST_SECONDS).observe_duration(accepted.elapsed());
    span.event("reply", &[("type", FieldValue::Static(response.tag()))]);
    response
}

/// Streams an in-flight search's progress frames to one watcher. Runs on
/// the connection thread (like `metrics`/`stats`) so attaching works under
/// overload. Returns `false` when the connection is gone.
fn handle_watch(
    shared: &Shared,
    writer: &mut TcpStream,
    query: &KernelQuery,
    backend: Option<&str>,
    wait_ms: Option<u64>,
) -> bool {
    let route = match shared.answers.route(backend) {
        Ok(route) => route,
        Err(failure) => {
            return write_message(writer, &Response::answer(query, Err(failure))).is_ok()
        }
    };
    let wait = Duration::from_millis(wait_ms.unwrap_or(DEFAULT_WATCH_WAIT_MS));
    // Only engine searches publish progress, so only their flights take
    // watchers.
    let flight = route
        .runs_engine()
        .then(|| shared.flights.attach(route.flight_key(query), wait))
        .flatten();
    let Some(flight) = flight else {
        return write_message(
            writer,
            &Response::Error {
                message: "no in-flight search for this query".to_string(),
            },
        )
        .is_ok();
    };
    names::counter(names::WATCH_STREAMS_TOTAL).inc();
    let frames = names::counter(names::WATCH_FRAMES_TOTAL);
    // Each write carries the flight's newest frame, so a watcher that falls
    // behind skips ahead. The stream ends with a `finished` frame: the
    // search's own, or an `Abandoned` one if the flight ended without it.
    let mut seen = 0;
    loop {
        let frame = flight.next_frame(&mut seen);
        let finished = frame.finished;
        if write_message(writer, &Response::Progress(frame)).is_err() {
            return false;
        }
        frames.inc();
        if finished {
            return true;
        }
    }
}

fn execute(
    shared: &Shared,
    request: &Request,
    deadline: Option<Instant>,
    span_id: u64,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis((*ms).min(MAX_SLEEP_MS)));
            Response::Slept
        }
        Request::Check { machine, program } => match machine.parse_program(program) {
            Ok(prog) => {
                // One pass of the n! oracle answers both fields.
                let counterexamples = machine.counterexamples(&prog).len() as u64;
                Response::Check(CheckReply {
                    correct: counterexamples == 0,
                    counterexamples,
                })
            }
            Err(e) => Response::Error {
                message: format!("parse error: {e}"),
            },
        },
        Request::Analyze { machine, program } => match machine.parse_program(program) {
            Ok(prog) => {
                let report = analyze(&prog, &ThroughputModel::default());
                let verified = sortsynth_verify::verify(machine, &prog);
                Response::Analyze(AnalyzeReply {
                    cycles_per_iteration: report.cycles_per_iteration,
                    critical_path: report.critical_path,
                    port_bound: report.port_bound,
                    issue_bound: report.issue_bound,
                    latency_bound: report.latency_bound,
                    verdict: verified.verdict.wire_name().to_string(),
                    lints: verified
                        .diagnostics
                        .iter()
                        .map(|d| LintReply {
                            kind: d.kind.name().to_string(),
                            severity: d.severity().name().to_string(),
                            index: d.index.map(|i| i as u64),
                            message: d.message.clone(),
                        })
                        .collect(),
                })
            }
            Err(e) => Response::Error {
                message: format!("parse error: {e}"),
            },
        },
        Request::Synth { query, backend, .. } => {
            handle_synth(shared, query, backend.as_deref(), deadline, span_id)
        }
        // The connection thread answers metrics and stats through here
        // without passing the gate, and streams watch itself.
        Request::Metrics => Response::Metrics {
            text: sortsynth_obs::registry().render_prometheus(),
        },
        Request::Stats => Response::Stats(shared.stats_reply()),
        Request::Watch { .. } => Response::Error {
            message: "watch is answered inline by the connection thread".to_string(),
        },
    }
}

/// Answers one synth request: deadline check, cache get, route, then the
/// coalesced run.
fn handle_synth(
    shared: &Shared,
    query: &KernelQuery,
    backend: Option<&str>,
    deadline: Option<Instant>,
    span_id: u64,
) -> Response {
    // Deadline may already have expired while waiting for a run slot.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Response::Timeout(TimeoutReply::default());
    }
    if let Some(answer) = shared.answers.cached(query) {
        return Response::answer(query, Ok(answer));
    }
    match shared.answers.route(backend) {
        Ok(route) => coalesce(shared, query, &route, deadline, span_id),
        Err(failure) => Response::answer(query, Err(failure)),
    }
}

/// Runs a cache miss's route once per flight key: the first request leads,
/// identical requests arriving meanwhile follow with a clone of its reply.
fn coalesce(
    shared: &Shared,
    query: &KernelQuery,
    route: &Route,
    deadline: Option<Instant>,
    span_id: u64,
) -> Response {
    let key = route.flight_key(query);
    match shared.flights.join(key) {
        Role::Follower(Some(mut response)) => {
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            names::counter(names::SINGLEFLIGHT_COALESCED_TOTAL).inc();
            if let Response::Synth(reply) = &mut response {
                reply.source = ReplySource::Coalesced;
            }
            response
        }
        Role::Follower(None) => Response::Error {
            message: "coalesced search was abandoned".to_string(),
        },
        Role::Leader(token) => {
            // A request that missed the cache while the previous leader was
            // still searching can join only after that leader completed its
            // flight — by which time its answer is in the memory front (see
            // the `flight` docs). Re-check before searching again.
            let response = match shared.answers.resident(query) {
                Some(answer) => Response::answer(query, Ok(answer)),
                None => search(shared, query, route, key, deadline, span_id),
            };
            token.complete(response.clone());
            response
        }
    }
}

/// Leads one search: the route runs on the answer path, which inserts the
/// kernel into the cache before the caller completes the flight.
fn search(
    shared: &Shared,
    query: &KernelQuery,
    route: &Route,
    key: u64,
    deadline: Option<Instant>,
    span_id: u64,
) -> Response {
    shared.searches_started.fetch_add(1, Ordering::SeqCst);
    names::counter(names::SEARCHES_STARTED_TOTAL).inc();
    let search_span = Span::child_of(span_id, "search");
    search_span.event(
        "query",
        &[(
            "fingerprint",
            FieldValue::Str(format!("{:016x}", query.fingerprint())),
        )],
    );
    let mut cfg = shared.answers.engine_config(query);
    cfg.threads = shared.config.search_threads;
    cfg.mem_budget_bytes = shared.config.search_mem_limit;
    if let Some(deadline) = deadline {
        cfg.budget = SearchBudget::with_deadline(deadline);
    }
    // Every engine search is observable: its progress hook publishes into
    // the leader's flight, looked up once here, for watchers, and (when
    // configured) leaves a flight recording on disk. The engine's
    // guaranteed final snapshot publishes the `finished` frame; if the
    // search unwinds, the abandoned flight ends its watchers' streams.
    if route.runs_engine() {
        let recorder = shared.config.record_dir.as_ref().and_then(|dir| {
            let seq = shared.recording_seq.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("search-{:016x}-{seq}.ssfr", query.fingerprint()));
            FlightRecorder::create(&path).ok()
        });
        let flight = shared.flights.attach(key, Duration::ZERO);
        cfg.progress_hook = Some(ProgressHook::new(move |p| {
            if let Some(recorder) = &recorder {
                // Recording is best-effort: a full disk must not fail a
                // search.
                let _ = recorder.record(p);
            }
            if let Some(flight) = &flight {
                flight.publish(p);
            }
        }));
    }
    Response::answer(query, shared.answers.run(query, route, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use sortsynth_isa::IsaMode;
    use std::net::Shutdown;

    /// Request B misses the cache while leader A is still searching; A's
    /// search inserts its kernel and A completes its flight; only then does
    /// B join, finding no flight. B must be answered from the memory front
    /// rather than lead a second search.
    #[test]
    fn a_late_joiner_does_not_rerun_a_finished_search() {
        let config = ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServiceConfig::default()
        };
        let Server { shared, .. } = Server::bind(config).unwrap();
        let (query, route) = (KernelQuery::best(2, 1, IsaMode::Cmov), Route::Engine);
        let key = route.flight_key(&query);
        let Role::Leader(a) = shared.flights.join(key) else {
            panic!("the first joiner leads");
        };
        assert!(shared.answers.cached(&query).is_none(), "B misses");
        a.complete(search(&shared, &query, &route, key, None, 0));
        let Response::Synth(b) = coalesce(&shared, &query, &route, None, 0) else {
            panic!("expected a synth reply");
        };
        assert_eq!(b.source, ReplySource::Cache);
        assert_eq!(b.found_len, Some(4));
        assert_eq!(shared.searches_started.load(Ordering::SeqCst), 1);
    }

    /// The slow query of `tests/watch_stream.rs`: n = 4 with no pruning aids
    /// and a length bound below the optimum, so it runs until its deadline.
    fn slow_query() -> KernelQuery {
        KernelQuery {
            max_len: Some(15),
            optimal_instrs_only: false,
            budget_viability: false,
            cut: None,
            ..KernelQuery::best(4, 1, IsaMode::Cmov)
        }
    }

    /// A watcher reads one frame, then shuts its socket down. The flight it
    /// watched runs on to its deadline, both coalesced requests get their
    /// reply, the flight leaves the registry, and the server keeps serving,
    /// watches of a fresh flight included.
    #[test]
    fn a_watcher_that_disconnects_mid_stream_leaves_the_flight_running() {
        let server = Server::bind(ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            ..ServiceConfig::default()
        })
        .unwrap();
        let shared = Arc::clone(&server.shared);
        let handle = server.spawn();
        let addr = handle.addr();
        let synth = |timeout_ms| {
            std::thread::spawn(move || {
                let started = Instant::now();
                let mut client = Client::connect(addr).unwrap();
                let reply = client.synth(slow_query(), Some(timeout_ms)).unwrap();
                (reply, started.elapsed())
            })
        };
        let (leader, follower) = (synth(2_000), synth(2_000));

        let mut watcher = TcpStream::connect(addr).unwrap();
        let watch = Request::Watch {
            query: slow_query(),
            backend: None,
            wait_ms: Some(10_000),
        };
        write_message(&mut watcher, &watch).unwrap();
        let first = read_message::<Response>(&mut watcher).unwrap();
        assert!(
            matches!(&first, Some(Response::Progress(frame)) if !frame.finished),
            "{first:?}"
        );
        watcher.shutdown(Shutdown::Both).unwrap();
        drop(watcher);

        for synth in [leader, follower] {
            let (reply, elapsed) = synth.join().unwrap();
            assert!(matches!(reply, Response::Timeout(_)), "{reply:?}");
            assert!(
                elapsed >= Duration::from_millis(1_800),
                "the flight ran to its deadline: {elapsed:?}"
            );
        }
        assert_eq!(handle.searches_started(), 1);
        assert_eq!(shared.flights.in_flight(), 0, "the leader completed");

        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(client.ping().unwrap(), Response::Pong));
        let fresh = synth(1_000);
        let frames = client.watch(slow_query(), None, Some(10_000)).unwrap();
        let last = frames.last().expect("at least the finished frame");
        assert!(last.finished);
        assert_eq!(last.outcome.as_deref(), Some("TimeLimit"));
        assert!(matches!(fresh.join().unwrap().0, Response::Timeout(_)));
        assert_eq!(handle.searches_started(), 2);
        assert_eq!(shared.flights.in_flight(), 0);
        handle.shutdown().unwrap();
    }
}
