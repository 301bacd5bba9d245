//! The five workloads and the load generator that drives them.
//!
//! The parent process generates all load with at most two threads and two
//! connections. Synth and prove requests each get a fresh child process,
//! so no in-process memo of tables or answers can pass as a gain;
//! `service-zipf` runs one server child for the whole stream.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use sortsynth_isa::{analyze, IsaMode, Machine, ThroughputModel};
use sortsynth_service::{Client, ReplySource, Request, Response};

use crate::child::{item_json, REPLAY_COLUMNS};
use crate::json::Json;
use crate::metrics::{reading, Metric, LAYER_METRICS};
use crate::oracle;
use crate::speed;
use crate::stats::{self, Tail};
use crate::stream::{Item, Stream};
use crate::trace::{Trace, Tree};

const MIB: f64 = 1024.0 * 1024.0;

/// Fewest requests a synth or prove run completes, however short its time.
const MIN_REQUESTS: usize = 3;
/// Server start-ups per `service-zipf` run; `setup_s` is their median.
const SERVICE_SETUPS: usize = 5;
/// `service-zipf` load time between two host-speed calibrations.
const SLICE: Duration = Duration::from_secs(1);
/// Unbudgeted reference proofs per traced `prove-spill` run.
const SPILL_REFERENCES: usize = 3;
/// Of `service-zipf`'s cache hits, one in this many keeps its spans in the
/// JSONL file (every miss does); all of them count in the self times.
const SPAN_SAMPLE: u64 = 64;
/// How long a client waits for one reply before counting it failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `SynthesisConfig::best` for one machine.
    Synth {
        n: u8,
        mode: IsaMode,
        threads: usize,
    },
    /// Lossless exhaustion to `max_len` under a resident-memory budget.
    Prove { n: u8, max_len: u32, budget: u64 },
    /// The request stream of [`crate::stream`] against one server.
    Service,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "synth-n4-cmov",
        why: "paper E4 request, one fresh process each: the search hot loop (step, canonicalize, intern) dominates",
        kind: Kind::Synth {
            n: 4,
            mode: IsaMode::Cmov,
            threads: 1,
        },
    },
    Workload {
        name: "synth-n4-cmov-2t",
        why: "same request through the sharded two-thread engine, so routing and work stealing are on the path",
        kind: Kind::Synth {
            n: 4,
            mode: IsaMode::Cmov,
            threads: 2,
        },
    },
    Workload {
        name: "synth-n5-minmax",
        why: "paper 5.4 request whose distance-table build dominates: the mirror image of synth-n4-cmov",
        kind: Kind::Synth {
            n: 5,
            mode: IsaMode::MinMax,
            threads: 1,
        },
    },
    Workload {
        name: "service-zipf",
        why: "two connections, Zipf mix of 512 queries plus 10% checks: proto, cache and verify layers; misses run searches",
        kind: Kind::Service,
    },
    Workload {
        name: "prove-spill",
        why: "lossless n=3 exhaustion under a 2 MiB memory budget: the only workload that spills to and reads from disk",
        kind: Kind::Prove {
            n: 3,
            max_len: 8,
            budget: 2 << 20,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one pass over a workload measured.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Answered requests' latencies in reference-host seconds.
    pub latencies: Vec<f64>,
    pub tail: Tail,
    /// Every end-to-end metric, times in reference-host seconds.
    pub end_to_end: Vec<Metric>,
    /// The time metrics as the wall clock read them.
    pub wall: Vec<Metric>,
    /// Median factor from wall-clock to reference-host seconds.
    pub speed: f64,
    /// Present on traced passes.
    pub layers: Option<Layers>,
}

pub struct Layers {
    pub trace: Trace,
    pub metrics: Vec<Metric>,
}

/// What a pass's time metrics are computed from, in one unit of time.
#[derive(Default)]
struct Timings {
    setups: Vec<f64>,
    latencies: Vec<f64>,
    /// Time spent issuing requests, answered or not: the pass's wall time
    /// less the calibration pauses.
    busy: f64,
    nodes_per_s: f64,
}

impl Timings {
    /// `setup_s` to `nodes_per_s`, in [`crate::metrics::END_TO_END`] order.
    fn metrics(&self) -> Vec<Metric> {
        vec![
            reading("setup_s", stats::median(&self.setups)),
            reading("latency_p50_s", stats::median(&self.latencies)),
            reading("latency_tail_s", stats::tail(&self.latencies).value),
            reading("requests_per_s", self.latencies.len() as f64 / self.busy),
            reading("nodes_per_s", self.nodes_per_s),
        ]
    }
}

impl Run {
    fn new() -> Run {
        Run {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            latencies: Vec::new(),
            tail: stats::tail(&[]),
            end_to_end: Vec::new(),
            wall: Vec::new(),
            speed: f64::NAN,
            layers: None,
        }
    }

    /// Sets the end-to-end metrics from the pass's timings, scaled and as
    /// measured, and its other readings.
    fn finish(
        &mut self,
        scaled: Timings,
        wall: &Timings,
        factors: &[f64],
        peak_kib: f64,
        kernels: &HashSet<(Machine, String)>,
    ) {
        self.end_to_end = scaled.metrics();
        self.end_to_end
            .push(reading("peak_rss_mib", peak_kib / 1024.0));
        self.end_to_end.push(reading(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        ));
        if let Some(cycles) = kernel_cycles(kernels) {
            self.end_to_end.push(reading("kernel_cycles", cycles));
        }
        self.wall = wall.metrics();
        self.speed = stats::median(factors);
        self.tail = stats::tail(&scaled.latencies);
        self.latencies = scaled.latencies;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A child process of this binary with piped stdin and stdout. Dropping it
/// kills and reaps the process, so no child outlives a failed request.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    fn spawn(args: &[&str]) -> Result<ChildProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(ChildProc {
            child,
            stdin,
            stdout,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("write to child: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child exited without replying".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read from child: {e}")),
        }
    }

    /// Closes stdin and waits for a clean exit.
    fn finish(mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child exited with {status}"))
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Mean modelled cycles per iteration over the distinct kernels returned.
fn kernel_cycles(kernels: &HashSet<(Machine, String)>) -> Option<f64> {
    if kernels.is_empty() {
        return None;
    }
    let model = ThroughputModel::default();
    let total: f64 = kernels
        .iter()
        .map(|(machine, text)| {
            let prog = machine
                .parse_program(text)
                .expect("kernel passed the oracle");
            analyze(&prog, &model).cycles_per_iteration
        })
        .sum();
    Some(total / kernels.len() as f64)
}

/// Runs one pass over `w` for `seconds`, traced or not. `tmp` is a scratch
/// directory inside the working directory for caches and spill files.
pub fn run(w: &Workload, seed: u64, seconds: f64, tmp: &Path, traced: bool) -> Result<Run, String> {
    match w.kind {
        Kind::Service => service(seed, seconds, tmp, traced),
        _ => per_request(w.kind, seconds, tmp, traced),
    }
}

/// One request in a fresh child: `(setup_s, latency_s, reply)`.
fn one_request(request: &Json) -> Result<(f64, f64, Json), String> {
    let spawned = Instant::now();
    let mut child = ChildProc::spawn(&["synth"])?;
    if child.line()? != "ready" {
        return Err("child did not signal ready".to_string());
    }
    let setup = spawned.elapsed().as_secs_f64();
    let sent = Instant::now();
    child.send(&request.to_string())?;
    let reply = child.line()?;
    let latency = sent.elapsed().as_secs_f64();
    child.finish()?;
    Ok((setup, latency, Json::parse(&reply)?))
}

/// [`one_request`] with a fresh spill directory for prove requests.
fn spilled_request(kind: Kind, traced: bool, dir: &Path) -> Result<(f64, f64, Json), String> {
    if matches!(kind, Kind::Prove { .. }) {
        std::fs::create_dir_all(dir).map_err(|e| format!("spill dir: {e}"))?;
    }
    let result = one_request(&request_json(kind, traced, Some(dir), true));
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn request_json(kind: Kind, traced: bool, spill_dir: Option<&Path>, budgeted: bool) -> Json {
    let mut fields = vec![("trace", Json::Bool(traced))];
    match kind {
        Kind::Synth { n, mode, threads } => {
            fields.push(("n", u64::from(n).into()));
            fields.push(("isa", mode.wire_name().into()));
            fields.push(("config", "best".into()));
            fields.push(("threads", (threads as u64).into()));
        }
        Kind::Prove { n, max_len, budget } => {
            fields.push(("n", u64::from(n).into()));
            fields.push(("isa", IsaMode::Cmov.wire_name().into()));
            fields.push(("config", "prove".into()));
            fields.push(("max_len", u64::from(max_len).into()));
            if budgeted {
                fields.push(("mem_budget", budget.into()));
                if let Some(dir) = spill_dir {
                    fields.push(("spill_dir", dir.display().to_string().into()));
                }
            }
        }
        Kind::Service => unreachable!("service requests go over the wire"),
    }
    Json::obj(fields)
}

/// Checks a synth/prove child's reply against the oracle; returns the
/// kernel text when there is one.
fn check_reply(kind: Kind, reply: &Json) -> Result<Option<(Machine, String)>, String> {
    let outcome = reply.get("outcome").and_then(Json::as_str).unwrap_or("");
    let program = reply.get("program").and_then(Json::as_str);
    match kind {
        Kind::Synth { n, mode, .. } => {
            if outcome != "Solved" {
                return Err(format!("outcome {outcome}"));
            }
            let text = program.ok_or("solved without a program")?;
            let machine = Machine::new(n, 1, mode);
            oracle::check_kernel(&machine, text)?;
            if reply.get("gate_ok") != Some(&Json::Bool(true)) {
                return Err("the verification gate rejected a correct kernel".to_string());
            }
            Ok(Some((machine, text.to_string())))
        }
        Kind::Prove { .. } => match (outcome, program) {
            ("Exhausted", None) => Ok(None),
            (outcome, program) => Err(format!(
                "expected Exhausted with no kernel, got {outcome} with {program:?}"
            )),
        },
        Kind::Service => unreachable!(),
    }
}

fn stats_of(reply: &Json) -> &Json {
    reply.get("stats").unwrap_or(&Json::Null)
}

/// Synth and prove workloads: one child per request, closed loop, one
/// caller.
/// The CPUs request `i` of a synth or prove pass runs on: one search
/// thread gets one CPU, taking turns over `cpus`, so that the calibrations
/// around it run where it ran; more threads get them all.
fn placement(kind: Kind, cpus: &[usize], i: u64) -> Vec<usize> {
    match kind {
        Kind::Synth { threads, .. } if threads > 1 => cpus.to_vec(),
        _ => vec![cpus[i as usize % cpus.len()]],
    }
}

fn per_request(kind: Kind, seconds: f64, tmp: &Path, traced: bool) -> Result<Run, String> {
    let mut run = Run::new();
    let (mut scaled, mut wall) = (Timings::default(), Timings::default());
    let (mut rates, mut wall_rates) = (Vec::new(), Vec::new());
    let mut factors = Vec::new();
    let mut replies = Vec::new();
    let mut kernels = HashSet::new();
    let mut trace = Trace::default();
    let cpus = speed::cpus();
    // One untimed request first: the first child after an idle spell runs
    // measurably slower (cold CPU and page caches), a cost a caller issuing
    // requests back to back does not pay.
    speed::pin(&placement(kind, &cpus, 0));
    let _ = spilled_request(kind, traced, &tmp.join("spill-warmup"));
    let started = Instant::now();
    loop {
        // Past its time a pass goes on only until MIN_REQUESTS answers, and
        // gives up after ten times as many attempts if they keep failing.
        if started.elapsed().as_secs_f64() >= seconds
            && (wall.latencies.len() >= MIN_REQUESTS || run.attempted >= 10 * MIN_REQUESTS as u64)
        {
            break;
        }
        let sent_at = started.elapsed();
        let on = placement(kind, &cpus, run.attempted);
        run.attempted += 1;
        let spill = tmp.join(format!("spill-{}", run.attempted));
        let ((result, busy), factor) = speed::around(&on, || {
            let attempt = Instant::now();
            let result = spilled_request(kind, traced, &spill);
            (result, attempt.elapsed().as_secs_f64())
        });
        factors.push(factor);
        wall.busy += busy;
        scaled.busy += busy * factor;
        let (setup, latency, reply) = match result {
            Ok(r) => r,
            Err(e) => {
                run.fail(e);
                continue;
            }
        };
        match check_reply(kind, &reply) {
            Ok(kernel) => kernels.extend(kernel),
            Err(e) => {
                run.fail(e);
                continue;
            }
        }
        if traced {
            let mut tree = Tree::new((latency * 1e9) as u64);
            tree.search(
                0,
                reply.num("search_ns") as u64,
                stats_of(&reply).get("phase_ns").map_or(&[], Json::as_arr),
            );
            if reply.get("gate_ns").is_some() {
                tree.child(0, "verify.gate", reply.num("gate_ns") as u64);
            }
            trace.add(run.attempted - 1, sent_at.as_nanos() as u64, &tree, true);
        }
        let expanded = stats_of(&reply).num("expanded");
        wall.setups.push(setup);
        wall.latencies.push(latency);
        wall_rates.push(expanded / latency);
        scaled.setups.push(setup * factor);
        scaled.latencies.push(latency * factor);
        rates.push(expanded / (latency * factor));
        replies.push(reply);
    }
    speed::pin(&cpus);
    // Per request, then the median: a host slowdown during a few requests
    // moves a median less than a ratio of sums.
    wall.nodes_per_s = stats::median(&wall_rates);
    scaled.nodes_per_s = stats::median(&rates);
    let peak_kib = replies
        .iter()
        .map(|r| r.num("vmhwm_kib"))
        .fold(0.0, f64::max);
    run.finish(scaled, &wall, &factors, peak_kib, &kernels);
    if traced {
        let searches: Vec<&Json> = replies.iter().map(stats_of).collect();
        let mut layers = layer_metrics(&trace, &searches);
        set_gate_counts(&mut layers, &replies);
        if let Kind::Prove { budget, .. } = kind {
            let reference = spill_reference(kind)?;
            set(
                &mut layers,
                "spill.overhead_s",
                stats::median(&run.latencies) - reference,
            );
            set(
                &mut layers,
                "spill.rss_over_budget_mib",
                peak_kib / 1024.0 - budget as f64 / MIB,
            );
        }
        run.layers = Some(Layers {
            trace,
            metrics: layers,
        });
    }
    Ok(run)
}

/// Median latency, in reference-host seconds, of the same proof with no
/// memory budget, each in its own child.
fn spill_reference(kind: Kind) -> Result<f64, String> {
    let cpus = speed::cpus();
    let mut latencies = Vec::new();
    for i in 0..SPILL_REFERENCES as u64 {
        let on = placement(kind, &cpus, i);
        let (result, factor) =
            speed::around(&on, || one_request(&request_json(kind, false, None, false)));
        speed::pin(&cpus);
        let (_, latency, reply) = result?;
        check_reply(kind, &reply)?;
        latencies.push(latency * factor);
    }
    Ok(stats::median(&latencies))
}

/// Every per-layer metric, in [`LAYER_METRICS`] order, zero where the
/// workload does not reach the layer. `searches` holds the stats of each
/// search the pass ran.
fn layer_metrics(trace: &Trace, searches: &[&Json]) -> Vec<Metric> {
    let requests = trace.requests.max(1) as f64;
    let sum = |key: &str| searches.iter().map(|s| s.num(key)).sum::<f64>();
    let max = |key: &str| searches.iter().map(|s| s.num(key)).fold(0.0, f64::max);
    let per_request = |key: &str| sum(key) / requests;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let skews: Vec<f64> = searches
        .iter()
        .filter_map(|s| {
            let shards: Vec<f64> = s
                .get("shard_expanded")?
                .as_arr()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let mean = shards.iter().sum::<f64>() / shards.len() as f64;
            (shards.len() > 1 && mean > 0.0)
                .then(|| shards.iter().copied().fold(0.0, f64::max) / mean)
        })
        .collect();
    let mut out: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            // A `<span>_s` metric is that span's mean self time per request.
            value: name
                .strip_suffix("_s")
                .map_or(0.0, |span| trace.per_request_s(span)),
        })
        .collect();
    let values = [
        ("search.expanded", per_request("expanded")),
        ("search.generated", per_request("generated")),
        (
            "search.kept_ratio",
            ratio(sum("states_kept"), sum("generated")),
        ),
        (
            "search.pruned_ratio",
            ratio(sum("pruned"), sum("generated")),
        ),
        ("search.routed", per_request("routed")),
        ("search.steals", per_request("steals")),
        ("search.bound_pruned", per_request("bound_pruned")),
        (
            "search.shard_skew",
            if skews.is_empty() {
                0.0
            } else {
                stats::median(&skews)
            },
        ),
        ("search.arena_mib", max("arena_bytes") / MIB),
        ("search.key_mib", max("key_bytes") / MIB),
        ("search.resident_est_mib", max("resident_bytes") / MIB),
        ("spill.written_mib", per_request("spilled_bytes") / MIB),
        ("spill.segments", per_request("spill_segments")),
        ("spill.ddd_hits", per_request("ddd_hits")),
        ("spill.open_states", per_request("spilled_open")),
        ("spill.closed_entries", per_request("spilled_closed")),
        ("trace.coverage", trace.coverage()),
    ];
    for (name, value) in values {
        set(&mut out, name, value);
    }
    out
}

/// `verify.gate_calls` and `verify.oracle_fallbacks` from the replies
/// that carry a gate verdict.
fn set_gate_counts(metrics: &mut [Metric], replies: &[Json]) {
    let gated: Vec<&Json> = replies
        .iter()
        .filter(|r| r.get("gate_ns").is_some())
        .collect();
    let fallbacks = gated
        .iter()
        .filter(|r| r.get("gate_path").and_then(Json::as_str) == Some("oracle"))
        .count();
    set(metrics, "verify.gate_calls", gated.len() as f64);
    set(metrics, "verify.oracle_fallbacks", fallbacks as f64);
}

fn set(metrics: &mut [Metric], name: &str, value: f64) {
    let slot = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
    slot.value = value;
}

/// A running server child and its two client connections.
struct Service {
    child: ChildProc,
    clients: Vec<Client>,
    dir: PathBuf,
}

impl Service {
    /// Spawns a server on a fresh durable cache in `dir`, connects twice
    /// and pings: everything before the first request can be sent.
    fn start(dir: PathBuf) -> Result<(Service, f64), String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir: {e}"))?;
        let started = Instant::now();
        let mut child = ChildProc::spawn(&["serve", &dir.display().to_string()])?;
        let ready = child.line()?;
        let addr = ready
            .strip_prefix("ready ")
            .ok_or_else(|| format!("server said `{ready}`"))?
            .to_string();
        let mut clients = Vec::new();
        for _ in 0..2 {
            let client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            client
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| format!("set timeout: {e}"))?;
            clients.push(client);
        }
        match clients[0].ping() {
            Ok(Response::Pong) => {}
            other => return Err(format!("ping: {other:?}")),
        }
        let setup = started.elapsed().as_secs_f64();
        Ok((
            Service {
                child,
                clients,
                dir,
            },
            setup,
        ))
    }

    /// Closes the connections, stops the server, and returns its report.
    fn stop(mut self) -> Result<Json, String> {
        self.clients.clear();
        self.child.send("stop")?;
        let report = Json::parse(&self.child.line()?)?;
        self.child.finish()?;
        Ok(report)
    }
}

/// One answered request of the live stream.
struct Answer {
    index: u64,
    /// The load slice it was sent in.
    slice: usize,
    sent_ns: u64,
    /// Wall-clock seconds.
    latency: f64,
    computed: bool,
    verdict: Result<(), String>,
}

/// The schedule the two connections share: they send load in slices of
/// [`SLICE`] and pause together after each while one of them times the
/// host-speed calibration, until the pass's time is up.
struct Slices {
    started: Instant,
    seconds: f64,
    /// The CPUs the server and both connections share.
    cpus: Vec<usize>,
    barrier: Barrier,
    state: Mutex<SliceState>,
}

struct SliceState {
    /// When the current slice's load began.
    slice_start: Instant,
    /// Load time of each finished slice.
    loads: Vec<f64>,
    /// One calibration before each slice, and one after the last.
    calibrations: Vec<f64>,
    done: bool,
}

impl Slices {
    fn state(&self) -> std::sync::MutexGuard<'_, SliceState> {
        self.state
            .lock()
            .expect("a client thread panicked while holding the slice schedule")
    }

    /// Ends the current slice on both connections: calibrates between two
    /// barriers, and returns whether the pass is over.
    fn pause(&self) -> bool {
        if self.barrier.wait().is_leader() {
            let mut s = self.state();
            let load = s.slice_start.elapsed().as_secs_f64();
            s.loads.push(load);
            s.calibrations.push(speed::calibrate(&self.cpus));
            s.done = self.started.elapsed().as_secs_f64() >= self.seconds;
            s.slice_start = Instant::now();
        }
        self.barrier.wait();
        self.state().done
    }
}

/// The oracle's verdict per returned kernel.
type Memo = HashMap<(Machine, String), Result<(), String>>;

/// Checks one reply; returns whether it ran a search, and the verdict.
fn check_answer(item: &Item, response: &Response, memo: &mut Memo) -> (bool, Result<(), String>) {
    match (item, response) {
        (Item::Synth(query), Response::Synth(reply)) => {
            let computed = reply.source == ReplySource::Computed;
            let Some(text) = &reply.program else {
                return (computed, Err("no kernel for a solvable query".to_string()));
            };
            let machine = query.machine();
            let verdict = memo
                .entry((machine.clone(), text.clone()))
                .or_insert_with(|| oracle::check_kernel(&machine, text).map(|_| ()))
                .clone();
            (computed, verdict)
        }
        (Item::Check { .. }, Response::Check(reply)) => {
            let verdict = if reply.correct && reply.counterexamples == 0 {
                Ok(())
            } else {
                Err(format!("check called a correct kernel wrong: {reply:?}"))
            };
            (false, verdict)
        }
        (_, other) => (false, Err(format!("reply {other:?}"))),
    }
}

fn to_request(item: &Item) -> Request {
    match item {
        Item::Synth(query) => Request::Synth {
            query: query.clone(),
            timeout_ms: None,
            backend: None,
        },
        Item::Check { machine, program } => Request::Check {
            machine: machine.clone(),
            program: program.clone(),
        },
    }
}

/// One connection's closed loop over the shared stream, slice by slice.
fn drive(
    client: &mut Client,
    stream: &Stream,
    next: &AtomicU64,
    slices: &Slices,
) -> (Vec<Answer>, Memo) {
    let mut answers = Vec::new();
    let mut memo = HashMap::new();
    let mut connected = true;
    loop {
        let (slice, slice_start) = {
            let s = slices.state();
            (s.loads.len(), s.slice_start)
        };
        while connected && slice_start.elapsed() < SLICE {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let item = stream.item(index);
            let request = to_request(item);
            let sent = Instant::now();
            let response = client.request(&request);
            let latency = sent.elapsed().as_secs_f64();
            let (computed, verdict) = match &response {
                Ok(response) => check_answer(item, response, &mut memo),
                Err(e) => (false, Err(format!("transport: {e}"))),
            };
            answers.push(Answer {
                index,
                slice,
                sent_ns: (sent - slices.started).as_nanos() as u64,
                latency,
                computed,
                verdict,
            });
            // A failed transport means the connection is gone.
            connected = response.is_ok();
        }
        if slices.pause() {
            return (answers, memo);
        }
    }
}

/// `service-zipf`: two connections in closed loop against one server.
fn service(seed: u64, seconds: f64, tmp: &Path, traced: bool) -> Result<Run, String> {
    let stream = Stream::new(seed);
    let (mut scaled, mut wall) = (Timings::default(), Timings::default());
    let mut peak_kib = 0.0f64;
    let mut service = None;
    let cpus = speed::cpus();
    let mut calibration = speed::calibrate(&cpus);
    for k in 0..SERVICE_SETUPS {
        let (s, setup) = Service::start(tmp.join(format!("cache-{k}")))?;
        let before = calibration;
        calibration = speed::calibrate(&cpus);
        wall.setups.push(setup);
        scaled
            .setups
            .push(setup * speed::factor(before, calibration));
        if k + 1 < SERVICE_SETUPS {
            let dir = s.dir.clone();
            peak_kib = peak_kib.max(s.stop()?.num("vmhwm_kib"));
            let _ = std::fs::remove_dir_all(dir);
        } else {
            service = Some(s);
        }
    }
    let mut service = service.expect("at least one setup");

    let next = AtomicU64::new(0);
    let slices = Slices {
        started: Instant::now(),
        seconds,
        cpus,
        barrier: Barrier::new(2),
        state: Mutex::new(SliceState {
            slice_start: Instant::now(),
            loads: Vec::new(),
            calibrations: vec![calibration],
            done: false,
        }),
    };
    let (mut answers, memo) = {
        let (a, b) = service.clients.split_at_mut(1);
        let (stream, next, slices) = (&stream, &next, &slices);
        std::thread::scope(|scope| {
            let other = scope.spawn(|| drive(&mut a[0], stream, next, slices));
            let (mut answers, mut memo) = drive(&mut b[0], stream, next, slices);
            let (more, more_memo) = other.join().expect("client thread panicked");
            answers.extend(more);
            memo.extend(more_memo);
            (answers, memo)
        })
    };
    let schedule = slices
        .state
        .into_inner()
        .expect("client threads are joined");
    let factors: Vec<f64> = schedule
        .calibrations
        .windows(2)
        .map(|w| speed::factor(w[0], w[1]))
        .collect();
    wall.busy = schedule.loads.iter().sum();
    scaled.busy = schedule
        .loads
        .iter()
        .zip(&factors)
        .map(|(l, f)| l * f)
        .sum();
    answers.sort_by_key(|a| a.index);
    let live = match service.clients[0].stats() {
        Ok(Response::Stats(stats)) => stats,
        other => return Err(format!("stats: {other:?}")),
    };
    let log_bytes = std::fs::metadata(service.dir.join(sortsynth_cache::LOG_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let dir = service.dir.clone();
    let report = service.stop()?;
    let _ = std::fs::remove_dir_all(dir);
    peak_kib = peak_kib.max(report.num("vmhwm_kib"));

    let mut run = Run::new();
    run.attempted = answers.len() as u64;
    let (mut search_latency, mut wall_search_latency) = (0.0, 0.0);
    for answer in &answers {
        let factor = factors[answer.slice];
        match &answer.verdict {
            Ok(()) => {
                wall.latencies.push(answer.latency);
                scaled.latencies.push(answer.latency * factor);
                if answer.computed {
                    wall_search_latency += answer.latency;
                    search_latency += answer.latency * factor;
                }
            }
            Err(e) => run.fail(format!("request {}: {e}", answer.index)),
        }
    }
    let kernels: HashSet<(Machine, String)> = memo
        .into_iter()
        .filter(|(_, verdict)| verdict.is_ok())
        .map(|(kernel, _)| kernel)
        .collect();
    // Search throughput on the serving path: the server's expansions over
    // the client-side latency of the requests that ran a search.
    let expanded = report.num("expanded");
    wall.nodes_per_s = expanded / f64::max(wall_search_latency, f64::MIN_POSITIVE);
    scaled.nodes_per_s = expanded / f64::max(search_latency, f64::MIN_POSITIVE);
    run.finish(scaled, &wall, &factors, peak_kib, &kernels);

    if traced {
        let mut layers = replay(&stream, &answers, &tmp.join("replay"))?;
        let lookups = live.cache_memory_hits + live.cache_disk_hits + live.cache_misses;
        let hits = live.cache_memory_hits + live.cache_disk_hits;
        for (name, value) in [
            ("cache.hit_ratio", hits as f64 / lookups.max(1) as f64),
            ("cache.memory_hits", live.cache_memory_hits as f64),
            ("cache.disk_hits", live.cache_disk_hits as f64),
            ("cache.misses", live.cache_misses as f64),
            ("cache.log_mib", log_bytes as f64 / MIB),
            ("service.searches_started", live.searches_started as f64),
            ("service.coalesced", live.singleflight_coalesced as f64),
            ("service.shed", live.shed_total as f64),
        ] {
            set(&mut layers.metrics, name, value);
        }
        run.layers = Some(layers);
    }
    Ok(run)
}

/// Pushes the live stream through the layer calls in a child, then lays
/// each request's replayed layer times under its live latency.
fn replay(stream: &Stream, answers: &[Answer], dir: &Path) -> Result<Layers, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("replay dir: {e}"))?;
    let mut child = ChildProc::spawn(&["replay", &dir.display().to_string()])?;
    if child.line()? != "ready" {
        return Err("replay child did not signal ready".to_string());
    }
    child.send(&Json::Arr(stream.items.iter().map(item_json).collect()).to_string())?;
    let order: Vec<String> = answers
        .iter()
        .map(|a| stream.index(a.index).to_string())
        .collect();
    child.send(&order.join(" "))?;
    let summary = Json::parse(&child.line()?)?;
    let columns: Vec<u64> = child
        .line()?
        .split_whitespace()
        .map(|t| t.parse::<u64>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    child.finish()?;
    let _ = std::fs::remove_dir_all(dir);
    if columns.len() != answers.len() * REPLAY_COLUMNS.len() {
        return Err("replay breakdown has the wrong length".to_string());
    }

    let searches = summary.get("searches").map_or(&[][..], Json::as_arr);
    let mut misses = searches.iter();
    let mut trace = Trace::default();
    let mut residual = Vec::with_capacity(answers.len());
    for (answer, row) in answers.iter().zip(columns.chunks(REPLAY_COLUMNS.len())) {
        let latency_ns = (answer.latency * 1e9) as u64;
        residual.push((latency_ns as f64 - row.iter().sum::<u64>() as f64) / 1e9);
        let mut tree = Tree::new(latency_ns);
        let search = match row[3] {
            0 => None,
            _ => Some(misses.next().ok_or("more misses than searches")?),
        };
        for (&name, &ns) in REPLAY_COLUMNS.iter().zip(row) {
            match (name, search) {
                (_, _) if ns == 0 => {}
                ("search", Some(s)) => {
                    let phases = s.get("stats").and_then(|s| s.get("phase_ns"));
                    tree.search(0, ns, phases.map_or(&[], Json::as_arr));
                }
                ("cache.insert", Some(s)) => {
                    // The gate measured beside the insert ran inside it.
                    let insert = tree.child(0, name, ns);
                    tree.child(insert, "verify.gate", (s.num("gate_ns") as u64).min(ns));
                }
                _ => {
                    tree.child(0, name, ns);
                }
            }
        }
        let keep = search.is_some() || answer.index % SPAN_SAMPLE == 0;
        trace.add(answer.index, answer.sent_ns, &tree, keep);
    }
    let stats: Vec<&Json> = searches
        .iter()
        .map(|s| s.get("stats").unwrap_or(&Json::Null))
        .collect();
    let mut metrics = layer_metrics(&trace, &stats);
    set_gate_counts(&mut metrics, searches);
    set(
        &mut metrics,
        "service.rtt_residual_s",
        stats::median(&residual),
    );
    set(
        &mut metrics,
        "service.frame_bytes",
        summary.num("frame_bytes") / answers.len().max(1) as f64,
    );
    Ok(Layers { trace, metrics })
}
