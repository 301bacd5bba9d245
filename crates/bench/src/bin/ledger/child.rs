//! The system under test, run in child processes of the ledger binary.
//!
//! * `child synth`: one synthesis request per process, as a `sortsynth
//!   synth` user pays it (table build, search, and the verification gate).
//! * `child serve <cache-dir>`: one service, `Server::bind(..)` then the
//!   accept loop, until the parent closes stdin.
//! * `child replay <cache-dir>`: the `service-zipf` request stream pushed
//!   through each layer's public calls in turn, timed per call.
//!
//! Every child prints one JSON line on stdout when it is done. The
//! parent's timing starts only once a child has printed its ready line.

use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sortsynth_cache::{CacheEntry, CutSpec, KernelCache, KernelQuery};
use sortsynth_isa::{IsaMode, Machine};
use sortsynth_obs::profile;
use sortsynth_search::{synthesize, Cut, SearchStats, SynthesisConfig};
use sortsynth_service::proto::{read_message, write_message};
use sortsynth_service::{
    CheckReply, ReplySource, Request, Response, Server, ServiceConfig, SynthReply,
};
use sortsynth_verify::gate_detail;

use crate::json::Json;
use crate::stream::Item;

/// Longest a single search may run before the child gives up; an answer
/// this late is a failed request, never a hung ledger.
const SEARCH_TIME_LIMIT: Duration = Duration::from_secs(100);

/// Peak resident set of this process (`VmHWM`), in KiB.
fn vmhwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn mode_from(name: &str) -> Result<IsaMode, String> {
    IsaMode::from_wire_name(name).ok_or_else(|| format!("unknown ISA `{name}`"))
}

/// The counters of one search, as the parent needs them.
fn stats_json(stats: &SearchStats) -> Json {
    let shard_expanded: Vec<Json> = stats.shards.iter().map(|s| s.expanded.into()).collect();
    let phases: Vec<Json> = stats.phase_nanos.iter().map(|&ns| ns.into()).collect();
    Json::obj([
        ("expanded", stats.expanded.into()),
        ("generated", stats.generated.into()),
        ("states_kept", stats.states_kept.into()),
        (
            "pruned",
            (stats.viability_pruned
                + stats.cut_pruned
                + stats.dead_write_pruned
                + stats.value_flow_pruned)
                .into(),
        ),
        ("routed", stats.routed.into()),
        ("steals", stats.steals.into()),
        ("bound_pruned", stats.bound_pruned.into()),
        ("shard_expanded", Json::Arr(shard_expanded)),
        ("arena_bytes", stats.arena_bytes.into()),
        ("key_bytes", stats.key_bytes.into()),
        ("resident_bytes", stats.resident_bytes.into()),
        ("spilled_bytes", stats.spilled_bytes.into()),
        ("spill_segments", stats.spill_segments.into()),
        ("ddd_hits", stats.ddd_dedup_hits.into()),
        ("spilled_open", stats.spilled_open.into()),
        ("spilled_closed", stats.spilled_closed.into()),
        (
            "table_build_ns",
            (stats.distance_build.as_nanos() as u64).into(),
        ),
        ("phase_ns", Json::Arr(phases)),
    ])
}

fn nanos(d: Duration) -> Json {
    (d.as_nanos() as u64).into()
}

fn read_line(input: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    input.read_line(&mut line).map_err(|e| e.to_string())?;
    Ok(line)
}

fn emit(line: impl std::fmt::Display) -> Result<(), String> {
    let mut out = io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())
}

/// Entry point for `ledger child <kind> [args]`.
pub fn run(kind: &str, args: &[String]) -> Result<(), String> {
    sortsynth_obs::set_log_level(sortsynth_obs::Level::Warn);
    match (kind, args) {
        ("synth", []) => synth_request(),
        ("serve", [dir]) => serve(Path::new(dir)),
        ("replay", [dir]) => replay(Path::new(dir)),
        _ => Err(format!("unknown child `{kind}` {args:?}")),
    }
}

/// One synthesis request. The request line names the machine and the
/// configuration; the reply carries the kernel, the search counters, and
/// the gate's verdict.
fn synth_request() -> Result<(), String> {
    emit("ready")?;
    let request = Json::parse(&read_line(&mut io::stdin().lock())?)?;
    let n = request.num("n") as u8;
    let mode = mode_from(request.get("isa").and_then(Json::as_str).unwrap_or(""))?;
    let machine = Machine::new(n, 1, mode);
    let mut cfg = match request.get("config").and_then(Json::as_str) {
        Some("best") => SynthesisConfig::best(machine.clone()),
        // A lossless exhaustion: only the optimality-preserving cuts.
        Some("prove") => SynthesisConfig::new(machine.clone())
            .dead_write_cut(true)
            .value_flow_cut(true)
            .max_len(request.num("max_len") as u32),
        other => return Err(format!("unknown config {other:?}")),
    };
    cfg.threads = request.num("threads").max(1.0) as usize;
    cfg.time_limit = Some(SEARCH_TIME_LIMIT);
    if let Some(budget) = request.get("mem_budget").and_then(Json::as_f64) {
        cfg = cfg.mem_budget_bytes(budget as u64);
    }
    if let Some(dir) = request.get("spill_dir").and_then(Json::as_str) {
        cfg = cfg.spill_dir(PathBuf::from(dir));
    }
    profile::set_enabled(request.get("trace") == Some(&Json::Bool(true)));

    let started = Instant::now();
    let result = synthesize(&cfg);
    let search = started.elapsed();
    let program = result.first_program();
    let mut reply = vec![
        ("outcome", Json::from(format!("{:?}", result.outcome))),
        ("search_ns", nanos(search)),
        ("stats", stats_json(&result.stats)),
    ];
    if let Some(prog) = &program {
        let started = Instant::now();
        let (verdict, path) = gate_detail(&machine, prog);
        reply.push(("gate_ns", nanos(started.elapsed())));
        reply.push(("gate_ok", Json::Bool(verdict.is_ok())));
        reply.push(("gate_path", path.name().into()));
        reply.push(("program", machine.format_program(prog).into()));
    }
    reply.push(("vmhwm_kib", vmhwm_kib().into()));
    emit(Json::obj(reply))
}

/// The service under load: binds (which opens the durable cache), accepts
/// until the parent closes stdin, then reports its peak RSS and the search
/// engine's counters from the process-wide registry.
fn serve(cache_dir: &Path) -> Result<(), String> {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_dir: Some(cache_dir.to_path_buf()),
        search_threads: 1,
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    emit(format!("ready {}", handle.addr()))?;
    // Any line or EOF on stdin means stop.
    read_line(&mut io::stdin().lock())?;
    handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let registry = sortsynth_obs::registry();
    emit(Json::obj([
        ("vmhwm_kib", vmhwm_kib().into()),
        (
            "expanded",
            registry
                .counter_value(sortsynth_obs::names::SEARCH_EXPANDED_TOTAL)
                .into(),
        ),
        (
            "generated",
            registry
                .counter_value(sortsynth_obs::names::SEARCH_GENERATED_TOTAL)
                .into(),
        ),
    ]))
}

/// A catalogue entry as sent to the replay child.
pub fn item_json(item: &Item) -> Json {
    match item {
        Item::Synth(q) => Json::obj([
            ("n", u64::from(q.n).into()),
            ("isa", q.mode.wire_name().into()),
            ("max_len", u64::from(q.max_len.unwrap_or(0)).into()),
            (
                "cut_millis",
                match q.cut {
                    Some(CutSpec::Factor { millis }) => u64::from(millis).into(),
                    _ => Json::Null,
                },
            ),
        ]),
        Item::Check { machine, program } => Json::obj([
            ("n", u64::from(machine.n()).into()),
            ("isa", machine.mode().wire_name().into()),
            ("program", program.as_str().into()),
        ]),
    }
}

fn item_from(json: &Json) -> Result<Item, String> {
    let n = json.num("n") as u8;
    let mode = mode_from(json.get("isa").and_then(Json::as_str).unwrap_or(""))?;
    Ok(match json.get("program").and_then(Json::as_str) {
        Some(program) => Item::Check {
            machine: Machine::new(n, 1, mode),
            program: program.to_string(),
        },
        None => {
            let mut query = KernelQuery::best(n, 1, mode);
            query.max_len = Some(json.num("max_len") as u32);
            query.cut = json
                .get("cut_millis")
                .and_then(Json::as_f64)
                .map(|m| CutSpec::Factor { millis: m as u32 });
            Item::Synth(query)
        }
    })
}

/// The engine configuration a synth query describes, built the way the
/// server's engine route builds it.
fn query_config(query: &KernelQuery, sizing: &Path) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::new(query.machine());
    cfg.optimal_instrs_only = query.optimal_instrs_only;
    cfg.budget_viability = query.budget_viability;
    cfg.max_len = query.max_len;
    cfg.cut = query.cut.map(|cut| match cut {
        CutSpec::Factor { millis } => Cut::Factor(millis as f64 / 1000.0),
        CutSpec::Additive { add } => Cut::Additive(add),
    });
    cfg.time_limit = Some(SEARCH_TIME_LIMIT);
    cfg.sizing_path = Some(sizing.to_path_buf());
    cfg
}

/// Column order of the per-request breakdown a replay prints.
pub const REPLAY_COLUMNS: [&str; 6] = [
    "service.proto_encode",
    "service.proto_decode",
    "cache.get",
    "search",
    "cache.insert",
    "verify.check",
];

/// One replayed request's time in each [`REPLAY_COLUMNS`] layer.
#[derive(Default)]
struct Breakdown {
    ns: [u64; REPLAY_COLUMNS.len()],
    frame_bytes: u64,
}

impl Breakdown {
    fn time<T>(&mut self, column: usize, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.ns[column] += started.elapsed().as_nanos() as u64;
        value
    }

    /// Encodes a request into a frame and decodes it back, timing both.
    fn request(&mut self, message: &Request) -> Request {
        let mut frame = Vec::new();
        self.time(0, || write_message(&mut frame, message))
            .expect("writing to a Vec cannot fail");
        self.frame_bytes += frame.len() as u64;
        self.time(1, || read_message::<Request>(&mut frame.as_slice()))
            .expect("a frame the encoder wrote decodes")
            .expect("the frame is complete")
    }

    /// [`Breakdown::request`] for a response.
    fn response(&mut self, message: &Response) {
        let mut frame = Vec::new();
        self.time(0, || write_message(&mut frame, message))
            .expect("writing to a Vec cannot fail");
        self.frame_bytes += frame.len() as u64;
        self.time(1, || read_message::<Response>(&mut frame.as_slice()))
            .expect("a frame the encoder wrote decodes")
            .expect("the frame is complete");
    }
}

/// The replayed stream. Line 1 on stdin is the catalogue, line 2 the
/// catalogue index of each request in live order. The child prints a JSON
/// summary (one entry per search it ran), then one line with the
/// [`REPLAY_COLUMNS`] nanoseconds of every request, so the parent can lay
/// each request's layers under its live latency.
fn replay(cache_dir: &Path) -> Result<(), String> {
    emit("ready")?;
    let mut input = io::stdin().lock();
    let catalogue: Vec<_> = Json::parse(&read_line(&mut input)?)?
        .as_arr()
        .iter()
        .map(item_from)
        .collect::<Result<_, _>>()?;
    let order: Vec<usize> = read_line(&mut input)?
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    profile::set_enabled(true);
    let cache = KernelCache::open(cache_dir, ServiceConfig::default().cache_capacity)
        .map_err(|e| format!("cache open: {e}"))?;
    let sizing = cache_dir.join("sizing.txt");
    let mut searches = Vec::new();
    let mut frame_bytes = 0u64;
    let mut columns = String::with_capacity(order.len() * 40);
    for &index in &order {
        let mut b = Breakdown::default();
        match catalogue.get(index).ok_or("catalogue index out of range")? {
            Item::Synth(query) => {
                let Request::Synth { query, .. } = b.request(&Request::Synth {
                    query: query.clone(),
                    timeout_ms: None,
                    backend: None,
                }) else {
                    return Err("synth request decoded as another op".to_string());
                };
                let (entry, source) = match b.time(2, || cache.get(&query)) {
                    Some(entry) => ((*entry).clone(), ReplySource::Cache),
                    None => {
                        let started = Instant::now();
                        let result = synthesize(&query_config(&query, &sizing));
                        let search_ns = started.elapsed();
                        b.ns[3] += search_ns.as_nanos() as u64;
                        let program = result
                            .first_program()
                            .ok_or_else(|| format!("no kernel for {}", query.canonical_string()))?;
                        // `KernelCache::insert` runs this same gate; the
                        // separate call measures the gate's share of the
                        // insert and is not added to the request's time.
                        let started = Instant::now();
                        let (_, path) = gate_detail(&query.machine(), &program);
                        searches.push(Json::obj([
                            ("search_ns", nanos(search_ns)),
                            ("gate_ns", nanos(started.elapsed())),
                            ("gate_path", path.name().into()),
                            ("stats", stats_json(&result.stats)),
                        ]));
                        let entry = CacheEntry {
                            query: query.clone(),
                            program,
                            minimal_certified: result.minimal_certified,
                            search_millis: result.stats.search_time.as_millis() as u64,
                            gate_checksum: None,
                        };
                        b.time(4, || cache.insert(entry.clone()))
                            .map_err(|e| format!("cache insert: {e}"))?;
                        (entry, ReplySource::Computed)
                    }
                };
                b.response(&Response::Synth(SynthReply {
                    program: Some(query.machine().format_program(&entry.program)),
                    found_len: Some(entry.program.len() as u32),
                    minimal_certified: entry.minimal_certified,
                    source,
                    search_millis: entry.search_millis,
                    distance_table_skipped: false,
                    backend: None,
                }));
            }
            Item::Check { machine, program } => {
                let Request::Check { machine, program } = b.request(&Request::Check {
                    machine: machine.clone(),
                    program: program.clone(),
                }) else {
                    return Err("check request decoded as another op".to_string());
                };
                let (correct, counterexamples) = b
                    .time(5, || {
                        let prog = machine.parse_program(&program)?;
                        Ok::<_, sortsynth_isa::ParseProgramError>((
                            machine.is_correct(&prog),
                            machine.counterexamples(&prog).len() as u64,
                        ))
                    })
                    .map_err(|e| format!("check kernel: {e}"))?;
                b.response(&Response::Check(CheckReply {
                    correct,
                    counterexamples,
                }));
            }
        }
        frame_bytes += b.frame_bytes;
        for ns in b.ns {
            columns.push_str(&ns.to_string());
            columns.push(' ');
        }
    }
    emit(Json::obj([
        ("frame_bytes", frame_bytes.into()),
        ("searches", Json::Arr(searches)),
    ]))?;
    emit(columns.trim_end())
}
