//! The wire protocol: length-prefixed JSON frames and the typed
//! request/response vocabulary.
//!
//! # Framing
//!
//! Every message is one frame: a `u32` big-endian payload length followed by
//! that many bytes of UTF-8 JSON. Frames above [`MAX_FRAME`] bytes are a
//! protocol error — the limit bounds per-connection memory and makes a
//! desynchronized stream fail fast instead of allocating garbage lengths.
//!
//! # Messages
//!
//! Requests carry an `"op"` tag (`ping`, `synth`, `check`, `analyze`,
//! `sleep`); responses carry a `"type"` tag. See [`Request`] and
//! [`Response`] for the shapes. The `sleep` op exists for load testing: it
//! occupies a worker for a bounded time without doing search work, which is
//! how the admission-control tests make overload deterministic.

use std::io::{self, ErrorKind, Read, Write};
use std::time::Duration;

use serde::{Deserialize, Error, Serialize, Value};
use sortsynth_cache::KernelQuery;
use sortsynth_isa::Machine;
use sortsynth_obs::progress::{SearchProgress, ShardSnapshot, COLUMNS};
use sortsynth_portfolio::{Answer, Failure};

/// One row of the learned portfolio dispatch table in a [`StatsReply`]: the
/// policy's own row type, which encodes the same on the wire and on disk.
pub use sortsynth_portfolio::PolicyRow as PortfolioRowReply;
/// Diagnostics returned when a request's deadline expired: the answer
/// path's own timeout record.
pub use sortsynth_portfolio::Timeout as TimeoutReply;

/// Hard cap on one frame's payload (1 MiB).
pub const MAX_FRAME: u32 = 1 << 20;

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Writes one frame.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(ErrorKind::InvalidInput, "frame too large"));
    }
    writer.write_all(&(payload.len() as u32).to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed the connection between messages).
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "torn frame header",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Serializes a message and writes it as one frame.
pub fn write_message(writer: &mut impl Write, message: &impl Serialize) -> io::Result<()> {
    let payload = serde_json::to_vec(message).expect("value-tree serialization is infallible");
    write_frame(writer, &payload)
}

/// Reads one frame and parses it as `T`. `Ok(None)` on clean EOF.
pub fn read_message<T: Deserialize>(reader: &mut impl Read) -> io::Result<Option<T>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    serde_json::from_slice(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad message: {e}")))
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Health check; answered with [`Response::Pong`].
    Ping,
    /// Synthesize (or fetch from cache) the kernel for `query`.
    Synth {
        /// The canonical query.
        query: KernelQuery,
        /// Per-request deadline in milliseconds, measured from admission.
        /// `None` uses the server's default.
        timeout_ms: Option<u64>,
        /// Synthesis route: a backend name (`astar`, `cegis`, …),
        /// `portfolio` to race the configured set, or `None` for the
        /// server's default route. Routing is advisory — the cache stays
        /// keyed by the query alone, so a cached answer is served
        /// regardless of the requested backend.
        backend: Option<String>,
    },
    /// Check a program's correctness on the full permutation suite.
    Check {
        /// The machine to check against.
        machine: Machine,
        /// The program, in `Machine::parse_program` syntax.
        program: String,
    },
    /// Static pipeline-throughput analysis of a program.
    Analyze {
        /// The machine the program targets.
        machine: Machine,
        /// The program, in `Machine::parse_program` syntax.
        program: String,
    },
    /// Occupy a worker for `ms` milliseconds (diagnostic; capped server-side).
    Sleep {
        /// How long to hold the worker.
        ms: u64,
    },
    /// Fetch the full Prometheus text exposition. Answered inline by the
    /// connection thread (bypassing the admission queue) so observability
    /// keeps working while the server is overloaded.
    Metrics,
    /// Fetch a compact live-gauges snapshot ([`StatsReply`]). Also answered
    /// inline.
    Stats,
    /// Attach to an in-flight synthesis of `query` and stream throttled
    /// [`Response::Progress`] frames until the search finishes. Rides the
    /// single-flight table: any number of watchers observe the one coalesced
    /// search without adding load. Answered inline by the connection thread
    /// (like `metrics`/`stats`) so attaching works even when the admission
    /// queue is full. If no matching flight exists, the server waits up to
    /// `wait_ms` for one to start before answering [`Response::Error`].
    Watch {
        /// The query whose flight to observe (same canonical form as
        /// [`Request::Synth`]).
        query: KernelQuery,
        /// The route the flight was admitted under (`None` for the default
        /// engine route) — watch keys match synth keys.
        backend: Option<String>,
        /// How long to wait for a flight to appear before giving up.
        /// `None` uses the server default.
        wait_ms: Option<u64>,
    },
}

/// Where a synth answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplySource {
    /// This request ran the search.
    Computed,
    /// Served from the kernel cache.
    Cache,
    /// Coalesced onto another in-flight identical request (single-flight).
    Coalesced,
}

impl ReplySource {
    fn wire_name(self) -> &'static str {
        match self {
            ReplySource::Computed => "computed",
            ReplySource::Cache => "cache",
            ReplySource::Coalesced => "coalesced",
        }
    }

    fn from_wire_name(name: &str) -> Option<Self> {
        match name {
            "computed" => Some(ReplySource::Computed),
            "cache" => Some(ReplySource::Cache),
            "coalesced" => Some(ReplySource::Coalesced),
            _ => None,
        }
    }
}

/// A completed synthesis answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReply {
    /// The kernel in `Machine::parse_program` syntax, or `None` if the
    /// search proved no program exists within the query's length bound.
    pub program: Option<String>,
    /// Length of the kernel, if one was found.
    pub found_len: Option<u32>,
    /// Whether the search configuration certifies minimality.
    pub minimal_certified: bool,
    /// Provenance of this answer.
    pub source: ReplySource,
    /// Wall-clock milliseconds of the producing search (0 for cache hits
    /// would lie, so cache hits report the *original* search time).
    pub search_millis: u64,
    /// The producing search needed the distance table but the machine was
    /// too large to build it, so the search ran with degraded pruning.
    /// Always `false` for cache/coalesced answers (no search ran).
    pub distance_table_skipped: bool,
    /// The backend that produced this answer (`astar`, `cegis`, …) when
    /// the request was routed through the backend dispatch layer; the
    /// portfolio winner's name for `portfolio` routes. `None` for the
    /// default engine path and for cache hits.
    pub backend: Option<String>,
}

/// A live-gauges snapshot of the running server (reply to
/// [`Request::Stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Milliseconds since the server was bound.
    pub uptime_ms: u64,
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: i64,
    /// Jobs currently executing on workers.
    pub inflight: i64,
    /// Requests accepted into the admission queue since start.
    pub requests_total: u64,
    /// Requests shed with [`Response::Overloaded`] since start.
    pub shed_total: u64,
    /// Worker panics caught and converted to error replies.
    pub worker_panics: u64,
    /// Searches actually started (cache hits and coalesced excluded).
    pub searches_started: u64,
    /// Requests coalesced onto an identical in-flight search.
    pub singleflight_coalesced: u64,
    /// In-memory cache hits.
    pub cache_memory_hits: u64,
    /// Disk-log hits promoted into memory.
    pub cache_disk_hits: u64,
    /// Lookups that missed both cache tiers.
    pub cache_misses: u64,
    /// Cache entries inserted.
    pub cache_insertions: u64,
    /// Entries evicted from the in-memory LRU front.
    pub cache_evictions: u64,
    /// Entries refused by the static-verification gate.
    pub cache_verify_rejected: u64,
    /// Disk promotions that skipped gate re-analysis via a valid gate stamp.
    pub cache_verify_skipped: u64,
    /// Portfolio races executed since start.
    pub portfolio_races: u64,
    /// Races that produced a verify-gated winner.
    pub portfolio_wins: u64,
    /// Races whose first wave missed and widened to the remaining arms.
    pub portfolio_widened: u64,
    /// The learned dispatch table, one row per (shape, backend) pair.
    pub portfolio: Vec<PortfolioRowReply>,
}

/// A correctness-check answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReply {
    /// Whether the program sorts every permutation.
    pub correct: bool,
    /// Number of failing permutations.
    pub counterexamples: u64,
}

/// One static-analysis diagnostic (mirrors `sortsynth_verify::Diagnostic`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReply {
    /// Kebab-case lint kind (e.g. `dead-write`).
    pub kind: String,
    /// `error`, `warning`, or `info`.
    pub severity: String,
    /// Instruction index the diagnostic anchors to, if any.
    pub index: Option<u64>,
    /// Human-readable explanation.
    pub message: String,
}

/// A pipeline-analysis answer (mirrors `sortsynth_isa::PipelineReport`),
/// extended with the static verifier's verdict and lint report.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeReply {
    /// Steady-state cycles per kernel iteration.
    pub cycles_per_iteration: f64,
    /// Latency-weighted critical path (cycles).
    pub critical_path: u32,
    /// Port-pressure bound.
    pub port_bound: f64,
    /// Issue-width bound.
    pub issue_bound: f64,
    /// Whether latency (not ports/issue) limits throughput.
    pub latency_bound: bool,
    /// The static verifier's verdict (`sortsynth_verify::Verdict` wire
    /// name, e.g. `certified-network` or `refuted-zero-one`).
    pub verdict: String,
    /// Structured lint report, sorted by instruction index.
    pub lints: Vec<LintReply>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Synth`] when the search finished.
    Synth(SynthReply),
    /// Reply to [`Request::Check`].
    Check(CheckReply),
    /// Reply to [`Request::Analyze`].
    Analyze(AnalyzeReply),
    /// The request's deadline expired; partial diagnostics attached.
    Timeout(TimeoutReply),
    /// The admission queue was full; retry later.
    Overloaded,
    /// Reply to [`Request::Sleep`].
    Slept,
    /// Reply to [`Request::Metrics`]: the Prometheus text exposition.
    Metrics {
        /// The rendered exposition (format 0.0.4).
        text: String,
    },
    /// Reply to [`Request::Stats`].
    Stats(StatsReply),
    /// One streamed frame of an in-flight search (reply to
    /// [`Request::Watch`]; many frames per request).
    Progress(SearchProgress),
    /// The request was malformed or failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// The wire form of an answer from the answer path, or of why there is
    /// none: a timeout keeps its own reply, every other failure its wording.
    pub fn answer(query: &KernelQuery, answer: Result<Answer, Failure>) -> Response {
        match answer {
            Ok(answer) => Response::Synth(SynthReply {
                program: answer
                    .program
                    .as_ref()
                    .map(|program| query.machine().format_program(program)),
                found_len: answer.program.as_ref().map(|program| program.len() as u32),
                minimal_certified: answer.minimal_certified,
                source: if answer.cached {
                    ReplySource::Cache
                } else {
                    ReplySource::Computed
                },
                search_millis: answer.millis,
                distance_table_skipped: answer
                    .search
                    .is_some_and(|result| result.stats.distance_table_skipped),
                backend: answer.backend.map(|kind| kind.name().to_string()),
            }),
            Err(Failure::Timeout(timeout)) => Response::Timeout(timeout),
            Err(failure) => Response::Error {
                message: failure.to_string(),
            },
        }
    }
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        match self {
            Request::Ping => Value::map([("op", s("ping"))]),
            Request::Synth {
                query,
                timeout_ms,
                backend,
            } => Value::map([
                ("op", s("synth")),
                ("query", query.serialize()),
                ("timeout_ms", timeout_ms.serialize()),
                ("backend", backend.serialize()),
            ]),
            Request::Check { machine, program } => Value::map([
                ("op", s("check")),
                ("machine", machine.serialize()),
                ("program", program.serialize()),
            ]),
            Request::Analyze { machine, program } => Value::map([
                ("op", s("analyze")),
                ("machine", machine.serialize()),
                ("program", program.serialize()),
            ]),
            Request::Sleep { ms } => Value::map([("op", s("sleep")), ("ms", ms.serialize())]),
            Request::Metrics => Value::map([("op", s("metrics"))]),
            Request::Stats => Value::map([("op", s("stats"))]),
            Request::Watch {
                query,
                backend,
                wait_ms,
            } => Value::map([
                ("op", s("watch")),
                ("query", query.serialize()),
                ("backend", backend.serialize()),
                ("wait_ms", wait_ms.serialize()),
            ]),
        }
    }
}

impl Deserialize for Request {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let op = String::deserialize(value.required("op")?)?;
        match op.as_str() {
            "ping" => Ok(Request::Ping),
            "synth" => Ok(Request::Synth {
                query: KernelQuery::deserialize(value.required("query")?)?,
                timeout_ms: match value.get("timeout_ms") {
                    None => None,
                    Some(v) => Option::<u64>::deserialize(v)?,
                },
                backend: match value.get("backend") {
                    None => None,
                    Some(v) => Option::<String>::deserialize(v)?,
                },
            }),
            "check" => Ok(Request::Check {
                machine: Machine::deserialize(value.required("machine")?)?,
                program: String::deserialize(value.required("program")?)?,
            }),
            "analyze" => Ok(Request::Analyze {
                machine: Machine::deserialize(value.required("machine")?)?,
                program: String::deserialize(value.required("program")?)?,
            }),
            "sleep" => Ok(Request::Sleep {
                ms: u64::deserialize(value.required("ms")?)?,
            }),
            "metrics" => Ok(Request::Metrics),
            "stats" => Ok(Request::Stats),
            "watch" => Ok(Request::Watch {
                query: KernelQuery::deserialize(value.required("query")?)?,
                backend: match value.get("backend") {
                    None => None,
                    Some(v) => Option::<String>::deserialize(v)?,
                },
                wait_ms: match value.get("wait_ms") {
                    None => None,
                    Some(v) => Option::<u64>::deserialize(v)?,
                },
            }),
            other => Err(Error::new(format!("unknown op `{other}`"))),
        }
    }
}

impl Serialize for LintReply {
    fn serialize(&self) -> Value {
        Value::map([
            ("kind", self.kind.serialize()),
            ("severity", self.severity.serialize()),
            ("index", self.index.serialize()),
            ("message", self.message.serialize()),
        ])
    }
}

impl Deserialize for LintReply {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(LintReply {
            kind: String::deserialize(value.required("kind")?)?,
            severity: String::deserialize(value.required("severity")?)?,
            index: Option::<u64>::deserialize(value.required("index")?)?,
            message: String::deserialize(value.required("message")?)?,
        })
    }
}

/// The body of a `progress` message: `elapsed_millis`, one key per
/// schema column, `finished`, `outcome`, and the shard table.
/// `distance_table_skipped` is not on the wire.
fn progress_value(p: &SearchProgress) -> Value {
    let shards = p
        .shards
        .iter()
        .map(|shard| {
            let values = shard.values().map(|v| v.serialize());
            Value::map(ShardSnapshot::FIELDS.into_iter().zip(values))
        })
        .collect();
    Value::map(
        [
            ("type", s("progress")),
            ("elapsed_millis", (p.elapsed.as_millis() as u64).serialize()),
            ("finished", p.finished.serialize()),
            ("outcome", p.outcome.serialize()),
            ("shards", Value::Seq(shards)),
        ]
        .into_iter()
        .chain(
            COLUMNS
                .iter()
                .map(|col| (col.name, (col.get)(p).serialize())),
        ),
    )
}

/// Parses a `progress` message body. Columns of the first schema
/// generation are required; later columns are optional so an older peer's
/// frames decode with zeros.
fn progress_from_value(value: &Value) -> Result<SearchProgress, Error> {
    let mut p = SearchProgress {
        elapsed: Duration::from_millis(u64::deserialize(value.required("elapsed_millis")?)?),
        finished: bool::deserialize(value.required("finished")?)?,
        outcome: Option::<String>::deserialize(value.required("outcome")?)?,
        ..SearchProgress::default()
    };
    for col in COLUMNS {
        let v = match value.get(col.name) {
            None if col.since > 1 => continue,
            _ => value.required(col.name)?,
        };
        let v = if col.nullable {
            Option::<u64>::deserialize(v)?
        } else {
            Some(u64::deserialize(v)?)
        };
        if let Some(v) = v {
            (col.set)(&mut p, v);
        }
    }
    let Value::Seq(shards) = value.required("shards")? else {
        return Err(Error::new("`shards` is not a sequence"));
    };
    for shard in shards {
        let mut values = [0; 3];
        for (v, key) in values.iter_mut().zip(ShardSnapshot::FIELDS) {
            *v = u64::deserialize(shard.required(key)?)?;
        }
        p.shards.push(ShardSnapshot::from_values(values));
    }
    Ok(p)
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        match self {
            Response::Pong => Value::map([("type", s("pong"))]),
            Response::Synth(reply) => Value::map([
                ("type", s("synth")),
                ("program", reply.program.serialize()),
                ("found_len", reply.found_len.serialize()),
                ("minimal_certified", reply.minimal_certified.serialize()),
                ("source", s(reply.source.wire_name())),
                ("search_millis", reply.search_millis.serialize()),
                (
                    "distance_table_skipped",
                    reply.distance_table_skipped.serialize(),
                ),
                ("backend", reply.backend.serialize()),
            ]),
            Response::Check(reply) => Value::map([
                ("type", s("check")),
                ("correct", reply.correct.serialize()),
                ("counterexamples", reply.counterexamples.serialize()),
            ]),
            Response::Analyze(reply) => Value::map([
                ("type", s("analyze")),
                (
                    "cycles_per_iteration",
                    reply.cycles_per_iteration.serialize(),
                ),
                ("critical_path", reply.critical_path.serialize()),
                ("port_bound", reply.port_bound.serialize()),
                ("issue_bound", reply.issue_bound.serialize()),
                ("latency_bound", reply.latency_bound.serialize()),
                ("verdict", reply.verdict.serialize()),
                ("lints", reply.lints.serialize()),
            ]),
            Response::Timeout(reply) => Value::map([
                ("type", s("timeout")),
                ("generated", reply.generated.serialize()),
                ("expanded", reply.expanded.serialize()),
                ("elapsed_ms", reply.elapsed_ms.serialize()),
                ("cancelled", reply.cancelled.serialize()),
            ]),
            Response::Overloaded => Value::map([("type", s("overloaded"))]),
            Response::Slept => Value::map([("type", s("slept"))]),
            Response::Metrics { text } => {
                Value::map([("type", s("metrics")), ("text", text.serialize())])
            }
            Response::Stats(reply) => Value::map([
                ("type", s("stats")),
                ("uptime_ms", reply.uptime_ms.serialize()),
                ("queue_depth", reply.queue_depth.serialize()),
                ("inflight", reply.inflight.serialize()),
                ("requests_total", reply.requests_total.serialize()),
                ("shed_total", reply.shed_total.serialize()),
                ("worker_panics", reply.worker_panics.serialize()),
                ("searches_started", reply.searches_started.serialize()),
                (
                    "singleflight_coalesced",
                    reply.singleflight_coalesced.serialize(),
                ),
                ("cache_memory_hits", reply.cache_memory_hits.serialize()),
                ("cache_disk_hits", reply.cache_disk_hits.serialize()),
                ("cache_misses", reply.cache_misses.serialize()),
                ("cache_insertions", reply.cache_insertions.serialize()),
                ("cache_evictions", reply.cache_evictions.serialize()),
                (
                    "cache_verify_rejected",
                    reply.cache_verify_rejected.serialize(),
                ),
                (
                    "cache_verify_skipped",
                    reply.cache_verify_skipped.serialize(),
                ),
                ("portfolio_races", reply.portfolio_races.serialize()),
                ("portfolio_wins", reply.portfolio_wins.serialize()),
                ("portfolio_widened", reply.portfolio_widened.serialize()),
                ("portfolio", reply.portfolio.serialize()),
            ]),
            Response::Progress(progress) => progress_value(progress),
            Response::Error { message } => {
                Value::map([("type", s("error")), ("message", message.serialize())])
            }
        }
    }
}

impl Deserialize for Response {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let tag = String::deserialize(value.required("type")?)?;
        match tag.as_str() {
            "pong" => Ok(Response::Pong),
            "synth" => {
                let source_name = String::deserialize(value.required("source")?)?;
                let source = ReplySource::from_wire_name(&source_name)
                    .ok_or_else(|| Error::new(format!("unknown source `{source_name}`")))?;
                Ok(Response::Synth(SynthReply {
                    program: Option::<String>::deserialize(value.required("program")?)?,
                    found_len: Option::<u32>::deserialize(value.required("found_len")?)?,
                    minimal_certified: bool::deserialize(value.required("minimal_certified")?)?,
                    source,
                    search_millis: u64::deserialize(value.required("search_millis")?)?,
                    distance_table_skipped: bool::deserialize(
                        value.required("distance_table_skipped")?,
                    )?,
                    backend: match value.get("backend") {
                        None => None,
                        Some(v) => Option::<String>::deserialize(v)?,
                    },
                }))
            }
            "check" => Ok(Response::Check(CheckReply {
                correct: bool::deserialize(value.required("correct")?)?,
                counterexamples: u64::deserialize(value.required("counterexamples")?)?,
            })),
            "analyze" => Ok(Response::Analyze(AnalyzeReply {
                cycles_per_iteration: f64::deserialize(value.required("cycles_per_iteration")?)?,
                critical_path: u32::deserialize(value.required("critical_path")?)?,
                port_bound: f64::deserialize(value.required("port_bound")?)?,
                issue_bound: f64::deserialize(value.required("issue_bound")?)?,
                latency_bound: bool::deserialize(value.required("latency_bound")?)?,
                verdict: String::deserialize(value.required("verdict")?)?,
                lints: Vec::<LintReply>::deserialize(value.required("lints")?)?,
            })),
            "timeout" => Ok(Response::Timeout(TimeoutReply {
                generated: u64::deserialize(value.required("generated")?)?,
                expanded: u64::deserialize(value.required("expanded")?)?,
                elapsed_ms: u64::deserialize(value.required("elapsed_ms")?)?,
                cancelled: bool::deserialize(value.required("cancelled")?)?,
            })),
            "overloaded" => Ok(Response::Overloaded),
            "slept" => Ok(Response::Slept),
            "metrics" => Ok(Response::Metrics {
                text: String::deserialize(value.required("text")?)?,
            }),
            "stats" => Ok(Response::Stats(StatsReply {
                uptime_ms: u64::deserialize(value.required("uptime_ms")?)?,
                queue_depth: i64::deserialize(value.required("queue_depth")?)?,
                inflight: i64::deserialize(value.required("inflight")?)?,
                requests_total: u64::deserialize(value.required("requests_total")?)?,
                shed_total: u64::deserialize(value.required("shed_total")?)?,
                worker_panics: u64::deserialize(value.required("worker_panics")?)?,
                searches_started: u64::deserialize(value.required("searches_started")?)?,
                singleflight_coalesced: u64::deserialize(
                    value.required("singleflight_coalesced")?,
                )?,
                cache_memory_hits: u64::deserialize(value.required("cache_memory_hits")?)?,
                cache_disk_hits: u64::deserialize(value.required("cache_disk_hits")?)?,
                cache_misses: u64::deserialize(value.required("cache_misses")?)?,
                cache_insertions: u64::deserialize(value.required("cache_insertions")?)?,
                cache_evictions: u64::deserialize(value.required("cache_evictions")?)?,
                cache_verify_rejected: u64::deserialize(value.required("cache_verify_rejected")?)?,
                cache_verify_skipped: u64::deserialize(value.required("cache_verify_skipped")?)?,
                portfolio_races: match value.get("portfolio_races") {
                    None => 0,
                    Some(v) => u64::deserialize(v)?,
                },
                portfolio_wins: match value.get("portfolio_wins") {
                    None => 0,
                    Some(v) => u64::deserialize(v)?,
                },
                portfolio_widened: match value.get("portfolio_widened") {
                    None => 0,
                    Some(v) => u64::deserialize(v)?,
                },
                portfolio: match value.get("portfolio") {
                    None => Vec::new(),
                    Some(v) => Vec::<PortfolioRowReply>::deserialize(v)?,
                },
            })),
            "progress" => progress_from_value(value).map(Response::Progress),
            "error" => Ok(Response::Error {
                message: String::deserialize(value.required("message")?)?,
            }),
            other => Err(Error::new(format!("unknown response type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::IsaMode;

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + Deserialize,
    {
        serde_json::from_str(&serde_json::to_string(value).unwrap()).unwrap()
    }

    #[test]
    fn request_round_trips() {
        let requests = [
            Request::Ping,
            Request::Synth {
                query: KernelQuery::best(3, 1, IsaMode::Cmov),
                timeout_ms: Some(500),
                backend: Some("portfolio".into()),
            },
            Request::Synth {
                query: KernelQuery::best(2, 1, IsaMode::MinMax),
                timeout_ms: None,
                backend: None,
            },
            Request::Check {
                machine: Machine::new(2, 1, IsaMode::Cmov),
                program: "mov s1 r2".into(),
            },
            Request::Analyze {
                machine: Machine::new(3, 1, IsaMode::MinMax),
                program: "min r1 r2".into(),
            },
            Request::Sleep { ms: 25 },
            Request::Metrics,
            Request::Stats,
            Request::Watch {
                query: KernelQuery::best(4, 1, IsaMode::Cmov),
                backend: Some("portfolio".into()),
                wait_ms: Some(2000),
            },
            Request::Watch {
                query: KernelQuery::best(3, 1, IsaMode::MinMax),
                backend: None,
                wait_ms: None,
            },
        ];
        for req in &requests {
            assert_eq!(&round_trip(req), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let responses = [
            Response::Pong,
            Response::Synth(SynthReply {
                program: Some("mov s1 r2".into()),
                found_len: Some(1),
                minimal_certified: true,
                source: ReplySource::Cache,
                search_millis: 12,
                distance_table_skipped: false,
                backend: None,
            }),
            Response::Synth(SynthReply {
                program: None,
                found_len: None,
                minimal_certified: false,
                source: ReplySource::Computed,
                search_millis: 3,
                distance_table_skipped: true,
                backend: Some("astar".into()),
            }),
            Response::Check(CheckReply {
                correct: false,
                counterexamples: 2,
            }),
            Response::Analyze(AnalyzeReply {
                cycles_per_iteration: 3.5,
                critical_path: 7,
                port_bound: 1.25,
                issue_bound: 0.75,
                latency_bound: true,
                verdict: "passed-zero-one".into(),
                lints: vec![
                    LintReply {
                        kind: "dead-write".into(),
                        severity: "warning".into(),
                        index: Some(3),
                        message: "value of r1 is never read".into(),
                    },
                    LintReply {
                        kind: "unused-scratch".into(),
                        severity: "info".into(),
                        index: None,
                        message: "scratch register s2 is never used".into(),
                    },
                ],
            }),
            Response::Analyze(AnalyzeReply {
                cycles_per_iteration: 2.0,
                critical_path: 4,
                port_bound: 1.0,
                issue_bound: 0.5,
                latency_bound: false,
                verdict: "certified-network".into(),
                lints: Vec::new(),
            }),
            Response::Timeout(TimeoutReply {
                generated: 1000,
                expanded: 40,
                elapsed_ms: 200,
                cancelled: false,
            }),
            Response::Overloaded,
            Response::Slept,
            Response::Metrics {
                text: "# TYPE sortsynth_requests_total counter\nsortsynth_requests_total 3\n"
                    .into(),
            },
            Response::Stats(StatsReply {
                uptime_ms: 1234,
                queue_depth: 2,
                inflight: 1,
                requests_total: 10,
                shed_total: 3,
                worker_panics: 0,
                searches_started: 4,
                singleflight_coalesced: 2,
                cache_memory_hits: 5,
                cache_disk_hits: 1,
                cache_misses: 4,
                cache_insertions: 4,
                cache_evictions: 0,
                cache_verify_rejected: 0,
                cache_verify_skipped: 0,
                portfolio_races: 3,
                portfolio_wins: 2,
                portfolio_widened: 1,
                portfolio: vec![PortfolioRowReply {
                    shape: "3/1/cmov".into(),
                    backend: "astar".into(),
                    wins: 2,
                    losses: 0,
                    cancelled: 1,
                    total_millis: 40,
                }],
            }),
            full_progress(),
            Response::Progress(SearchProgress::default()),
            Response::Progress(SearchProgress {
                finished: true,
                outcome: Some("Solved".into()),
                ..SearchProgress::default()
            }),
            Response::Error {
                message: "bad".into(),
            },
        ];
        for resp in &responses {
            assert_eq!(&round_trip(resp), resp);
        }
    }

    /// A fully populated progress frame: every counter distinct and
    /// non-zero, two shards. (`distance_table_skipped` is not on the
    /// wire.)
    fn full_progress() -> Response {
        Response::Progress(SearchProgress {
            elapsed: Duration::from_millis(750),
            expanded: 4096,
            generated: 90_000,
            open: 1200,
            f_bound: Some(9),
            viability_pruned: 60_000,
            cut_pruned: 10_000,
            dedup_hits: 14_000,
            dead_write_pruned: 500,
            value_flow_pruned: 300,
            spilled_open: 2000,
            spilled_closed: 1500,
            ddd_dedup_hits: 77,
            resumed_frontier_states: 12,
            resident_bytes: 3 << 20,
            spilled_bytes: 5 << 20,
            distance_table_skipped: false,
            finished: true,
            outcome: Some("Solved".into()),
            shards: vec![
                ShardSnapshot {
                    interned_states: 3000,
                    arena_bytes: 1 << 20,
                    open_depth: 700,
                },
                ShardSnapshot {
                    interned_states: 2800,
                    arena_bytes: 900_000,
                    open_depth: 500,
                },
            ],
        })
    }

    /// Golden pin: the `progress` message's JSON, key order included. A
    /// change here breaks `watch` against every deployed peer.
    #[test]
    fn progress_wire_encoding_is_pinned() {
        let golden = concat!(
            r#"{"cut_pruned":10000,"ddd_dedup_hits":77,"dead_write_pruned":500,"#,
            r#""dedup_hits":14000,"elapsed_millis":750,"expanded":4096,"f_bound":9,"#,
            r#""finished":true,"generated":90000,"open":1200,"outcome":"Solved","#,
            r#""resident_bytes":3145728,"resumed_frontier_states":12,"shards":["#,
            r#"{"arena_bytes":1048576,"interned_states":3000,"open_depth":700},"#,
            r#"{"arena_bytes":900000,"interned_states":2800,"open_depth":500}],"#,
            r#""spilled_bytes":5242880,"spilled_closed":1500,"spilled_open":2000,"#,
            r#""type":"progress","value_flow_pruned":300,"viability_pruned":60000}"#,
        );
        let full = full_progress();
        assert_eq!(serde_json::to_string(&full).unwrap(), golden);
        assert_eq!(round_trip(&full), full);
    }

    /// The `progress` compatibility rule: the six v2 (spill/resume) keys
    /// are optional and decode as 0 when an older peer leaves them out;
    /// every v1 key stays required.
    #[test]
    fn progress_v2_keys_are_optional_and_v1_keys_required() {
        let v2_keys = [
            "spilled_open",
            "spilled_closed",
            "ddd_dedup_hits",
            "resumed_frontier_states",
            "resident_bytes",
            "spilled_bytes",
        ];
        let Value::Map(full) = full_progress().serialize() else {
            panic!("a response serializes to a map");
        };
        let without = |keys: &[&str]| {
            let mut map = full.clone();
            for key in keys {
                map.remove(*key);
            }
            serde_json::to_string(&Value::Map(map)).unwrap()
        };
        let legacy: Response = serde_json::from_str(&without(&v2_keys)).unwrap();
        let Response::Progress(p) = legacy else {
            panic!("decodes as progress: {legacy:?}");
        };
        assert_eq!(p.expanded, 4096);
        assert_eq!(
            [
                p.spilled_open,
                p.spilled_closed,
                p.ddd_dedup_hits,
                p.resumed_frontier_states,
                p.resident_bytes,
                p.spilled_bytes
            ],
            [0; 6],
            "missing v2 keys decode as zero"
        );
        let err = serde_json::from_str::<Response>(&without(&["expanded"])).unwrap_err();
        assert!(
            err.to_string().contains("expanded"),
            "the error names the missing v1 key: {err}"
        );
    }

    #[test]
    fn legacy_frames_without_new_fields_still_parse() {
        // Pre-portfolio peers omit `backend` and the portfolio stats
        // fields entirely; both sides must keep accepting those frames.
        let req: Request = serde_json::from_str(
            r#"{"op":"synth","query":{"n":2,"scratch":1,"mode":"cmov","max_len":null,
                "optimal_instrs_only":true,"budget_viability":true,"cut":null}}"#,
        )
        .unwrap();
        assert!(matches!(
            req,
            Request::Synth {
                timeout_ms: None,
                backend: None,
                ..
            }
        ));
        let resp: Response = serde_json::from_str(
            r#"{"type":"synth","program":null,"found_len":null,"minimal_certified":false,
                "source":"computed","search_millis":1,"distance_table_skipped":false}"#,
        )
        .unwrap();
        assert!(matches!(
            resp,
            Response::Synth(SynthReply { backend: None, .. })
        ));
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        let huge = (MAX_FRAME + 1).to_be_bytes();
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
