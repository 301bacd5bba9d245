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
//! Every message is one JSON object. A request carries an `"op"` tag
//! (`ping`, `synth`, `check`, `analyze`, `sleep`, `metrics`, `stats`,
//! `watch`), a response a `"type"` tag (`pong`, `synth`, `check`,
//! `analyze`, `timeout`, `overloaded`, `slept`, `metrics`, `stats`,
//! `progress`, `error`); the payload's keys sit next to the tag.
//!
//! Each message is declared once, as one row of the [`Request`] or
//! [`Response`] table, and each reply struct as one table of its fields.
//! The declarations generate the types and both directions of the codec,
//! so a key's name, type and optionality cannot differ between encoder and
//! decoder. A row marked `= default` may be absent from a frame and then
//! decodes as its type's default, which keeps frames from peers that
//! predate the field parsing; every other key is required. Keys are written
//! in sorted order (the value tree's maps are `BTreeMap`s), so the order of
//! the rows never changes the bytes.
//!
//! The `sleep` op exists for load testing: it occupies a worker for a
//! bounded time without doing search work, which is how the
//! admission-control tests make overload deterministic.

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

/// Decodes the key `$key` of the message map `$map` as a `$ty`: required,
/// or, when the row ends in `= default`, the type's default if absent.
macro_rules! field {
    ($map:ident, $key:ident: $ty:ty) => {
        <$ty as Deserialize>::deserialize($map.required(stringify!($key))?)?
    };
    ($map:ident, $key:ident: $ty:ty = default) => {
        match $map.get(stringify!($key)) {
            None => <$ty as Default>::default(),
            Some(v) => <$ty as Deserialize>::deserialize(v)?,
        }
    };
}

/// Declares a reply struct as a table of its fields. Each row is the
/// field's doc comment, its name (which is also its wire key) and its type,
/// and ends in `= default` when a missing key decodes as the type's
/// default. Generates the struct, its `entries`, and the `Serialize` and
/// `Deserialize` impls.
macro_rules! reply {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {$(
            $(#[doc = $doc:literal])*
            $field:ident: $ty:ty $(= $default:ident)?,
        )*}
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[doc = $doc])* pub $field: $ty, )*
        }

        impl $name {
            /// Every field as a `(wire key, value)` pair, in table order.
            pub fn entries(&self) -> [(&'static str, Value); [$(stringify!($field)),*].len()] {
                [$( (stringify!($field), self.$field.serialize()) ),*]
            }
        }

        impl Serialize for $name {
            fn serialize(&self) -> Value {
                Value::map(self.entries())
            }
        }

        impl Deserialize for $name {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                Ok($name {
                    $( $field: field!(value, $field: $ty $(= $default)?), )*
                })
            }
        }
    };
}

/// Expands to its first token. A pattern uses it to bind a tuple
/// variant's payload under a name the caller picks, inside a repetition
/// that the payload's type drives.
macro_rules! first {
    ($first:tt $($rest:tt)*) => {
        $first
    };
}

/// The expression given after the default, else the default.
macro_rules! either {
    ($default:expr) => {
        $default
    };
    ($default:expr, $given:expr) => {
        $given
    };
}

/// Declares a message enum tagged by the key `$key` as one table. Each row
/// maps a wire tag to a variant and its payload:
/// - none: `ping => Ping`;
/// - inline fields, each a row as in `reply!`: `sleep => Sleep { ms: u64, }`;
/// - a struct whose keys sit next to the tag: `check => Check(CheckReply)`,
///   coded by its `Serialize` and `Deserialize`, or by the two functions
///   named after `via`.
///
/// Generates the enum, its `tag`, and the `Serialize` and `Deserialize`
/// impls; an unknown tag is refused as an unknown `$what`.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum $name:ident tagged $key:ident, unknown $what:literal {$(
            $(#[doc = $doc:literal])*
            $tag:ident => $variant:ident
            $( ($payload:ty $(, via $encode:path, $decode:path)?) )?
            $( {$(
                $(#[doc = $fdoc:literal])*
                $field:ident: $fty:ty $(= $default:ident)?,
            )*} )?,
        )*}
    ) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[doc = $doc])*
            $variant $( ($payload) )? $( {$( $(#[doc = $fdoc])* $field: $fty, )*} )?,
        )*}

        impl $name {
            /// The message's wire tag.
            pub(crate) fn tag(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => stringify!($tag), )*
                }
            }
        }

        impl Serialize for $name {
            fn serialize(&self) -> Value {
                match self {$(
                    $name::$variant $( (first!(payload $payload)) )? $( { $($field),* } )? => {
                        // A struct payload's keys, or none.
                        let body = either!(Value::map([]) $(, either!(
                            Serialize::serialize $(, $encode)?)(first!(payload $payload)
                        ))?);
                        message(body, [
                            (stringify!($key), Value::Str(stringify!($tag).to_string())),
                            $($( (stringify!($field), $field.serialize()), )*)?
                        ])
                    }
                )*}
            }
        }

        impl Deserialize for $name {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let tag = String::deserialize(value.required(stringify!($key))?)?;
                Ok(match tag.as_str() {
                    $(
                        stringify!($tag) => $name::$variant
                            $( (either!(<$payload as Deserialize>::deserialize $(, $decode)?)(value)?) )?
                            $( {$( $field: field!(value, $field: $fty $(= $default)?), )*} )?,
                    )*
                    other => return Err(Error::new(format!(concat!("unknown ", $what, " `{}`"), other))),
                })
            }
        }
    };
}

/// One message map: `body`'s keys plus `fields` (the tag and any inline
/// fields).
fn message(body: Value, fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let Value::Map(mut map) = body else {
        unreachable!("a message payload encodes as a map");
    };
    for (key, value) in fields {
        map.insert(key.to_string(), value);
    }
    Value::Map(map)
}

messages! {
    /// A client request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request tagged op, unknown "op" {
        /// Health check; answered with [`Response::Pong`].
        ping => Ping,
        /// Synthesize (or fetch from cache) the kernel for `query`.
        synth => Synth {
            /// The canonical query.
            query: KernelQuery,
            /// Per-request deadline in milliseconds, measured from admission.
            /// `None` uses the server's default.
            timeout_ms: Option<u64> = default,
            /// Synthesis route: a backend name (`astar`, `cegis`, …),
            /// `portfolio` to race the configured set, or `None` for the
            /// server's default route. Routing is advisory — the cache stays
            /// keyed by the query alone, so a cached answer is served
            /// regardless of the requested backend.
            backend: Option<String> = default,
        },
        /// Check a program's correctness on the full permutation suite.
        check => Check {
            /// The machine to check against.
            machine: Machine,
            /// The program, in `Machine::parse_program` syntax.
            program: String,
        },
        /// Static pipeline-throughput analysis of a program.
        analyze => Analyze {
            /// The machine the program targets.
            machine: Machine,
            /// The program, in `Machine::parse_program` syntax.
            program: String,
        },
        /// Occupy a worker for `ms` milliseconds (diagnostic; capped server-side).
        sleep => Sleep {
            /// How long to hold the worker.
            ms: u64,
        },
        /// Fetch the full Prometheus text exposition. Answered inline by the
        /// connection thread (bypassing the admission queue) so observability
        /// keeps working while the server is overloaded.
        metrics => Metrics,
        /// Fetch a compact live-gauges snapshot ([`StatsReply`]). Also answered
        /// inline.
        stats => Stats,
        /// Attach to an in-flight synthesis of `query` and stream throttled
        /// [`Response::Progress`] frames until the search finishes. Rides the
        /// single-flight table: any number of watchers observe the one coalesced
        /// search without adding load. Answered inline by the connection thread
        /// (like `metrics`/`stats`) so attaching works even when the admission
        /// queue is full. If no matching flight exists, the server waits up to
        /// `wait_ms` for one to start before answering [`Response::Error`].
        watch => Watch {
            /// The query whose flight to observe (same canonical form as
            /// [`Request::Synth`]).
            query: KernelQuery,
            /// The route the flight was admitted under (`None` for the default
            /// engine route) — watch keys match synth keys.
            backend: Option<String> = default,
            /// How long to wait for a flight to appear before giving up.
            /// `None` uses the server default.
            wait_ms: Option<u64> = default,
        },
    }
}

/// Where a synth answer came from: a bare wire name.
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
    /// Every source with its wire name: the one table both directions of
    /// the codec read.
    const NAMES: [(ReplySource, &'static str); 3] = [
        (ReplySource::Computed, "computed"),
        (ReplySource::Cache, "cache"),
        (ReplySource::Coalesced, "coalesced"),
    ];
}

impl Serialize for ReplySource {
    fn serialize(&self) -> Value {
        let (_, name) = ReplySource::NAMES
            .iter()
            .find(|(source, _)| source == self)
            .expect("every source has a wire name");
        Value::Str(name.to_string())
    }
}

impl Deserialize for ReplySource {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let name = String::deserialize(value)?;
        ReplySource::NAMES
            .iter()
            .find(|(_, wire)| *wire == name)
            .map(|&(source, _)| source)
            .ok_or_else(|| Error::new(format!("unknown source `{name}`")))
    }
}

reply! {
    /// A completed synthesis answer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SynthReply {
        /// The kernel in `Machine::parse_program` syntax, or `None` if the
        /// search proved no program exists within the query's length bound.
        program: Option<String>,
        /// Length of the kernel, if one was found.
        found_len: Option<u32>,
        /// Whether the search configuration certifies minimality.
        minimal_certified: bool,
        /// Provenance of this answer.
        source: ReplySource,
        /// Wall-clock milliseconds of the producing search (0 for cache hits
        /// would lie, so cache hits report the *original* search time).
        search_millis: u64,
        /// The producing search needed the distance table but the machine was
        /// too large to build it, so the search ran with degraded pruning.
        /// Always `false` for cache/coalesced answers (no search ran).
        distance_table_skipped: bool,
        /// The backend that produced this answer (`astar`, `cegis`, …) when
        /// the request was routed through the backend dispatch layer; the
        /// portfolio winner's name for `portfolio` routes. `None` for the
        /// default engine path and for cache hits.
        backend: Option<String> = default,
    }
}

reply! {
    /// A live-gauges snapshot of the running server (reply to
    /// [`Request::Stats`]).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StatsReply {
        /// Milliseconds since the server was bound.
        uptime_ms: u64,
        /// Jobs currently waiting in the admission queue.
        queue_depth: i64,
        /// Jobs currently executing on workers.
        inflight: i64,
        /// Requests accepted into the admission queue since start.
        requests_total: u64,
        /// Requests shed with [`Response::Overloaded`] since start.
        shed_total: u64,
        /// Worker panics caught and converted to error replies.
        worker_panics: u64,
        /// Searches actually started (cache hits and coalesced excluded).
        searches_started: u64,
        /// Requests coalesced onto an identical in-flight search.
        singleflight_coalesced: u64,
        /// In-memory cache hits.
        cache_memory_hits: u64,
        /// Disk-log hits promoted into memory.
        cache_disk_hits: u64,
        /// Lookups that missed both cache tiers.
        cache_misses: u64,
        /// Cache entries inserted.
        cache_insertions: u64,
        /// Entries evicted from the in-memory LRU front.
        cache_evictions: u64,
        /// Entries refused by the static-verification gate.
        cache_verify_rejected: u64,
        /// Disk promotions that skipped gate re-analysis via a valid gate stamp.
        cache_verify_skipped: u64,
        /// Portfolio races executed since start.
        portfolio_races: u64 = default,
        /// Races that produced a verify-gated winner.
        portfolio_wins: u64 = default,
        /// Races whose first wave missed and widened to the remaining arms.
        portfolio_widened: u64 = default,
        /// The learned dispatch table, one row per (shape, backend) pair.
        portfolio: Vec<PortfolioRowReply> = default,
    }
}

reply! {
    /// A correctness-check answer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CheckReply {
        /// Whether the program sorts every permutation.
        correct: bool,
        /// Number of failing permutations.
        counterexamples: u64,
    }
}

reply! {
    /// One static-analysis diagnostic (mirrors `sortsynth_verify::Diagnostic`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct LintReply {
        /// Kebab-case lint kind (e.g. `dead-write`).
        kind: String,
        /// `error`, `warning`, or `info`.
        severity: String,
        /// Instruction index the diagnostic anchors to, if any.
        index: Option<u64>,
        /// Human-readable explanation.
        message: String,
    }
}

reply! {
    /// A pipeline-analysis answer (mirrors `sortsynth_isa::PipelineReport`),
    /// extended with the static verifier's verdict and lint report.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AnalyzeReply {
        /// Steady-state cycles per kernel iteration.
        cycles_per_iteration: f64,
        /// Latency-weighted critical path (cycles).
        critical_path: u32,
        /// Port-pressure bound.
        port_bound: f64,
        /// Issue-width bound.
        issue_bound: f64,
        /// Whether latency (not ports/issue) limits throughput.
        latency_bound: bool,
        /// The static verifier's verdict (`sortsynth_verify::Verdict` wire
        /// name, e.g. `certified-network` or `refuted-zero-one`).
        verdict: String,
        /// Structured lint report, sorted by instruction index.
        lints: Vec<LintReply>,
    }
}

messages! {
    /// A server response.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response tagged type, unknown "response type" {
        /// Reply to [`Request::Ping`].
        pong => Pong,
        /// Reply to [`Request::Synth`] when the search finished.
        synth => Synth(SynthReply),
        /// Reply to [`Request::Check`].
        check => Check(CheckReply),
        /// Reply to [`Request::Analyze`].
        analyze => Analyze(AnalyzeReply),
        /// The request's deadline expired; partial diagnostics attached.
        timeout => Timeout(TimeoutReply),
        /// The admission queue was full; retry later.
        overloaded => Overloaded,
        /// Reply to [`Request::Sleep`].
        slept => Slept,
        /// Reply to [`Request::Metrics`]: the Prometheus text exposition.
        metrics => Metrics {
            /// The rendered exposition (format 0.0.4).
            text: String,
        },
        /// Reply to [`Request::Stats`].
        stats => Stats(StatsReply),
        /// One streamed frame of an in-flight search (reply to
        /// [`Request::Watch`]; many frames per request).
        progress => Progress(SearchProgress, via progress_value, progress_from_value),
        /// The request was malformed or failed.
        error => Error {
            /// Human-readable reason.
            message: String,
        },
    }
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

reply! {
    /// The keys of a `progress` message besides its schema columns.
    /// `distance_table_skipped` is not on the wire.
    struct ProgressHead {
        /// [`SearchProgress::elapsed`] in milliseconds.
        elapsed_millis: u64,
        /// [`SearchProgress::finished`].
        finished: bool,
        /// [`SearchProgress::outcome`].
        outcome: Option<String>,
        /// The shard table: one map of [`ShardSnapshot::FIELDS`] per shard.
        shards: Value,
    }
}

/// The body of a `progress` message: its head plus one key per schema
/// column.
fn progress_value(p: &SearchProgress) -> Value {
    let shards = p.shards.iter().map(|shard| {
        let values = shard.values().map(|v| v.serialize());
        Value::map(ShardSnapshot::FIELDS.into_iter().zip(values))
    });
    let head = ProgressHead {
        elapsed_millis: p.elapsed.as_millis() as u64,
        finished: p.finished,
        outcome: p.outcome.clone(),
        shards: Value::Seq(shards.collect()),
    };
    let columns = COLUMNS
        .iter()
        .map(|col| (col.name, (col.get)(p).serialize()));
    message(head.serialize(), columns)
}

/// Parses a `progress` message body. Columns of the first schema
/// generation are required; later columns are optional so an older peer's
/// frames decode with zeros.
fn progress_from_value(value: &Value) -> Result<SearchProgress, Error> {
    let head = ProgressHead::deserialize(value)?;
    let mut p = SearchProgress {
        elapsed: Duration::from_millis(head.elapsed_millis),
        finished: head.finished,
        outcome: head.outcome,
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
    let Value::Seq(shards) = head.shards else {
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

    /// Golden pins: the JSON of every request variant, key order included,
    /// with each optional key both set and null. Both directions: the
    /// value encodes to the pin and the pin decodes to the value.
    #[test]
    fn request_wire_encoding_is_pinned() {
        let pins = [
            (Request::Ping, r#"{"op":"ping"}"#),
            (
                Request::Synth {
                    query: KernelQuery::best(3, 1, IsaMode::Cmov),
                    timeout_ms: Some(500),
                    backend: Some("portfolio".into()),
                },
                concat!(
                    r#"{"backend":"portfolio","op":"synth","query":{"budget_viability":true,"#,
                    r#""cut":{"kind":"factor","millis":1000},"max_len":null,"mode":"cmov","#,
                    r#""n":3,"optimal_instrs_only":true,"scratch":1},"timeout_ms":500}"#,
                ),
            ),
            (
                Request::Synth {
                    query: KernelQuery::best(2, 1, IsaMode::MinMax),
                    timeout_ms: None,
                    backend: None,
                },
                concat!(
                    r#"{"backend":null,"op":"synth","query":{"budget_viability":true,"#,
                    r#""cut":{"kind":"factor","millis":1000},"max_len":null,"mode":"minmax","#,
                    r#""n":2,"optimal_instrs_only":true,"scratch":1},"timeout_ms":null}"#,
                ),
            ),
            (
                Request::Check {
                    machine: Machine::new(2, 1, IsaMode::Cmov),
                    program: "mov s1 r2".into(),
                },
                r#"{"machine":{"mode":"cmov","n":2,"scratch":1},"op":"check","program":"mov s1 r2"}"#,
            ),
            (
                Request::Analyze {
                    machine: Machine::new(3, 1, IsaMode::MinMax),
                    program: "min r1 r2".into(),
                },
                concat!(
                    r#"{"machine":{"mode":"minmax","n":3,"scratch":1},"op":"analyze","#,
                    r#""program":"min r1 r2"}"#,
                ),
            ),
            (Request::Sleep { ms: 25 }, r#"{"ms":25,"op":"sleep"}"#),
            (Request::Metrics, r#"{"op":"metrics"}"#),
            (Request::Stats, r#"{"op":"stats"}"#),
            (
                Request::Watch {
                    query: KernelQuery::best(4, 1, IsaMode::Cmov),
                    backend: Some("astar".into()),
                    wait_ms: Some(2000),
                },
                concat!(
                    r#"{"backend":"astar","op":"watch","query":{"budget_viability":true,"#,
                    r#""cut":{"kind":"factor","millis":1000},"max_len":null,"mode":"cmov","#,
                    r#""n":4,"optimal_instrs_only":true,"scratch":1},"wait_ms":2000}"#,
                ),
            ),
            (
                Request::Watch {
                    query: KernelQuery::best(3, 1, IsaMode::MinMax),
                    backend: None,
                    wait_ms: None,
                },
                concat!(
                    r#"{"backend":null,"op":"watch","query":{"budget_viability":true,"#,
                    r#""cut":{"kind":"factor","millis":1000},"max_len":null,"mode":"minmax","#,
                    r#""n":3,"optimal_instrs_only":true,"scratch":1},"wait_ms":null}"#,
                ),
            ),
        ];
        for (request, golden) in &pins {
            assert_eq!(&serde_json::to_string(request).unwrap(), golden);
            assert_eq!(&serde_json::from_str::<Request>(golden).unwrap(), request);
        }
    }

    /// Golden pins: the JSON of every response variant but `progress`
    /// (pinned on its own above), key order included, with each optional
    /// key both set and null and every reply source.
    #[test]
    fn response_wire_encoding_is_pinned() {
        let pins = [
            (Response::Pong, r#"{"type":"pong"}"#),
            (
                Response::Synth(SynthReply {
                    program: Some("mov s1 r2\n".into()),
                    found_len: Some(1),
                    minimal_certified: true,
                    source: ReplySource::Cache,
                    search_millis: 12,
                    distance_table_skipped: false,
                    backend: None,
                }),
                concat!(
                    r#"{"backend":null,"distance_table_skipped":false,"found_len":1,"#,
                    r#""minimal_certified":true,"program":"mov s1 r2\n","search_millis":12,"#,
                    r#""source":"cache","type":"synth"}"#,
                ),
            ),
            (
                Response::Synth(SynthReply {
                    program: None,
                    found_len: None,
                    minimal_certified: false,
                    source: ReplySource::Computed,
                    search_millis: 3,
                    distance_table_skipped: true,
                    backend: Some("astar".into()),
                }),
                concat!(
                    r#"{"backend":"astar","distance_table_skipped":true,"found_len":null,"#,
                    r#""minimal_certified":false,"program":null,"search_millis":3,"#,
                    r#""source":"computed","type":"synth"}"#,
                ),
            ),
            (
                Response::Synth(SynthReply {
                    program: Some("min r1 r2\n".into()),
                    found_len: Some(1),
                    minimal_certified: false,
                    source: ReplySource::Coalesced,
                    search_millis: 7,
                    distance_table_skipped: false,
                    backend: None,
                }),
                concat!(
                    r#"{"backend":null,"distance_table_skipped":false,"found_len":1,"#,
                    r#""minimal_certified":false,"program":"min r1 r2\n","search_millis":7,"#,
                    r#""source":"coalesced","type":"synth"}"#,
                ),
            ),
            (
                Response::Check(CheckReply {
                    correct: false,
                    counterexamples: 2,
                }),
                r#"{"correct":false,"counterexamples":2,"type":"check"}"#,
            ),
            (
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
                concat!(
                    r#"{"critical_path":7,"cycles_per_iteration":3.5,"issue_bound":0.75,"#,
                    r#""latency_bound":true,"lints":[{"index":3,"kind":"dead-write","#,
                    r#""message":"value of r1 is never read","severity":"warning"},"#,
                    r#"{"index":null,"kind":"unused-scratch","#,
                    r#""message":"scratch register s2 is never used","severity":"info"}],"#,
                    r#""port_bound":1.25,"type":"analyze","verdict":"passed-zero-one"}"#,
                ),
            ),
            (
                Response::Timeout(TimeoutReply {
                    generated: 1000,
                    expanded: 40,
                    elapsed_ms: 200,
                    cancelled: true,
                }),
                r#"{"cancelled":true,"elapsed_ms":200,"expanded":40,"generated":1000,"type":"timeout"}"#,
            ),
            (Response::Overloaded, r#"{"type":"overloaded"}"#),
            (Response::Slept, r#"{"type":"slept"}"#),
            (
                Response::Metrics {
                    text: "# TYPE sortsynth_requests_total counter\nsortsynth_requests_total 3\n"
                        .into(),
                },
                concat!(
                    r##"{"text":"# TYPE sortsynth_requests_total counter\n"##,
                    r#"sortsynth_requests_total 3\n","type":"metrics"}"#,
                ),
            ),
            (
                Response::Stats(StatsReply {
                    uptime_ms: 1234,
                    queue_depth: -1,
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
                    cache_evictions: 6,
                    cache_verify_rejected: 7,
                    cache_verify_skipped: 8,
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
                concat!(
                    r#"{"cache_disk_hits":1,"cache_evictions":6,"cache_insertions":4,"#,
                    r#""cache_memory_hits":5,"cache_misses":4,"cache_verify_rejected":7,"#,
                    r#""cache_verify_skipped":8,"inflight":1,"portfolio":[{"backend":"astar","#,
                    r#""cancelled":1,"losses":0,"shape":"3/1/cmov","total_millis":40,"wins":2}],"#,
                    r#""portfolio_races":3,"portfolio_widened":1,"portfolio_wins":2,"#,
                    r#""queue_depth":-1,"requests_total":10,"searches_started":4,"#,
                    r#""shed_total":3,"singleflight_coalesced":2,"type":"stats","#,
                    r#""uptime_ms":1234,"worker_panics":0}"#,
                ),
            ),
            (
                Response::Stats(StatsReply::default()),
                concat!(
                    r#"{"cache_disk_hits":0,"cache_evictions":0,"cache_insertions":0,"#,
                    r#""cache_memory_hits":0,"cache_misses":0,"cache_verify_rejected":0,"#,
                    r#""cache_verify_skipped":0,"inflight":0,"portfolio":[],"#,
                    r#""portfolio_races":0,"portfolio_widened":0,"portfolio_wins":0,"#,
                    r#""queue_depth":0,"requests_total":0,"searches_started":0,"#,
                    r#""shed_total":0,"singleflight_coalesced":0,"type":"stats","#,
                    r#""uptime_ms":0,"worker_panics":0}"#,
                ),
            ),
            (
                Response::Error {
                    message: "unknown op `nope`".into(),
                },
                r#"{"message":"unknown op `nope`","type":"error"}"#,
            ),
        ];
        for (response, golden) in &pins {
            assert_eq!(&serde_json::to_string(response).unwrap(), golden);
            assert_eq!(&serde_json::from_str::<Response>(golden).unwrap(), response);
        }
    }

    /// Every key that may be left out decodes to its default when absent:
    /// `timeout_ms` and `backend` on synth requests, `backend` and
    /// `wait_ms` on watch requests, `backend` on synth replies and the four
    /// `portfolio*` keys on stats replies.
    #[test]
    fn absent_optional_keys_decode_to_defaults() {
        let query = concat!(
            r#""query":{"budget_viability":true,"cut":null,"max_len":null,"#,
            r#""mode":"cmov","n":2,"optimal_instrs_only":true,"scratch":1}"#,
        );
        let synth: Request = serde_json::from_str(&format!(r#"{{"op":"synth",{query}}}"#)).unwrap();
        let watch: Request = serde_json::from_str(&format!(r#"{{"op":"watch",{query}}}"#)).unwrap();
        let mut bare = KernelQuery::best(2, 1, IsaMode::Cmov);
        bare.cut = None;
        assert_eq!(
            synth,
            Request::Synth {
                query: bare.clone(),
                timeout_ms: None,
                backend: None,
            }
        );
        assert_eq!(
            watch,
            Request::Watch {
                query: bare,
                backend: None,
                wait_ms: None,
            }
        );
        let stats: Response = serde_json::from_str(concat!(
            r#"{"cache_disk_hits":1,"cache_evictions":6,"cache_insertions":4,"#,
            r#""cache_memory_hits":5,"cache_misses":4,"cache_verify_rejected":7,"#,
            r#""cache_verify_skipped":8,"inflight":1,"queue_depth":-1,"requests_total":10,"#,
            r#""searches_started":4,"shed_total":3,"singleflight_coalesced":2,"type":"stats","#,
            r#""uptime_ms":1234,"worker_panics":0}"#,
        ))
        .unwrap();
        assert_eq!(
            stats,
            Response::Stats(StatsReply {
                uptime_ms: 1234,
                queue_depth: -1,
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
                cache_evictions: 6,
                cache_verify_rejected: 7,
                cache_verify_skipped: 8,
                ..StatsReply::default()
            })
        );
    }

    /// Every decode refusal keeps its wording: unknown tags, an unknown
    /// reply source, a missing required key and a value of the wrong type.
    #[test]
    fn decode_refusals_are_pinned() {
        let request_err = |json: &str| serde_json::from_str::<Request>(json).unwrap_err();
        let response_err = |json: &str| serde_json::from_str::<Response>(json).unwrap_err();
        assert_eq!(
            request_err(r#"{"op":"nope"}"#).to_string(),
            "unknown op `nope`"
        );
        assert_eq!(request_err(r#"{"ms":1}"#).to_string(), "missing field `op`");
        assert_eq!(
            request_err(r#"{"op":"synth"}"#).to_string(),
            "missing field `query`"
        );
        assert_eq!(
            request_err(r#"{"op":"sleep","ms":"x"}"#).to_string(),
            r#"expected integer, got Str("x")"#
        );
        assert_eq!(
            request_err(
                r#"{"op":"check","machine":{"mode":"cmov","n":2,"scratch":1},"program":1}"#
            )
            .to_string(),
            "expected string, got Int(1)"
        );
        assert_eq!(
            response_err(r#"{"type":"nope"}"#).to_string(),
            "unknown response type `nope`"
        );
        let synth = |source: &str| {
            format!(
                concat!(
                    r#"{{"distance_table_skipped":false,"found_len":null,"#,
                    r#""minimal_certified":false,"program":null,"search_millis":3,"#,
                    r#""source":{},"type":"synth"}}"#,
                ),
                source
            )
        };
        assert_eq!(
            response_err(&synth(r#""elsewhere""#)).to_string(),
            "unknown source `elsewhere`"
        );
        assert_eq!(
            response_err(&synth("7")).to_string(),
            "expected string, got Int(7)"
        );
        assert_eq!(
            response_err(r#"{"type":"check","correct":true}"#).to_string(),
            "missing field `counterexamples`"
        );
        assert_eq!(
            response_err(r#"{"type":"stats","uptime_ms":1,"portfolio_races":"many"}"#).to_string(),
            "missing field `queue_depth`"
        );
        assert_eq!(
            response_err(r#"{"type":"timeout","generated":1,"expanded":1,"elapsed_ms":1}"#)
                .to_string(),
            "missing field `cancelled`"
        );
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
