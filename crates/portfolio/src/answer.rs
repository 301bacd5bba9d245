//! One answer path: every way of answering a [`KernelQuery`] — the paper's
//! engine, one named backend, or a first-win race — goes query → config →
//! route → cache through here. [`Answerer::answer`] is cache get, then
//! [`Answerer::route`], then [`Answerer::run`], which runs the route and
//! inserts what it found. The CLI calls it as is; the server calls the same
//! steps with single-flight coalescing on [`Route::flight_key`] between the
//! route and the run.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use serde::{Deserialize, Error, Serialize, Value};
use sortsynth_cache::{fnv1a, CacheEntry, CutSpec, KernelCache, KernelQuery};
use sortsynth_isa::Program;
use sortsynth_search::{Cut, SearchBudget, SearchStats, SynthesisConfig, SynthesisResult};

use crate::backend::{backend_for, search, BackendKind, BackendOutcome, BackendStatus};
use crate::executor::Portfolio;
use crate::policy::{DispatchPolicy, PolicyRow, POLICY_FILE};

/// File name of the arena sizing table, kept next to the kernel cache so
/// repeated shapes pre-size their arenas instead of growing into them.
const SIZING_FILE: &str = "sizing.txt";

/// The engine configuration `query` describes. The only place a
/// [`CutSpec`] becomes a [`Cut`], so a caller searches exactly the query it
/// caches.
pub fn engine_config(query: &KernelQuery) -> SynthesisConfig {
    let mut cfg = SynthesisConfig::new(query.machine());
    cfg.optimal_instrs_only = query.optimal_instrs_only;
    cfg.budget_viability = query.budget_viability;
    cfg.max_len = query.max_len;
    cfg.cut = query.cut.map(|cut| match cut {
        CutSpec::Factor { millis } => Cut::Factor(millis as f64 / 1000.0),
        CutSpec::Additive { add } => Cut::Additive(add),
    });
    cfg
}

/// How a synth query is answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// The paper's enumerative search, under the caller's engine settings.
    Engine,
    /// One named backend: `astar` runs what [`Route::Engine`] runs, the
    /// others run through their portfolio adapter.
    Single(BackendKind),
    /// A first-win race over this roster.
    Race(Vec<BackendKind>),
}

impl Route {
    /// Single-flight key: routes that can produce different answers (or do
    /// different amounts of work) must not coalesce with each other, so the
    /// route perturbs the query fingerprint. The engine route keeps the
    /// bare fingerprint for wire compatibility with older clients.
    pub fn flight_key(&self, query: &KernelQuery) -> u64 {
        match self {
            Route::Engine => query.fingerprint(),
            Route::Single(kind) => query.fingerprint() ^ fnv1a(kind.name().as_bytes()),
            Route::Race(_) => query.fingerprint() ^ fnv1a(b"portfolio"),
        }
    }

    /// Whether this route runs the engine under the caller's engine
    /// settings, publishing progress and returning the whole search result.
    pub fn runs_engine(&self) -> bool {
        matches!(self, Route::Engine | Route::Single(BackendKind::AStar))
    }
}

/// Why a query got no answer. Its `Display` is the one wording the server's
/// error replies and the CLI's errors share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The request named a backend that does not exist.
    UnknownBackend(String),
    /// The backend cannot handle this query shape.
    Unsupported(BackendKind),
    /// A single backend's program failed the static verification gate.
    Refused(BackendKind, String),
    /// The budget ran out first.
    Timeout(Timeout),
    /// A resumed search could not start from its journal.
    Resume(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::UnknownBackend(name) => {
                let known: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
                let known = known.join(", ");
                write!(
                    f,
                    "unknown backend `{name}` (expected portfolio or one of: {known})"
                )
            }
            Failure::Unsupported(kind) => {
                write!(f, "backend `{}` does not support this query", kind.name())
            }
            Failure::Refused(kind, why) => {
                let kind = kind.name();
                write!(
                    f,
                    "backend `{kind}` produced a program the verifier refused: {why}"
                )
            }
            Failure::Timeout(t) => {
                let how = if t.cancelled { ", cancelled" } else { "" };
                write!(
                    f,
                    "timed out after {} ms ({} states generated{how})",
                    t.elapsed_ms, t.generated
                )
            }
            Failure::Resume(why) => f.write_str(why),
        }
    }
}

/// How far a route got before its budget ran out. Only routes that
/// [run the engine](Route::runs_engine) count states; the others report 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeout {
    /// States generated before the budget expired.
    pub generated: u64,
    /// States expanded before the budget expired.
    pub expanded: u64,
    /// Wall-clock milliseconds spent.
    pub elapsed_ms: u64,
    /// `true` if the budget was cancelled rather than timing out.
    pub cancelled: bool,
}

/// The service's `timeout` reply carries these keys next to its tag.
impl Serialize for Timeout {
    fn serialize(&self) -> Value {
        Value::map([
            ("generated", self.generated.serialize()),
            ("expanded", self.expanded.serialize()),
            ("elapsed_ms", self.elapsed_ms.serialize()),
            ("cancelled", self.cancelled.serialize()),
        ])
    }
}

impl Deserialize for Timeout {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(Timeout {
            generated: u64::deserialize(value.required("generated")?)?,
            expanded: u64::deserialize(value.required("expanded")?)?,
            elapsed_ms: u64::deserialize(value.required("elapsed_ms")?)?,
            cancelled: bool::deserialize(value.required("cancelled")?)?,
        })
    }
}

/// One answered query.
#[derive(Debug)]
pub struct Answer {
    /// Served from the kernel cache rather than computed.
    pub cached: bool,
    /// The kernel; `None` when the route completed without one.
    pub program: Option<Program>,
    /// Whether the producing run certifies length-minimality.
    pub minimal_certified: bool,
    /// Wall-clock milliseconds of the producing run (the original run's
    /// for cache hits).
    pub millis: u64,
    /// The named backend or race winner; `None` for the default engine
    /// route and for cache hits.
    pub backend: Option<BackendKind>,
    /// The engine's whole result (counters and solution DAG) when the
    /// route [runs it](Route::runs_engine); `None` otherwise.
    pub search: Option<SynthesisResult>,
}

impl Answer {
    fn computed(program: Option<Program>, minimal_certified: bool, millis: u64) -> Answer {
        Answer {
            cached: false,
            program,
            minimal_certified,
            millis,
            backend: None,
            search: None,
        }
    }

    fn from_cache(entry: &CacheEntry) -> Answer {
        let (program, minimal) = (Some(entry.program.clone()), entry.minimal_certified);
        Answer {
            cached: true,
            ..Answer::computed(program, minimal, entry.search_millis)
        }
    }
}

/// Race counters since the answerer was opened: races run, races with a
/// verified winner, and races whose policy-ranked first wave missed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaceTally {
    pub races: u64,
    pub wins: u64,
    pub widened: u64,
}

/// What the answer path keeps: the kernel cache, the learned dispatch table
/// (persisted next to a durable cache), and the roster raced for requests
/// that name no backend.
pub struct Answerer {
    cache: KernelCache,
    dir: Option<PathBuf>,
    policy: Mutex<(DispatchPolicy, RaceTally)>,
    roster: Option<Vec<BackendKind>>,
}

impl Answerer {
    /// Opens the cache in `dir` (in memory when `None`) and the dispatch
    /// table beside it. `roster` names the backends raced for requests that
    /// name none: `None` answers those on the engine route, and an empty
    /// list races every backend.
    pub fn open(
        dir: Option<&Path>,
        capacity: usize,
        roster: Option<&[String]>,
    ) -> io::Result<Self> {
        let names = roster.unwrap_or_default();
        if let Some(name) = names.iter().find(|name| BackendKind::parse(name).is_none()) {
            let failure = Failure::UnknownBackend(name.clone());
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                failure.to_string(),
            ));
        }
        let named = |kind: &BackendKind| names.is_empty() || names.iter().any(|n| n == kind.name());
        let (cache, policy) = match dir {
            Some(dir) => (
                KernelCache::open(dir, capacity)?,
                DispatchPolicy::load(&dir.join(POLICY_FILE)),
            ),
            None => (KernelCache::in_memory(capacity), DispatchPolicy::new()),
        };
        Ok(Answerer {
            cache,
            dir: dir.map(Path::to_path_buf),
            policy: Mutex::new((policy, RaceTally::default())),
            roster: roster.map(|_| BackendKind::ALL.into_iter().filter(named).collect()),
        })
    }

    /// The kernel cache.
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// The learned dispatch table's rows, and the race counters.
    pub fn policy(&self) -> (Vec<PolicyRow>, RaceTally) {
        let (policy, tally) = &*self.locked();
        (policy.rows(), *tally)
    }

    /// [`engine_config`] plus the sizing table beside a durable cache: the
    /// base each caller adds its engine settings to.
    pub fn engine_config(&self, query: &KernelQuery) -> SynthesisConfig {
        let mut cfg = engine_config(query);
        cfg.sizing_path = self.dir.as_ref().map(|dir| dir.join(SIZING_FILE));
        cfg
    }

    /// Resolves a request's backend name: none takes the default route,
    /// `portfolio` races the roster (every backend when there is none).
    pub fn route(&self, backend: Option<&str>) -> Result<Route, Failure> {
        let roster = self.roster.as_deref().unwrap_or(&BackendKind::ALL);
        match backend {
            None if self.roster.is_none() => Ok(Route::Engine),
            None | Some("portfolio") => Ok(Route::Race(roster.to_vec())),
            Some(name) => BackendKind::parse(name)
                .map(Route::Single)
                .ok_or_else(|| Failure::UnknownBackend(name.to_string())),
        }
    }

    /// The cached answer, if any: memory front, then one disk scan.
    pub fn cached(&self, query: &KernelQuery) -> Option<Answer> {
        self.cache.get(query).map(|e| Answer::from_cache(&e))
    }

    /// The cached answer if it is in the memory front; never scans the disk.
    pub fn resident(&self, query: &KernelQuery) -> Option<Answer> {
        self.cache.resident(query).map(|e| Answer::from_cache(&e))
    }

    /// Answers `query`: the cached answer, or else [`Self::run`] on the
    /// route `backend` names.
    pub fn answer(
        &self,
        query: &KernelQuery,
        backend: Option<&str>,
        engine: SynthesisConfig,
    ) -> Result<Answer, Failure> {
        match self.cached(query) {
            Some(answer) => Ok(answer),
            None => self.run(query, &self.route(backend)?, engine),
        }
    }

    /// Runs `route` on `query` and inserts the kernel it found into the
    /// cache. `engine` is the engine's configuration — the caller's
    /// settings on top of [`Self::engine_config`] — for every route that
    /// [runs it](Route::runs_engine), and its budget bounds every route.
    pub fn run(
        &self,
        query: &KernelQuery,
        route: &Route,
        engine: SynthesisConfig,
    ) -> Result<Answer, Failure> {
        let budget = &engine.budget;
        let mut answer = match route {
            Route::Race(kinds) => self.race(query, kinds, budget)?,
            Route::Single(kind) if !route.runs_engine() => {
                computed(backend_for(*kind).run(query, budget), None, budget)?
            }
            _ => {
                let (out, result) = search(&engine).map_err(|e| Failure::Resume(e.to_string()))?;
                let answer = computed(out, Some(&result.stats), budget)?;
                Answer {
                    search: Some(result),
                    ..answer
                }
            }
        };
        if let Route::Single(kind) = route {
            // A race gates its winner; a named arm is gated here, so an
            // unverifiable program is never served.
            if let Some(program) = &answer.program {
                sortsynth_verify::gate(&query.machine(), program)
                    .map_err(|e| Failure::Refused(*kind, e.to_string()))?;
            }
            answer.backend = Some(*kind);
        }
        if let Some(program) = &answer.program {
            // A failed insert (a full disk) does not withhold the answer.
            let _ = self.cache.insert(CacheEntry {
                query: query.clone(),
                program: program.clone(),
                minimal_certified: answer.minimal_certified,
                search_millis: answer.millis,
                gate_checksum: None,
            });
        }
        Ok(answer)
    }

    /// Races `kinds`, then records the race into the dispatch table and
    /// persists it.
    fn race(
        &self,
        query: &KernelQuery,
        kinds: &[BackendKind],
        budget: &SearchBudget,
    ) -> Result<Answer, Failure> {
        // Race against a snapshot so arms never block on the policy lock.
        let (snapshot, _) = self.locked().clone();
        let report = Portfolio::from_kinds(kinds).run(query, budget, Some(&snapshot));
        {
            let (policy, tally) = &mut *self.locked();
            policy.record(query, &report);
            tally.races += 1;
            tally.wins += u64::from(report.winner.is_some());
            tally.widened += u64::from(report.widened);
            if let Some(dir) = &self.dir {
                // Best-effort: a full disk must not fail the request whose
                // answer is already in hand.
                let _ = policy.save(&dir.join(POLICY_FILE));
            }
        }
        if report.winner.is_none() && budget.is_exhausted() {
            return Err(timeout(report.elapsed, None, budget));
        }
        // With no winner, every arm completed without a program: a genuine
        // (exact-arm) no-program answer for the query's bounds.
        let millis = report.elapsed.as_millis() as u64;
        Ok(Answer {
            backend: report.winner,
            ..Answer::computed(report.program, report.minimal_certified, millis)
        })
    }

    fn locked(&self) -> MutexGuard<'_, (DispatchPolicy, RaceTally)> {
        self.policy.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The answer one backend run amounts to; `stats` are the engine route's
/// counters for a timeout.
fn computed(
    out: BackendOutcome,
    stats: Option<&SearchStats>,
    budget: &SearchBudget,
) -> Result<Answer, Failure> {
    let millis = out.elapsed.as_millis() as u64;
    match out.status {
        BackendStatus::Found {
            program,
            minimal_certified,
        } => Ok(Answer::computed(Some(program), minimal_certified, millis)),
        BackendStatus::NoProgram => Ok(Answer::computed(None, false, millis)),
        BackendStatus::Budget => Err(timeout(out.elapsed, stats, budget)),
        BackendStatus::Unsupported => Err(Failure::Unsupported(out.kind)),
    }
}

fn timeout(elapsed: Duration, stats: Option<&SearchStats>, budget: &SearchBudget) -> Failure {
    Failure::Timeout(Timeout {
        generated: stats.map_or(0, |s| s.generated),
        expanded: stats.map_or(0, |s| s.expanded),
        elapsed_ms: elapsed.as_millis() as u64,
        cancelled: budget.is_cancelled(),
    })
}
