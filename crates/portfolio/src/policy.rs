//! The learned dispatch policy: a per-query-shape win-rate table.
//!
//! Every race records which arm won, which arms completed without winning,
//! and which were cancelled, keyed by the query's *shape* — `(n, scratch,
//! mode)`, the parameters that determine an engine's relative strength
//! (length bounds and cut toggles change how long a search takes, not
//! which engine family wins). The table persists as JSON next to the
//! kernel cache ([`POLICY_FILE`]), so a restarted service keeps its
//! routing knowledge.
//!
//! The executor consumes the table through [`DispatchPolicy::waves`]: arms
//! with recorded wins for the shape race first (best win count, then
//! fastest), everything else is held back for the widen-on-miss second
//! wave. Shapes with no history race every arm — the policy only ever
//! narrows where it has evidence.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde::{Deserialize, Error, Serialize, Value};
use sortsynth_cache::KernelQuery;

use crate::backend::{BackendKind, BackendStatus};
use crate::executor::RaceReport;

/// File name of the persisted policy, placed alongside the kernel cache.
pub const POLICY_FILE: &str = "portfolio_policy.json";

/// Per-(shape, arm) tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ArmStats {
    wins: u64,
    losses: u64,
    cancelled: u64,
    total_millis: u64,
}

/// One row of the dispatch table, for the `stats` verb and the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRow {
    /// The query shape, canonically `n/scratch/mode` (e.g. `3/1/cmov`).
    pub shape: String,
    /// The backend's [`BackendKind::name`].
    pub backend: String,
    /// Races this arm won for the shape.
    pub wins: u64,
    /// Races this arm completed without winning.
    pub losses: u64,
    /// Races this arm was cancelled in.
    pub cancelled: u64,
    /// Total wall-clock milliseconds this arm spent on the shape.
    pub total_millis: u64,
}

/// The win-rate table. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchPolicy {
    shapes: BTreeMap<String, BTreeMap<String, ArmStats>>,
}

/// The canonical shape key of a query.
fn shape_key(query: &KernelQuery) -> String {
    format!("{}/{}/{}", query.n, query.scratch, query.mode.wire_name())
}

impl DispatchPolicy {
    /// An empty table.
    pub fn new() -> DispatchPolicy {
        DispatchPolicy::default()
    }

    /// Loads the table from `path`. A missing or unreadable file yields an
    /// empty table — routing knowledge is an optimization, never a
    /// precondition.
    pub fn load(path: &Path) -> DispatchPolicy {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_default()
    }

    /// Persists the table to `path` (write-then-rename for atomicity).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        let text = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }

    /// Folds one race's outcomes into the table.
    pub fn record(&mut self, query: &KernelQuery, report: &RaceReport) {
        let shape = self.shapes.entry(shape_key(query)).or_default();
        for out in &report.outcomes {
            let arm = shape.entry(out.kind.name().to_string()).or_default();
            arm.total_millis += out.elapsed.as_millis() as u64;
            if report.winner == Some(out.kind) {
                arm.wins += 1;
            } else {
                match out.status {
                    BackendStatus::Found { .. } | BackendStatus::NoProgram => arm.losses += 1,
                    BackendStatus::Budget => arm.cancelled += 1,
                    BackendStatus::Unsupported => {}
                }
            }
        }
    }

    /// Splits `kinds` into the policy-ranked first wave (at most
    /// `first_wave` arms with recorded wins for this shape, best win count
    /// first, total time as tie-break) and the widen-on-miss rest. With no
    /// recorded wins the first wave is all of `kinds`.
    pub fn waves(
        &self,
        query: &KernelQuery,
        kinds: &[BackendKind],
        first_wave: usize,
    ) -> (Vec<BackendKind>, Vec<BackendKind>) {
        let Some(shape) = self.shapes.get(&shape_key(query)) else {
            return (kinds.to_vec(), Vec::new());
        };
        let mut ranked: Vec<(BackendKind, &ArmStats)> = kinds
            .iter()
            .filter_map(|&k| {
                shape
                    .get(k.name())
                    .filter(|stats| stats.wins > 0)
                    .map(|stats| (k, stats))
            })
            .collect();
        if ranked.is_empty() {
            return (kinds.to_vec(), Vec::new());
        }
        ranked.sort_by(|(_, a), (_, b)| {
            b.wins
                .cmp(&a.wins)
                .then(a.total_millis.cmp(&b.total_millis))
        });
        let first: Vec<BackendKind> = ranked
            .into_iter()
            .take(first_wave.max(1))
            .map(|(k, _)| k)
            .collect();
        let rest: Vec<BackendKind> = kinds
            .iter()
            .copied()
            .filter(|k| !first.contains(k))
            .collect();
        (first, rest)
    }

    /// The table flattened to rows, sorted by shape then backend.
    pub fn rows(&self) -> Vec<PolicyRow> {
        self.shapes
            .iter()
            .flat_map(|(shape, arms)| {
                arms.iter().map(move |(backend, stats)| PolicyRow {
                    shape: shape.clone(),
                    backend: backend.clone(),
                    wins: stats.wins,
                    losses: stats.losses,
                    cancelled: stats.cancelled,
                    total_millis: stats.total_millis,
                })
            })
            .collect()
    }

    /// Whether the table has no recorded races.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }
}

impl Serialize for PolicyRow {
    fn serialize(&self) -> Value {
        Value::map([
            ("shape", self.shape.serialize()),
            ("backend", self.backend.serialize()),
            ("wins", self.wins.serialize()),
            ("losses", self.losses.serialize()),
            ("cancelled", self.cancelled.serialize()),
            ("total_millis", self.total_millis.serialize()),
        ])
    }
}

impl Deserialize for PolicyRow {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(PolicyRow {
            shape: String::deserialize(value.required("shape")?)?,
            backend: String::deserialize(value.required("backend")?)?,
            wins: u64::deserialize(value.required("wins")?)?,
            losses: u64::deserialize(value.required("losses")?)?,
            cancelled: u64::deserialize(value.required("cancelled")?)?,
            total_millis: u64::deserialize(value.required("total_millis")?)?,
        })
    }
}

impl Serialize for DispatchPolicy {
    fn serialize(&self) -> Value {
        Value::map([("rows", self.rows().serialize())])
    }
}

impl Deserialize for DispatchPolicy {
    /// Rows naming an arm outside [`BackendKind::ALL`] (one since retired)
    /// are dropped: no race can run that arm again.
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let rows = Vec::<PolicyRow>::deserialize(value.required("rows")?)?;
        let mut policy = DispatchPolicy::new();
        for row in rows
            .into_iter()
            .filter(|row| BackendKind::parse(&row.backend).is_some())
        {
            policy.shapes.entry(row.shape).or_default().insert(
                row.backend,
                ArmStats {
                    wins: row.wins,
                    losses: row.losses,
                    cancelled: row.cancelled,
                    total_millis: row.total_millis,
                },
            );
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendOutcome;
    use sortsynth_isa::IsaMode;
    use std::time::Duration;

    fn report(winner: BackendKind, losers: &[BackendKind]) -> RaceReport {
        let mut outcomes = vec![BackendOutcome {
            kind: winner,
            status: BackendStatus::Found {
                program: Vec::new(),
                minimal_certified: true,
            },
            elapsed: Duration::from_millis(5),
        }];
        outcomes.extend(losers.iter().map(|&kind| BackendOutcome {
            kind,
            status: BackendStatus::Budget,
            elapsed: Duration::from_millis(9),
        }));
        RaceReport {
            winner: Some(winner),
            program: None,
            found_len: Some(4),
            minimal_certified: true,
            outcomes,
            verify_rejected: 0,
            widened: false,
            elapsed: Duration::from_millis(9),
        }
    }

    #[test]
    fn record_then_waves_narrows_to_the_winner() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        let mut policy = DispatchPolicy::new();
        let kinds = [BackendKind::AStar, BackendKind::Cegis, BackendKind::Mcts];

        // No history: everything races.
        let (first, rest) = policy.waves(&query, &kinds, 2);
        assert_eq!(first.len(), 3);
        assert!(rest.is_empty());

        policy.record(&query, &report(BackendKind::AStar, &[BackendKind::Cegis]));
        let (first, rest) = policy.waves(&query, &kinds, 2);
        assert_eq!(first, vec![BackendKind::AStar]);
        assert_eq!(rest, vec![BackendKind::Cegis, BackendKind::Mcts]);

        // A different shape still races everything.
        let other = KernelQuery::best(3, 1, IsaMode::MinMax);
        let (first, rest) = policy.waves(&other, &kinds, 2);
        assert_eq!(first.len(), 3);
        assert!(rest.is_empty());
    }

    #[test]
    fn json_round_trip_via_disk() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        let mut policy = DispatchPolicy::new();
        policy.record(&query, &report(BackendKind::SmtMin, &[BackendKind::Stoke]));
        let dir = std::env::temp_dir().join("sortsynth-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(POLICY_FILE);
        policy.save(&path).unwrap();
        let loaded = DispatchPolicy::load(&path);
        assert_eq!(policy, loaded);
        assert_eq!(loaded.rows().len(), 2);
        let _ = std::fs::remove_file(&path);

        // Missing file: empty table, no error.
        assert!(DispatchPolicy::load(&dir.join("absent.json")).is_empty());
    }
}
