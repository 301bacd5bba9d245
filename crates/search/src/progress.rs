//! Live search progress: a throttled callback hook plus structured trace
//! events, so a running search can be watched without waiting for
//! [`crate::SearchStats`] at the end.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::engine::Outcome;

/// A snapshot of a running (or just-finished) search, delivered to the
/// [`ProgressHook`] and mirrored as a `search_progress` trace event.
///
/// Emission is throttled by expansion count (see
/// [`crate::SynthesisConfig::progress_every`]); a final snapshot with
/// `finished = true` is always delivered regardless of the throttle — even
/// for cancelled searches — so the last event's `expanded` always equals the
/// run's [`crate::SearchStats::expanded`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchProgress {
    /// Wall-clock time since the search started.
    pub elapsed: Duration,
    /// States whose successors have been explored so far.
    pub expanded: u64,
    /// States produced by applying instructions so far.
    pub generated: u64,
    /// Open (not yet expanded) states at the time of the snapshot.
    pub open: u64,
    /// Current frontier bound: the layer depth in layered mode, the `f`
    /// value of the most recently popped entry in A* mode. `None` before
    /// the first expansion.
    pub f_bound: Option<u64>,
    /// Successors dropped by the viability checks so far.
    pub viability_pruned: u64,
    /// Successors dropped by the permutation-count cut so far.
    pub cut_pruned: u64,
    /// Successors dropped as duplicates so far.
    pub dedup_hits: u64,
    /// Successors skipped by the dead-write cut so far.
    pub dead_write_pruned: u64,
    /// Successors skipped by the symbolic value-flow cut so far.
    pub value_flow_pruned: u64,
    /// Whether this run fell back to degraded pruning because the machine
    /// exceeds the distance table's limits.
    pub distance_table_skipped: bool,
    /// Open states whose assignment spans were spilled to disk so far.
    pub spilled_open: u64,
    /// Closed-set entries evicted to disk segments so far.
    pub spilled_closed: u64,
    /// Duplicates caught by delayed duplicate detection against spilled
    /// closed segments so far.
    pub ddd_dedup_hits: u64,
    /// Frontier states restored from a resume journal (0 for fresh runs).
    pub resumed_frontier_states: u64,
    /// Estimated bytes of resident (in-memory) search state.
    pub resident_bytes: u64,
    /// Bytes written to spill segments so far.
    pub spilled_bytes: u64,
    /// `true` exactly once, on the final snapshot of the run.
    pub finished: bool,
    /// How the run ended; only set when `finished`.
    pub outcome: Option<Outcome>,
    /// Per-shard memory state at snapshot time: one entry per parallel
    /// worker shard, or a single entry for the single-shard driver. These are
    /// live values — their running maxima are the high-water marks the
    /// flight recorder exists to capture.
    pub shards: Vec<ShardProgress>,
}

/// One shard's memory/backlog state inside a [`SearchProgress`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardProgress {
    /// Unique canonical states interned into this shard's arena.
    pub interned_states: u64,
    /// Bytes of assignment storage held by this shard's arena.
    pub arena_bytes: u64,
    /// This shard's open-list depth.
    pub open_depth: u64,
}

impl SearchProgress {
    /// Total interned states across shards.
    pub fn interned_states(&self) -> u64 {
        self.shards.iter().map(|s| s.interned_states).sum()
    }

    /// Total arena bytes across shards.
    pub fn arena_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.arena_bytes).sum()
    }

    /// Converts this snapshot into a flight-recorder frame (`seq` is
    /// assigned by the recorder at append time).
    pub fn recorder_frame(&self) -> sortsynth_obs::recorder::Frame {
        sortsynth_obs::recorder::Frame {
            seq: 0,
            elapsed_micros: self.elapsed.as_micros() as u64,
            expanded: self.expanded,
            generated: self.generated,
            open: self.open,
            f_bound: self.f_bound,
            viability_pruned: self.viability_pruned,
            cut_pruned: self.cut_pruned,
            dedup_hits: self.dedup_hits,
            dead_write_pruned: self.dead_write_pruned,
            value_flow_pruned: self.value_flow_pruned,
            distance_table_skipped: self.distance_table_skipped,
            spilled_open: self.spilled_open,
            spilled_closed: self.spilled_closed,
            ddd_dedup_hits: self.ddd_dedup_hits,
            resumed_frontier_states: self.resumed_frontier_states,
            resident_bytes: self.resident_bytes,
            spilled_bytes: self.spilled_bytes,
            finished: self.finished,
            outcome: self.outcome.map(|o| format!("{o:?}")),
            shards: self
                .shards
                .iter()
                .map(|s| sortsynth_obs::recorder::ShardFrame {
                    interned_states: s.interned_states,
                    arena_bytes: s.arena_bytes,
                    open_depth: s.open_depth,
                })
                .collect(),
        }
    }
}

/// A callback receiving [`SearchProgress`] snapshots mid-search.
///
/// Wrapped in an `Arc` so [`crate::SynthesisConfig`] stays `Clone`; the
/// manual [`Debug`] keeps the config's derive working over the closure.
#[derive(Clone)]
pub struct ProgressHook(Arc<dyn Fn(&SearchProgress) + Send + Sync>);

impl ProgressHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&SearchProgress) + Send + Sync + 'static) -> Self {
        ProgressHook(Arc::new(f))
    }

    /// Delivers one snapshot.
    pub fn call(&self, progress: &SearchProgress) {
        (self.0)(progress);
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Whether snapshot delivery would reach any consumer: skip building
/// snapshots entirely when neither a hook nor tracing is active.
pub(crate) fn delivery_active(hook: Option<&ProgressHook>) -> bool {
    hook.is_some() || sortsynth_obs::enabled()
}

/// Delivers one snapshot to the hook (if any) and, when tracing is active,
/// mirrors it as a `search_progress` trace event.
pub(crate) fn deliver(hook: Option<&ProgressHook>, snapshot: &SearchProgress) {
    use sortsynth_obs::{FieldValue, Level};

    if let Some(hook) = hook {
        hook.call(snapshot);
    }
    if sortsynth_obs::enabled() {
        let mut fields = vec![
            ("expanded", FieldValue::U64(snapshot.expanded)),
            ("generated", FieldValue::U64(snapshot.generated)),
            ("open", FieldValue::U64(snapshot.open)),
            (
                "viability_pruned",
                FieldValue::U64(snapshot.viability_pruned),
            ),
            ("cut_pruned", FieldValue::U64(snapshot.cut_pruned)),
            ("dedup_hits", FieldValue::U64(snapshot.dedup_hits)),
            (
                "dead_write_pruned",
                FieldValue::U64(snapshot.dead_write_pruned),
            ),
            (
                "value_flow_pruned",
                FieldValue::U64(snapshot.value_flow_pruned),
            ),
            (
                "distance_table_skipped",
                FieldValue::Bool(snapshot.distance_table_skipped),
            ),
            (
                "interned_states",
                FieldValue::U64(snapshot.interned_states()),
            ),
            ("arena_bytes", FieldValue::U64(snapshot.arena_bytes())),
            ("finished", FieldValue::Bool(snapshot.finished)),
        ];
        if let Some(f) = snapshot.f_bound {
            fields.push(("f_bound", FieldValue::U64(f)));
        }
        if let Some(outcome) = snapshot.outcome {
            fields.push(("outcome", FieldValue::Str(format!("{outcome:?}"))));
        }
        sortsynth_obs::trace::event(Level::Debug, "search_progress", &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hook_is_callable_and_cloneable() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let hook = ProgressHook::new(move |p| {
            assert!(p.finished);
            c.fetch_add(1, Ordering::Relaxed);
        });
        let snapshot = SearchProgress {
            elapsed: Duration::ZERO,
            expanded: 0,
            generated: 0,
            open: 0,
            f_bound: None,
            viability_pruned: 0,
            cut_pruned: 0,
            dedup_hits: 0,
            dead_write_pruned: 0,
            value_flow_pruned: 0,
            distance_table_skipped: false,
            spilled_open: 0,
            spilled_closed: 0,
            ddd_dedup_hits: 0,
            resumed_frontier_states: 0,
            resident_bytes: 0,
            spilled_bytes: 0,
            finished: true,
            outcome: Some(Outcome::Exhausted),
            shards: vec![ShardProgress {
                interned_states: 10,
                arena_bytes: 640,
                open_depth: 3,
            }],
        };
        hook.clone().call(&snapshot);
        hook.call(&snapshot);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(format!("{hook:?}"), "ProgressHook(..)");
    }

    #[test]
    fn recorder_frame_mirrors_the_snapshot() {
        let snapshot = SearchProgress {
            elapsed: Duration::from_micros(1234),
            expanded: 7,
            generated: 21,
            open: 4,
            f_bound: Some(5),
            viability_pruned: 1,
            cut_pruned: 2,
            dedup_hits: 3,
            dead_write_pruned: 4,
            value_flow_pruned: 5,
            distance_table_skipped: true,
            spilled_open: 11,
            spilled_closed: 12,
            ddd_dedup_hits: 13,
            resumed_frontier_states: 14,
            resident_bytes: 1500,
            spilled_bytes: 1600,
            finished: true,
            outcome: Some(Outcome::Solved),
            shards: vec![
                ShardProgress {
                    interned_states: 6,
                    arena_bytes: 384,
                    open_depth: 2,
                },
                ShardProgress {
                    interned_states: 4,
                    arena_bytes: 256,
                    open_depth: 2,
                },
            ],
        };
        assert_eq!(snapshot.interned_states(), 10);
        assert_eq!(snapshot.arena_bytes(), 640);
        let frame = snapshot.recorder_frame();
        assert_eq!(frame.elapsed_micros, 1234);
        assert_eq!(frame.expanded, 7);
        assert_eq!(frame.f_bound, Some(5));
        assert!(frame.distance_table_skipped && frame.finished);
        assert_eq!(frame.spilled_open, 11);
        assert_eq!(frame.resident_bytes, 1500);
        assert_eq!(frame.spilled_bytes, 1600);
        assert_eq!(frame.outcome.as_deref(), Some("Solved"));
        assert_eq!(frame.shards.len(), 2);
        assert_eq!(frame.shards[0].arena_bytes, 384);
    }
}
