//! Live search progress: a throttled callback hook plus structured trace
//! events, so a running search can be watched without waiting for
//! [`crate::SearchStats`] at the end.
//!
//! The snapshot type is [`SearchProgress`], the one progress schema shared
//! with the flight recorder and the service's `watch` stream. Emission is
//! throttled by expansion count (see
//! [`crate::SynthesisConfig::progress_every`]).

use std::fmt;
use std::sync::Arc;

pub use sortsynth_obs::progress::SearchProgress;

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
    use sortsynth_obs::progress::COLUMNS;
    use sortsynth_obs::{FieldValue, Level};

    if let Some(hook) = hook {
        hook.call(snapshot);
    }
    if sortsynth_obs::enabled() {
        let mut fields: Vec<_> = COLUMNS
            .iter()
            .filter_map(|col| Some((col.name, FieldValue::U64((col.get)(snapshot)?))))
            .collect();
        fields.extend([
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
        ]);
        if let Some(outcome) = &snapshot.outcome {
            fields.push(("outcome", FieldValue::Str(outcome.clone())));
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
            finished: true,
            outcome: Some("Exhausted".into()),
            ..SearchProgress::default()
        };
        hook.clone().call(&snapshot);
        hook.call(&snapshot);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(format!("{hook:?}"), "ProgressHook(..)");
    }
}
