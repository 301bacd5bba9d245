//! Well-known metric families shared across the sortsynth crates.
//!
//! Every family is declared once, in the [`FAMILIES`] table below: its
//! name, kind, and help text. Instrumented code gets handles by name
//! ([`counter`], [`gauge`], [`histogram`]) and the help text comes from the
//! table, so the exposition's `# HELP` line does not depend on which site
//! registers a family first. The service calls [`register_well_known`] at
//! startup so the exposition always contains every family — a scraper sees
//! `sortsynth_requests_total 0` rather than a missing series before the
//! first request arrives.

use std::sync::Arc;

use crate::metrics::{registry, Counter, Gauge, Histogram, LATENCY_BUCKETS};

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing counter.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A latency histogram over [`LATENCY_BUCKETS`].
    Histogram,
}

/// One metric family: its name, kind, and help text.
#[derive(Debug, Clone, Copy)]
pub struct FamilyDef {
    /// The exposition name.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: Kind,
    /// The `# HELP` text.
    pub help: &'static str,
}

/// Declares the family table: one documented `pub const NAME: &str` per
/// row, the [`FAMILIES`] slice, and the by-name lookup [`family`].
macro_rules! families {
    ($( $konst:ident = $name:literal, $kind:ident, $help:literal; )*) => {
        $( #[doc = $help] pub const $konst: &str = $name; )*

        /// Every well-known family, in declaration order.
        pub const FAMILIES: &[FamilyDef] = &[$(
            FamilyDef { name: $name, kind: Kind::$kind, help: $help },
        )*];

        /// The declared family called `name`, if any.
        pub fn family(name: &str) -> Option<&'static FamilyDef> {
            match name {
                $( $name => Some(&FamilyDef { name: $name, kind: Kind::$kind, help: $help }), )*
                _ => None,
            }
        }
    };
}

families! {
    // --- request / service ---
    REQUESTS_TOTAL = "sortsynth_requests_total", Counter,
        "Requests accepted into the admission queue.";
    REQUESTS_SHED_TOTAL = "sortsynth_requests_shed_total", Counter,
        "Requests shed because the admission queue was full.";
    REQUEST_SECONDS = "sortsynth_request_seconds", Histogram,
        "End-to-end request latency in seconds.";
    QUEUE_DEPTH = "sortsynth_queue_depth", Gauge,
        "Jobs currently waiting in the admission queue.";
    INFLIGHT_REQUESTS = "sortsynth_inflight_requests", Gauge,
        "Jobs currently executing on workers.";
    WORKER_PANICS_TOTAL = "sortsynth_worker_panics_total", Counter,
        "Worker panics caught and converted to error replies.";
    SINGLEFLIGHT_COALESCED_TOTAL = "sortsynth_singleflight_coalesced_total", Counter,
        "Requests coalesced onto an identical in-flight search.";
    SEARCHES_STARTED_TOTAL = "sortsynth_searches_started_total", Counter,
        "Searches started by single-flight leaders.";

    // --- cache ---
    CACHE_MEMORY_HITS_TOTAL = "sortsynth_cache_memory_hits_total", Counter,
        "In-memory cache hits.";
    CACHE_DISK_HITS_TOTAL = "sortsynth_cache_disk_hits_total", Counter,
        "Disk-log hits promoted into memory.";
    CACHE_MISSES_TOTAL = "sortsynth_cache_misses_total", Counter,
        "Lookups that missed both cache tiers.";
    CACHE_INSERTIONS_TOTAL = "sortsynth_cache_insertions_total", Counter,
        "Cache entries inserted.";
    CACHE_EVICTIONS_TOTAL = "sortsynth_cache_evictions_total", Counter,
        "Entries evicted from the in-memory LRU.";
    CACHE_VERIFY_REJECTED_TOTAL = "sortsynth_cache_verify_rejected_total", Counter,
        "Disk entries rejected by the verification gate.";
    CACHE_DISK_PROMOTION_SECONDS = "sortsynth_cache_disk_promotion_seconds", Histogram,
        "Disk-log scan latency on memory miss, in seconds.";

    // --- verification ---
    VERIFY_SYMBOLIC_CERTIFIED_TOTAL = "sortsynth_verify_symbolic_certified_total", Counter,
        "Gate admissions decided by a symbolic permutation certificate.";
    VERIFY_SYMBOLIC_REFUTED_TOTAL = "sortsynth_verify_symbolic_refuted_total", Counter,
        "Gate rejections decided by a symbolic permutation refutation.";
    VERIFY_SYMBOLIC_BAILOUT_TOTAL = "sortsynth_verify_symbolic_bailout_total", Counter,
        "Symbolic analyses that exceeded their budget inside the gate.";
    VERIFY_ORACLE_TOTAL = "sortsynth_verify_oracle_total", Counter,
        "Gate decisions that fell back to the exhaustive permutation oracle.";
    VERIFY_GATE_SKIPPED_TOTAL = "sortsynth_verify_gate_skipped_total", Counter,
        "Cache recoveries that skipped re-verification via a valid checksum stamp.";
    VERIFY_GATE_SECONDS = "sortsynth_verify_gate_seconds", Histogram,
        "End-to-end verification-gate latency in seconds.";

    // --- search ---
    SEARCH_RUNS_TOTAL = "sortsynth_search_runs_total", Counter,
        "Search engine runs completed (any outcome).";
    SEARCH_EXPANDED_TOTAL = "sortsynth_search_expanded_total", Counter,
        "States expanded across all searches.";
    SEARCH_GENERATED_TOTAL = "sortsynth_search_generated_total", Counter,
        "States generated across all searches.";
    SEARCH_CANCELLED_TOTAL = "sortsynth_search_cancelled_total", Counter,
        "Searches cancelled via SearchBudget.";
    SEARCH_DEAD_WRITE_PRUNED_TOTAL = "sortsynth_search_dead_write_pruned_total", Counter,
        "States pruned by the dead-write cut.";
    SEARCH_VALUE_FLOW_PRUNED_TOTAL = "sortsynth_search_value_flow_pruned_total", Counter,
        "States pruned by the value-flow cut.";
    SEARCH_DISTANCE_TABLE_SKIPPED_TOTAL = "sortsynth_search_distance_table_skipped_total", Counter,
        "Heuristic lookups that skipped the distance table.";
    SEARCH_CUT_PRUNED_TOTAL = "sortsynth_search_cut_pruned_total", Counter,
        "States pruned by cost-bound cuts.";
    SEARCH_VIABILITY_PRUNED_TOTAL = "sortsynth_search_viability_pruned_total", Counter,
        "States pruned by the viability filter.";
    SEARCH_DEDUP_HITS_TOTAL = "sortsynth_search_dedup_hits_total", Counter,
        "Duplicate states dropped by the closed set.";
    SEARCH_PARALLEL_RUNS_TOTAL = "sortsynth_search_parallel_runs_total", Counter,
        "Search runs executed by the parallel layered engine.";
    SEARCH_ROUTED_TOTAL = "sortsynth_search_routed_total", Counter,
        "Successors handed to another worker's key partition.";
    SEARCH_INTERNED_STATES_TOTAL = "sortsynth_search_interned_states_total", Counter,
        "Unique canonical states interned into search arenas.";
    SEARCH_SCRATCH_REUSED_TOTAL = "sortsynth_search_scratch_reused_total", Counter,
        "Expansions served from already-reserved scratch capacity.";
    SEARCH_STALE_POPS_TOTAL = "sortsynth_search_stale_pops_total", Counter,
        "Open entries discarded at pop as stale (reopened or bound-overtaken).";
    SEARCH_BUCKET_SCANS_TOTAL = "sortsynth_search_bucket_scans_total", Counter,
        "Empty-bucket cursor scans performed by bucketed open lists.";
    SEARCH_SWAR_BATCHES_TOTAL = "sortsynth_search_swar_batches_total", Counter,
        "Stepping passes of up to 8 assignments taken by span expansion.";
    SEARCH_ARENA_BYTES = "sortsynth_search_arena_bytes", Gauge,
        "Assignment bytes held by the last run's state arena(s).";
    SEARCH_RESIDENT_BYTES = "sortsynth_search_resident_bytes", Gauge,
        "Estimated resident search-bookkeeping bytes of the last run.";
    SEARCH_SPILLED_BYTES = "sortsynth_search_spilled_bytes", Gauge,
        "Bytes held in external-memory spill segments by the last run.";
    SEARCH_SPILL_SEGMENTS = "sortsynth_search_spill_segments", Gauge,
        "Spill segment files held by the last run.";
    SEARCH_SPILLED_OPEN_TOTAL = "sortsynth_search_spilled_open_total", Counter,
        "Frontier states spilled to disk segments.";
    SEARCH_SPILLED_CLOSED_TOTAL = "sortsynth_search_spilled_closed_total", Counter,
        "Closed-set entries evicted to sorted disk segments.";
    SEARCH_DDD_DEDUP_HITS_TOTAL = "sortsynth_search_ddd_dedup_hits_total", Counter,
        "Duplicates caught by delayed duplicate detection.";
    SEARCH_RESUMED_FRONTIER_TOTAL = "sortsynth_search_resumed_frontier_total", Counter,
        "Frontier states restored from resume journals.";
    SEARCH_SPILL_WRITE_SECONDS = "sortsynth_search_spill_write_seconds", Histogram,
        "Spill segment write latency in seconds.";
    SEARCH_SPILL_READ_SECONDS = "sortsynth_search_spill_read_seconds", Histogram,
        "Spill segment read latency in seconds.";

    // --- portfolio ---
    PORTFOLIO_RACES_TOTAL = "sortsynth_portfolio_races_total", Counter,
        "Portfolio races executed (one per query reaching the executor).";
    PORTFOLIO_WIN_TOTAL = "sortsynth_portfolio_win_total", Counter,
        "Races that produced a verify-gated winner.";
    PORTFOLIO_LOSS_TOTAL = "sortsynth_portfolio_loss_total", Counter,
        "Arms that completed a solution but lost the race.";
    PORTFOLIO_CANCELLED_TOTAL = "sortsynth_portfolio_cancelled_total", Counter,
        "Arms stopped early by race cancellation.";
    PORTFOLIO_VERIFY_REJECTED_TOTAL = "sortsynth_portfolio_verify_rejected_total", Counter,
        "Candidate winners rejected by the static verification gate.";
    PORTFOLIO_WIDENED_TOTAL = "sortsynth_portfolio_widened_total", Counter,
        "Races whose first wave missed and widened to the remaining arms.";
    PORTFOLIO_TTFS_SECONDS = "sortsynth_portfolio_ttfs_seconds", Histogram,
        "Time from race start to the first verified solution, in seconds.";

    // --- introspection ---
    RECORDER_FRAMES_TOTAL = "sortsynth_recorder_frames_total", Counter,
        "Flight-recorder frames appended.";
    RECORDER_BYTES_TOTAL = "sortsynth_recorder_bytes_total", Counter,
        "Flight-recorder bytes written.";
    RECORDER_ROTATIONS_TOTAL = "sortsynth_recorder_rotations_total", Counter,
        "Flight-recorder segment rotations.";
    WATCH_STREAMS_TOTAL = "sortsynth_watch_streams_total", Counter,
        "Watch streams opened against in-flight searches.";
    WATCH_FRAMES_TOTAL = "sortsynth_watch_frames_total", Counter,
        "Progress frames delivered to watch subscribers.";

    // --- SAT / CEGIS ---
    SAT_CONFLICTS_TOTAL = "sortsynth_sat_conflicts_total", Counter,
        "CDCL conflicts across all solver runs.";
    SAT_RESTARTS_TOTAL = "sortsynth_sat_restarts_total", Counter,
        "CDCL restarts across all solver runs.";
    SAT_LEARNED_CLAUSES_TOTAL = "sortsynth_sat_learned_clauses_total", Counter,
        "Clauses learned across all solver runs.";
    CEGIS_ITERATIONS_TOTAL = "sortsynth_cegis_iterations_total", Counter,
        "CEGIS refinement iterations across all synthesis calls.";
}

/// The declared family `name`, checked to be of `kind`. Panics otherwise:
/// an undeclared or mistyped family is a programming error, not a runtime
/// condition.
fn declared(name: &str, kind: Kind) -> &'static FamilyDef {
    match family(name) {
        Some(f) if f.kind == kind => f,
        Some(f) => panic!("metric `{name}` is declared as a {:?}", f.kind),
        None => panic!("metric `{name}` is not a declared family"),
    }
}

/// The declared counter `name` (registered on first use).
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name, declared(name, Kind::Counter).help)
}

/// The declared gauge `name` (registered on first use).
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name, declared(name, Kind::Gauge).help)
}

/// The declared latency histogram `name` (registered on first use).
pub fn histogram(name: &str) -> Arc<Histogram> {
    let help = declared(name, Kind::Histogram).help;
    registry().histogram(name, help, LATENCY_BUCKETS)
}

/// Publishes one run's total to the declared family `name`: a counter
/// adds `value`, a gauge is set to it.
pub fn publish(name: &str, value: u64) {
    match family(name).map(|f| f.kind) {
        Some(Kind::Gauge) => gauge(name).set(value as i64),
        _ => counter(name).add(value),
    }
}

/// Registers every well-known family in the default registry so the
/// Prometheus exposition is complete from the first scrape. Idempotent.
pub fn register_well_known() {
    for f in FAMILIES {
        match f.kind {
            Kind::Counter => drop(counter(f.name)),
            Kind::Gauge => drop(gauge(f.name)),
            Kind::Histogram => drop(histogram(f.name)),
        }
    }
    crate::profile::register_phase_counters();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names are unique: the by-name lookup finds every row as declared.
    #[test]
    fn every_family_is_found_by_name() {
        for f in FAMILIES {
            let found = family(f.name).expect("declared");
            assert_eq!((found.kind, found.help), (f.kind, f.help), "{}", f.name);
        }
        assert!(family("sortsynth_undeclared_total").is_none());
    }

    #[test]
    fn well_known_families_appear_in_exposition() {
        register_well_known();
        register_well_known(); // idempotent
        let text = registry().render_prometheus();
        for name in [
            REQUESTS_TOTAL,
            REQUEST_SECONDS,
            QUEUE_DEPTH,
            CACHE_MISSES_TOTAL,
            VERIFY_SYMBOLIC_CERTIFIED_TOTAL,
            VERIFY_ORACLE_TOTAL,
            VERIFY_GATE_SKIPPED_TOTAL,
            VERIFY_GATE_SECONDS,
            SEARCH_EXPANDED_TOTAL,
            SEARCH_VALUE_FLOW_PRUNED_TOTAL,
            SEARCH_CANCELLED_TOTAL,
            SEARCH_STALE_POPS_TOTAL,
            SEARCH_BUCKET_SCANS_TOTAL,
            SEARCH_SWAR_BATCHES_TOTAL,
            SEARCH_RESIDENT_BYTES,
            SEARCH_SPILLED_BYTES,
            SEARCH_SPILL_SEGMENTS,
            SEARCH_SPILLED_OPEN_TOTAL,
            SEARCH_SPILLED_CLOSED_TOTAL,
            SEARCH_DDD_DEDUP_HITS_TOTAL,
            SEARCH_RESUMED_FRONTIER_TOTAL,
            SEARCH_SPILL_WRITE_SECONDS,
            SEARCH_SPILL_READ_SECONDS,
            RECORDER_FRAMES_TOTAL,
            WATCH_FRAMES_TOTAL,
            "sortsynth_phase_step_viability_nanos_total",
            SAT_CONFLICTS_TOTAL,
            CEGIS_ITERATIONS_TOTAL,
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing family {name}"
            );
        }
    }
}
