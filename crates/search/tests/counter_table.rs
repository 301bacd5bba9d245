//! The search counters agree across every consumer: the published metric
//! families, the final progress snapshot, and the per-shard blocks all
//! carry the run's `SearchStats` totals.
//!
//! Each expectation is an explicit list written here, not read from the
//! counter table, so a row dropped from the table or a consumer that skips
//! one fails this test. It has one `#[test]` and so runs alone in its
//! process: no other search publishes into the registry meanwhile.

use std::sync::{Arc, Mutex};

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_obs::names::{self, Kind, FAMILIES};
use sortsynth_obs::registry;
use sortsynth_search::{
    synthesize, Outcome, ProgressHook, SearchProgress, SearchStats, ShardStats, SynthesisConfig,
};

/// The value a search family reads: a counter's total, or a gauge's level.
fn family_value(name: &str, kind: Kind) -> i64 {
    match kind {
        Kind::Counter => registry().counter_value(name) as i64,
        Kind::Gauge => registry().gauge_value(name),
        Kind::Histogram => 0,
    }
}

/// Every published search family with the `SearchStats` value one run adds
/// to a counter, or sets a gauge to.
fn published(s: &SearchStats, outcome: Outcome) -> Vec<(&'static str, u64)> {
    vec![
        (names::SEARCH_RUNS_TOTAL, 1),
        (names::SEARCH_EXPANDED_TOTAL, s.expanded),
        (names::SEARCH_GENERATED_TOTAL, s.generated),
        (
            names::SEARCH_CANCELLED_TOTAL,
            (outcome == Outcome::Cancelled) as u64,
        ),
        (names::SEARCH_DEAD_WRITE_PRUNED_TOTAL, s.dead_write_pruned),
        (names::SEARCH_VALUE_FLOW_PRUNED_TOTAL, s.value_flow_pruned),
        (
            names::SEARCH_DISTANCE_TABLE_SKIPPED_TOTAL,
            s.distance_table_skipped as u64,
        ),
        (names::SEARCH_CUT_PRUNED_TOTAL, s.cut_pruned),
        (names::SEARCH_VIABILITY_PRUNED_TOTAL, s.viability_pruned),
        (names::SEARCH_DEDUP_HITS_TOTAL, s.dedup_hits),
        (names::SEARCH_PARALLEL_RUNS_TOTAL, 1),
        (names::SEARCH_ROUTED_TOTAL, s.routed),
        (names::SEARCH_INTERNED_STATES_TOTAL, s.interned_states),
        (names::SEARCH_SCRATCH_REUSED_TOTAL, s.scratch_reused),
        (names::SEARCH_STALE_POPS_TOTAL, s.stale_pops),
        (names::SEARCH_BUCKET_SCANS_TOTAL, s.bucket_scans),
        (names::SEARCH_SWAR_BATCHES_TOTAL, s.swar_batches),
        (names::SEARCH_ARENA_BYTES, s.arena_bytes),
        (names::SEARCH_RESIDENT_BYTES, s.resident_bytes),
        (names::SEARCH_SPILLED_BYTES, s.spilled_bytes),
        (names::SEARCH_SPILL_SEGMENTS, s.spill_segments),
        (names::SEARCH_SPILLED_OPEN_TOTAL, s.spilled_open),
        (names::SEARCH_SPILLED_CLOSED_TOTAL, s.spilled_closed),
        (names::SEARCH_DDD_DEDUP_HITS_TOTAL, s.ddd_dedup_hits),
        (
            names::SEARCH_RESUMED_FRONTIER_TOTAL,
            s.resumed_frontier_states,
        ),
    ]
}

/// Every counter column of a progress snapshot, plus the two figures the
/// run frame sets by hand, next to the same-named `SearchStats` value.
fn columns(p: &SearchProgress, s: &SearchStats) -> [(&'static str, u64, u64); 13] {
    [
        ("expanded", p.expanded, s.expanded),
        ("generated", p.generated, s.generated),
        ("viability_pruned", p.viability_pruned, s.viability_pruned),
        ("cut_pruned", p.cut_pruned, s.cut_pruned),
        ("dedup_hits", p.dedup_hits, s.dedup_hits),
        (
            "dead_write_pruned",
            p.dead_write_pruned,
            s.dead_write_pruned,
        ),
        (
            "value_flow_pruned",
            p.value_flow_pruned,
            s.value_flow_pruned,
        ),
        ("spilled_open", p.spilled_open, s.spilled_open),
        ("spilled_closed", p.spilled_closed, s.spilled_closed),
        ("ddd_dedup_hits", p.ddd_dedup_hits, s.ddd_dedup_hits),
        ("spilled_bytes", p.spilled_bytes, s.spilled_bytes),
        ("resident_bytes", p.resident_bytes, s.resident_bytes),
        (
            "resumed_frontier_states",
            p.resumed_frontier_states,
            s.resumed_frontier_states,
        ),
    ]
}

/// Every `ShardStats` counter with its `SearchStats` total.
type ShardCounter = (&'static str, fn(&ShardStats) -> u64, u64);

fn shard_counters(s: &SearchStats) -> [ShardCounter; 21] {
    [
        ("expanded", |c| c.expanded, s.expanded),
        ("generated", |c| c.generated, s.generated),
        (
            "viability_pruned",
            |c| c.viability_pruned,
            s.viability_pruned,
        ),
        ("cut_pruned", |c| c.cut_pruned, s.cut_pruned),
        (
            "dead_write_pruned",
            |c| c.dead_write_pruned,
            s.dead_write_pruned,
        ),
        (
            "value_flow_pruned",
            |c| c.value_flow_pruned,
            s.value_flow_pruned,
        ),
        ("merged", |c| c.merged, s.merged),
        ("dedup_hits", |c| c.dedup_hits, s.dedup_hits),
        ("reopened", |c| c.reopened, s.reopened),
        ("stale_pops", |c| c.stale_pops, s.stale_pops),
        ("bound_pruned", |c| c.bound_pruned, s.bound_pruned),
        ("states_kept", |c| c.states_kept, s.states_kept),
        ("routed", |c| c.routed, s.routed),
        ("steals", |c| c.steals, s.steals),
        ("scratch_reused", |c| c.scratch_reused, s.scratch_reused),
        ("swar_batches", |c| c.swar_batches, s.swar_batches),
        ("spilled_open", |c| c.spilled_open, s.spilled_open),
        ("spilled_closed", |c| c.spilled_closed, s.spilled_closed),
        ("ddd_dedup_hits", |c| c.ddd_dedup_hits, s.ddd_dedup_hits),
        ("spilled_bytes", |c| c.spilled_bytes, s.spilled_bytes),
        ("spill_segments", |c| c.spill_segments, s.spill_segments),
    ]
}

#[test]
fn every_consumer_reads_the_run_totals() {
    names::register_well_known();
    let search_families: Vec<_> = FAMILIES
        .iter()
        .filter(|f| f.name.starts_with("sortsynth_search_") && f.kind != Kind::Histogram)
        .collect();
    let before: Vec<i64> = search_families
        .iter()
        .map(|f| family_value(f.name, f.kind))
        .collect();

    let last = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&last);
    let cfg = SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov))
        .threads(2)
        .progress_hook(ProgressHook::new(move |p| {
            *sink.lock().unwrap() = Some(p.clone());
        }));
    let result = synthesize(&cfg);
    assert_eq!(result.outcome, Outcome::Solved);
    let stats = &result.stats;
    assert_eq!(stats.shards.len(), 2, "a two-partition run");
    assert!(stats.routed > 0, "successors crossed partitions");

    let expected = published(stats, result.outcome);
    for (family, was) in search_families.iter().zip(before) {
        let (_, value) = expected
            .iter()
            .find(|(name, _)| *name == family.name)
            .unwrap_or_else(|| panic!("{} is missing from the published list", family.name));
        let now = family_value(family.name, family.kind);
        match family.kind {
            Kind::Gauge => assert_eq!(now, *value as i64, "{}", family.name),
            _ => assert_eq!(now - was, *value as i64, "{}", family.name),
        }
    }

    let last = last.lock().unwrap().take().expect("a final snapshot");
    assert!(last.finished);
    for (name, column, total) in columns(&last, stats) {
        assert_eq!(column, total, "snapshot column {name}");
    }

    for (name, read, total) in shard_counters(stats) {
        let sum: u64 = stats.shards.iter().map(read).sum();
        assert_eq!(sum, total, "shard sum of {name}");
    }
}
