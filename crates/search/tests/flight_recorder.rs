//! Introspection-layer properties of the search engine: the crash-dump
//! guarantee of the flight recorder and the phase profiler's attribution
//! contract.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_obs::recorder::{read_recording, FlightRecorder};
use sortsynth_obs::{Phase, PHASE_COUNT};
use sortsynth_search::{synthesize, Outcome, ProgressHook, SynthesisConfig};

/// Serializes tests that toggle or observe the global profiler switch: the
/// probe latches `sortsynth_obs::profile::enabled()` at engine construction,
/// so a concurrent toggle would leak into the profiler-off assertions. The
/// metric and trace tests take it too: their searches would compete for
/// the CPUs with the profiler's wall-time attribution check.
fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssfr-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("search.ssfr")
}

/// Crash-dump property: a panic mid-search leaves a parseable, checksummed
/// recording whose final frame carries the last delivered snapshot.
#[test]
fn panic_mid_search_leaves_a_parseable_recording() {
    let path = tmp("crash");
    let recorder = Arc::new(FlightRecorder::create(&path).unwrap());
    let rec = Arc::clone(&recorder);
    // Every expansion delivers a snapshot; the hook records each one and
    // then crashes the search on the snapshot for expansion 50. A plain
    // n=4 config keeps the search far from completion without paying for
    // the distance table.
    let hook = ProgressHook::new(move |p| {
        let _ = rec.record(p);
        if p.expanded >= 50 {
            panic!("injected crash at {} expansions", p.expanded);
        }
    });
    let cfg = SynthesisConfig::new(Machine::new(4, 1, IsaMode::Cmov))
        .max_len(15)
        .progress_every(1)
        .progress_hook(hook);
    let outcome = catch_unwind(AssertUnwindSafe(|| synthesize(&cfg)));
    assert!(outcome.is_err(), "the injected panic must propagate");

    let recording = read_recording(&path).unwrap();
    assert!(
        !recording.rejected_tail && recording.lost_bytes == 0,
        "every flushed frame survives the unwind intact: {recording:?}"
    );
    let last = recording.frames.last().expect("frames were recorded");
    assert_eq!(
        last.expanded, 50,
        "the final frame is the snapshot delivered at the panic threshold"
    );
    assert!(!last.finished, "the run never completed");
    // Enrichment is present: the sequential engine reports one shard with
    // live memory levels.
    assert_eq!(last.shards.len(), 1);
    assert!(last.shards[0].interned_states > 0);
    assert!(last.shards[0].arena_bytes > 0);
    // Frames are sequenced and monotone in expansion count.
    for pair in recording.seqs.windows(2) {
        assert_eq!(pair[1], pair[0] + 1);
    }
    for pair in recording.frames.windows(2) {
        assert!(pair[1].expanded >= pair[0].expanded);
    }
}

/// A completed search's final frame carries the outcome, so `inspect` can
/// always tell how a recorded run ended.
#[test]
fn completed_search_records_a_finished_final_frame() {
    let path = tmp("done");
    let recorder = Arc::new(FlightRecorder::create(&path).unwrap());
    let rec = Arc::clone(&recorder);
    let hook = ProgressHook::new(move |p| {
        let _ = rec.record(p);
    });
    let cfg = SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov))
        .progress_every(16)
        .progress_hook(hook);
    let result = synthesize(&cfg);
    assert_eq!(result.outcome, Outcome::Solved);

    let recording = read_recording(&path).unwrap();
    let last = recording.frames.last().unwrap();
    assert!(last.finished);
    assert_eq!(last.outcome.as_deref(), Some("Solved"));
    assert_eq!(last.expanded, result.stats.expanded);
    assert_eq!(last.shards[0].interned_states, result.stats.interned_states);
    assert_eq!(last.shards[0].arena_bytes, result.stats.arena_bytes);
}

/// Profiler-off leaves no trace in the stats; profiler-on attributes a
/// dominant share of the search wall time across the phase taxonomy.
#[test]
fn profiler_attributes_phase_time_when_enabled_and_nothing_when_off() {
    let _guard = switch_lock();
    let cfg = SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov));
    let off = synthesize(&cfg);
    assert_eq!(
        off.stats.phase_nanos, [0; PHASE_COUNT],
        "profiler off ⇒ zero attribution"
    );

    sortsynth_obs::profile::set_enabled(true);
    let on = synthesize(&cfg);
    sortsynth_obs::profile::set_enabled(false);

    let nanos = on.stats.phase_nanos;
    let wall = on.stats.search_time.as_nanos() as u64;
    let attributed: u64 = [
        Phase::Select,
        Phase::Step,
        Phase::Canonicalize,
        Phase::Intern,
    ]
    .iter()
    .map(|&p| nanos[p as usize])
    .sum();
    assert!(attributed > 0, "phases saw time: {nanos:?}");
    assert!(
        attributed <= wall + wall / 10,
        "attribution cannot exceed wall time by more than jitter: {attributed} vs {wall}"
    );
    assert!(
        attributed * 2 >= wall,
        "the four in-search phases dominate the wall time: {attributed} vs {wall}"
    );
    assert_eq!(
        nanos[Phase::TableBuild as usize],
        on.stats.distance_build.as_nanos() as u64,
        "table build is attributed from the measured build time"
    );
}

/// The parallel engine merges per-worker probes and enriches snapshots with
/// per-shard memory levels.
#[test]
fn parallel_run_reports_phase_time_and_shard_memory() {
    let snapshots: Arc<Mutex<Vec<sortsynth_search::SearchProgress>>> =
        Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&snapshots);
    let _guard = switch_lock();
    sortsynth_obs::profile::set_enabled(true);
    let cfg = SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov))
        .threads(2)
        .progress_every(8)
        .progress_hook(ProgressHook::new(move |p| {
            sink.lock().unwrap().push(p.clone());
        }));
    let result = synthesize(&cfg);
    sortsynth_obs::profile::set_enabled(false);

    assert_eq!(result.outcome, Outcome::Solved);
    assert!(
        result.stats.phase_nanos.iter().sum::<u64>() > 0,
        "worker probes were merged: {:?}",
        result.stats.phase_nanos
    );
    let snaps = snapshots.lock().unwrap();
    let last = snaps.last().expect("final snapshot is guaranteed");
    assert!(last.finished);
    assert_eq!(last.shards.len(), 2, "one shard entry per worker");
    assert_eq!(last.interned_states(), result.stats.interned_states);
    assert_eq!(last.arena_bytes(), result.stats.arena_bytes);
}

/// Golden pin: the `sortsynth_search_*` families a server exposes, with
/// their kinds. Scrapers key dashboards off these lines.
#[test]
fn search_metric_families_are_pinned() {
    let _guard = switch_lock();
    sortsynth_obs::names::register_well_known();
    let result = synthesize(&SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov)));
    assert_eq!(result.outcome, Outcome::Solved);
    let text = sortsynth_obs::registry().render_prometheus();
    let mut types: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE sortsynth_search_"))
        .collect();
    types.sort_unstable();
    assert_eq!(
        types,
        [
            "# TYPE sortsynth_search_arena_bytes gauge",
            "# TYPE sortsynth_search_bucket_scans_total counter",
            "# TYPE sortsynth_search_cancelled_total counter",
            "# TYPE sortsynth_search_cut_pruned_total counter",
            "# TYPE sortsynth_search_ddd_dedup_hits_total counter",
            "# TYPE sortsynth_search_dead_write_pruned_total counter",
            "# TYPE sortsynth_search_dedup_hits_total counter",
            "# TYPE sortsynth_search_distance_table_skipped_total counter",
            "# TYPE sortsynth_search_expanded_total counter",
            "# TYPE sortsynth_search_generated_total counter",
            "# TYPE sortsynth_search_interned_states_total counter",
            "# TYPE sortsynth_search_parallel_runs_total counter",
            "# TYPE sortsynth_search_resident_bytes gauge",
            "# TYPE sortsynth_search_resumed_frontier_total counter",
            "# TYPE sortsynth_search_routed_total counter",
            "# TYPE sortsynth_search_runs_total counter",
            "# TYPE sortsynth_search_scratch_reused_total counter",
            "# TYPE sortsynth_search_spill_read_seconds histogram",
            "# TYPE sortsynth_search_spill_segments gauge",
            "# TYPE sortsynth_search_spill_write_seconds histogram",
            "# TYPE sortsynth_search_spilled_bytes gauge",
            "# TYPE sortsynth_search_spilled_closed_total counter",
            "# TYPE sortsynth_search_spilled_open_total counter",
            "# TYPE sortsynth_search_stale_pops_total counter",
            "# TYPE sortsynth_search_swar_batches_total counter",
            "# TYPE sortsynth_search_value_flow_pruned_total counter",
            "# TYPE sortsynth_search_viability_pruned_total counter",
        ]
    );
}

/// Every `sortsynth_search_*` family a search publishes carries the help
/// text of the one family table, whichever side registered it first.
#[test]
fn search_metric_help_comes_from_the_family_table() {
    let _guard = switch_lock();
    let result = synthesize(&SynthesisConfig::best(Machine::new(3, 1, IsaMode::Cmov)).threads(2));
    assert_eq!(result.outcome, Outcome::Solved);
    let text = sortsynth_obs::registry().render_prometheus();
    let mut checked = 0;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("# HELP sortsynth_search_") else {
            continue;
        };
        let (suffix, help) = rest.split_once(' ').unwrap();
        let name = format!("sortsynth_search_{suffix}");
        assert_eq!(
            help,
            sortsynth_obs::names::family(&name).expect("declared").help,
            "{name}"
        );
        checked += 1;
    }
    assert!(checked >= 20, "a search publishes its families: {checked}");
}

/// The `search_progress` trace event carries every column of the progress
/// schema, spill state included.
#[test]
fn search_progress_events_carry_spill_state() {
    use sortsynth_obs::{FieldValue, RingBuffer};

    let _guard = switch_lock();
    let ring = Arc::new(RingBuffer::new(1 << 16));
    let id = sortsynth_obs::add_subscriber(ring.clone());
    sortsynth_obs::set_enabled(true);
    let result = synthesize(
        &SynthesisConfig::new(Machine::new(3, 1, IsaMode::Cmov))
            .budget_viability(true)
            .max_len(11)
            .mem_budget_bytes(64 << 10),
    );
    sortsynth_obs::remove_subscriber(id);
    assert!(result.stats.spilled_bytes > 0, "the budget forced a spill");

    let u64_field = |e: &sortsynth_obs::Event, name: &str| match e.field(name) {
        Some(FieldValue::U64(v)) => Some(*v),
        _ => None,
    };
    // Other tests may trace concurrently: this run's final event is the
    // finished one with its expansion count.
    let events = ring.drain();
    let last = events
        .iter()
        .filter(|e| e.name == "search_progress")
        .filter(|e| matches!(e.field("finished"), Some(FieldValue::Bool(true))))
        .find(|e| u64_field(e, "expanded") == Some(result.stats.expanded))
        .expect("the run's final search_progress event");
    assert!(u64_field(last, "spilled_bytes").is_some_and(|b| b > 0));
    assert_eq!(
        u64_field(last, "spilled_bytes"),
        Some(result.stats.spilled_bytes)
    );
    for name in [
        "spilled_open",
        "spilled_closed",
        "ddd_dedup_hits",
        "resumed_frontier_states",
        "resident_bytes",
    ] {
        assert!(u64_field(last, name).is_some(), "missing {name}");
    }
}
