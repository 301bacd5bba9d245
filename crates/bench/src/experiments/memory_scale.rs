//! Memory-scale accounting for the external-memory search tier: the
//! frontier sustained under the 256 MiB reference budget (with the spill
//! tier forced on to measure its throughput), and the spill-disabled
//! headline nodes/sec. Emits `BENCH_memory_scale.json`.
//!
//! The thesis of the memory work: n = 5 is capacity-bound, not CPU-bound,
//! so every row here is a bytes-per-state or bytes-on-disk number — and the
//! last row proves the capacity levers cost nothing when they are off.

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{synthesize, SynthesisConfig};

use crate::util::{fmt_duration, peak_rss_kb, time, write_bench_json, BenchConfig};

use super::search_core;

/// The committed pre-spill headline (n = 4 cmp/cmov, sequential best
/// config) from `BENCH_search_core.json` on the reference container. The
/// memory tier must not tax the resident hot loop: with no budget set, the
/// headline row below must stay within [`HEADLINE_TOLERANCE`] of this.
pub const HEADLINE_N4_CMOV_NODES_PER_SEC: f64 = 619_981.0;

/// Acceptable headline slack (fraction of the reference), enforced only
/// under `SORTSYNTH_ENFORCE_BASELINE=1` on the reference container.
pub const HEADLINE_TOLERANCE: f64 = 0.05;

/// The reference memory budget the acceptance criterion is phrased
/// against: the largest frontier of the run set must be sustained with the
/// search's resident estimate at or below this.
pub const REFERENCE_BUDGET_BYTES: u64 = 256 << 20;

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) {
    println!("== memory-scale search (spill tier, headline) ==");

    // ---- spill-disabled headline ---------------------------------------
    // Measured first, before the experiment's own workloads fragment the
    // heap: the capacity levers must be free when off — best config, no
    // budget, the production path.
    let (headline_isa, headline_machine, reference) = if cfg.quick {
        (
            "cmov",
            Machine::new(3, 1, IsaMode::Cmov),
            search_core::PRECHANGE_N3_CMOV_NODES_PER_SEC,
        )
    } else {
        (
            "cmov",
            Machine::new(4, 1, IsaMode::Cmov),
            HEADLINE_N4_CMOV_NODES_PER_SEC,
        )
    };
    // Best-of-5: the absolute reference was recorded on a differently
    // loaded container, so the fastest of several runs is the comparable
    // number.
    let iters = if cfg.quick { 1 } else { 5 };
    let mut best: Option<(f64, std::time::Duration)> = None;
    for _ in 0..iters {
        let run_cfg = SynthesisConfig::best(headline_machine.clone());
        let (result, elapsed) = time(|| synthesize(&run_cfg));
        assert!(result.found_len.is_some(), "headline run found no kernel");
        let nps = result.stats.expanded as f64 / elapsed.as_secs_f64().max(1e-9);
        if best.as_ref().is_none_or(|(_, t)| elapsed < *t) {
            best = Some((nps, elapsed));
        }
    }
    let (nps, elapsed) = best.expect("at least one headline run");
    let ratio = nps / reference;
    let rss_kb = peak_rss_kb().unwrap_or(0);
    println!(
        "headline (spill disabled): n={} {headline_isa} {nps:.0} nodes/sec in {} \
         ({ratio:.3}x the committed pre-spill reference, informational off the \
         reference container)",
        headline_machine.n(),
        fmt_duration(elapsed),
    );
    if std::env::var("SORTSYNTH_ENFORCE_BASELINE").as_deref() == Ok("1") && !cfg.quick {
        assert!(
            ratio >= 1.0 - HEADLINE_TOLERANCE,
            "spill-disabled headline fell to {ratio:.3}x the pre-spill reference \
             (floor {:.2}x)",
            1.0 - HEADLINE_TOLERANCE
        );
    }

    // ---- spill tier under budget ---------------------------------------
    // The largest layered cell of the run set, first fully resident to
    // measure its footprint, then rerun with a budget far below it so the
    // tier demonstrably streams frontier and closed bytes to disk — while
    // staying within the 256 MiB reference budget. The divisor is steep
    // (64x) because merely arming the tier already compacts expanded spans
    // every layer, cutting residency ~10x before any byte hits disk; the
    // budget has to sit below the *compacted* peak to force spill I/O.
    let (spill_isa, spill_machine, spill_bound) = if cfg.quick {
        ("cmov", Machine::new(3, 1, IsaMode::Cmov), 11)
    } else {
        ("minmax", Machine::new(4, 1, IsaMode::MinMax), 15)
    };
    let layered = SynthesisConfig::new(spill_machine.clone())
        .budget_viability(true)
        .max_len(spill_bound);
    let (resident_run, resident_elapsed) = time(|| synthesize(&layered));
    let resident_footprint = resident_run.stats.resident_bytes.max(1);
    let budget = (resident_footprint / 64).max(64 << 10);
    let spill_dir = std::env::temp_dir().join(format!("ssbench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let (budgeted_run, budgeted_elapsed) = time(|| {
        synthesize(
            &layered
                .clone()
                .mem_budget_bytes(budget)
                .spill_dir(spill_dir.clone()),
        )
    });
    let _ = std::fs::remove_dir_all(&spill_dir);
    assert_eq!(
        resident_run.found_len, budgeted_run.found_len,
        "spill tier changed the optimal cost"
    );
    let spill = &budgeted_run.stats;
    assert!(
        spill.spilled_bytes > 0,
        "budget ({budget} B) did not engage the spill tier"
    );
    assert!(
        spill.resident_bytes <= REFERENCE_BUDGET_BYTES,
        "budgeted run's resident estimate ({} B) exceeds the 256 MiB reference budget",
        spill.resident_bytes
    );
    // Bytes per second alone would read a denser encoding as a slower
    // tier, so the rate is also given in spans, with the bytes each costs
    // (frontier and closed-segment bytes together, per spilled span).
    let secs = budgeted_elapsed.as_secs_f64().max(1e-9);
    let spill_mb_per_sec = spill.spilled_bytes as f64 / 1e6 / secs;
    let spill_spans_per_sec = spill.spilled_open as f64 / secs;
    let bytes_per_span = spill.spilled_bytes as f64 / spill.spilled_open.max(1) as f64;
    println!(
        "spill: n={} {spill_isa} resident {} KiB resident-only ({}), \
         budget {} KiB -> resident {} KiB + {} KiB on disk in {} segment(s), \
         {} spilled spans, {} DDD dedups, {:.1} MB/s to disk, \
         {spill_spans_per_sec:.0} spans/s at {bytes_per_span:.1} B/span ({})",
        spill_machine.n(),
        resident_footprint / 1024,
        fmt_duration(resident_elapsed),
        budget / 1024,
        spill.resident_bytes / 1024,
        spill.spilled_bytes / 1024,
        spill.spill_segments,
        spill.spilled_open,
        spill.ddd_dedup_hits,
        spill_mb_per_sec,
        fmt_duration(budgeted_elapsed),
    );
    let spill_json = format!(
        "{{\"isa\":\"{spill_isa}\",\"n\":{},\"bound\":{spill_bound},\
         \"resident_footprint_bytes\":{resident_footprint},\
         \"budget_bytes\":{budget},\"reference_budget_bytes\":{REFERENCE_BUDGET_BYTES},\
         \"budgeted_resident_bytes\":{},\"spilled_bytes\":{},\"spill_segments\":{},\
         \"spilled_open\":{},\"spilled_closed\":{},\"ddd_dedup_hits\":{},\
         \"states_kept\":{},\"spill_mb_per_sec\":{spill_mb_per_sec:.2},\
         \"spill_spans_per_sec\":{spill_spans_per_sec:.1},\
         \"spilled_bytes_per_span\":{bytes_per_span:.2},\
         \"millis\":{:.3}}}",
        spill_machine.n(),
        spill.resident_bytes,
        spill.spilled_bytes,
        spill.spill_segments,
        spill.spilled_open,
        spill.spilled_closed,
        spill.ddd_dedup_hits,
        spill.states_kept,
        budgeted_elapsed.as_secs_f64() * 1e3,
    );

    write_bench_json(
        "memory_scale",
        &format!(
            "{{\"experiment\":\"memory_scale\",\"quick\":{},\
             \"spill\":{spill_json},\
             \"headline\":{{\"isa\":\"{headline_isa}\",\"n\":{},\
             \"nodes_per_sec\":{nps:.1},\
             \"reference_nodes_per_sec\":{reference:.1},\
             \"ratio\":{ratio:.4},\"tolerance\":{HEADLINE_TOLERANCE},\
             \"peak_rss_kb\":{rss_kb}}}}}\n",
            cfg.quick,
            headline_machine.n(),
        ),
    );
}
