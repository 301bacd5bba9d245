//! Observability overhead: what the phase profiler and the flight recorder
//! cost on the headline synthesis. Emits `BENCH_obs_overhead.json`.
//!
//! The profiler's design contract (see `sortsynth-obs::profile`) is ≤1%
//! measured overhead on the n = 4 cmp/cmov headline when enabled — probes
//! sit at phase boundaries, never per candidate, and sample one expansion
//! cycle per stride. This experiment pins that
//! number: interleaved off/on runs (so drift hits both modes evenly), best
//! of `iters` per mode, overhead = 1 − nodes/sec(on) / nodes/sec(off).
//! The recorder row (progress hook + throttled on-disk frames) rides along
//! as an informational column; its cadence-bound writes are far off the hot
//! path.

use std::time::Duration;

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{synthesize, ProgressHook, SearchStats, SynthesisConfig};

use crate::util::{fmt_duration, time, write_bench_json, BenchConfig, Table};

/// The acceptance ceiling on profiler overhead, asserted under
/// `SORTSYNTH_ENFORCE_BASELINE=1` (the reference container).
pub const MAX_PROFILER_OVERHEAD: f64 = 0.01;

/// One measured mode: best nodes/sec over the runs handed to it.
#[derive(Default)]
struct Mode {
    nodes_per_sec: f64,
    elapsed: Duration,
    stats: Option<SearchStats>,
}

impl Mode {
    fn observe(&mut self, stats: SearchStats, elapsed: Duration) {
        let nps = stats.expanded as f64 / elapsed.as_secs_f64().max(1e-9);
        if nps > self.nodes_per_sec {
            self.nodes_per_sec = nps;
            self.elapsed = elapsed;
            self.stats = Some(stats);
        }
    }
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) {
    println!("== observability overhead (profiler / flight recorder) ==");
    let iters = if cfg.quick { 2 } else { 5 };
    let machine = if cfg.quick {
        Machine::new(3, 1, IsaMode::Cmov)
    } else {
        Machine::new(4, 1, IsaMode::Cmov)
    };
    let n = machine.n();
    println!("n = {n} cmp/cmov best config; interleaved, best of {iters} per mode");

    let record_path =
        std::env::temp_dir().join(format!("sortsynth-bench-obs-{}.ssfr", std::process::id()));
    let mut off = Mode::default();
    let mut on = Mode::default();
    let mut rec = Mode::default();
    for _ in 0..iters {
        // Off first, on second, recorder third, every round: slow drift
        // (thermal, noisy neighbors) then biases all modes alike.
        sortsynth_obs::profile::set_enabled(false);
        let synth_cfg = SynthesisConfig::best(machine.clone());
        let (result, elapsed) = time(|| synthesize(&synth_cfg));
        off.observe(result.stats, elapsed);

        sortsynth_obs::profile::set_enabled(true);
        let (result, elapsed) = time(|| synthesize(&synth_cfg));
        on.observe(result.stats, elapsed);
        sortsynth_obs::profile::set_enabled(false);

        let recorder = std::sync::Arc::new(
            sortsynth_obs::FlightRecorder::create(&record_path).expect("temp recording"),
        );
        let rec_cfg = SynthesisConfig::best(machine.clone())
            .progress_every(8192)
            .progress_hook(ProgressHook::new(move |p| {
                let _ = recorder.record(p);
            }));
        let (result, elapsed) = time(|| synthesize(&rec_cfg));
        rec.observe(result.stats, elapsed);
    }
    let _ = std::fs::remove_file(&record_path);

    let profiler_overhead = 1.0 - on.nodes_per_sec / off.nodes_per_sec;
    let recorder_overhead = 1.0 - rec.nodes_per_sec / off.nodes_per_sec;
    // How much of the profiled run's wall the phase taxonomy accounts for.
    let coverage = on
        .stats
        .as_ref()
        .map(|s| {
            let attributed: u64 = s.phase_nanos.iter().sum();
            let wall = (s.distance_build + s.search_time).as_nanos() as u64;
            attributed as f64 / wall.max(1) as f64
        })
        .unwrap_or(0.0);

    let mut table = Table::new(&["mode", "time", "nodes/sec", "overhead"]);
    for (name, mode, overhead) in [
        ("profiler off", &off, 0.0),
        ("profiler on", &on, profiler_overhead),
        ("recorder on", &rec, recorder_overhead),
    ] {
        table.row_strings(vec![
            name.into(),
            fmt_duration(mode.elapsed),
            format!("{:.0}", mode.nodes_per_sec),
            format!("{:+.2}%", overhead * 100.0),
        ]);
    }
    table.print();
    println!(
        "profiler overhead {:.2}% (ceiling {:.0}%); phase coverage {:.1}% of wall",
        profiler_overhead * 100.0,
        MAX_PROFILER_OVERHEAD * 100.0,
        coverage * 100.0
    );

    // The ≤1% gate is asserted only on the container whose numbers are
    // committed (opt-in via env); elsewhere the figure is informational.
    if std::env::var("SORTSYNTH_ENFORCE_BASELINE").as_deref() == Ok("1") {
        assert!(
            profiler_overhead <= MAX_PROFILER_OVERHEAD,
            "profiler overhead {:.3}% exceeds the {:.0}% ceiling",
            profiler_overhead * 100.0,
            MAX_PROFILER_OVERHEAD * 100.0
        );
    }

    table.write_csv(&cfg.ensure_out_dir().join("obs_overhead.csv"));
    write_bench_json(
        "obs_overhead",
        &format!(
            "{{\"experiment\":\"obs_overhead\",\"quick\":{},\"iters\":{iters},\
             \"n\":{n},\"isa\":\"cmov\",\
             \"baseline_nodes_per_sec\":{:.1},\
             \"profiler_nodes_per_sec\":{:.1},\
             \"profiler_overhead\":{profiler_overhead:.5},\
             \"recorder_nodes_per_sec\":{:.1},\
             \"recorder_overhead\":{recorder_overhead:.5},\
             \"phase_coverage\":{coverage:.4},\
             \"max_profiler_overhead\":{MAX_PROFILER_OVERHEAD}}}\n",
            cfg.quick, off.nodes_per_sec, on.nodes_per_sec, rec.nodes_per_sec,
        ),
    );
}
