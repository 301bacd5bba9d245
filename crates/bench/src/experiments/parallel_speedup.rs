//! Parallel search speedup: wall-clock of the layered round loop at
//! 2/4/8 workers against its one-worker run on the paper's headline
//! syntheses (n = 3/4, both ISA modes).
//!
//! Every parallel run is asserted to find the *same optimal cost* as the
//! sequential run — the engine may only change how fast the answer
//! arrives, never what it is. The ≥2× speedup check on the n = 4 cmp/cmov
//! row is active only when the host actually has ≥4 cores
//! (`available_parallelism`); the emitted JSON records the core count so
//! artifacts from small CI containers are interpretable.

use std::time::Duration;

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{synthesize, SynthesisConfig};

use crate::util::{fmt_duration, time, write_bench_json, BenchConfig, Table};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Best wall-clock over `iters` runs (first-run noise from allocator and
/// cache warmup is real on these sub-second searches).
fn best_time(iters: usize, cfg: &SynthesisConfig) -> (Option<u32>, Duration) {
    let mut best: Option<(Option<u32>, Duration)> = None;
    for _ in 0..iters {
        let (result, elapsed) = time(|| synthesize(cfg));
        if best.as_ref().is_none_or(|(_, t)| elapsed < *t) {
            best = Some((result.found_len, elapsed));
        }
    }
    best.expect("at least one iteration")
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) {
    println!("== parallel search speedup (parallel driver vs one thread) ==");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let iters = if cfg.quick { 1 } else { 3 };
    println!("host cores: {cores}; best of {iters} runs per cell");

    let machines = [
        ("cmov", Machine::new(3, 1, IsaMode::Cmov)),
        ("minmax", Machine::new(3, 1, IsaMode::MinMax)),
        ("cmov", Machine::new(4, 1, IsaMode::Cmov)),
        ("minmax", Machine::new(4, 1, IsaMode::MinMax)),
    ];

    let mut table = Table::new(&["isa", "n", "threads", "time", "len", "speedup"]);
    let mut json_rows = Vec::new();
    let mut n4_cmov_speedup_at_4 = None;

    for (isa, machine) in machines {
        let base = SynthesisConfig::best(machine.clone());
        let mut sequential: Option<(u32, Duration)> = None;
        for threads in THREAD_COUNTS {
            let (len, elapsed) = best_time(iters, &base.clone().threads(threads));
            let len = len.unwrap_or_else(|| {
                panic!("n={} {isa}: no kernel at {threads} threads", machine.n())
            });
            let speedup = match &sequential {
                None => {
                    sequential = Some((len, elapsed));
                    1.0
                }
                Some((seq_len, seq_time)) => {
                    assert_eq!(
                        len,
                        *seq_len,
                        "n={} {isa}: {threads}-thread cost diverged from sequential",
                        machine.n()
                    );
                    seq_time.as_secs_f64() / elapsed.as_secs_f64()
                }
            };
            if machine.n() == 4 && isa == "cmov" && threads == 4 {
                n4_cmov_speedup_at_4 = Some(speedup);
            }
            table.row_strings(vec![
                isa.into(),
                machine.n().to_string(),
                threads.to_string(),
                fmt_duration(elapsed),
                len.to_string(),
                format!("{speedup:.2}x"),
            ]);
            json_rows.push(format!(
                "{{\"isa\":\"{isa}\",\"n\":{},\"threads\":{threads},\
                 \"millis\":{:.3},\"len\":{len},\"speedup\":{speedup:.3}}}",
                machine.n(),
                elapsed.as_secs_f64() * 1e3,
            ));
        }
    }

    table.print();
    let headline = n4_cmov_speedup_at_4.expect("n4 cmov row ran");
    if cores >= 4 {
        assert!(
            headline >= 2.0,
            "expected >=2x speedup at 4 threads on n=4 cmov with {cores} cores, got {headline:.2}x"
        );
        println!("n=4 cmov speedup at 4 threads: {headline:.2}x (>=2x required, {cores} cores)");
    } else {
        println!(
            "n=4 cmov speedup at 4 threads: {headline:.2}x \
             (informational: only {cores} core(s) available, >=2x check skipped)"
        );
    }

    table.write_csv(&cfg.ensure_out_dir().join("parallel_speedup.csv"));
    write_bench_json(
        "parallel_speedup",
        &format!(
            "{{\"experiment\":\"parallel_speedup\",\"cores\":{cores},\
             \"iters\":{iters},\"rows\":[{}]}}\n",
            json_rows.join(",")
        ),
    );
}
