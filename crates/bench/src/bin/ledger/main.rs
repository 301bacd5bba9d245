//! `ledger`: one performance ledger for sortsynth.
//!
//! Runs seeded workloads against the system in child processes, checks
//! every answer with an independent oracle, and prints each end-to-end
//! metric by name and unit. A traced run (`--trace`) also times the calls
//! into each layer and reports per-layer metrics. See `README.md` in this
//! directory for the metrics, the workloads and why each was chosen.
//!
//! ```text
//! ledger [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//! ledger compare <parent> <change>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when any
//! answer was wrong or any request failed.

mod child;
mod compare;
mod json;
mod metrics;
mod oracle;
mod record;
mod speed;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::Metric;
use workloads::{Run, Workload, WORKLOADS};

/// Seconds each workload measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                opts.workloads.push(workloads::find(name).ok_or(format!(
                    "unknown workload `{name}` (one of: {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => {
                let explicit = it.next_if(|v| *v == "0" || *v == "1");
                opts.traced = explicit.is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().collect();
    }
    Ok(opts)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", m.value.into()), ("unit", m.unit.into())]),
        )
    }))
}

/// Prints one workload's result block.
fn print_run(w: &Workload, run: &Run, overhead: Option<f64>) {
    println!(
        "\n== {} (N = {}, tail = rank {} of {}, p{:.3}): {}",
        w.name,
        run.latencies.len(),
        run.tail.rank,
        run.latencies.len(),
        run.tail.percentile,
        w.why
    );
    println!(
        "  host speed factor {:.3} (reference-host seconds per wall second)",
        run.speed
    );
    for m in &run.end_to_end {
        let wall = run.wall.iter().find(|w| w.name == m.name);
        let wall = wall.map_or(String::new(), |w| format!("   wall clock {:.6}", w.value));
        println!("  {:<16} {:>14.6} {:<11}{wall}", m.name, m.value, m.unit);
    }
    for failure in &run.failures {
        println!("  FAILED: {failure}");
    }
    let Some(layers) = &run.layers else {
        return;
    };
    let wall = layers.trace.wall_ns.max(1) as f64;
    println!("  -- layer self time per request (share of request wall time)");
    for (name, ns) in &layers.trace.self_ns {
        let per_request = *ns as f64 / 1e9 / layers.trace.requests.max(1) as f64;
        let note = if trace::UNATTRIBUTED.contains(name) {
            "  (unattributed)"
        } else {
            ""
        };
        println!(
            "  {name:<26} {per_request:>12.6} s {:>6.1}%{note}",
            100.0 * *ns as f64 / wall
        );
    }
    println!(
        "  layer coverage {:.1}% of request wall time",
        100.0 * layers.trace.coverage()
    );
    if let Some(overhead) = overhead {
        println!(
            "  tracing overhead {:+.2}% (traced vs. untraced latency_p50_s)",
            100.0 * overhead
        );
    }
    for m in &layers.metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

/// The run's scratch directory (caches, spill segments), removed however
/// the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench(opts: &Options) -> Result<bool, String> {
    let header = record::header(opts.seed, opts.seconds, opts.traced);
    println!("# ledger {header}");
    let tmp = Scratch(record::out_dir().join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut span_lines = vec![header.to_string()];
    let single = opts.workloads.len() == 1;
    // A traced run splits its time between an untraced and a traced pass,
    // so it takes as long as an untraced one and still measures overhead.
    let pass_seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    for w in &opts.workloads {
        let mut run = workloads::run(w, opts.seed, pass_seconds, &tmp.0, false)?;
        attempted += run.attempted;
        failed += run.failed;
        let mut overhead = None;
        if opts.traced {
            let traced = workloads::run(w, opts.seed, pass_seconds, &tmp.0, true)?;
            attempted += traced.attempted;
            failed += traced.failed;
            let base = run.value("latency_p50_s").unwrap_or(f64::NAN);
            let ratio = traced.value("latency_p50_s").unwrap_or(f64::NAN) / base - 1.0;
            overhead = Some(ratio);
            run.failures.extend(traced.failures);
            let mut layers = traced.layers.expect("a traced pass records layers");
            if let Some(m) = layers
                .metrics
                .iter_mut()
                .find(|m| m.name == "trace.overhead")
            {
                m.value = ratio;
            }
            for span in layers.trace.spans.drain(..) {
                let Json::Obj(mut fields) = span else {
                    unreachable!("spans are objects")
                };
                fields.insert(0, ("workload".to_string(), w.name.into()));
                span_lines.push(Json::Obj(fields).to_string());
            }
            run.layers = Some(layers);
        }
        print_run(w, &run, overhead);
        let reported: Vec<Metric> = if opts.traced {
            run.layers
                .as_ref()
                .map(|l| l.metrics.clone())
                .unwrap_or_default()
        } else {
            run.end_to_end
                .iter()
                .filter(|m| metrics::end_to_end(m.name).is_some_and(|d| d.bound.share().is_some()))
                .cloned()
                .collect()
        };
        for m in reported {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", w.name, m.name)
            };
            summary.push((
                key,
                Json::obj([("value", m.value.into()), ("unit", m.unit.into())]),
            ));
        }
        rows.push(Json::obj([
            ("name", w.name.into()),
            ("n", (run.latencies.len() as u64).into()),
            ("attempted", run.attempted.into()),
            ("failed", run.failed.into()),
            ("tail_rank", (run.tail.rank as u64).into()),
            ("tail_percentile", run.tail.percentile.into()),
            ("end_to_end", metrics_json(&run.end_to_end)),
            ("speed", run.speed.into()),
            ("wall", metrics_json(&run.wall)),
            (
                "layers",
                run.layers
                    .as_ref()
                    .map_or(Json::Null, |l| metrics_json(&l.metrics)),
            ),
        ]));
    }
    drop(tmp);
    let names: Vec<&str> = opts.workloads.iter().map(|w| w.name).collect();
    let stem = format!(
        "{}-seed{}{}",
        names.join("+"),
        opts.seed,
        if opts.traced { "-traced" } else { "" }
    );
    let record = Json::obj([("header", header), ("workloads", Json::Arr(rows))]);
    let path = record::write(&stem, "json", &[record.to_string()])?;
    println!("\n# record: {}", path.display());
    if opts.traced {
        let path = record::write(&stem, "spans.jsonl", &span_lines)?;
        println!("# spans: {}", path.display());
    }
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", Json::obj(summary)),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") if args.len() >= 2 => child::run(&args[1], &args[2..]).map(|()| true),
        Some("compare") => compare::main(&args[1..]),
        _ => parse(&args).and_then(|opts| bench(&opts)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The settings lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .map(str::trim)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// Built as a package of its own, the ledger compiles the program with
    /// its own manifest's profile; it must be the repository's, or the
    /// ledger stops measuring the program as it ships.
    #[test]
    fn the_ledger_builds_with_the_repositorys_release_profile() {
        let ours = release_profile(include_str!("Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(
            ours,
            release_profile(include_str!("../../../../../Cargo.toml"))
        );
    }
}
