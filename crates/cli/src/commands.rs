//! Subcommand implementations.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::Value;
use sortsynth_cache::{CutSpec, KernelQuery};
use sortsynth_isa::{analyze, sampling_score, InstrMix, Machine, Program, ThroughputModel};
use sortsynth_jit::JitKernel;
use sortsynth_kernels::{interpret, Kernel};
use sortsynth_obs::progress::COLUMNS;
use sortsynth_obs::{info, warn, SearchProgress, ShardSnapshot};
use sortsynth_portfolio::{engine_config, Answerer, Failure, Route};
use sortsynth_search::{
    prove_no_solution, synthesize, try_synthesize, BoundVerdict, SearchBudget, SearchStats,
    SynthesisConfig,
};
use sortsynth_service::{Client, ReplySource, Response, Server, ServiceConfig};
use sortsynth_verify::{dce, verify, Verdict};

use crate::args::{parse_bytes, ArgsError, ParsedArgs};

/// Help text shown on errors and `sortsynth help`.
pub const USAGE: &str = "usage:
  sortsynth synth   --n N [--scratch M] [--isa cmov|minmax] [--all] [--max-len L] [--cut K]
                    [--plain] [--dead-write-cut] [--value-flow-cut]
                    [--timeout SECS] [--cache-dir DIR]
                    [--threads T]                 T search threads (0 = all cores; default 1)
                    [--backend B]                 astar|cegis|smt-min|mcts|stoke|plan, or
                                                  `portfolio` to race them all first-win;
                                                  astar is the engine under the arm's name,
                                                  the only backend that takes --threads,
                                                  --record, --mem-limit, --spill-dir,
                                                  --resume and the two lossless cuts
                    [--record FILE]               leave a flight recording of the search
                    [--mem-limit BYTES]           spill cold search state to disk past this
                                                  budget (suffixes: K, M, G; layered search,
                                                  one search thread whatever --threads says)
                    [--spill-dir DIR]             where spill segments + journal live
                    [--resume DIR]                resume a killed search from its journal
  sortsynth profile --n N [--scratch M] [--isa cmov|minmax] [--plain] [--max-len L] [--cut K]
                    [--threads T] [--timeout SECS]   per-phase time table of one search
  sortsynth inspect <recording.ssfr> [--json]    post-mortem summary of a flight recording
  sortsynth top     [--addr HOST:PORT] [--n N ...] [--backend B] [--wait-ms MS]
                                                  live view of an in-flight server search
  sortsynth prove   --n N --len L [--budget-states S]
  sortsynth check   <file|-> --n N [--scratch M] [--isa cmov|minmax]
  sortsynth analyze <file|-> --n N [--scratch M] [--isa cmov|minmax]
  sortsynth lint    <file|-> --n N [--scratch M] [--isa cmov|minmax] [--json|--plain] [--fix]
  sortsynth run     <file|-> --n N [--scratch M] [--isa cmov|minmax] --data V1,V2,...
  sortsynth serve   [--addr HOST:PORT] [--workers W] [--queue-depth D]
                    [--cache-dir DIR] [--cache-capacity C] [--timeout SECS] [--metrics]
                    [--search-threads T]          engine threads per synth job (default 1)
                    [--portfolio]                 race all backends for unrouted synth requests
                    [--record-dir DIR]            flight-record every engine search
                    [--search-mem-limit BYTES]    memory budget per engine search (spills to disk)
  sortsynth client  ping|synth|check|analyze|metrics|stats|watch [<file|->] [--addr HOST:PORT]
                    [--n N ...] [--timeout SECS] [--backend B] [--wait-ms MS]
  sortsynth stats   [--addr HOST:PORT]
  sortsynth help

global flags (any subcommand):
  --log-level error|warn|info|debug|trace   diagnostic verbosity (default info)
  --trace FILE                              write a JSONL span/event log";

/// Dispatches a parsed command line.
pub fn dispatch(args: ParsedArgs) -> Result<(), ArgsError> {
    match args.command.as_str() {
        "synth" => synth(&args),
        "prove" => prove(&args),
        "check" => check(&args),
        "analyze" => analyze_cmd(&args),
        "lint" => lint(&args),
        "run" => run(&args),
        "serve" => serve(&args),
        "client" => client_cmd(&args),
        "stats" => stats_cmd(&args),
        "profile" => profile_cmd(&args),
        "inspect" => inspect_cmd(&args),
        "top" => top_cmd(&args),
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(ArgsError::new(format!("unknown subcommand `{other}`"))),
    }
}

fn machine_from(args: &ParsedArgs) -> Result<Machine, ArgsError> {
    Ok(Machine::new(args.n()?, args.scratch()?, args.isa()?))
}

/// The [`KernelQuery`] describing what `synth` (without `--all`) will
/// search — the cache key for `--cache-dir` and the `client synth` payload.
fn synth_query(args: &ParsedArgs) -> Result<KernelQuery, ArgsError> {
    let mut query = KernelQuery::best(args.n()?, args.scratch()?, args.isa()?);
    if args.flag("plain") {
        query.optimal_instrs_only = false;
        query.budget_viability = false;
        query.cut = None;
    }
    query.max_len = args.num::<u32>("max-len")?;
    if let Some(k) = args.num::<f64>("cut")? {
        query.cut = Some(CutSpec::Factor {
            millis: (k * 1000.0).round() as u32,
        });
    }
    Ok(query)
}

/// The `synth` flags that configure the engine search. A backend that does
/// not run the engine refuses them instead of ignoring them.
const ENGINE_FLAGS: [&str; 7] = [
    "threads",
    "mem-limit",
    "spill-dir",
    "resume",
    "record",
    "dead-write-cut",
    "value-flow-cut",
];

/// `sortsynth synth`: answers the query through the same path the server
/// uses (cache get, route, run, cache insert), with `--backend` choosing the
/// route. `--all` runs the engine route on its own query and prints every
/// kernel it found.
fn synth(args: &ParsedArgs) -> Result<(), ArgsError> {
    let backend = args.options.get("backend").map(String::as_str);
    let all = args.flag("all");
    if all && backend.is_some() {
        return Err(ArgsError::new(
            "--backend answers one query; it cannot enumerate with --all",
        ));
    }
    let mut query = synth_query(args)?;
    if all {
        // All-solutions needs the optimality-preserving configuration: no
        // first-instruction restriction, and no cut unless one is asked for.
        query.optimal_instrs_only = false;
        query.budget_viability = true;
        if !args.options.contains_key("cut") {
            query.cut = None;
        }
        if query.max_len.is_none() {
            // Find the optimal length first, then enumerate at it.
            let best = KernelQuery::best(query.n, query.scratch, query.mode);
            let probe = synthesize(&engine_config(&best));
            query.max_len = Some(
                probe
                    .found_len
                    .ok_or_else(|| ArgsError::new("no kernel found"))?,
            );
        }
    }
    let dir = args.options.get("cache-dir").map(String::as_str);
    let answers = Answerer::open(dir.map(Path::new), 1024, None)
        .map_err(|e| ArgsError::new(format!("--cache-dir {}: {e}", dir.unwrap_or_default())))?;
    if let Some(flag) = ENGINE_FLAGS.iter().find(|f| args.options.contains_key(**f)) {
        let route = answers
            .route(backend)
            .map_err(|failure| ArgsError::new(failure.to_string()))?;
        if !route.runs_engine() {
            return Err(ArgsError::new(format!(
                "--{flag} configures the engine search, which backend `{}` does not run",
                backend.unwrap_or_default()
            )));
        }
    }
    let mut cfg = run_flags(args, answers.engine_config(&query))?;
    cfg.all_solutions = all;
    let answer = if all {
        answers.run(&query, &Route::Engine, cfg)
    } else {
        answers.answer(&query, backend, cfg)
    }
    .map_err(|failure| ArgsError::new(failure.to_string()))?;
    if let Some(result) = &answer.search {
        report_stats(&result.stats);
        if let (true, Some(len)) = (all, result.found_len) {
            info!(
                "# {} kernels of length {len} ({} states, {:?})",
                result.solution_count(),
                result.stats.generated,
                result.stats.search_time
            );
            let limit = args.num::<usize>("limit")?.unwrap_or(10);
            for (i, prog) in result.dag.programs(limit).iter().enumerate() {
                println!("# solution {}", i + 1);
                print!("{}", query.machine().format_program(prog));
                println!();
            }
            return Ok(());
        }
    }
    // Printed exactly as `client synth` prints the server's reply.
    render_response(Response::answer(&query, Ok(answer)))
}

/// Applies the run flags of `synth` and `profile` to `cfg`: they change how the search runs
/// and what it leaves behind, never which kernel it answers with, so they
/// are not part of the query.
fn run_flags(args: &ParsedArgs, mut cfg: SynthesisConfig) -> Result<SynthesisConfig, ArgsError> {
    cfg.dead_write_cut = args.flag("dead-write-cut");
    cfg.value_flow_cut = args.flag("value-flow-cut");
    if let Some(threads) = args.num::<usize>("threads")? {
        // All-solutions enumeration always runs sequentially (the full DAG
        // needs ordered parent edges); the engine ignores `threads` there.
        cfg.threads = threads;
    }
    if let Some(secs) = args.num::<f64>("timeout")? {
        cfg.budget = SearchBudget::with_timeout(Duration::from_secs_f64(secs));
    }
    if let Some(limit) = args.options.get("mem-limit") {
        cfg.mem_budget_bytes = Some(parse_bytes(limit)?);
    }
    cfg.spill_dir = args.options.get("spill-dir").map(PathBuf::from);
    cfg.resume_dir = args.options.get("resume").map(PathBuf::from);
    if let Some(path) = args.options.get("record") {
        let recorder = sortsynth_obs::FlightRecorder::create(path)
            .map_err(|e| ArgsError::new(format!("--record {path}: {e}")))?;
        cfg.progress_hook = Some(sortsynth_search::ProgressHook::new(move |p| {
            // Recording is best-effort: a full disk must not fail the synth.
            let _ = recorder.record(p);
        }));
    }
    Ok(cfg)
}

/// The stderr notes a finished search leaves: resume, spill, and the
/// lossless cuts' work.
fn report_stats(stats: &SearchStats) {
    if stats.resumed_frontier_states > 0 {
        info!(
            "# resumed {} frontier states from the journal",
            stats.resumed_frontier_states
        );
    }
    if stats.spilled_bytes > 0 {
        info!(
            "# spilled {} to disk ({} open states, {} closed entries, {} DDD duplicates)",
            fmt_bytes(stats.spilled_bytes),
            stats.spilled_open,
            stats.spilled_closed,
            stats.ddd_dedup_hits
        );
    }
    if stats.dead_write_pruned > 0 {
        info!(
            "# dead-write cut pruned {} successors",
            stats.dead_write_pruned
        );
    }
    if stats.value_flow_pruned > 0 {
        info!(
            "# value-flow cut pruned {} successors",
            stats.value_flow_pruned
        );
    }
}

fn prove(args: &ParsedArgs) -> Result<(), ArgsError> {
    let machine = machine_from(args)?;
    let len = args
        .num::<u32>("len")?
        .ok_or_else(|| ArgsError::new("prove needs --len"))?;
    let budget = args.num::<u64>("budget-states")?;
    let below = prove_no_solution(&machine, len - 1, budget, Some(Duration::from_secs(3600)));
    match below.verdict {
        BoundVerdict::SolutionExists => {
            println!(
                "a kernel of length <= {} exists: {} is NOT optimal",
                len - 1,
                len
            );
        }
        BoundVerdict::Inconclusive => {
            println!(
                "inconclusive after {} states; raise --budget-states",
                below.stats.generated
            );
        }
        BoundVerdict::NoSolution => {
            let at = synthesize(
                &SynthesisConfig::new(machine.clone())
                    .budget_viability(true)
                    .max_len(len),
            );
            if at.found_len == Some(len) {
                println!(
                    "proven: the optimal kernel length for n = {} ({:?}) is exactly {len}",
                    machine.n(),
                    machine.mode()
                );
            } else {
                println!("no kernel of length <= {len} exists");
            }
        }
    }
    Ok(())
}

fn read_program(args: &ParsedArgs, machine: &Machine) -> Result<Program, ArgsError> {
    let source = args
        .positional
        .first()
        .ok_or_else(|| ArgsError::new("expected a program file (or `-` for stdin)"))?;
    let text = if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| ArgsError::new(format!("stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(source).map_err(|e| ArgsError::new(format!("{source}: {e}")))?
    };
    machine
        .parse_program(&text)
        .map_err(|e| ArgsError::new(e.to_string()))
}

fn check(args: &ParsedArgs) -> Result<(), ArgsError> {
    let machine = machine_from(args)?;
    let prog = read_program(args, &machine)?;
    let counterexamples = machine.counterexamples(&prog);
    if counterexamples.is_empty() {
        println!(
            "OK: sorts all {} permutations ({} instructions)",
            sortsynth_isa::factorial(machine.n()),
            prog.len()
        );
        Ok(())
    } else {
        println!(
            "INCORRECT: fails {} of {} permutations; first counterexample: {:?}",
            counterexamples.len(),
            sortsynth_isa::factorial(machine.n()),
            counterexamples[0]
        );
        Err(ArgsError::new("kernel is incorrect"))
    }
}

fn analyze_cmd(args: &ParsedArgs) -> Result<(), ArgsError> {
    let machine = machine_from(args)?;
    let prog = read_program(args, &machine)?;
    let mix = InstrMix::of(&prog);
    let report = analyze(&prog, &ThroughputModel::default());
    println!("instructions : {}", prog.len());
    println!(
        "mix          : {} cmp, {} mov, {} cmov, {} min/max",
        mix.cmp, mix.mov, mix.cmov, mix.other
    );
    println!("score (§5.3) : {}", sampling_score(&prog));
    println!("critical path: {}", report.critical_path);
    println!(
        "cycles/iter  : {:.2} (predicted, uiCA-style model)",
        report.cycles_per_iteration
    );
    println!(
        "bottleneck   : {}",
        if report.latency_bound {
            "dependence chain (latency)"
        } else {
            "ports / issue width"
        }
    );
    println!(
        "correct      : {}",
        if machine.is_correct(&prog) {
            "yes"
        } else {
            "NO"
        }
    );
    Ok(())
}

/// `sortsynth lint`: run the static analyzer over a kernel and report the
/// verdict plus the lint catalog's diagnostics. Exits nonzero when any
/// diagnostic has error severity or the kernel is refuted outright.
fn lint(args: &ParsedArgs) -> Result<(), ArgsError> {
    let machine = machine_from(args)?;
    let prog = read_program(args, &machine)?;
    let report = verify(&machine, &prog);
    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string(&report).expect("value-tree serialization is infallible")
        );
    } else if args.flag("fix") {
        // `--fix` prints the dead-code-eliminated program instead of
        // diagnosing it; the summary goes to stderr so the output can be
        // piped straight back into `check`/`lint`.
        let slim = dce(&machine, &prog);
        info!(
            "# dead-code elimination: {} -> {} instructions",
            prog.len(),
            slim.len()
        );
        print!("{}", machine.format_program(&slim));
    } else {
        if !args.flag("plain") {
            println!("verdict: {}", report.verdict.wire_name());
            match &report.verdict {
                Verdict::CertifiedPermutations { classes } => {
                    println!("classes: {classes} order classes discharged symbolically");
                }
                Verdict::RefutedPermutation { witness } => {
                    println!("witness: permutation {witness:?} is not sorted by this kernel");
                }
                Verdict::RefutedZeroOne { witness } => {
                    println!("witness: {witness:?} is not sorted by this kernel");
                }
                Verdict::TieUnsafe { witness } => {
                    println!("witness: tied input {witness:?} is not sorted by this kernel");
                }
                _ => {}
            }
            if report.dce_len < report.len {
                println!(
                    "dce    : {} of {} instructions are removable",
                    report.len - report.dce_len,
                    report.len
                );
            }
        }
        for diagnostic in &report.diagnostics {
            println!("{diagnostic}");
        }
    }
    if report.has_errors() {
        return Err(ArgsError::new("lint found error-severity diagnostics"));
    }
    if report.verdict.refuted() {
        return Err(ArgsError::new("kernel is refuted by a 0-1 counterexample"));
    }
    Ok(())
}

fn run(args: &ParsedArgs) -> Result<(), ArgsError> {
    let machine = machine_from(args)?;
    let prog = read_program(args, &machine)?;
    let data_text = args
        .options
        .get("data")
        .ok_or_else(|| ArgsError::new("run needs --data V1,V2,..."))?;
    let mut data: Vec<i32> = Vec::new();
    for part in data_text.split(',') {
        data.push(
            part.trim()
                .parse()
                .map_err(|_| ArgsError::new(format!("--data: `{part}` is not an i32")))?,
        );
    }
    if data.len() < machine.n() as usize {
        return Err(ArgsError::new(format!(
            "--data needs at least {} values",
            machine.n()
        )));
    }
    let backend = if JitKernel::compile(&machine, &prog).is_ok() {
        let kernel = Kernel::from_program("cli", &machine, prog);
        kernel.sort(&mut data);
        "jit"
    } else {
        interpret(&machine, &prog, &mut data);
        "interpreter"
    };
    println!("{data:?}  ({backend})");
    Ok(())
}

fn serve(args: &ParsedArgs) -> Result<(), ArgsError> {
    let config = ServiceConfig {
        addr: addr(args),
        workers: args.num::<usize>("workers")?.unwrap_or(4),
        queue_depth: args.num::<usize>("queue-depth")?.unwrap_or(64),
        cache_dir: args.options.get("cache-dir").map(PathBuf::from),
        cache_capacity: args.num::<usize>("cache-capacity")?.unwrap_or(1024),
        default_timeout: match args.num::<f64>("timeout")? {
            Some(secs) => Some(Duration::from_secs_f64(secs)),
            None => Some(Duration::from_secs(30)),
        },
        search_threads: args.num::<usize>("search-threads")?.unwrap_or(1),
        // `--metrics` turns on periodic self-reporting of the live gauges;
        // the `metrics`/`stats` protocol verbs are always available.
        self_report: args.flag("metrics").then(|| Duration::from_secs(10)),
        // `--portfolio` races every backend for synth requests that don't
        // name one (an empty roster means "all arms" to the server).
        portfolio: args.flag("portfolio").then(Vec::new),
        record_dir: args.options.get("record-dir").map(PathBuf::from),
        search_mem_limit: args
            .options
            .get("search-mem-limit")
            .map(|v| parse_bytes(v))
            .transpose()?,
    };
    let server = Server::bind(config).map_err(|e| ArgsError::new(format!("bind: {e}")))?;
    // Tests (and scripts using port 0) parse this line for the bound port.
    info!("# sortsynth service listening on {}", server.local_addr());
    server
        .run()
        .map_err(|e| ArgsError::new(format!("serve: {e}")))
}

/// Reads program text for `client check|analyze` (the *server* parses it).
fn read_text(source: Option<&String>) -> Result<String, ArgsError> {
    let source =
        source.ok_or_else(|| ArgsError::new("expected a program file (or `-` for stdin)"))?;
    if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| ArgsError::new(format!("stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(source).map_err(|e| ArgsError::new(format!("{source}: {e}")))
    }
}

/// The `--addr` option, defaulting to the server's default listen address.
fn addr(args: &ParsedArgs) -> String {
    let addr = args.options.get("addr").cloned();
    addr.unwrap_or_else(|| ServiceConfig::default().addr)
}

/// Connects to the server at `addr`.
fn connect(addr: &str) -> Result<Client, ArgsError> {
    Client::connect(addr).map_err(|e| ArgsError::new(format!("connect {addr}: {e}")))
}

fn client_cmd(args: &ParsedArgs) -> Result<(), ArgsError> {
    let addr = addr(args);
    let op = args.positional.first().map(String::as_str).ok_or_else(|| {
        ArgsError::new(
            "client needs an operation: ping | synth | check | analyze | metrics | stats | watch",
        )
    })?;
    let mut client = connect(&addr)?;
    let response = match op {
        "ping" => client.ping(),
        "metrics" => client.metrics(),
        "stats" => client.stats(),
        "synth" => {
            let timeout_ms = args.num::<f64>("timeout")?.map(|s| (s * 1000.0) as u64);
            let backend = args.options.get("backend").cloned();
            client.synth_with(synth_query(args)?, timeout_ms, backend)
        }
        "check" | "analyze" => {
            let machine = machine_from(args)?;
            let text = read_text(args.positional.get(1))?;
            if op == "check" {
                client.check(machine, text)
            } else {
                client.analyze(machine, text)
            }
        }
        "watch" => {
            return stream_watch(&mut client, args, |frame, nodes_per_sec| {
                println!("{}", progress_line(frame, nodes_per_sec));
            })
        }
        other => {
            return Err(ArgsError::new(format!(
                "unknown client operation `{other}`"
            )))
        }
    }
    .map_err(|e| ArgsError::new(format!("request: {e}")))?;
    render_response(response)
}

/// One rendered line of a live progress frame.
fn progress_line(frame: &SearchProgress, nodes_per_sec: f64) -> String {
    let f_bound = match frame.f_bound {
        Some(f) => f.to_string(),
        None => "-".to_string(),
    };
    // Parallel runs report per-shard arenas; sequential (and spilling) runs
    // report a whole-search resident estimate instead.
    let mem: u64 = match frame.resident_bytes {
        0 => frame.shards.iter().map(|s| s.arena_bytes).sum(),
        resident => resident,
    };
    let mut line = format!(
        "t={:>7.2}s  expanded={:<10} open={:<9} f={:<3} nodes/s={:<9.0} mem={}",
        frame.elapsed.as_secs_f64(),
        frame.expanded,
        frame.open,
        f_bound,
        nodes_per_sec,
        fmt_bytes(mem),
    );
    if frame.spilled_bytes > 0 {
        line.push_str(&format!("  spilled={}", fmt_bytes(frame.spilled_bytes)));
    }
    if frame.finished {
        line.push_str(&format!(
            "  [finished: {}]",
            frame.outcome.as_deref().unwrap_or("?")
        ));
    }
    line
}

/// Streams an in-flight server search's frames through `render`, computing
/// a nodes/sec estimate from consecutive frames. Shared by `client watch`
/// (line per frame) and `top` (refreshing screen).
fn stream_watch(
    client: &mut Client,
    args: &ParsedArgs,
    render: impl Fn(&SearchProgress, f64),
) -> Result<(), ArgsError> {
    let backend = args.options.get("backend").cloned();
    let wait_ms = args.num::<u64>("wait-ms")?;
    client
        .begin_watch(synth_query(args)?, backend, wait_ms)
        .map_err(|e| ArgsError::new(format!("request: {e}")))?;
    let mut prev: Option<(Duration, u64)> = None; // (elapsed, expanded)
    loop {
        match client
            .next_frame()
            .map_err(|e| ArgsError::new(format!("request: {e}")))?
        {
            Response::Progress(frame) => {
                let nodes_per_sec = match prev {
                    Some((t0, e0)) if frame.elapsed > t0 => {
                        frame.expanded.saturating_sub(e0) as f64
                            / (frame.elapsed - t0).as_secs_f64()
                    }
                    _ if !frame.elapsed.is_zero() => {
                        frame.expanded as f64 / frame.elapsed.as_secs_f64()
                    }
                    _ => 0.0,
                };
                prev = Some((frame.elapsed, frame.expanded));
                let finished = frame.finished;
                render(&frame, nodes_per_sec);
                if finished {
                    return Ok(());
                }
            }
            other => return render_response(other),
        }
    }
}

/// `sortsynth stats`: query a running server for its live counters.
fn stats_cmd(args: &ParsedArgs) -> Result<(), ArgsError> {
    let response = connect(&addr(args))?.stats();
    render_response(response.map_err(|e| ArgsError::new(format!("request: {e}")))?)
}

/// `sortsynth profile`: run one search with the phase profiler enabled and
/// print the per-phase attribution table.
fn profile_cmd(args: &ParsedArgs) -> Result<(), ArgsError> {
    use sortsynth_obs::profile::{time_global, Phase, PHASE_COUNT};

    sortsynth_obs::profile::set_enabled(true);
    let cfg = run_flags(args, engine_config(&synth_query(args)?))?;
    let machine = &cfg.machine;
    let result = try_synthesize(&cfg).map_err(|e| ArgsError::new(e.to_string()))?;

    // The engine attributes its own phases; the verification gate of the
    // found kernel runs here, timed onto the VerifyGate counter (read back
    // as a delta so earlier runs in this process don't leak in).
    let mut phase_nanos: [u64; PHASE_COUNT] = result.stats.phase_nanos;
    let gate_counter = format!("sortsynth_phase_{}_nanos_total", Phase::VerifyGate.token());
    let mut gate_nanos = 0;
    if let Some(prog) = result.first_program() {
        let before = sortsynth_obs::registry().counter_value(&gate_counter);
        time_global(Phase::VerifyGate, || sortsynth_verify::gate(machine, &prog))
            .map_err(|e| ArgsError::new(format!("verification gate refused the kernel: {e}")))?;
        gate_nanos = sortsynth_obs::registry().counter_value(&gate_counter) - before;
        phase_nanos[Phase::VerifyGate as usize] += gate_nanos;
    }
    sortsynth_obs::profile::set_enabled(false);

    match result.found_len {
        Some(len) => info!(
            "# length {len}, {} states explored in {:?}",
            result.stats.generated, result.stats.search_time
        ),
        None => info!("# no kernel found (outcome {:?})", result.outcome),
    }
    let wall = result.stats.distance_build.as_nanos() as u64
        + result.stats.search_time.as_nanos() as u64
        + gate_nanos;
    let attributed: u64 = phase_nanos.iter().sum();
    println!("{:<18} {:>12} {:>7}  description", "phase", "time", "share");
    for phase in Phase::ALL {
        let nanos = phase_nanos[phase as usize];
        let share = if wall > 0 {
            100.0 * nanos as f64 / wall as f64
        } else {
            0.0
        };
        println!(
            "{:<18} {:>12} {:>6.1}%  {}",
            phase.token(),
            fmt_nanos(nanos),
            share,
            phase.describe()
        );
    }
    println!(
        "attributed {} of {} wall ({:.1}%)",
        fmt_nanos(attributed),
        fmt_nanos(wall),
        if wall > 0 {
            100.0 * attributed as f64 / wall as f64
        } else {
            0.0
        }
    );
    Ok(())
}

/// `sortsynth inspect`: post-mortem summary of a flight recording.
fn inspect_cmd(args: &ParsedArgs) -> Result<(), ArgsError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| ArgsError::new("inspect needs a recording path (see synth --record)"))?;
    let recording =
        sortsynth_obs::read_recording(path).map_err(|e| ArgsError::new(format!("{path}: {e}")))?;
    if recording.frames.is_empty() {
        return Err(ArgsError::new(format!(
            "{path}: no intact frames ({} bytes lost)",
            recording.lost_bytes
        )));
    }
    let last = recording.frames.last().unwrap();
    let duration_secs = last.elapsed.as_secs_f64();
    let avg_nodes_per_sec = if duration_secs > 0.0 {
        last.expanded as f64 / duration_secs
    } else {
        0.0
    };
    // Peak rate and per-shard high-water marks come from frame deltas: the
    // recording is the only survivor of a crashed run, so everything is
    // derived from it rather than from live engine state.
    let mut peak_nodes_per_sec = avg_nodes_per_sec;
    for pair in recording.frames.windows(2) {
        let dt = pair[1]
            .elapsed
            .saturating_sub(pair[0].elapsed)
            .as_secs_f64();
        if dt > 0.0 {
            let rate = pair[1].expanded.saturating_sub(pair[0].expanded) as f64 / dt;
            peak_nodes_per_sec = peak_nodes_per_sec.max(rate);
        }
    }
    let shard_count = recording
        .frames
        .iter()
        .map(|f| f.shards.len())
        .max()
        .unwrap_or(0);
    let mut shard_peaks = vec![ShardSnapshot::default(); shard_count];
    for frame in &recording.frames {
        for (i, shard) in frame.shards.iter().enumerate() {
            let peak = &mut shard_peaks[i];
            peak.interned_states = peak.interned_states.max(shard.interned_states);
            peak.arena_bytes = peak.arena_bytes.max(shard.arena_bytes);
            peak.open_depth = peak.open_depth.max(shard.open_depth);
        }
    }
    let (peak_arena_shard, peak_arena_bytes) = shard_peaks
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.arena_bytes))
        .max_by_key(|&(_, b)| b)
        .unwrap_or((0, 0));

    if args.flag("json") {
        use serde::Serialize;
        let shards = shard_peaks
            .iter()
            .map(|s| {
                let values = s.values().map(Value::UInt);
                Value::map(ShardSnapshot::FIELDS.into_iter().zip(values))
            })
            .collect();
        let columns = COLUMNS
            .iter()
            .map(|col| (col.name, (col.get)(last).serialize()));
        let value = Value::map(columns.chain([
            ("frames", Value::UInt(recording.frames.len() as u64)),
            ("segments", Value::UInt(recording.segments as u64)),
            ("lost_bytes", Value::UInt(recording.lost_bytes)),
            ("rejected_tail", Value::Bool(recording.rejected_tail)),
            ("duration_secs", Value::Float(duration_secs)),
            ("finished", Value::Bool(last.finished)),
            ("outcome", last.outcome.serialize()),
            ("avg_nodes_per_sec", Value::Float(avg_nodes_per_sec)),
            ("peak_nodes_per_sec", Value::Float(peak_nodes_per_sec)),
            (
                "distance_table_skipped",
                Value::Bool(last.distance_table_skipped),
            ),
            ("peak_arena_bytes", Value::UInt(peak_arena_bytes)),
            ("shards", Value::Seq(shards)),
        ]));
        println!(
            "{}",
            serde_json::to_string(&value).expect("value-tree serialization is infallible")
        );
        return Ok(());
    }

    // Keyed `name: value` lines, one fact per line, greppable from CI.
    println!(
        "frames: {} ({} segment{}, {} bytes lost{})",
        recording.frames.len(),
        recording.segments,
        if recording.segments == 1 { "" } else { "s" },
        recording.lost_bytes,
        if recording.rejected_tail {
            ", torn tail dropped"
        } else {
            ""
        }
    );
    println!("duration: {duration_secs:.2}s");
    println!("finished: {}", last.finished);
    println!("outcome: {}", last.outcome.as_deref().unwrap_or("-"));
    println!("nodes/sec: {avg_nodes_per_sec:.0} avg, {peak_nodes_per_sec:.0} peak");
    if last.distance_table_skipped {
        println!("distance table: skipped (degraded pruning)");
    }
    print_columns(last);
    for (i, shard) in shard_peaks.iter().enumerate() {
        println!(
            "shard {i}: peak {} states, {} arena, open depth {}",
            shard.interned_states,
            fmt_bytes(shard.arena_bytes),
            shard.open_depth
        );
    }
    println!("peak arena_bytes: {peak_arena_bytes} (shard {peak_arena_shard})");
    Ok(())
}

/// `sortsynth top`: live view of an in-flight server search, refreshing in
/// place on a terminal and degrading to one line per frame in a pipe.
fn top_cmd(args: &ParsedArgs) -> Result<(), ArgsError> {
    use std::io::IsTerminal;
    let addr = addr(args);
    let mut client = connect(&addr)?;
    let clear = std::io::stdout().is_terminal();
    stream_watch(&mut client, args, move |frame, nodes_per_sec| {
        if clear {
            // Home + clear-to-end keeps the dashboard in place per frame.
            print!("\x1b[H\x1b[2J");
        }
        println!("sortsynth top — {addr}");
        println!("{}", progress_line(frame, nodes_per_sec));
        print_columns(frame);
        for (i, shard) in frame.shards.iter().enumerate() {
            println!(
                "shard {i}: {} states, {} arena, open depth {}",
                shard.interned_states,
                fmt_bytes(shard.arena_bytes),
                shard.open_depth
            );
        }
    })
}

/// One `name: value` line per progress column, `-` for an absent value.
fn print_columns(progress: &SearchProgress) {
    for col in COLUMNS {
        match (col.get)(progress) {
            Some(value) => println!("{}: {value}", col.name),
            None => println!("{}: -", col.name),
        }
    }
}

/// Human-readable byte count.
fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

/// Human-readable nanosecond duration.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn render_response(response: Response) -> Result<(), ArgsError> {
    match response {
        Response::Pong => {
            println!("pong");
            Ok(())
        }
        Response::Slept => {
            println!("slept");
            Ok(())
        }
        Response::Synth(reply) => {
            let source = match reply.source {
                ReplySource::Computed => "computed",
                ReplySource::Cache => "from cache",
                ReplySource::Coalesced => "coalesced",
            };
            if reply.distance_table_skipped {
                warn!("# note: machine too large for the distance table; searched with degraded pruning");
            }
            match reply.program {
                Some(text) => {
                    info!(
                        "# length {}, {source}, search {} ms{}{}",
                        reply.found_len.unwrap_or(0),
                        reply.search_millis,
                        if reply.minimal_certified {
                            ", minimal"
                        } else {
                            ""
                        },
                        match &reply.backend {
                            Some(backend) => format!(", backend {backend}"),
                            None => String::new(),
                        }
                    );
                    print!("{text}");
                    Ok(())
                }
                None => Err(ArgsError::new(
                    "no kernel exists within the requested bound",
                )),
            }
        }
        Response::Check(reply) => {
            if reply.correct {
                println!("OK: kernel is correct");
                Ok(())
            } else {
                println!("INCORRECT: fails {} permutations", reply.counterexamples);
                Err(ArgsError::new("kernel is incorrect"))
            }
        }
        Response::Analyze(report) => {
            println!("critical path: {}", report.critical_path);
            println!("cycles/iter  : {:.2}", report.cycles_per_iteration);
            println!(
                "bottleneck   : {}",
                if report.latency_bound {
                    "dependence chain (latency)"
                } else {
                    "ports / issue width"
                }
            );
            println!("verdict      : {}", report.verdict);
            for lint in &report.lints {
                match lint.index {
                    Some(i) => {
                        println!("{}[{}] at {i}: {}", lint.severity, lint.kind, lint.message)
                    }
                    None => println!("{}[{}]: {}", lint.severity, lint.kind, lint.message),
                }
            }
            if report.lints.iter().any(|l| l.severity == "error") {
                return Err(ArgsError::new("analysis found error-severity lints"));
            }
            Ok(())
        }
        Response::Metrics { text } => {
            print!("{text}");
            Ok(())
        }
        Response::Stats(s) => {
            // One `name: value` line per scalar row of the reply's table;
            // the dispatch table, its one list, prints as a block below.
            for (name, value) in s.entries() {
                if !matches!(value, Value::Seq(_)) {
                    let value = serde_json::to_string(&value)
                        .expect("value-tree serialization is infallible");
                    println!("{name}: {value}");
                }
            }
            if !s.portfolio.is_empty() {
                println!("dispatch table (shape backend wins losses cancelled millis):");
                for row in &s.portfolio {
                    println!(
                        "  {:<12} {:<10} {:>5} {:>6} {:>9} {:>7}",
                        row.shape,
                        row.backend,
                        row.wins,
                        row.losses,
                        row.cancelled,
                        row.total_millis
                    );
                }
            }
            Ok(())
        }
        Response::Timeout(t) => Err(ArgsError::new(format!("server {}", Failure::Timeout(t)))),
        Response::Progress(frame) => {
            // Progress frames normally stay inside the watch stream loop;
            // render a stray one rather than erroring.
            println!("{}", progress_line(&frame, 0.0));
            Ok(())
        }
        Response::Overloaded => Err(ArgsError::new("server overloaded; retry later")),
        Response::Error { message } => Err(ArgsError::new(format!("server error: {message}"))),
    }
}
