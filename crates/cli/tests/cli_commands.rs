//! Integration tests driving the installed `sortsynth` binary end-to-end.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn sortsynth() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sortsynth"))
}

#[test]
fn synth_emits_a_correct_kernel() {
    let out = sortsynth()
        .args(["synth", "--n", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let program = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(
        program.lines().count(),
        4,
        "optimal n = 2 kernel:\n{program}"
    );

    // Feed the synthesized kernel back through `check` via stdin.
    let mut check = sortsynth()
        .args(["check", "-", "--n", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn check");
    check
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(program.as_bytes())
        .expect("write program");
    let out = check.wait_with_output().expect("check runs");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
}

#[test]
fn check_rejects_incorrect_kernels() {
    let mut check = sortsynth()
        .args(["check", "-", "--n", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn check");
    check
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"mov r1 r2\n")
        .expect("write program");
    let out = check.wait_with_output().expect("check runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("INCORRECT"));
}

#[test]
fn run_sorts_data() {
    let mut run = sortsynth()
        .args(["run", "-", "--n", "2", "--data", "5,-5"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn run");
    run.stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"mov s1 r2\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n")
        .expect("write program");
    let out = run.wait_with_output().expect("run runs");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[-5, 5]"));
}

#[test]
fn analyze_reports_cost_model() {
    let mut analyze = sortsynth()
        .args(["analyze", "-", "--n", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn analyze");
    analyze
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"mov s1 r2\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n")
        .expect("write program");
    let out = analyze.wait_with_output().expect("analyze runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("instructions : 4"));
    assert!(text.contains("correct      : yes"));
}

/// The paper's §2.3 stale-flags kernel: passes every 0-1 input but fails
/// [1, 3, 2]. The linter must flag it statically.
const STALE_2_3: &[u8] = b"mov s1 r1\ncmp r1 r2\ncmovg r1 r2\ncmovg r2 s1\nmov s1 r3\ncmp r2 r3\ncmovg r3 r2\ncmovg r2 s1\ncmovg r2 r1\ncmovg r1 s1\n";

fn lint_with_stdin(extra: &[&str], program: &[u8]) -> std::process::Output {
    let mut args = vec!["lint", "-"];
    args.extend_from_slice(extra);
    let mut lint = sortsynth()
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lint");
    lint.stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(program)
        .expect("write program");
    lint.wait_with_output().expect("lint runs")
}

#[test]
fn lint_flags_the_stale_flags_kernel_statically() {
    let out = lint_with_stdin(&["--n", "3"], STALE_2_3);
    assert!(!out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("dead-conditional-write"), "{text}");
    // The symbolic value-flow walk refutes this kernel outright with a
    // concrete witness (it passes every 0-1 input but not [1, 3, 2]).
    assert!(text.contains("refuted-perm"), "{text}");
    assert!(text.contains("witness"), "{text}");
}

#[test]
fn lint_certifies_a_correct_network() {
    let out = lint_with_stdin(
        &["--n", "2"],
        b"mov s1 r2\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n",
    );
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("certified-network"));
}

#[test]
fn lint_json_is_machine_readable() {
    let out = lint_with_stdin(&["--n", "3", "--json"], STALE_2_3);
    assert!(!out.status.success(), "error severity still exits nonzero");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"verdict\""), "{text}");
    assert!(text.contains("dead-conditional-write"), "{text}");
}

#[test]
fn lint_fix_prints_the_minimized_program() {
    // A correct CAS padded with a dead scratch write: --fix strips it.
    let out = lint_with_stdin(
        &["--n", "2", "--scratch", "2", "--fix"],
        b"mov s1 r2\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\nmov s2 r1\n",
    );
    assert!(out.status.success(), "{out:?}");
    let fixed = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(fixed.lines().count(), 4, "{fixed}");
    assert!(!fixed.contains("s2"), "{fixed}");
}

#[test]
fn prove_certifies_the_n2_bound() {
    let out = sortsynth()
        .args(["prove", "--n", "2", "--len", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("exactly 4"));
}

#[test]
fn synth_all_enumerates_solutions() {
    let out = sortsynth()
        .args(["synth", "--n", "2", "--all", "--limit", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.matches("# solution").count() == 3, "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = sortsynth()
        .args(["frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn impossible_query_returns_a_clean_timeout_error() {
    // n = 4 with a length bound below the lower bound and no pruning aids:
    // the plain layered search can neither find a kernel nor exhaust the
    // space quickly, so the --timeout budget is what ends it.
    let out = sortsynth()
        .args([
            "synth",
            "--n",
            "4",
            "--plain",
            "--max-len",
            "15",
            "--timeout",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("timed out"), "{err}");
}

#[test]
fn synth_cache_dir_round_trip() {
    let dir = std::env::temp_dir().join(format!("sortsynth-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().expect("utf-8 temp path");

    // Cold: synthesizes and persists.
    let cold = sortsynth()
        .args(["synth", "--n", "3", "--cache-dir", cache_dir])
        .output()
        .expect("binary runs");
    assert!(cold.status.success(), "{cold:?}");
    let cold_program = String::from_utf8_lossy(&cold.stdout).to_string();
    assert_eq!(cold_program.lines().count(), 11, "{cold_program}");

    // Warm: identical program, served from the cache without a search.
    let warm = sortsynth()
        .args(["synth", "--n", "3", "--cache-dir", cache_dir])
        .output()
        .expect("binary runs");
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(String::from_utf8_lossy(&warm.stdout), cold_program);
    assert!(String::from_utf8_lossy(&warm.stderr).contains("from cache"));

    // A different query is a miss, not a collision.
    let other = sortsynth()
        .args([
            "synth",
            "--n",
            "3",
            "--max-len",
            "12",
            "--cache-dir",
            cache_dir,
        ])
        .output()
        .expect("binary runs");
    assert!(other.status.success(), "{other:?}");
    assert!(!String::from_utf8_lossy(&other.stderr).contains("from cache"));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn backend_answer_is_a_cache_hit_for_the_engine_route() {
    let dir = std::env::temp_dir().join(format!(
        "sortsynth-cli-backend-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache_dir = dir.to_str().expect("utf-8 temp path");

    // A named backend answers the query and caches it under the query key.
    let cold = sortsynth()
        .args([
            "synth",
            "--n",
            "3",
            "--backend",
            "astar",
            "--cache-dir",
            cache_dir,
        ])
        .output()
        .expect("binary runs");
    assert!(cold.status.success(), "{cold:?}");
    let cold_program = String::from_utf8_lossy(&cold.stdout).to_string();
    assert_eq!(cold_program.lines().count(), 11, "{cold_program}");
    assert!(!String::from_utf8_lossy(&cold.stderr).contains("from cache"));

    // The same query without a backend is answered from that entry.
    let warm = sortsynth()
        .args(["synth", "--n", "3", "--cache-dir", cache_dir])
        .output()
        .expect("binary runs");
    assert!(warm.status.success(), "{warm:?}");
    assert_eq!(String::from_utf8_lossy(&warm.stdout), cold_program);
    assert!(String::from_utf8_lossy(&warm.stderr).contains("from cache"));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn engine_flags_are_refused_by_backends_that_do_not_run_the_engine() {
    let dir =
        std::env::temp_dir().join(format!("sortsynth-cli-engine-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8").to_string();
    let record = path("refused.ssfr");
    let engine_flags: [&[&str]; 7] = [
        &["--threads", "2"],
        &["--mem-limit", "1M"],
        &["--spill-dir", &path("spill")],
        &["--resume", &path("resume")],
        &["--record", &record],
        &["--dead-write-cut"],
        &["--value-flow-cut"],
    ];
    for backend in ["cegis", "smt-min", "mcts", "stoke", "plan", "portfolio"] {
        for flag in engine_flags {
            let out = sortsynth()
                .args(["synth", "--n", "2", "--backend", backend])
                .args(flag)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{backend} {flag:?}: {out:?}");
            assert!(
                stderr.contains(flag[0]) && stderr.contains(&format!("`{backend}`")),
                "{backend} {flag:?}: {stderr}"
            );
        }
    }
    assert!(
        !dir.join("refused.ssfr").exists(),
        "a refused run records nothing"
    );

    // The two-thread engine is no arm of its own: its old name is unknown.
    let out = sortsynth()
        .args(["synth", "--n", "2", "--backend", "astar-par"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(
        "unknown backend `astar-par` (expected portfolio or one of: \
         astar, cegis, smt-min, mcts, stoke, plan)"
    ));

    // The engine takes them, named or not.
    for backend in [&["--backend", "astar"][..], &[]] {
        let out = sortsynth()
            .args(["synth", "--n", "2", "--threads", "2", "--record", &record])
            .args(backend)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{backend:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 4);
        assert!(dir.join("refused.ssfr").exists(), "{backend:?}");
        std::fs::remove_file(&record).expect("recording");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn serve_and_client_round_trip() {
    use std::io::{BufRead as _, BufReader};

    let mut server = sortsynth()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server");
    // The first stderr line announces the bound address (port 0 → OS pick).
    let mut banner = String::new();
    BufReader::new(server.stderr.as_mut().expect("piped stderr"))
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .trim()
        .to_string();

    let ping = sortsynth()
        .args(["client", "ping", "--addr", &addr])
        .output()
        .expect("binary runs");
    assert!(ping.status.success(), "{ping:?}");
    assert!(String::from_utf8_lossy(&ping.stdout).contains("pong"));

    let synth = sortsynth()
        .args([
            "client",
            "synth",
            "--n",
            "3",
            "--addr",
            &addr,
            "--timeout",
            "60",
        ])
        .output()
        .expect("binary runs");
    assert!(synth.status.success(), "{synth:?}");
    let program = String::from_utf8_lossy(&synth.stdout).to_string();
    assert_eq!(program.lines().count(), 11, "{program}");

    // Round-trip the synthesized kernel through the server-side checker.
    let mut check = sortsynth()
        .args(["client", "check", "-", "--n", "3", "--addr", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn client check");
    check
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(program.as_bytes())
        .expect("write program");
    let out = check.wait_with_output().expect("check runs");
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    server.kill().expect("kill server");
    let _ = server.wait();
}

#[test]
fn minmax_isa_is_selectable() {
    let out = sortsynth()
        .args(["synth", "--n", "3", "--isa", "minmax"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let program = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(program.lines().count(), 8, "{program}");
    assert!(program.contains("min") || program.contains("max"));
}
