//! The shipped sizing rows (`src/sizing_rows.txt`) against the runs they
//! describe, and the rule that only solved runs write a row.
//!
//! A table-backed, unbudgeted run with no row of its own pre-sizes from
//! the shipped row of its machine. Each shipped row must be exactly what a
//! cold `SynthesisConfig::best` run records, so that run, reading it,
//! never grows its arena, and the rows cannot drift from the engine. The
//! n = 4 cmp/cmov and n = 5 min/max rows are release-only, like the
//! headline rows of `golden_trace`: `#[ignore]`d, and run by CI with
//! `--release -- --include-ignored`.

use std::path::PathBuf;

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{synthesize, Outcome, SynthesisConfig, SynthesisResult};

use IsaMode::{Cmov, MinMax};

const SHIPPED: &str = include_str!("../src/sizing_rows.txt");

/// A fresh sizing file path, unique to this process and `tag`.
fn fresh_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sssizing-rows-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join("sizing.txt")
}

/// The row line `text` holds for the one-scratch machine (n, mode).
fn row_line(text: &str, n: u8, mode: IsaMode) -> Option<String> {
    let key = format!("{n} 1 {} ", mode.wire_name());
    text.lines()
        .find(|line| line.starts_with(&key))
        .map(str::to_string)
}

/// Runs `best` on (n, mode) with a fresh sizing path and checks that it
/// writes the shipped row and never grows its arena.
fn cold_best_writes_the_shipped_row(n: u8, mode: IsaMode) -> SynthesisResult {
    let label = format!("n{n} {mode:?}");
    let path = fresh_path(&format!("n{n}-{}", mode.wire_name()));
    let cfg = SynthesisConfig::best(Machine::new(n, 1, mode)).sizing_path(&path);
    let result = synthesize(&cfg);
    assert_eq!(result.outcome, Outcome::Solved, "{label}");
    let written = std::fs::read_to_string(&path).expect("a solved run writes its row");
    let shipped = row_line(SHIPPED, n, mode);
    assert!(shipped.is_some(), "{label}: no shipped row");
    assert_eq!(
        row_line(&written, n, mode),
        shipped,
        "{label}: shipped row drifted"
    );
    assert_eq!(
        result.stats.arena_reallocs, 0,
        "{label}: the shipped row left arena reallocations"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    result
}

#[test]
#[cfg_attr(miri, ignore = "sizing rows do real file I/O")]
fn shipped_rows_match_cold_best_runs() {
    for (n, mode) in [(2, Cmov), (2, MinMax), (3, Cmov), (3, MinMax), (4, MinMax)] {
        cold_best_writes_the_shipped_row(n, mode);
    }
}

#[test]
#[cfg_attr(miri, ignore = "sizing rows do real file I/O")]
#[ignore = "release-only headline row; CI runs it with --release"]
fn shipped_row_n4_cmov() {
    let result = cold_best_writes_the_shipped_row(4, Cmov);
    assert_eq!(result.stats.key_bytes, 7_340_032);
}

#[test]
#[cfg_attr(miri, ignore = "sizing rows do real file I/O")]
#[ignore = "release-only headline row; CI runs it with --release"]
fn shipped_row_n5_minmax() {
    let result = cold_best_writes_the_shipped_row(5, MinMax);
    assert_eq!(result.stats.key_bytes, 1_835_008);
}

/// A lossless exhaustion to length 7 on n = 3 cmp/cmov (whose optimum is
/// 11) interns some 30 times the states `best` keeps. It ends `Exhausted`,
/// so it writes no row, and a `best` run on the same sizing path reserves
/// what a cold one does.
#[test]
#[cfg_attr(miri, ignore = "sizing rows do real file I/O")]
fn a_proof_leaves_the_best_row_alone() {
    let machine = Machine::new(3, 1, Cmov);
    let best =
        |path: &PathBuf| synthesize(&SynthesisConfig::best(machine.clone()).sizing_path(path));
    let cold_path = fresh_path("cold");
    let cold = best(&cold_path);

    let path = fresh_path("proof");
    let proof = synthesize(
        &SynthesisConfig::new(machine.clone())
            .dead_write_cut(true)
            .value_flow_cut(true)
            .max_len(7)
            .sizing_path(&path),
    );
    assert_eq!(proof.outcome, Outcome::Exhausted);
    let (proved, kept) = (proof.stats.interned_states, cold.stats.interned_states);
    assert!(
        proved > 10 * kept,
        "the proof interned {proved} states, best {kept}"
    );
    assert!(!path.exists(), "an exhaustion wrote a sizing row");

    let after = best(&path);
    assert_eq!(after.stats.key_bytes, cold.stats.key_bytes);
    assert_eq!(after.stats.arena_bytes, cold.stats.arena_bytes);
    for p in [cold_path, path] {
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }
}
