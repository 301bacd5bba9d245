//! Golden traces of the single-thread search.
//!
//! Every row runs one (machine, configuration) cell on one thread and pins
//! the run's outcome, kernel, and search counters to constants recorded
//! before the two engines were restated as one core. A single-thread run is
//! deterministic, so any change to selection order, successor merge,
//! deduplication, pruning, or the open list shows up here as a changed
//! count — the suite is what lets the engine's internals move without the
//! search's decisions moving with them.
//!
//! The constants also carry two retired differential references: they were
//! recorded while the bucket queue was pinned to a reference `BinaryHeap`
//! and the u64 closed-set key to a full 128-bit key, both with identical
//! counters, so matching them keeps both guarantees. The queue-level heap
//! reference lives on in `proptest_search.rs`, the fold-collision fuzz in
//! `key_width.rs`.
//!
//! The unpruned n = 3 cmp/cmov rows, the unpruned n = 4 min/max rows, and
//! the n = 4 cmp/cmov headline take minutes in a debug build; they are
//! `#[ignore]`d and run by CI with `--release -- --include-ignored`.

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{
    synthesize, Cut, Heuristic, Outcome, Strategy, SynthesisConfig, SynthesisResult,
};

use IsaMode::{Cmov, MinMax};
use Kind::*;
use Outcome::{Solved, SolvedAll};

/// The configuration of one row.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Layered search, erasure viability only (`SynthesisConfig::new`).
    New,
    /// The paper's configuration (III) (`SynthesisConfig::best`).
    Best,
    /// Layered search with the two lossless successor cuts.
    Lossless,
    /// A* without a heuristic (uniform cost).
    Ucs,
    /// A* with the admissible `MaxRemaining` heuristic.
    MaxRem,
    /// [`Kind::MaxRem`] plus the dead-write cut.
    MaxRemDw,
}

/// The optimal kernel length of each machine, used as `max_len`.
fn bound(n: u8, mode: IsaMode) -> u32 {
    match (n, mode) {
        (2, Cmov) => 4,
        (2, MinMax) => 3,
        (3, Cmov) => 11,
        (3, MinMax) => 8,
        (4, Cmov) => 20,
        (4, MinMax) => 15,
        _ => unreachable!("no golden rows for n = {n}"),
    }
}

fn config(n: u8, mode: IsaMode, kind: Kind) -> SynthesisConfig {
    let machine = Machine::new(n, 1, mode);
    let base = SynthesisConfig::new(machine.clone()).max_len(bound(n, mode));
    let astar = |heuristic| Strategy::AStar { heuristic };
    match kind {
        New => base,
        Best => SynthesisConfig::best(machine),
        Lossless => base.dead_write_cut(true).value_flow_cut(true),
        Ucs => base.strategy(astar(Heuristic::None)),
        MaxRem => base
            .budget_viability(true)
            .strategy(astar(Heuristic::MaxRemaining)),
        MaxRemDw => base
            .budget_viability(true)
            .strategy(astar(Heuristic::MaxRemaining))
            .dead_write_cut(true),
    }
}

/// Names of [`Row::counters`], in order.
const COUNTERS: [&str; 10] = [
    "expanded",
    "generated",
    "dedup_hits",
    "viability_pruned",
    "cut_pruned",
    "dead_write_pruned",
    "value_flow_pruned",
    "states_kept",
    "stale_pops",
    "swar_batches",
];

/// One pinned single-thread run.
struct Row {
    n: u8,
    mode: IsaMode,
    kind: Kind,
    outcome: Outcome,
    len: Option<u32>,
    /// The first kernel, one instruction per `; `-separated item.
    kernel: &'static str,
    /// The search counters named by [`COUNTERS`].
    counters: [u64; 10],
}

const fn row(
    n: u8,
    mode: IsaMode,
    kind: Kind,
    outcome: Outcome,
    len: Option<u32>,
    kernel: &'static str,
    counters: [u64; 10],
) -> Row {
    Row {
        n,
        mode,
        kind,
        outcome,
        len,
        kernel,
        counters,
    }
}

fn counters(result: &SynthesisResult) -> [u64; 10] {
    let s = &result.stats;
    [
        s.expanded,
        s.generated,
        s.dedup_hits,
        s.viability_pruned,
        s.cut_pruned,
        s.dead_write_pruned,
        s.value_flow_pruned,
        s.states_kept,
        s.stale_pops,
        s.swar_batches,
    ]
}

fn kernel_text(machine: &Machine, result: &SynthesisResult) -> String {
    result
        .first_program()
        .map(|p| machine.format_program(&p).trim_end().replace('\n', "; "))
        .unwrap_or_default()
}

/// Runs every row and reports all divergences at once, each with the
/// counter names that moved.
fn check(rows: &[Row]) {
    let mut failures = Vec::new();
    for r in rows {
        let label = format!("n{} {:?} {:?}", r.n, r.mode, r.kind);
        let machine = Machine::new(r.n, 1, r.mode);
        let result = synthesize(&config(r.n, r.mode, r.kind));
        let got = counters(&result);
        let moved: Vec<String> = COUNTERS
            .iter()
            .zip(got.iter().zip(&r.counters))
            .filter(|(_, (g, w))| g != w)
            .map(|(name, (g, w))| format!("{name} {w} -> {g}"))
            .collect();
        let kernel = kernel_text(&machine, &result);
        if result.outcome != r.outcome || result.found_len != r.len || kernel != r.kernel {
            failures.push(format!(
                "{label}: {:?} len {:?} kernel `{kernel}`, expected {:?} len {:?} kernel `{}`",
                result.outcome, result.found_len, r.outcome, r.len, r.kernel
            ));
        }
        if !moved.is_empty() {
            failures.push(format!("{label}: {}", moved.join(", ")));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[cfg_attr(miri, ignore = "golden traces are too slow under miri")]
fn n2_rows() {
    check(&[
        row(
            2,
            Cmov,
            New,
            Solved,
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            [20, 420, 236, 132, 0, 0, 0, 53, 0, 420],
        ),
        row(
            2,
            Cmov,
            Best,
            Solved,
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            [16, 86, 54, 3, 0, 0, 0, 30, 0, 83],
        ),
        row(
            2,
            Cmov,
            Lossless,
            Solved,
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            [20, 229, 53, 124, 0, 44, 147, 53, 0, 229],
        ),
        row(
            2,
            Cmov,
            Ucs,
            Solved,
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            [40, 840, 453, 304, 0, 0, 0, 84, 12, 840],
        ),
        row(
            2,
            Cmov,
            MaxRem,
            Solved,
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            [21, 441, 73, 344, 0, 0, 0, 25, 0, 97],
        ),
        row(
            2,
            Cmov,
            MaxRemDw,
            Solved,
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            [21, 395, 68, 303, 0, 46, 0, 25, 0, 92],
        ),
        row(
            2,
            MinMax,
            New,
            Solved,
            Some(3),
            "mov s1 r1; min r1 r2; max r2 s1",
            [5, 90, 42, 36, 0, 0, 0, 11, 0, 90],
        ),
        row(
            2,
            MinMax,
            Best,
            Solved,
            Some(3),
            "mov s1 r1; min r1 r2; max r2 s1",
            [5, 14, 7, 1, 0, 0, 0, 7, 0, 13],
        ),
        row(
            2,
            MinMax,
            Lossless,
            Solved,
            Some(3),
            "mov s1 r1; min r1 r2; max r2 s1",
            [5, 51, 8, 32, 0, 8, 31, 11, 0, 51],
        ),
        row(
            2,
            MinMax,
            Ucs,
            Solved,
            Some(3),
            "mov s1 r1; min r1 r2; max r2 s1",
            [10, 180, 89, 76, 0, 0, 0, 16, 0, 180],
        ),
        row(
            2,
            MinMax,
            MaxRem,
            Solved,
            Some(3),
            "mov s1 r1; min r1 r2; max r2 s1",
            [6, 108, 4, 98, 0, 0, 0, 7, 0, 10],
        ),
        row(
            2,
            MinMax,
            MaxRemDw,
            Solved,
            Some(3),
            "mov s1 r1; min r1 r2; max r2 s1",
            [6, 98, 4, 88, 0, 10, 0, 7, 0, 10],
        ),
    ]);
}

#[test]
#[cfg_attr(miri, ignore = "golden traces are too slow under miri")]
fn n3_rows() {
    check(&[
        row(3, Cmov, Best, Solved, Some(11), "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1; mov s1 r3; cmp r2 r3; cmovg r3 r2; cmovg r2 s1; cmp r1 r2; cmovg r2 r1; cmovg r1 s1", [4176, 53355, 12262, 11869, 24701, 0, 0, 4524, 0, 16785]),
        row(3, Cmov, MaxRem, Solved, Some(11), "mov s1 r1; cmp r1 r2; cmovl s1 r2; cmovl r2 r1; mov r1 r2; cmp r1 r3; cmovl r2 r3; cmovg r1 r3; cmp r2 s1; cmovl r3 s1; cmovg r2 s1", [498046, 20917932, 1809373, 18610485, 0, 0, 0, 498064, 11, 2307447]),
        row(3, Cmov, MaxRemDw, Solved, Some(11), "mov s1 r1; cmp r1 r2; cmovl s1 r2; cmovl r2 r1; mov r1 r2; cmp r1 r3; cmovl r2 r3; cmovg r1 r3; cmp r2 s1; cmovl r3 s1; cmovg r2 s1", [498046, 18871908, 1414748, 16959086, 0, 2046024, 0, 498064, 11, 1912822]),
        row(3, MinMax, New, Solved, Some(8), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r1; min r1 r3; max s1 r3; max r3 r2; min r2 s1", [772, 27792, 9506, 17301, 0, 0, 0, 976, 0, 27792]),
        row(3, MinMax, Best, Solved, Some(8), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r3; max r3 r2; min r2 s1; max r2 r1; min r1 s1", [101, 681, 207, 295, 68, 0, 0, 112, 0, 318]),
        row(3, MinMax, Lossless, Solved, Some(8), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r1; min r1 r3; max s1 r3; max r3 r2; min r2 s1", [772, 14979, 2063, 11940, 0, 2313, 10500, 976, 0, 14979]),
        row(3, MinMax, Ucs, Solved, Some(8), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r1; min r1 r3; max s1 r3; max r3 r2; min r2 s1", [945, 34020, 12166, 20724, 0, 0, 0, 1131, 30, 34020]),
        row(3, MinMax, MaxRem, Solved, Some(8), "mov s1 r1; min r1 r2; max s1 r2; mov r2 r1; min r1 r3; max r2 r3; min r2 s1; max r3 s1", [517, 18612, 2553, 15540, 0, 0, 0, 520, 0, 3072]),
        row(3, MinMax, MaxRemDw, Solved, Some(8), "mov s1 r1; min r1 r2; max s1 r2; mov r2 r1; min r1 r3; max r2 r3; min r2 s1; max r3 s1", [517, 17064, 2103, 14442, 0, 1548, 0, 520, 0, 2622]),
    ]);
}

#[test]
#[cfg_attr(miri, ignore = "golden traces are too slow under miri")]
fn n4_minmax_guided_rows() {
    check(&[
        row(4, MinMax, Best, Solved, Some(15), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r3; min r3 r4; max r4 s1; mov s1 r1; min r1 r3; max r3 s1; mov s1 r2; min r2 r4; max r4 s1; mov s1 r2; min r2 r3; max r3 s1", [2133, 30180, 4881, 15899, 7256, 0, 0, 2145, 0, 12665]),
        row(4, MinMax, MaxRem, Solved, Some(15), "mov s1 r1; min s1 r2; max r2 r1; mov r1 r3; min r1 r4; max r3 r4; mov r4 r3; min r3 r2; max r4 r2; min r2 r1; max r2 s1; min r2 r3; max r3 r1; min r1 s1; max r3 s1", [111270, 6676200, 1131913, 5433010, 0, 0, 0, 111276, 2, 2130630]),
        row(4, MinMax, MaxRemDw, Solved, Some(15), "mov s1 r1; min s1 r2; max r2 r1; mov r1 r3; min r1 r4; max r3 r4; mov r4 r3; min r3 r2; max r4 r2; min r2 r1; max r2 s1; min r2 r3; max r3 r1; min r1 s1; max r3 s1", [111270, 6231124, 1031863, 5087984, 0, 445076, 0, 111276, 2, 1966473]),
    ]);
}

/// The unpruned rows of the larger machines: seconds each in release,
/// minutes in debug.
#[test]
#[cfg_attr(miri, ignore = "golden traces are too slow under miri")]
#[ignore = "minutes in debug mode; CI runs it with --release"]
fn unpruned_n3_cmov_and_n4_minmax_rows() {
    check(&[
        row(3, Cmov, New, Solved, Some(11), "mov s1 r1; cmp r1 r2; cmovl s1 r2; cmovl r2 r1; mov r1 r2; cmp r1 r3; cmovl r2 r3; cmovg r1 r3; cmp r2 s1; cmovl r3 s1; cmovg r2 s1", [1939467, 81457614, 24987683, 51307998, 0, 0, 0, 5161931, 0, 81457614]),
        row(3, Cmov, Lossless, Solved, Some(11), "mov s1 r1; cmp r1 r2; cmovl s1 r2; cmovl r2 r1; mov r1 r2; cmp r1 r3; cmovl r2 r3; cmovg r1 r3; cmp r2 s1; cmovl r3 s1; cmovg r2 s1", [1939467, 66989099, 13518824, 48308343, 0, 8057214, 6411301, 5161931, 0, 66989099]),
        row(3, Cmov, Ucs, Solved, Some(11), "mov s1 r1; cmp r1 r2; cmovl s1 r2; cmovl r2 r1; mov r1 r2; cmp r1 r3; cmovl r2 r3; cmovg r1 r3; cmp r2 s1; cmovl r3 s1; cmovg r2 s1", [4636285, 194723970, 58980180, 125102265, 0, 0, 0, 10641526, 525645, 194723970]),
        row(4, MinMax, New, Solved, Some(15), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r1; min r1 r3; max s1 r3; min s1 r2; max r3 r2; mov r2 r1; min r1 r4; max r2 r4; min r2 s1; max s1 r4; max r4 r3; min r3 s1", [178023, 10681380, 2991229, 7502402, 0, 0, 0, 187735, 0, 15598500]),
        row(4, MinMax, Lossless, Solved, Some(15), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r1; min r1 r3; max s1 r3; min s1 r2; max r3 r2; mov r2 r1; min r1 r4; max r2 r4; min r2 s1; max s1 r4; max r4 r3; min r3 s1", [178023, 5854512, 527480, 5139297, 0, 712088, 4114780, 187735, 0, 8875980]),
        row(4, MinMax, Ucs, Solved, Some(15), "mov s1 r1; min r1 r2; max r2 s1; mov s1 r1; min r1 r3; max s1 r3; min s1 r2; max r3 r2; mov r2 r1; min r1 r4; max r2 r4; min r2 s1; max s1 r4; max r4 r3; min r3 s1", [186269, 11176140, 3152092, 7831396, 0, 0, 0, 192653, 1465, 16093260]),
    ]);
}

/// The paper's n = 4 cmp/cmov headline under configuration (III).
#[test]
#[cfg_attr(miri, ignore = "golden traces are too slow under miri")]
#[ignore = "minutes in debug mode; CI runs it with --release"]
fn n4_cmov_best_row() {
    check(&[
        row(4, Cmov, Best, Solved, Some(20), "mov s1 r1; cmp r1 r2; cmovl s1 r2; cmovl r2 r1; mov r1 r3; cmp r1 r4; cmovl r3 r4; cmovl r4 r1; mov r1 r2; cmp r1 r4; cmovl r2 r4; cmovg r1 r4; mov r4 r3; cmp r3 s1; cmovl r4 s1; cmovg r3 s1; mov s1 r2; cmp r2 r3; cmovg r2 r3; cmovg r3 s1", [259090, 6958715, 625448, 2241301, 3832422, 0, 0, 259545, 0, 1833893]),
    ]);
}

/// All-solutions mode: the size of the minimal-solution DAG. The n = 3
/// cmp/cmov row adds the `k = 1` cut to keep the debug run short.
#[test]
#[cfg_attr(miri, ignore = "golden traces are too slow under miri")]
fn all_solutions_rows() {
    for (n, mode, cut, outcome, len, solutions) in [
        (2, Cmov, false, SolvedAll, Some(4), 8),
        (2, MinMax, false, SolvedAll, Some(3), 4),
        (3, Cmov, true, SolvedAll, Some(11), 234),
        (3, MinMax, false, SolvedAll, Some(8), 604),
    ] {
        let mut cfg = SynthesisConfig::new(Machine::new(n, 1, mode))
            .budget_viability(true)
            .max_len(bound(n, mode))
            .all_solutions(true);
        if cut {
            cfg = cfg.cut(Cut::Factor(1.0));
        }
        let result = synthesize(&cfg);
        let label = format!("n{n} {mode:?} all-solutions");
        assert_eq!(result.outcome, outcome, "{label}");
        assert_eq!(result.found_len, len, "{label}");
        assert_eq!(result.solution_count(), solutions, "{label}");
    }
}

/// A layered run under a 64 KiB budget. Spill timing follows the resident
/// estimate, which depends on the engine's storage layout, so only the
/// search's shape is pinned: where it ends and how much it expanded.
#[test]
#[cfg_attr(miri, ignore = "golden traces do real file I/O")]
fn budgeted_n3_cmov_row() {
    let dir = std::env::temp_dir().join(format!("ssgolden-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SynthesisConfig::new(Machine::new(3, 1, Cmov))
        .budget_viability(true)
        .max_len(11)
        .mem_budget_bytes(64 << 10)
        .spill_dir(dir.clone());
    let result = synthesize(&cfg);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(result.outcome, Solved);
    assert_eq!(result.found_len, Some(11));
    assert!(
        result.stats.spilled_bytes > 0,
        "the budget engaged the tier"
    );
    assert_eq!(result.stats.expanded, 497375);
    assert_eq!(result.stats.generated, 20889750);
}
