//! The external-memory tier end to end: spill differentials, crash
//! injection + journal resume, torn-segment detection, and the sizing
//! table's zero-realloc contract.
//!
//! The spill tier ([`SynthesisConfig::mem_budget_bytes`]) must be invisible
//! in the result: a budgeted run streams frontier spans and evicted closed
//! entries through checksummed segments, yet lands on the same optimal cost
//! as a fully resident run. A killed run must restart from its journal
//! ([`SynthesisConfig::resume_from`]) and still land there; a corrupted
//! segment must be rejected, never silently trusted.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_obs::segment::SegmentError;
use sortsynth_search::{synthesize, try_synthesize, ProgressHook, ResumeError, SynthesisConfig};

/// Crashes the run it is installed in once `expansions` states have been
/// expanded: with `progress_every(1)` the hook sees every expansion's
/// snapshot, so the panic unwinds out of the search right there.
fn crash_after(cfg: SynthesisConfig, expansions: u64) -> SynthesisConfig {
    cfg.progress_every(1)
        .progress_hook(ProgressHook::new(move |p| {
            if p.expanded >= expansions {
                panic!("injected crash after {expansions} expansions");
            }
        }))
}

/// Fresh per-test scratch directory (removed up front so reruns of a
/// failed test never see stale segments).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssresume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The canonical budgeted configuration: sequential layered search with
/// budget viability, the combination the spill tier serves.
fn layered(machine: &Machine, bound: u32) -> SynthesisConfig {
    SynthesisConfig::new(machine.clone())
        .budget_viability(true)
        .max_len(bound)
}

/// Runs `machine` fully resident and again under `budget` bytes, asserting
/// the spill tier changed the memory story but not the answer.
fn assert_spill_is_lossless(machine: &Machine, label: &str, bound: u32, budget: u64) {
    let dir = scratch(&format!("diff-{label}"));
    let resident = synthesize(&layered(machine, bound));
    let spilled = synthesize(
        &layered(machine, bound)
            .mem_budget_bytes(budget)
            .spill_dir(dir.clone()),
    );
    assert_eq!(
        resident.found_len, spilled.found_len,
        "{label}: spilling under {budget} B changed the optimal cost \
         (resident {:?}, spilled {:?})",
        resident.outcome, spilled.outcome
    );
    let stats = &spilled.stats;
    assert!(stats.spilled_open > 0, "{label}: no frontier spans spilled");
    assert!(
        stats.spilled_bytes > 0,
        "{label}: no bytes hit the segments"
    );
    assert!(stats.spill_segments > 0, "{label}: no segments created");
    if let Some(prog) = spilled.first_program() {
        sortsynth_verify::gate(machine, &prog)
            .unwrap_or_else(|e| panic!("{label}: oracle rejected spilled kernel: {e:?}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(miri, ignore = "spill differential does real file I/O")]
fn spilled_search_matches_resident_search() {
    // Budgets sized to force the tier on partway through each search (the
    // min/max space is far smaller, so its threshold sits lower); both ISAs
    // so the span codec sees cmov flag bits and min/max flag-free states.
    assert_spill_is_lossless(&Machine::new(3, 1, IsaMode::Cmov), "n3-cmov", 11, 64 << 10);
    assert_spill_is_lossless(
        &Machine::new(3, 1, IsaMode::MinMax),
        "n3-minmax",
        8,
        4 << 10,
    );
}

#[test]
#[cfg_attr(miri, ignore = "crash injection does real file I/O")]
fn killed_run_resumes_from_journal_to_the_same_optimum() {
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let dir = scratch("resume");

    // Reference run: the cost to recover, and the expansion count that
    // places the injected crash mid-search (past several checkpoints,
    // before the solution layer).
    let reference = synthesize(&layered(&machine, 11));
    assert_eq!(reference.found_len, Some(11));
    let crash_at = reference.stats.expanded / 2;
    assert!(crash_at > 0, "reference run expanded nothing");

    // Killed run: the panic unwinds out of `synthesize`; the journal on
    // disk was written at the start of the layer the crash landed in.
    let killed = catch_unwind(AssertUnwindSafe(|| {
        synthesize(&crash_after(
            layered(&machine, 11)
                .mem_budget_bytes(64 << 10)
                .spill_dir(dir.clone()),
            crash_at,
        ))
    }));
    assert!(killed.is_err(), "crash injection did not fire");

    // Resumed run: same search fingerprint, journal directory as input.
    let resumed = try_synthesize(&layered(&machine, 11).resume_from(dir.clone()))
        .expect("journal resume failed");
    assert_eq!(
        resumed.found_len,
        Some(11),
        "resume lost the optimum ({:?})",
        resumed.outcome
    );
    assert!(
        resumed.stats.resumed_frontier_states > 0,
        "resume restored an empty frontier"
    );
    let prog = resumed.first_program().expect("resumed run has a kernel");
    sortsynth_verify::gate(&machine, &prog)
        .unwrap_or_else(|e| panic!("oracle rejected resumed kernel: {e:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(miri, ignore = "spill differential does real file I/O")]
fn multi_thread_budgeted_runs_spill_and_resume() {
    // A budget or a journal pins the run to the single-shard driver, so
    // `threads(2)` keeps the budget: the run spills, lands on the resident
    // optimum, and a killed run resumes under the same thread count.
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let dir = scratch("threads");
    let resident = synthesize(&layered(&machine, 11).threads(2));
    let budgeted = synthesize(
        &layered(&machine, 11)
            .threads(2)
            .mem_budget_bytes(64 << 10)
            .spill_dir(dir.clone()),
    );
    assert_eq!(budgeted.found_len, resident.found_len);
    assert!(
        budgeted.stats.spilled_bytes > 0,
        "threads(2) ignored the budget"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let crash_at = budgeted.stats.expanded / 2;
    let killed = catch_unwind(AssertUnwindSafe(|| {
        synthesize(&crash_after(
            layered(&machine, 11)
                .threads(2)
                .mem_budget_bytes(64 << 10)
                .spill_dir(dir.clone()),
            crash_at,
        ))
    }));
    assert!(killed.is_err(), "crash injection did not fire");
    let resumed = try_synthesize(&layered(&machine, 11).threads(2).resume_from(dir.clone()))
        .expect("threads(2) journal resume failed");
    assert_eq!(resumed.found_len, Some(11), "{:?}", resumed.outcome);
    assert!(resumed.stats.resumed_frontier_states > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills a min/max n = 3 run under a 1-byte budget and returns its
/// configuration. The budget spills every span from layer 0 on, so the
/// journal written at each layer boundary references real segment bytes
/// almost immediately; ten expansions is comfortably past the first
/// boundary.
fn killed_minmax_run(dir: &Path) -> SynthesisConfig {
    let cfg = layered(&Machine::new(3, 1, IsaMode::MinMax), 8)
        .mem_budget_bytes(1)
        .spill_dir(dir.to_path_buf());
    let killed = catch_unwind(AssertUnwindSafe(|| {
        synthesize(&crash_after(cfg.clone(), 10))
    }));
    assert!(killed.is_err(), "crash injection did not fire");
    cfg
}

#[test]
#[cfg_attr(miri, ignore = "corruption test does real file I/O")]
fn torn_segment_byte_is_rejected_on_resume() {
    let machine = Machine::new(3, 1, IsaMode::MinMax);
    let dir = scratch("torn");
    killed_minmax_run(&dir);

    // Flip one byte in the middle of every sealed segment: a torn tail or
    // bit rot anywhere in the journal-referenced region must surface as a
    // checksum failure, not be deserialized on faith.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("spill dir readable") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "seg") {
            let mut bytes = std::fs::read(&path).expect("segment readable");
            if bytes.is_empty() {
                continue;
            }
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, bytes).expect("segment writable");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "killed run left no segments to corrupt");

    let err = try_synthesize(&layered(&machine, 8).resume_from(dir.clone()))
        .expect_err("resume accepted a corrupted segment");
    let msg = err.to_string();
    assert!(
        msg.contains("checksum"),
        "corruption surfaced as something other than a checksum failure: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resumes the min/max run killed into `dir` after `damage` rewrites its
/// journal bytes.
fn resume_damaged_journal(dir: &Path, damage: impl FnOnce(&mut Vec<u8>)) -> ResumeError {
    let path = dir.join("journal.ssj");
    let mut bytes = std::fs::read(&path).expect("journal readable");
    damage(&mut bytes);
    std::fs::write(&path, bytes).expect("journal writable");
    try_synthesize(&layered(&Machine::new(3, 1, IsaMode::MinMax), 8).resume_from(dir.to_path_buf()))
        .expect_err("resume accepted a damaged journal")
}

#[test]
#[cfg_attr(miri, ignore = "corruption test does real file I/O")]
fn journal_from_an_older_spill_version_is_refused() {
    // Version 1 is the untagged record layout, version 2 the single-blob
    // journal with 128-bit closed keys: resume must refuse either
    // directory outright.
    for version in [1u32, 2] {
        let dir = scratch(&format!("oldversion-{version}"));
        killed_minmax_run(&dir);
        let err = resume_damaged_journal(&dir, |bytes| {
            bytes[8..12].copy_from_slice(&version.to_le_bytes())
        });
        assert!(
            matches!(err, ResumeError::Segment(SegmentError::BadHeader { .. })),
            "version {version}: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
#[cfg_attr(miri, ignore = "corruption test does real file I/O")]
fn flipped_journal_byte_is_a_checksum_error() {
    let dir = scratch("journal-flip");
    killed_minmax_run(&dir);
    let err = resume_damaged_journal(&dir, |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    });
    assert!(
        matches!(err, ResumeError::Segment(SegmentError::Checksum { .. })),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(miri, ignore = "corruption test does real file I/O")]
fn journal_cut_after_its_last_complete_record_is_malformed() {
    // Every remaining record checksums, so only the header's section
    // counts can tell the journal is short.
    let dir = scratch("journal-cut");
    killed_minmax_run(&dir);
    let err = resume_damaged_journal(&dir, |bytes| {
        // File header (12 bytes), then records of a 20-byte head
        // (tag u64, payload_len u32, checksum u64) and the payload.
        let (mut at, mut last) = (12, 12);
        while at < bytes.len() {
            last = at;
            at += 20 + u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        }
        assert!(last > 12, "journal has a single record");
        bytes.truncate(last);
    });
    assert!(matches!(err, ResumeError::Malformed { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(miri, ignore = "crash injection does real file I/O")]
fn torn_checkpoint_temp_file_does_not_affect_resume() {
    let reference_dir = scratch("tmp-reference");
    let dir = scratch("tmp-torn");
    let cfg = killed_minmax_run(&dir);
    let reference = synthesize(&cfg.clone().spill_dir(reference_dir.clone()));
    // A kill between writing the next checkpoint and renaming it leaves a
    // torn `journal.ssj.tmp` beside the last durable journal.
    let journal = std::fs::read(dir.join("journal.ssj")).expect("journal readable");
    std::fs::write(dir.join("journal.ssj.tmp"), &journal[..journal.len() / 2])
        .expect("temp file writable");
    let resumed = try_synthesize(
        &layered(&Machine::new(3, 1, IsaMode::MinMax), 8)
            .mem_budget_bytes(1)
            .resume_from(dir.clone()),
    )
    .expect("resume beside a torn temp file failed");
    assert!(resumed.stats.resumed_frontier_states > 0);
    assert_eq!(resumed.outcome, reference.outcome);
    assert_eq!(resumed.first_program(), reference.first_program());
    let counters = |s: &sortsynth_search::SearchStats| {
        (
            s.expanded,
            s.generated,
            s.dedup_hits,
            s.viability_pruned,
            s.states_kept,
            s.spilled_open,
            s.spilled_closed,
            s.ddd_dedup_hits,
            s.spilled_bytes,
            s.spill_segments,
        )
    };
    assert_eq!(counters(&resumed.stats), counters(&reference.stats));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// Warm-up then rerun with a sizing table: the recorded row must pre-size
/// the arena so the second run performs zero growth reallocations.
fn assert_sized_rerun_never_reallocs(machine: &Machine, label: &str, bound: u32) {
    let dir = scratch(&format!("sizing-{label}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("sizing.txt");
    let cfg = layered(machine, bound).sizing_path(path);

    let warm = synthesize(&cfg);
    assert!(warm.found_len.is_some(), "{label}: warm-up found no kernel");

    let sized = synthesize(&cfg);
    assert_eq!(sized.found_len, warm.found_len, "{label}: rerun diverged");
    assert_eq!(
        sized.stats.arena_reallocs, 0,
        "{label}: sizing table left {} arena reallocations on a warm rerun",
        sized.stats.arena_reallocs
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg_attr(miri, ignore = "sizing table does real file I/O")]
fn sizing_table_pins_warm_rerun_reallocs_to_zero() {
    assert_sized_rerun_never_reallocs(&Machine::new(3, 1, IsaMode::Cmov), "n3-cmov", 11);
}

/// The headline-scale row. Run by the CI `memory-smoke` job with
/// `--release -- --include-ignored`.
#[test]
#[cfg_attr(miri, ignore = "sizing table does real file I/O")]
#[ignore = "n4 warm rerun needs --release; CI memory-smoke runs it"]
fn sizing_table_pins_warm_rerun_reallocs_to_zero_n4() {
    assert_sized_rerun_never_reallocs(&Machine::new(4, 1, IsaMode::MinMax), "n4-minmax", 15);
}
