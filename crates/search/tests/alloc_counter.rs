//! Allocation accounting for the steady-state expansion path.
//!
//! A counting global allocator (its own test binary, so the counter sees
//! every allocation in the process) measures allocations per expanded node
//! on a warm n = 3 synthesis. The arena-backed core's contract: successor
//! generation, canonicalization, heuristic evaluation, and dedup allocate
//! nothing per node once the scratch buffers and arena have grown to their
//! steady-state capacity — only amortized-O(1) buffer doublings remain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{synthesize, Heuristic, Strategy, SynthesisConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is (at most) one fresh allocation's worth of work.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
#[cfg_attr(
    miri,
    ignore = "global-allocator counting is not meaningful under miri"
)]
fn expansion_path_allocates_o1_amortized() {
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let cfg = SynthesisConfig::best(machine);

    // Warm-up run: global metrics registration, lazy statics, allocator
    // warm-up. Its counts are discarded.
    let warm = synthesize(&cfg);
    assert_eq!(warm.found_len, Some(11));

    // Measured run: a complete synthesis, including its own distance-table
    // build and arena growth — all of which must amortize to O(1) per
    // expanded node.
    let before = allocations();
    let result = synthesize(&cfg);
    let during = allocations() - before;
    assert_eq!(result.found_len, Some(11));

    let expanded = result.stats.expanded.max(1);
    let per_node = during as f64 / expanded as f64;
    println!(
        "allocations: {during} over {expanded} expanded nodes = {per_node:.3} allocs/node \
         (generated {})",
        result.stats.generated
    );

    // Pre-rework engine: ~12 allocations per node (fresh Vec + Box per
    // successor, perm-count scratch per generated state, SipHash map
    // reinsertions). The arena core must stay O(1) amortized: well under
    // one allocation per expanded node, steady-state zero.
    assert!(
        per_node < 1.0,
        "expansion path regressed to {per_node:.2} allocations per expanded node"
    );
}

#[test]
#[cfg_attr(
    miri,
    ignore = "global-allocator counting is not meaningful under miri"
)]
fn bucket_astar_expansion_is_allocation_free_in_steady_state() {
    // The bucket-queue best-first engine is the tightest path: pushes are
    // lane appends into retained buffers and pops only move cursors, so
    // after warm-up the *whole* search — selection included — runs on
    // reserved capacity. The budget is an order of magnitude below the
    // layered test's: the measured run sits around 0.002 allocs/node
    // (buffer doublings and the run's own table build), and 0.06 leaves
    // headroom for allocator/runtime jitter without masking a real
    // per-node allocation (which would cost ≥ 1.0).
    let machine = Machine::new(3, 1, IsaMode::Cmov);
    let cfg = SynthesisConfig::new(machine)
        .strategy(Strategy::AStar {
            heuristic: Heuristic::MaxRemaining,
        })
        .optimal_instrs_only(true)
        .budget_viability(true)
        .max_len(11);

    let warm = synthesize(&cfg);
    assert_eq!(warm.found_len, Some(11));

    let before = allocations();
    let result = synthesize(&cfg);
    let during = allocations() - before;
    assert_eq!(result.found_len, Some(11));

    let expanded = result.stats.expanded.max(1);
    let per_node = during as f64 / expanded as f64;
    println!(
        "bucket A*: {during} allocations over {expanded} expanded nodes = {per_node:.4} \
         allocs/node (generated {}, bucket_scans {})",
        result.stats.generated, result.stats.bucket_scans
    );

    assert!(
        per_node <= 0.06,
        "bucket A* path regressed to {per_node:.3} allocations per expanded node"
    );
}
