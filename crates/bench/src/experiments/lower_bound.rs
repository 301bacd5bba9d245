//! E15 — §5.3: optimality certification by exhaustive lower-bound proofs.
//!
//! Proves the n = 2 optimum (4), the n = 3 optimum (11) and the n = 3 and
//! n = 4 min/max optima (8 and 15) outright; the n = 4 length-19 exhaustion (the paper's new bound, two weeks of compute)
//! runs with a node budget by default and completely under
//! `SORTSYNTH_FULL=1`.

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_search::{prove_no_solution, BoundVerdict};

use crate::util::{fmt_duration, time, BenchConfig, Table};

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) {
    println!("== E15 (§5.3): kernel-length lower bounds ==");
    let mut table = Table::new(&["machine", "bound", "verdict", "time", "states generated"]);

    let mut prove = |label: &str, machine: Machine, bound: u32, node_limit: Option<u64>| {
        let (result, elapsed) = time(|| prove_no_solution(&machine, bound, node_limit, None));
        let verdict = match result.verdict {
            BoundVerdict::NoSolution => "no kernel (bound proven)",
            BoundVerdict::SolutionExists => "kernel exists (bound refuted)",
            BoundVerdict::Inconclusive => "inconclusive (budget)",
        };
        table.row_strings(vec![
            label.into(),
            bound.to_string(),
            verdict.into(),
            fmt_duration(elapsed),
            result.stats.generated.to_string(),
        ]);
        result.verdict
    };

    // n = 2: optimum 4.
    assert_eq!(
        prove("n = 2, cmov", Machine::new(2, 1, IsaMode::Cmov), 3, None),
        BoundVerdict::NoSolution
    );
    // n = 3: optimum 11 — the claim AlphaDev took 3 days to check.
    if !cfg.quick {
        assert_eq!(
            prove("n = 3, cmov", Machine::new(3, 1, IsaMode::Cmov), 10, None),
            BoundVerdict::NoSolution
        );
        // min/max optima: 8 (n = 3) and 15 (n = 4).
        assert_eq!(
            prove(
                "n = 3, min/max",
                Machine::new(3, 1, IsaMode::MinMax),
                7,
                None
            ),
            BoundVerdict::NoSolution
        );
        // min/max optimum 15 (n = 4).
        assert_eq!(
            prove(
                "n = 4, min/max",
                Machine::new(4, 1, IsaMode::MinMax),
                14,
                None
            ),
            BoundVerdict::NoSolution
        );
    }
    // n = 4: the paper's new length-20 bound, via exhausting length 19
    // (two weeks on their machine). Budgeted by default.
    let n4_budget = if cfg.full { None } else { Some(50_000_000) };
    let verdict = prove(
        "n = 4, cmov (paper: 2 weeks)",
        Machine::new(4, 1, IsaMode::Cmov),
        19,
        n4_budget,
    );
    if !cfg.full && verdict == BoundVerdict::Inconclusive {
        println!("(n = 4 length-19 exhaustion needs SORTSYNTH_FULL=1 and a lot of patience)");
    }

    table.print();
    table.write_csv(&cfg.ensure_out_dir().join("e15_lower_bounds.csv"));
}
