//! Portfolio race benchmark: every backend raced first-win on the small
//! kernel queries, then re-raced under the learned dispatch policy.
//!
//! On a single-core host the interesting numbers are not wall-clock
//! speedups but the race's bookkeeping: which arm wins each shape, how
//! fast the first verified solution arrives, how the losers end
//! (completed vs cancelled), and how much narrower the policy-guided
//! second pass is. Every winner is asserted to match the sequential
//! enumerative optimum — racing may change who answers, never the answer.
//! Emits `BENCH_portfolio.json`.

use sortsynth_cache::KernelQuery;
use sortsynth_isa::IsaMode;
use sortsynth_portfolio::{
    backend_for, BackendKind, BackendStatus, DispatchPolicy, Portfolio, SearchBudget,
};

use crate::util::{fmt_duration, write_bench_json, BenchConfig, Table};

/// The sequential enumerative optimum — the differential reference.
fn reference_len(query: &KernelQuery) -> u32 {
    let out = backend_for(BackendKind::AStar).run(query, &SearchBudget::unlimited());
    match out.status {
        BackendStatus::Found { program, .. } => program.len() as u32,
        other => panic!("sequential reference failed: {other:?}"),
    }
}

fn status_name(status: &BackendStatus) -> &'static str {
    match status {
        BackendStatus::Found { .. } => "found",
        BackendStatus::NoProgram => "no-program",
        BackendStatus::Budget => "cancelled",
        BackendStatus::Unsupported => "unsupported",
    }
}

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) {
    println!("== portfolio: first-win races and learned dispatch ==");
    let queries: &[(u8, IsaMode)] = if cfg.quick {
        &[(2, IsaMode::Cmov), (3, IsaMode::Cmov)]
    } else {
        &[
            (2, IsaMode::Cmov),
            (2, IsaMode::MinMax),
            (3, IsaMode::Cmov),
            (3, IsaMode::MinMax),
        ]
    };

    let mut table = Table::new(&["isa", "n", "winner", "len", "race", "arms", "cancelled"]);
    let mut json_rows = Vec::new();
    let mut policy = DispatchPolicy::new();
    let portfolio = Portfolio::all();

    for &(n, mode) in queries {
        let query = KernelQuery::best(n, 1, mode);
        let expected = reference_len(&query);
        let report = portfolio.run(&query, &SearchBudget::unlimited(), None);
        let winner = report
            .winner
            .unwrap_or_else(|| panic!("no winner for n={n} {mode:?}"));
        assert_eq!(
            report.found_len,
            Some(expected),
            "n={n} {mode:?}: race answer diverged from the sequential optimum"
        );
        policy.record(&query, &report);

        let cancelled = report
            .outcomes
            .iter()
            .filter(|o| o.status == BackendStatus::Budget)
            .count();
        let isa = match mode {
            IsaMode::Cmov => "cmov",
            IsaMode::MinMax => "minmax",
        };
        table.row_strings(vec![
            isa.into(),
            n.to_string(),
            winner.name().into(),
            expected.to_string(),
            fmt_duration(report.elapsed),
            report.outcomes.len().to_string(),
            cancelled.to_string(),
        ]);
        let arms: Vec<String> = report
            .outcomes
            .iter()
            .map(|o| {
                format!(
                    "{{\"backend\":\"{}\",\"status\":\"{}\",\"millis\":{:.3}}}",
                    o.kind.name(),
                    status_name(&o.status),
                    o.elapsed.as_secs_f64() * 1e3
                )
            })
            .collect();
        json_rows.push(format!(
            "{{\"isa\":\"{isa}\",\"n\":{n},\"winner\":\"{}\",\"len\":{expected},\
             \"race_millis\":{:.3},\"verify_rejected\":{},\"arms\":[{}]}}",
            winner.name(),
            report.elapsed.as_secs_f64() * 1e3,
            report.verify_rejected,
            arms.join(",")
        ));
    }
    table.print();

    // Second pass: the freshly learned policy narrows each race to its
    // historically-best arm, and the narrowed race still finds the optimum
    // without widening.
    println!("policy-guided rerun (first wave only, no widening expected):");
    let mut policy_rows = Vec::new();
    for &(n, mode) in queries {
        let query = KernelQuery::best(n, 1, mode);
        let report = portfolio.run(&query, &SearchBudget::unlimited(), Some(&policy));
        let winner = report
            .winner
            .unwrap_or_else(|| panic!("policy rerun lost n={n} {mode:?}"));
        assert!(!report.widened, "n={n} {mode:?}: narrowed race widened");
        println!(
            "  n={n} {mode:?}: {} of {} arms raced, won by {} in {}",
            report.outcomes.len(),
            BackendKind::ALL.len(),
            winner.name(),
            fmt_duration(report.elapsed)
        );
        policy_rows.push(format!(
            "{{\"n\":{n},\"isa\":\"{}\",\"arms_raced\":{},\"winner\":\"{}\",\
             \"race_millis\":{:.3}}}",
            match mode {
                IsaMode::Cmov => "cmov",
                IsaMode::MinMax => "minmax",
            },
            report.outcomes.len(),
            winner.name(),
            report.elapsed.as_secs_f64() * 1e3
        ));
    }

    table.write_csv(&cfg.ensure_out_dir().join("portfolio.csv"));
    write_bench_json(
        "portfolio",
        &format!(
            "{{\"experiment\":\"portfolio\",\"races\":[{}],\"policy_rerun\":[{}]}}\n",
            json_rows.join(","),
            policy_rows.join(",")
        ),
    );
}
