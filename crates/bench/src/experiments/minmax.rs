//! E16 — §5.4: min/max (vector) kernels — synthesized sizes, synthesis
//! time, and runtime against the best cmov kernels and the network
//! implementations.

use sortsynth_isa::{IsaMode, Machine};
use sortsynth_kernels::{
    network_to_cmov, network_to_minmax, optimal_network, reference, standalone_inputs, Kernel,
};
use sortsynth_search::{synthesize, SynthesisConfig};

use crate::util::{bench_sort, fmt_duration, time, BenchConfig, Table};

/// Runs the experiment.
pub fn run(cfg: &BenchConfig) {
    println!("== E16 (§5.4): min/max kernels ==");
    let mut table = Table::new(&[
        "n",
        "# instr (synthesized)",
        "synthesis",
        "min/max runtime",
        "cmov runtime",
        "network runtime",
    ]);
    let max_n = if cfg.quick { 3 } else { 4 };
    let inputs_iters = if cfg.quick { 50 } else { 4000 };

    for n in 3..=5u8 {
        let mm = Machine::new(n, 1, IsaMode::MinMax);
        // n = 3/4 synthesize in milliseconds and n = 5 in well under a
        // second (EXPERIMENTS.md E16), but n = 5 stays behind
        // `SORTSYNTH_N5` with every other n = 5 synthesis run; without it
        // the row benchmarks the checked-in 23-instruction kernel.
        let (minmax_prog, synth_cell) = if n <= max_n || n == 5 {
            if n == 5 && !cfg.n5 {
                let (_, prog) = reference::enum_minmax5();
                (prog, "checked-in (SORTSYNTH_N5=1 times it)".to_string())
            } else {
                let (result, t_synth) = time(|| synthesize(&SynthesisConfig::best(mm.clone())));
                let Some(prog) = result.first_program() else {
                    println!(
                        "n = {n}: min/max synthesis did not finish ({:?})",
                        result.outcome
                    );
                    continue;
                };
                (prog, fmt_duration(t_synth))
            }
        } else {
            table.row_strings(vec![
                n.to_string(),
                "(skipped)".into(),
                "—".into(),
                "—".into(),
                "—".into(),
                "—".into(),
            ]);
            continue;
        };
        assert!(mm.is_correct(&minmax_prog));

        // cmov comparison kernel: the best known (synthesized for n = 3 and
        // n = 5; network-optimal at n = 4, where the network length 20 is
        // the proven optimum).
        let cm = Machine::new(n, 1, IsaMode::Cmov);
        let cmov_prog = match n {
            3 => reference::paper_synth_cmov3().1,
            5 => reference::enum_cmov5().1,
            _ => network_to_cmov(&cm, &optimal_network(n)),
        };
        let network_prog = network_to_minmax(&mm, &optimal_network(n));

        let inputs = standalone_inputs(n as usize, 1000, 29 + n as u64);
        let k_minmax = Kernel::from_program("minmax", &mm, minmax_prog.clone());
        let k_cmov = Kernel::from_program("cmov", &cm, cmov_prog);
        let k_network = Kernel::from_program("network", &mm, network_prog.clone());
        let t_mm = bench_sort(&inputs, inputs_iters, |d| k_minmax.sort(d));
        let t_cm = bench_sort(&inputs, inputs_iters, |d| k_cmov.sort(d));
        let t_net = bench_sort(&inputs, inputs_iters, |d| k_network.sort(d));

        table.row_strings(vec![
            n.to_string(),
            format!("{} (network: {})", minmax_prog.len(), network_prog.len()),
            synth_cell,
            fmt_duration(t_mm),
            fmt_duration(t_cm),
            fmt_duration(t_net),
        ]);
    }
    table.print();
    table.write_csv(&cfg.ensure_out_dir().join("e16_minmax.csv"));
    println!("(paper: sizes 8/15/26 vs network 9/15/27; min/max beats both cmov and network)");
}
