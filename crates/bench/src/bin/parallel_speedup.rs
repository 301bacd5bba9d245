//! Parallel search speedup benchmark: the layered round loop vs one worker at
//! 1/2/4/8 threads on the n = 3/4 headline syntheses, with cost equality
//! asserted. Emits `BENCH_parallel_speedup.json`.
fn main() {
    let cfg = sortsynth_bench::util::BenchConfig::from_env();
    sortsynth_bench::experiments::parallel_speedup::run(&cfg);
}
