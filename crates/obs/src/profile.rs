//! Phase profiler: sampling-free instrumented timers over the engine's hot
//! phases, cheap enough to leave compiled into release binaries.
//!
//! The search engines account wall time to a small fixed [`Phase`] taxonomy
//! (open-list selection, successor generation, canonicalization, interning,
//! routing, verification) so hot-loop claims — "the canonicalizing sort is
//! the bottleneck", "routing is free" — can be argued from attribution
//! instead of intuition. Design constraints, in order:
//!
//! 1. **Off means off.** The profiler is disabled by default. An
//!    instrumented loop reads the global switch *once per run* into a local
//!    bool ([`PhaseProbe::new`] does the single relaxed load); every
//!    per-expansion probe then branches on that register-resident bool and
//!    touches no shared state. No atomics, no clock reads on the off path.
//! 2. **Cheap when on.** Timestamps come from [`timestamp()`] — the TSC on
//!    x86-64 (a handful of nanoseconds, non-serializing) with a monotonic
//!    clock fallback elsewhere. Probes are placed at phase *boundaries*
//!    (a few per expansion), never per candidate, and a probe measures only
//!    one expansion cycle in [`SAMPLE_STRIDE`] ([`PhaseProbe::begin_cycle`]
//!    decides). The sampled phase times are scaled up by a ratio estimator:
//!    to the loop's measured in-loop wall time, which the probe stamps only
//!    where the loop starts, pauses and ends. Attribution therefore sums
//!    to that wall time by construction, and a sampled cycle that was
//!    preempted shifts shares between phases instead of inflating the
//!    total. The measured overhead on the synthesis headline stays ≤1%
//!    (pinned by the `obs_overhead` bench).
//! 3. **Per-worker accumulation.** Each engine worker owns a cache-line
//!    padded [`PhaseProbe`]; totals are folded together once at the end of
//!    the run and published to the process-wide registry
//!    ([`publish_phase_nanos`]), so concurrent workers never contend.
//!
//! Raw tick counts are converted to nanoseconds lazily via a one-shot
//! calibration against the monotonic clock ([`ticks_to_nanos`]), so the
//! hot path never multiplies.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::Counter;

/// The phase taxonomy. One slot per distinguishable section of the
/// synthesis pipeline; phases are contiguous in time within a worker, so a
/// probe attributes each inter-boundary interval to exactly one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Distance / successor-table construction (once per run).
    TableBuild = 0,
    /// Open-list pop, stale/goal checks, and loop bookkeeping.
    Select = 1,
    /// Successor generation: instruction filtering, viability + cuts, and
    /// state stepping (fused in one pass over the action set).
    Step = 2,
    /// Canonicalizing sort + dedup + key hashing of surviving successors.
    Canonicalize = 3,
    /// Closed-set dedup, arena interning, and open-list pushes (merge).
    Intern = 4,
    /// Parallel successor routing: filing survivors in the outbox bucket
    /// of the key partition that merges them.
    Route = 5,
    /// Static verification gate on candidate solutions.
    VerifyGate = 6,
}

/// Number of phases (array sizing).
pub const PHASE_COUNT: usize = 7;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::TableBuild,
        Phase::Select,
        Phase::Step,
        Phase::Canonicalize,
        Phase::Intern,
        Phase::Route,
        Phase::VerifyGate,
    ];

    /// Short identifier used in metric names and reports.
    pub fn token(self) -> &'static str {
        match self {
            Phase::TableBuild => "table_build",
            Phase::Select => "select",
            Phase::Step => "step_viability",
            Phase::Canonicalize => "canonicalize_hash",
            Phase::Intern => "intern_merge",
            Phase::Route => "route",
            Phase::VerifyGate => "verify_gate",
        }
    }

    /// One-line description for reports.
    pub fn describe(self) -> &'static str {
        match self {
            Phase::TableBuild => "distance/successor table construction",
            Phase::Select => "open-list pop, stale/goal checks",
            Phase::Step => "successor generation: viability, cuts, stepping",
            Phase::Canonicalize => "canonicalizing sort + key hash",
            Phase::Intern => "closed-set dedup, arena intern, open push",
            Phase::Route => "parallel successor routing",
            Phase::VerifyGate => "static verification gate",
        }
    }
}

/// The operator switch. Off by default; flipped by `sortsynth profile`, the
/// overhead bench, and tests.
static PROFILER_ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables phase profiling process-wide. Takes effect for runs
/// *started* after the call (each run latches the switch once).
pub fn set_enabled(on: bool) {
    PROFILER_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phase profiling is enabled — one relaxed load.
#[inline]
pub fn enabled() -> bool {
    PROFILER_ENABLED.load(Ordering::Relaxed)
}

/// A raw monotonic timestamp in ticks. On x86-64 this is the TSC (constant
/// rate on every CPU this project targets, ~7 ns per read, non-serializing
/// — exact fencing does not matter for phase accounting). Elsewhere it
/// falls back to the monotonic clock in nanoseconds.
#[inline]
pub fn timestamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC has no memory effects and is available on every x86-64.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        clock_nanos()
    }
}

/// Nanoseconds on the monotonic clock since the process profile epoch.
#[cfg(not(target_arch = "x86_64"))]
fn clock_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Ticks per nanosecond, calibrated once against the monotonic clock. Only
/// reached at run *end* (tick→nanos conversion), never on the hot path.
fn ticks_per_nano() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        #[cfg(not(target_arch = "x86_64"))]
        {
            1.0
        }
        #[cfg(target_arch = "x86_64")]
        {
            let wall = Instant::now();
            let t0 = timestamp();
            // ~20 ms spin: long enough that clock-read latency is noise.
            while wall.elapsed().as_millis() < 20 {
                std::hint::spin_loop();
            }
            let ticks = timestamp().wrapping_sub(t0);
            let nanos = wall.elapsed().as_nanos() as u64;
            (ticks as f64 / nanos as f64).max(1e-9)
        }
    })
}

/// Converts raw [`timestamp`] ticks to nanoseconds.
pub fn ticks_to_nanos(ticks: u64) -> u64 {
    (ticks as f64 / ticks_per_nano()) as u64
}

/// Expansion-sampling stride: a probe measures one expansion cycle in this
/// many (power of two); [`PhaseProbe::nanos`] scales the sample up to the
/// in-loop wall time.
/// At ~18 ns per TSC read and a few laps per expansion, full instrumentation
/// costs several percent of a microsecond-scale hot loop; sampling divides
/// that by the stride while the estimate stays within a percent or two of
/// truth on anything longer than a few hundred expansions.
pub const SAMPLE_STRIDE: u64 = 8;

/// Per-worker phase accumulator + boundary stamp, padded to a cache line so
/// an array of worker probes never false-shares.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub struct PhaseProbe {
    on: bool,
    /// Whether the *current* expansion cycle is being measured (always equal
    /// to `on` until the first [`PhaseProbe::begin_cycle`]).
    active: bool,
    cycles: u64,
    last: u64,
    ticks: [u64; PHASE_COUNT],
    /// In-loop ticks of closed windows ([`PhaseProbe::pause`]).
    wall: u64,
    /// Start of the open in-loop window, 0 while paused.
    open: u64,
}

impl Default for PhaseProbe {
    fn default() -> Self {
        PhaseProbe::new()
    }
}

impl PhaseProbe {
    /// Latches the global switch (the run's one relaxed load) and takes the
    /// first boundary stamp if profiling is on.
    pub fn new() -> Self {
        let on = enabled();
        let now = if on { timestamp() } else { 0 };
        PhaseProbe {
            on,
            active: on,
            cycles: 0,
            last: now,
            ticks: [0; PHASE_COUNT],
            wall: 0,
            open: now,
        }
    }

    /// A probe that is off regardless of the global switch.
    pub fn disabled() -> Self {
        PhaseProbe {
            on: false,
            active: false,
            cycles: 0,
            last: 0,
            ticks: [0; PHASE_COUNT],
            wall: 0,
            open: 0,
        }
    }

    /// Whether this probe is recording.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Marks the start of one expansion cycle and decides whether it is in
    /// the measured sample (one in [`SAMPLE_STRIDE`]). Call at the top of
    /// the engine loop; every lap until the next `begin_cycle` belongs to
    /// this cycle. On the off path this is one branch on a local bool.
    #[inline]
    pub fn begin_cycle(&mut self) {
        if self.on {
            self.cycles = self.cycles.wrapping_add(1);
            self.active = self.cycles & (SAMPLE_STRIDE - 1) == 0;
            if self.active {
                self.last = timestamp();
            }
        }
    }

    /// Attributes the interval since the previous boundary to `phase` and
    /// restarts the interval. No-op unless the current cycle is sampled;
    /// the entire off-path is one branch on a local bool.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if self.active {
            let t = timestamp();
            self.ticks[phase as usize] += t.wrapping_sub(self.last);
            self.last = t;
        }
    }

    /// Starts the in-loop window afresh and restarts the interval: the
    /// time since the window opened (or since [`PhaseProbe::pause`]) is
    /// neither attributed to a phase nor counted as in-loop time. Call it
    /// where the loop starts, after setup the taxonomy leaves out, and
    /// where it resumes after a pause (e.g. an idle wait in a parallel
    /// worker). Two timestamps per call when on, so keep it off the
    /// per-expansion path.
    #[inline]
    pub fn skip(&mut self) {
        if self.on {
            let t = timestamp();
            self.open = t;
            if self.active {
                self.last = t;
            }
        }
    }

    /// Closes the in-loop window: the time since it opened counts as
    /// in-loop time, and nothing until the next [`PhaseProbe::skip`] does.
    #[inline]
    pub fn pause(&mut self) {
        if self.on && self.open != 0 {
            self.wall += timestamp().wrapping_sub(self.open);
            self.open = 0;
        }
    }

    /// In-loop ticks so far, the open window included.
    fn wall_ticks(&self) -> u64 {
        let open = if self.open != 0 {
            timestamp().wrapping_sub(self.open)
        } else {
            0
        };
        self.wall + open
    }

    /// Folds another probe's totals into this one: its sampled phase
    /// ticks and its in-loop time, the open window included. An
    /// accumulator that times nothing itself should be paused first.
    pub fn merge(&mut self, other: &PhaseProbe) {
        for i in 0..PHASE_COUNT {
            self.ticks[i] += other.ticks[i];
        }
        self.wall += other.wall_ticks();
    }

    /// The accumulated phase totals in nanoseconds, indexed by
    /// `Phase as usize`: the sampled ticks scaled by the ratio of in-loop
    /// time to sampled time, so they sum to the in-loop wall time. All
    /// zero when the probe was off or sampled nothing.
    pub fn nanos(&self) -> [u64; PHASE_COUNT] {
        let sampled: u64 = self.ticks.iter().sum();
        if sampled == 0 {
            return [0; PHASE_COUNT];
        }
        let ratio = self.wall_ticks() as f64 / sampled as f64;
        let mut out = [0u64; PHASE_COUNT];
        for (o, &t) in out.iter_mut().zip(&self.ticks) {
            *o = ticks_to_nanos((t as f64 * ratio) as u64);
        }
        out
    }
}

/// The Prometheus counter for one phase:
/// `sortsynth_phase_<token>_nanos_total`.
pub fn phase_counter(phase: Phase) -> std::sync::Arc<Counter> {
    crate::registry().counter(
        &format!("sortsynth_phase_{}_nanos_total", phase.token()),
        "Nanoseconds attributed to this pipeline phase by the profiler.",
    )
}

/// Registers every phase counter so the families appear in the exposition
/// even before the first profiled run.
pub fn register_phase_counters() {
    for phase in Phase::ALL {
        phase_counter(phase);
    }
}

/// Publishes a run's per-phase nanosecond totals to the process-wide
/// registry. No-op for an all-zero array (profiler was off).
pub fn publish_phase_nanos(nanos: &[u64; PHASE_COUNT]) {
    if nanos.iter().all(|&n| n == 0) {
        return;
    }
    for phase in Phase::ALL {
        let n = nanos[phase as usize];
        if n != 0 {
            phase_counter(phase).add(n);
        }
    }
}

/// Times `f` and attributes the elapsed nanoseconds to `phase` directly on
/// the process-wide counter — for one-shot sections outside an engine
/// worker (the verification gate, portfolio arms). Free when profiling is
/// off beyond the one relaxed load.
pub fn time_global<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let value = f();
    phase_counter(phase).add(start.elapsed().as_nanos() as u64);
    value
}

/// Cache-line padded atomic, for shared per-shard high-water marks updated
/// from hot loops without false sharing.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct PaddedU64(pub AtomicU64);

impl PaddedU64 {
    /// Relaxed read.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Relaxed write.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Relaxed monotonic maximum.
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable switch is process-global; tests that toggle it serialize.
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn probe_off_accumulates_nothing() {
        let _guard = switch_lock();
        set_enabled(false);
        let mut probe = PhaseProbe::new();
        assert!(!probe.is_on());
        probe.lap(Phase::Step);
        probe.lap(Phase::Intern);
        assert_eq!(probe.nanos(), [0; PHASE_COUNT]);
    }

    #[test]
    fn probe_on_attributes_intervals() {
        let _guard = switch_lock();
        set_enabled(true);
        let mut probe = PhaseProbe::new();
        assert!(probe.is_on());
        std::thread::sleep(std::time::Duration::from_millis(2));
        probe.lap(Phase::Step);
        std::thread::sleep(std::time::Duration::from_millis(1));
        probe.lap(Phase::Canonicalize);
        set_enabled(false);
        let nanos = probe.nanos();
        assert!(
            nanos[Phase::Step as usize] >= 1_000_000,
            "step interval covers the 2ms sleep: {nanos:?}"
        );
        assert!(
            nanos[Phase::Canonicalize as usize] >= 500_000,
            "canonicalize interval covers the 1ms sleep: {nanos:?}"
        );
        assert_eq!(nanos[Phase::Intern as usize], 0);
    }

    #[test]
    fn merge_and_publish() {
        let _guard = switch_lock();
        set_enabled(true);
        let mut a = PhaseProbe::new();
        std::thread::sleep(std::time::Duration::from_millis(1));
        a.lap(Phase::Route);
        let mut b = PhaseProbe::new();
        std::thread::sleep(std::time::Duration::from_millis(1));
        b.lap(Phase::Route);
        set_enabled(false);
        a.merge(&b);
        let nanos = a.nanos();
        assert!(nanos[Phase::Route as usize] >= 1_500_000, "{nanos:?}");
        let before = crate::registry().counter_value("sortsynth_phase_route_nanos_total");
        publish_phase_nanos(&nanos);
        let after = crate::registry().counter_value("sortsynth_phase_route_nanos_total");
        assert_eq!(after - before, nanos[Phase::Route as usize]);
    }

    #[test]
    fn disabled_probe_ignores_global_switch() {
        let _guard = switch_lock();
        set_enabled(true);
        let mut probe = PhaseProbe::disabled();
        probe.lap(Phase::Select);
        set_enabled(false);
        assert_eq!(probe.nanos(), [0; PHASE_COUNT]);
    }

    #[test]
    fn tick_conversion_is_sane() {
        let wall = Instant::now();
        let t0 = timestamp();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ticks = timestamp().wrapping_sub(t0);
        let nanos = ticks_to_nanos(ticks);
        let wall_nanos = wall.elapsed().as_nanos() as u64;
        // Within 25% of the wall clock (calibration + sleep jitter).
        assert!(
            nanos > wall_nanos / 2 && nanos < wall_nanos * 2,
            "converted {nanos} ns vs wall {wall_nanos} ns"
        );
    }

    #[test]
    fn phase_tokens_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for phase in Phase::ALL {
            assert!(seen.insert(phase.token()), "duplicate {}", phase.token());
            assert!(!phase.describe().is_empty());
        }
    }
}
