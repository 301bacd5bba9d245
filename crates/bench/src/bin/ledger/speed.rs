//! Host speed, measured beside the load, so that the ledger's timings read
//! in seconds of a quiet reference host.
//!
//! The reference host is a 2-vCPU guest on a shared machine, and its speed
//! changes in spells of tens of seconds: the same n = 4 search takes 0.38 s
//! in one minute and 0.72 s in the next, with its CPU time moving alike, so
//! no summary of a 15-s run removes a spell that covers the run. The two
//! vCPUs slow down independently of each other. A fixed workload that
//! fills freshly allocated memory with computed values, as the search's
//! table build and arena growth do, slows down in the same spells by about
//! the same share when it runs on the same vCPU. The ledger times it there
//! before and after each request and scales the request's timings by
//! [`REFERENCE_S`] over that time; the wall-clock values are printed and
//! recorded beside the scaled ones.
//!
//! The calibration is the ledger's own code, so it is the same on every
//! commit the ledger compares.

use std::hint::black_box;
use std::time::Instant;

use crate::stream::splitmix64;

/// Words per calibration: 32 MiB, so that it faults in fresh pages.
const WORDS: u64 = 1 << 22;

/// About the calibration's time on one vCPU of the reference host in a
/// quiet spell.
pub const REFERENCE_S: f64 = 0.018;

#[cfg(target_os = "linux")]
mod affinity {
    use std::os::raw::{c_int, c_ulong};

    /// glibc's `cpu_set_t`: a mask of 1024 CPUs.
    #[repr(C)]
    pub struct CpuSet(pub [c_ulong; 16]);

    pub const WORD: usize = c_ulong::BITS as usize;
    pub const BITS: usize = 16 * WORD;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }
}

/// The CPUs this thread may run on.
#[cfg(target_os = "linux")]
pub fn cpus() -> Vec<usize> {
    use affinity::{sched_getaffinity, CpuSet, BITS, WORD};
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t` of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    let allowed = |cpu: usize| set.0[cpu / WORD] >> (cpu % WORD) & 1 == 1;
    match rc {
        0 => (0..BITS).filter(|&cpu| allowed(cpu)).collect(),
        _ => vec![0],
    }
}

/// Pins the calling thread, and every child process it spawns from then
/// on, to `cpus`. A pin that fails leaves the thread where it was, which
/// only loosens the scaling of the timings taken there.
#[cfg(target_os = "linux")]
pub fn pin(cpus: &[usize]) {
    use affinity::{sched_setaffinity, CpuSet, BITS, WORD};
    let mut set = CpuSet([0; 16]);
    for &cpu in cpus.iter().filter(|&&cpu| cpu < BITS) {
        set.0[cpu / WORD] |= 1 << (cpu % WORD);
    }
    // SAFETY: `set` is a valid `cpu_set_t` of exactly the size passed, and
    // pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[cfg(not(target_os = "linux"))]
pub fn cpus() -> Vec<usize> {
    vec![0]
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpus: &[usize]) {}

/// Runs the calibration workload on each of `cpus` in turn and returns its
/// mean wall time. Leaves the calling thread pinned to `cpus`.
pub fn calibrate(cpus: &[usize]) -> f64 {
    let mut total = 0.0;
    for &cpu in cpus {
        pin(&[cpu]);
        let started = Instant::now();
        let mut words = Vec::with_capacity(WORDS as usize);
        words.extend((0..WORDS).map(splitmix64));
        black_box(&words);
        total += started.elapsed().as_secs_f64();
    }
    pin(cpus);
    total / cpus.len() as f64
}

/// Runs `f` on `cpus` between two calibrations there. Returns its result
/// and the factor that turns the times it took into reference-host
/// seconds.
pub fn around<T>(cpus: &[usize], f: impl FnOnce() -> T) -> (T, f64) {
    let before = calibrate(cpus);
    let out = f();
    let after = calibrate(cpus);
    (out, factor(before, after))
}

/// The factor that turns a time measured between calibrations `before`
/// and `after` into reference-host seconds.
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}
