//! Host probes: a fixed reference loop, the master's peak RSS, and the
//! worker count every workload sizes its pool by.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference loop (roughly 10 ms on a 2-core x86-64 host).
const CALIB_ITERS: u64 = 4_000_000;

/// Time a fixed integer/float loop that shares no code with the system, in
/// ms (median of three). Measured before and after each workload, it tells
/// a slow-host plateau apart from a change in the code.
pub fn calib_ms() -> f64 {
    let mut t = [0.0; 3];
    for slot in &mut t {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for _ in 0..black_box(CALIB_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += ((x >> 11) as f64).sqrt();
        }
        black_box(acc);
        *slot = t0.elapsed().as_secs_f64() * 1e3;
    }
    crate::stats::median(&t)
}

/// The process's high-water resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads or processes per pool: the host's hardware parallelism,
/// so no workload runs more workers than `nproc`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];
const MAX_CPUS: usize = 64 * 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in order; empty when the host
/// will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is a writable cpu_set_t of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MAX_CPUS)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus`; false when the host refuses.
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < MAX_CPUS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    #[cfg(target_os = "linux")]
    // SAFETY: `mask` is a readable cpu_set_t of exactly the size passed.
    return unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) } == 0;
    #[cfg(not(target_os = "linux"))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "sched_getaffinity answers on Linux");
        assert!(pin_thread(&cpus[..1]));
        assert_eq!(allowed_cpus(), cpus[..1]);
        assert!(pin_thread(&cpus));
        assert_eq!(allowed_cpus(), cpus);
    }
}
