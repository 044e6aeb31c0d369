//! Placement of the timed work on the CPUs this process may use.
//!
//! On a shared host the speed of each core moves by up to 1.8x, in spells
//! of seconds to minutes, mostly independently of the other cores. A
//! thread left where the scheduler puts it samples one core's spells; a
//! run that moves its timed work round-robin over the allowed CPUs
//! averages over all of them, so its median moves less from run to run.

#[cfg(target_os = "linux")]
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty where
/// affinity is not supported.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Run the calling thread on `cpus` only. Threads it starts afterwards
/// inherit the placement. An empty set leaves the thread where it is.
#[cfg(target_os = "linux")]
pub fn run_on(cpus: &[usize]) {
    let mut mask = [0u64; WORDS];
    for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if mask.iter().all(|&w| w == 0) {
        return;
    }
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread. A failure leaves the thread where it was.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn run_on(_cpus: &[usize]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips_on_every_allowed_cpu() {
        let all = allowed();
        for &c in &all {
            run_on(&[c]);
            assert_eq!(allowed(), vec![c]);
        }
        run_on(&all);
        assert_eq!(allowed(), all);
    }
}
