//! Thread placement for the loopback workload. Left to the scheduler,
//! the client, `lsd` and sink threads of a 64 KiB session land on
//! different cores from one run to the next, and the session latency
//! moves with the placement (p95 ranged 1.0–3.5 ms across five runs on
//! a 2-core VM) rather than with the code.

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, in order.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Run the calling thread, and the threads it spawns from now on, on
/// `cpus` only. Returns false when the kernel refused.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}
