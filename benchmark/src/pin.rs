//! Pin the benchmark process to one CPU.
//!
//! `SimCluster::advance_all` fans out over
//! `std::thread::available_parallelism()` freshly spawned threads on
//! every call. On the 2-vCPU hosts this benchmark runs on, the cost of
//! those cross-CPU spawns and joins flips between regimes that differ
//! by milliseconds per call for minutes at a time, depending on what
//! else the hypervisor is running — a 3× swing in `system_live` step
//! time at the same seed. With the process confined to one CPU,
//! `available_parallelism()` is 1, every layer takes its sequential
//! path (the load generator is one thread and every `WorkerPool` is
//! already at one worker), and wall-clock scaling — which two shared
//! cores cannot evidence anyway — is out of the measurement.

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly the
        // size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
        if rc != 0 {
            return None;
        }
        // The highest allowed CPU: CPU 0 takes most interrupts.
        let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1u64 << bit;
        // SAFETY: `one` is a live buffer of exactly the size passed and
        // names a CPU the kernel just reported as allowed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        (rc == 0).then_some(word * 64 + bit)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

/// Confine this thread (and every thread it later spawns) to the
/// highest CPU it is allowed on. Returns that CPU, or `None` when the
/// platform has no such call or it failed — the run then goes ahead
/// unpinned, and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}
