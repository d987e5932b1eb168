//! Thread placement for the workload whose ranks are threads.
//!
//! `multirank_hmc` time-slices its ranks on one core. With a rank per core
//! the op needs both of the sandbox's cores at full speed at once, and it
//! ran in two modes that lasted many seconds each — about 125 ms and about
//! 175 ms per op, whichever the host gave — so the fastest op of a run
//! spread by 20 % over ten runs; on one core the same ten runs spread by 6 %
//! (README "Noise study"). The wall time is then the host work of all ranks
//! in a row, which is what a change to `comm`, `core::multinode` or
//! `checkpoint` moves; the overlap of the ranks is the simulated clock's
//! business. A bound thread also sees an `available_parallelism` of 1, so
//! the interpreter's `parallel_for` runs its blocks inline.

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` of glibc: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn bind_to_last_cpu() -> Option<usize> {
        let mut allowed = [0u64; WORDS];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is `size` writable bytes; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..WORDS * 64).rfind(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is `size` readable bytes; pid 0 is this thread.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn bind_to_last_cpu() -> Option<usize> {
        None
    }
}

/// Bind the calling thread to the last CPU it is allowed to run on and
/// return that CPU. Threads that inherited one mask — the ranks of a
/// cluster — all land on the same core. `None` where the platform cannot,
/// which leaves the thread as it was.
pub fn share_one_core() -> Option<usize> {
    imp::bind_to_last_cpu()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn threads_of_one_parent_share_the_core_and_see_one_cpu() {
        let bound = || {
            std::thread::spawn(|| {
                let cpu = share_one_core();
                assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
                cpu
            })
            .join()
            .unwrap()
        };
        let first = bound();
        assert!(first.is_some());
        assert_eq!(first, bound());
    }
}
