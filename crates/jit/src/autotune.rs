//! Per-kernel thread-block auto-tuning (paper §VII).
//!
//! The strategy, verbatim from the paper: *"First we try to launch a given
//! kernel with the maximum thread block size allowed for the GPU in
//! question (we use 1-dimensional blocks, thus 2¹⁰ for Kepler) and, if that
//! fails, re-try, having reduced the thread block size by a factor of 2
//! until the launch succeeds. Once successfully launched, consecutive
//! launches 'probe' smaller block sizes until the execution time increases
//! significantly (arbitrarily we use 33%). The 'best configuration' would
//! then be used for all consecutive launches."*
//!
//! Crucially, *"no kernels are launched solely for the purpose of tuning;
//! kernel tuning is carried out on the payload compute launches"* — the
//! tuner only chooses block sizes for launches that would happen anyway.
//!
//! Each compiled kernel carries its own [`TuneState`]
//! ([`crate::CompiledKernel::tuning`]), filled at its first launch; the
//! launch path ([`crate::launch`]) walks the ladder below through it.

use crate::persist::KernelStore;

/// Smallest block size worth probing (one warp).
pub const MIN_BLOCK: u32 = 32;

/// Relative slowdown at which probing stops (the paper's 33 %).
pub const SLOWDOWN_THRESHOLD: f64 = 1.33;

/// Tuning state of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneState {
    /// Block size the next launch should use.
    pub current: u32,
    /// Best configuration so far `(block, time)`.
    pub best: Option<(u32, f64)>,
    /// Probing finished; `current` is the winner.
    pub settled: bool,
    /// Number of launch failures observed (resource exhaustion).
    pub launch_failures: u32,
    /// Number of payload launches used as probes.
    pub probes: u32,
    /// Thread count the record tunes at, set by its first probing launch:
    /// times are compared only between launches of one width, so a launch
    /// of another width (a §V inner launch beside its face launch) runs at
    /// [`TuneState::current`] and is no probe.
    pub width: Option<usize>,
}

impl TuneState {
    /// The state `kernel` starts with on a device whose maximum block size
    /// is `max_block`: settled at the block an earlier process recorded in
    /// `store` (the store evicts one larger than `max_block`, so the kernel
    /// re-tunes instead of launch-failing), probing from `max_block`
    /// otherwise.
    pub fn first(kernel: &str, max_block: u32, store: Option<&KernelStore>) -> TuneState {
        let seed = store.and_then(|s| s.lookup_tuned(kernel, max_block));
        TuneState {
            current: seed.map_or(max_block, |(block, _)| block),
            best: seed,
            settled: seed.is_some(),
            launch_failures: 0,
            probes: 0,
            width: None,
        }
    }

    /// Block size for the next payload launch over `threads` threads, and
    /// whether that launch is a trial: tuning is not settled yet, and the
    /// record tunes at this width (the first trial sets it).
    pub fn next(&mut self, threads: usize) -> (u32, bool) {
        let trial = !self.settled && *self.width.get_or_insert(threads) == threads;
        (self.current, trial)
    }

    /// The launch at the current block size failed (resource exhaustion):
    /// halve and retry. Returns the new block size, or `None` when the
    /// kernel cannot launch even with the minimum block. A *settled* state
    /// that fails (possible only with a stale persisted seed — the model
    /// is deterministic, so a block that once succeeded keeps succeeding)
    /// is unsettled so the kernel re-tunes cleanly.
    pub fn failed(&mut self) -> Option<u32> {
        self.launch_failures += 1;
        if self.settled {
            self.settled = false;
            self.best = None;
        }
        if self.current <= MIN_BLOCK {
            return None;
        }
        self.current /= 2;
        Some(self.current)
    }

    /// Report the measured time of a successful trial launch at `block`.
    /// Returns the winning `(block, time)` when this report settles the
    /// kernel — what the persistent store keeps. A report that arrives
    /// after another launch settled the kernel counts as a probe and moves
    /// nothing else.
    pub fn report(&mut self, block: u32, time: f64) -> Option<(u32, f64)> {
        self.probes += 1;
        if self.settled {
            return None;
        }
        let probe_on = match self.best {
            None => {
                self.best = Some((block, time));
                block > MIN_BLOCK
            }
            Some((_, best_time)) => {
                if time < best_time {
                    self.best = Some((block, time));
                }
                // Stop at a significant slowdown or at the bottom.
                !(time > best_time * SLOWDOWN_THRESHOLD || block <= MIN_BLOCK)
            }
        };
        if probe_on {
            self.current = block / 2;
            return None;
        }
        self.settled = true;
        let best = self.best?;
        self.current = best.0;
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Thread count of the synthetic trial launches.
    const WIDTH: usize = 4096;

    /// Synthetic execution-time curve with a minimum at 128 threads.
    fn fake_time(block: u32) -> f64 {
        match block {
            1024 => 1.10e-3,
            512 => 1.05e-3,
            256 => 1.02e-3,
            128 => 1.00e-3,
            64 => 1.25e-3,
            32 => 2.00e-3,
            _ => 5.0e-3,
        }
    }

    /// Drive trial launches on the `fake_time` curve until `st` settles;
    /// returns the number of trials and the settle's `(block, time)`.
    fn settle(st: &mut TuneState) -> (u32, Option<(u32, f64)>) {
        let mut trials = 0;
        loop {
            let (b, trial) = st.next(WIDTH);
            if !trial {
                return (trials, None);
            }
            trials += 1;
            assert!(trials < 20, "tuner did not settle");
            if let Some(won) = st.report(b, fake_time(b)) {
                return (trials, Some(won));
            }
        }
    }

    #[test]
    fn finds_the_minimum_and_settles() {
        let mut st = TuneState::first("k", 1024, None);
        let (trials, won) = settle(&mut st);
        // 64 is 25% slower than 128 (not "significant"); 32 is 2x slower →
        // probing stops there and the best (128) wins.
        assert_eq!(won, Some((128, fake_time(128))));
        assert_eq!(st.next(WIDTH), (128, false));
        assert_eq!(st.best.unwrap().0, 128);
        // every probe was a payload launch; no extra launches
        assert_eq!(st.probes, trials);
    }

    /// Only launches of the width the first trial set are probes: one of
    /// another width runs at the current block and reports nothing.
    #[test]
    fn a_record_tunes_at_one_width() {
        let mut st = TuneState::first("k", 1024, None);
        assert_eq!(st.next(WIDTH), (1024, true));
        st.report(1024, fake_time(1024));
        assert_eq!(st.next(WIDTH / 2), (512, false));
        assert_eq!(st.width, Some(WIDTH));
        let (trials, won) = settle(&mut st);
        assert_eq!((trials + 1, won), (st.probes, Some((128, fake_time(128)))));
    }

    #[test]
    fn launch_failure_halves_until_fit() {
        let mut st = TuneState::first("big", 1024, None);
        assert_eq!(st.next(WIDTH), (1024, true));
        assert_eq!(st.failed(), Some(512));
        assert_eq!(st.failed(), Some(256));
        assert_eq!(st.next(WIDTH), (256, true));
        assert_eq!(st.launch_failures, 2);
    }

    #[test]
    fn unlaunchable_kernel_reports_none() {
        let mut st = TuneState::first("k", 64, None);
        assert_eq!(st.failed(), Some(32));
        assert_eq!(st.failed(), None);
    }

    #[test]
    fn settled_kernel_ignores_late_reports() {
        let mut st = TuneState::first("k", 128, None);
        settle(&mut st);
        let before = st.clone();
        // A trial report landing after the settle (another thread's
        // launch) is a probe, and nothing else.
        assert_eq!(st.report(32, 1e-9), None);
        assert_eq!(st, TuneState { probes: before.probes + 1, ..before });
    }

    fn store_in(tag: &str) -> (std::path::PathBuf, Arc<KernelStore>) {
        let dir = std::env::temp_dir().join(format!(
            "qdp_autotune_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t = Arc::new(qdp_telemetry::Telemetry::new());
        let store = KernelStore::open(&dir, "dev", t);
        (dir, store)
    }

    #[test]
    fn a_stored_block_seeds_a_settled_state() {
        let (dir, store) = store_in("seed");
        store.put_tuned("k", 128, fake_time(128));
        // Zero probes, zero trial launches: the first launch is at the
        // winner.
        let mut st = TuneState::first("k", 1024, Some(&store));
        assert_eq!(st.next(WIDTH), (128, false));
        assert_eq!(st.probes, 0);
        // A block the device cannot launch is no seed.
        assert_eq!(
            TuneState::first("k", 64, Some(&store)).next(WIDTH),
            (64, true)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_seed_that_fails_to_launch_re_tunes() {
        let (dir, store) = store_in("stale");
        store.put_tuned("k", 512, 1e-3);
        let mut st = TuneState::first("k", 1024, Some(&store));
        assert_eq!(st.next(WIDTH), (512, false));
        // The seeded block fails (e.g. the kernel grew registers): the
        // state unsettles and probing resumes from the halved size.
        assert_eq!(st.failed(), Some(256));
        assert_eq!(st.next(WIDTH), (256, true));
        // The re-settle hands back the winner that replaces the stale entry.
        assert_eq!(settle(&mut st).1, Some((128, fake_time(128))));
        assert_eq!(st.next(WIDTH), (128, false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
