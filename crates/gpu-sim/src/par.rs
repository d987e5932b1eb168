//! One persistent execution pool over the host CPUs.
//!
//! The interpreter runs a launch's lane tiles across host cores the way a
//! GPU runs thread blocks across SMs. This module is the in-tree
//! replacement for the slice of `rayon` the workspace used: a parallel
//! `for_each` over an index range.
//!
//! * **Workers.** One process-wide pool of `available_parallelism − 1`
//!   threads, started at the first region that can use them and parked on
//!   a condvar between regions. No region spawns a thread.
//! * **Claiming.** The calling thread always takes part: it and the
//!   workers claim indices one at a time from a shared atomic cursor, so
//!   uneven per-index cost (boundary tiles doing halo loads) still
//!   balances.
//! * **Busy ⇒ inline.** The pool runs one region at a time. A region that
//!   finds it busy — another thread's region, or one issued from inside a
//!   region — runs on its caller alone, so no caller ever waits for
//!   another region.
//! * **CPU set.** Each thread reads its available parallelism once, at its
//!   first region; a thread pinned to one CPU runs every region inline.
//! * **Panics.** A panic in any index stops further claiming and is
//!   re-raised in the caller with its original payload once every thread
//!   has left the region, so a failed simulated block fails the launch
//!   just like a device-side assert would.

use crate::sync::Mutex;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Once};

/// A region's claim loop, run by its caller and by every worker that joins
/// it. It must not unwind: [`parallel_for`]'s loop catches every panic.
type Job<'a> = dyn Fn() + Sync + 'a;

/// What the pool is running.
struct Slot {
    /// The posted region, if any, with its borrow's lifetime erased (see
    /// [`Pool::run`]).
    job: Option<&'static Job<'static>>,
    /// Bumped per posted region, so a worker joins each region at most once.
    epoch: u64,
    /// Workers inside a region's job.
    active: usize,
}

struct Pool {
    slot: Mutex<Slot>,
    /// Signalled when a region is posted.
    posted: Condvar,
    /// Signalled when the last worker leaves a region.
    left: Condvar,
}

static POOL: Pool = Pool {
    slot: Mutex::new(Slot {
        job: None,
        epoch: 0,
        active: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

static START: Once = Once::new();

thread_local! {
    /// This thread's available parallelism, read at its first region (std
    /// reads the cgroup files for it, so once per thread, not per launch).
    static CPUS: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
}

impl Pool {
    /// Post `job` and run it on the calling thread, together with every
    /// worker that wakes before it is over; run it on the caller alone if
    /// the pool is busy.
    fn run(&'static self, job: &Job<'_>) {
        let mut slot = self.slot.lock();
        if slot.job.is_some() || slot.active > 0 {
            drop(slot);
            return job();
        }
        // SAFETY: only the lifetime changes. The erased borrow is reachable
        // only through `slot.job`, and `Posted::drop` — which runs before
        // this frame returns or unwinds — clears `slot.job` and then waits
        // until every worker that took the job has left it. No use of
        // `job` outlives this call.
        slot.job = Some(unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) });
        slot.epoch += 1;
        let _posted = Posted {
            pool: self,
            epoch: slot.epoch,
        };
        drop(slot);
        self.posted.notify_all();
        job();
    }
}

/// Ends a posted region: clears the job so no further worker takes it,
/// then waits for the workers inside it to leave.
struct Posted {
    pool: &'static Pool,
    epoch: u64,
}

impl Drop for Posted {
    fn drop(&mut self) {
        let mut slot = self.pool.slot.lock();
        slot.job = None;
        // `active` counts this region's workers until the epoch moves on:
        // the next region is posted only once `active` has reached 0.
        while slot.active > 0 && slot.epoch == self.epoch {
            slot = self.pool.left.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A worker: join each posted region once, run its job, repeat.
fn work(pool: &'static Pool) {
    let mut seen = 0;
    loop {
        let job = {
            let mut slot = pool.slot.lock();
            loop {
                match slot.job {
                    Some(job) if slot.epoch != seen => {
                        seen = slot.epoch;
                        slot.active += 1;
                        break job;
                    }
                    _ => slot = pool.posted.wait(slot).unwrap_or_else(|e| e.into_inner()),
                }
            }
        };
        job();
        let mut slot = pool.slot.lock();
        slot.active -= 1;
        if slot.active == 0 {
            // the region's caller, and perhaps an earlier region's caller
            // that has not yet seen the epoch move on
            pool.left.notify_all();
        }
    }
}

/// Run `f(&mut state, i)` for every `i in 0..n`, in parallel across the
/// host CPUs on the execution pool. Each participating thread builds its
/// `state` (scratch such as a register file) with `init` at its first
/// index and reuses it for every index it claims.
///
/// Calls may run in any order and concurrently; `f` must be `Sync`. Every
/// call has returned before `parallel_for` does. If any invocation panics,
/// the remaining indices may or may not run and the first panic's payload
/// is re-raised in the caller.
pub fn parallel_for<S, I, F>(n: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    // Relaxed: the cursor only hands out indices. What `f` writes reaches
    // the caller through the pool lock every worker takes to leave.
    let cursor = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let job = || {
        let claim = || {
            let mut state = None;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                f(state.get_or_insert_with(&init), i);
            }
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(claim)) {
            cursor.store(n, Ordering::Relaxed);
            panicked.lock().get_or_insert(payload);
        }
    };
    let cpus = CPUS.with(|c| *c);
    if n > 1 && cpus > 1 {
        START.call_once(|| {
            for _ in 1..cpus {
                std::thread::Builder::new()
                    .name("qdp-par".into())
                    .spawn(|| work(&POOL))
                    .expect("spawn an execution pool worker");
            }
        });
        POOL.run(&job);
    } else {
        job();
    }
    let payload = panicked.lock().take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Every test here takes this first: a region that finds the pool busy
    /// runs inline, with no worker, and some tests count on a worker.
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    /// A region of 64 indices in which the calling thread's first index
    /// waits until a pool worker has claimed one, so a worker is sure to
    /// take part; `on_worker(i)` runs for each index a worker claims.
    fn with_a_worker(on_worker: impl Fn(usize) + Sync) {
        let caller = thread::current().id();
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        parallel_for(64, || false, |waited, i| {
            if thread::current().id() != caller {
                let _ = tx.lock().send(());
                on_worker(i);
            } else if !*waited {
                *waited = true;
                rx.lock()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("no pool worker claimed an index");
            }
        });
    }

    #[test]
    fn for_visits_every_index_exactly_once() {
        let _pool = EXCLUSIVE.lock();
        for n in [0, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(n, || (), |_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn work_completes_before_return() {
        let _pool = EXCLUSIVE.lock();
        // all side effects of the region must be visible afterwards
        let sum = std::sync::atomic::AtomicU64::new(0);
        parallel_for(10_000, || (), |_, i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 9_999 * 10_000 / 2);
    }

    #[test]
    fn regions_reuse_the_same_threads() {
        let _pool = EXCLUSIVE.lock();
        #[cfg(target_os = "linux")]
        fn workers_alive() -> usize {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter(|t| {
                    let comm = t.as_ref().unwrap().path().join("comm");
                    std::fs::read_to_string(comm).is_ok_and(|c| c.trim() == "qdp-par")
                })
                .count()
        }
        parallel_for(64, || (), |_, _| {});
        #[cfg(target_os = "linux")]
        let before = workers_alive();
        let ran: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..1000 {
            parallel_for(16, || (), |_, _| {
                ran.lock().insert(thread::current().id());
            });
        }
        #[cfg(target_os = "linux")]
        assert_eq!(workers_alive(), before, "regions started pool threads");
        let cpus = CPUS.with(|c| *c);
        assert!(
            ran.lock().len() <= cpus,
            "1000 regions ran on {} threads with {cpus} CPUs",
            ran.lock().len()
        );
    }

    #[test]
    fn concurrent_callers_each_visit_every_index_once() {
        let _pool = EXCLUSIVE.lock();
        // Many short regions whose indices each take a few microseconds, like
        // a tile, so workers join them and one caller often posts just as
        // the other's region ends.
        let (done, finished) = mpsc::channel();
        let callers: Vec<_> = (0..2)
            .map(|caller| {
                let done = done.clone();
                thread::spawn(move || {
                    for round in 0..2000 {
                        let n = 2 + (37 * caller + round) % 61;
                        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                        parallel_for(n, || (), |_, i| {
                            let t = Instant::now();
                            while t.elapsed() < Duration::from_micros(5) {}
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        assert!(
                            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                            "caller {caller}, round {round}"
                        );
                    }
                    let _ = done.send(());
                })
            })
            .collect();
        for _ in &callers {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("a calling thread failed or hung");
        }
        for c in callers {
            c.join().expect("a calling thread failed");
        }
    }

    #[test]
    fn a_region_inside_a_region_completes() {
        let _pool = EXCLUSIVE.lock();
        let hits: Vec<AtomicUsize> = (0..8 * 100).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(8, || (), |_, i| {
            parallel_for(100, || (), |_, j| {
                hits[i * 100 + j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panics_propagate_from_for() {
        let _pool = EXCLUSIVE.lock();
        let r = panic::catch_unwind(|| {
            parallel_for(100, || (), |_, i| {
                if i == 37 {
                    panic!("block failed");
                }
            });
        });
        assert_eq!(r.unwrap_err().downcast_ref::<&str>(), Some(&"block failed"));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
        if CPUS.with(|c| *c) == 1 {
            return; // no pool workers on this host
        }
        let _pool = EXCLUSIVE.lock();
        let r = panic::catch_unwind(|| {
            with_a_worker(|_| panic!("tile failed on a pool worker"));
        });
        assert_eq!(
            r.unwrap_err().downcast_ref::<&str>(),
            Some(&"tile failed on a pool worker")
        );
        // the next region still has a worker (it times out without one)
        with_a_worker(|_| {});
    }
}
