//! Scoped parallel-for over the host CPUs.
//!
//! The interpreter runs simulated thread blocks across host threads the
//! way blocks run across SMs. This module is the in-tree replacement for
//! the slice of `rayon` the workspace used: a parallel `for_each` and a
//! parallel `map` over an index range, built on `std::thread::scope`.
//!
//! Work distribution is dynamic: workers claim chunks of the index range
//! from a shared atomic cursor, so uneven per-index cost (e.g. boundary
//! blocks doing halo loads) still balances. Worker panics propagate to the
//! caller — `std::thread::scope` re-raises a panic from any spawned thread
//! when the scope closes, so a failed simulated block fails the launch
//! just like a device-side assert would.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads a parallel region uses (the host's available
/// parallelism, capped so tiny ranges don't spawn idle threads).
fn workers_for(n: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    hw.min(n)
}

/// Run `f(&mut state, i)` for every `i in 0..n`, in parallel across the
/// host CPUs. Each worker builds its `state` (scratch such as a register
/// file) once with `init` and reuses it for every index it claims.
///
/// Calls may run in any order and concurrently; `f` must be `Sync`. If any
/// invocation panics the panic propagates to the caller after the scope
/// joins (remaining indices may or may not have run).
pub fn parallel_for<S, I, F>(n: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let workers = workers_for(n);
    if workers <= 1 {
        let mut state = init();
        for i in 0..n {
            f(&mut state, i);
        }
        return;
    }
    // Chunked dynamic claiming: big enough to amortise the atomic,
    // small enough to balance uneven blocks.
    let chunk = (n / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        return;
                    }
                    for i in start..(start + chunk).min(n) {
                        f(&mut state, i);
                    }
                }
            });
        }
    });
}

/// Compute `[f(0), f(1), …, f(n-1)]` in parallel across the host CPUs.
///
/// The output order matches the index order regardless of scheduling.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers_for(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = ci * chunk;
                for (j, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(f(base + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn for_visits_every_index_exactly_once() {
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
    fn map_preserves_index_order() {
        for n in [0, 1, 3, 17, 256, 999] {
            let v = parallel_map(n, |i| i * i);
            assert_eq!(v, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn work_completes_before_return() {
        // all side effects of the region must be visible afterwards
        let sum = AtomicU64::new(0);
        parallel_for(10_000, || (), |_, i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 9_999 * 10_000 / 2);
    }

    #[test]
    fn panics_propagate_from_for() {
        let r = std::panic::catch_unwind(|| {
            parallel_for(100, || (), |_, i| {
                if i == 37 {
                    panic!("block failed");
                }
            });
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn panics_propagate_from_map() {
        let r = std::panic::catch_unwind(|| {
            parallel_map(100, |i| {
                if i == 63 {
                    panic!("block failed");
                }
                i
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }
}
