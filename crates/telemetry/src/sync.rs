//! The workspace's one non-poisoning mutex (re-exported as
//! `qdp_gpu_sim::sync`): `lock()` returns the guard directly, and a
//! panicked holder does not poison the lock for other host threads. It
//! lives here because telemetry sits at the very bottom of the workspace
//! graph, so every layer can use it.

use std::sync::PoisonError;

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A mutual-exclusion lock whose `lock()` returns the guard directly; a
/// panicked holder does not poison it.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value` in a new lock (const, so statics can hold one).
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_lock_still_usable() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex underneath");
        })
        .join();
        // parking_lot semantics: the lock is still usable after a panic
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }
}
