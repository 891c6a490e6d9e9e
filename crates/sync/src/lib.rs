//! Synchronization facade for the workspace.
//!
//! Concurrency-bearing crates (`lrf-service`, `lrf-logdb`) import their
//! primitives from here instead of `std::sync` — a rule the workspace
//! linter (`cargo run -p lrf-lint`) enforces. The facade has two backends
//! selected at compile time:
//!
//! * **Default:** the vendored loom-style checker's instrumented types
//!   ([`Mutex`], [`RwLock`], [`Arc`], [`atomic`], [`thread`]). Outside a
//!   model run these delegate straight to `std::sync` (one relaxed atomic
//!   load of overhead), so production builds and ordinary tests behave
//!   exactly as before — while model tests can explore every interleaving
//!   of the same code, uninstrumented-by-hand.
//! * **`--cfg lrf_sync_std`:** pure `std::sync` re-exports, removing the
//!   instrumentation (and the `loom` crate) from the compiled code
//!   entirely. CI builds this configuration to prove the facade stays
//!   API-compatible with plain std.
//!
//! The [`MutexExt`] / [`RwLockExt`] extension traits centralize lock
//! poisoning policy: a poisoned lock means some thread panicked mid-
//! update, and for this workspace's state (idempotent flush tombstones,
//! versioned log snapshots) the right response is to keep serving with
//! the data as-is rather than to cascade panics across request threads.

/// Instrumented primitives (default backend).
#[cfg(not(lrf_sync_std))]
pub use loom::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Atomics from the active backend.
#[cfg(not(lrf_sync_std))]
pub mod atomic {
    pub use loom::sync::atomic::*;
}

/// Thread spawning from the active backend.
#[cfg(not(lrf_sync_std))]
pub mod thread {
    pub use loom::thread::*;
}

/// Pure std primitives (`--cfg lrf_sync_std` backend).
#[cfg(lrf_sync_std)]
pub use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Atomics from the active backend.
#[cfg(lrf_sync_std)]
pub mod atomic {
    pub use std::sync::atomic::*;
}

/// Thread spawning from the active backend.
#[cfg(lrf_sync_std)]
pub mod thread {
    pub use std::thread::*;
}

// Error/result vocabulary is std's in both backends (the loom shims reuse
// std's poison machinery).
pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

/// Channels, from std in both backends. The vendored checker has no
/// channel shim — its model tests cover the locks and atomics around a
/// queue, not the queue itself — so facade-covered crates that need
/// message passing (the sharded serving plane's worker feeds) import
/// `lrf_sync::mpsc` and stay out of model-checked sections.
pub mod mpsc {
    pub use std::sync::mpsc::*;
}

/// Poison-recovering acquisition for [`Mutex`].
pub trait MutexExt<'a, T: ?Sized> {
    /// Locks the mutex, recovering the guard if the lock is poisoned.
    ///
    /// Poisoning only records that another thread panicked while holding
    /// the guard; the data is still there. Callers of this method accept
    /// possibly mid-update data instead of propagating the panic — use it
    /// where every critical section leaves the value valid (single-field
    /// writes, idempotent tombstone checks).
    fn lock_recover(self) -> MutexGuard<'a, T>;
}

impl<'a, T: ?Sized> MutexExt<'a, T> for &'a Mutex<T> {
    fn lock_recover(self) -> MutexGuard<'a, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-recovering acquisition for [`RwLock`].
pub trait RwLockExt<'a, T: ?Sized> {
    /// Acquires shared read access, recovering the guard if poisoned.
    /// See [`MutexExt::lock_recover`] for when recovery is sound.
    fn read_recover(self) -> RwLockReadGuard<'a, T>;

    /// Acquires exclusive write access, recovering the guard if poisoned.
    /// See [`MutexExt::lock_recover`] for when recovery is sound.
    fn write_recover(self) -> RwLockWriteGuard<'a, T>;
}

impl<'a, T: ?Sized> RwLockExt<'a, T> for &'a RwLock<T> {
    fn read_recover(self) -> RwLockReadGuard<'a, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_recover(self) -> RwLockWriteGuard<'a, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poisons `m` by panicking a thread while it holds the guard.
    fn poison<T: Send + 'static>(m: &Arc<Mutex<T>>) {
        let m2 = Arc::clone(m);
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        });
        assert!(t.join().is_err());
        assert!(m.is_poisoned());
    }

    #[test]
    fn lock_recover_survives_poisoning() {
        let m = Arc::new(Mutex::new(41));
        poison(&m);
        *m.lock_recover() += 1;
        assert_eq!(*m.lock_recover(), 42);
    }

    #[test]
    fn rwlock_recover_survives_poisoning() {
        let rw = Arc::new(RwLock::new(1));
        let rw2 = Arc::clone(&rw);
        let t = std::thread::spawn(move || {
            let _g = rw2.write();
            panic!("poison the lock");
        });
        assert!(t.join().is_err());
        assert!(rw.is_poisoned());
        *rw.write_recover() = 2;
        assert_eq!(*rw.read_recover(), 2);
    }

    #[test]
    fn facade_types_interoperate_with_model_checker() {
        // The same facade types used by the service crates are the
        // checker's instrumented types (under the default backend), so a
        // model run can drive them directly.
        #[cfg(not(lrf_sync_std))]
        loom::model(|| {
            let n = Arc::new(Mutex::new(0));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || *n2.lock_recover() += 1);
            *n.lock_recover() += 1;
            t.join().unwrap();
            assert_eq!(*n.lock_recover(), 2);
        });
    }

    #[test]
    fn atomics_present_in_both_backends() {
        let a = atomic::AtomicUsize::new(0);
        a.fetch_add(3, atomic::Ordering::SeqCst);
        assert_eq!(a.load(atomic::Ordering::SeqCst), 3);
    }
}
