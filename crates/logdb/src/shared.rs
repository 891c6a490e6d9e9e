//! Concurrent access to the log store: snapshot reads, `&self` appends.
//!
//! [`LogStore::record`] requires `&mut self`, which is the right contract
//! for a single-owner store but wrong for a serving plane: a feedback
//! service flushing a completed session must not stall the queries that are
//! concurrently training on the log. [`SharedLogStore`] wraps the store in
//! a copy-on-write cell:
//!
//! * **Readers** ([`SharedLogStore::snapshot`]) clone an [`Arc`] under a
//!   read lock held for nanoseconds, then use the snapshot lock-free for as
//!   long as they like (a whole coupled-SVM retrain, typically). A reader
//!   never waits on a flush and a flush never waits on a reader.
//! * **Appenders** ([`SharedLogStore::record`]) serialize among themselves
//!   on a separate append mutex. When no snapshot is outstanding the
//!   append is in-place and O(session); when readers hold snapshots the
//!   store is cloned **outside** the reader-facing lock — the `RwLock` is
//!   only ever held for an `Arc` clone or pointer swap, so a flush can
//!   never stall a `snapshot()` call for the duration of the copy. The
//!   append cost is paid by the (rare) flush path, never by the (hot)
//!   query path.
//!
//! Snapshots are immutable: a session recorded after a snapshot was taken
//! is invisible to it, exactly the semantics a retrieval round wants (one
//! consistent log for the whole round).

use crate::session::LogSession;
use crate::store::LogStore;
use lrf_obs::Counter;
use lrf_sync::{Arc, Mutex, MutexExt, PoisonError, RwLock, RwLockExt};

/// An interior-locked, copy-on-write [`LogStore`] for concurrent services.
#[derive(Debug)]
pub struct SharedLogStore {
    /// The live store. Readers and writers hold this lock only for an
    /// `Arc` clone / pointer swap (nanoseconds) — never for a data copy.
    inner: RwLock<Arc<LogStore>>,
    /// Serializes appenders so a clone-and-swap cannot lose a concurrent
    /// append (two appenders cloning the same base would drop one
    /// session).
    append: Mutex<()>,
    /// Event counters behind `Arc` handles so a service can adopt them
    /// into its `lrf_obs::Registry` (see [`SharedLogStore::counters`]).
    snapshots: Arc<Counter>,
    appends: Arc<Counter>,
    cow_clones: Arc<Counter>,
}

/// Shared handles to a [`SharedLogStore`]'s internal event counters, for
/// adoption into an [`lrf_obs::Registry`] — the store counts, the
/// registry reports.
#[derive(Clone, Debug)]
pub struct LogStoreCounters {
    /// `snapshot()` calls served (one per retrieval round, plus the
    /// store's own reads).
    pub snapshots: Arc<Counter>,
    /// Sessions appended via `record()`.
    pub appends: Arc<Counter>,
    /// Appends that had to copy the store because snapshots were
    /// outstanding (the slow, flush-path-only case).
    pub cow_clones: Arc<Counter>,
}

impl SharedLogStore {
    /// Creates an empty shared store over `n_images` images.
    ///
    /// # Panics
    /// Panics if `n_images == 0` (see [`LogStore::new`]).
    pub fn new(n_images: usize) -> Self {
        Self::from_store(LogStore::new(n_images))
    }

    /// Wraps an existing store (e.g. a log loaded from disk).
    pub fn from_store(store: LogStore) -> Self {
        Self {
            inner: RwLock::new(Arc::new(store)),
            append: Mutex::new(()),
            snapshots: Arc::new(Counter::new()),
            appends: Arc::new(Counter::new()),
            cow_clones: Arc::new(Counter::new()),
        }
    }

    /// Handles to the store's event counters (snapshots, appends,
    /// copy-on-write clones). The handles stay live for the store's
    /// lifetime; adopt them into a registry to expose them.
    pub(crate) fn counters(&self) -> LogStoreCounters {
        LogStoreCounters {
            snapshots: Arc::clone(&self.snapshots),
            appends: Arc::clone(&self.appends),
            cow_clones: Arc::clone(&self.cow_clones),
        }
    }

    /// A frozen, lock-free view of the store as of now. Cheap (one `Arc`
    /// clone); hold it for the duration of a retrieval round.
    ///
    /// Lock poisoning is recovered from, not propagated: the copy-on-write
    /// protocol only ever publishes fully-built stores (the swap is a
    /// pointer assignment), so even a poisoned cell holds a valid store.
    pub fn snapshot(&self) -> Arc<LogStore> {
        self.snapshots.inc();
        Arc::clone(&self.inner.read_recover())
    }

    /// Appends a session without exclusive access from the caller's side;
    /// returns the new session id. Outstanding snapshots are unaffected,
    /// and concurrent `snapshot()` calls are never blocked for longer
    /// than a pointer swap, even when the append has to copy the store.
    pub fn record(&self, session: LogSession) -> usize {
        let _appender = self.append.lock_recover();
        self.appends.inc();
        {
            let mut guard = self.inner.write_recover();
            // No snapshot outstanding (`guard` holds the only Arc): mutate
            // in place, O(session), lock held only that long.
            if let Some(store) = Arc::get_mut(&mut guard) {
                return store.record(session);
            }
        }
        // Snapshots outstanding: copy the store without holding the
        // reader-facing lock (the append mutex keeps this base current —
        // no other appender can swap underneath us).
        self.cow_clones.inc();
        let base = self.snapshot();
        let mut next = (*base).clone();
        drop(base);
        let id = next.record(session);
        *self.inner.write_recover() = Arc::new(next);
        id
    }

    /// Number of recorded sessions (in the live store, not any snapshot).
    pub fn n_sessions(&self) -> usize {
        self.snapshot().n_sessions()
    }

    /// Number of images the store covers.
    pub(crate) fn n_images(&self) -> usize {
        self.snapshot().n_images()
    }

    /// Extracts the current store, consuming the wrapper (end of serving:
    /// persist the accumulated log). Clones only if snapshots still exist.
    pub(crate) fn into_store(self) -> LogStore {
        let arc = self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Relevance;

    fn session(pairs: &[(usize, bool)]) -> LogSession {
        LogSession::new(
            pairs
                .iter()
                .map(|&(id, r)| (id, Relevance::from_bool(r)))
                .collect(),
        )
    }

    #[test]
    fn record_through_shared_reference() {
        let shared = SharedLogStore::new(8);
        let s0 = shared.record(session(&[(0, true), (3, false)]));
        let s1 = shared.record(session(&[(3, true)]));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(shared.n_sessions(), 2);
        assert_eq!(shared.n_images(), 8);
        assert_eq!(shared.snapshot().entry(3, 1), 1.0);
    }

    #[test]
    fn snapshots_are_frozen_while_appends_continue() {
        let shared = SharedLogStore::new(4);
        shared.record(session(&[(0, true)]));
        let snap = shared.snapshot();
        shared.record(session(&[(1, true)]));
        shared.record(session(&[(2, false)]));
        // The snapshot still sees one session; the live store sees three.
        assert_eq!(snap.n_sessions(), 1);
        assert_eq!(shared.n_sessions(), 3);
        assert!(snap.log_vector(1).is_empty());
        assert_eq!(shared.snapshot().log_vector(1).nnz(), 1);
    }

    #[test]
    fn appends_without_snapshots_do_not_clone() {
        let shared = SharedLogStore::new(4);
        let before = Arc::as_ptr(&shared.snapshot());
        // No snapshot outstanding now — the append mutates in place.
        shared.record(session(&[(0, true)]));
        let after = Arc::as_ptr(&shared.snapshot());
        assert_eq!(before, after, "in-place append must not clone the store");
    }

    #[test]
    fn concurrent_readers_and_appenders() {
        let shared = SharedLogStore::new(16);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let shared = &shared;
                scope.spawn(move || {
                    for i in 0..25usize {
                        shared.record(session(&[(t * 4 + i % 4, i % 2 == 0)]));
                        // This thread alone has recorded i+1 sessions, so
                        // any snapshot taken now must see more than i.
                        let snap = shared.snapshot();
                        assert!(snap.n_sessions() > i);
                    }
                });
            }
        });
        assert_eq!(shared.n_sessions(), 100);
    }

    #[test]
    fn counters_track_snapshots_appends_and_cow_clones() {
        let shared = SharedLogStore::new(4);
        let c = shared.counters();
        shared.record(session(&[(0, true)])); // no snapshot held: in place
        assert_eq!((c.appends.get(), c.cow_clones.get()), (1, 0));
        let held = shared.snapshot();
        shared.record(session(&[(1, true)])); // snapshot held: must copy
        assert_eq!((c.appends.get(), c.cow_clones.get()), (2, 1));
        drop(held);
        assert!(c.snapshots.get() >= 1);
        // The handles outlive the wrapper.
        drop(shared);
        assert_eq!(c.appends.get(), 2);
    }

    #[test]
    fn into_store_returns_accumulated_log() {
        let shared = SharedLogStore::new(4);
        shared.record(session(&[(1, true)]));
        let _held = shared.snapshot(); // force the clone path
        let store = shared.into_store();
        assert_eq!(store.n_sessions(), 1);
    }
}
