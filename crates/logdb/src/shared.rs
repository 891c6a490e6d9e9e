//! The log store a service owns: snapshot reads, `&self` appends and
//! optional write-ahead durability, behind one writer lock.
//!
//! [`LogStore::record`] requires `&mut self`, which is the right contract
//! for a single-owner store but wrong for a serving plane: a feedback
//! service flushing a completed session must not stall the queries that are
//! concurrently training on the log. [`SharedLogStore`] publishes the store
//! as versions behind an [`Arc`]:
//!
//! * **Readers** ([`SharedLogStore::snapshot`]) clone an [`Arc`] under a
//!   read lock held for nanoseconds, then use the snapshot lock-free for as
//!   long as they like (a whole coupled-SVM retrain, typically). A reader
//!   never waits on a flush and a flush never waits on a reader.
//! * **Writers** ([`record`](SharedLogStore::record),
//!   [`record_durable`](SharedLogStore::record_durable) and
//!   [`compact`](SharedLogStore::compact)) serialize on one writer lock,
//!   which also owns the WAL when the store has one. When no snapshot is
//!   outstanding an append is in-place and O(session). When readers hold
//!   snapshots the append publishes a new version: every version shares
//!   one base of sessions and columns, and the new one copies only the
//!   previous version's short tail, plus each column the session judges.
//!   The copy of the tail takes the reader-facing lock; the record, which
//!   folds a full tail into a fresh base copy once every `TAIL_CAP`
//!   sessions (see [`LogStore`]), runs outside it.
//!
//! Snapshots are immutable: a session recorded after a snapshot was taken
//! is invisible to it, exactly the semantics a retrieval round wants (one
//! consistent log for the whole round).
//!
//! A store [`open`](SharedLogStore::open)ed over a WAL directory keeps
//! three more invariants, each because its writers share that one lock:
//!
//! * **WAL order == store order.** [`SharedLogStore::record_durable`]
//!   appends to the WAL (fsynced) and then to memory, so the ids the store
//!   assigns match the WAL's replay order exactly.
//! * **Disk is a prefix of memory.** The sessions on disk (snapshot plus
//!   WAL) are the store's first sessions; the rest, recorded by
//!   [`SharedLogStore::record`] while storage failed, are
//!   [`unsynced`](SharedLogStore::unsynced). While any is, the WAL refuses
//!   appends, so no later session can overtake one in replay.
//! * **Compaction is the one repair, and never duplicates.**
//!   [`SharedLogStore::compact`] snapshots the whole in-memory store: every
//!   WAL session and every unsynced one, each exactly once. Snapshot +
//!   empty WAL ≡ the store; nothing is ever appended to the WAL after a
//!   snapshot that already holds it.
//!
//! A store built by [`new`](SharedLogStore::new) or
//! [`from_store`](SharedLogStore::from_store) has no WAL: every record is
//! in memory only, none counts as unsynced, and compaction is a no-op.

use lrf_obs::Counter;
use lrf_storage::wal::Wal;
use lrf_sync::atomic::{AtomicUsize, Ordering};
use lrf_sync::{Arc, Mutex, MutexExt, MutexGuard, PoisonError, RwLock, RwLockExt};

use crate::persist;
use crate::session::LogSession;
use crate::store::LogStore;
use crate::wal::{self, WalError};

/// An interior-locked, versioned [`LogStore`] with optional write-ahead
/// durability, for concurrent services.
#[derive(Debug)]
pub struct SharedLogStore {
    /// The live version. Readers hold this lock for an `Arc` clone,
    /// writers for an in-place record, a copy of the tail or a pointer
    /// swap — never for a copy of the log.
    inner: RwLock<Arc<LogStore>>,
    /// The one writer lock, owning the WAL (`None`: memory only). Every
    /// append and every compaction holds it, so a clone-and-swap cannot
    /// lose a concurrent append, and a compaction's snapshot holds each
    /// session it counts as synced.
    writer: Mutex<Option<Wal>>,
    /// Sessions in memory but neither in the WAL nor in its snapshot.
    /// Relaxed is enough: every write, and the read that gates an append,
    /// happen under the writer lock, which orders them; reads without the
    /// lock (admission, gauges) are advisory.
    unsynced: AtomicUsize,
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
    /// `snapshot()` calls served: one per retrieval round. The store's
    /// own reads (`n_sessions`, `n_images`) take none.
    pub snapshots: Arc<Counter>,
    /// Sessions appended to memory, durable or not.
    pub appends: Arc<Counter>,
    /// Appends that published a new version because snapshots were
    /// outstanding: each copies the live version's tail, not the log.
    pub cow_clones: Arc<Counter>,
}

impl SharedLogStore {
    /// Creates an empty, WAL-less shared store over `n_images` images.
    ///
    /// # Panics
    /// Panics if `n_images == 0` (see [`LogStore::new`]).
    pub fn new(n_images: usize) -> Self {
        Self::from_store(LogStore::new(n_images))
    }

    /// Wraps an existing store (e.g. a log loaded from disk), WAL-less.
    pub fn from_store(store: LogStore) -> Self {
        Self::with_wal(store, None)
    }

    /// Wraps `store`, whose sessions are all on `wal`'s disk (if any).
    pub(crate) fn with_wal(store: LogStore, wal: Option<Wal>) -> Self {
        Self {
            inner: RwLock::new(Arc::new(store)),
            writer: Mutex::new(wal),
            unsynced: AtomicUsize::new(0),
            snapshots: Arc::new(Counter::new()),
            appends: Arc::new(Counter::new()),
            cow_clones: Arc::new(Counter::new()),
        }
    }

    /// Handles to the store's event counters (snapshots, appends, new
    /// versions published under a snapshot). The handles stay live for
    /// the store's lifetime; adopt them into a registry to expose them.
    pub fn counters(&self) -> LogStoreCounters {
        LogStoreCounters {
            snapshots: Arc::clone(&self.snapshots),
            appends: Arc::clone(&self.appends),
            cow_clones: Arc::clone(&self.cow_clones),
        }
    }

    /// A frozen, lock-free view of the store as of now. Cheap (one `Arc`
    /// clone); hold it for the duration of a retrieval round.
    ///
    /// Lock poisoning is recovered from, not propagated: the writers only
    /// ever publish fully-built versions (the swap is a pointer
    /// assignment), so even a poisoned cell holds a valid store.
    pub fn snapshot(&self) -> Arc<LogStore> {
        self.snapshots.inc();
        Arc::clone(&self.inner.read_recover())
    }

    /// Records a session in memory only; returns the new session id.
    /// Outstanding snapshots are unaffected, and concurrent `snapshot()`
    /// calls are never blocked for longer than an in-place record or a
    /// copy of the tail, even when the append folds a full tail.
    ///
    /// On a store with a WAL this is the degraded path: the session counts
    /// as [`unsynced`](Self::unsynced), and is not crash-safe, until a
    /// [`compact`](Self::compact) snapshots it.
    pub fn record(&self, session: LogSession) -> usize {
        let writer = self.writer.lock_recover();
        if writer.is_some() {
            self.unsynced.fetch_add(1, Ordering::Relaxed);
        }
        self.append(&writer, session)
    }

    /// Durably records a session: WAL append first (fsynced), then memory.
    /// On a WAL-less store this is [`record`](Self::record).
    ///
    /// An `Err` means *neither* the WAL nor the store recorded the
    /// session — the caller may retry or [`record`](Self::record) it.
    /// While any session is [`unsynced`](Self::unsynced) the append is
    /// refused without touching storage: replaying this session ahead of
    /// the unsynced ones would give it another id. [`compact`](Self::compact)
    /// lifts the refusal.
    pub fn record_durable(&self, session: LogSession) -> Result<usize, WalError> {
        let mut writer = self.writer.lock_recover();
        if let Some(log) = writer.as_mut() {
            if self.unsynced() > 0 {
                return Err(WalError::Io(std::io::Error::other(
                    "unsynced sessions precede this one; compact first",
                )));
            }
            log.append(&wal::encode(&session)?)?;
        }
        Ok(self.append(&writer, session))
    }

    /// Appends `session` to memory. Taking the writer's guard proves the
    /// caller holds the lock, so the version this copies cannot go stale.
    fn append(&self, _writer: &MutexGuard<'_, Option<Wal>>, session: LogSession) -> usize {
        self.appends.inc();
        let mut next = {
            let mut guard = self.inner.write_recover();
            // No snapshot outstanding (`guard` holds the only Arc): mutate
            // in place, O(session), lock held only that long.
            if let Some(store) = Arc::get_mut(&mut guard).filter(|s| !s.folds_next()) {
                return store.record(session);
            }
            // Snapshots outstanding: a new version, sharing the base.
            LogStore::clone(&guard)
        };
        self.cow_clones.inc();
        // Record outside the reader-facing lock. A record that copies the
        // base always comes here (`folds_next`), even when the version was
        // ours, so that copy never stalls a `snapshot()`.
        let id = next.record(session);
        *self.inner.write_recover() = Arc::new(next);
        id
    }

    /// Sessions [`record`](Self::record)ed since the last successful
    /// [`compact`](Self::compact): in memory, not on disk. Always 0 on a
    /// WAL-less store.
    pub fn unsynced(&self) -> usize {
        self.unsynced.load(Ordering::Relaxed)
    }

    /// Publishes the current in-memory store as the WAL's snapshot and
    /// retires the replay segments, making every unsynced session durable.
    /// No-op on a WAL-less store. On `Err` the unsynced count is unchanged
    /// and recovery still finds the previous snapshot plus the WAL.
    pub fn compact(&self) -> Result<(), WalError> {
        let mut writer = self.writer.lock_recover();
        let Some(log) = writer.as_mut() else {
            return Ok(());
        };
        // No record of either kind can interleave, so the snapshot holds
        // every WAL session and exactly the `covered` unsynced ones.
        let snapshot = self.snapshot();
        let covered = self.unsynced();
        log.compact(&persist::to_json(&snapshot)?)?;
        self.unsynced.fetch_sub(covered, Ordering::Relaxed);
        Ok(())
    }

    /// Segments started in the current WAL epoch (0 for WAL-less).
    pub fn wal_segments(&self) -> u64 {
        self.writer
            .lock_recover()
            .as_ref()
            .map_or(0, Wal::segments_started)
    }

    /// Number of recorded sessions (in the live store, not any snapshot).
    /// Reads under the lock: it takes no snapshot, so it neither counts as
    /// one nor makes a concurrent append copy the tail.
    pub fn n_sessions(&self) -> usize {
        self.inner.read_recover().n_sessions()
    }

    /// Number of images the store covers (read like
    /// [`n_sessions`](Self::n_sessions)).
    pub fn n_images(&self) -> usize {
        self.inner.read_recover().n_images()
    }

    /// Extracts the current store, consuming the wrapper (end of serving:
    /// persist the accumulated log). Copies the tail only if snapshots
    /// still exist. This does *not* compact first — callers that want the
    /// final state snapshotted should [`compact`](Self::compact) before.
    pub fn into_store(self) -> LogStore {
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
    use crate::store::TAIL_CAP;

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
        assert_eq!(shared.snapshot().log_vector(3).get(1), 1.0);
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
    fn an_append_under_a_held_snapshot_copies_only_the_judged_columns() {
        let shared = SharedLogStore::new(6);
        shared.record(session(&[(0, true), (2, false), (4, true)]));
        shared.record(session(&[(2, true), (5, true)]));
        let held = shared.snapshot();
        shared.record(session(&[(2, false), (3, true)]));
        let live = shared.snapshot();
        for i in 0..6 {
            let same = std::ptr::eq(held.log_vector(i), live.log_vector(i));
            assert_eq!(same, i != 2 && i != 3, "column {i}");
        }
        assert_eq!((held.n_sessions(), live.n_sessions()), (2, 3));
        assert_eq!(live.log_vector(2).get(2), -1.0);
    }

    #[test]
    fn a_record_that_copies_the_base_publishes_a_new_version() {
        // The base copy runs outside the reader-facing lock, so a record
        // that makes one never goes in place, even into a version no
        // snapshot holds.
        let shared = SharedLogStore::new(4);
        let c = shared.counters();
        let held = shared.snapshot();
        for i in 0..TAIL_CAP {
            shared.record(session(&[(i % 4, true)])); // the first copies `held`'s version
        }
        assert_eq!(
            c.cow_clones.get(),
            1,
            "the rest went in place, into the tail"
        );
        let full = Arc::as_ptr(&shared.snapshot());
        shared.record(session(&[(3, false)]));
        assert_eq!(c.cow_clones.get(), 2, "the tail was full: a new version");
        assert_ne!(full, Arc::as_ptr(&shared.snapshot()));
        assert_eq!((held.n_sessions(), shared.n_sessions()), (0, TAIL_CAP + 1));
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
        // Reading the live store's size takes no snapshot.
        assert_eq!((shared.n_sessions(), shared.n_images()), (2, 4));
        assert_eq!(c.snapshots.get(), 1);
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
