//! Durable wrapper uniting the concurrent store with the judgment WAL.
//!
//! [`DurableLogStore`] is what a service should own: the copy-on-write
//! [`SharedLogStore`] for concurrent reads/appends, plus (optionally) a
//! [`JudgmentWal`] that makes each recorded session durable *before* the
//! in-memory store sees it. The invariants it maintains:
//!
//! * **WAL order == store order.** [`DurableLogStore::record_durable`]
//!   holds the WAL lock across the in-memory append, so session ids
//!   assigned by the store match the WAL's replay order exactly.
//! * **Disk is a prefix of memory.** The sessions on disk (snapshot plus
//!   WAL) are the store's first sessions; the rest, recorded by
//!   [`DurableLogStore::record_volatile`] while storage failed, are
//!   [`unsynced`](DurableLogStore::unsynced). While any is, the WAL
//!   refuses appends, so no later session can overtake one in replay.
//! * **Compaction is the one repair, and never duplicates.**
//!   [`DurableLogStore::compact`] snapshots the whole in-memory store under
//!   the WAL lock: every WAL session and every unsynced one, each exactly
//!   once. Snapshot + empty WAL ≡ the store; nothing is ever appended to
//!   the WAL after a snapshot that already holds it.
//!
//! A store opened [`volatile`](DurableLogStore::volatile) has no WAL at
//! all — the pre-durability behaviour, which every service not built over
//! a WAL directory still runs on, as do tests and read-only tooling. It
//! counts nothing as unsynced and takes no lock beyond the store's own.

use std::path::Path;

use lrf_storage::wal::WalOptions;
use lrf_storage::IoRef;
use lrf_sync::atomic::{AtomicUsize, Ordering};
use lrf_sync::{Mutex, MutexExt};

use crate::session::LogSession;
use crate::shared::{LogStoreCounters, SharedLogStore};
use crate::store::LogStore;
use crate::wal::{DurableRecovery, JudgmentWal, WalError};

/// A [`SharedLogStore`] with optional write-ahead durability.
#[derive(Debug)]
pub struct DurableLogStore {
    shared: SharedLogStore,
    wal: Option<Mutex<JudgmentWal>>,
    /// Sessions in memory but neither in the WAL nor in its snapshot.
    /// Relaxed is enough: every write, and the read that gates an append,
    /// happen under the WAL lock, which orders them; reads without the
    /// lock (admission, gauges) are advisory.
    unsynced: AtomicUsize,
}

impl DurableLogStore {
    /// A WAL-less store: appends live only in memory. The pre-durability
    /// behaviour; callers opt into it explicitly.
    pub fn volatile(store: LogStore) -> Self {
        Self {
            shared: SharedLogStore::from_store(store),
            wal: None,
            unsynced: AtomicUsize::new(0),
        }
    }

    /// Open the WAL at `dir` and recover the store from disk. An empty
    /// directory yields an empty store over `n_images` images.
    pub fn open(
        io: IoRef,
        dir: &Path,
        n_images: usize,
        opts: WalOptions,
    ) -> Result<(Self, DurableRecovery), WalError> {
        let (wal, store, _, recovery) = JudgmentWal::open(io, dir, n_images, opts)?;
        Ok((
            Self {
                shared: SharedLogStore::from_store(store),
                wal: Some(Mutex::new(wal)),
                unsynced: AtomicUsize::new(0),
            },
            recovery,
        ))
    }

    /// Like [`open`](Self::open), but if the disk holds nothing (no
    /// snapshot, no sessions), publish `seed` as the initial snapshot so
    /// a bootstrapped log (e.g. a simulated collection) is durable from
    /// the first moment. When the disk does hold state, the seed is
    /// discarded — disk wins.
    pub fn open_with_seed(
        io: IoRef,
        dir: &Path,
        seed: LogStore,
        opts: WalOptions,
    ) -> Result<(Self, DurableRecovery), WalError> {
        let n_images = seed.n_images();
        let (mut wal, mut store, had_snapshot, mut recovery) =
            JudgmentWal::open(io, dir, n_images, opts)?;
        let disk_empty = !had_snapshot && recovery.replayed_sessions == 0;
        if disk_empty && seed.n_sessions() > 0 {
            wal.compact(&seed)?;
            recovery.seeded = true;
            store = seed;
        }
        Ok((
            Self {
                shared: SharedLogStore::from_store(store),
                wal: Some(Mutex::new(wal)),
                unsynced: AtomicUsize::new(0),
            },
            recovery,
        ))
    }

    /// Durably record a session: WAL append first (fsynced), then the
    /// in-memory store, with the WAL lock held across both so replay
    /// order matches session-id order. On a WAL-less store this is just
    /// an in-memory record.
    ///
    /// An `Err` means *neither* the WAL nor the store recorded the
    /// session — the caller may retry or record it volatile. While any
    /// session is [`unsynced`](Self::unsynced) the append is refused
    /// without touching storage: replaying this session ahead of the
    /// unsynced ones would give it another id. [`compact`](Self::compact)
    /// lifts the refusal.
    pub fn record_durable(&self, session: LogSession) -> Result<usize, WalError> {
        match &self.wal {
            None => Ok(self.shared.record(session)),
            Some(wal) => {
                let mut wal = wal.lock_recover();
                if self.unsynced() > 0 {
                    return Err(WalError::Io(std::io::Error::other(
                        "unsynced sessions precede this one; compact first",
                    )));
                }
                wal.append(&session)?;
                Ok(self.shared.record(session))
            }
        }
    }

    /// Record in memory only, bypassing the WAL. This is the degraded
    /// path: the session counts as [`unsynced`](Self::unsynced), and is
    /// not crash-safe, until a [`compact`](Self::compact) snapshots it.
    pub fn record_volatile(&self, session: LogSession) -> usize {
        let Some(wal) = &self.wal else {
            return self.shared.record(session);
        };
        // Under the WAL lock a compaction's snapshot holds both the
        // session and its count, or neither.
        let _wal = wal.lock_recover();
        let id = self.shared.record(session);
        self.unsynced.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Sessions recorded [`volatile`](Self::record_volatile) since the
    /// last successful [`compact`](Self::compact): in memory, not on disk.
    /// Always 0 on a WAL-less store.
    pub fn unsynced(&self) -> usize {
        self.unsynced.load(Ordering::Relaxed)
    }

    /// Publish the current in-memory store as the WAL's snapshot and
    /// retire the replay segments, making every unsynced session durable.
    /// No-op on a WAL-less store. On `Err` the unsynced count is unchanged
    /// and recovery still finds the previous snapshot plus the WAL.
    pub fn compact(&self) -> Result<(), WalError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut wal = wal.lock_recover();
        // Snapshot under the WAL lock: no record of either kind can
        // interleave, so the snapshot holds every WAL session and exactly
        // the `covered` unsynced ones.
        let snapshot = self.shared.snapshot();
        let covered = self.unsynced();
        wal.compact(&snapshot)?;
        self.unsynced.fetch_sub(covered, Ordering::Relaxed);
        Ok(())
    }

    /// Segments started in the current WAL epoch (0 for WAL-less).
    pub fn wal_segments(&self) -> u64 {
        self.wal
            .as_ref()
            .map_or(0, |w| w.lock_recover().segments_started())
    }

    /// See [`SharedLogStore::snapshot`].
    pub fn snapshot(&self) -> lrf_sync::Arc<LogStore> {
        self.shared.snapshot()
    }

    /// The shared store's operation counters (records, snapshots,
    /// copy-on-write clones).
    pub fn counters(&self) -> LogStoreCounters {
        self.shared.counters()
    }

    /// Number of recorded sessions in the live store.
    pub fn n_sessions(&self) -> usize {
        self.shared.n_sessions()
    }

    /// Number of images the store covers.
    pub fn n_images(&self) -> usize {
        self.shared.n_images()
    }

    /// Extract the accumulated store, consuming the wrapper. Durability
    /// note: this does *not* compact first — callers that want the final
    /// state snapshotted should [`compact`](Self::compact) before.
    pub fn into_store(self) -> LogStore {
        self.shared.into_store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Relevance;
    use lrf_storage::MemIo;

    fn session(pairs: &[(usize, bool)]) -> LogSession {
        LogSession::new(
            pairs
                .iter()
                .map(|&(id, r)| (id, Relevance::from_bool(r)))
                .collect(),
        )
    }

    fn dir() -> &'static Path {
        Path::new("/log/durable")
    }

    #[test]
    fn volatile_store_records_without_a_wal() {
        let db = DurableLogStore::volatile(LogStore::new(4));
        let id = db.record_durable(session(&[(0, true)])).unwrap();
        assert_eq!(id, 0);
        assert_eq!(db.record_volatile(session(&[(1, true)])), 1);
        assert_eq!(db.unsynced(), 0, "nothing to sync without a WAL");
        db.compact().unwrap();
        assert_eq!(db.n_sessions(), 2);
    }

    #[test]
    fn durable_records_survive_crash_with_matching_ids() {
        let mem = MemIo::handle();
        let (db, rec) =
            DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.recovered_sessions, 0);
        let a = db.record_durable(session(&[(0, true)])).unwrap();
        let b = db.record_durable(session(&[(3, false)])).unwrap();
        assert_eq!((a, b), (0, 1));
        drop(db);
        mem.crash();

        let (db, rec) =
            DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.recovered_sessions, 2);
        assert_eq!(db.n_sessions(), 2);
        assert_eq!(db.snapshot().entry(3, 1), -1.0);
    }

    #[test]
    fn compact_resets_debt_and_recovery_uses_snapshot() {
        let mem = MemIo::handle();
        let (db, _) = DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        db.record_durable(session(&[(0, true)])).unwrap();
        db.record_durable(session(&[(1, true)])).unwrap();
        db.compact().unwrap();
        db.record_durable(session(&[(2, false)])).unwrap();
        drop(db);
        mem.crash();

        let (db, rec) =
            DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.recovered_sessions, 3);
        assert_eq!(
            rec.replayed_sessions, 1,
            "only the post-compact session replays"
        );
        assert_eq!(db.n_sessions(), 3);
    }

    #[test]
    fn compaction_makes_volatile_sessions_durable() {
        let mem = MemIo::handle();
        let (db, _) = DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        db.record_durable(session(&[(4, true)])).unwrap();
        // Degraded stretch: recorded in memory only.
        assert_eq!(db.record_volatile(session(&[(5, true)])), 1);
        assert_eq!(db.unsynced(), 1);
        // The WAL refuses to let a later session overtake it in replay.
        assert!(db.record_durable(session(&[(6, false)])).is_err());
        assert_eq!(db.n_sessions(), 2, "a refused append records nothing");
        // Compaction is the repair: the snapshot holds the volatile session.
        db.compact().unwrap();
        assert_eq!(db.unsynced(), 0);
        assert_eq!(db.record_durable(session(&[(6, false)])).unwrap(), 2);
        drop(db);
        mem.crash();

        let (db, rec) =
            DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(db.n_sessions(), 3, "each session recovers exactly once");
        assert_eq!(rec.replayed_sessions, 1, "only the post-compact session");
        assert_eq!(db.snapshot().entry(5, 1), 1.0);
        assert_eq!(db.unsynced(), 0);
    }

    #[test]
    fn seed_store_is_published_when_disk_is_empty() {
        let mem = MemIo::handle();
        let mut seed = LogStore::new(8);
        seed.record(session(&[(0, true)]));
        seed.record(session(&[(1, false)]));
        let (db, rec) =
            DurableLogStore::open_with_seed(mem.clone(), dir(), seed, WalOptions::default())
                .unwrap();
        assert!(rec.seeded);
        assert_eq!(db.n_sessions(), 2);
        drop(db);
        mem.crash();

        // The seed was compacted to disk immediately: it survives.
        let mut other_seed = LogStore::new(8);
        other_seed.record(session(&[(7, true)]));
        let (db, rec) =
            DurableLogStore::open_with_seed(mem.clone(), dir(), other_seed, WalOptions::default())
                .unwrap();
        assert!(!rec.seeded, "disk state wins over the seed");
        assert_eq!(rec.recovered_sessions, 2);
        assert_eq!(db.n_sessions(), 2);
        assert!(db.snapshot().log_vector(7).is_empty());
    }
}
