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
//! * **Memory ⊇ WAL.** A session is never in the WAL without also being
//!   in memory; [`DurableLogStore::append_wal_only`] (the spill-drain
//!   path) is the one deliberate exception's repair: it backfills the
//!   WAL for sessions already recorded volatile, and compaction is the
//!   caller's tool to reconcile (see `lrf-service`'s durability policy).
//! * **Compaction never duplicates.** [`DurableLogStore::compact`]
//!   snapshots the in-memory store, which contains every WAL session
//!   (per the previous invariant), so snapshot + empty WAL ≡ old
//!   snapshot + replayed sessions.
//!
//! A store opened [`volatile`](DurableLogStore::volatile) has no WAL at
//! all — the pre-durability behaviour, which every service not built over
//! a WAL directory still runs on, as do tests and read-only tooling.

use std::path::Path;

use lrf_storage::wal::WalOptions;
use lrf_storage::IoRef;
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
}

impl DurableLogStore {
    /// A WAL-less store: appends live only in memory. The pre-durability
    /// behaviour; callers opt into it explicitly.
    pub fn volatile(store: LogStore) -> Self {
        Self {
            shared: SharedLogStore::from_store(store),
            wal: None,
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
    /// session — the caller may retry, spill, or degrade.
    pub fn record_durable(&self, session: LogSession) -> Result<usize, WalError> {
        match &self.wal {
            None => Ok(self.shared.record(session)),
            Some(wal) => {
                let mut wal = wal.lock_recover();
                wal.append(&session)?;
                Ok(self.shared.record(session))
            }
        }
    }

    /// Record in memory only, bypassing the WAL. This is the degraded
    /// path: the session is *not* crash-safe until a later
    /// [`append_wal_only`](Self::append_wal_only) or
    /// [`compact`](Self::compact) reconciles it.
    pub fn record_volatile(&self, session: LogSession) -> usize {
        self.shared.record(session)
    }

    /// Backfill the WAL with a session that is already in memory (the
    /// spill-drain path after a degraded stretch). Call in the same
    /// order the sessions were recorded volatile.
    pub fn append_wal_only(&self, session: &LogSession) -> Result<(), WalError> {
        match &self.wal {
            None => Ok(()),
            Some(wal) => wal.lock_recover().append(session),
        }
    }

    /// Publish the current in-memory store as the WAL's snapshot and
    /// retire the replay segments. No-op on a WAL-less store.
    pub fn compact(&self) -> Result<(), WalError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let mut wal = wal.lock_recover();
        // Snapshot under the WAL lock: no durable append can interleave,
        // so the snapshot is guaranteed to contain every WAL session.
        let snapshot = self.shared.snapshot();
        wal.compact(&snapshot)
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
        assert_eq!(db.n_sessions(), 1);
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
    fn spill_drain_backfills_without_duplicating() {
        let mem = MemIo::handle();
        let (db, _) = DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        // Degraded stretch: recorded volatile only.
        let spilled = session(&[(5, true)]);
        db.record_volatile(spilled.clone());
        // Drain: backfill the WAL for the already-in-memory session.
        db.append_wal_only(&spilled).unwrap();
        db.record_durable(session(&[(6, false)])).unwrap();
        drop(db);
        mem.crash();

        let (db, _) = DurableLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(
            db.n_sessions(),
            2,
            "backfilled session replays exactly once"
        );
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
