//! Opening a [`SharedLogStore`] over a WAL directory: recovery, and the
//! seed a bootstrapped log publishes when the disk holds nothing.
//!
//! The durability protocol itself (WAL-first records, unsynced sessions,
//! compaction as the one repair) lives with the store's writer lock in
//! `shared.rs`; this module only builds stores that own a WAL.

use std::path::Path;

use lrf_storage::wal::WalOptions;
use lrf_storage::IoRef;

use crate::shared::SharedLogStore;
use crate::store::LogStore;
use crate::wal::{self, DurableRecovery, WalError};

impl SharedLogStore {
    /// Opens the WAL at `dir` and recovers the store from disk. An empty
    /// directory yields an empty store over `n_images` images.
    pub fn open(
        io: IoRef,
        dir: &Path,
        n_images: usize,
        opts: WalOptions,
    ) -> Result<(Self, DurableRecovery), WalError> {
        let (log, store, _, recovery) = wal::recover(io, dir, n_images, opts)?;
        Ok((Self::with_wal(store, Some(log)), recovery))
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
        let (log, store, had_snapshot, mut recovery) =
            wal::recover(io, dir, seed.n_images(), opts)?;
        let disk_empty = !had_snapshot && recovery.replayed_sessions == 0;
        if !disk_empty || seed.n_sessions() == 0 {
            return Ok((Self::with_wal(store, Some(log)), recovery));
        }
        let db = Self::with_wal(seed, Some(log));
        db.compact()?;
        recovery.seeded = true;
        Ok((db, recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LogSession, Relevance};
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
        let db = SharedLogStore::from_store(LogStore::new(4));
        let id = db.record_durable(session(&[(0, true)])).unwrap();
        assert_eq!(id, 0);
        assert_eq!(db.record(session(&[(1, true)])), 1);
        assert_eq!(db.unsynced(), 0, "nothing to sync without a WAL");
        assert_eq!(db.wal_segments(), 0);
        db.compact().unwrap();
        assert_eq!(db.n_sessions(), 2);
    }

    #[test]
    fn durable_records_survive_crash_with_matching_ids() {
        let mem = MemIo::handle();
        let (db, rec) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.recovered_sessions, 0);
        let a = db.record_durable(session(&[(0, true)])).unwrap();
        let b = db.record_durable(session(&[(3, false)])).unwrap();
        assert_eq!((a, b), (0, 1));
        drop(db);
        mem.crash();

        let (db, rec) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.recovered_sessions, 2);
        assert_eq!(db.n_sessions(), 2);
        assert_eq!(db.snapshot().log_vector(3).get(1), -1.0);
    }

    #[test]
    fn compact_resets_debt_and_recovery_uses_snapshot() {
        let mem = MemIo::handle();
        let (db, _) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        db.record_durable(session(&[(0, true)])).unwrap();
        db.record_durable(session(&[(1, true)])).unwrap();
        db.compact().unwrap();
        db.record_durable(session(&[(2, false)])).unwrap();
        drop(db);
        mem.crash();

        let (db, rec) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
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
        let (db, _) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        db.record_durable(session(&[(4, true)])).unwrap();
        // Degraded stretch: recorded in memory only.
        assert_eq!(db.record(session(&[(5, true)])), 1);
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

        let (db, rec) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(db.n_sessions(), 3, "each session recovers exactly once");
        assert_eq!(rec.replayed_sessions, 1, "only the post-compact session");
        assert_eq!(db.snapshot().log_vector(5).get(1), 1.0);
        assert_eq!(db.unsynced(), 0);
    }

    #[test]
    fn compaction_under_a_held_snapshot_writes_base_then_tail() {
        let mem = MemIo::handle();
        let (db, _) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        let sessions: Vec<LogSession> = (0..5)
            .map(|i| session(&[(i, i % 2 == 0), (i + 3, true)]))
            .collect();
        db.record_durable(sessions[0].clone()).unwrap();
        db.record_durable(sessions[1].clone()).unwrap();
        let held = db.snapshot();
        for s in &sessions[2..] {
            db.record_durable(s.clone()).unwrap(); // each into the live tail
        }
        db.compact().unwrap();
        assert_eq!(held.n_sessions(), 2, "the held snapshot did not advance");
        drop((db, held));
        mem.crash();

        let (db, rec) = SharedLogStore::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(
            rec.replayed_sessions, 0,
            "every session came from the snapshot"
        );
        assert!(
            db.snapshot().sessions().eq(&sessions),
            "same sessions, id order"
        );
    }

    #[test]
    fn seed_store_is_published_when_disk_is_empty() {
        let mem = MemIo::handle();
        let mut seed = LogStore::new(8);
        seed.record(session(&[(0, true)]));
        seed.record(session(&[(1, false)]));
        let (db, rec) =
            SharedLogStore::open_with_seed(mem.clone(), dir(), seed, WalOptions::default())
                .unwrap();
        assert!(rec.seeded);
        assert_eq!(db.n_sessions(), 2);
        drop(db);
        mem.crash();

        // The seed was compacted to disk immediately: it survives.
        let mut other_seed = LogStore::new(8);
        other_seed.record(session(&[(7, true)]));
        let (db, rec) =
            SharedLogStore::open_with_seed(mem.clone(), dir(), other_seed, WalOptions::default())
                .unwrap();
        assert!(!rec.seeded, "disk state wins over the seed");
        assert_eq!(rec.recovered_sessions, 2);
        assert_eq!(db.n_sessions(), 2);
        assert!(db.snapshot().log_vector(7).is_empty());
    }
}
