//! The judgment WAL: crash-safe incremental persistence for the log store.
//!
//! [`crate::persist`] snapshots the whole store; fine at shutdown, wrong
//! for a live service where every flushed session must survive a crash
//! without rewriting megabytes of JSON. [`JudgmentWal`] layers the log's
//! semantics onto [`lrf_storage::Wal`]:
//!
//! * each **record** is one [`LogSession`], JSON-encoded, CRC-framed and
//!   fsynced by the storage layer before the append returns;
//! * each **snapshot** is the existing [`crate::persist`] envelope (same
//!   versioned JSON format `save`/`load` use — a compacted WAL directory
//!   holds a file any existing tooling can read);
//! * **recovery** rebuilds the [`LogStore`] by loading the snapshot and
//!   replaying intact sessions. Snapshot sessions and replayed records
//!   enter through the same check, [`LogStore::try_record`]: image ids
//!   strictly ascending and inside the database. A corrupt-but-CRC-valid
//!   record surfaces as a typed [`WalError::Replay`] (a snapshot's as
//!   [`WalError::Persist`]), not as a panic or a column that disagrees
//!   with its session.

use std::io;
use std::path::Path;

use lrf_storage::wal::{Wal, WalOptions};
use lrf_storage::IoRef;

use crate::persist::{self, PersistError};
use crate::session::LogSession;
use crate::store::LogStore;

/// Errors from the judgment WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying storage failure (the append/compact did not happen).
    Io(io::Error),
    /// The compaction snapshot could not be encoded or decoded.
    Persist(PersistError),
    /// A recovered record is intact per its checksum but semantically
    /// invalid for this store.
    Replay {
        /// Zero-based index of the offending record in replay order.
        record: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "judgment wal I/O error: {e}"),
            WalError::Persist(e) => write!(f, "judgment wal snapshot error: {e}"),
            WalError::Replay { record, reason } => {
                write!(f, "judgment wal replay error at record {record}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Persist(e) => Some(e),
            WalError::Replay { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<PersistError> for WalError {
    fn from(e: PersistError) -> Self {
        WalError::Persist(e)
    }
}

/// How a [`crate::DurableLogStore`] came up, minus the store itself (which
/// is already inside the wrapper): what opening the judgment WAL found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableRecovery {
    /// Sessions already on disk when we opened (snapshot + replay).
    pub recovered_sessions: u64,
    /// Sessions replayed from WAL segments.
    pub replayed_sessions: u64,
    /// Whether the disk was empty and the caller's seed store was
    /// published instead.
    pub seeded: bool,
    /// Torn/corrupt frame runs truncated during recovery.
    pub truncated_records: u64,
    /// Bytes dropped with them.
    pub truncated_bytes: u64,
    /// Transient read faults healed by re-reading a segment.
    pub reread_recoveries: u64,
    /// Stale files swept at open.
    pub stale_files_removed: u64,
}

/// Append-only durable log of [`LogSession`]s with snapshot compaction.
#[derive(Debug)]
pub(crate) struct JudgmentWal {
    wal: Wal,
}

impl JudgmentWal {
    /// Opens (or creates) the WAL at `dir` and runs recovery. Returns the
    /// WAL, the store it protects as of the crash (snapshot plus replayed
    /// sessions), whether a compaction snapshot was present, and what
    /// recovery found. `n_images` must match the image database; a
    /// snapshot recorded for a different image count is refused.
    pub(crate) fn open(
        io: IoRef,
        dir: &Path,
        n_images: usize,
        opts: WalOptions,
    ) -> Result<(Self, LogStore, bool, DurableRecovery), WalError> {
        if n_images == 0 {
            return Err(WalError::Replay {
                record: 0,
                reason: "log store requires at least one image".into(),
            });
        }
        let (wal, recovery) = Wal::open(io, dir, opts)?;

        let had_snapshot = recovery.snapshot.is_some();
        let mut store = match &recovery.snapshot {
            Some(bytes) => persist::decode(bytes, n_images)?,
            None => LogStore::new(n_images),
        };

        for (idx, payload) in recovery.records.iter().enumerate() {
            serde_json::from_slice(payload)
                .map_err(|e| format!("undecodable session payload: {e}"))
                .and_then(|session| store.try_record(session).map_err(|e| e.to_string()))
                .map_err(|reason| WalError::Replay {
                    record: idx,
                    reason,
                })?;
        }

        let report = DurableRecovery {
            recovered_sessions: store.n_sessions() as u64,
            replayed_sessions: recovery.records.len() as u64,
            seeded: false,
            truncated_records: recovery.truncated_records,
            truncated_bytes: recovery.truncated_bytes,
            reread_recoveries: recovery.reread_recoveries,
            stale_files_removed: recovery.stale_files_removed,
        };
        Ok((Self { wal }, store, had_snapshot, report))
    }

    /// Durably append one session. `Ok` means it survives a crash.
    pub(crate) fn append(&mut self, session: &LogSession) -> Result<(), WalError> {
        let payload = serde_json::to_vec(session).map_err(PersistError::Format)?;
        self.wal.append(&payload)?;
        Ok(())
    }

    /// Atomically publish `store` as the new snapshot and retire the
    /// replay segments. The caller is responsible for `store` containing
    /// every session appended so far (the durable wrapper guarantees it).
    pub(crate) fn compact(&mut self, store: &LogStore) -> Result<(), WalError> {
        let bytes = persist::to_json(store)?;
        self.wal.compact(&bytes)?;
        Ok(())
    }

    /// Segments started this epoch.
    pub(crate) fn segments_started(&self) -> u64 {
        self.wal.segments_started()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Relevance;
    use lrf_storage::{FaultIo, FaultKind, FaultPlan, MemIo};

    fn session(pairs: &[(usize, bool)]) -> LogSession {
        LogSession::new(
            pairs
                .iter()
                .map(|&(id, r)| (id, Relevance::from_bool(r)))
                .collect(),
        )
    }

    fn dir() -> &'static Path {
        Path::new("/log/wal")
    }

    #[test]
    fn sessions_survive_crash_and_replay_in_order() {
        let mem = MemIo::handle();
        let (mut wal, store, _, _) =
            JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(store.n_sessions(), 0);
        wal.append(&session(&[(0, true), (3, false)])).unwrap();
        wal.append(&session(&[(7, true)])).unwrap();
        drop(wal);
        mem.crash();

        let (_, store, _, rec) =
            JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.replayed_sessions, 2);
        assert_eq!(store.n_sessions(), 2);
        assert_eq!(store.entry(3, 0), -1.0);
        assert_eq!(store.entry(7, 1), 1.0);
    }

    #[test]
    fn compaction_snapshot_is_the_persist_format() {
        let mem = MemIo::handle();
        let (mut wal, ..) =
            JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        let mut store = LogStore::new(8);
        store.record(session(&[(1, true)]));
        wal.append(&session(&[(1, true)])).unwrap();
        wal.compact(&store).unwrap();
        wal.append(&session(&[(2, false)])).unwrap();
        drop(wal);
        mem.crash();

        // The compacted snapshot is readable by plain persist::load_with —
        // the on-disk contract the module docs promise.
        let snap_path = dir().join("snapshot-000001.json");
        let from_snapshot = crate::persist::load_with(mem.as_ref(), &snap_path, 8).unwrap();
        assert_eq!(from_snapshot.n_sessions(), 1);

        let (_, store, had_snapshot, rec) =
            JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert!(had_snapshot);
        assert_eq!(rec.replayed_sessions, 1);
        assert_eq!(store.n_sessions(), 2);
        assert_eq!(store.entry(2, 1), -1.0);
    }

    #[test]
    fn out_of_range_image_id_is_a_typed_replay_error() {
        let mem = MemIo::handle();
        let (mut wal, ..) =
            JudgmentWal::open(mem.clone(), dir(), 16, WalOptions::default()).unwrap();
        wal.append(&session(&[(15, true)])).unwrap();
        drop(wal);
        mem.crash();

        // Reopen against a smaller image database: the record is intact
        // (CRC passes) but its ids are out of range — typed error, no
        // panic from LogStore::record.
        let err = JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap_err();
        assert!(
            matches!(err, WalError::Replay { record: 0, .. }),
            "got: {err}"
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn snapshot_image_count_mismatch_is_refused() {
        let mem = MemIo::handle();
        let (mut wal, ..) =
            JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        wal.append(&session(&[(1, true)])).unwrap();
        let mut store = LogStore::new(8);
        store.record(session(&[(1, true)]));
        wal.compact(&store).unwrap();
        drop(wal);
        mem.crash();

        let err = JudgmentWal::open(mem.clone(), dir(), 4, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("images"));
    }

    #[test]
    fn failed_append_is_not_replayed() {
        let mem = MemIo::handle();
        let (wal, ..) = JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        drop(wal);
        // Ops through the faulty io: open = mkdir(0)+list(1); first
        // append = append(2)+sync(3); second = append(4), sync(5) fails,
        // repair truncate(6) succeeds.
        let faulty: IoRef = FaultIo::handle(
            mem.clone(),
            FaultPlan::new().with_fault(5, FaultKind::SyncFail),
        );
        let (mut wal, ..) = JudgmentWal::open(faulty, dir(), 8, WalOptions::default()).unwrap();
        wal.append(&session(&[(0, true)])).unwrap();
        assert!(wal.append(&session(&[(1, true)])).is_err());
        drop(wal);
        mem.crash();

        let (_, store, _, rec) =
            JudgmentWal::open(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.replayed_sessions, 1);
        assert!(
            store.log_vector(1).is_empty(),
            "failed append must not resurrect"
        );
    }

    #[test]
    fn zero_images_is_a_typed_error() {
        let mem = MemIo::handle();
        let err = JudgmentWal::open(mem, dir(), 0, WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Replay { .. }));
    }

    /// A fresh WAL directory holding `snapshot` as its compaction snapshot
    /// and `records` as its replay segment, each CRC-framed by the storage
    /// layer: intact on disk, whatever their content says.
    fn raw_disk(snapshot: Option<&str>, records: &[&str]) -> lrf_storage::IoRef {
        let mem = MemIo::handle();
        let (mut wal, _) =
            lrf_storage::Wal::open(mem.clone(), dir(), WalOptions::default()).unwrap();
        if let Some(bytes) = snapshot {
            wal.compact(bytes.as_bytes()).unwrap();
        }
        for record in records {
            wal.append(record.as_bytes()).unwrap();
        }
        drop(wal);
        mem.crash();
        mem
    }

    /// A version-1 snapshot over 8 images, with the given session and
    /// column lists: the format older builds wrote and this one still reads.
    fn v1_snapshot(sessions: &str, columns: &str) -> String {
        format!(
            r#"{{"version":1,"store":{{"n_images":8,"sessions":{sessions},"columns":{columns}}}}}"#
        )
    }

    /// Eight empty version-1 columns.
    const NO_COLUMNS: &str = r#"[{"entries":[]},{"entries":[]},{"entries":[]},{"entries":[]},{"entries":[]},{"entries":[]},{"entries":[]},{"entries":[]}]"#;

    #[test]
    fn snapshot_session_outside_the_database_is_a_typed_error() {
        let snapshot = v1_snapshot(r#"[{"judgments":[[9,"Relevant"]]}]"#, NO_COLUMNS);
        let io = raw_disk(Some(&snapshot), &[]);
        let err = crate::DurableLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
        assert!(
            matches!(err, WalError::Persist(PersistError::Format(_))),
            "got: {err}"
        );
        assert!(err
            .to_string()
            .contains("session 0: image id 9 out of range"));
    }

    #[test]
    fn snapshot_columns_are_rebuilt_from_its_sessions() {
        let sessions = r#"[{"judgments":[[3,"Irrelevant"],[7,"Relevant"]]}]"#;
        // Columns cut short of n_images, and columns that contradict the
        // sessions (image 3 marked +1, image 5 judged by no session).
        let short = r#"[{"entries":[]}]"#;
        let contradicting = r#"[{"entries":[]},{"entries":[]},{"entries":[]},{"entries":[[0,1.0]]},{"entries":[]},{"entries":[[0,-1.0]]},{"entries":[]},{"entries":[]}]"#;
        for columns in [short, contradicting] {
            let io = raw_disk(Some(&v1_snapshot(sessions, columns)), &[]);
            let (db, _) =
                crate::DurableLogStore::open(io, dir(), 8, WalOptions::default()).unwrap();
            let store = db.snapshot();
            assert_eq!(store.log_vector(7).iter().collect::<Vec<_>>(), [(0, 1.0)]);
            assert_eq!(store.entry(3, 0), -1.0);
            assert!(store.log_vector(5).is_empty());
            assert_eq!(store.nnz(), 2);
        }
    }

    #[test]
    fn snapshot_image_count_is_checked_before_it_sizes_the_columns() {
        // 2^60 columns would overflow the allocation: the count must be
        // refused against the database's before the store is built.
        let snapshot = r#"{"version":2,"store":{"n_images":1152921504606846976,"sessions":[]}}"#;
        let io = raw_disk(Some(snapshot), &[]);
        let err = crate::DurableLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("database has 8"), "got: {err}");
    }

    #[test]
    fn repeated_or_descending_image_id_is_a_typed_replay_error() {
        for record in [
            r#"{"judgments":[[3,"Relevant"],[3,"Irrelevant"]]}"#,
            r#"{"judgments":[[5,"Relevant"],[2,"Relevant"]]}"#,
        ] {
            let io = raw_disk(None, &[r#"{"judgments":[[1,"Relevant"]]}"#, record]);
            let err =
                crate::DurableLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
            assert!(
                matches!(err, WalError::Replay { record: 1, .. }),
                "got: {err}"
            );
            assert!(err.to_string().contains("ascending"), "got: {err}");
        }
    }
}
