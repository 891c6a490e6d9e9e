//! The judgment WAL's format: crash-safe incremental persistence for the
//! log store.
//!
//! A [`crate::SharedLogStore`] opened over a directory owns an
//! [`lrf_storage::Wal`] and writes the log's semantics onto it. That
//! directory is the log's one on-disk form:
//!
//! * each **record** is one [`LogSession`], JSON-encoded ([`encode`]),
//!   CRC-framed and fsynced by the storage layer before the append returns;
//! * each **snapshot**, written by compaction, is the store in
//!   [`crate::persist`]'s versioned JSON envelope, each session in it
//!   encoded as its record is;
//! * **recovery** ([`recover`]) rebuilds the [`LogStore`] by decoding the
//!   snapshot and replaying intact sessions. Snapshot sessions and replayed
//!   records enter through the same check, [`LogStore::try_record`]: image
//!   ids strictly ascending and inside the database. A corrupt-but-CRC-valid
//!   record surfaces as a typed [`WalError::Replay`] (a snapshot's as
//!   [`WalError::Format`]), not as a panic or a column that disagrees
//!   with its session.

use std::io;
use std::path::Path;

use lrf_storage::wal::{Wal, WalOptions};
use lrf_storage::IoRef;

use crate::persist;
use crate::session::LogSession;
use crate::store::LogStore;

/// Errors from the judgment WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying storage failure (the append/compact did not happen).
    Io(io::Error),
    /// The bytes do not describe a log store over this database: a
    /// snapshot that does not parse, has an unsupported version or does
    /// not fit the image count, a session that does not encode, or a
    /// store opened over no images.
    Format {
        /// What was wrong.
        reason: String,
    },
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
            WalError::Format { reason } => write!(f, "judgment wal format error: {reason}"),
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
            WalError::Format { .. } | WalError::Replay { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// How a WAL-backed [`crate::SharedLogStore`] came up, minus the store
/// itself: what opening the judgment WAL found on disk.
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

/// Opens (or creates) the WAL at `dir` and runs recovery. Returns the
/// WAL, the store it protects as of the crash (snapshot plus replayed
/// sessions), whether a compaction snapshot was present, and what
/// recovery found. `n_images` must match the image database; a snapshot
/// recorded for a different image count is refused.
pub(crate) fn recover(
    io: IoRef,
    dir: &Path,
    n_images: usize,
    opts: WalOptions,
) -> Result<(Wal, LogStore, bool, DurableRecovery), WalError> {
    if n_images == 0 {
        return Err(WalError::Format {
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
    Ok((wal, store, had_snapshot, report))
}

/// One session as a WAL record payload, and as a snapshot writes it.
pub(crate) fn encode(session: &LogSession) -> Result<Vec<u8>, WalError> {
    serde_json::to_vec(session).map_err(|e| WalError::Format {
        reason: format!("session does not encode: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Relevance;
    use crate::SharedLogStore;
    use lrf_storage::{FaultIo, FaultKind, FaultPlan, MemIo, StorageIo};

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

    fn open(io: IoRef, n_images: usize) -> SharedLogStore {
        SharedLogStore::open(io, dir(), n_images, WalOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn sessions_survive_crash_and_replay_in_order() {
        let mem = MemIo::handle();
        let db = open(mem.clone(), 8);
        assert_eq!(db.n_sessions(), 0);
        db.record_durable(session(&[(0, true), (3, false)]))
            .unwrap();
        db.record_durable(session(&[(7, true)])).unwrap();
        drop(db);
        mem.crash();

        let (_, store, _, rec) = recover(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.replayed_sessions, 2);
        assert_eq!(store.n_sessions(), 2);
        assert_eq!(store.entry(3, 0), -1.0);
        assert_eq!(store.entry(7, 1), 1.0);
    }

    #[test]
    fn compaction_snapshot_is_the_persist_format() {
        let mem = MemIo::handle();
        let db = open(mem.clone(), 8);
        db.record_durable(session(&[(1, true)])).unwrap();
        db.compact().unwrap();
        db.record_durable(session(&[(2, false)])).unwrap();
        drop(db);
        mem.crash();

        // The compacted snapshot decodes by itself through
        // persist::decode: the on-disk contract the module docs promise.
        let snap_path = dir().join("snapshot-000001.json");
        let from_snapshot = persist::decode(&mem.read(&snap_path).unwrap(), 8).unwrap();
        assert_eq!(from_snapshot.n_sessions(), 1);

        let (_, store, had_snapshot, rec) =
            recover(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert!(had_snapshot);
        assert_eq!(rec.replayed_sessions, 1);
        assert_eq!(store.n_sessions(), 2);
        assert_eq!(store.entry(2, 1), -1.0);
    }

    #[test]
    fn out_of_range_image_id_is_a_typed_replay_error() {
        let mem = MemIo::handle();
        let db = open(mem.clone(), 16);
        db.record_durable(session(&[(15, true)])).unwrap();
        drop(db);
        mem.crash();

        // Reopen against a smaller image database: the record is intact
        // (CRC passes) but its ids are out of range — typed error, no
        // panic from LogStore::record.
        let err = recover(mem.clone(), dir(), 8, WalOptions::default()).unwrap_err();
        assert!(
            matches!(err, WalError::Replay { record: 0, .. }),
            "got: {err}"
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn snapshot_image_count_mismatch_is_refused() {
        let mem = MemIo::handle();
        let db = open(mem.clone(), 8);
        db.record_durable(session(&[(1, true)])).unwrap();
        db.compact().unwrap();
        drop(db);
        mem.crash();

        let err = recover(mem.clone(), dir(), 4, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("images"));
    }

    #[test]
    fn failed_append_is_not_replayed() {
        let mem = MemIo::handle();
        drop(open(mem.clone(), 8));
        // Ops through the faulty io: open = mkdir(0)+list(1); first
        // append = append(2)+sync(3); second = append(4), sync(5) fails,
        // repair truncate(6) succeeds.
        let faulty: IoRef = FaultIo::handle(
            mem.clone(),
            FaultPlan::new().with_fault(5, FaultKind::SyncFail),
        );
        let db = open(faulty, 8);
        db.record_durable(session(&[(0, true)])).unwrap();
        assert!(db.record_durable(session(&[(1, true)])).is_err());
        assert_eq!(db.n_sessions(), 1, "a failed append records nothing");
        drop(db);
        mem.crash();

        let (_, store, _, rec) = recover(mem.clone(), dir(), 8, WalOptions::default()).unwrap();
        assert_eq!(rec.replayed_sessions, 1);
        assert!(
            store.log_vector(1).is_empty(),
            "failed append must not resurrect"
        );
    }

    #[test]
    fn crash_mid_compaction_recovers_the_pre_compaction_store() {
        // A snapshot, a session past it in the WAL, then a compaction over
        // storage that crashes at each of the compaction's ops in turn:
        // write the temp snapshot, sync it, rename it (the commit point),
        // then the cleanup's list and removes.
        let setup = |plan: FaultPlan| {
            let mem = MemIo::handle();
            let faulty = FaultIo::handle(mem.clone(), plan);
            let db = open(faulty.clone(), 8);
            db.record_durable(session(&[(0, true), (3, false)]))
                .unwrap();
            db.compact().unwrap();
            db.record_durable(session(&[(3, true), (7, true)])).unwrap();
            (mem, faulty, db)
        };
        let (_, faulty, db) = setup(FaultPlan::new());
        let start = faulty.ops();
        db.compact().unwrap();
        let compact_ops = faulty.ops() - start;
        assert!(compact_ops > 3, "cleanup follows the commit point");

        for op in 0..compact_ops {
            let (mem, _, db) = setup(FaultPlan::new().with_crash_at(start + op));
            let before = db.snapshot();
            assert_eq!(db.compact().is_ok(), op >= 3, "crash at op {op}");
            drop(db);
            mem.crash();
            assert_eq!(
                open(mem, 8).snapshot(),
                before,
                "crash at compaction op {op} must recover the store it compacted"
            );
        }
    }

    #[test]
    fn zero_images_is_a_typed_error() {
        let mem = MemIo::handle();
        let err = SharedLogStore::open(mem, dir(), 0, WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Format { .. }), "got: {err}");
    }

    /// A fresh WAL directory holding `snapshot` as its compaction snapshot
    /// and `records` as its replay segment, each CRC-framed by the storage
    /// layer: intact on disk, whatever their content says.
    fn raw_disk(snapshot: Option<&str>, records: &[&str]) -> IoRef {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), dir(), WalOptions::default()).unwrap();
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
        let err = SharedLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Format { .. }), "got: {err}");
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
            let store = open(io, 8).snapshot();
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
        let err = SharedLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
        assert!(err.to_string().contains("database has 8"), "got: {err}");
    }

    #[test]
    fn image_ids_past_31_bits_are_typed_errors_not_panics() {
        // 2³¹ is the first id a packed judgment cannot hold; 2³² + 1
        // truncates to 1 if narrowed to 32 bits unchecked.
        for id in ["2147483648", "4294967297"] {
            let session = format!(r#"{{"judgments":[[{id},"Relevant"]]}}"#);
            let io = raw_disk(None, &[&session]);
            let err = SharedLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
            assert!(
                matches!(err, WalError::Replay { record: 0, .. }),
                "got: {err}"
            );
            assert!(err.to_string().contains(id), "got: {err}");

            let snapshot = v1_snapshot(&format!("[{session}]"), NO_COLUMNS);
            let io = raw_disk(Some(&snapshot), &[]);
            let err = SharedLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
            assert!(matches!(err, WalError::Format { .. }), "got: {err}");
            assert!(err.to_string().contains(id), "got: {err}");
        }
    }

    #[test]
    fn repeated_or_descending_image_id_is_a_typed_replay_error() {
        for record in [
            r#"{"judgments":[[3,"Relevant"],[3,"Irrelevant"]]}"#,
            r#"{"judgments":[[5,"Relevant"],[2,"Relevant"]]}"#,
        ] {
            let io = raw_disk(None, &[r#"{"judgments":[[1,"Relevant"]]}"#, record]);
            let err = SharedLogStore::open(io, dir(), 8, WalOptions::default()).unwrap_err();
            assert!(
                matches!(err, WalError::Replay { record: 1, .. }),
                "got: {err}"
            );
            assert!(err.to_string().contains("ascending"), "got: {err}");
        }
    }
}
