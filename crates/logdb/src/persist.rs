//! Log store persistence.
//!
//! A deployed CBIR system accumulates its feedback log across restarts, so
//! the store must round-trip to disk. JSON keeps the artifact
//! human-inspectable, and the format is versioned.
//!
//! A snapshot holds the relevance matrix once: its image count and its
//! sessions, `{"version": 2, "store": {"n_images", "sessions"}}`. The
//! columns are not written; loading rebuilds them by recording each
//! session through [`LogStore`]'s one validating path, so a snapshot whose
//! sessions name an image outside the database, or repeat one, is a typed
//! [`PersistError::Format`] rather than a store that panics later.
//! Version 1 also wrote every column beside the sessions. Its `store`
//! object has the same two fields, so it loads through the same code, and
//! its columns are ignored.

use crate::session::LogSession;
use crate::store::LogStore;
use lrf_storage::{atomic_write, StdIo, StorageIo};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Current on-disk format version; every version from 1 up to it loads.
pub(crate) const FORMAT_VERSION: u32 = 2;

/// The on-disk frame. Generic over the session list so writing borrows
/// the store's sessions and reading owns them.
#[derive(Serialize, Deserialize)]
struct Envelope<S> {
    version: u32,
    store: Snapshot<S>,
}

/// The relevance matrix as stored: its column count and its rows.
#[derive(Serialize, Deserialize)]
struct Snapshot<S> {
    n_images: usize,
    sessions: S,
}

/// Errors from loading/saving a log store.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not valid JSON for this schema, or its sessions do
    /// not fit its image count.
    Format(serde_json::Error),
    /// The file's version field is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "log store I/O error: {e}"),
            PersistError::Format(e) => write!(f, "log store format error: {e}"),
            PersistError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "log store version {found} unsupported (this build reads 1 to {FORMAT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
            PersistError::UnsupportedVersion { .. } => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// Serializes the store to a JSON byte vector: `n_images` and the
/// sessions.
pub(crate) fn to_json(store: &LogStore) -> Result<Vec<u8>, PersistError> {
    Ok(serde_json::to_vec(&Envelope {
        version: FORMAT_VERSION,
        store: Snapshot {
            n_images: store.n_images(),
            sessions: store.sessions().collect::<Vec<_>>(),
        },
    })?)
}

/// Deserializes a store from JSON bytes, rebuilding its columns by
/// recording each session. A snapshot that parses but does not describe a
/// valid store does not fit the schema either: a [`PersistError::Format`].
/// The snapshot's image count must equal `n_images`, the database's; it is
/// checked before that count sizes any allocation.
pub(crate) fn decode(bytes: &[u8], n_images: usize) -> Result<LogStore, PersistError> {
    let env: Envelope<Vec<LogSession>> = serde_json::from_slice(bytes)?;
    if !(1..=FORMAT_VERSION).contains(&env.version) {
        return Err(PersistError::UnsupportedVersion { found: env.version });
    }
    let invalid = |reason: String| PersistError::Format(serde::DeError::msg(reason).into());
    let Snapshot {
        n_images: found,
        sessions,
    } = env.store;
    if found == 0 {
        return Err(invalid("snapshot covers no images".into()));
    }
    if found != n_images {
        return Err(invalid(format!(
            "snapshot covers {found} images, database has {n_images}"
        )));
    }
    let mut store = LogStore::new(n_images);
    for (sid, session) in sessions.into_iter().enumerate() {
        store
            .try_record(session)
            .map_err(|e| invalid(format!("session {sid}: {e}")))?;
    }
    Ok(store)
}

/// Saves the store to a file, crash-safely: the JSON is written to a
/// sibling temp file, fsynced, and atomically renamed over `path`, so a
/// crash mid-save leaves the previous snapshot intact rather than a torn
/// hybrid. (The old in-place overwrite destroyed the previous good
/// snapshot the moment it started.)
pub fn save(store: &LogStore, path: &Path) -> Result<(), PersistError> {
    save_with(&StdIo, store, path)
}

/// [`save`] over an injectable IO backend (fault-injection tests).
pub(crate) fn save_with(
    io: &dyn StorageIo,
    store: &LogStore,
    path: &Path,
) -> Result<(), PersistError> {
    Ok(atomic_write(io, path, &to_json(store)?)?)
}

/// Loads a store over a database of `n_images` images from a file. A
/// snapshot recorded for any other image count is a
/// [`PersistError::Format`], refused before its count sizes anything.
pub fn load(path: &Path, n_images: usize) -> Result<LogStore, PersistError> {
    load_with(&StdIo, path, n_images)
}

/// [`load`] over an injectable IO backend (fault-injection tests).
pub(crate) fn load_with(
    io: &dyn StorageIo,
    path: &Path,
    n_images: usize,
) -> Result<LogStore, PersistError> {
    decode(&io.read(path)?, n_images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LogSession, Relevance};
    use lrf_storage::MemIo;

    /// The decoder as [`load`] runs it over [`sample_store`]'s 8 images.
    fn from_json(bytes: &[u8]) -> Result<LogStore, PersistError> {
        decode(bytes, 8)
    }

    fn sample_store() -> LogStore {
        let mut store = LogStore::new(8);
        store.record(LogSession::new(vec![
            (0, Relevance::Relevant),
            (3, Relevance::Irrelevant),
        ]));
        store.record(LogSession::new(vec![
            (3, Relevance::Relevant),
            (7, Relevance::Relevant),
        ]));
        store
    }

    #[test]
    fn json_roundtrip_preserves_store() {
        let store = sample_store();
        let bytes = to_json(&store).unwrap();
        let back = from_json(&bytes).unwrap();
        assert_eq!(store, back);
        assert_eq!(back.entry(3, 0), -1.0);
        assert_eq!(back.entry(3, 1), 1.0);
    }

    /// The exact bytes a version-1 build wrote for [`sample_store`]: both
    /// the sessions and one column per image.
    const V1_SAMPLE: &str = concat!(
        r#"{"version":1,"store":{"n_images":8,"sessions":["#,
        r#"{"judgments":[[0,"Relevant"],[3,"Irrelevant"]]},"#,
        r#"{"judgments":[[3,"Relevant"],[7,"Relevant"]]}],"#,
        r#""columns":[{"entries":[[0,1.0]]},{"entries":[]},{"entries":[]},"#,
        r#"{"entries":[[0,-1.0],[1,1.0]]},{"entries":[]},{"entries":[]},"#,
        r#"{"entries":[]},{"entries":[[1,1.0]]}]}}"#,
    );

    #[test]
    fn snapshot_holds_n_images_and_sessions_only() {
        let v: serde_json::Value =
            serde_json::from_slice(&to_json(&sample_store()).unwrap()).unwrap();
        assert_eq!(v["version"], serde_json::json!(FORMAT_VERSION));
        let serde_json::Value::Object(members) = &v["store"] else {
            panic!("store is not an object: {v:?}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["n_images", "sessions"], "no columns key");
    }

    #[test]
    fn version_1_snapshot_loads_to_an_equal_store() {
        let back = from_json(V1_SAMPLE.as_bytes()).unwrap();
        assert_eq!(back, sample_store());
        assert_eq!(back.entry(3, 0), -1.0);
        assert_eq!(back.log_vector(7).nnz(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lrf_logdb_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let store = sample_store();
        save(&store, &path).unwrap();
        let back = load(&path, 8).unwrap();
        assert_eq!(store, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_image_count_is_a_format_error_before_any_allocation() {
        // 2⁶⁰ columns: sizing the store from the file would abort the
        // process. The database's count is checked first.
        let mem = MemIo::handle();
        let path = Path::new("/db/huge.json");
        let bytes = br#"{"version":2,"store":{"n_images":1152921504606846976,"sessions":[]}}"#;
        mem.write(path, bytes).unwrap();
        let err = load_with(mem.as_ref(), path, 8).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        assert!(
            err.to_string().contains("1152921504606846976 images"),
            "{err}"
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let store = sample_store();
        let mut v: serde_json::Value = serde_json::from_slice(&to_json(&store).unwrap()).unwrap();
        v["version"] = serde_json::json!(99);
        let err = from_json(serde_json::to_vec(&v).unwrap().as_slice()).unwrap_err();
        assert!(matches!(
            err,
            PersistError::UnsupportedVersion { found: 99 }
        ));
    }

    #[test]
    fn garbage_is_a_format_error() {
        let err = from_json(b"not json").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
        assert!(err.to_string().contains("format"));
    }

    #[test]
    fn truncated_file_is_a_format_error() {
        // A snapshot cut off mid-write (the torn-file case atomic save
        // prevents, but an operator can still hand us one).
        let bytes = to_json(&sample_store()).unwrap();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let err = from_json(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Format(_)),
                "cut at {cut} must be a typed Format error, got: {err}"
            );
        }
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = load(Path::new("/definitely/not/here.json"), 8).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn crash_mid_save_preserves_previous_snapshot() {
        use lrf_storage::{FaultIo, FaultPlan};

        let mem = MemIo::handle();
        let path = Path::new("/db/store.json");
        let old = sample_store();
        save_with(mem.as_ref(), &old, path).unwrap();

        // Next save crashes mid-publish: ops write-tmp(0), sync-tmp(1),
        // rename(2) — kill it at each stage in turn.
        for crash_at in 0..3 {
            let mut bigger = old.clone();
            bigger.record(LogSession::new(vec![(1, Relevance::Relevant)]));
            let faulty = FaultIo::new(mem.clone(), FaultPlan::new().with_crash_at(crash_at));
            assert!(save_with(&faulty, &bigger, path).is_err());
            mem.crash();
            let back = load_with(mem.as_ref(), path, 8).unwrap();
            assert_eq!(
                back, old,
                "crash at publish op {crash_at} must keep the old snapshot"
            );
        }
    }
}
