//! The log store's snapshot codec: the form a whole store takes on disk.
//!
//! A [`crate::SharedLogStore`] opened over a WAL directory compacts into a
//! snapshot that [`to_json`] writes, and recovery reads it back with
//! [`decode`] before it replays the WAL's records. JSON keeps the
//! artifact human-inspectable, and the format is versioned.
//!
//! A snapshot holds the relevance matrix once: its image count and its
//! sessions, `{"version":2,"store":{"n_images":N,"sessions":[…]}}`. Each
//! session is written by the WAL record's encoder, [`wal::encode`], one at
//! a time, so writing a snapshot costs its bytes, never a tree of the
//! whole store. Decoding is the same, one session at a time: a
//! [`Walker`] reads the envelope's members in order, parses one session,
//! records it and only then reads the next, so a decode holds the bytes,
//! the store it builds and one session's tree. The columns are not
//! written; decoding rebuilds them by recording each session through
//! [`LogStore`]'s one validating path, so a snapshot whose sessions name
//! an image outside the database, or repeat one, is a typed
//! [`WalError::Format`] rather than a store that panics later. Version 1
//! also wrote every column after the sessions. Its `store` object starts
//! with the same two fields, so it loads through the same code, and its
//! columns are skipped without being built.

use crate::store::LogStore;
use crate::wal::{self, WalError};
use serde_json::Walker;

/// Current on-disk format version; every version from 1 up to it loads.
pub(crate) const FORMAT_VERSION: u32 = 2;

/// Serializes the store to a snapshot: the envelope around each session's
/// WAL record encoding, comma-separated.
pub(crate) fn to_json(store: &LogStore) -> Result<Vec<u8>, WalError> {
    let mut out = format!(
        r#"{{"version":{FORMAT_VERSION},"store":{{"n_images":{},"sessions":["#,
        store.n_images()
    )
    .into_bytes();
    for (sid, session) in store.sessions().enumerate() {
        if sid > 0 {
            out.push(b',');
        }
        out.extend_from_slice(&wal::encode(session)?);
    }
    out.extend_from_slice(b"]}}");
    Ok(out)
}

/// Deserializes a store from snapshot bytes, rebuilding its columns by
/// recording each session. Bytes that do not parse, a version this build
/// does not read, and a snapshot that parses but does not describe a valid
/// store are each a [`WalError::Format`]. The snapshot's image count must
/// equal `n_images`, the database's; it is checked before that count sizes
/// any allocation.
pub(crate) fn decode(bytes: &[u8], n_images: usize) -> Result<LogStore, WalError> {
    let invalid = |reason: String| WalError::Format { reason };
    let unparsed = |e: serde_json::Error| invalid(format!("snapshot does not parse: {e}"));
    let mut doc = Walker::from_slice(bytes).map_err(unparsed)?;
    let (version, found) = header(&mut doc).map_err(unparsed)?;
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(invalid(format!(
            "snapshot version {version} unsupported (this build reads 1 to {FORMAT_VERSION})"
        )));
    }
    if found == 0 {
        return Err(invalid("snapshot covers no images".into()));
    }
    if found != n_images {
        return Err(invalid(format!(
            "snapshot covers {found} images, database has {n_images}"
        )));
    }
    let mut store = LogStore::new(n_images);
    while doc.next_element().map_err(unparsed)? {
        let (sid, session) = (store.n_sessions(), doc.value().map_err(unparsed)?);
        let refused = |e| invalid(format!("snapshot session {sid}: {e}"));
        store.try_record(session).map_err(refused)?;
    }
    // What follows the sessions (version 1's columns) is skipped unbuilt.
    doc.finish().map_err(unparsed)?;
    Ok(store)
}

/// Reads the envelope up to its sessions, returning its version and
/// image count with `doc` inside the sessions array. The members come in
/// the order every version has written them.
fn header(doc: &mut Walker) -> Result<(u32, usize), serde_json::Error> {
    let version = doc.enter_object()?.expect_key("version")?.value()?;
    doc.expect_key("store")?.enter_object()?;
    let n_images = doc.expect_key("n_images")?.value()?;
    doc.expect_key("sessions")?.enter_array()?;
    Ok((version, n_images))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LogSession, Relevance};

    /// The decoder as recovery runs it over [`sample_store`]'s 8 images.
    fn from_json(bytes: &[u8]) -> Result<LogStore, WalError> {
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

    /// The exact bytes [`to_json`] writes for [`sample_store`]; each
    /// session is its WAL record.
    const V2_SAMPLE: &str = concat!(
        r#"{"version":2,"store":{"n_images":8,"sessions":["#,
        r#"{"judgments":[[0,"Relevant"],[3,"Irrelevant"]]},"#,
        r#"{"judgments":[[3,"Relevant"],[7,"Relevant"]]}]}}"#,
    );

    #[test]
    fn snapshot_and_record_bytes_are_pinned() {
        let store = sample_store();
        assert_eq!(to_json(&store).unwrap(), V2_SAMPLE.as_bytes());
        assert_eq!(
            wal::encode(store.session(0)).unwrap(),
            br#"{"judgments":[[0,"Relevant"],[3,"Irrelevant"]]}"#
        );
    }

    #[test]
    fn members_after_the_sessions_are_skipped() {
        let extra = concat!(
            r#" { "version" : 2 , "store" : { "n_images" : 8 , "sessions" : [ "#,
            r#"{"judgments":[[0,"Relevant"],[3,"Irrelevant"]]} ,"#,
            r#"{"judgments":[[3,"Relevant"],[7,"Relevant"]],"note":[{}]} ] ,"#,
            r#""columns" : [{"entries":[[0,1.0]]}], "more": {"sessions": 5} } ,"#,
            r#""comment": "x" } "#,
        );
        assert_eq!(from_json(extra.as_bytes()).unwrap(), sample_store());
    }

    #[test]
    fn missing_members_and_undecodable_sessions_are_format_errors() {
        for (bytes, says) in [
            (
                r#"{"store":{"n_images":8,"sessions":[]},"version":2}"#,
                "expected member `version`",
            ),
            (r#"{"version":2}"#, "expected member `store`"),
            (
                r#"{"version":2,"store":{"sessions":[],"n_images":8}}"#,
                "expected member `n_images`",
            ),
            (
                r#"{"version":2,"store":{"n_images":8}}"#,
                "expected member `sessions`",
            ),
            (
                r#"{"version":2,"store":{"n_images":8,"sessions":[{"judgments":[[1,"Maybe"]]}]}}"#,
                "field `judgments`",
            ),
            (
                r#"{"version":2,"store":{"n_images":8,"sessions":{}}}"#,
                "expected `[`",
            ),
            (
                r#"{"version":2,"store":{"n_images":8,"sessions":[]}} x"#,
                "trailing",
            ),
        ] {
            let err = from_json(bytes.as_bytes()).unwrap_err();
            assert!(matches!(err, WalError::Format { .. }), "{err}");
            assert!(err.to_string().contains("does not parse"), "{err}");
            assert!(err.to_string().contains(says), "{err}");
        }
        // A session the store refuses is named by its id.
        let bytes = V2_SAMPLE.replace("[7,", "[9,");
        let err = from_json(bytes.as_bytes()).unwrap_err();
        assert!(matches!(err, WalError::Format { .. }), "{err}");
        assert!(
            err.to_string().contains("snapshot session 1: image id 9"),
            "{err}"
        );
    }

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
    fn oversized_image_count_is_a_format_error_before_any_allocation() {
        // 2⁶⁰ columns: sizing the store from the file would abort the
        // process. The database's count is checked first.
        let bytes = br#"{"version":2,"store":{"n_images":1152921504606846976,"sessions":[]}}"#;
        let err = from_json(bytes).unwrap_err();
        assert!(matches!(err, WalError::Format { .. }), "{err}");
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
        assert!(matches!(err, WalError::Format { .. }), "{err}");
        assert!(err.to_string().contains("version 99 unsupported"), "{err}");
    }

    #[test]
    fn garbage_is_a_format_error() {
        let err = from_json(b"not json").unwrap_err();
        assert!(matches!(err, WalError::Format { .. }));
        assert!(err.to_string().contains("format"));
    }

    #[test]
    fn truncated_file_is_a_format_error() {
        // A snapshot cut off mid-write (the torn-file case compaction's
        // atomic publication prevents, but an operator can still hand us
        // one).
        let bytes = to_json(&sample_store()).unwrap();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let err = from_json(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WalError::Format { .. }),
                "cut at {cut} must be a typed Format error, got: {err}"
            );
        }
    }

    /// The snapshot envelope as one whole-store tree would serialize it.
    #[derive(serde::Serialize)]
    struct TreeEnvelope<S> {
        version: u32,
        store: TreeStore<S>,
    }

    #[derive(serde::Serialize)]
    struct TreeStore<S> {
        n_images: usize,
        sessions: S,
    }

    /// `to_json(store)` is byte for byte the tree's serialization, and
    /// decodes back to `store`.
    fn assert_writes_the_tree(store: &LogStore) {
        let tree = serde_json::to_vec(&TreeEnvelope {
            version: FORMAT_VERSION,
            store: TreeStore {
                n_images: store.n_images(),
                sessions: store.sessions().collect::<Vec<_>>(),
            },
        })
        .unwrap();
        let bytes = to_json(store).unwrap();
        assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            String::from_utf8(tree).unwrap()
        );
        assert_eq!(&decode(&bytes, store.n_images()).unwrap(), store);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Records, snapshots taken and snapshots dropped in any order,
        /// so that tails cross `TAIL_CAP` and stores that share a base
        /// with a held snapshot get written: every store written, the
        /// empty one first, is the tree's bytes.
        #[test]
        fn snapshot_bytes_equal_the_whole_store_tree(
            ops in proptest::collection::vec(proptest::collection::vec(0u8..4, 9), 0..300),
        ) {
            let mut live = LogStore::new(8);
            assert_writes_the_tree(&live);
            let mut held: Vec<LogStore> = Vec::new();
            for op in ops {
                // op[0]: 0 takes a snapshot, 1 writes and drops one, else
                // records; op[1..]: per image, 2 relevant, 3 irrelevant,
                // else unjudged.
                match op[0] {
                    0 => held.push(live.clone()),
                    1 if !held.is_empty() => {
                        assert_writes_the_tree(&held.swap_remove(op[1] as usize % held.len()));
                    }
                    _ => {
                        let judged = op[1..].iter().enumerate().filter(|(_, &m)| m > 1);
                        live.record(LogSession::new(
                            judged.map(|(i, &m)| (i, Relevance::from_bool(m == 2))).collect(),
                        ));
                    }
                }
            }
            held.iter().for_each(assert_writes_the_tree);
            assert_writes_the_tree(&live);
        }
    }
}
