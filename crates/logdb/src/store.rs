//! The log store — the relevance matrix `R`, kept once.
//!
//! Rows are sessions, columns are images. The sessions are the record:
//! they are what a snapshot writes and what the WAL appends. For each
//! image, [`LogStore`] also keeps its sparse log vector `r_i` (the column),
//! derived from the sessions as they are recorded, because that is what
//! the learning algorithms consume: "each image corresponds to a user log
//! vector r_i, whose dimension M is the total number of user log sessions
//! collected."
//!
//! Every session enters through one validating path,
//! [`LogStore::try_record`]: image ids strictly ascending and inside the
//! database. A live append, a WAL replay and a snapshot load all take it,
//! so a session that decoded from bytes (and so skipped
//! [`LogSession::new`]'s sort and duplicate check) is held to the same
//! rule as one built in memory.

use crate::session::{LogSession, Relevance};
use crate::sparse::SparseVector;

/// Why a session cannot enter a store; each variant names the image id.
#[derive(Debug, PartialEq)]
pub(crate) enum InvalidSession {
    /// An image id at or past the store's image count.
    OutOfRange(usize),
    /// An image id not above the one before it: judged twice, or the
    /// judgments are not in ascending id order.
    NotAscending(usize),
}

impl std::fmt::Display for InvalidSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfRange(id) => write!(f, "image id {id} out of range (outside database)"),
            Self::NotAscending(id) => write!(f, "image id {id} repeated or not ascending"),
        }
    }
}

/// Append-only store of feedback sessions over a fixed image database.
#[derive(Clone, Debug, PartialEq)]
pub struct LogStore {
    n_images: usize,
    sessions: Vec<LogSession>,
    /// Column view: `columns[i]` is image `i`'s log vector `r_i`, indexed by
    /// session id. Derived from `sessions`; a snapshot does not write it.
    columns: Vec<SparseVector>,
}

impl LogStore {
    /// Creates an empty store over a database of `n_images` images.
    ///
    /// # Panics
    /// Panics if `n_images == 0`.
    pub fn new(n_images: usize) -> Self {
        assert!(n_images > 0, "log store needs a nonempty image database");
        Self {
            n_images,
            sessions: Vec::new(),
            columns: vec![SparseVector::new(); n_images],
        }
    }

    /// Number of images the store covers (the matrix's column count `N`).
    pub fn n_images(&self) -> usize {
        self.n_images
    }

    /// Number of recorded sessions (the matrix's row count and the log
    /// vectors' dimension `M`).
    pub fn n_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Appends a session, updating every judged image's column. Returns the
    /// new session's id.
    ///
    /// # Panics
    /// Panics if the session's image ids are not strictly ascending or
    /// reach past `n_images` (the check a WAL replay or a snapshot load
    /// reports as a typed error), or if the store already holds 2³¹
    /// sessions.
    pub fn record(&mut self, session: LogSession) -> usize {
        self.try_record(session).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`record`](Self::record), returning an invalid session as an error
    /// instead of panicking; the store is unchanged on `Err`.
    pub(crate) fn try_record(&mut self, session: LogSession) -> Result<usize, InvalidSession> {
        let mut next = 0; // the least id the next judgment may name
        for (id, _) in session.iter() {
            if id >= self.n_images {
                return Err(InvalidSession::OutOfRange(id));
            }
            if id < next {
                return Err(InvalidSession::NotAscending(id));
            }
            next = id + 1;
        }
        let sid = self.sessions.len();
        assert!(sid < 1 << 31, "session id overflow");
        for (image_id, judgment) in session.iter() {
            self.columns[image_id].push(sid as u32, judgment == Relevance::Irrelevant);
        }
        self.sessions.push(session);
        Ok(sid)
    }

    /// The sparse log vector `r_i` of image `i`.
    ///
    /// # Panics
    /// Panics if `image_id >= n_images`.
    pub fn log_vector(&self, image_id: usize) -> &SparseVector {
        &self.columns[image_id]
    }

    /// A recorded session by id.
    pub fn session(&self, session_id: usize) -> &LogSession {
        &self.sessions[session_id]
    }

    /// Iterates all recorded sessions in id order.
    pub fn sessions(&self) -> impl Iterator<Item = &LogSession> {
        self.sessions.iter()
    }

    /// The raw matrix element `r_{image, session}` (`+1`, `−1`, or `0`).
    pub fn entry(&self, image_id: usize, session_id: usize) -> f64 {
        assert!(
            session_id < self.sessions.len(),
            "unknown session {session_id}"
        );
        self.columns[image_id].get(session_id as u32)
    }

    /// Number of images that have at least one judgment — coverage is the
    /// key statistic determining how much the log can help retrieval.
    pub fn n_judged_images(&self) -> usize {
        self.columns.iter().filter(|c| !c.is_empty()).count()
    }

    /// Total judgments across all sessions (the matrix's nonzero count).
    pub fn nnz(&self) -> usize {
        self.columns.iter().map(|c| c.nnz()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(pairs: &[(usize, bool)]) -> LogSession {
        LogSession::new(
            pairs
                .iter()
                .map(|&(id, r)| (id, Relevance::from_bool(r)))
                .collect(),
        )
    }

    #[test]
    fn empty_store() {
        let store = LogStore::new(10);
        assert_eq!(store.n_images(), 10);
        assert_eq!(store.n_sessions(), 0);
        assert_eq!(store.n_judged_images(), 0);
        assert!(store.log_vector(3).is_empty());
    }

    #[test]
    fn record_updates_columns() {
        let mut store = LogStore::new(6);
        let s0 = store.record(session(&[(0, true), (1, false), (4, true)]));
        let s1 = store.record(session(&[(1, true), (4, true)]));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(store.n_sessions(), 2);

        assert_eq!(store.entry(0, 0), 1.0);
        assert_eq!(store.entry(1, 0), -1.0);
        assert_eq!(store.entry(1, 1), 1.0);
        assert_eq!(store.entry(2, 0), 0.0);
        assert_eq!(store.entry(4, 0), 1.0);
        assert_eq!(store.entry(4, 1), 1.0);

        // Column views as sparse vectors.
        assert_eq!(store.log_vector(4).nnz(), 2);
        assert_eq!(store.log_vector(2).nnz(), 0);
        assert_eq!(store.n_judged_images(), 3);
        assert_eq!(store.nnz(), 5);
    }

    #[test]
    fn co_relevant_images_have_similar_columns() {
        // Images repeatedly marked relevant together end up with identical
        // log vectors — the signal the paper exploits.
        let mut store = LogStore::new(5);
        for _ in 0..3 {
            store.record(session(&[(0, true), (1, true), (2, false)]));
        }
        let r0 = store.log_vector(0);
        let r1 = store.log_vector(1);
        let r2 = store.log_vector(2);
        assert_eq!(r0.squared_distance(r1), 0.0);
        assert!(r0.dot(r2) < 0);
    }

    #[test]
    #[should_panic(expected = "outside database")]
    fn out_of_range_image_rejected() {
        let mut store = LogStore::new(3);
        store.record(session(&[(5, true)]));
    }

    #[test]
    fn sessions_are_retrievable() {
        let mut store = LogStore::new(4);
        let s = session(&[(0, true), (3, false)]);
        store.record(s.clone());
        assert_eq!(store.session(0), &s);
        assert_eq!(store.sessions().count(), 1);
    }

    #[test]
    fn decoded_sessions_must_be_strictly_ascending() {
        // A session decoded from bytes skips LogSession::new's sort and
        // duplicate check; try_record is where it is held to them.
        let mut store = LogStore::new(8);
        for (json, image_id) in [
            (r#"{"judgments":[[3,"Relevant"],[3,"Irrelevant"]]}"#, 3),
            (r#"{"judgments":[[5,"Relevant"],[2,"Relevant"]]}"#, 2),
        ] {
            let s: LogSession = serde_json::from_str(json).unwrap();
            assert_eq!(
                store.try_record(s),
                Err(InvalidSession::NotAscending(image_id))
            );
        }
        assert_eq!(store, LogStore::new(8), "a refused session leaves no trace");
    }
}
