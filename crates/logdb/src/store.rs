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
//! A judgment is 4 bytes in its row ([`LogSession`]) and 4 in its column
//! ([`SparseVector`]), so `R` costs 8 bytes per judgment plus the lists'
//! spare capacity and headers. A unit test pins the total under 13 bytes
//! per judgment for 20-judgment sessions over images judged ~40 times
//! each; the columns' spare capacity is most of the rest.
//!
//! Every session enters through one validating path,
//! [`LogStore::try_record`]: image ids strictly ascending and inside the
//! database. A live append, a WAL replay and a snapshot load all take it,
//! so a session that decoded from bytes (and so skipped
//! [`LogSession::new`]'s sort and duplicate check) is held to the same
//! rule as one built in memory.

use lrf_sync::Arc;

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

/// Sessions a version may hold in its tail before a record folds them
/// into a base copy of its own. The cap trades the two copies this layout
/// makes. A fold copies the whole log, O(M + N) allocations, once per
/// `TAIL_CAP` records under a held snapshot; every new version copies its
/// tail, up to `TAIL_CAP` sessions plus one column per image they judged.
/// At 64 one fold is spread over 64 records, while a full tail of
/// 20-judgment sessions (the paper's screen) is at most 1,280 short
/// columns, well under the N columns one fold copies.
pub(crate) const TAIL_CAP: usize = 64;

/// Append-only store of feedback sessions over a fixed image database.
///
/// The sessions and columns sit in one [`Arc`]-shared base, so a clone
/// (a snapshot) shares them. A session recorded while another version
/// holds the base goes to this version's tail, with a whole copy of each
/// column it judges; cloning a store therefore costs its tail, not the
/// log. When this version is the base's only holder, a record moves the
/// tail into it and appends in place. Each judgment costs 8 bytes, 4 in
/// its session's row and 4 in its image's column (see the module docs).
#[derive(Clone, Debug)]
pub struct LogStore {
    base: Arc<Matrix>,
    /// Sessions recorded past `base`, in id order.
    tail: Vec<LogSession>,
    /// Each column a tail session judged, whole, sorted by image id; it
    /// replaces the base's column.
    tail_columns: Vec<(usize, SparseVector)>,
}

/// The rows and the derived columns of `R`: each judgment once in each,
/// 4 bytes apiece.
#[derive(Clone, Debug)]
struct Matrix {
    sessions: Vec<LogSession>,
    /// `columns[i]` is image `i`'s log vector `r_i`, indexed by session
    /// id. Derived from `sessions`; a snapshot does not write it.
    columns: Vec<SparseVector>,
}

impl PartialEq for LogStore {
    /// The columns are derived from the sessions, so these decide.
    fn eq(&self, other: &Self) -> bool {
        self.n_images() == other.n_images() && self.sessions().eq(other.sessions())
    }
}

impl LogStore {
    /// Creates an empty store over a database of `n_images` images.
    ///
    /// # Panics
    /// Panics if `n_images == 0`.
    pub fn new(n_images: usize) -> Self {
        assert!(n_images > 0, "log store needs a nonempty image database");
        let columns = vec![SparseVector::default(); n_images];
        Self {
            base: Arc::new(Matrix {
                sessions: Vec::new(),
                columns,
            }),
            tail: Vec::new(),
            tail_columns: Vec::new(),
        }
    }

    /// Number of images the store covers (the matrix's column count `N`).
    pub fn n_images(&self) -> usize {
        self.base.columns.len()
    }

    /// Number of recorded sessions (the matrix's row count and the log
    /// vectors' dimension `M`).
    pub fn n_sessions(&self) -> usize {
        self.base.sessions.len() + self.tail.len()
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
        // lrf-lint: allow(service-panic): a service records only
        // `FeedbackLoop::to_log_session`s, whose ids `mark` checked against
        // the database (which `Service::build` asserts this store covers)
        // and for duplicates, and `LogSession::new` sorted. Other callers
        // keep the documented `# Panics`.
        self.try_record(session).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`record`](Self::record), returning an invalid session as an error
    /// instead of panicking; the store is unchanged on `Err`.
    pub(crate) fn try_record(&mut self, session: LogSession) -> Result<usize, InvalidSession> {
        let mut next = 0; // the least id the next judgment may name
        for (id, _) in session.iter() {
            if id >= self.n_images() {
                return Err(InvalidSession::OutOfRange(id));
            }
            if id < next {
                return Err(InvalidSession::NotAscending(id));
            }
            next = id + 1;
        }
        let sid = self.n_sessions();
        assert!(sid < 1 << 31, "session id overflow");
        if let Some(base) = self.owned_base() {
            for (image_id, judgment) in session.iter() {
                base.columns[image_id].push(sid as u32, judgment == Relevance::Irrelevant);
            }
            base.sessions.push(session);
            return Ok(sid);
        }
        for (image_id, judgment) in session.iter() {
            let found = self.tail_columns.binary_search_by_key(&image_id, |c| c.0);
            let k = found.unwrap_or_else(|k| {
                let column = self.base.columns[image_id].clone();
                self.tail_columns.insert(k, (image_id, column));
                k
            });
            let (_, column) = &mut self.tail_columns[k];
            column.push(sid as u32, judgment == Relevance::Irrelevant);
        }
        self.tail.push(session);
        Ok(sid)
    }

    /// Whether the next record copies the base: the tail is full and
    /// another version shares the base.
    pub(crate) fn folds_next(&self) -> bool {
        self.tail.len() >= TAIL_CAP && Arc::strong_count(&self.base) > 1
    }

    /// The base, with the tail moved into it, when this version is its
    /// only holder. A full tail first gets a base copy of its own.
    fn owned_base(&mut self) -> Option<&mut Matrix> {
        if self.folds_next() {
            self.base = Arc::new(Matrix::clone(&self.base));
        }
        let base = Arc::get_mut(&mut self.base)?;
        for (image_id, column) in self.tail_columns.drain(..) {
            base.columns[image_id] = column;
        }
        base.sessions.append(&mut self.tail);
        Some(base)
    }

    /// The sparse log vector `r_i` of image `i`.
    ///
    /// # Panics
    /// Panics if `image_id >= n_images`.
    pub fn log_vector(&self, image_id: usize) -> &SparseVector {
        match self.tail_columns.binary_search_by_key(&image_id, |c| c.0) {
            Ok(k) => &self.tail_columns[k].1,
            Err(_) => &self.base.columns[image_id],
        }
    }

    /// A recorded session by id.
    pub fn session(&self, session_id: usize) -> &LogSession {
        let base = &self.base.sessions;
        base.get(session_id)
            .unwrap_or_else(|| &self.tail[session_id - base.len()])
    }

    /// Iterates all recorded sessions in id order.
    pub fn sessions(&self) -> impl Iterator<Item = &LogSession> {
        self.base.sessions.iter().chain(&self.tail)
    }

    /// Number of images that have at least one judgment — coverage is the
    /// key statistic determining how much the log can help retrieval.
    pub fn n_judged_images(&self) -> usize {
        (0..self.n_images())
            .filter(|&i| !self.log_vector(i).is_empty())
            .count()
    }

    /// Total judgments across all sessions (the matrix's nonzero count).
    pub fn nnz(&self) -> usize {
        self.sessions().map(LogSession::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

        assert_eq!(store.log_vector(0).get(0), 1.0);
        assert_eq!(store.log_vector(1).get(0), -1.0);
        assert_eq!(store.log_vector(1).get(1), 1.0);
        assert_eq!(store.log_vector(2).get(0), 0.0);
        assert_eq!(store.log_vector(4).get(0), 1.0);
        assert_eq!(store.log_vector(4).get(1), 1.0);

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

    #[test]
    fn a_full_tail_folds_into_a_base_of_its_own() {
        let mut live = LogStore::new(4);
        live.record(session(&[(0, true)]));
        let held = live.clone();
        for _ in 0..TAIL_CAP {
            live.record(session(&[(1, true)]));
        }
        assert_eq!(live.tail.len(), TAIL_CAP, "the shared base takes no record");
        live.record(session(&[(2, false)]));
        assert!(
            !Arc::ptr_eq(&live.base, &held.base),
            "the fold copied the base"
        );
        assert_eq!(
            (live.tail.len(), live.base.sessions.len()),
            (0, TAIL_CAP + 2)
        );
        assert_eq!(live.log_vector(1).nnz(), TAIL_CAP);
        assert_eq!(held.n_sessions(), 1);
        assert!(held.log_vector(1).is_empty());
    }

    /// Heap bytes per judgment of `store`, whose tail is empty: the
    /// capacities of the session and column lists and of each one's
    /// entries, over the matrix's nonzero count.
    fn heap_bytes_per_judgment(store: &LogStore) -> f64 {
        assert!(store.tail.is_empty());
        let Matrix { sessions, columns } = &*store.base;
        let lists = sessions.capacity() * std::mem::size_of::<LogSession>()
            + columns.capacity() * std::mem::size_of::<SparseVector>();
        let rows: usize = sessions.iter().map(LogSession::heap_bytes).sum();
        let cols: usize = columns.iter().map(SparseVector::heap_bytes).sum();
        (lists + rows + cols) as f64 / store.nnz() as f64
    }

    #[test]
    fn a_judgment_costs_under_13_heap_bytes_recorded_or_decoded() {
        // 2,000 sessions of 20 judgments over 1,000 images: each image is
        // judged ~40 times. A judgment is 4 bytes in its row and 4 in its
        // column; the rest is the lists' spare capacity and headers.
        let mut store = LogStore::new(1000);
        for s in 0..2000 {
            let judged: Vec<_> = (0..20)
                .map(|k| ((s * 7 + k * 50) % 1000, (s + k) % 3 > 0))
                .collect();
            store.record(session(&judged));
        }
        let bytes = crate::persist::to_json(&store).unwrap();
        let decoded = crate::persist::decode(&bytes, 1000).unwrap();
        for store in [&store, &decoded] {
            let per_judgment = heap_bytes_per_judgment(store);
            assert!(per_judgment < 13.0, "{per_judgment} B per judgment");
        }
    }

    /// `store` holds exactly `reference`'s sessions and columns.
    fn assert_same(store: &LogStore, reference: &LogStore) {
        assert_eq!(store, reference);
        assert!(store.sessions().eq(reference.sessions()));
        for e in 0..reference.n_sessions() {
            assert_eq!(store.session(e), reference.session(e), "session {e}");
        }
        for i in 0..reference.n_images() {
            assert_eq!(store.log_vector(i), reference.log_vector(i), "column {i}");
        }
        assert_eq!(store.nnz(), reference.nnz());
        assert_eq!(store.n_judged_images(), reference.n_judged_images());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Records, snapshots taken and snapshots dropped in any order,
        /// up to ~200 records so tails cross `TAIL_CAP`: each snapshot,
        /// when dropped or at the end, is the store built by recording
        /// its first `e` sessions into a fresh store, and the live store
        /// is the whole sequence, however bases and tails were shared.
        #[test]
        fn snapshots_equal_a_store_built_from_their_prefix(
            ops in proptest::collection::vec(proptest::collection::vec(0u8..4, 9), 20..400),
        ) {
            let mut live = LogStore::new(8);
            let mut held: Vec<LogStore> = Vec::new();
            let mut recorded: Vec<LogSession> = Vec::new();
            let built = |sessions: &[LogSession]| {
                let mut store = LogStore::new(8);
                for s in sessions {
                    store.record(s.clone());
                }
                store
            };
            for op in ops {
                // op[0]: 0 takes a snapshot, 1 drops one, else records;
                // op[1..]: per image, 2 relevant, 3 irrelevant, else unjudged.
                match op[0] {
                    0 => held.push(live.clone()),
                    1 if !held.is_empty() => {
                        let snap = held.swap_remove(op[1] as usize % held.len());
                        assert_same(&snap, &built(&recorded[..snap.n_sessions()]));
                    }
                    _ => {
                        let judged = op[1..].iter().enumerate().filter(|(_, &m)| m > 1);
                        let s = session(&judged.map(|(i, &m)| (i, m == 2)).collect::<Vec<_>>());
                        recorded.push(s.clone());
                        prop_assert_eq!(live.record(s), recorded.len() - 1);
                    }
                }
            }
            for snap in &held {
                assert_same(snap, &built(&recorded[..snap.n_sessions()]));
            }
            assert_same(&live, &built(&recorded));
        }
    }
}
