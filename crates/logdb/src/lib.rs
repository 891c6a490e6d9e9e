//! # lrf-logdb — the user feedback log database
//!
//! Section 2 of the paper organizes historical relevance feedback as a
//! **relevance matrix** `R`: "each column corresponds to an image in the
//! image database and each row represents a user log session in the log
//! database. Each element r_{i,j} indicates the relevance judgement made
//! about the i-th image during the j-th user log session ('+1' and '−1'
//! for relevant and irrelevant, and '0' for unknown)."
//!
//! This crate is that database:
//!
//! * [`session::LogSession`] — one feedback round: the judged image ids and
//!   their ±1 marks.
//! * [`store::LogStore`] — the append-only session store, maintaining the
//!   column-sparse view: per image, a sparse **log vector** `r_i` over
//!   session ids. Dimension `M` = number of sessions grows as feedback is
//!   collected, exactly as a deployed CBIR system would accumulate it.
//!   Every session, live or read back from disk, enters through one check:
//!   image ids strictly ascending and inside the database.
//! * [`sparse::SparseVector`] — a column as the paper defines it: the
//!   ascending ids of the sessions that judged the image, each carrying its
//!   ±1 sign, with the dot/norm/distance the log-side SVM kernel needs
//!   computed as exact integer counts.
//! * [`simulate_sessions`] — the **substitution for the paper's human log
//!   collection** (150 sessions gathered from real users): simulated users
//!   judge the top-20 of a content-based ranking by ground-truth category
//!   with an injectable mislabel (noise) probability.
//! * [`persist`] — JSON round-tripping of the store (a real deployment
//!   keeps its log database on disk), crash-safe via atomic temp+fsync+
//!   rename publication. A snapshot holds `R` once, as `n_images` and the
//!   sessions; loading rebuilds the columns.
//! * [`SharedLogStore`] — the concurrent wrapper: snapshot reads + `&self` appends
//!   (copy-on-write), so a serving plane can flush completed sessions
//!   without stalling queries that are training on the log.
//! * `wal` — the judgment WAL: checksummed, fsynced, incremental
//!   session appends with snapshot compaction, so acknowledged feedback
//!   survives a crash without whole-store rewrites.
//! * [`DurableLogStore`] — unites the shared store and the WAL:
//!   WAL-first recording, volatile recording counted as unsynced while
//!   storage fails, and compaction as the one repair.

mod durable;
pub mod persist;
mod session;
mod shared;
mod simulate;
mod sparse;
mod store;
mod wal;

pub use durable::DurableLogStore;
pub use session::{LogSession, Relevance};
pub use shared::{LogStoreCounters, SharedLogStore};
pub use simulate::{simulate_sessions, SimulationConfig};
pub use sparse::SparseVector;
pub use store::LogStore;
pub use wal::{DurableRecovery, WalError};
