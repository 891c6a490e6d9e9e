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
//!   image ids strictly ascending and inside the database. Clones share
//!   one base of sessions and columns; each owns only a short tail.
//! * [`sparse::SparseVector`] — a column as the paper defines it: the
//!   ascending ids of the sessions that judged the image, each carrying its
//!   ±1 sign, with the dot/norm/distance the log-side SVM kernel needs
//!   computed as exact integer counts.
//! * [`simulate_sessions`] — the **substitution for the paper's human log
//!   collection** (150 sessions gathered from real users): simulated users
//!   judge the top-20 of a content-based ranking by ground-truth category
//!   with an injectable mislabel (noise) probability.
//! * [`SharedLogStore`] — the one store a service owns: snapshot reads +
//!   `&self` appends (a new version copies a tail, never the log), so a
//!   serving plane can flush completed sessions without stalling queries
//!   that are training on the log. Opened over a directory it owns the judgment WAL (checksummed,
//!   fsynced, incremental session appends with snapshot compaction), so
//!   acknowledged feedback survives a crash without whole-store rewrites:
//!   WAL-first recording, in-memory recording counted as unsynced while
//!   storage fails, and compaction as the one repair — every writer
//!   behind one lock. That directory is the log's one on-disk form. Its
//!   snapshot holds `R` once, as versioned JSON of `n_images` and the
//!   sessions, written one session at a time; recovery rebuilds the
//!   columns, and every on-disk failure is a [`WalError`].

mod durable;
mod persist;
mod session;
mod shared;
mod simulate;
mod sparse;
mod store;
mod wal;

/// [`SharedLogStore`]'s former name for a WAL-backed store. The same type;
/// it stays while `benchmark/` still names it, and goes with the other
/// names only the benchmark spells (ROADMAP items 5 and 6).
pub type DurableLogStore = SharedLogStore;
pub use session::{LogSession, Relevance};
pub use shared::{LogStoreCounters, SharedLogStore};
pub use simulate::{simulate_sessions, SimulationConfig};
pub use sparse::SparseVector;
pub use store::LogStore;
pub use wal::{DurableRecovery, WalError};
