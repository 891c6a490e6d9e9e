//! # lrf-cbir — the content-based image retrieval engine
//!
//! The substrate the paper's CBIR system (\[10, 11\] in its references)
//! provides: an image database with extracted features, content-based
//! ranking, the automatic evaluation protocol of §6.4, and the glue that
//! collects simulated feedback logs over the database.
//!
//! * [`database::ImageDatabase`] — normalized 36-D features plus
//!   ground-truth categories for automatic relevance judgment.
//! * [`CorelDataset`] — builders for the synthetic 20-Category and 50-Category
//!   datasets (100 images per category, mirroring the paper's COREL
//!   subsets).
//! * [`rank_by_euclidean`] — Euclidean content ranking (the paper's `Euclidean`
//!   reference curve and the initial-retrieval step of every experiment),
//!   as one-line calls through the exact flat index.
//! * [`PrecisionCurve`] / [`QueryProtocol`] — precision@k curves, the paper's MAP definition, and the
//!   full §6.4 protocol scaffolding (random queries, top-20 auto-judged
//!   labeled sets).
//! * [`collect_log`] — wires [`lrf_logdb::simulate_sessions`] to an index's screens to
//!   reproduce the paper's log-collection procedure.
//! * [`build_flat_index`] and siblings — index-backed retrieval: builds the
//!   `lrf-index` exact flat scan over the database and routes screens and
//!   rankings through it. It is the only Euclidean scan there is, and the
//!   only index: no workload is served faster by an approximate one. The
//!   tests hold it to a sort-everything oracle.

mod corel;
mod database;
mod distance;
mod eval;
mod logglue;
mod retrieval;

pub use corel::{CorelDataset, CorelSpec};
pub use database::ImageDatabase;
pub use distance::{rank_by_euclidean, top_k_euclidean};
pub use eval::{precision_at, FeedbackExample, PrecisionCurve, QueryProtocol, CUTOFFS};
pub use logglue::collect_log;
pub use retrieval::{build_flat_index, build_flat_shards, rank_with_index_stats, ranking_window};
