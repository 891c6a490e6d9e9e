//! # lrf-core — log-based relevance feedback by coupled SVM
//!
//! The paper's contribution, plus every compared scheme, as one value.
//! The schemes differ only in *how a round's decision function is trained*;
//! ranking is always "score the candidates, sort":
//!
//! * [`SchemeKind`] — the four schemes the paper compares (`Euclidean`,
//!   `RF-SVM`, `LRF-2SVMs`, `LRF-CSVM`; each variant's docs quote the
//!   paper), and the one table of their names.
//! * [`Scheme`] — a kind and the [`LrfConfig`] its SVMs train with. Its fit
//!   is one `match` on the kind: given a query's feedback round
//!   ([`QueryContext`]) and its candidate pool it trains and scores the
//!   pool, returning a [`PoolScorer`] whose
//!   [`score_ids`](PoolScorer::score_ids) hands those decision values
//!   back. [`Scheme::rank`] ranks the whole database.
//! * `block` — the only place decision values are computed: each view's
//!   kernel rows over the round's universe, kept in the session's
//!   [`WarmState`] between rounds and read bit-identically to the fitted
//!   models.
//! * `pooled::rank_candidates` — the only place a (scheme, round, pool,
//!   warm state, where-to-score) tuple becomes a ranking of the pool; the
//!   full ranking, the index-fed pool re-rank and the serving loop all
//!   call it, and only the first two append the out-of-pool tail.
//! * [`train_coupled`] — the **coupled SVM** (Eq. 1): two max-margin models
//!   forced to agree on a shared unlabeled pool whose pseudo-labels are
//!   optimization variables, trained by alternating optimization with
//!   ρ-annealing and Δ-gated label correction (§4.2).
//! * [`run_lrf_csvm`] — Fig. 1 over the whole database, with what its
//!   ranking drops: the unlabeled pool and the training report.
//! * [`LogRbfKernel`] — the RBF kernel over sparse feedback-log vectors
//!   (an implementation of [`lrf_svm::Kernel`] for
//!   [`lrf_logdb::SparseVector`]).
//! * [`PooledRetrieval`] — the scale path: an `lrf-index` search retrieves a
//!   candidate pool and only the pool is scored and re-ranked; with a full
//!   pool this reproduces the paper's ranking exactly.
//! * [`FeedbackLoop`] — the serving path: it turns the
//!   one-shot schemes into resumable multi-round sessions (accumulated
//!   judgments, typed errors, log-session flush) for `lrf-service`. Each
//!   round after the first warm-starts its solver from the previous
//!   round's dual solution and reuses the kernel rows still valid
//!   ([`WarmState`]), and surfaces solver health and row traffic via
//!   [`RoundDiagnostics`].
//!
//! ## Quickstart
//!
//! ```
//! use lrf_cbir::{CorelDataset, CorelSpec, QueryProtocol, collect_log};
//! use lrf_core::{LrfConfig, QueryContext, Scheme, SchemeKind};
//! use lrf_logdb::SimulationConfig;
//!
//! // A miniature dataset + feedback log.
//! let ds = CorelDataset::build(CorelSpec::tiny(3, 8, 7));
//! let log = collect_log(&ds.db, &SimulationConfig {
//!     n_sessions: 20, judged_per_session: 6, rounds_per_query: 2, noise: 0.1, seed: 1,
//! });
//!
//! // One feedback round for query image 0.
//! let protocol = QueryProtocol { n_queries: 1, n_labeled: 6, seed: 0 };
//! let example = protocol.feedback_example(&ds.db, 0);
//!
//! // Rank the database with the paper's algorithm.
//! let scheme = Scheme::new(SchemeKind::LrfCsvm, LrfConfig::default());
//! let ranked = scheme.rank(&QueryContext { db: &ds.db, log: &log, example: &example });
//! assert_eq!(ranked.len(), ds.db.len());
//! ```

mod active;
mod block;
mod config;
mod coupled;
#[cfg(test)]
mod euclidean;
mod feedback;
mod kernels;
mod log_collection;
#[cfg(test)]
mod lrf_2svms;
mod lrf_csvm;
mod pooled;
#[cfg(test)]
mod rf_svm;
mod rounds;
mod scheme;

pub use active::RoundSelection;
pub use config::{CoupledConfig, LrfConfig, UnlabeledSelection};
pub use coupled::{train_coupled, CoupledOutcome, TrainReport};
pub use feedback::{
    rank_by_scores, PoolScorer, QueryContext, RoundDiagnostics, ScorerRef, WarmState,
};
pub use kernels::LogRbfKernel;
pub use log_collection::collect_feedback_log;
pub use lrf_csvm::{run_lrf_csvm, LrfCsvmOutcome};
pub use pooled::PooledRetrieval;
pub use rounds::{FeedbackLoop, RoundError};
pub use scheme::{Scheme, SchemeKind};
