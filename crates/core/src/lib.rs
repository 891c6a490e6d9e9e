//! # lrf-core — log-based relevance feedback by coupled SVM
//!
//! The paper's contribution, plus every compared scheme, behind one trait.
//! The schemes differ only in *how a round's decision function is trained*;
//! ranking is always "score the candidates, sort":
//!
//! * [`RelevanceFeedback`] — a scheme is one
//!   [`fit_warm`](RelevanceFeedback::fit_warm): given a query's
//!   feedback round ([`QueryContext`]) it trains a [`PoolScorer`], whose
//!   [`score_ids`](PoolScorer::score_ids) is the only place
//!   decision values are computed. `rank` / `scores` are provided on top.
//! * `pooled::rank_candidates` — the only place a (scheme, round, pool,
//!   warm state, where-to-score) tuple becomes a ranking of the pool; the
//!   full ranking, the index-fed pool re-rank and the serving loop all
//!   call it, and only the first two append the out-of-pool tail.
//! * `euclidean::EuclideanScheme` — the paper's `Euclidean` reference
//!   (no learning; the initial content ranking), built by
//!   [`SchemeKind::Euclidean`].
//! * [`rf_svm::RfSvm`] — the `RF-SVM` baseline: a regular SVM trained on
//!   the labeled low-level features only (Tong & Chang style).
//! * [`lrf_2svms::Lrf2Svms`] — the `LRF-2SVMs` baseline: two independent
//!   SVMs (content + log) trained on the labeled set, decisions summed —
//!   the paper's "straightforward approach" that "may lose some coupling
//!   information".
//! * [`train_coupled`] — the **coupled SVM** (Eq. 1): two max-margin models
//!   forced to agree on a shared unlabeled pool whose pseudo-labels are
//!   optimization variables, trained by alternating optimization with
//!   ρ-annealing and Δ-gated label correction (§4.2).
//! * [`lrf_csvm::LrfCsvm`] — the practical `LRF-CSVM` algorithm of Fig. 1:
//!   unlabeled selection by combined SVM distance, coupled training,
//!   ranking by `CSVM_Dist`.
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
//!   round's dual solution ([`WarmState`]) and surfaces solver
//!   health via [`RoundDiagnostics`].
//!
//! ## Quickstart
//!
//! ```
//! use lrf_cbir::{CorelDataset, CorelSpec, QueryProtocol, collect_log};
//! use lrf_core::{LrfCsvm, QueryContext, RelevanceFeedback};
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
//! let scheme = LrfCsvm::default();
//! let ranked = scheme.rank(&QueryContext { db: &ds.db, log: &log, example: &example });
//! assert_eq!(ranked.len(), ds.db.len());
//! ```

mod active;
mod config;
mod coupled;
mod euclidean;
mod feedback;
mod kernels;
mod log_collection;
mod lrf_2svms;
mod lrf_csvm;
mod pooled;
mod rf_svm;
mod rounds;

pub use active::RoundSelection;
pub use config::{CoupledConfig, LrfConfig, UnlabeledSelection};
pub use coupled::{train_coupled, CoupledOutcome, TrainReport};
pub use feedback::{
    rank_by_scores, PoolScorer, QueryContext, RelevanceFeedback, RoundDiagnostics, ScorerRef,
    WarmState,
};
pub use kernels::LogRbfKernel;
pub use log_collection::collect_feedback_log;
pub use lrf_2svms::Lrf2Svms;
pub use lrf_csvm::LrfCsvm;
pub use pooled::PooledRetrieval;
pub use rf_svm::RfSvm;
pub use rounds::{FeedbackLoop, RoundError, SchemeKind};
