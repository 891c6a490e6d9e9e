//! The four schemes the paper compares, as one value: a [`SchemeKind`]
//! and the [`LrfConfig`] its SVMs train with.
//!
//! The schemes differ only in *how a round's decision function is
//! trained* ([`Scheme::fit`], one `match` on the kind); ranking is the same
//! for every scheme — score the candidates with the fitted
//! [`crate::PoolScorer`], sort (`pooled::rank_candidates`).

use crate::block::Round;
use crate::config::LrfConfig;
use crate::feedback::{pool_scores, QueryContext, ScorerRef, WarmState};
use crate::lrf_csvm;
use crate::pooled::rank_candidates;
use lrf_cbir::rank_by_euclidean;
use serde::{Deserialize, Serialize};

/// Which relevance-feedback scheme a session runs — the serializable
/// selector the service API carries, and the one table of the schemes'
/// names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeKind {
    /// The paper's `Euclidean` reference: no learning, rank by ascending
    /// Euclidean distance to the query's feature vector. It is also what
    /// produced the initial screen the user judged.
    Euclidean,
    /// The `RF-SVM` baseline: "in a regular SVM based relevance feedback
    /// algorithm [Tong & Chang], only the low-level features of image
    /// content is considered" — one SVM trained on the judged images'
    /// feature vectors, ranking by its decision value.
    RfSvm,
    /// The `LRF-2SVMs` baseline: "the straightforward approach to
    /// integrate the user feedback log with the low-level image content is
    /// to learn two modalities respectively and then sum up their results.
    /// Such an approach is feasible but it may lose some coupling
    /// information." One SVM on the labeled feature vectors, one on the
    /// labeled log vectors, ranking by `f_w(x_i) + f_u(r_i)`.
    Lrf2Svms,
    /// The practical `LRF-CSVM` algorithm of Fig. 1: unlabeled selection
    /// by combined SVM distance, the coupled SVM of Eq. 1
    /// ([`crate::train_coupled`]: two max-margin models forced to agree on
    /// a shared unlabeled pool whose pseudo-labels are optimization
    /// variables), ranking by `CSVM_Dist`.
    #[default]
    LrfCsvm,
}

impl SchemeKind {
    /// The scheme's name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Euclidean => "Euclidean",
            SchemeKind::RfSvm => "RF-SVM",
            SchemeKind::Lrf2Svms => "LRF-2SVMs",
            SchemeKind::LrfCsvm => "LRF-CSVM",
        }
    }

    /// All kinds, in comparison-table order.
    pub fn all() -> [SchemeKind; 4] {
        [
            SchemeKind::Euclidean,
            SchemeKind::RfSvm,
            SchemeKind::Lrf2Svms,
            SchemeKind::LrfCsvm,
        ]
    }
}

/// A relevance-feedback scheme: its kind and the configuration its SVMs
/// train with, validated when it is built.
#[derive(Clone, Copy, Debug)]
pub struct Scheme {
    kind: SchemeKind,
    config: LrfConfig,
}

impl Scheme {
    /// The scheme `kind` under `config`.
    ///
    /// # Panics
    /// Panics if `config` fails [`LrfConfig::validate`].
    pub fn new(kind: SchemeKind, config: LrfConfig) -> Self {
        config.validate();
        Self { kind, config }
    }

    /// Which of the four schemes this is.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Trains the scheme's decision function for one round and returns it
    /// as a [`crate::PoolScorer`], seeding the solver from `warm` and
    /// depositing the new solution (and [`crate::RoundDiagnostics`]) back;
    /// a fresh [`WarmState`] is the cold start. The `pool` is the
    /// candidate universe of the round — LRF-CSVM's unlabeled selection
    /// draws from it, so fitting against a pool and then scoring that pool
    /// is the whole algorithm.
    ///
    /// `None` means the scheme has no trainable decision function
    /// (Euclidean): the pool keeps its order.
    pub(crate) fn fit(
        &self,
        ctx: &QueryContext<'_>,
        pool: &[usize],
        warm: &mut WarmState,
    ) -> Option<ScorerRef> {
        let round = || Round::new(&self.config, ctx);
        match self.kind {
            SchemeKind::Euclidean => None,
            SchemeKind::RfSvm => Some(warm.summed_round(&round(), pool, false)),
            SchemeKind::Lrf2Svms => Some(warm.summed_round(&round(), pool, true)),
            SchemeKind::LrfCsvm => {
                let fit = lrf_csvm::fit_on(&self.config, ctx, pool, warm);
                Some(pool_scores(pool, fit.scores))
            }
        }
    }

    /// Ranks every image id in `ctx.db`, most relevant first. The returned
    /// permutation contains each id exactly once. Euclidean's ranking is
    /// the distance order; every other scheme's is a cold fit over the
    /// whole database in id order, scored in place.
    pub fn rank(&self, ctx: &QueryContext<'_>) -> Vec<usize> {
        if self.kind == SchemeKind::Euclidean {
            return rank_by_euclidean(ctx.db, ctx.db.feature(ctx.example.query));
        }
        let all: Vec<usize> = (0..ctx.db.len()).collect();
        rank_candidates(self, ctx, &all, &mut WarmState::default(), |scorer, ids| {
            scorer.score_ids(ctx.db, ctx.log, ids)
        })
    }

    /// Per-image decision scores aligned with image ids, when the scheme
    /// has a real decision function (SVM-based schemes). Presentation
    /// policies (see `active`) need score *magnitudes* — a ranking alone
    /// cannot express uncertainty.
    pub fn scores(&self, ctx: &QueryContext<'_>) -> Option<Vec<f64>> {
        let all: Vec<usize> = (0..ctx.db.len()).collect();
        self.fit(ctx, &all, &mut WarmState::default())
            .map(|scorer| scorer.score_ids(ctx.db, ctx.log, &all))
    }
}
