//! The common interface every compared scheme implements.

use crate::block::Blocks;
use lrf_cbir::{FeedbackExample, ImageDatabase};
use lrf_logdb::LogStore;
use lrf_svm::SolveStats;
use std::collections::HashMap;

/// Solver diagnostics for the most recent retrain of a scheme, aggregated
/// over however many SVMs the scheme trains (content + log side for the
/// two-machine and coupled schemes). Surfaced by
/// [`crate::rounds::FeedbackLoop::last_diagnostics`] so a
/// `max_iter`-capped solve is observable instead of silent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundDiagnostics {
    /// Whether *every* solve of the round reached its KKT tolerance (vs.
    /// hitting `max_iter`) and every coupled correction loop ended inside
    /// its round guard.
    pub converged: bool,
    /// Total SMO iterations across the round's solves.
    pub iterations: usize,
    /// Kernel-row cache hits across the round's solves.
    pub cache_hits: u64,
    /// Kernel-row cache misses across the round's solves.
    pub cache_misses: u64,
    /// `(computed, carried)`, both views: the rows the round computed
    /// into the session's blocks ([`WarmState`]), and the times a row
    /// store or a score found its row there already — a row an earlier
    /// round computed, or one the round computed and read again.
    pub block_rows: (u64, u64),
    /// Kernel values the round evaluated, `[content, log]`: the blocks'
    /// row fills and column patches. The row stores are served from the
    /// blocks and evaluate none, so this is every value the round's fit
    /// and scores cost.
    pub kernel_evals: [u64; 2],
}

impl RoundDiagnostics {
    /// Folds one solver run into the round's aggregate.
    pub(crate) fn absorb(&mut self, stats: &SolveStats) {
        self.converged &= stats.converged;
        self.iterations += stats.iterations;
        self.cache_hits += stats.cache_hits;
        self.cache_misses += stats.cache_misses;
    }

    /// The identity element for [`absorb`](Self::absorb): converged until
    /// a non-converged solve is folded in.
    pub(crate) fn all_converged() -> Self {
        Self {
            converged: true,
            ..Self::default()
        }
    }
}

/// A session's fit state, carried between feedback rounds.
///
/// * **Dual seeds.** The previous round's dual solutions, per view. The
///   labeled set only ever grows by appending (`FeedbackLoop::mark`), so
///   entry `i` of a stored alpha vector still describes sample `i` of the
///   next round's training set and any newly labeled tail starts cold —
///   exactly the prefix mapping a seeded [`lrf_svm::KernelCache::solve`]
///   implements.
/// * **Row blocks.** Per view, the kernel row over the round's universe
///   of every image the fit has trained on (the `block` module). They are
///   the only place a scheme's fit evaluates a kernel value: they serve
///   the SMO row stores their rows and every score of every SVM scheme is
///   read from them, and later rounds reuse what is still valid. Content
///   rows are kept for the session; a log row until a session recorded in
///   the log judges its image. A session holds a few hundred rows of a
///   few hundred values at most, and they go when the session does.
#[derive(Clone, Debug, Default)]
pub struct WarmState {
    /// Previous alphas per view, `[content, log]`, in labeled-set (mark)
    /// order.
    pub(crate) seeds: [Option<Vec<f64>>; 2],
    /// Both views' rows over the session's universe.
    pub(crate) blocks: Blocks,
    /// Diagnostics from the most recent retrain, `None` until a scheme
    /// that actually trains has run.
    pub(crate) last: Option<RoundDiagnostics>,
}

/// Everything a scheme sees when ranking: the database, the accumulated
/// feedback log, and the current query's feedback round.
#[derive(Clone, Copy, Debug)]
pub struct QueryContext<'a> {
    /// The image database (features + ground truth for evaluation only).
    pub db: &'a ImageDatabase,
    /// The historical feedback log (`R` of §2).
    pub log: &'a LogStore,
    /// The current round: query id and the `N_l` labeled images.
    pub example: &'a FeedbackExample,
}

impl QueryContext<'_> {
    /// The round's labels `y`, in labeled-set (mark) order.
    pub(crate) fn labels(&self) -> Vec<f64> {
        self.example.labeled.iter().map(|&(_, y)| y).collect()
    }
}

/// A round's trained decision function, produced by
/// [`RelevanceFeedback::fit_warm`]. Every SVM scheme's fit scores its
/// whole pool from the session's row blocks ([`WarmState`]) and returns
/// those decision values: each one is bit for bit what the fitted
/// machines' [`lrf_svm::SvmModel::decision_batch`] gives for that id.
/// Asking about the fitted pool is a lookup, in any order or split.
pub trait PoolScorer: Send + Sync {
    /// Decision scores aligned with `ids`. An id outside the pool the
    /// scorer was fitted on scores NaN, which every ranking puts last.
    fn score_ids(&self, db: &ImageDatabase, log: &LogStore, ids: &[usize]) -> Vec<f64>;
}

/// The [`PoolScorer`] of every SVM scheme: the fitted pool's decision
/// values by id.
pub(crate) struct PoolScores(HashMap<usize, f64>);

/// The scorer of `scores`, aligned with `pool`.
pub(crate) fn pool_scores(pool: &[usize], scores: Vec<f64>) -> ScorerRef {
    std::sync::Arc::new(PoolScores(pool.iter().copied().zip(scores).collect()))
}

impl PoolScorer for PoolScores {
    fn score_ids(&self, _db: &ImageDatabase, _log: &LogStore, ids: &[usize]) -> Vec<f64> {
        let score = |id| self.0.get(id).copied().unwrap_or(f64::NAN);
        ids.iter().map(score).collect()
    }
}

/// A handle to a trained scorer. It is a std `Arc`, not a `Box`, only
/// because the benchmark's adapter (`benchmark/src/sut.rs`) clones one;
/// it becomes a plain value when that adapter goes (ROADMAP items 5
/// and 6).
pub type ScorerRef = std::sync::Arc<dyn PoolScorer>;

/// A relevance-feedback scheme: how one feedback round's decision
/// function is trained. Ranking is the same for every scheme — score the
/// candidates with the fitted [`PoolScorer`], sort
/// (`pooled::rank_candidates`) — so [`fit_warm`](Self::fit_warm)
/// is all a learning scheme implements.
pub trait RelevanceFeedback {
    /// Human-readable scheme name as used in the paper's tables
    /// (`"Euclidean"`, `"RF-SVM"`, `"LRF-2SVMs"`, `"LRF-CSVM"`).
    fn name(&self) -> &'static str;

    /// Trains the scheme's decision function for one round and returns it
    /// as a [`PoolScorer`], seeding the solver from `warm` and
    /// depositing the new solution (and [`RoundDiagnostics`]) back; a
    /// fresh [`WarmState`] is the cold start. The `pool` is the candidate
    /// universe of the round — schemes whose training itself depends on
    /// the retrieval universe (LRF-CSVM's unlabeled selection) draw from
    /// it, so fitting against a pool and then scoring that pool is the
    /// whole algorithm.
    ///
    /// `None` means the scheme has no trainable decision function
    /// (Euclidean): the pool keeps its order.
    fn fit_warm(
        &self,
        ctx: &QueryContext<'_>,
        pool: &[usize],
        warm: &mut WarmState,
    ) -> Option<ScorerRef>;

    /// Ranks every image id in `ctx.db`, most relevant first: a cold fit
    /// over the whole database, scored in place. The returned permutation
    /// contains each id exactly once.
    fn rank(&self, ctx: &QueryContext<'_>) -> Vec<usize> {
        let all: Vec<usize> = (0..ctx.db.len()).collect();
        crate::pooled::rank_candidates(self, ctx, &all, &mut WarmState::default(), |scorer, ids| {
            scorer.score_ids(ctx.db, ctx.log, ids)
        })
    }

    /// Per-image decision scores aligned with image ids, when the scheme
    /// has a real decision function (SVM-based schemes). Presentation
    /// policies (see `active`) need score *magnitudes* — a ranking alone
    /// cannot express uncertainty.
    fn scores(&self, ctx: &QueryContext<'_>) -> Option<Vec<f64>> {
        let all: Vec<usize> = (0..ctx.db.len()).collect();
        self.fit_warm(ctx, &all, &mut WarmState::default())
            .map(|scorer| scorer.score_ids(ctx.db, ctx.log, &all))
    }
}

/// Descending-score comparison that is a total order: NaN scores sort
/// *after* every real score (a broken decision value must not surface an
/// image, and a non-total comparator can panic inside `sort_by`). Shared
/// by every ranking path so full and pooled rankings stay bit-identical.
pub(crate) fn cmp_scores_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        // lrf-lint: allow(service-panic): this arm matched both non-NaN
        (false, false) => b.partial_cmp(&a).expect("both scores are non-NaN"),
    }
}

/// Sorts image ids by descending score with deterministic id tie-breaking —
/// the shared final step of every learning scheme. NaN scores rank last.
pub fn rank_by_scores(scores: &[f64]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..scores.len()).collect();
    ids.sort_by(|&a, &b| cmp_scores_desc(scores[a], scores[b]).then(a.cmp(&b)));
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_by_scores_descends_with_stable_ties() {
        let ranked = rank_by_scores(&[0.1, 0.9, 0.5, 0.9]);
        assert_eq!(ranked, vec![1, 3, 2, 0]);
    }

    #[test]
    fn rank_by_scores_puts_nan_last_deterministically() {
        // A NaN decision value must neither panic the sort (the comparator
        // is total) nor surface its image: NaNs rank after every real
        // score, ties among them by id.
        let ranked = rank_by_scores(&[f64::NAN, 1.0, f64::NAN, -5.0]);
        assert_eq!(ranked, vec![1, 3, 0, 2]);
    }

    #[test]
    fn rank_by_scores_empty() {
        assert!(rank_by_scores(&[]).is_empty());
    }
}
