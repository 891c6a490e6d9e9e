//! Index-fed candidate-pool re-ranking.
//!
//! At scale, no relevance-feedback scheme can afford to score every image
//! per query. The production path is the two-stage architecture the
//! related systems (PinView; Barz & Denzler) assume:
//!
//! 1. a [`FlatIndex`] retrieves a candidate pool — `pool_size` nearest
//!    neighbors of the query feature (an exact scan: no workload is served
//!    faster by an approximate index);
//! 2. the learned scheme is fitted on the round
//!    ([`RelevanceFeedback::fit_warm`]) and its scorer scores *only the
//!    pool* ([`crate::feedback::PoolScorer::score_ids`]); images outside
//!    the pool trail in id order (every evaluation cutoff that matters is
//!    well inside the pool).
//!
//! With the exact flat index and `pool_size ≥ N` this degrades — by
//! construction, not by accident — to the paper's full ranking, so the
//! pooled path is a strict generalization of the reproduction.

use crate::feedback::{cmp_scores_desc, QueryContext, RelevanceFeedback, ScorerRef, WarmState};
use lrf_index::{AnnIndex, FlatIndex, SearchStats};

/// The two-stage (index → re-rank) retrieval driver.
#[derive(Clone, Copy)]
pub struct PooledRetrieval<'a> {
    /// Candidate generator.
    pub index: &'a FlatIndex,
    /// Candidates fetched per query (clamped to the database size).
    pub pool_size: usize,
}

impl<'a> PooledRetrieval<'a> {
    /// Creates the driver.
    pub fn new(index: &'a FlatIndex, pool_size: usize) -> Self {
        assert!(pool_size > 0, "pool size must be positive");
        Self { index, pool_size }
    }

    /// The candidate pool for a query: the index's nearest neighbors of
    /// the query feature, in index (distance) order, with the round's
    /// labeled ids appended if the pool is too shallow to hold them all —
    /// the scheme trained on them, so they must be rankable.
    pub fn pool(&self, ctx: &QueryContext<'_>) -> Vec<usize> {
        self.pool_with_stats(ctx).0
    }

    /// [`pool`](Self::pool) plus the index's per-query [`SearchStats`]
    /// (distance evaluations) so a serving layer can account the
    /// candidate-generation work per request.
    pub fn pool_with_stats(&self, ctx: &QueryContext<'_>) -> (Vec<usize>, SearchStats) {
        let query_feature = ctx.db.feature(ctx.example.query);
        let (neighbors, stats) = self
            .index
            .search_with_stats(query_feature, self.pool_size.min(ctx.db.len()));
        let neighbors = neighbors.into_iter().map(|(id, _)| id).collect();
        (candidate_pool(neighbors, &ctx.example.labeled), stats)
    }

    /// Full-database ranking: pool members re-ranked by the scheme's
    /// scores (descending, ties by id), then every out-of-pool id
    /// ascending. Schemes without a decision function (Euclidean) keep the
    /// pool's distance order, which *is* their ranking.
    pub fn rank<S: RelevanceFeedback + ?Sized>(
        &self,
        scheme: &S,
        ctx: &QueryContext<'_>,
    ) -> Vec<usize> {
        let ranked_pool = rank_candidates(
            scheme,
            ctx,
            &self.pool(ctx),
            &mut WarmState::default(),
            |scorer, ids| scorer.score_ids(ctx.db, ctx.log, ids),
        );
        lrf_cbir::ranking_window(&ranked_pool, ctx.db.len(), 0, usize::MAX)
    }
}

/// The one place a candidate pool is assembled: the query's nearest
/// `neighbors` in index order, then every labeled id they lack, in mark
/// order — the scheme trains on those, so they must be rankable.
/// [`PooledRetrieval::pool_with_stats`] feeds it a fresh search; a serving
/// session feeds it the neighbours it searched at `Open`
/// ([`crate::FeedbackLoop::rerank_scattered`]).
pub(crate) fn candidate_pool(mut pool: Vec<usize>, labeled: &[(usize, f64)]) -> Vec<usize> {
    for &(id, _) in labeled {
        if !pool.contains(&id) {
            pool.push(id);
        }
    }
    pool
}

/// The one place a feedback round becomes a ranking: fits `scheme` on the
/// round (seeded from `warm`; a fresh [`WarmState`] is the cold start),
/// hands the trained scorer and the `pool` to `score`, and returns the pool
/// ordered by the returned scores (descending, ties by id, NaN last). Only
/// the pool: the evaluation entry points append the out-of-pool tail
/// ([`lrf_cbir::ranking_window`]) themselves, and a serving session pages it
/// without ever holding it. A scheme with nothing to fit (Euclidean) never
/// calls `score`; its pool keeps its order. So does a round with no
/// labeled image, for every scheme: there is nothing to fit yet, and the
/// solver is never handed an empty training set.
///
/// `score` decides *where* the decision values are computed — inline via
/// [`crate::feedback::PoolScorer::score_ids`], or scattered across shard
/// workers and stitched back in pool order; the scorer's
/// partition-invariance contract makes the two bit-identical. Every
/// ranking entry ([`RelevanceFeedback::rank`], [`PooledRetrieval::rank`],
/// [`crate::rounds::FeedbackLoop::rerank_scattered`]) is this function, so
/// they cannot drift apart.
///
/// # Panics
/// Panics if `score` returns a vector not aligned with `pool`.
pub(crate) fn rank_candidates<S, F>(
    scheme: &S,
    ctx: &QueryContext<'_>,
    pool: &[usize],
    warm: &mut WarmState,
    score: F,
) -> Vec<usize>
where
    S: RelevanceFeedback + ?Sized,
    F: FnOnce(&ScorerRef, &[usize]) -> Vec<f64>,
{
    let fitted = if ctx.example.labeled.is_empty() {
        None
    } else {
        scheme.fit_warm(ctx, pool, warm)
    };
    match fitted {
        Some(scorer) => {
            let scores = score(&scorer, pool);
            assert_eq!(pool.len(), scores.len(), "scores must align with the pool");
            let mut order: Vec<usize> = (0..pool.len()).collect();
            order.sort_by(|&a, &b| {
                cmp_scores_desc(scores[a], scores[b]).then(pool[a].cmp(&pool[b]))
            });
            order.into_iter().map(|i| pool[i]).collect()
        }
        None => pool.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LrfConfig;
    use crate::euclidean::EuclideanScheme;
    use crate::lrf_csvm::LrfCsvm;
    use crate::rf_svm::RfSvm;
    use lrf_cbir::{collect_log, precision_at, CorelDataset, CorelSpec, QueryProtocol};
    use lrf_logdb::SimulationConfig;

    fn setup() -> (CorelDataset, lrf_logdb::LogStore) {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: 24,
                judged_per_session: 10,
                rounds_per_query: 2,
                noise: 0.1,
                seed: 23,
            },
        );
        (ds, log)
    }

    fn small_config() -> LrfConfig {
        LrfConfig {
            n_unlabeled: 8,
            coupled: crate::config::CoupledConfig {
                rho_init: 0.01,
                rho: 0.05,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn full_pool_over_flat_index_reproduces_the_full_ranking() {
        // pool_size = N + exact backend ⇒ the pooled path must equal the
        // schemes' full-database ranking for every scheme with scores.
        let (ds, log) = setup();
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, ds.db.len());
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        for q in [0usize, 17, 40] {
            let example = proto.feedback_example(&ds.db, q);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let rf = RfSvm::new(small_config());
            assert_eq!(pooled.rank(&rf, &ctx), rf.rank(&ctx), "RF-SVM query {q}");
            let csvm = LrfCsvm::new(small_config());
            assert_eq!(
                pooled.rank(&csvm, &ctx),
                csvm.rank(&ctx),
                "LRF-CSVM query {q}"
            );
        }
    }

    #[test]
    fn euclidean_pooled_head_is_the_index_order() {
        let (ds, log) = setup();
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, 12);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 6,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 3);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let ranked = pooled.rank(&EuclideanScheme, &ctx);
        assert_eq!(&ranked[..12], &lrf_cbir::top_k_euclidean(&ds.db, 3, 12)[..]);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_ranking_is_always_a_permutation() {
        let (ds, log) = setup();
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, 4);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        for q in [2usize, 25] {
            let example = proto.feedback_example(&ds.db, q);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let ranked = pooled.rank(&LrfCsvm::new(small_config()), &ctx);
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>(), "query {q}");
        }
    }

    #[test]
    fn pool_with_stats_accounts_the_search_work() {
        let (ds, log) = setup();
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, 12);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 6,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 3);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let (pool, stats) = pooled.pool_with_stats(&ctx);
        assert_eq!(
            pool,
            pooled.pool(&ctx),
            "stats variant must not change the pool"
        );
        // The flat scan evaluates every database distance per query, not
        // one per pool slot.
        assert_eq!(stats.distance_evals, ds.db.len());
    }

    #[test]
    fn labeled_ids_always_enter_the_pool() {
        // A pool shallower than the labeled set misses labeled images;
        // the pool must still include them.
        let (ds, log) = setup();
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, 4);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 10,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 11);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let searched = lrf_cbir::top_k_euclidean(&ds.db, 11, 4);
        assert!(
            example.labeled.iter().any(|(id, _)| !searched.contains(id)),
            "precondition: some labeled id lies outside the top-4"
        );
        let pool = pooled.pool(&ctx);
        for &(id, _) in &example.labeled {
            assert!(pool.contains(&id), "labeled id {id} missing from pool");
        }
    }

    #[test]
    fn pooled_precision_tracks_full_precision_at_modest_pools() {
        // A pool of 3×k candidates should retain almost all of the full
        // ranking's precision@k — the whole premise of two-stage retrieval.
        let (ds, log) = setup();
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, 30);
        let proto = QueryProtocol {
            n_queries: 6,
            n_labeled: 8,
            seed: 5,
        };
        let scheme = RfSvm::new(small_config());
        let (mut p_full, mut p_pool) = (0.0, 0.0);
        let queries = proto.sample_queries(&ds.db);
        for &q in &queries {
            let example = proto.feedback_example(&ds.db, q);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let rel = |id: usize| ds.db.same_category(id, q);
            p_full += precision_at(&scheme.rank(&ctx), rel, 10);
            p_pool += precision_at(&pooled.rank(&scheme, &ctx), rel, 10);
        }
        assert!(
            p_pool >= p_full - 0.5,
            "pooled precision collapsed: {p_pool} vs full {p_full} over {} queries",
            queries.len()
        );
    }
}
