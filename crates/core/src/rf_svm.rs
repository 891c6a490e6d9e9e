//! The `RF-SVM` baseline: regular SVM relevance feedback on content only.
//!
//! "In a regular SVM based relevance feedback algorithm [Tong & Chang],
//! only the low-level features of image content is considered" — train one
//! SVM on the judged images' feature vectors and rank the database by the
//! decision value.

use crate::config::LrfConfig;
use crate::feedback::{
    pool_scores, QueryContext, RelevanceFeedback, RoundDiagnostics, ScorerRef, WarmState,
};
use lrf_cbir::ImageDatabase;
use lrf_svm::{Dual, KernelCache, RbfKernel};

/// Content-only SVM relevance feedback.
#[derive(Clone, Debug, Default)]
pub struct RfSvm {
    /// Shared configuration (only `coupled.c_content`, `coupled.smo`, and
    /// `gamma_content` are read by this scheme).
    config: LrfConfig,
}

impl RfSvm {
    /// Creates the scheme with an explicit configuration.
    pub fn new(config: LrfConfig) -> Self {
        config.validate();
        Self { config }
    }
}

/// The content view of one feedback round: a row store over borrowed row
/// views of the `labeled` images' features (in the given order) — no
/// feature is cloned — and the dual of the content SVM solved in it,
/// seeded with the previous round's content-side alphas (the set grows by
/// appending, so the seed prefix-maps onto the new round's samples).
/// Shared by every scheme with a content side (this is exactly the
/// log-based schemes' content-side initial model; LRF-CSVM goes on to
/// extend the store and anneal in it) and by the log collector's
/// refinement rounds.
pub(crate) fn content_fit<'a>(
    cfg: &LrfConfig,
    db: &'a ImageDatabase,
    labeled: &[(usize, f64)],
    warm: Option<&[f64]>,
) -> (KernelCache<'a, [f64], RbfKernel>, Dual) {
    let samples = labeled.iter().map(|&(id, _)| db.feature(id)).collect();
    let labels: Vec<f64> = labeled.iter().map(|&(_, y)| y).collect();
    let mut store = KernelCache::new(cfg.content_kernel(), samples);
    let bounds = vec![cfg.coupled.c_content; labeled.len()];
    let dual = store
        .solve(&labels, &bounds, &cfg.coupled.smo, warm)
        // lrf-lint: allow(service-panic): a request's fit comes through
        // `rank_candidates`, which skips an empty round, for a scheme whose
        // `new` ran `LrfConfig::validate` (a positive bound); the labels are
        // ±1, one per sample; database features are finite
        .expect("content SVM training cannot fail on validated feedback rounds");
    (store, dual)
}

impl RelevanceFeedback for RfSvm {
    fn name(&self) -> &'static str {
        "RF-SVM"
    }

    fn fit_warm(
        &self,
        ctx: &QueryContext<'_>,
        pool: &[usize],
        warm: &mut WarmState,
    ) -> Option<ScorerRef> {
        let (cfg, labeled) = (&self.config, &ctx.example.labeled);
        let (_, dual) = content_fit(cfg, ctx.db, labeled, warm.content.as_deref());
        warm.blocks.align(cfg, ctx, pool);
        let scores = warm.blocks.scores(cfg, ctx, labeled, (&dual, None));
        let mut diag = RoundDiagnostics::all_converged();
        diag.absorb(&dual.stats);
        (diag.rows_computed, diag.rows_carried) = warm.blocks.round;
        warm.content = Some(dual.alpha);
        warm.last = Some(diag);
        Some(pool_scores(pool, scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::{collect_log, precision_at, CorelDataset, CorelSpec, QueryProtocol};
    use lrf_logdb::SimulationConfig;

    fn setup() -> (CorelDataset, lrf_logdb::LogStore) {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 10, 3));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: 8,
                judged_per_session: 6,
                rounds_per_query: 2,
                noise: 0.0,
                seed: 2,
            },
        );
        (ds, log)
    }

    #[test]
    fn rank_is_a_permutation() {
        let (ds, log) = setup();
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 0);
        let ranked = RfSvm::default().rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
    }

    #[test]
    fn labeled_positives_rank_above_labeled_negatives() {
        let (ds, log) = setup();
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 10,
            seed: 0,
        };
        // Query near a category boundary gets mixed labels.
        let example = (0..ds.db.len())
            .map(|q| proto.feedback_example(&ds.db, q))
            .find(|ex| {
                let pos = ex.labeled.iter().filter(|&&(_, y)| y > 0.0).count();
                pos >= 2 && pos <= ex.labeled.len() - 2
            })
            .expect("some query must have mixed feedback");
        let ranked = RfSvm::default().rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        let pos_mean: f64 = example
            .labeled
            .iter()
            .filter(|&&(_, y)| y > 0.0)
            .map(|&(id, _)| ranked.iter().position(|&r| r == id).unwrap() as f64)
            .sum::<f64>()
            / example.labeled.iter().filter(|&&(_, y)| y > 0.0).count() as f64;
        let neg_mean: f64 = example
            .labeled
            .iter()
            .filter(|&&(_, y)| y < 0.0)
            .map(|&(id, _)| ranked.iter().position(|&r| r == id).unwrap() as f64)
            .sum::<f64>()
            / example.labeled.iter().filter(|&&(_, y)| y < 0.0).count() as f64;
        assert!(
            pos_mean < neg_mean,
            "positives should rank earlier: pos {pos_mean} vs neg {neg_mean}"
        );
    }

    #[test]
    fn batched_scores_match_per_image_decisions() {
        // The ranking contract: the scores a fit reads from its row block
        // are the fitted machine's decision per image, bit for bit, in
        // any subset; an id outside the fitted pool scores NaN.
        let (ds, log) = setup();
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 5);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let (store, dual) = content_fit(&LrfConfig::default(), ctx.db, &example.labeled, None);
        let svm = store.machine(dual, &ctx.labels());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let serial: Vec<f64> = (0..ds.db.len())
            .map(|id| svm.model.decision_batch(&[ds.db.feature(id)])[0])
            .collect();
        let all: Vec<usize> = (0..ds.db.len()).collect();
        let scorer = RfSvm::default()
            .fit_warm(&ctx, &all, &mut WarmState::default())
            .expect("RF-SVM trains");
        assert_eq!(bits(&scorer.score_ids(&ds.db, &log, &all)), bits(&serial));
        let ids: Vec<usize> = (0..ds.db.len()).step_by(3).collect();
        let subset = scorer.score_ids(&ds.db, &log, &ids);
        let expect: Vec<f64> = ids.iter().map(|&id| serial[id]).collect();
        assert_eq!(bits(&subset), bits(&expect));
        let pool = &ids[..4];
        let scorer = RfSvm::default()
            .fit_warm(&ctx, pool, &mut WarmState::default())
            .expect("RF-SVM trains");
        let outside = scorer.score_ids(&ds.db, &log, &[pool[0], 1]);
        assert_eq!(outside[0].to_bits(), serial[pool[0]].to_bits());
        assert!(outside[1].is_nan());
    }

    #[test]
    fn single_class_feedback_still_ranks() {
        let (ds, log) = setup();
        // Fabricate an all-relevant round.
        let example = lrf_cbir::FeedbackExample {
            query: 0,
            labeled: vec![(0, 1.0), (1, 1.0), (2, 1.0)],
        };
        let ranked = RfSvm::default().rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        assert_eq!(ranked.len(), ds.db.len());
    }

    #[test]
    fn improves_over_random_on_average() {
        let (ds, log) = setup();
        let proto = QueryProtocol {
            n_queries: 6,
            n_labeled: 8,
            seed: 5,
        };
        let scheme = RfSvm::default();
        let mut total = 0.0;
        let queries = proto.sample_queries(&ds.db);
        for &q in &queries {
            let example = proto.feedback_example(&ds.db, q);
            let ranked = scheme.rank(&QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            });
            total += precision_at(&ranked, |id| ds.db.same_category(id, q), 10);
        }
        let mean = total / queries.len() as f64;
        assert!(
            mean > 0.25 + 0.1,
            "RF-SVM precision {mean} not above chance"
        );
    }
}
