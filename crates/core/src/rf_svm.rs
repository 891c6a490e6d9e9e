//! The `RF-SVM` baseline: regular SVM relevance feedback on content only.
//!
//! "In a regular SVM based relevance feedback algorithm [Tong & Chang],
//! only the low-level features of image content is considered" — train one
//! SVM on the judged images' feature vectors and rank the database by the
//! decision value.

use crate::block::Round;
use crate::config::LrfConfig;
use crate::feedback::{QueryContext, RelevanceFeedback, ScorerRef, WarmState};

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
        Some(warm.summed_round(&Round::new(&self.config, ctx), pool, false))
    }
}

#[cfg(test)]
use crate::block::content_fit;

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
        let (store, dual) = content_fit(&LrfConfig::default(), ctx.db, &example.labeled);
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
