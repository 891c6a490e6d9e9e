//! The `LRF-2SVMs` baseline: independent SVMs per modality, summed.
//!
//! "The straightforward approach to integrate the user feedback log with
//! the low-level image content is to learn two modalities respectively and
//! then sum up their results. Such an approach is feasible but it may lose
//! some coupling information." Train one SVM on the labeled feature
//! vectors, one on the labeled log vectors, and rank by
//! `f_w(x_i) + f_u(r_i)`.

use crate::config::LrfConfig;
use crate::feedback::{
    pool_scores, QueryContext, RelevanceFeedback, RoundDiagnostics, ScorerRef, WarmState,
};
use crate::kernels::LogRbfKernel;
use crate::rf_svm::content_fit;
use lrf_logdb::{LogStore, SparseVector};
use lrf_svm::{Dual, KernelCache};

/// Linear combination of two independently trained SVMs.
#[derive(Clone, Debug, Default)]
pub struct Lrf2Svms {
    /// Shared configuration.
    config: LrfConfig,
}

impl Lrf2Svms {
    /// Creates the scheme with an explicit configuration.
    pub fn new(config: LrfConfig) -> Self {
        config.validate();
        Self { config }
    }
}

/// The log view of one feedback round: a row store over the `labeled`
/// images' log vectors, borrowed from `log` (no clone per sample), and the
/// dual of the log-side SVM solved in it, seeded with the previous round's
/// log-side alphas (labeled-set order). Shared with LRF-CSVM (this is its
/// log-side initial model).
pub(crate) fn log_fit<'a>(
    cfg: &LrfConfig,
    log: &'a LogStore,
    labeled: &[(usize, f64)],
    warm: Option<&[f64]>,
) -> (KernelCache<'a, SparseVector, LogRbfKernel>, Dual) {
    let samples = labeled.iter().map(|&(id, _)| log.log_vector(id)).collect();
    let labels: Vec<f64> = labeled.iter().map(|&(_, y)| y).collect();
    let mut store = KernelCache::new(cfg.log_kernel, samples);
    let bounds = vec![cfg.coupled.c_log; labeled.len()];
    let dual = store
        .solve(&labels, &bounds, &cfg.coupled.smo, warm)
        // lrf-lint: allow(service-panic): a request's fit comes through
        // `rank_candidates`, which skips an empty round, for a scheme whose
        // `new` ran `LrfConfig::validate` (a positive bound and kernel
        // width); the labels are ±1, one per sample; log entries are ±1
        .expect("log SVM training cannot fail on validated feedback rounds");
    (store, dual)
}

impl RelevanceFeedback for Lrf2Svms {
    fn name(&self) -> &'static str {
        "LRF-2SVMs"
    }

    fn fit_warm(
        &self,
        ctx: &QueryContext<'_>,
        pool: &[usize],
        warm: &mut WarmState,
    ) -> Option<ScorerRef> {
        let (cfg, labeled) = (&self.config, &ctx.example.labeled);
        let (_, content) = content_fit(cfg, ctx.db, labeled, warm.content.as_deref());
        let (_, log) = log_fit(cfg, ctx.log, labeled, warm.log.as_deref());
        warm.blocks.align(cfg, ctx, pool);
        let scores = warm
            .blocks
            .scores(cfg, ctx, labeled, (&content, Some(&log)));
        let mut diag = RoundDiagnostics::all_converged();
        diag.absorb(&content.stats);
        diag.absorb(&log.stats);
        (diag.rows_computed, diag.rows_carried) = warm.blocks.round;
        warm.content = Some(content.alpha);
        warm.log = Some(log.alpha);
        warm.last = Some(diag);
        Some(pool_scores(pool, scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RfSvm;
    use lrf_cbir::{collect_log, precision_at, CorelDataset, CorelSpec, QueryProtocol};
    use lrf_logdb::SimulationConfig;

    fn setup(noise: f64, sessions: usize) -> (CorelDataset, lrf_logdb::LogStore) {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: sessions,
                judged_per_session: 10,
                rounds_per_query: 2,
                noise,
                seed: 23,
            },
        );
        (ds, log)
    }

    #[test]
    fn rank_is_a_permutation() {
        let (ds, log) = setup(0.1, 12);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 3);
        let ranked = Lrf2Svms::default().rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
        assert_eq!(Lrf2Svms::default().name(), "LRF-2SVMs");
    }

    /// A score depends only on its id: one call over the fitted ids is
    /// bit-identical to any split of them scored part by part and stitched
    /// back in order — here 300 ids (repeats included) against cuts from
    /// single ids up.
    #[test]
    fn one_call_equals_any_split() {
        let (ds, log) = setup(0.1, 30);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 5,
        };
        let example = proto.feedback_example(&ds.db, 7);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let ids: Vec<usize> = (0..300).map(|k| k * 7 % ds.db.len()).collect();
        let scorer = Lrf2Svms::default()
            .fit_warm(&ctx, &ids, &mut WarmState::default())
            .expect("LRF-2SVMs trains");
        let whole = scorer.score_ids(&ds.db, &log, &ids);
        for step in [1, 2, 3, 17, 64, 257, 299] {
            let mut stitched = Vec::new();
            let mut rest = &ids[..];
            for k in 0.. {
                if rest.is_empty() {
                    break;
                }
                // Uneven parts: the step, then alternating shorter cuts.
                let cut = (step >> (k % 3)).clamp(1, rest.len());
                stitched.extend(scorer.score_ids(&ds.db, &log, &rest[..cut]));
                rest = &rest[cut..];
            }
            let same = whole
                .iter()
                .zip(&stitched)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same && stitched.len() == ids.len(),
                "split by {step} diverged"
            );
        }
    }

    #[test]
    fn log_information_helps_on_average() {
        // With a dense enough clean log, LRF-2SVMs must beat RF-SVM on
        // average precision — the paper's first empirical claim.
        let (ds, log) = setup(0.0, 60);
        let proto = QueryProtocol {
            n_queries: 8,
            n_labeled: 10,
            seed: 77,
        };
        let two = Lrf2Svms::default();
        let rf = RfSvm::default();
        let mut p_two = 0.0;
        let mut p_rf = 0.0;
        let queries = proto.sample_queries(&ds.db);
        for &q in &queries {
            let example = proto.feedback_example(&ds.db, q);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let rel = |id: usize| ds.db.same_category(id, q);
            p_two += precision_at(&two.rank(&ctx), rel, 12);
            p_rf += precision_at(&rf.rank(&ctx), rel, 12);
        }
        assert!(
            p_two >= p_rf,
            "log info should help: LRF-2SVMs {p_two} vs RF-SVM {p_rf}"
        );
    }

    #[test]
    fn empty_log_degrades_gracefully() {
        // With zero sessions every log vector is empty: the log SVM sees a
        // single point; ranking must still be a valid permutation.
        let ds = CorelDataset::build(CorelSpec::tiny(3, 6, 4));
        let log = lrf_logdb::LogStore::new(ds.db.len());
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 6,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 1);
        let ranked = Lrf2Svms::default().rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        assert_eq!(ranked.len(), ds.db.len());
    }
}
