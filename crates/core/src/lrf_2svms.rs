//! Tests of [`crate::Scheme`] as the `LRF-2SVMs` baseline
//! ([`crate::SchemeKind::Lrf2Svms`]): independent content and log SVMs,
//! decisions summed.

#[cfg(test)]
mod tests {
    use crate::{LrfConfig, QueryContext, Scheme, SchemeKind, WarmState};
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
        let ranked = Scheme::new(SchemeKind::Lrf2Svms, LrfConfig::default()).rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
        assert_eq!(
            Scheme::new(SchemeKind::Lrf2Svms, LrfConfig::default())
                .kind()
                .name(),
            "LRF-2SVMs"
        );
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
        let scorer = Scheme::new(SchemeKind::Lrf2Svms, LrfConfig::default())
            .fit(&ctx, &ids, &mut WarmState::default())
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
        let two = Scheme::new(SchemeKind::Lrf2Svms, LrfConfig::default());
        let rf = Scheme::new(SchemeKind::RfSvm, LrfConfig::default());
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
        let ranked = Scheme::new(SchemeKind::Lrf2Svms, LrfConfig::default()).rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        assert_eq!(ranked.len(), ds.db.len());
    }
}
