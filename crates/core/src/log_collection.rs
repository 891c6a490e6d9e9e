//! Paper-faithful log collection: multi-round relevance feedback.
//!
//! §6.3 of the paper: users query the CBIR system, judge the initial
//! content-based screen, and then "employ the relevance feedback tool to
//! improve the retrieval performance" — every refined round is logged as
//! its own session. The refinement in the authors' system was their SVM
//! relevance feedback (\[10, 11\] in the paper), i.e. the `RF-SVM` scheme.
//!
//! This collector reproduces that loop:
//!
//! * round 0: the Euclidean top-`N_l` of the database (what the system
//!   shows before any feedback);
//! * round `r > 0`: an SVM is trained on the judgments accumulated in this
//!   interaction (most recent judgment wins for re-shown images) and the
//!   top-`N_l` of its refined ranking — *including* already-confirmed
//!   positives, which naturally rank highest — forms the next screen,
//!   exactly as the era's feedback UIs presented results;
//! * each round is one [`lrf_logdb::LogSession`].
//!
//! Two properties of this protocol matter downstream. First, refined
//! rounds chase the user's *semantic* category across the feature space,
//! co-judging relevant images from different appearance clusters. Second,
//! because confirmed positives are re-shown and re-marked alongside newly
//! found ones, every interaction's discoveries end up sharing sessions —
//! the co-judgment graph of the relevance matrix is *connected* within a
//! category instead of fragmenting into per-round islands. Both properties
//! are what let the log-based schemes bridge the semantic gap.

use crate::config::LrfConfig;
use lrf_cbir::{top_k_euclidean, ImageDatabase};
use lrf_logdb::{simulate_sessions, LogStore, Relevance, SimulationConfig};
use lrf_svm::{train, RbfKernel};

/// Collects a feedback log whose refined rounds come from RF-SVM, as in
/// the paper's collection procedure.
///
/// `lrf` supplies the SVM hyperparameters used by the *collection-time*
/// refinement (the deployed system's configuration); it is typically the
/// same config later used for retrieval.
pub fn collect_feedback_log(
    db: &ImageDatabase,
    config: &SimulationConfig,
    lrf: &LrfConfig,
) -> LogStore {
    let gamma = lrf
        .gamma_content
        .unwrap_or(1.0 / lrf_features::TOTAL_DIMS as f64);
    let sessions = simulate_sessions(config, db.categories(), |query, judged, k| {
        if judged.is_empty() {
            top_k_euclidean(db, query, k)
        } else {
            let mut ranking = refine_with_svm(db, judged, gamma, lrf);
            ranking.truncate(k);
            ranking
        }
    });
    let mut store = LogStore::new(db.len());
    for s in sessions {
        store.record(s);
    }
    store
}

/// One RF-SVM refinement round over accumulated judgments. An image
/// re-judged in a later round keeps only its most recent judgment for
/// training (the user's current opinion). Single-class judgment sets fall
/// back to the solver's constant model.
fn refine_with_svm(
    db: &ImageDatabase,
    judged: &[(usize, Relevance)],
    gamma: f64,
    lrf: &LrfConfig,
) -> Vec<usize> {
    // Deduplicate, last judgment wins; keep deterministic id order.
    let mut latest: std::collections::BTreeMap<usize, Relevance> =
        std::collections::BTreeMap::new();
    for &(id, r) in judged {
        latest.insert(id, r);
    }
    // Borrowed row views — a session's judged set is never deep-copied.
    let samples: Vec<&[f64]> = latest.keys().map(|&id| db.feature(id)).collect();
    let labels: Vec<f64> = latest.values().map(|r| r.sign()).collect();
    let bounds = vec![lrf.coupled.c_content; samples.len()];
    let svm = train(
        &samples,
        &labels,
        &bounds,
        RbfKernel::new(gamma),
        &lrf.coupled.smo,
    )
    .expect("collection-time SVM cannot fail on validated judgments");
    let scores = svm.model.decision_batch_rows(db.features_flat(), db.dim());
    crate::feedback::rank_by_scores(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::{CorelDataset, CorelSpec};

    fn cfg(n_sessions: usize, k: usize, rounds: usize, noise: f64, seed: u64) -> SimulationConfig {
        SimulationConfig {
            n_sessions,
            judged_per_session: k,
            rounds_per_query: rounds,
            noise,
            seed,
        }
    }

    #[test]
    fn collects_requested_sessions() {
        let ds = CorelDataset::build(CorelSpec::tiny(3, 10, 3));
        let log = collect_feedback_log(&ds.db, &cfg(9, 6, 3, 0.1, 1), &LrfConfig::default());
        assert_eq!(log.n_sessions(), 9);
        assert_eq!(log.n_images(), ds.db.len());
    }

    #[test]
    fn is_deterministic() {
        let ds = CorelDataset::build(CorelSpec::tiny(2, 8, 5));
        let c = cfg(6, 5, 2, 0.1, 9);
        let lrf = LrfConfig::default();
        assert_eq!(
            collect_feedback_log(&ds.db, &c, &lrf),
            collect_feedback_log(&ds.db, &c, &lrf)
        );
    }

    #[test]
    fn refined_rounds_reshow_confirmed_positives() {
        // The refined screen is the model's top-k, which re-contains the
        // positives confirmed in the previous round (they score highest),
        // connecting each interaction's discoveries through shared
        // sessions.
        let ds = CorelDataset::build(CorelSpec::tiny(3, 10, 7));
        let log = collect_feedback_log(&ds.db, &cfg(6, 8, 2, 0.0, 3), &LrfConfig::default());
        let mut any_overlap = false;
        for pair in 0..3 {
            let a = log.session(2 * pair);
            let b = log.session(2 * pair + 1);
            if a.iter().any(|(id, _)| b.judgment(id).is_some()) {
                any_overlap = true;
            }
        }
        assert!(
            any_overlap,
            "refined rounds should re-judge confirmed images"
        );
    }

    #[test]
    fn refined_collection_reaches_more_of_the_category_than_content_only() {
        // The whole point of RF-driven collection: across an interaction,
        // refined rounds recall more same-category images than repeating
        // content-ranked screens. Compare total relevant judgments.
        let ds = CorelDataset::build(CorelSpec::tiny(4, 25, 11));
        let c = cfg(30, 10, 3, 0.0, 13);
        let refined = collect_feedback_log(&ds.db, &c, &LrfConfig::default());
        let content_only = lrf_cbir::collect_log(&ds.db, &c);
        let count_relevant =
            |log: &LogStore| -> usize { log.sessions().map(|s| s.n_relevant()).sum() };
        let r = count_relevant(&refined);
        let c0 = count_relevant(&content_only);
        assert!(
            r * 10 >= c0 * 9,
            "refined collection should not find drastically fewer relevant: {r} vs {c0}"
        );
    }
}
