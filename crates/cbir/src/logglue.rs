//! Glue: collect a feedback log over an image database.
//!
//! Wires [`lrf_logdb::simulate`] to the Euclidean ranker. Every screen —
//! including later rounds of an interaction — is the content-based top-`k`
//! of the *unjudged* remainder ("show me more" without learning). The
//! full, paper-faithful collection protocol (refined screens produced by an
//! RF-SVM round) lives in `lrf-core::log_collection`, because refinement
//! needs the learning stack; this content-only collector is the substrate
//! and the control condition for the log-quality ablation.

use crate::database::ImageDatabase;
use crate::retrieval::{build_flat_index, top_k_ids};
use lrf_logdb::{simulate_sessions, LogStore, SimulationConfig};

/// Collects a simulated feedback log over `db` with content-only screens
/// served by the exact flat index: round `r` fetches the top `k + judged`
/// candidates and drops the already-judged ones, so each screen is the
/// next `k` of the full Euclidean ranking without ever sorting the
/// database.
pub fn collect_log(db: &ImageDatabase, config: &SimulationConfig) -> LogStore {
    let index = build_flat_index(db);
    let sessions = simulate_sessions(config, db.categories(), |query, judged, k| {
        let seen: std::collections::HashSet<usize> = judged.iter().map(|&(id, _)| id).collect();
        top_k_ids(&index, db.feature(query), k + judged.len())
            .into_iter()
            .filter(|id| !seen.contains(id))
            .take(k)
            .collect()
    });
    let mut store = LogStore::new(db.len());
    for s in sessions {
        store.record(s);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corel::{CorelDataset, CorelSpec};

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
    fn collected_log_has_configured_shape() {
        let ds = CorelDataset::build(CorelSpec::tiny(3, 8, 13));
        let log = collect_log(&ds.db, &cfg(9, 6, 2, 0.1, 2));
        assert_eq!(log.n_sessions(), 9);
        assert_eq!(log.nnz(), 9 * 6);
        assert_eq!(log.n_images(), ds.db.len());
    }

    #[test]
    fn multi_round_interactions_judge_fresh_images() {
        // With 2 rounds per query on a 24-image database, consecutive
        // session pairs should never share an image.
        let ds = CorelDataset::build(CorelSpec::tiny(3, 8, 13));
        let log = collect_log(&ds.db, &cfg(8, 6, 2, 0.0, 5));
        for pair in 0..4 {
            let a = log.session(2 * pair);
            let b = log.session(2 * pair + 1);
            for (id, _) in a.iter() {
                assert!(
                    b.judgment(id).is_none(),
                    "image {id} re-judged within interaction"
                );
            }
        }
    }

    #[test]
    fn log_vectors_carry_semantic_signal() {
        // With zero noise, co-judged same-category images agree and
        // cross-category co-judged images disagree: on aggregate the
        // average dot product between same-category log vectors must
        // exceed the cross-category average.
        let ds = CorelDataset::build(CorelSpec::tiny(3, 10, 31));
        let log = collect_log(&ds.db, &cfg(60, 10, 2, 0.0, 4));
        let db = &ds.db;
        let mut same = 0.0;
        let mut same_n = 0usize;
        let mut cross = 0.0;
        let mut cross_n = 0usize;
        for a in 0..db.len() {
            if log.log_vector(a).is_empty() {
                continue;
            }
            for b in (a + 1)..db.len() {
                if log.log_vector(b).is_empty() {
                    continue;
                }
                let d = log.log_vector(a).dot(log.log_vector(b)) as f64;
                if db.same_category(a, b) {
                    same += d;
                    same_n += 1;
                } else {
                    cross += d;
                    cross_n += 1;
                }
            }
        }
        assert!(
            same_n > 0 && cross_n > 0,
            "log too sparse for the test setup"
        );
        let same_mean = same / same_n as f64;
        let cross_mean = cross / cross_n as f64;
        assert!(
            same_mean > cross_mean,
            "same-category affinity {same_mean} should exceed cross {cross_mean}"
        );
    }

    #[test]
    fn flat_index_collection_reproduces_direct_collection() {
        let ds = CorelDataset::build(CorelSpec::tiny(3, 8, 13));
        let c = cfg(12, 6, 2, 0.15, 7);
        // Reference: every screen filtered out of a sort-everything ranking.
        let db = &ds.db;
        let sessions = simulate_sessions(&c, db.categories(), |query, judged, k| {
            let mut ranked = crate::distance::oracle::rank_by_sorting(db, db.feature(query));
            ranked.retain(|id| judged.iter().all(|(seen, _)| seen != id));
            ranked.truncate(k);
            ranked
        });
        let mut direct = LogStore::new(db.len());
        for s in sessions {
            direct.record(s);
        }
        assert_eq!(collect_log(&ds.db, &c), direct);
    }

    #[test]
    fn collection_is_deterministic() {
        let ds = CorelDataset::build(CorelSpec::tiny(2, 6, 8));
        let c = cfg(5, 4, 2, 0.2, 11);
        assert_eq!(collect_log(&ds.db, &c), collect_log(&ds.db, &c));
    }
}
