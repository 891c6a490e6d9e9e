//! Euclidean content ranking.
//!
//! "The curve of Euclidean is given as a reference, which is obtained based
//! on the Euclidean distance measure on the low-level image features." The
//! same ranking also produces the *initial* result screen that users judge
//! (both in the log-collection protocol and in every evaluation query).

use crate::database::ImageDatabase;
use crate::retrieval::{build_flat_index, rank_with_index_stats, top_k_ids};

/// Ranks the whole database by ascending distance to `query_feature`.
/// Returns image ids; ties break by id for determinism.
///
/// This *is* the exact flat index's full ranking (the index shares the
/// database's feature allocation, so building it copies nothing): squared
/// distance under [`f64::total_cmp`], so the order is total even if a
/// feature vector carries NaNs (they rank last).
pub fn rank_by_euclidean(db: &ImageDatabase, query_feature: &[f64]) -> Vec<usize> {
    rank_with_index_stats(db, &build_flat_index(db), query_feature).0
}

/// The `k` nearest images to the query image (by id); the query itself is
/// included (distance 0 ranks it first), matching the era's evaluation
/// protocol where the query is part of the database. Exactly the first
/// `k` ids of [`rank_by_euclidean`], from the flat index's bounded-heap
/// scan (`O(N log k)`).
pub fn top_k_euclidean(db: &ImageDatabase, query_id: usize, k: usize) -> Vec<usize> {
    top_k_ids(&build_flat_index(db), db.feature(query_id), k)
}

/// What the index-backed rankings are tested against: a sort-everything
/// ranking that shares no code with the index.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::database::ImageDatabase;

    pub(crate) fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0, |acc, (x, y)| acc + (x - y) * (x - y))
    }

    /// Every id by ascending `(d², id)` under `total_cmp`.
    pub(crate) fn rank_by_sorting(db: &ImageDatabase, query: &[f64]) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..db.len()).collect();
        let d2 = |id: &usize| squared_euclidean(db.feature(*id), query);
        ids.sort_by(|a, b| d2(a).total_cmp(&d2(b)).then(a.cmp(b)));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::squared_euclidean;
    use super::*;
    use lrf_index::AnnIndex;

    fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
        squared_euclidean(a, b).sqrt()
    }

    fn db_from(feats: Vec<Vec<f64>>) -> ImageDatabase {
        let n = feats.len();
        ImageDatabase::from_features(feats, vec![0; n])
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(euclidean_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn ranking_is_by_distance_with_query_first() {
        // Build features already normalized-ish: use raw then the database
        // normalization preserves order along a single varying dimension.
        let db = db_from(vec![
            vec![0.0, 0.0],
            vec![5.0, 0.0],
            vec![1.0, 0.0],
            vec![3.0, 0.0],
        ]);
        let ranked = rank_by_euclidean(&db, db.feature(0));
        assert_eq!(ranked[0], 0);
        assert_eq!(ranked[1], 2);
        assert_eq!(ranked[2], 3);
        assert_eq!(ranked[3], 1);
    }

    #[test]
    fn top_k_truncates() {
        let db = db_from(vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let top = top_k_euclidean(&db, 1, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], 1); // query itself first
    }

    #[test]
    fn ties_break_by_id() {
        let db = db_from(vec![vec![0.0], vec![1.0], vec![-1.0], vec![1.0]]);
        let ranked = rank_by_euclidean(&db, db.feature(0));
        // images 1 and 3 are equidistant (and 2 on the other side at the
        // same normalized distance) — ordering must be stable by id.
        let pos1 = ranked.iter().position(|&i| i == 1).unwrap();
        let pos3 = ranked.iter().position(|&i| i == 3).unwrap();
        assert!(pos1 < pos3);
    }

    #[test]
    fn top_k_larger_than_db_returns_all() {
        let db = db_from(vec![vec![0.0], vec![1.0]]);
        assert_eq!(top_k_euclidean(&db, 0, 10).len(), 2);
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking() {
        // The heap path and the sort path must agree id-for-id, including
        // tie handling — the paper-fidelity invariant behind defaulting
        // retrieval to the flat index.
        let feats: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    (i as f64 * 0.37).sin(),
                    (i as f64 * 0.73).cos(),
                    (i % 5) as f64,
                ]
            })
            .collect();
        let db = db_from(feats);
        for q in [0usize, 7, 39] {
            let full = rank_by_euclidean(&db, db.feature(q));
            for k in [1usize, 5, 17, 40] {
                assert_eq!(top_k_euclidean(&db, q, k), full[..k.min(40)], "q={q} k={k}");
            }
        }
    }

    #[test]
    fn nan_query_yields_total_deterministic_order() {
        // Every distance to a NaN query is NaN; under total_cmp the
        // ranking degrades to stable id order instead of the comparator
        // silently reporting everything "equal" mid-sort.
        let db = db_from(vec![vec![0.0], vec![2.0], vec![1.0]]);
        let ranked = rank_by_euclidean(&db, &[f64::NAN]);
        assert_eq!(ranked, vec![0, 1, 2]);
        let top = build_flat_index(&db).search(&[f64::NAN], 2);
        assert_eq!(
            top.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn squared_euclidean_matches_square_of_distance() {
        let a = [0.3, -1.2, 4.0];
        let b = [1.0, 0.5, -2.0];
        assert!((squared_euclidean(&a, &b) - euclidean_distance(&a, &b).powi(2)).abs() < 1e-12);
    }
}
