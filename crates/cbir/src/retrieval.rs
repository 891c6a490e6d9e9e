//! Index-backed retrieval: the bridge between [`ImageDatabase`] and the
//! `lrf-index` exact scan.
//!
//! Every entry point of the retrieval pipeline — the initial screen users
//! judge, the evaluation protocol's feedback rounds, the log-collection
//! screens — is a nearest-neighbor query. This module builds a
//! [`FlatIndex`] (the one [`lrf_index::AnnIndex`] impl) over the
//! database's contiguous feature matrix and exposes the ranking operations
//! the rest of the stack consumes:
//!
//! ```text
//! ImageDatabase ──build──▶ FlatIndex (exact flat scan)
//!                             │ search(query, k)
//!                             ▼
//!                   candidate ids (+ distances)
//!                             │
//!          initial screen ────┤──── candidate pool for the
//!        (QueryProtocol,      │     coupled-SVM re-rank
//!         log collection)     ▼     (lrf-core::pooled)
//!                       full ranking
//! ```
//!
//! The index is the exact flat scan, so paper-fidelity results are
//! bit-identical to the full Euclidean ranking. It is the only index
//! because no `benchmark/` workload is served faster by an approximate
//! one that it can also afford to build.

use crate::database::ImageDatabase;
use lrf_index::{AnnIndex, FlatIndex, FlatShard, SearchStats};

/// Builds the exact (flat) index over the database. The index shares the
/// database's feature allocation (no copy).
pub fn build_flat_index(db: &ImageDatabase) -> FlatIndex {
    FlatIndex::from_shared(db.features_shared(), db.dim())
}

/// Splits the database into `n_shards` contiguous-id flat shards for a
/// scatter-gather serving tier. Every shard shares the database's one
/// feature allocation (no rows are copied) and emits global image ids, so
/// a coordinator can merge shard results directly. The shard count clamps
/// to the database size; the ranges partition `0..db.len()` exactly.
pub fn build_flat_shards(db: &ImageDatabase, n_shards: usize) -> Vec<FlatShard> {
    FlatShard::split_shared(db.features_shared(), db.dim(), n_shards)
}

/// The `k` nearest image ids for a query feature, through an index.
pub(crate) fn top_k_ids(index: &FlatIndex, query_feature: &[f64], k: usize) -> Vec<usize> {
    index
        .search(query_feature, k)
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}

/// Full-database ranking through an index: the complete Euclidean ranking
/// ([`crate::distance::rank_by_euclidean`] is this over the flat index),
/// returned with the search's [`SearchStats`] for callers that account
/// index work per request.
pub fn rank_with_index_stats(
    db: &ImageDatabase,
    index: &FlatIndex,
    query_feature: &[f64],
) -> (Vec<usize>, SearchStats) {
    let (neighbors, stats) = index.search_with_stats(query_feature, db.len());
    (neighbors.into_iter().map(|(id, _)| id).collect(), stats)
}

/// Positions `offset..offset + count` (clamped to `n`) of the ranking a
/// `head` of distinct ids defines: the head, then every id of `0..n` it
/// lacks, ascending — the tail every ranking in the stack puts after its
/// head. A window past the head costs a sort of `head` and a binary search
/// per tail id up to the window's end, never an `n`-sized allocation, so a
/// serving session can page a pool-sized head over any database.
pub fn ranking_window(head: &[usize], n: usize, offset: usize, count: usize) -> Vec<usize> {
    let end = offset.saturating_add(count).min(n);
    let start = offset.min(end);
    let mut window = head[start.min(head.len())..end.min(head.len())].to_vec();
    if window.len() < end - start {
        let mut taken = head.to_vec();
        taken.sort_unstable();
        let tail = (0..n).filter(|id| taken.binary_search(id).is_err());
        let skip = start.saturating_sub(head.len());
        window.extend(tail.skip(skip).take(end - start - window.len()));
    }
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corel::{CorelDataset, CorelSpec};
    use crate::distance::oracle::rank_by_sorting;
    use crate::distance::{rank_by_euclidean, top_k_euclidean};

    fn dataset() -> CorelDataset {
        CorelDataset::build(CorelSpec::tiny(3, 10, 17))
    }

    #[test]
    fn flat_index_ranking_is_bit_identical_to_euclidean() {
        let ds = dataset();
        let index = build_flat_index(&ds.db);
        for q in 0..ds.db.len() {
            let via_index = rank_with_index_stats(&ds.db, &index, ds.db.feature(q)).0;
            let direct = rank_by_sorting(&ds.db, ds.db.feature(q));
            assert_eq!(via_index, direct, "query {q}");
            assert_eq!(rank_by_euclidean(&ds.db, ds.db.feature(q)), direct);
        }
    }

    #[test]
    fn flat_index_top_k_matches_top_k_euclidean() {
        let ds = dataset();
        let index = build_flat_index(&ds.db);
        for q in [0usize, 13, 29] {
            for k in [1usize, 5, 20] {
                let direct = &rank_by_sorting(&ds.db, ds.db.feature(q))[..k];
                assert_eq!(
                    top_k_ids(&index, ds.db.feature(q), k),
                    direct,
                    "q={q} k={k}"
                );
                assert_eq!(top_k_euclidean(&ds.db, q, k), direct, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn ranking_window_is_a_slice_of_head_then_ascending_rest() {
        let n = 40;
        for head in [
            vec![],
            vec![7usize, 3, 39, 0, 12, 13, 14],
            (0..40).rev().step_by(3).collect(),
            (5..40).collect(),
            (0..40).rev().collect(),
        ] {
            let mut ranking = head.clone();
            ranking.extend((0..n).filter(|id| !head.contains(id)));
            for offset in [
                0,
                1,
                4,
                head.len() - head.len().min(2),
                head.len(),
                38,
                n,
                usize::MAX,
            ] {
                for count in [0, 1, 6, usize::MAX] {
                    let want: Vec<usize> =
                        ranking.iter().copied().skip(offset).take(count).collect();
                    assert_eq!(
                        ranking_window(&head, n, offset, count),
                        want,
                        "{head:?} {offset}+{count}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_backends_share_the_database_allocation() {
        // The zero-copy contract of the retrieval path: the database and
        // the index hold the *same* feature matrix, not copies.
        let ds = dataset();
        let flat = build_flat_index(&ds.db);
        assert!(std::sync::Arc::ptr_eq(
            &ds.db.features_shared(),
            &flat.shared_data()
        ));
        assert_eq!((flat.len(), flat.dim()), (ds.db.len(), ds.db.dim()));
    }
}
