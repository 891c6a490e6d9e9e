//! Exact scan with a bounded top-k heap.
//!
//! The replacement for the seed's sort-everything path: instead of
//! materializing and sorting all `N` distances, a scan keeps the best `k`
//! seen so far in a bounded max-heap (`O(N log k)`), over a contiguous
//! row-major matrix so it is one linear pass with no per-vector pointer
//! chasing.
//!
//! There is one such loop, [`FlatShard::search_d2`], over a contiguous id
//! range. [`FlatIndex`] is that loop run serially over the whole matrix
//! and finished by [`merge_top_k`] — the reference scan for evaluation
//! and tests. A sharded serving plane is the same loop and the same merge
//! with the ranges owned by long-lived workers; parallelism lives there
//! (and across queries in batch evaluation), not inside one search.

use crate::{d2, merge_top_k, AnnIndex, Neighbor, SearchStats, TopK};
use std::sync::Arc;

/// Exact Euclidean nearest-neighbor search.
///
/// The indexed matrix is held behind an [`Arc`]: building from a shared
/// handle ([`FlatIndex::from_shared`]) costs no copy at all, so a database
/// and any number of indexes over it share one feature allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct FlatIndex {
    data: Arc<Vec<f64>>,
    dim: usize,
}

impl FlatIndex {
    /// Indexes `n = data.len() / dim` vectors from a row-major matrix
    /// (copies the data; prefer [`Self::from_shared`] when the caller
    /// already holds the matrix behind an `Arc`).
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn build(data: &[f64], dim: usize) -> Self {
        Self::from_shared(Arc::new(data.to_vec()), dim)
    }

    /// Indexes a shared row-major matrix **without copying it** — the
    /// zero-copy path `lrf-cbir` uses to put an index over the database's
    /// own feature allocation.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_shared(data: Arc<Vec<f64>>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        Self { data, dim }
    }
}

impl AnnIndex for FlatIndex {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let n = self.len();
        let k = k.min(n);
        if k == 0 {
            return (Vec::new(), SearchStats { distance_evals: n });
        }
        // One range over every row: the same scan and the same (d², id)
        // merge a sharded engine runs, so the two agree bit for bit.
        let (partial, stats) =
            FlatShard::from_shared(Arc::clone(&self.data), self.dim, 0, n).search_d2(query, k);
        (merge_top_k(&[partial], k), stats)
    }
}

/// One contiguous id-range slice of a flat index — the per-worker unit of
/// a sharded scatter-gather serving plane. Shards share the **same**
/// `Arc`'d matrix as the unsharded [`FlatIndex`] (no rows are copied) and
/// emit **global** ids, so a coordinator can merge shard results and ids
/// remain database ids throughout.
///
/// Results are exposed as *squared* distances ([`FlatShard::search_d2`]):
/// the coordinator must merge on `(d², id)` and take square roots only
/// after the merge, because distinct `d²` values can round to equal
/// `sqrt`s and silently reorder ties ([`crate::merge_top_k`] does both in
/// that order, for the engine and for [`FlatIndex`] alike).
#[derive(Clone, Debug)]
pub struct FlatShard {
    data: Arc<Vec<f64>>,
    dim: usize,
    start: usize,
    end: usize,
}

impl FlatShard {
    /// A shard over global ids `[start, end)` of a shared row-major
    /// matrix, without copying any rows.
    ///
    /// # Panics
    /// Panics if `dim == 0`, the matrix is ragged, or the range is empty
    /// or out of bounds.
    pub(crate) fn from_shared(data: Arc<Vec<f64>>, dim: usize, start: usize, end: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        let n = data.len() / dim;
        assert!(
            start < end && end <= n,
            "invalid shard range {start}..{end} over {n}"
        );
        Self {
            data,
            dim,
            start,
            end,
        }
    }

    /// Splits `n = data.len() / dim` vectors into `n_shards` contiguous,
    /// near-equal ranges covering every id exactly once. Shard count is
    /// clamped to `n` so no shard is ever empty.
    pub fn split_shared(data: Arc<Vec<f64>>, dim: usize, n_shards: usize) -> Vec<Self> {
        assert!(n_shards > 0, "shard count must be positive");
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        let n = data.len() / dim;
        let n_shards = n_shards.min(n).max(1);
        let chunk = n.div_ceil(n_shards);
        (0..n)
            .step_by(chunk)
            .map(|start| Self::from_shared(Arc::clone(&data), dim, start, (start + chunk).min(n)))
            .collect()
    }

    /// Number of vectors in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the shard covers no vectors (unreachable via the
    /// constructors, which reject empty ranges).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard's `k` nearest vectors to `query` as ascending
    /// `(global id, d²)` pairs, plus the scan's work counters — the
    /// scatter half of a sharded search, and the only exact scan in the
    /// crate: [`FlatIndex`] searches by running it over all its rows.
    ///
    /// # Panics
    /// Panics if `query.len()` is not the shard's dimensionality.
    pub fn search_d2(&self, query: &[f64], k: usize) -> (Vec<(usize, f64)>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let stats = SearchStats {
            distance_evals: self.len(),
        };
        let mut top = TopK::new(k.min(self.len()));
        let dim = self.dim;
        for (offset, row) in self.data[self.start * dim..self.end * dim]
            .chunks_exact(dim)
            .enumerate()
        {
            top.push(self.start + offset, d2(query, row));
        }
        (top.into_sorted_d2(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f64..1.0)).collect()
    }

    /// Reference implementation: sort the whole distance list.
    fn brute_force(data: &[f64], dim: usize, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut scored: Vec<(usize, f64)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i, d2(query, row)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored.into_iter().map(|(i, d)| (i, d.sqrt())).collect()
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        for seed in 0..5 {
            let dim = 8;
            let data = random_matrix(200, dim, seed);
            let index = FlatIndex::build(&data, dim);
            let query = random_matrix(1, dim, seed ^ 0xabc);
            let got = index.search(&query, 10);
            let want = brute_force(&data, dim, &query, 10);
            assert_eq!(
                got.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                want.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                "seed {seed}"
            );
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn full_ranking_on_tie_heavy_data_matches_brute_force() {
        // The whole collection (`k = n`, what a full ranking asks for) on
        // tie-heavy data: coordinates from {0, 1, 2}, so most rows share
        // their distance with others and ties must come out by id.
        let (n, dim) = (8705, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<f64> = (0..n * dim)
            .map(|_| f64::from(rng.gen_range(0u8..3)))
            .collect();
        let index = FlatIndex::build(&data, dim);
        let query = [1.0, 0.0, 2.0, 1.0];
        assert_eq!(index.search(&query, n), brute_force(&data, dim, &query, n));
    }

    #[test]
    fn duplicate_rows_tie_break_by_id() {
        let data = vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let index = FlatIndex::build(&data, 2);
        let got = index.search(&[1.0, 1.0], 4);
        assert_eq!(
            got.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![0, 2, 1, 3]
        );
    }

    #[test]
    fn k_clamps_to_len_and_zero_works() {
        let data = random_matrix(5, 3, 1);
        let index = FlatIndex::build(&data, 3);
        assert_eq!(index.search(&[0.0; 3], 100).len(), 5);
        assert!(index.search(&[0.0; 3], 0).is_empty());
    }

    #[test]
    fn stats_count_full_scan() {
        let data = random_matrix(50, 2, 3);
        let index = FlatIndex::build(&data, 2);
        // Every row, whatever `k` asks for.
        for k in [0, 5, 50, 500] {
            let (_, stats) = index.search_with_stats(&[0.0, 0.0], k);
            assert_eq!(stats.distance_evals, 50, "k={k}");
        }
    }

    #[test]
    fn from_shared_does_not_copy() {
        let data = Arc::new(random_matrix(30, 4, 2));
        let index = FlatIndex::from_shared(Arc::clone(&data), 4);
        assert!(Arc::ptr_eq(&data, &index.data));
        // Clones of the index still share the one allocation.
        assert!(Arc::ptr_eq(&data, &index.clone().data));
        // And the search results equal the copying constructor's.
        let copied = FlatIndex::build(&data, 4);
        assert_eq!(index.search(&data[0..4], 5), copied.search(&data[0..4], 5));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_query_dim_rejected() {
        let index = FlatIndex::build(&[0.0, 0.0], 2);
        let _ = index.search(&[0.0], 1);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_data_rejected() {
        let _ = FlatIndex::build(&[0.0, 0.0, 0.0], 2);
    }

    #[test]
    fn shards_cover_every_id_exactly_once() {
        let data = Arc::new(random_matrix(23, 3, 5));
        for n_shards in [1, 2, 5, 23, 100] {
            let shards = FlatShard::split_shared(Arc::clone(&data), 3, n_shards);
            assert!(shards.len() <= n_shards);
            let mut covered = Vec::new();
            for s in &shards {
                assert!(!s.is_empty());
                assert!(Arc::ptr_eq(&data, &s.data), "shards must not copy rows");
                covered.extend(s.start..s.end);
            }
            assert_eq!(covered, (0..23).collect::<Vec<_>>(), "n_shards={n_shards}");
        }
    }

    #[test]
    fn shard_scan_equals_restricted_full_scan() {
        let dim = 4;
        let data = Arc::new(random_matrix(60, dim, 8));
        let query = random_matrix(1, dim, 99);
        let shard = FlatShard::from_shared(Arc::clone(&data), dim, 20, 45);
        let (got, stats) = shard.search_d2(&query, 10);
        assert_eq!(stats.distance_evals, 25);
        // Reference: brute force over rows 20..45 with global ids.
        let mut want: Vec<(usize, f64)> = (20..45)
            .map(|id| (id, d2(&query, &data[id * dim..(id + 1) * dim])))
            .collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        want.truncate(10);
        assert_eq!(got, want);
        assert_eq!((shard.start, shard.end), (20, 45));
    }
}
