//! Inverted-file index (IVF) with a k-means coarse quantizer.
//!
//! Build: Lloyd's k-means (seeded, deterministic) partitions the collection
//! into `nlist` cells; each cell keeps the ids assigned to its centroid.
//! Search: the query is compared against all centroids (cheap — `nlist` ≪
//! `N`), the `nprobe` nearest cells are scanned exactly, everything else is
//! skipped. On clustered data — which real image features are — recall
//! stays high while distance work drops by roughly `nlist/nprobe`.

use crate::{d2, AnnIndex, Neighbor, SearchStats, TopK};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// IVF build/search parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IvfConfig {
    /// Number of k-means cells. Rule of thumb: ~√N; clamped to the
    /// collection size at build time.
    pub nlist: usize,
    /// Cells scanned per query (the recall/speed knob; raise until the
    /// recall target holds).
    pub nprobe: usize,
    /// Lloyd iteration cap (k-means usually converges much earlier).
    pub max_iters: usize,
    /// Seed for centroid initialization; builds are deterministic per seed.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 64,
            nprobe: 8,
            max_iters: 15,
            seed: 0x1f0_5eed,
        }
    }
}

/// The inverted-file index. The raw matrix is [`Arc`]-shared with the
/// caller ([`IvfIndex::build_shared`]); only the centroids and the
/// inverted lists are index-owned.
#[derive(Clone, Debug, PartialEq)]
pub struct IvfIndex {
    data: Arc<Vec<f64>>,
    dim: usize,
    /// Row-major `nlist × dim` centroid matrix.
    centroids: Vec<f64>,
    /// `lists[c]` = ids assigned to centroid `c`, ascending.
    lists: Vec<Vec<u32>>,
    /// Default probe count for [`AnnIndex::search`].
    nprobe: usize,
}

impl IvfIndex {
    /// Builds the index over a row-major matrix (copies the data; prefer
    /// [`Self::build_shared`] when the matrix is already behind an `Arc`).
    ///
    /// # Panics
    /// Panics if `dim == 0`, `data.len()` is not a multiple of `dim`, the
    /// collection is empty, or `config.nlist == 0` / `config.nprobe == 0`.
    pub fn build(data: &[f64], dim: usize, config: &IvfConfig) -> Self {
        Self::build_shared(Arc::new(data.to_vec()), dim, config)
    }

    /// Builds the index over a shared row-major matrix **without copying
    /// it** — k-means reads the data in place and the finished index holds
    /// the same allocation the caller does.
    ///
    /// # Panics
    /// As [`Self::build`].
    pub fn build_shared(shared: Arc<Vec<f64>>, dim: usize, config: &IvfConfig) -> Self {
        let data: &[f64] = &shared;
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        let n = data.len() / dim;
        assert!(n > 0, "cannot build an IVF index over an empty collection");
        assert!(config.nlist > 0, "nlist must be positive");
        assert!(config.nprobe > 0, "nprobe must be positive");
        let nlist = config.nlist.min(n);

        // --- Seeded initialization: nlist distinct points. ---
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let mut centroids: Vec<f64> = Vec::with_capacity(nlist * dim);
        for &id in ids.iter().take(nlist) {
            centroids.extend_from_slice(&data[id * dim..(id + 1) * dim]);
        }

        // --- Lloyd iterations. ---
        let mut assignment = vec![0usize; n];
        for _iter in 0..config.max_iters.max(1) {
            let mut changed = false;
            for (i, row) in data.chunks_exact(dim).enumerate() {
                let best = nearest_centroid(&centroids, dim, row);
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            // Recompute means; an emptied cell re-seeds on the farthest
            // point from its nearest centroid to keep all cells useful.
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            for (i, row) in data.chunks_exact(dim).enumerate() {
                let c = assignment[i];
                counts[c] += 1;
                for (s, x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                    *s += x;
                }
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    let far = farthest_point(data, dim, &centroids);
                    centroids[c * dim..(c + 1) * dim]
                        .copy_from_slice(&data[far * dim..(far + 1) * dim]);
                    changed = true;
                } else {
                    for (dst, s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *dst = s / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // --- Final assignment into inverted lists. ---
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, row) in data.chunks_exact(dim).enumerate() {
            lists[nearest_centroid(&centroids, dim, row)].push(i as u32);
        }

        Self {
            data: shared,
            dim,
            centroids,
            lists,
            nprobe: config.nprobe,
        }
    }

    /// The shared handle to the indexed matrix.
    pub fn shared_data(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.data)
    }

    /// Number of cells actually built.
    pub(crate) fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Adjusts the default probe count (clamped to `[1, nlist]`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.clamp(1, self.nlist());
    }

    /// Search with an explicit probe count.
    pub(crate) fn search_nprobe(
        &self,
        query: &[f64],
        k: usize,
        nprobe: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let nlist = self.nlist();
        let nprobe = nprobe.clamp(1, nlist);
        let n = self.data.len() / self.dim;
        let k = k.min(n);
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }

        // Rank cells by centroid distance.
        let mut cells: Vec<(usize, f64)> = self
            .centroids
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(c, cen)| (c, d2(query, cen)))
            .collect();
        cells.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let mut top = TopK::new(k);
        let mut candidates = 0usize;
        for &(c, _) in cells.iter().take(nprobe) {
            for &id in &self.lists[c] {
                let id = id as usize;
                let dist = d2(query, &self.data[id * self.dim..(id + 1) * self.dim]);
                candidates += 1;
                top.push(id, dist);
            }
        }
        let stats = SearchStats {
            distance_evals: nlist + candidates,
            candidates,
            buckets_probed: nprobe,
        };
        (top.into_sorted(), stats)
    }
}

fn nearest_centroid(centroids: &[f64], dim: usize, row: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, cen) in centroids.chunks_exact(dim).enumerate() {
        let d = d2(row, cen);
        if d.total_cmp(&best_d).is_lt() {
            best = c;
            best_d = d;
        }
    }
    best
}

/// Index of the point farthest from its nearest centroid (used to re-seed
/// emptied cells).
fn farthest_point(data: &[f64], dim: usize, centroids: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_d = -1.0f64;
    for (i, row) in data.chunks_exact(dim).enumerate() {
        let c = nearest_centroid(centroids, dim, row);
        let d = d2(row, &centroids[c * dim..(c + 1) * dim]);
        if d > best_d {
            best = i;
            best_d = d;
        }
    }
    best
}

impl AnnIndex for IvfIndex {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &'static str {
        "ivf"
    }

    fn search_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        self.search_nprobe(query, k, self.nprobe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::recall;
    use crate::testutil::clustered;

    #[test]
    fn build_is_deterministic() {
        let data = clustered(500, 8, 10, 0.1, 3);
        let cfg = IvfConfig {
            nlist: 16,
            ..Default::default()
        };
        assert_eq!(
            IvfIndex::build(&data, 8, &cfg),
            IvfIndex::build(&data, 8, &cfg)
        );
    }

    #[test]
    fn recall_at_20_beats_090_with_less_distance_work() {
        let dim = 16;
        let n = 4000;
        let data = clustered(n, dim, 25, 0.08, 7);
        let flat = FlatIndex::build(&data, dim);
        let ivf = IvfIndex::build(
            &data,
            dim,
            &IvfConfig {
                nlist: 32,
                nprobe: 8,
                ..Default::default()
            },
        );
        let mut total_recall = 0.0;
        let queries = 40;
        for q in 0..queries {
            let id = (q * 37) % n;
            let query = data[id * dim..(id + 1) * dim].to_vec();
            let exact = flat.search(&query, 20);
            let (approx, stats) = ivf.search_with_stats(&query, 20);
            total_recall += recall(&exact, &approx);
            assert!(
                stats.distance_evals < n / 2,
                "IVF probed {} of {n} vectors — no pruning happened",
                stats.distance_evals
            );
            assert_eq!(stats.buckets_probed, 8);
        }
        let mean = total_recall / queries as f64;
        assert!(mean >= 0.9, "IVF recall@20 {mean} below target");
    }

    #[test]
    fn full_probe_equals_exact_search() {
        let dim = 6;
        let data = clustered(300, dim, 5, 0.2, 11);
        let flat = FlatIndex::build(&data, dim);
        let ivf = IvfIndex::build(
            &data,
            dim,
            &IvfConfig {
                nlist: 10,
                nprobe: 10,
                ..Default::default()
            },
        );
        for q in [0usize, 17, 123] {
            let query = data[q * dim..(q + 1) * dim].to_vec();
            let exact: Vec<usize> = flat.search(&query, 15).iter().map(|&(id, _)| id).collect();
            let got: Vec<usize> = ivf
                .search_nprobe(&query, 15, 10)
                .0
                .iter()
                .map(|&(id, _)| id)
                .collect();
            assert_eq!(got, exact, "query {q}");
        }
    }

    #[test]
    fn nlist_clamps_to_collection_size() {
        let data = clustered(5, 3, 2, 0.1, 1);
        let ivf = IvfIndex::build(
            &data,
            3,
            &IvfConfig {
                nlist: 64,
                ..Default::default()
            },
        );
        assert_eq!(ivf.nlist(), 5);
        assert_eq!(ivf.len(), 5);
        // Every id lands in exactly one list.
        let mut all: Vec<u32> = ivf.lists.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn set_nprobe_changes_default_search_work() {
        let data = clustered(400, 8, 8, 0.1, 5);
        let mut ivf = IvfIndex::build(
            &data,
            8,
            &IvfConfig {
                nlist: 16,
                nprobe: 2,
                ..Default::default()
            },
        );
        let q = data[0..8].to_vec();
        let (_, low) = ivf.search_with_stats(&q, 10);
        ivf.set_nprobe(12);
        let (_, high) = ivf.search_with_stats(&q, 10);
        assert!(high.candidates > low.candidates);
        assert_eq!(low.buckets_probed, 2);
        assert_eq!(high.buckets_probed, 12);
    }
}
