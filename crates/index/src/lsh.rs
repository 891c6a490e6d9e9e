//! Random-hyperplane LSH with multi-table, margin-ordered multi-probing.
//!
//! Each table draws `n_bits` random hyperplanes; a vector's signature is
//! the sign pattern of its projections. Near vectors agree on most signs,
//! so a query's bucket (plus the buckets reached by flipping its
//! lowest-margin bits — the projections most likely to have the "wrong"
//! sign) concentrates its true neighbors. Candidates from all tables are
//! pooled, deduplicated, and re-ranked by exact distance.

use crate::{d2, AnnIndex, Neighbor, SearchStats, TopK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// LSH build/search parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LshConfig {
    /// Number of independent hash tables (recall grows with tables, memory
    /// and query cost linearly so).
    pub n_tables: usize,
    /// Sign bits per table (selectivity: expected bucket size ≈ N/2^bits).
    pub n_bits: usize,
    /// Extra buckets probed per table by flipping the lowest-margin bits
    /// (0 = exact-bucket lookup only).
    pub probes: usize,
    /// Seed for hyperplane sampling; builds are deterministic per seed.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self {
            n_tables: 8,
            n_bits: 12,
            probes: 8,
            seed: 0x0015_4a54,
        }
    }
}

/// One hash table: sorted `(signature, ids)` buckets (sorted pairs instead
/// of a HashMap so the structure serializes naturally and lookups stay
/// cache-friendly).
#[derive(Clone, Debug, PartialEq)]
struct Table {
    /// Row-major `n_bits × dim` hyperplane normals.
    planes: Vec<f64>,
    /// Buckets sorted by signature for binary search.
    buckets: Vec<(u32, Vec<u32>)>,
}

impl Table {
    fn signature_and_margins(&self, dim: usize, v: &[f64]) -> (u32, Vec<f64>) {
        let mut sig = 0u32;
        let mut margins = Vec::with_capacity(self.planes.len() / dim);
        for (bit, plane) in self.planes.chunks_exact(dim).enumerate() {
            let proj: f64 = plane.iter().zip(v).map(|(p, x)| p * x).sum();
            if proj >= 0.0 {
                sig |= 1 << bit;
            }
            margins.push(proj.abs());
        }
        (sig, margins)
    }

    fn bucket(&self, sig: u32) -> Option<&[u32]> {
        self.buckets
            .binary_search_by_key(&sig, |&(s, _)| s)
            .ok()
            .map(|i| self.buckets[i].1.as_slice())
    }
}

/// The multi-table LSH index. The raw matrix is [`Arc`]-shared with the
/// caller ([`LshIndex::build_shared`]); only the hyperplanes and buckets
/// are index-owned.
#[derive(Clone, Debug, PartialEq)]
pub struct LshIndex {
    data: Arc<Vec<f64>>,
    dim: usize,
    n_bits: usize,
    tables: Vec<Table>,
    /// Default probe count for [`AnnIndex::search`].
    probes: usize,
}

impl LshIndex {
    /// Builds the index over a row-major matrix (copies the data; prefer
    /// [`Self::build_shared`] when the matrix is already behind an `Arc`).
    ///
    /// # Panics
    /// Panics if `dim == 0`, `data.len()` is not a multiple of `dim`, the
    /// collection is empty, `n_tables == 0`, or `n_bits ∉ [1, 24]`.
    pub fn build(data: &[f64], dim: usize, config: &LshConfig) -> Self {
        Self::build_shared(Arc::new(data.to_vec()), dim, config)
    }

    /// Builds the index over a shared row-major matrix **without copying
    /// it** — hashing reads the data in place and the finished index holds
    /// the same allocation the caller does.
    ///
    /// # Panics
    /// As [`Self::build`].
    pub fn build_shared(shared: Arc<Vec<f64>>, dim: usize, config: &LshConfig) -> Self {
        let data: &[f64] = &shared;
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
        let n = data.len() / dim;
        assert!(n > 0, "cannot build an LSH index over an empty collection");
        assert!(config.n_tables > 0, "need at least one table");
        assert!(
            (1..=24).contains(&config.n_bits),
            "n_bits must be in [1, 24], got {}",
            config.n_bits
        );

        let mut rng = StdRng::seed_from_u64(config.seed);
        let tables = (0..config.n_tables)
            .map(|_| {
                let planes: Vec<f64> = (0..config.n_bits * dim)
                    .map(|_| gaussian(&mut rng))
                    .collect();
                let mut table = Table {
                    planes,
                    buckets: Vec::new(),
                };
                let mut pairs: Vec<(u32, u32)> = data
                    .chunks_exact(dim)
                    .enumerate()
                    .map(|(i, row)| (table.signature_and_margins(dim, row).0, i as u32))
                    .collect();
                pairs.sort_unstable();
                for (sig, id) in pairs {
                    match table.buckets.last_mut() {
                        Some((s, ids)) if *s == sig => ids.push(id),
                        _ => table.buckets.push((sig, vec![id])),
                    }
                }
                table
            })
            .collect();

        Self {
            data: shared,
            dim,
            n_bits: config.n_bits,
            tables,
            probes: config.probes,
        }
    }

    /// The shared handle to the indexed matrix.
    pub fn shared_data(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.data)
    }

    /// Adjusts the default probe count (extra flipped-bit buckets per
    /// table; clamped to the signature width).
    pub fn set_probes(&mut self, probes: usize) {
        self.probes = probes.min(self.n_bits);
    }

    /// Search with an explicit probe count.
    pub(crate) fn search_probes(
        &self,
        query: &[f64],
        k: usize,
        probes: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let n = self.data.len() / self.dim;
        let k = k.min(n);
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let probes = probes.min(self.n_bits);

        // Dedup over the candidate set (small) rather than an O(N) bitmap
        // per query — the backend's query cost must stay sublinear in N.
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut top = TopK::new(k);
        let mut candidates = 0usize;
        let mut buckets_probed = 0usize;
        for table in &self.tables {
            let (sig, margins) = table.signature_and_margins(self.dim, query);
            // Probe sequence: exact bucket, then single-bit flips ordered
            // by ascending margin (least-confident sign first).
            let mut flip_order: Vec<usize> = (0..self.n_bits).collect();
            flip_order.sort_by(|&a, &b| margins[a].total_cmp(&margins[b]).then(a.cmp(&b)));
            let probe_sigs =
                std::iter::once(sig).chain(flip_order.iter().take(probes).map(|&b| sig ^ (1 << b)));
            for probe_sig in probe_sigs {
                buckets_probed += 1;
                let Some(ids) = table.bucket(probe_sig) else {
                    continue;
                };
                for &id in ids {
                    if !seen.insert(id) {
                        continue;
                    }
                    let id = id as usize;
                    candidates += 1;
                    let dist = d2(query, &self.data[id * self.dim..(id + 1) * self.dim]);
                    top.push(id, dist);
                }
            }
        }
        let stats = SearchStats {
            distance_evals: candidates,
            candidates,
            buckets_probed,
        };
        (top.into_sorted(), stats)
    }
}

/// Standard normal via Box–Muller (the vendored rand has no distributions
/// module).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0f64..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl AnnIndex for LshIndex {
    fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &'static str {
        "lsh"
    }

    fn search_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        self.search_probes(query, k, self.probes)
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
        let data = clustered(300, 8, 6, 0.1, 2);
        let cfg = LshConfig::default();
        assert_eq!(
            LshIndex::build(&data, 8, &cfg),
            LshIndex::build(&data, 8, &cfg)
        );
    }

    #[test]
    fn recall_at_20_beats_090_with_less_distance_work() {
        let dim = 16;
        let n = 4000;
        let data = clustered(n, dim, 25, 0.08, 13);
        let flat = FlatIndex::build(&data, dim);
        let lsh = LshIndex::build(
            &data,
            dim,
            &LshConfig {
                n_tables: 10,
                n_bits: 10,
                probes: 6,
                ..Default::default()
            },
        );
        let mut total_recall = 0.0;
        let mut total_evals = 0usize;
        let queries = 40;
        for q in 0..queries {
            let id = (q * 53) % n;
            let query = data[id * dim..(id + 1) * dim].to_vec();
            let exact = flat.search(&query, 20);
            let (approx, stats) = lsh.search_with_stats(&query, 20);
            total_recall += recall(&exact, &approx);
            total_evals += stats.distance_evals;
        }
        let mean = total_recall / queries as f64;
        assert!(mean >= 0.9, "LSH recall@20 {mean} below target");
        let mean_evals = total_evals / queries;
        assert!(
            mean_evals < n / 2,
            "LSH evaluated {mean_evals} of {n} vectors on average — no pruning"
        );
    }

    #[test]
    fn more_probes_find_more_candidates() {
        let data = clustered(1000, 8, 10, 0.1, 4);
        let lsh = LshIndex::build(
            &data,
            8,
            &LshConfig {
                n_tables: 4,
                n_bits: 12,
                probes: 0,
                ..Default::default()
            },
        );
        let q = data[0..8].to_vec();
        let (_, none) = lsh.search_probes(&q, 20, 0);
        let (_, many) = lsh.search_probes(&q, 20, 8);
        assert!(many.candidates >= none.candidates);
        assert!(many.buckets_probed > none.buckets_probed);
    }

    #[test]
    fn query_point_finds_itself() {
        // A vector always lands in its own bucket in every table, so
        // probing the exact bucket must return the point itself first.
        let data = clustered(500, 8, 8, 0.15, 6);
        let lsh = LshIndex::build(&data, 8, &LshConfig::default());
        for id in [0usize, 123, 499] {
            let q = data[id * 8..(id + 1) * 8].to_vec();
            let hits = lsh.search(&q, 1);
            assert_eq!(hits.first().map(|&(i, _)| i), Some(id));
        }
    }

    #[test]
    fn set_probes_clamps_to_bits() {
        let data = clustered(50, 4, 2, 0.1, 1);
        let mut lsh = LshIndex::build(
            &data,
            4,
            &LshConfig {
                n_bits: 6,
                ..Default::default()
            },
        );
        lsh.set_probes(100);
        assert_eq!(lsh.probes, 6);
    }
}
