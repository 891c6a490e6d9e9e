//! # lrf-index — pluggable ANN retrieval indexes
//!
//! The paper's pipeline opens every query — and every log-collection
//! session — with a nearest-neighbor pass over the whole database. At COREL
//! scale a linear scan is fine; at the millions-of-images scale the ROADMAP
//! targets, retrieval needs a sublinear front-end whose candidates the
//! learned feedback model then re-ranks (the architecture PinView and
//! Barz & Denzler assume). This crate is that front-end:
//!
//! * [`AnnIndex`] — the backend contract: `search`, instrumented
//!   [`AnnIndex::search_with_stats`].
//! * [`FlatIndex`] — exact search: cache-friendly parallel scan over a
//!   contiguous row-major matrix with a bounded max-heap top-k (no
//!   sort-everything). The default backend, and the paper's "Euclidean"
//!   ranking itself.
//! * [`FlatShard`] + [`merge_top_k`] — the one exact scan body and the
//!   one merge. A sharded serving plane runs them on its shard workers;
//!   [`FlatIndex`] runs the same two on scoped threads over ranges of its
//!   own matrix, so the planes cannot disagree.
//! * [`IvfIndex`] — inverted-file index: a k-means coarse quantizer splits
//!   the collection into `nlist` cells; queries scan only the `nprobe`
//!   nearest cells.
//! * [`LshIndex`] — locality-sensitive hashing: random-hyperplane sign
//!   signatures over multiple tables with margin-ordered multi-probing.
//!
//! Distances are Euclidean; all internal comparisons use *squared*
//! distance with [`f64::total_cmp`] and break ties by ascending id, so
//! rankings are total and deterministic even in the presence of NaN
//! features or duplicate images.
//!
//! ## Picking a backend
//!
//! | backend | returns | build cost | query cost | when |
//! |---|---|---|---|---|
//! | [`FlatIndex`] | exact | copy | O(N·d) but parallel + heap | ≤ ~100k images, or when fidelity is non-negotiable |
//! | [`IvfIndex`] | ≥ ~0.9 recall | k-means | O((nlist + N·nprobe/nlist)·d) | large N with cluster structure (real image corpora) |
//! | [`LshIndex`] | ≥ ~0.9 recall | hashing | O(tables·bits·d + candidates·d) | very high N, loose recall targets, streaming inserts |

mod flat;
mod ivf;
mod lsh;
mod merge;

pub use flat::{FlatIndex, FlatShard};
pub use ivf::{IvfConfig, IvfIndex};
pub use lsh::{LshConfig, LshIndex};
pub use merge::{merge_top_k, merge_top_k_d2};

/// One search hit: `(image id, Euclidean distance)`.
pub type Neighbor = (usize, f64);

/// Instrumentation for one query: how much work the backend actually did.
/// The whole point of the approximate backends is that
/// `distance_evals` comes out far below `N`; tests assert exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full-dimensional distance computations performed (including, for
    /// IVF, query↔centroid distances).
    pub distance_evals: usize,
    /// Candidates whose exact distance was evaluated.
    pub candidates: usize,
    /// Inverted lists / hash buckets inspected.
    pub buckets_probed: usize,
}

/// The backend contract every index implements.
///
/// `search` returns up to `k` neighbors sorted by ascending distance with
/// ties broken by ascending id. Exact backends always return
/// `min(k, len)` hits; hash-based backends may return fewer when probing
/// finds fewer candidates.
pub trait AnnIndex: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// `true` when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// The `k` nearest neighbors of `query`, with work counters.
    ///
    /// # Panics
    /// Panics if `query.len() != self.dim()`.
    fn search_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats);

    /// The `k` nearest neighbors of `query`.
    fn search(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        self.search_with_stats(query, k).0
    }
}

/// Fraction of `exact`'s ids that `approx` recovered (recall@k when both
/// sides hold k hits). Standard evaluation metric for ANN backends.
pub fn recall(exact: &[Neighbor], approx: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found: std::collections::HashSet<usize> = approx.iter().map(|&(id, _)| id).collect();
    let hit = exact.iter().filter(|&&(id, _)| found.contains(&id)).count();
    hit as f64 / exact.len() as f64
}

// ---------------------------------------------------------------------------
// Shared internals
// ---------------------------------------------------------------------------

/// Squared Euclidean distance (the hot loop: no sqrt, no bounds checks
/// beyond the slice zip).
#[inline]
pub(crate) fn d2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// A bounded top-k collector: max-heap of the best `k` `(d², id)` pairs
/// seen so far, ordered by `(total_cmp(d²), id)`.
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<HeapEntry>,
}

#[derive(PartialEq)]
struct HeapEntry {
    d2: f64,
    id: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d2.total_cmp(&other.d2).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, id: usize, d2: f64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry { d2, id });
            return;
        }
        let worst = self.heap.peek().expect("heap holds k entries");
        if (HeapEntry { d2, id }) < *worst {
            self.heap.pop();
            self.heap.push(HeapEntry { d2, id });
        }
    }

    /// Ascending `(id, √d²)` pairs.
    pub(crate) fn into_sorted(self) -> Vec<Neighbor> {
        let mut entries: Vec<HeapEntry> = self.heap.into_vec();
        entries.sort_unstable();
        entries.into_iter().map(|e| (e.id, e.d2.sqrt())).collect()
    }

    /// Ascending `(id, d²)` pairs (for merging partial results).
    pub(crate) fn into_sorted_d2(self) -> Vec<(usize, f64)> {
        let mut entries: Vec<HeapEntry> = self.heap.into_vec();
        entries.sort_unstable();
        entries.into_iter().map(|e| (e.id, e.d2)).collect()
    }
}

/// Shared test fixture: clustered synthetic data (the regime the
/// approximate backends are built for).
#[cfg(test)]
pub(crate) mod testutil {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n_clusters` centers in `[-1,1]^dim`, points jittered ±`spread`.
    pub(crate) fn clustered(
        n: usize,
        dim: usize,
        n_clusters: usize,
        spread: f64,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<f64> = (0..n_clusters * dim)
            .map(|_| rng.gen_range(-1.0f64..1.0))
            .collect();
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = i % n_clusters;
            for d in 0..dim {
                data.push(centers[c * dim + d] + rng.gen_range(-spread..spread));
            }
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_keeps_the_smallest() {
        let mut tk = TopK::new(3);
        for (id, d) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 0.5), (4, 9.0)] {
            tk.push(id, d);
        }
        let got = tk.into_sorted_d2();
        assert_eq!(got, vec![(3, 0.5), (1, 1.0), (2, 4.0)]);
    }

    #[test]
    fn top_k_ties_break_by_id() {
        let mut tk = TopK::new(2);
        for id in [3, 1, 2, 0] {
            tk.push(id, 7.0);
        }
        let got = tk.into_sorted_d2();
        assert_eq!(got, vec![(0, 7.0), (1, 7.0)]);
    }

    #[test]
    fn top_k_zero_and_underfull() {
        let mut tk = TopK::new(0);
        tk.push(0, 1.0);
        assert!(tk.into_sorted().is_empty());
        let mut tk = TopK::new(5);
        tk.push(0, 4.0);
        assert_eq!(tk.into_sorted(), vec![(0, 2.0)]);
    }

    #[test]
    fn top_k_orders_nan_last() {
        let mut tk = TopK::new(3);
        tk.push(0, f64::NAN);
        tk.push(1, 1.0);
        tk.push(2, 2.0);
        tk.push(3, 0.5);
        let got = tk.into_sorted_d2();
        assert_eq!(
            got.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![3, 1, 2]
        );
    }

    #[test]
    fn recall_counts_overlap() {
        let exact = vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)];
        let approx = vec![(0, 0.0), (2, 2.0), (9, 0.1), (8, 0.2)];
        assert!((recall(&exact, &approx) - 0.5).abs() < 1e-12);
        assert_eq!(recall(&[], &approx), 1.0);
    }
}
