//! # lrf-index — exact nearest-neighbor search
//!
//! The paper's pipeline opens every query — and every log-collection
//! session — with a nearest-neighbor pass over the whole database: the
//! exact Euclidean ranking whose candidates the learned feedback model
//! then re-ranks. This crate is that pass:
//!
//! * [`AnnIndex`] — the index contract: `search`, instrumented
//!   [`AnnIndex::search_with_stats`].
//! * [`FlatIndex`] — exact search: one cache-friendly serial scan over a
//!   contiguous row-major matrix with a bounded max-heap top-k (no
//!   sort-everything). The paper's "Euclidean" ranking itself, and the
//!   reference scan for evaluation and tests.
//! * [`FlatShard`] + [`merge_top_k`] — the one exact scan body and the
//!   one merge. A sharded serving plane runs them on its shard workers;
//!   [`FlatIndex`] runs the same two over all of its rows, so the two
//!   cannot disagree.
//!
//! Distances are Euclidean; all internal comparisons use *squared*
//! distance with [`f64::total_cmp`] and break ties by ascending id, so
//! rankings are total and deterministic even in the presence of NaN
//! features or duplicate images.
//!
//! There is no approximate backend: the exact scan is what every workload
//! serves, and a sublinear index (or a reduced-precision scan) earns a
//! place here only by beating it on a committed `benchmark/` workload,
//! build time included.

mod flat;
mod merge;

pub use flat::{FlatIndex, FlatShard};
pub use merge::{merge_top_k, merge_top_k_d2};

/// One search hit: `(image id, Euclidean distance)`.
pub type Neighbor = (usize, f64);

/// Instrumentation for one query: how much work the index did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full-dimensional distance computations performed: one per row
    /// scanned.
    pub distance_evals: usize,
}

/// The contract every index implements.
///
/// `search` returns exactly `min(k, len)` neighbors in `(d², id)` order:
/// ascending squared distance, ties broken by ascending id.
pub trait AnnIndex: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// `true` when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    fn dim(&self) -> usize;

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

    /// Ascending `(id, d²)` pairs (for merging partial results).
    pub(crate) fn into_sorted_d2(self) -> Vec<(usize, f64)> {
        let mut entries: Vec<HeapEntry> = self.heap.into_vec();
        entries.sort_unstable();
        entries.into_iter().map(|e| (e.id, e.d2)).collect()
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
        assert!(tk.into_sorted_d2().is_empty());
        let mut tk = TopK::new(5);
        tk.push(0, 4.0);
        assert_eq!(tk.into_sorted_d2(), vec![(0, 4.0)]);
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
}
