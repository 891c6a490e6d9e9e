//! K-way merge of per-shard top-k results — the gather half of a sharded
//! scatter-gather search.
//!
//! Every comparison is on **squared** distance with [`f64::total_cmp`] and
//! ascending-id tie-breaks, the same `(d², id)` order the single-index
//! scan uses internally. Merging on `sqrt`ed distances would be subtly
//! wrong: two distinct `d²` values can round to the same `sqrt`, turning a
//! strict order into a tie and letting shard arrival order leak into the
//! ranking. Callers take square roots only after the merge
//! ([`merge_top_k`]). [`crate::FlatIndex`] merges its own per-range
//! partials through this same function — so a sharded search is
//! bit-identical to the unsharded one by construction (property-tested in
//! `lrf-service`).

use crate::Neighbor;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Entry ordering for the merge heap: ascending `(total_cmp(d²), id)`.
/// NaN distances sort last, so a broken feature row cannot panic the
/// merge or float to the top.
#[derive(PartialEq)]
struct MergeKey {
    d2: f64,
    id: usize,
}

impl Eq for MergeKey {}

impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d2.total_cmp(&other.d2).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges per-shard result lists — each ascending by `(d², id)`, as
/// [`crate::FlatShard::search_d2`] returns them — into the global top `k`,
/// still as ascending `(id, d²)` pairs.
///
/// Classic k-way heap merge: the heap holds one cursor per non-exhausted
/// list, so the cost is `O(total log shards)` and independent of how the
/// ids were partitioned. Shards partition the id space, so no id appears
/// twice; the output is exactly what one bounded-heap scan over the union
/// would have produced.
///
/// # Panics
/// Debug-panics if a list is not ascending by `(d², id)` — a shard
/// protocol violation, not a data property.
pub fn merge_top_k_d2(partials: &[Vec<(usize, f64)>], k: usize) -> Vec<(usize, f64)> {
    #[cfg(debug_assertions)]
    for list in partials {
        for w in list.windows(2) {
            debug_assert!(
                MergeKey {
                    d2: w[0].1,
                    id: w[0].0
                } <= MergeKey {
                    d2: w[1].1,
                    id: w[1].0
                },
                "shard result list not ascending by (d², id)"
            );
        }
    }

    // Min-heap of (next entry, which list, cursor into that list).
    let mut heap: BinaryHeap<Reverse<(MergeKey, usize, usize)>> = partials
        .iter()
        .enumerate()
        .filter(|(_, list)| !list.is_empty())
        .map(|(s, list)| {
            let (id, d2) = list[0];
            Reverse((MergeKey { d2, id }, s, 0))
        })
        .collect();

    let mut merged = Vec::with_capacity(k.min(partials.iter().map(Vec::len).sum()));
    while merged.len() < k {
        let Some(Reverse((key, s, i))) = heap.pop() else {
            break;
        };
        merged.push((key.id, key.d2));
        if let Some(&(id, d2)) = partials[s].get(i + 1) {
            heap.push(Reverse((MergeKey { d2, id }, s, i + 1)));
        }
    }
    merged
}

/// [`merge_top_k_d2`] with the final `d² → √d²` conversion applied,
/// yielding the [`Neighbor`] form the [`crate::AnnIndex`] contract
/// returns. The sqrt happens strictly *after* the merge — see the module
/// docs for why the order matters.
pub fn merge_top_k(partials: &[Vec<(usize, f64)>], k: usize) -> Vec<Neighbor> {
    merge_top_k_d2(partials, k)
        .into_iter()
        .map(|(id, d2)| (id, d2.sqrt()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{FlatIndex, FlatShard};
    use crate::AnnIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn merge_of_sorted_lists_is_globally_sorted_top_k() {
        let a = vec![(0, 0.5), (3, 2.0), (5, 9.0)];
        let b = vec![(1, 0.5), (2, 1.0)];
        let c = vec![];
        let got = merge_top_k_d2(&[a, b, c], 4);
        // Equal d² 0.5 ties break by id: 0 before 1.
        assert_eq!(got, vec![(0, 0.5), (1, 0.5), (2, 1.0), (3, 2.0)]);
    }

    #[test]
    fn merge_clamps_k_and_handles_empty() {
        assert!(merge_top_k_d2(&[], 5).is_empty());
        assert!(merge_top_k_d2(&[vec![]], 5).is_empty());
        let got = merge_top_k_d2(&[vec![(7, 1.0)]], 5);
        assert_eq!(got, vec![(7, 1.0)]);
        assert!(merge_top_k_d2(&[vec![(7, 1.0)]], 0).is_empty());
    }

    #[test]
    fn nan_distances_merge_last_without_panicking() {
        let a = vec![(0, 1.0), (2, f64::NAN)];
        let b = vec![(1, 3.0)];
        let got = merge_top_k_d2(&[a, b], 3);
        assert_eq!(got[0], (0, 1.0));
        assert_eq!(got[1], (1, 3.0));
        assert_eq!(got[2].0, 2);
        assert!(got[2].1.is_nan());
    }

    #[test]
    fn sharded_search_is_bit_identical_to_flat() {
        // The tentpole invariant at the index layer: scatter over shards +
        // d²-merge + sqrt == one FlatIndex search, bit for bit, including
        // duplicated rows whose tie order is id-based.
        let dim = 6;
        let mut rng = StdRng::seed_from_u64(31);
        let mut data: Vec<f64> = (0..97 * dim).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        // Plant duplicate rows across shard boundaries to exercise ties.
        for id in [10usize, 50, 90] {
            let src: Vec<f64> = data[0..dim].to_vec();
            data[id * dim..(id + 1) * dim].copy_from_slice(&src);
        }
        let data = Arc::new(data);
        let flat = FlatIndex::from_shared(Arc::clone(&data), dim);
        for n_shards in [1usize, 2, 5] {
            let shards = FlatShard::split_shared(Arc::clone(&data), dim, n_shards);
            for q in 0..8 {
                let query: Vec<f64> = (0..dim)
                    .map(|d| data[(q * 11 % 97) * dim + d] + 1e-3 * d as f64)
                    .collect();
                let partials: Vec<Vec<(usize, f64)>> =
                    shards.iter().map(|s| s.search_d2(&query, 12).0).collect();
                let merged = merge_top_k(&partials, 12);
                assert_eq!(merged, flat.search(&query, 12), "n_shards={n_shards} q={q}");
            }
        }
    }
}
