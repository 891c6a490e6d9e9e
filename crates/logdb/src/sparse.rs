//! Sparse vectors over session indices.
//!
//! An image's log vector `r_i` has one ±1 entry per session that judged it
//! and is zero elsewhere; with 150 sessions of 20 judgments over thousands
//! of images, the matrix is overwhelmingly sparse. Entries are kept sorted
//! by index so dot products merge in linear time.

use serde::{Deserialize, Serialize};

/// A sparse `f64` vector: sorted `(index, value)` pairs, zeros omitted.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// The empty (all-zero) vector.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Builds from `(index, value)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate indices or zero values (a zero entry is a bug in
    /// the caller — sparse semantics treat absence as zero).
    pub fn from_entries(mut entries: Vec<(u32, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate index {}", w[0].0);
        }
        assert!(
            entries.iter().all(|&(_, v)| v != 0.0 && v.is_finite()),
            "entries must be nonzero and finite"
        );
        Self { entries }
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value at `index` (zero when absent).
    pub(crate) fn get(&self, index: u32) -> f64 {
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Sets `index` to `value`; `value == 0.0` removes the entry.
    pub(crate) fn set(&mut self, index: u32, value: f64) {
        assert!(value.is_finite(), "value must be finite");
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => {
                if value == 0.0 {
                    self.entries.remove(pos);
                } else {
                    self.entries[pos].1 = value;
                }
            }
            Err(pos) => {
                if value != 0.0 {
                    self.entries.insert(pos, (index, value));
                }
            }
        }
    }

    /// Iterates stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sparse dot product (linear merge over the two entry lists).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.entries.len() && b < other.entries.len() {
            let (ia, va) = self.entries[a];
            let (ib, vb) = other.entries[b];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += va * vb;
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(&self) -> f64 {
        self.entries.iter().map(|&(_, v)| v * v).sum()
    }

    /// Squared Euclidean distance `‖a − b‖²`, computed without
    /// materializing the difference: `‖a‖² + ‖b‖² − 2·a·b`.
    pub fn squared_distance(&self, other: &SparseVector) -> f64 {
        (self.norm_sq() + other.norm_sq() - 2.0 * self.dot(other)).max(0.0)
    }

    /// Densifies into a `dim`-length vector: the dense reference the
    /// tests hold `dot` and `squared_distance` to.
    ///
    /// # Panics
    /// Panics if any stored index is `>= dim`.
    #[cfg(test)]
    fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; dim];
        for &(i, v) in &self.entries {
            assert!((i as usize) < dim, "index {i} out of dimension {dim}");
            out[i as usize] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_vector_behaves_like_zero() {
        let z = SparseVector::new();
        assert_eq!(z.nnz(), 0);
        assert!(z.is_empty());
        assert_eq!(z.get(5), 0.0);
        assert_eq!(z.dot(&z), 0.0);
        assert_eq!(z.norm_sq(), 0.0);
    }

    #[test]
    fn from_entries_sorts() {
        let v = SparseVector::from_entries(vec![(5, 1.0), (1, -1.0), (3, 1.0)]);
        let idx: Vec<u32> = v.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![1, 3, 5]);
        assert_eq!(v.get(1), -1.0);
        assert_eq!(v.get(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn duplicate_indices_rejected() {
        let _ = SparseVector::from_entries(vec![(1, 1.0), (1, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_entries_rejected() {
        let _ = SparseVector::from_entries(vec![(1, 0.0)]);
    }

    #[test]
    fn set_inserts_updates_removes() {
        let mut v = SparseVector::new();
        v.set(4, 1.0);
        v.set(2, -1.0);
        assert_eq!(v.nnz(), 2);
        v.set(4, 0.5);
        assert_eq!(v.get(4), 0.5);
        v.set(4, 0.0);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(4), 0.0);
        v.set(9, 0.0); // removing an absent entry is a no-op
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn dot_product_merges_indices() {
        let a = SparseVector::from_entries(vec![(0, 1.0), (2, -1.0), (5, 1.0)]);
        let b = SparseVector::from_entries(vec![(2, -1.0), (3, 1.0), (5, -1.0)]);
        // overlap at 2 (1) and 5 (−1) → 0
        assert_eq!(a.dot(&b), 0.0);
        let c = SparseVector::from_entries(vec![(2, 1.0)]);
        assert_eq!(a.dot(&c), -1.0);
    }

    #[test]
    fn squared_distance_matches_dense() {
        let a = SparseVector::from_entries(vec![(0, 1.0), (3, -1.0)]);
        let b = SparseVector::from_entries(vec![(0, -1.0), (7, 1.0)]);
        let da = a.to_dense(8);
        let db = b.to_dense(8);
        let dense: f64 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((a.squared_distance(&b) - dense).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of dimension")]
    fn to_dense_checks_dim() {
        let v = SparseVector::from_entries(vec![(10, 1.0)]);
        let _ = v.to_dense(5);
    }

    proptest! {
        /// Sparse dot agrees with the dense dot for random ±1 patterns.
        #[test]
        fn dot_agrees_with_dense(
            a_idx in proptest::collection::btree_set(0u32..40, 0..15),
            b_idx in proptest::collection::btree_set(0u32..40, 0..15),
            signs in proptest::collection::vec(proptest::bool::ANY, 30),
        ) {
            let mut s = signs.iter().cycle();
            let a = SparseVector::from_entries(
                a_idx.iter().map(|&i| (i, if *s.next().unwrap() { 1.0 } else { -1.0 })).collect());
            let b = SparseVector::from_entries(
                b_idx.iter().map(|&i| (i, if *s.next().unwrap() { 1.0 } else { -1.0 })).collect());
            let da = a.to_dense(40);
            let db = b.to_dense(40);
            let dense: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
            prop_assert!((a.dot(&b) - dense).abs() < 1e-12);
        }

        /// Distance is symmetric, nonnegative, and zero iff equal patterns.
        #[test]
        fn distance_metric_axioms(
            a_idx in proptest::collection::btree_set(0u32..30, 0..10),
            b_idx in proptest::collection::btree_set(0u32..30, 0..10),
        ) {
            let a = SparseVector::from_entries(a_idx.iter().map(|&i| (i, 1.0)).collect());
            let b = SparseVector::from_entries(b_idx.iter().map(|&i| (i, 1.0)).collect());
            prop_assert!((a.squared_distance(&b) - b.squared_distance(&a)).abs() < 1e-12);
            prop_assert!(a.squared_distance(&b) >= 0.0);
            prop_assert!((a.squared_distance(&a)).abs() < 1e-12);
            if a_idx != b_idx {
                prop_assert!(a.squared_distance(&b) > 0.0);
            }
        }
    }
}
