//! Sparse vectors over session indices.
//!
//! An image's log vector `r_i` is its column of the relevance matrix: one
//! ±1 entry per session that judged it, zero elsewhere. With 150 sessions
//! of 20 judgments over thousands of images the matrix is overwhelmingly
//! sparse, and `R` has no other values, so a column is stored as what it
//! is: the ascending list of session ids that judged the image, each with
//! its sign packed into the id's top bit (4 bytes per judgment; this caps
//! the session count `M` at 2³¹).
//!
//! Over ±1 entries the vector algebra is counting. `‖r‖²` is the nnz,
//! `r_a·r_b` is agreements minus disagreements over the sessions both
//! judged (one merge of the two id lists), and `‖r_a − r_b‖²` is
//! `nnz_a + nnz_b − 2·r_a·r_b` from that same merge. Each is an exact
//! integer converted to `f64` once.

use std::cmp::Ordering;

/// Top bit of a packed entry: set when the judgment is `−1`.
const NEG: u32 = 1 << 31;

/// The value a packed entry stands for: `+1.0`, or `−1.0` when `NEG` is set.
fn sign(entry: u32) -> f64 {
    1.0 - 2.0 * f64::from(entry >> 31)
}

/// A sparse ±1 vector: ascending indices with their signs, zeros omitted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVector {
    /// Indices in ascending order, each `| NEG` when its value is `−1`.
    entries: Vec<u32>,
}

impl SparseVector {
    /// The empty (all-zero) vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(index, value)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate indices, on an index `>= 2³¹`, or on a value
    /// other than `±1` (`R` holds nothing else; a zero is an absent entry).
    pub fn from_entries(mut entries: Vec<(u32, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut v = Self::new();
        for (i, x) in entries {
            assert!(x == 1.0 || x == -1.0, "entries must be ±1, got {x}");
            v.push(i, x < 0.0);
        }
        v
    }

    /// Appends `index` with value `−1` if `negative`, else `+1`. Indices
    /// must ascend: the store pushes each new session id, and session ids
    /// only grow.
    pub(crate) fn push(&mut self, index: u32, negative: bool) {
        assert!(index < NEG, "index {index} does not fit in 31 bits");
        assert!(
            self.entries.last().is_none_or(|&e| e & !NEG < index),
            "duplicate index {index} (indices must ascend)"
        );
        let entry = if negative { index | NEG } else { index };
        self.entries.push(entry);
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
        let found = self.entries.binary_search_by_key(&index, |&e| e & !NEG);
        found.map_or(0.0, |pos| sign(self.entries[pos]))
    }

    /// Iterates stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().map(|&e| (e & !NEG, sign(e)))
    }

    /// Agreements minus disagreements over the indices both vectors hold:
    /// one linear merge of the two sorted lists.
    fn signed_overlap(&self, other: &SparseVector) -> i64 {
        let (mut i, mut j, mut acc) = (0, 0, 0i64);
        while let (Some(&a), Some(&b)) = (self.entries.get(i), other.entries.get(j)) {
            match (a & !NEG).cmp(&(b & !NEG)) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    acc += 1 - 2 * i64::from((a ^ b) >> 31);
                    (i, j) = (i + 1, j + 1);
                }
            }
        }
        acc
    }

    /// Sparse dot product: agreements minus disagreements.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        self.signed_overlap(other) as f64
    }

    /// Squared Euclidean distance `‖a − b‖² = nnz_a + nnz_b − 2·a·b`, from
    /// one merge: an index only one side holds adds 1, a shared agreeing
    /// one 0, a shared disagreeing one 4.
    pub fn squared_distance(&self, other: &SparseVector) -> f64 {
        let nnz = (self.nnz() + other.nnz()) as i64;
        (nnz - 2 * self.signed_overlap(other)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl SparseVector {
        /// Squared Euclidean norm: the nnz, since every entry is `±1`.
        fn norm_sq(&self) -> f64 {
            self.nnz() as f64
        }
    }

    impl SparseVector {
        /// Densifies into a `dim`-length vector: the dense reference the
        /// tests hold `dot` and `squared_distance` to.
        ///
        /// # Panics
        /// Panics if any stored index is `>= dim`.
        fn to_dense(&self, dim: usize) -> Vec<f64> {
            let mut out = vec![0.0; dim];
            for (i, v) in self.iter() {
                assert!((i as usize) < dim, "index {i} out of dimension {dim}");
                out[i as usize] = v;
            }
            out
        }
    }

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
    #[should_panic(expected = "must be ±1")]
    fn zero_entries_rejected() {
        // ±1 is accepted; a zero is an absent entry, not a stored one.
        let _ = SparseVector::from_entries(vec![(1, 1.0), (2, -1.0), (3, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "must be ±1")]
    fn general_values_rejected() {
        let _ = SparseVector::from_entries(vec![(4, 0.5)]);
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
        let dense = dense_sum(da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)));
        assert_eq!(bits(a.squared_distance(&b)), bits(dense));
    }

    /// Dense reference sum: folds from `+0.0`, so every partial sum of
    /// ±1 products is an exact integer and a zero total is `+0.0`.
    fn dense_sum(terms: impl Iterator<Item = f64>) -> f64 {
        terms.fold(0.0, |acc, t| acc + t)
    }

    /// The bit pattern of `x`, with `−0.0` read as `+0.0`: the two are one
    /// value, and an empty `f64` iterator sum is `−0.0`. Any rounding
    /// difference still shows.
    fn bits(x: f64) -> u64 {
        (x + 0.0).to_bits()
    }

    /// A ±1 vector from sorted indices and a sign per index, plus its
    /// dense form over `dim` coordinates (built here, not by `to_dense`).
    fn signed(idx: &BTreeSet<u32>, signs: &[bool], dim: usize) -> (SparseVector, Vec<f64>) {
        let pairs: Vec<(u32, f64)> = idx
            .iter()
            .zip(signs.iter().cycle())
            .map(|(&i, &s)| (i, if s { 1.0 } else { -1.0 }))
            .collect();
        let mut dense = vec![0.0; dim];
        for &(i, v) in &pairs {
            dense[i as usize] = v;
        }
        (SparseVector::from_entries(pairs), dense)
    }

    #[test]
    #[should_panic(expected = "out of dimension")]
    fn to_dense_checks_dim() {
        let v = SparseVector::from_entries(vec![(10, 1.0)]);
        let _ = v.to_dense(5);
    }

    proptest! {
        /// `dot`, `norm_sq` and `squared_distance` equal the dense ±1
        /// reference bit for bit, for nnz from 0 to ~200 and against the
        /// empty vector. Kernel values are functions of these three, so
        /// this is what keeps every log-side kernel value bit-identical.
        #[test]
        fn dot_agrees_with_dense(
            a_idx in proptest::collection::btree_set(0u32..400, 0..200),
            b_idx in proptest::collection::btree_set(0u32..400, 0..200),
            a_signs in proptest::collection::vec(proptest::bool::ANY, 1..200),
            b_signs in proptest::collection::vec(proptest::bool::ANY, 1..200),
        ) {
            let (a, da) = signed(&a_idx, &a_signs, 400);
            let (b, db) = signed(&b_idx, &b_signs, 400);
            let (z, dz) = signed(&BTreeSet::new(), &[true], 400);
            for (x, dx) in [(&a, &da), (&b, &db), (&z, &dz)] {
                let norm = dense_sum(dx.iter().map(|v| v * v));
                prop_assert_eq!(bits(x.norm_sq()), bits(norm));
                for (y, dy) in [(&a, &da), (&b, &db), (&z, &dz)] {
                    let dot = dense_sum(dx.iter().zip(dy).map(|(p, q)| p * q));
                    let d2 = dense_sum(dx.iter().zip(dy).map(|(p, q)| (p - q) * (p - q)));
                    prop_assert_eq!(bits(x.dot(y)), bits(dot));
                    prop_assert_eq!(bits(x.squared_distance(y)), bits(d2));
                }
            }
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
