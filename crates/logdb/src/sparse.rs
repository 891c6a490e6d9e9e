//! Sparse vectors over session indices.
//!
//! An image's log vector `r_i` is its column of the relevance matrix: one
//! ±1 entry per session that judged it, zero elsewhere. With 150 sessions
//! of 20 judgments over thousands of images the matrix is overwhelmingly
//! sparse, and `R` has no other values, so a column is stored as what it
//! is: the ascending list of session ids that judged the image, each with
//! its sign packed into the id's top bit (4 bytes per judgment; this caps
//! the session count `M` at 2³¹). A session's row packs its image ids the
//! same way, so each judgment costs the store 8 bytes, 4 per side.
//!
//! Over ±1 entries the vector algebra is counting. `‖r‖²` is the nnz,
//! `r_a·r_b` is agreements minus disagreements over the sessions both
//! judged (one merge of the two id lists), and `‖r_a − r_b‖²` is
//! `nnz_a + nnz_b − 2·r_a·r_b`. Each is an exact integer; the log kernel
//! converts it to `f64` once.
//!
//! Training and scoring need the dots of many pairs at once: every
//! labeled, pooled or support-vector image against every image of the
//! round's universe. [`SparseVector::overlap_block`] computes that block
//! session-major — the rows' judgments counting-sorted into one bucket per
//! session they judged, then each column judgment's bucket found by one
//! index load — so its cost follows the judgments, not the pairs nor the
//! log's session count, and its integers are the per-pair merges'
//! integers. Its scratch is a zeroed index over the rows' session span
//! that no loop sweeps, plus one `u32` per row judgment.

use std::cmp::Ordering;

/// Top bit of a packed entry: set when the judgment is `−1`.
pub(crate) const NEG: u32 = 1 << 31;

/// The value a packed entry stands for: `+1.0`, or `−1.0` when `NEG` is set.
fn sign(entry: u32) -> f64 {
    1.0 - 2.0 * f64::from(entry >> 31)
}

/// A sparse ±1 vector: ascending indices with their signs, zeros omitted.
/// The default is the empty (all-zero) vector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVector {
    /// Indices in ascending order, each `| NEG` when its value is `−1`.
    entries: Vec<u32>,
}

impl SparseVector {
    /// Builds from `(index, value)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate indices, on an index `>= 2³¹`, or on a value
    /// other than `±1` (`R` holds nothing else; a zero is an absent entry).
    pub fn from_entries(mut entries: Vec<(u32, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut v = Self::default();
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
    #[cfg(test)]
    pub(crate) fn get(&self, index: u32) -> f64 {
        let found = self.entries.binary_search_by_key(&index, |&e| e & !NEG);
        found.map_or(0.0, |pos| sign(self.entries[pos]))
    }

    /// Iterates stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().map(|&e| (e & !NEG, sign(e)))
    }

    /// Sparse dot product: agreements minus disagreements over the indices
    /// both vectors hold, an exact integer from one linear merge of the two
    /// sorted lists.
    pub fn dot(&self, other: &SparseVector) -> i64 {
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

    /// The dots `rows[i]·cols[j]`, row-major (`rows.len()` ×
    /// `cols.len()`): the integers [`Self::dot`] merges out pair by pair.
    ///
    /// Session-major: the sessions the rows judged get bucket ids in
    /// first-seen order through an index over the rows' session span
    /// `[lo, hi]`, a counting sort files the rows' judgments into those
    /// buckets, then each column entry finds its session's bucket with
    /// one index load and adds `±1` to every row in it. The cost is a few
    /// passes over the rows' judgments, a prefix sum over their distinct
    /// sessions, one load per column judgment and one add per shared
    /// judgment — no merge per pair, and no loop over the span, which
    /// grows with every session the log records. The scratch is the index
    /// (one zeroed `u32` per session of the span, at most the log's
    /// session count `M`, read only where a judgment points) plus one
    /// `u32` per row judgment.
    pub fn overlap_block(rows: &[&SparseVector], cols: &[&SparseVector]) -> Vec<i64> {
        assert!(rows.len() <= 1 << 31, "too many rows for a packed slot");
        let n = cols.len();
        let mut out = vec![0i64; rows.len() * n];
        let judgments = || rows.iter().flat_map(|row| &row.entries).map(|&e| e & !NEG);
        let lo = judgments().min().unwrap_or(0);
        let span = judgments().max().map_or(0, |hi| (hi - lo) as usize + 1);
        // `id_of[s − lo]` is session `s`'s bucket, numbered from 1 in first-seen
        // order, or 0 when no row judged it.
        // Bucket `b`'s judgments end up in `slots[at[b]..at[b + 1]]`, each
        // `row << 1 | negative`: counted two places up, summed, then placed
        // through `at[b + 1]`, which leaves it at the bucket's end; bucket 0
        // stays empty.
        let (mut id_of, mut at) = (vec![0u32; span], vec![0u32; 3]);
        for s in judgments() {
            let id = &mut id_of[(s - lo) as usize];
            if *id == 0 {
                *id = at.len() as u32 - 2;
                at.push(0);
            }
            at[*id as usize + 2] += 1;
        }
        for k in 2..at.len() {
            at[k] += at[k - 1];
        }
        let mut slots = vec![0u32; at[at.len() - 1] as usize];
        for (r, row) in rows.iter().enumerate() {
            for &e in &row.entries {
                let next = &mut at[id_of[((e & !NEG) - lo) as usize] as usize + 1];
                slots[*next as usize] = (r as u32) << 1 | e >> 31;
                *next += 1;
            }
        }
        for (j, col) in cols.iter().enumerate() {
            for &e in &col.entries {
                let Some(&id) = id_of.get((e & !NEG).wrapping_sub(lo) as usize) else {
                    continue;
                };
                for &slot in &slots[at[id as usize] as usize..at[id as usize + 1] as usize] {
                    out[(slot >> 1) as usize * n + j] += 1 - 2 * i64::from((slot ^ e >> 31) & 1);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl SparseVector {
        /// Bytes the entry list holds on the heap, spare capacity included.
        pub(crate) fn heap_bytes(&self) -> usize {
            self.entries.capacity() * std::mem::size_of::<u32>()
        }
    }

    impl SparseVector {
        /// Squared Euclidean distance `‖a − b‖² = nnz_a + nnz_b − 2·a·b`:
        /// an index only one side holds adds 1, a shared agreeing one 0, a
        /// shared disagreeing one 4. The log kernel's expression, held to
        /// the dense reference here.
        pub(crate) fn squared_distance(&self, other: &SparseVector) -> f64 {
            ((self.nnz() + other.nnz()) as i64 - 2 * self.dot(other)) as f64
        }

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
        let z = SparseVector::default();
        assert_eq!(z.nnz(), 0);
        assert!(z.is_empty());
        assert_eq!(z.get(5), 0.0);
        assert_eq!(z.dot(&z), 0);
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
        assert_eq!(a.dot(&b), 0);
        let c = SparseVector::from_entries(vec![(2, 1.0)]);
        assert_eq!(a.dot(&c), -1);
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
                    prop_assert_eq!(bits(x.dot(y) as f64), bits(dot));
                    prop_assert_eq!(bits(x.squared_distance(y)), bits(d2));
                }
            }
        }

        /// `overlap_block` is the per-pair `dot` at every entry, bit for
        /// bit: over the empty vector, columns drawn with repeats, and a
        /// set against itself (rows == cols). At most 9 rows × 8 columns
        /// and 56 entries, so Miri stays quick.
        #[test]
        fn overlap_block_is_per_pair_dot(
            idx in proptest::collection::vec(proptest::collection::btree_set(0u32..24, 0..8), 0..8),
            signs in proptest::collection::vec(proptest::bool::ANY, 1..16),
            picks in proptest::collection::vec(0usize..9, 0..9),
        ) {
            let vs: Vec<SparseVector> = idx
                .iter()
                .enumerate()
                .map(|(k, set)| signed(set, &signs[k % signs.len()..], 24).0)
                .chain([SparseVector::default()])
                .collect();
            let rows: Vec<&SparseVector> = vs.iter().collect();
            let cols: Vec<&SparseVector> = picks.iter().map(|&p| &vs[p % vs.len()]).collect();
            for (r, c) in [(&rows, &cols), (&rows, &rows), (&cols, &rows)] {
                let block = SparseVector::overlap_block(r, c);
                prop_assert_eq!(block.len(), r.len() * c.len());
                for (i, a) in r.iter().enumerate() {
                    for (j, b) in c.iter().enumerate() {
                        prop_assert_eq!(block[i * c.len() + j], a.dot(b));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `overlap_block` is the per-pair `dot` on session ids up to 2²⁰,
        /// where the counting sort's span is widest: rows and columns
        /// drawn over one range, columns lifted past the rows' span, and
        /// rows lifted past the columns' (so no column session falls in
        /// the span); each with every row, a single row, no rows and no
        /// columns. A span of 2²⁰ sessions is a 4 MiB scratch, which is
        /// too slow under Miri; the small-id property above covers it there.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn overlap_block_is_per_pair_dot_on_wide_spans(
            row_idx in proptest::collection::vec(proptest::collection::btree_set(0u32..1 << 20, 0..12), 0..5),
            col_idx in proptest::collection::vec(proptest::collection::btree_set(0u32..1 << 20, 0..12), 0..5),
            signs in proptest::collection::vec(proptest::bool::ANY, 1..16),
            layout in 0usize..3,
        ) {
            let lift = |sets: &[BTreeSet<u32>], by: u32| -> Vec<SparseVector> {
                let vector = |(k, set): (usize, &BTreeSet<u32>)| {
                    let sign = signs[k % signs.len()..].iter().cycle();
                    let entries = set.iter().zip(sign);
                    let entries = entries.map(|(&i, &s)| (i + by, if s { 1.0 } else { -1.0 }));
                    SparseVector::from_entries(entries.collect())
                };
                sets.iter().enumerate().map(vector).collect()
            };
            let (row_by, col_by) = [(0, 0), (0, 1 << 20), (1 << 20, 0)][layout];
            let (rows, cols) = (lift(&row_idx, row_by), lift(&col_idx, col_by));
            let rows: Vec<&SparseVector> = rows.iter().collect();
            let cols: Vec<&SparseVector> = cols.iter().collect();
            let one = &rows[..rows.len().min(1)];
            for (r, c) in [(&rows[..], &cols[..]), (one, &cols[..]), (&[][..], &cols[..]), (&rows[..], &[][..])] {
                let block = SparseVector::overlap_block(r, c);
                prop_assert_eq!(block.len(), r.len() * c.len());
                for (i, a) in r.iter().enumerate() {
                    for (j, b) in c.iter().enumerate() {
                        prop_assert_eq!(block[i * c.len() + j], a.dot(b));
                        if layout > 0 {
                            prop_assert_eq!(block[i * c.len() + j], 0);
                        }
                    }
                }
            }
        }
    }

    /// `overlap_block` is the per-pair `dot` where its bucketing has edges:
    /// columns judging sessions below the rows' lowest (the wrapping
    /// lookup) and above their highest, rows with no judgments (an empty
    /// index), every row in one session (one bucket of many slots), rows
    /// in adjacent sessions, and rows 2²⁰ sessions apart.
    #[test]
    fn overlap_block_is_per_pair_dot_at_bucketing_edges() {
        let v = |entries: &[(u32, f64)]| SparseVector::from_entries(entries.to_vec());
        let far = 1 << 20;
        let cases = [
            (
                vec![v(&[(10, 1.0), (12, -1.0)]), v(&[(11, 1.0)])],
                vec![
                    v(&[(0, 1.0), (3, -1.0), (10, -1.0)]),
                    v(&[(12, 1.0), (13, 1.0), (900, -1.0)]),
                    v(&[(9, 1.0)]),
                ],
            ),
            (
                vec![v(&[]), v(&[])],
                vec![v(&[(0, 1.0), (7, -1.0)]), v(&[])],
            ),
            (
                vec![
                    v(&[(7, 1.0)]),
                    v(&[(7, -1.0)]),
                    v(&[(7, 1.0)]),
                    v(&[(7, -1.0)]),
                ],
                vec![v(&[(6, 1.0), (7, -1.0)]), v(&[(7, 1.0), (8, 1.0)])],
            ),
            (
                vec![
                    v(&[(100, 1.0), (101, -1.0)]),
                    v(&[(101, 1.0), (102, 1.0)]),
                    v(&[(103, -1.0)]),
                ],
                vec![v(&[
                    (99, 1.0),
                    (100, 1.0),
                    (101, 1.0),
                    (102, -1.0),
                    (103, -1.0),
                    (104, 1.0),
                ])],
            ),
            (
                vec![v(&[(3, 1.0), (3 + far, -1.0)]), v(&[(3 + far, 1.0)])],
                vec![
                    v(&[(3, -1.0)]),
                    v(&[(4, 1.0), (3 + far, -1.0)]),
                    v(&[(2, 1.0), (4 + far, 1.0)]),
                ],
            ),
        ];
        for (rows, cols) in &cases {
            let (rows, cols): (Vec<_>, Vec<_>) = (rows.iter().collect(), cols.iter().collect());
            let block = SparseVector::overlap_block(&rows, &cols);
            assert_eq!(block.len(), rows.len() * cols.len());
            for (i, a) in rows.iter().enumerate() {
                for (j, b) in cols.iter().enumerate() {
                    assert_eq!(block[i * cols.len() + j], a.dot(b), "row {i}, column {j}");
                }
            }
        }
    }

    proptest! {
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
