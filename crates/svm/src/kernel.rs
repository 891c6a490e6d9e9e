//! Kernel functions.
//!
//! [`Kernel`] is generic over the sample type `S`: the retrieval stack runs
//! the same SMO solver over dense 36-D visual features (borrowed `[f64]`
//! rows of the database's flat matrix) and over sparse feedback-log vectors
//! (`lrf-logdb`'s `SparseVector`; `lrf-core` implements this trait for
//! it, so neither crate depends on the other). The dense kernels are
//! implemented for the *unsized* slice type so callers never have to
//! materialize per-sample `Vec`s — a `&Vec<f64>` coerces, a row view of a
//! contiguous matrix is already the right shape. All provided kernels
//! satisfy Mercer's condition on their usual domains.

/// A positive-semidefinite similarity function over samples of type `S`.
pub trait Kernel<S: ?Sized> {
    /// Evaluates `K(a, b)`.
    fn compute(&self, a: &S, b: &S) -> f64;

    /// The block `K(rows[i], cols[j])`, row-major (`rows.len()` ×
    /// `cols.len()`): what a model scores a batch from. The default
    /// evaluates [`Self::compute`] pair by pair; a kernel overrides it
    /// when the block has a cheaper joint form, and must then return
    /// exactly the values `compute` would.
    fn block(&self, rows: &[&S], cols: &[&S]) -> Vec<f64> {
        rows.iter()
            .flat_map(|&a| cols.iter().map(move |&b| self.compute(a, b)))
            .collect()
    }
}

/// Squared Euclidean distance of two dense vectors.
#[inline]
pub(crate) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// The Gaussian RBF kernel `K(a, b) = exp(−γ‖a−b‖²)` — the kernel the
/// paper uses for all compared schemes.
///
/// Its [`Kernel::block`] has `compute`'s bits, value for value: it
/// transposes the columns into dimension-major tiles so one row's sums
/// over a whole tile advance together (a loop the compiler vectorizes,
/// where `compute` is one dependent chain per pair), but each pair's sum
/// is still its own accumulator, starting at `−0.0` as an empty `f64`
/// sum does and adding `(a_k − b_k)²` in `k` order with plain `-`, `*`
/// and `+`. No term is reordered and nothing is contracted into a fused
/// multiply-add, so the same IEEE operations meet the same operands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RbfKernel {
    /// Width parameter γ.
    pub gamma: f64,
}

impl RbfKernel {
    /// Creates an RBF kernel.
    ///
    /// # Panics
    /// Panics unless `gamma` is positive and finite.
    pub fn new(gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "gamma must be positive and finite"
        );
        Self { gamma }
    }
}

impl Kernel<[f64]> for RbfKernel {
    #[inline]
    fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
        (-self.gamma * squared_distance(a, b)).exp()
    }

    /// `TILE` columns at a time, transposed dimension-major; every value
    /// is `compute`'s (see the type's docs).
    fn block(&self, rows: &[&[f64]], cols: &[&[f64]]) -> Vec<f64> {
        let (n, dim) = (cols.len(), cols.first().map_or(0, |c| c.len()));
        debug_assert!(n == 0 || rows.iter().chain(cols).all(|s| s.len() == dim));
        let mut out = vec![0.0; rows.len() * n];
        let mut tile = vec![0.0; dim * TILE];
        for (t, chunk) in cols.chunks(TILE).enumerate() {
            let w = chunk.len();
            for (k, ys) in tile.chunks_exact_mut(w).take(dim).enumerate() {
                for (y, col) in ys.iter_mut().zip(chunk) {
                    *y = col[k];
                }
            }
            for (i, row) in rows.iter().enumerate() {
                let mut sums = [-0.0; TILE];
                for (&x, ys) in row.iter().zip(tile.chunks_exact(w)) {
                    for (s, &y) in sums.iter_mut().zip(ys) {
                        let d = x - y;
                        *s += d * d;
                    }
                }
                let at = i * n + t * TILE;
                for (o, &s) in out[at..at + w].iter_mut().zip(&sums) {
                    *o = (-self.gamma * s).exp();
                }
            }
        }
        out
    }
}

/// Columns per [`RbfKernel::block`] tile: 36 dimensions × 64 columns of
/// `f64` is 18 KiB, which stays in L1 while every row reads it.
const TILE: usize = 64;

/// The linear kernel `K(a, b) = aᵀb`: the second dense kernel the
/// solver's, the row store's and the model's tests run beside
/// [`RbfKernel`]. No scheme trains with it.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinearKernel;

#[cfg(test)]
impl Kernel<[f64]> for LinearKernel {
    fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
        dot(a, b)
    }
}

/// Dot product of two dense vectors.
#[cfg(test)]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The eager Gram matrix: what the solver's and the row store's tests hold
/// the lazy path to, bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Kernel;
    use std::borrow::Borrow;

    /// A dense symmetric Gram matrix in **one contiguous row-major
    /// allocation** — `n` samples, `n × n` values, no per-row boxes. The SMO
    /// solver's gradient loop walks whole rows linearly, so the flat layout
    /// turns its hottest access pattern into a single cache-friendly scan.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct GramMatrix {
        data: Vec<f64>,
        n: usize,
    }

    impl GramMatrix {
        /// Number of samples (the matrix is `n × n`).
        pub(crate) fn n(&self) -> usize {
            self.n
        }

        /// `K(i, j)`.
        #[inline]
        pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
            self.data[i * self.n + j]
        }

        /// Row `i` as a contiguous slice (`K(i, ·)`).
        #[inline]
        pub(crate) fn row(&self, i: usize) -> &[f64] {
            &self.data[i * self.n..(i + 1) * self.n]
        }

        /// The whole matrix, row-major.
        pub(crate) fn as_slice(&self) -> &[f64] {
            &self.data
        }
    }

    /// Precomputes the dense Gram matrix `K_ij` for a sample set into a flat
    /// [`GramMatrix`].
    ///
    /// Accepts anything that borrows as the kernel's sample type: owned
    /// vectors, row views of a flat feature matrix, `&SparseVector`s — the
    /// samples are only read, never cloned.
    pub(crate) fn gram_matrix<S, B, K>(kernel: &K, samples: &[B]) -> GramMatrix
    where
        S: ?Sized,
        B: Borrow<S>,
        K: Kernel<S>,
    {
        let n = samples.len();
        let mut data = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.compute(samples[i].borrow(), samples[j].borrow());
                data[i * n + j] = v;
                data[j * n + i] = v;
            }
        }
        GramMatrix { data, n }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::gram_matrix;
    use super::*;
    use proptest::prelude::*;
    use std::borrow::Borrow;

    #[test]
    fn linear_kernel_is_dot_product() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, -5.0, 6.0];
        assert_eq!(LinearKernel.compute(&a, &b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn kernels_accept_borrowed_slices() {
        // The zero-copy path: kernel evaluation directly on row views of a
        // flat matrix, no Vec per sample.
        let flat = [1.0, 2.0, 4.0, -5.0];
        let (a, b) = flat.split_at(2);
        assert_eq!(LinearKernel.compute(a, b), 4.0 - 10.0);
        assert!((RbfKernel::new(1.0).compute(a, a) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rbf_diagonal_is_one_and_decays() {
        let k = RbfKernel::new(0.5);
        let a = vec![1.0, 2.0];
        let b = vec![1.0, 2.0];
        assert!((k.compute(&a, &b) - 1.0).abs() < 1e-12);
        let far = vec![100.0, -30.0];
        assert!(k.compute(&a, &far) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rbf_rejects_nonpositive_gamma() {
        let _ = RbfKernel::new(0.0);
    }

    #[test]
    fn gram_matrix_is_symmetric_with_unit_diagonal_for_rbf() {
        let samples: Vec<Vec<f64>> = vec![
            vec![0.0, 1.0],
            vec![2.0, -1.0],
            vec![0.5, 0.5],
            vec![3.0, 3.0],
        ];
        let g = gram_matrix(&RbfKernel::new(0.3), &samples);
        assert_eq!(g.n(), 4);
        for i in 0..g.n() {
            assert!((g.at(i, i) - 1.0).abs() < 1e-12);
            for j in 0..g.n() {
                assert_eq!(g.at(i, j), g.at(j, i));
                assert_eq!(g.row(i)[j], g.at(i, j));
            }
        }
    }

    #[test]
    fn gram_matrix_exploits_symmetry_with_one_eval_per_pair() {
        // The eager reference path fills K[i][j] and K[j][i] from a single
        // kernel evaluation: exactly n(n+1)/2 calls, not n².
        use std::cell::Cell;
        struct CountingKernel(Cell<u64>);
        impl Kernel<[f64]> for CountingKernel {
            fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
                self.0.set(self.0.get() + 1);
                dot(a, b)
            }
        }
        let samples: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64, (i as f64).cos()]).collect();
        let counting = CountingKernel(Cell::new(0));
        let g = gram_matrix(&counting, &samples);
        assert_eq!(counting.0.get(), 7 * 8 / 2, "one eval per unordered pair");
        let reference = gram_matrix(&LinearKernel, &samples);
        assert_eq!(g.as_slice(), reference.as_slice());
    }

    #[test]
    fn gram_matrix_over_borrowed_rows_matches_owned() {
        let flat: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin()).collect();
        let owned: Vec<Vec<f64>> = flat.chunks(3).map(<[f64]>::to_vec).collect();
        let rows: Vec<&[f64]> = flat.chunks(3).collect();
        let k = RbfKernel::new(0.8);
        assert_eq!(
            gram_matrix::<[f64], _, _>(&k, &owned).as_slice(),
            gram_matrix::<[f64], _, _>(&k, &rows).as_slice()
        );
    }

    /// Nested reference implementation of the Gram matrix (the layout the
    /// solver used before the flat refactor) — kept solely to pin the flat
    /// version against.
    fn gram_nested<S: ?Sized, B: Borrow<S>, K: Kernel<S>>(
        kernel: &K,
        samples: &[B],
    ) -> Vec<Vec<f64>> {
        let n = samples.len();
        let mut m = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.compute(samples[i].borrow(), samples[j].borrow());
                m[i][j] = v;
                m[j][i] = v;
            }
        }
        m
    }

    proptest! {
        /// Cauchy–Schwarz for the linear kernel: K(a,b)² ≤ K(a,a)·K(b,b).
        #[test]
        fn linear_cauchy_schwarz(
            a in proptest::collection::vec(-10.0f64..10.0, 4),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let k = LinearKernel;
            let kab = k.compute(&a, &b);
            let kaa = k.compute(&a, &a);
            let kbb = k.compute(&b, &b);
            prop_assert!(kab * kab <= kaa * kbb + 1e-9);
        }

        /// RBF values always lie in [0, 1] (0 only via f64 underflow for
        /// extremely distant points).
        #[test]
        fn rbf_bounded(
            a in proptest::collection::vec(-10.0f64..10.0, 3),
            b in proptest::collection::vec(-10.0f64..10.0, 3),
            gamma in 0.01f64..5.0,
        ) {
            let v = RbfKernel::new(gamma).compute(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }

        /// The flat Gram matrix is bit-identical, entry for entry, to the
        /// nested reference on random inputs under every dense kernel.
        #[test]
        fn flat_gram_matches_nested_reference(
            flat in proptest::collection::vec(-3.0f64..3.0, 15),
            gamma in 0.05f64..2.0,
        ) {
            let samples: Vec<Vec<f64>> = flat.chunks(3).map(<[f64]>::to_vec).collect();
            let rbf = RbfKernel::new(gamma);
            let flat_g = gram_matrix(&rbf, &samples);
            let nested = gram_nested::<[f64], _, _>(&rbf, &samples);
            prop_assert_eq!(flat_g.n(), nested.len());
            for (i, nested_row) in nested.iter().enumerate() {
                for (j, &want) in nested_row.iter().enumerate() {
                    // Bit-identical, not approximately equal.
                    prop_assert_eq!(flat_g.at(i, j), want, "rbf ({}, {})", i, j);
                }
            }
            let lin_flat = gram_matrix(&LinearKernel, &samples);
            let lin_nested = gram_nested::<[f64], _, _>(&LinearKernel, &samples);
            for (i, nested_row) in lin_nested.iter().enumerate() {
                for (j, &want) in nested_row.iter().enumerate() {
                    prop_assert_eq!(lin_flat.at(i, j), want, "lin ({}, {})", i, j);
                }
            }
        }

        /// The RBF Gram matrix is positive semidefinite: zᵀGz ≥ 0. We check
        /// with random z over random small sample sets.
        #[test]
        fn rbf_gram_psd(
            flat in proptest::collection::vec(-3.0f64..3.0, 12),
            z in proptest::collection::vec(-1.0f64..1.0, 4),
            gamma in 0.05f64..2.0,
        ) {
            let samples: Vec<Vec<f64>> = flat.chunks(3).map(|c| c.to_vec()).collect();
            let g = gram_matrix(&RbfKernel::new(gamma), &samples);
            let mut quad = 0.0;
            for i in 0..4 {
                for j in 0..4 {
                    quad += z[i] * g.at(i, j) * z[j];
                }
            }
            prop_assert!(quad >= -1e-9, "quadratic form {quad}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `RbfKernel::block` is `compute` at every entry, bit for bit:
        /// dims 0–40 and 36, no, one and several rows, no, one and up to
        /// 71 columns (past a tile, with repeats), and γ whose products
        /// are inexact. Each case draws values of both signs at one
        /// magnitude: 1e±159 or 1e±150, where sums go subnormal or
        /// overflow to ∞, or near 1, where `exp` does not saturate and a
        /// rounding difference shows.
        #[test]
        fn rbf_block_is_compute_bit_for_bit(
            dim in 0usize..41,
            mantissas in proptest::collection::vec(-1.0f64..1.0, 6 * 40),
            exponents in proptest::collection::vec(-1i32..=1, 6 * 40),
            scale in 0usize..7,
            picks in proptest::collection::vec(0usize..6, 0..72),
            gamma in 0.01f64..5.0,
        ) {
            let scale = [-159, -150, -2, -1, 0, 150, 159][scale];
            let flat: Vec<f64> = (mantissas.iter().zip(&exponents))
                .map(|(m, e)| m * 10f64.powi(scale + e))
                .collect();
            for dim in [dim, 36] {
                let samples: Vec<&[f64]> = flat.chunks(40).map(|c| &c[..dim]).collect();
                let cols: Vec<&[f64]> = picks.iter().map(|&p| samples[p]).collect();
                let k = RbfKernel::new(gamma);
                for rows in [&samples[..0], &samples[..1], &samples[..]] {
                    for cols in [&cols[..0], &cols[..cols.len().min(1)], &cols[..]] {
                        let block = k.block(rows, cols);
                        prop_assert_eq!(block.len(), rows.len() * cols.len());
                        for (i, a) in rows.iter().enumerate() {
                            for (j, b) in cols.iter().enumerate() {
                                let want = k.compute(a, b).to_bits();
                                prop_assert_eq!(block[i * cols.len() + j].to_bits(), want);
                            }
                        }
                    }
                }
            }
        }
    }
}
