//! Lazy kernel-row store.
//!
//! The SMO solver only ever touches the Gram matrix one **row** at a time
//! (the two working-set rows per iteration, plus occasional rows of
//! nonzero-α points for gradient reconstruction). Precomputing the full
//! `n × n` matrix therefore wastes kernel evaluations whenever the solver
//! converges after touching a subset of rows — which is exactly what
//! happens on warm-started feedback rounds, where a handful of iterations
//! suffice. [`KernelCache`] computes rows on first touch, keeps them until
//! the solve ends, and counts hits/misses so the savings are observable
//! through `SolveStats`. Nothing is ever dropped: a feedback round is tens
//! of samples (a few hundred at the very most — `tests/golden_solver.rs` pins
//! an n = 240 solve), so every row of the largest solve fits in a few
//! hundred KiB.
//!
//! The solver itself is written against the crate-private `KernelRows`
//! abstraction so its tests can run the same loop over a fully
//! precomputed `GramMatrix` — the bit-exact oracle the lazy path is held
//! to.
//!
//! **Symmetry assumption.** When a row is computed, entries whose mirror
//! row is already resident are copied from it (`K(i,t) = K(t,i)`) instead
//! of re-evaluated, so a kernel used here must be symmetric *at the IEEE
//! level*. Every kernel in this workspace is: `dot` and `squared_distance`
//! are commutative bitwise, hence so are the linear, RBF, polynomial and
//! sparse log kernels built on them.

use crate::error::SvmError;
use crate::kernel::Kernel;
use std::borrow::Borrow;
use std::marker::PhantomData;

/// Row-level access to the (implicit) Gram matrix, as consumed by the SMO
/// solver. Implemented by the lazy [`KernelCache`] and, in tests, by the
/// eager `GramMatrix` so the identical solver loop serves as its own
/// oracle.
pub(crate) trait KernelRows {
    /// `K(i, i)`. Always available without touching a full row.
    fn diag(&self, i: usize) -> f64;
    /// Row `i` (`K(i, ·)`) as a contiguous slice, computing it if needed.
    fn row(&mut self, i: usize) -> &[f64];
    /// Rows `i` and `j` (`i != j`) simultaneously — the per-iteration
    /// access pattern of the gradient update.
    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]);
    /// `(hits, misses)` accumulated so far (zeros for precomputed paths).
    fn cache_stats(&self) -> (u64, u64);
}

/// Lazy kernel-row store: a row is computed on first touch and kept until
/// the store is dropped at the end of the solve. The diagonal is computed
/// eagerly at construction (it doubles as the non-finite-sample check).
pub(crate) struct KernelCache<'a, S: ?Sized, B, K> {
    kernel: &'a K,
    samples: &'a [B],
    diag: Vec<f64>,
    rows: Vec<Option<Box<[f64]>>>,
    hits: u64,
    misses: u64,
    _sample: PhantomData<&'a S>,
}

impl<'a, S, B, K> KernelCache<'a, S, B, K>
where
    S: ?Sized,
    B: Borrow<S>,
    K: Kernel<S>,
{
    /// Builds an empty store over `samples`.
    ///
    /// Computes the kernel diagonal eagerly; a non-finite `K(i, i)` is
    /// reported as [`SvmError::NonFiniteKernel`] at `(i, i)`. For every
    /// kernel in this workspace a sample containing NaN/∞ poisons its own
    /// diagonal entry, so this is equivalent to the full-matrix scan of
    /// the precomputed path.
    pub(crate) fn new(kernel: &'a K, samples: &'a [B]) -> Result<Self, SvmError> {
        let n = samples.len();
        let mut diag = Vec::with_capacity(n);
        for (i, s) in samples.iter().enumerate() {
            let v = kernel.compute(s.borrow(), s.borrow());
            if !v.is_finite() {
                return Err(SvmError::NonFiniteKernel { row: i, col: i });
            }
            diag.push(v);
        }
        Ok(Self {
            kernel,
            samples,
            diag,
            rows: (0..n).map(|_| None).collect(),
            hits: 0,
            misses: 0,
            _sample: PhantomData,
        })
    }

    /// Computes row `i`, mirroring entries from already-resident rows
    /// (`K(i,t) = K(t,i)`, bitwise for the symmetric kernels used here) so
    /// repeated cold solves approach the `n(n+1)/2` evaluations of the
    /// eager symmetric fill.
    fn compute_row(&self, i: usize) -> Box<[f64]> {
        let n = self.samples.len();
        let si = self.samples[i].borrow();
        let mut data = Vec::with_capacity(n);
        for t in 0..n {
            let v = if t == i {
                self.diag[i]
            } else if let Some(rt) = self.rows[t].as_deref() {
                rt[i]
            } else {
                self.kernel.compute(si, self.samples[t].borrow())
            };
            data.push(v);
        }
        data.into_boxed_slice()
    }

    /// Makes row `i` resident, counting the access as a hit or a miss.
    fn ensure(&mut self, i: usize) {
        if self.rows[i].is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.rows[i] = Some(self.compute_row(i));
        }
    }
}

impl<S, B, K> KernelRows for KernelCache<'_, S, B, K>
where
    S: ?Sized,
    B: Borrow<S>,
    K: Kernel<S>,
{
    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    fn row(&mut self, i: usize) -> &[f64] {
        self.ensure(i);
        self.rows[i].as_deref().expect("row resident after ensure")
    }

    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        assert_ne!(i, j, "working-set pair must be distinct");
        self.ensure(i);
        self.ensure(j);
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.rows.split_at(hi);
        let row_lo = head[lo].as_deref().expect("row resident after ensure");
        let row_hi = tail[0].as_deref().expect("row resident after ensure");
        if i < j {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        }
    }

    fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::{gram_matrix, GramMatrix};
    use crate::kernel::{LinearKernel, RbfKernel};
    use proptest::prelude::*;

    /// The eager matrix as a row provider: what lets the solver's tests
    /// run the identical loop over a fully precomputed Gram as the oracle.
    impl KernelRows for GramMatrix {
        fn diag(&self, i: usize) -> f64 {
            self.at(i, i)
        }

        fn row(&mut self, i: usize) -> &[f64] {
            GramMatrix::row(self, i)
        }

        fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
            let n = GramMatrix::n(self);
            let s = self.as_slice();
            (&s[i * n..(i + 1) * n], &s[j * n..(j + 1) * n])
        }

        fn cache_stats(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    fn samples_from(flat: &[f64], dims: usize) -> Vec<Vec<f64>> {
        flat.chunks(dims).map(<[f64]>::to_vec).collect()
    }

    #[test]
    fn diagonal_validation_reports_nan_sample() {
        let samples = vec![vec![1.0], vec![f64::NAN]];
        let err = KernelCache::new(&LinearKernel, &samples).err().unwrap();
        assert_eq!(err, SvmError::NonFiniteKernel { row: 1, col: 1 });
    }

    #[test]
    fn rows_match_gram_and_counters_track_accesses() {
        let flat: Vec<f64> = (0..24).map(|i| (i as f64 * 0.37).cos()).collect();
        let samples = samples_from(&flat, 3);
        let kernel = RbfKernel::new(0.6);
        let gram = gram_matrix(&kernel, &samples);
        let mut cache = KernelCache::new(&kernel, &samples).unwrap();
        for i in 0..samples.len() {
            assert_eq!(cache.row(i), GramMatrix::row(&gram, i), "row {i}");
        }
        assert_eq!(cache.cache_stats(), (0, samples.len() as u64));
        // Second pass: all hits, bit-identical values again.
        for i in 0..samples.len() {
            assert_eq!(cache.row(i), GramMatrix::row(&gram, i));
        }
        assert_eq!(
            cache.cache_stats(),
            (samples.len() as u64, samples.len() as u64)
        );
    }

    #[test]
    fn pair_returns_both_rows_in_either_order() {
        let flat: Vec<f64> = (0..12).map(|i| (i as f64 * 0.9).sin()).collect();
        let samples = samples_from(&flat, 2);
        let kernel = RbfKernel::new(1.1);
        let gram = gram_matrix(&kernel, &samples);
        let mut cache = KernelCache::new(&kernel, &samples).unwrap();
        for i in 0..samples.len() {
            for j in 0..samples.len() {
                if i == j {
                    continue;
                }
                let (ri, rj) = cache.pair(i, j);
                assert_eq!(ri, GramMatrix::row(&gram, i), "pair({i},{j}) row i");
                assert_eq!(rj, GramMatrix::row(&gram, j), "pair({i},{j}) row j");
            }
        }
    }

    proptest! {
        /// Under random access sequences (rows mirrored from whichever
        /// rows happen to be resident) every row served by the store is
        /// bit-identical to direct kernel evaluation.
        #[test]
        fn rows_bit_identical_to_direct_evaluation(
            flat in proptest::collection::vec(-3.0f64..3.0, 36),
            accesses in proptest::collection::vec(0usize..12, 1..60),
            gamma in 0.05f64..2.0,
        ) {
            let samples = samples_from(&flat, 3);
            let n = samples.len();
            let kernel = RbfKernel::new(gamma);
            let mut cache = KernelCache::new(&kernel, &samples).unwrap();
            for (step, &raw) in accesses.iter().enumerate() {
                let i = raw % n;
                // Alternate row/pair accesses to exercise both entry points.
                if step % 3 == 2 {
                    let j = (i + 1 + step % (n - 1)) % n;
                    if i == j { continue; }
                    let (ri, rj) = cache.pair(i, j);
                    for t in 0..n {
                        prop_assert_eq!(ri[t], kernel.compute(&samples[i], &samples[t]));
                        prop_assert_eq!(rj[t], kernel.compute(&samples[j], &samples[t]));
                    }
                } else {
                    let ri = cache.row(i);
                    for t in 0..n {
                        prop_assert_eq!(ri[t], kernel.compute(&samples[i], &samples[t]));
                    }
                }
            }
        }
    }
}
