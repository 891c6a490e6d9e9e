//! Lazy kernel-row cache with byte-budgeted LRU eviction.
//!
//! The SMO solver only ever touches the Gram matrix one **row** at a time
//! (the two working-set rows per iteration, plus occasional rows of
//! nonzero-α points for gradient reconstruction). Precomputing the full
//! `n × n` matrix therefore wastes kernel evaluations whenever the solver
//! converges after touching a subset of rows — which is exactly what
//! happens on warm-started feedback rounds, where a handful of iterations
//! suffice. [`KernelCache`] computes rows on first touch, keeps the most
//! recently used ones inside a byte budget, and counts hits/misses so the
//! savings are observable through `SolveStats`.
//!
//! The solver itself is written against the crate-private `KernelRows`
//! abstraction so its tests can run the same loop over a fully
//! precomputed [`crate::GramMatrix`] — the bit-exact oracle the lazy path
//! is held to.
//!
//! **Symmetry assumption.** When a row is computed, entries whose mirror
//! row is already cached are copied from it (`K(i,t) = K(t,i)`) instead of
//! re-evaluated, so a kernel used here must be symmetric *at the IEEE
//! level*. Every kernel in this workspace is: `dot` and `squared_distance`
//! are commutative bitwise, hence so are the linear, RBF, polynomial and
//! sparse log kernels built on them.

use crate::error::SvmError;
use crate::kernel::Kernel;
use lrf_obs::Counter;
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

/// Lazy kernel-row store: rows are computed on first touch and evicted in
/// least-recently-used order once the byte budget is exceeded. The
/// diagonal is computed eagerly at construction (it doubles as the
/// non-finite-sample check) and is never evicted.
pub struct KernelCache<'a, S: ?Sized, B, K> {
    kernel: &'a K,
    samples: &'a [B],
    diag: Vec<f64>,
    rows: Vec<Option<Box<[f64]>>>,
    /// Cached row indices, most recently used last.
    lru: Vec<usize>,
    capacity_rows: usize,
    // Registry-backed instruments (not plain integers) so a caller can
    // lift the cache's hit rate into an `lrf_obs::Registry` by handle.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    _sample: PhantomData<&'a S>,
}

impl<S: ?Sized, B, K> std::fmt::Debug for KernelCache<'_, S, B, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("n", &self.samples.len())
            .field("capacity_rows", &self.capacity_rows)
            .field("cached_rows", &self.lru.len())
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .field("evictions", &self.evictions.get())
            .finish()
    }
}

impl<'a, S, B, K> KernelCache<'a, S, B, K>
where
    S: ?Sized,
    B: Borrow<S>,
    K: Kernel<S>,
{
    /// Builds a cache over `samples` holding at most `budget_bytes` worth
    /// of rows (`8n` bytes each), clamped to at least two rows — the SMO
    /// working set — and at most `n`.
    ///
    /// Computes the kernel diagonal eagerly; a non-finite `K(i, i)` is
    /// reported as [`SvmError::NonFiniteKernel`] at `(i, i)`. For every
    /// kernel in this workspace a sample containing NaN/∞ poisons its own
    /// diagonal entry, so this is equivalent to the full-matrix scan of
    /// the precomputed path.
    pub fn new(kernel: &'a K, samples: &'a [B], budget_bytes: usize) -> Result<Self, SvmError> {
        let n = samples.len();
        let mut diag = Vec::with_capacity(n);
        for (i, s) in samples.iter().enumerate() {
            let v = kernel.compute(s.borrow(), s.borrow());
            if !v.is_finite() {
                return Err(SvmError::NonFiniteKernel { row: i, col: i });
            }
            diag.push(v);
        }
        let row_bytes = n.max(1) * std::mem::size_of::<f64>();
        let capacity_rows = (budget_bytes / row_bytes).clamp(2, n.max(2)).min(n.max(1));
        Ok(Self {
            kernel,
            samples,
            diag,
            rows: (0..n).map(|_| None).collect(),
            lru: Vec::with_capacity(capacity_rows),
            capacity_rows,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            _sample: PhantomData,
        })
    }

    /// Number of rows the byte budget admits.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Row accesses served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Row accesses that had to compute the row (including recomputes
    /// after eviction).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Rows dropped to stay within the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Computes row `i`, mirroring entries from already-cached rows
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

    /// Moves `i` to the most-recently-used end of the LRU order.
    fn touch(&mut self, i: usize) {
        if let Some(pos) = self.lru.iter().position(|&t| t == i) {
            self.lru.remove(pos);
        }
        self.lru.push(i);
    }

    /// Ensures row `i` is resident, evicting the least recently used row
    /// if needed — but never `protect` (the other half of a working-set
    /// pair) or `i` itself.
    fn ensure(&mut self, i: usize, protect: Option<usize>) {
        if self.rows[i].is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
            while self.lru.len() >= self.capacity_rows {
                let Some(pos) = self.lru.iter().position(|&t| t != i && Some(t) != protect) else {
                    break;
                };
                let victim = self.lru.remove(pos);
                self.rows[victim] = None;
                self.evictions.inc();
            }
            self.rows[i] = Some(self.compute_row(i));
        }
        self.touch(i);
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
        self.ensure(i, None);
        self.rows[i].as_deref().expect("row resident after ensure")
    }

    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        assert_ne!(i, j, "working-set pair must be distinct");
        self.ensure(i, Some(j));
        self.ensure(j, Some(i));
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
        (self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{gram_matrix, GramMatrix, LinearKernel, RbfKernel};
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
        let err = KernelCache::new(&LinearKernel, &samples, 1 << 20).unwrap_err();
        assert_eq!(err, SvmError::NonFiniteKernel { row: 1, col: 1 });
    }

    #[test]
    fn capacity_respects_budget_and_floor() {
        let samples = vec![vec![0.0; 4]; 10];
        // 10 samples → 80-byte rows; a 200-byte budget admits 2 rows.
        let c = KernelCache::new(&LinearKernel, &samples, 200).unwrap();
        assert_eq!(c.capacity_rows(), 2);
        // Zero budget still admits the working-set pair.
        let c = KernelCache::new(&LinearKernel, &samples, 0).unwrap();
        assert_eq!(c.capacity_rows(), 2);
        // A huge budget is clamped to n rows.
        let c = KernelCache::new(&LinearKernel, &samples, 1 << 30).unwrap();
        assert_eq!(c.capacity_rows(), 10);
    }

    #[test]
    fn rows_match_gram_and_counters_track_accesses() {
        let flat: Vec<f64> = (0..24).map(|i| (i as f64 * 0.37).cos()).collect();
        let samples = samples_from(&flat, 3);
        let kernel = RbfKernel::new(0.6);
        let gram = gram_matrix(&kernel, &samples);
        let mut cache = KernelCache::new(&kernel, &samples, 1 << 20).unwrap();
        for i in 0..samples.len() {
            assert_eq!(cache.row(i), GramMatrix::row(&gram, i), "row {i}");
        }
        assert_eq!(cache.misses(), samples.len() as u64);
        assert_eq!(cache.hits(), 0);
        // Second pass: all hits, bit-identical values again.
        for i in 0..samples.len() {
            assert_eq!(cache.row(i), GramMatrix::row(&gram, i));
        }
        assert_eq!(cache.hits(), samples.len() as u64);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn pair_returns_both_rows_under_minimal_capacity() {
        let flat: Vec<f64> = (0..12).map(|i| (i as f64 * 0.9).sin()).collect();
        let samples = samples_from(&flat, 2);
        let kernel = RbfKernel::new(1.1);
        let gram = gram_matrix(&kernel, &samples);
        let mut cache = KernelCache::new(&kernel, &samples, 0).unwrap(); // capacity 2
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
        assert!(cache.evictions() > 0, "capacity 2 must evict in this sweep");
    }

    proptest! {
        /// Under random eviction pressure (tiny random budgets, random
        /// access sequences) every row served by the cache is bit-identical
        /// to direct kernel evaluation.
        #[test]
        fn rows_bit_identical_under_eviction_pressure(
            flat in proptest::collection::vec(-3.0f64..3.0, 36),
            accesses in proptest::collection::vec(0usize..12, 1..60),
            budget_rows in 0usize..6,
            gamma in 0.05f64..2.0,
        ) {
            let samples = samples_from(&flat, 3);
            let n = samples.len();
            let kernel = RbfKernel::new(gamma);
            let mut cache =
                KernelCache::new(&kernel, &samples, budget_rows * n * 8).unwrap();
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
