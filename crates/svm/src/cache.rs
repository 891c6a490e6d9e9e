//! The kernel-row store and the entry points that take one.
//!
//! The SMO solver only ever touches the Gram matrix one **row** at a time
//! (the two working-set rows per iteration, plus the rows of nonzero-α
//! points when a warm start rebuilds the gradient). Precomputing the full
//! `n × n` matrix therefore wastes kernel evaluations whenever the solver
//! converges after touching a subset of rows — which is exactly what
//! happens on warm-started feedback rounds, where a handful of iterations
//! suffice. [`KernelCache`] computes rows on first touch, keeps them until
//! the store is dropped, and counts hits/misses so the savings are
//! observable through `SolveStats` (per solve). Nothing is ever evicted: a
//! feedback round is tens of samples (a few hundred at the very most —
//! `tests/golden_solver.rs` pins an n = 240 solve), so every row of the
//! largest store fits in a few hundred KiB.
//!
//! A store outlives the solve when its owner keeps it. The coupled SVM's
//! annealing schedule — about a hundred re-solves with new bounds and
//! pseudo-labels — runs in one store per view. A solve
//! ([`KernelCache::solve`]) returns only its [`crate::Dual`]; the anneal
//! reads each dual's hinge slacks from the rows
//! ([`KernelCache::slacks`]) and seeds the next solve with it. No
//! Gram value of the fit's solves is evaluated twice. The store holds the
//! training samples only: scoring the round's candidates reads a dual's
//! [`crate::Dual::expansion`] against rows over the candidates, which
//! lrf-core keeps per session. Every training sample is one of those
//! candidates, so lrf-core builds each store with its rows
//! ([`KernelCache::served`]: the candidate rows restricted to the training
//! samples) and a `K(x_i, x_t)` between two training samples is evaluated
//! once, there. A served store evaluates no kernel at all; one that is
//! handed no rows computes its own, as above. A caller that wants a model
//! builds one from a dual ([`KernelCache::machine`], where the support
//! vectors are cloned). [`crate::train`] is the one-solve use of the same
//! store.
//!
//! The solver itself is written against the crate-private `KernelRows`
//! abstraction so its tests can run the same loop over a fully
//! precomputed `GramMatrix` — the bit-exact oracle the lazy path is held
//! to.
//!
//! **Symmetry assumption.** When a row is computed, entries whose mirror
//! row is already resident are copied from it (`K(i,t) = K(t,i)`) instead
//! of re-evaluated, so a kernel used here must be symmetric *at the IEEE
//! level*. Every kernel in this workspace is: the dense `dot` and
//! `squared_distance` are commutative bitwise and the sparse dot is an
//! exact integer, hence so are the linear, RBF and sparse log kernels
//! built on them.

use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::model::{SvmModel, TrainedSvm};
use crate::smo::{single_class_sign, solve_dual, validate, Dual, SmoParams};

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
}

/// Lazy kernel-row store over one sample set: a row is computed on
/// first touch and kept until the store is dropped. The diagonal is
/// computed by the first solve that needs it (it doubles as the
/// non-finite-sample check), so a store whose every problem is
/// single-class evaluates no kernel at all.
pub struct KernelCache<'a, S: ?Sized, K> {
    pub(crate) kernel: K,
    samples: Vec<&'a S>,
    /// `K(i, i)` of every sample: the served rows', or empty until the
    /// first two-class solve computes it.
    diag: Vec<f64>,
    rows: Vec<Option<Vec<f64>>>,
    hits: u64,
    misses: u64,
}

impl<'a, S, K> KernelCache<'a, S, K>
where
    S: ?Sized + ToOwned,
    K: Kernel<S>,
{
    /// An empty store over `samples`; evaluates no kernel.
    pub fn new(kernel: K, samples: Vec<&'a S>) -> Self {
        Self {
            kernel,
            rows: vec![None; samples.len()],
            samples,
            diag: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// This store with every row resident from `rows`, which holds row
    /// `i` — `K(x_i, x_t)` over every sample `t`, in store order — for
    /// each sample `i`. The values are computed elsewhere (lrf-core's
    /// session row blocks) and must be the bits [`Kernel::compute`]
    /// returns. A served store evaluates no kernel: its diagonal is the
    /// rows' (a solve checks it like a computed one), and every row
    /// access is a hit.
    ///
    /// # Panics
    /// Panics unless `rows` holds one row per sample, each one value per
    /// sample.
    pub fn served(mut self, rows: Vec<Vec<f64>>) -> Self {
        let n = self.samples.len();
        assert!(rows.len() == n && rows.iter().all(|r| r.len() == n));
        self.diag = rows.iter().enumerate().map(|(i, row)| row[i]).collect();
        self.rows = rows.into_iter().map(Some).collect();
        self
    }

    /// Validates the problem, takes the single-class shortcut, and
    /// otherwise solves the dual in this store, reusing every row an
    /// earlier solve in it computed. The result is bit-identical to the
    /// same solve in a fresh store; only the kernel evaluations differ.
    /// The solution's hit and miss counts are this solve's own.
    ///
    /// `warm` is a prior `alpha` vector (e.g. the previous feedback
    /// round's [`Dual::alpha`]). It may be shorter than the store —
    /// feedback rounds append newly labeled points, so entry `i` of the
    /// seed is taken to correspond to sample `i` and any tail of new
    /// samples starts at `α = 0`. Before iterating, the seed is made
    /// feasible for the *new* problem: each `α_i` is clipped into
    /// `[0, C_i]` (bounds change when `ρ*` anneals) and the equality
    /// constraint `Σ y_i α_i = 0` is repaired by deterministically
    /// draining the surplus side in index order. A warm start therefore
    /// never affects *what* the solver converges to (the stopping
    /// criterion is unchanged), only how many iterations it takes
    /// (`tests/golden_solver.rs` pins one round's pair: 18 warm against 67
    /// cold); `warm = None` or an all-zero seed is the cold solve bit for
    /// bit.
    ///
    /// # Errors
    /// An empty store, labels or bounds of another length, a label other
    /// than `±1` or a bound that is not positive and finite is rejected
    /// before any kernel is evaluated. A two-class solve first computes
    /// the diagonal if no earlier solve or [`Self::served`] provided it,
    /// then checks it: a non-finite `K(i, i)` is reported as
    /// [`SvmError::NonFiniteKernel`] at `(i, i)`. For every kernel in
    /// this workspace a sample containing NaN/∞ poisons its own
    /// diagonal entry, so this is equivalent to the full-matrix scan of
    /// the precomputed path.
    pub fn solve(
        &mut self,
        labels: &[f64],
        upper_bounds: &[f64],
        params: &SmoParams,
        warm: Option<&[f64]>,
    ) -> Result<Dual, SvmError> {
        validate(self.samples.len(), labels, upper_bounds)?;
        if let Some(sign) = single_class_sign(labels) {
            return Ok(Dual::constant(labels.len(), sign));
        }
        if self.diag.is_empty() {
            let kernel = &self.kernel;
            self.diag = self.samples.iter().map(|&s| kernel.compute(s, s)).collect();
        }
        if let Some(i) = self.diag.iter().position(|v| !v.is_finite()) {
            return Err(SvmError::NonFiniteKernel { row: i, col: i });
        }
        let (hits, misses) = (self.hits, self.misses);
        let mut dual = solve_dual(self, labels, upper_bounds, params, warm);
        dual.stats.cache_hits = self.hits - hits;
        dual.stats.cache_misses = self.misses - misses;
        Ok(dual)
    }

    /// Hinge slacks `ξ_t = max(0, 1 − y_t·f(x_t))` of the samples `from..`
    /// under `dual`, which [`Self::solve`] returned for this store's
    /// current samples and `labels` (the `y_t` are the same labels). `f`
    /// is read from the support vectors' rows and is bit-identical to the
    /// model's [`crate::SvmModel::decision_batch`]: the bias first, then
    /// `α_i·y_i` times `K(x_i, x_t)`, support vectors in index order. A
    /// dual with no support vectors touches no row.
    ///
    /// # Panics
    /// Panics if `dual` or `labels` does not span this store's samples.
    pub fn slacks(&mut self, dual: &Dual, labels: &[f64], from: usize) -> Vec<f64> {
        let n = self.samples.len();
        assert_eq!(dual.alpha.len(), n, "not this store's dual");
        assert_eq!(labels.len(), n, "not this store's labels");
        let (bias, support) = dual.expansion(labels);
        let mut f = vec![bias; n - from];
        for (i, coef) in support {
            for (ft, &k) in f.iter_mut().zip(&self.row(i)[from..]) {
                *ft += coef * k;
            }
        }
        f.iter()
            .zip(&labels[from..])
            .map(|(&ft, &y)| (1.0 - y * ft).max(0.0))
            .collect()
    }

    /// The machine of `dual`, which [`Self::solve`] returned for this
    /// store's current samples and `labels`: the only place a
    /// [`TrainedSvm`] is built. Its support vectors (the samples whose
    /// `α_i` exceeds `10⁻⁹`) are cloned here, once, and this is the only
    /// copy any solve path makes of a training sample.
    ///
    /// # Panics
    /// Panics if `dual` or `labels` does not span this store's samples.
    pub fn machine(&self, dual: Dual, labels: &[f64]) -> TrainedSvm<S, K>
    where
        K: Clone,
    {
        let n = self.samples.len();
        assert_eq!(dual.alpha.len(), n, "not this store's dual");
        assert_eq!(labels.len(), n, "not this store's labels");
        let (bias, support) = dual.expansion(labels);
        let support_vectors = support.iter().map(|&(i, _)| self.samples[i].to_owned());
        let coefficients = support.iter().map(|&(_, coef)| coef).collect();
        TrainedSvm {
            model: SvmModel::new(
                self.kernel.clone(),
                support_vectors.collect(),
                coefficients,
                bias,
            ),
            alpha: dual.alpha,
            stats: dual.stats,
        }
    }

    /// Computes row `i`, mirroring entries from already-resident rows
    /// (`K(i,t) = K(t,i)`, bitwise for the symmetric kernels used here) so
    /// a store's solves together make at most the `n(n+1)/2` evaluations
    /// of the eager symmetric fill.
    fn compute_row(&self, i: usize) -> Vec<f64> {
        let si = self.samples[i];
        let value = |(t, &st): (usize, &&S)| match self.rows[t].as_deref() {
            _ if t == i => self.diag[i],
            Some(rt) => rt[i],
            None => self.kernel.compute(si, st),
        };
        self.samples.iter().enumerate().map(value).collect()
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

    /// Row `i`, which [`Self::ensure`] has made resident.
    fn resident(&self, i: usize) -> &[f64] {
        // lrf-lint: allow(service-panic): both callers ensure row `i` just
        // before, and a computed row is never dropped while the store lives
        self.rows[i].as_deref().expect("row resident after ensure")
    }
}

impl<S, K> KernelRows for KernelCache<'_, S, K>
where
    S: ?Sized + ToOwned,
    K: Kernel<S>,
{
    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    fn row(&mut self, i: usize) -> &[f64] {
        self.ensure(i);
        self.resident(i)
    }

    fn pair(&mut self, i: usize, j: usize) -> (&[f64], &[f64]) {
        assert_ne!(i, j, "working-set pair must be distinct");
        self.ensure(i);
        self.ensure(j);
        (self.resident(i), self.resident(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::{gram_matrix, GramMatrix};
    use crate::kernel::{LinearKernel, RbfKernel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    }

    fn samples_from(flat: &[f64], dims: usize) -> Vec<Vec<f64>> {
        flat.chunks(dims).map(<[f64]>::to_vec).collect()
    }

    /// A store over `samples` with its diagonal computed, as a solve
    /// leaves it.
    fn store<K: Kernel<[f64]>>(kernel: K, samples: &[Vec<f64>]) -> KernelCache<'_, [f64], K> {
        let mut cache = KernelCache::new(kernel, samples.iter().map(Vec::as_slice).collect());
        cache.diag = samples.iter().map(|s| cache.kernel.compute(s, s)).collect();
        cache
    }

    impl<S: ?Sized, K> KernelCache<'_, S, K> {
        /// `(hits, misses)` over the store's life.
        fn cache_stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }

    #[test]
    fn diagonal_validation_reports_nan_sample() {
        let samples = [vec![1.0], vec![f64::NAN]];
        let mut cache = KernelCache::new(LinearKernel, samples.iter().map(Vec::as_slice).collect());
        let bounds = [1.0, 1.0];
        let params = SmoParams::default();
        // One class: the shortcut answers before any kernel is evaluated.
        assert!(cache.solve(&[1.0, 1.0], &bounds, &params, None).is_ok());
        let err = cache.solve(&[1.0, -1.0], &bounds, &params, None).err();
        assert_eq!(err, Some(SvmError::NonFiniteKernel { row: 1, col: 1 }));
    }

    #[test]
    fn served_store_keeps_the_non_finite_check() {
        let samples = [vec![1.0], vec![2.0], vec![f64::NAN], vec![3.0]];
        let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
        let rows = |n: usize| -> Vec<Vec<f64>> {
            let row = |i: usize| {
                let x: &[f64] = refs[i];
                refs[..n]
                    .iter()
                    .map(|&t| LinearKernel.compute(x, t))
                    .collect()
            };
            (0..n).map(row).collect()
        };
        let params = SmoParams::default();
        let mut cache = KernelCache::new(LinearKernel, refs[..2].to_vec()).served(rows(2));
        cache.solve(&[1.0, -1.0], &[1.0; 2], &params, None).unwrap();
        let mut cache = KernelCache::new(LinearKernel, refs.clone()).served(rows(4));
        let labels = [1.0, -1.0, 1.0, -1.0];
        let err = cache.solve(&labels, &[1.0; 4], &params, None).err();
        assert_eq!(err, Some(SvmError::NonFiniteKernel { row: 2, col: 2 }));
        // The check stays armed: the next solve reports the sample again.
        let err = cache.solve(&labels, &[1.0; 4], &params, None).err();
        assert_eq!(err, Some(SvmError::NonFiniteKernel { row: 2, col: 2 }));
    }

    #[test]
    fn rows_match_gram_and_counters_track_accesses() {
        let flat: Vec<f64> = (0..24).map(|i| (i as f64 * 0.37).cos()).collect();
        let samples = samples_from(&flat, 3);
        let kernel = RbfKernel::new(0.6);
        let gram = gram_matrix(&kernel, &samples);
        let mut cache = store(kernel, &samples);
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
        let mut cache = store(kernel, &samples);
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

    /// Gaussian RBF over sparse `(index, value)` samples, ascending by
    /// index: the shape of the log view's kernel, with a merge whose sum
    /// runs in index order, so it is symmetric bit for bit.
    #[derive(Clone, Copy, Debug)]
    struct SparseRbf(f64);

    impl Kernel<[(u32, f64)]> for SparseRbf {
        fn compute(&self, a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
            let (mut i, mut j, mut d2) = (0, 0, 0.0);
            while i < a.len() || j < b.len() {
                let d = match (a.get(i), b.get(j)) {
                    (Some(&(ia, va)), Some(&(ib, vb))) if ia == ib => {
                        i += 1;
                        j += 1;
                        va - vb
                    }
                    (Some(&(ia, va)), Some(&(ib, _))) if ia < ib => {
                        i += 1;
                        va
                    }
                    (Some(&(_, va)), None) => {
                        i += 1;
                        va
                    }
                    (_, Some(&(_, vb))) => {
                        j += 1;
                        vb
                    }
                    (None, None) => unreachable!(),
                };
                d2 += d * d;
            }
            (-self.0 * d2).exp()
        }
    }

    /// Runs `solves` warm or cold solves over `samples` in one store —
    /// each with freshly drawn labels (sometimes one class) and bounds —
    /// and holds every dual to the same seeded solve in a fresh store and
    /// its slacks to that machine's `TrainedSvm::slacks`, bit for bit. A dual with no
    /// support vectors must read its slacks without touching a row.
    fn check_store_slacks<S, K>(samples: &[&S], kernel: K, seed: u64, solves: usize)
    where
        S: ?Sized + ToOwned,
        K: Kernel<S> + Clone,
    {
        let n = samples.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = KernelCache::new(kernel.clone(), samples.to_vec());
        let params = SmoParams::default();
        let mut prev: Option<Vec<f64>> = None;
        for _ in 0..solves {
            let mut labels: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                .collect();
            if rng.gen_bool(0.2) {
                let first = labels[0];
                labels.fill(first);
            }
            let bounds: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..10.0)).collect();
            let warm = prev.as_deref().filter(|_| rng.gen_bool(0.7));
            let dual = cache.solve(&labels, &bounds, &params, warm).unwrap();
            let mut fresh = KernelCache::new(kernel.clone(), samples.to_vec());
            let fresh_dual = fresh.solve(&labels, &bounds, &params, warm).unwrap();
            let one = fresh.machine(fresh_dual, &labels);
            assert_eq!(dual.alpha, one.alpha);
            assert_eq!(dual.bias.to_bits(), one.model.bias().to_bits());
            assert_eq!(dual.stats.iterations, one.stats.iterations);
            assert_eq!(dual.stats.n_support, one.stats.n_support);

            let from = rng.gen_range(0..n);
            let before = cache.cache_stats();
            let got = cache.slacks(&dual, &labels, from);
            let want = one.slacks(&samples[from..], &labels[from..]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "from {from}");
            if dual.stats.n_support == 0 {
                assert_eq!(cache.cache_stats(), before, "a constant machine read a row");
            }
            prev = Some(dual.alpha);
        }
    }

    /// A kernel that counts its evaluations.
    #[derive(Clone)]
    struct Counting(RbfKernel, std::rc::Rc<std::cell::Cell<usize>>);

    impl Kernel<[f64]> for Counting {
        fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
            self.1.set(self.1.get() + 1);
            self.0.compute(a, b)
        }
    }

    /// A store served its rows solves to the same dual in every bit as
    /// one that computes them, evaluates no kernel, and finds every row it reads; a non-finite
    /// served diagonal is reported like a computed one.
    #[test]
    fn served_rows_solve_like_computed_ones_and_evaluate_nothing() {
        let flat: Vec<f64> = (0..30).map(|i| (i as f64 * 0.71).sin()).collect();
        let samples = samples_from(&flat, 3);
        let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
        let kernel = RbfKernel::new(0.8);
        let rows = |n: usize| -> Vec<Vec<f64>> {
            let row = |i: usize| {
                refs[..n]
                    .iter()
                    .map(|&t| kernel.compute(refs[i], t))
                    .collect()
            };
            (0..n).map(row).collect()
        };
        let labels: Vec<f64> = (0..10)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let (bounds, params) = (vec![1.0; 10], SmoParams::default());
        let evaluations = std::rc::Rc::default();
        for n in [6, 10] {
            let mut computed = KernelCache::new(kernel, refs[..n].to_vec());
            let counting = Counting(kernel, std::rc::Rc::clone(&evaluations));
            let mut served = KernelCache::new(counting, refs[..n].to_vec()).served(rows(n));
            let a = served
                .solve(&labels[..n], &bounds[..n], &params, None)
                .unwrap();
            let b = computed
                .solve(&labels[..n], &bounds[..n], &params, None)
                .unwrap();
            assert_eq!(a.alpha, b.alpha);
            assert_eq!(a.bias.to_bits(), b.bias.to_bits());
            assert_eq!(a.stats.iterations, b.stats.iterations);
            assert_eq!(a.stats.cache_misses, 0);
        }
        assert_eq!(evaluations.get(), 0);

        let mut poisoned = rows(4);
        poisoned[2][2] = f64::NAN;
        let mut cache = KernelCache::new(kernel, refs[..4].to_vec()).served(poisoned);
        let err = cache.solve(&labels[..4], &bounds[..4], &params, None).err();
        assert_eq!(err, Some(SvmError::NonFiniteKernel { row: 2, col: 2 }));
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
            let mut cache = store(kernel, &samples);
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

        /// A store served its rows, cut from rows over a larger sample set
        /// (as lrf-core cuts a fit's rows from its candidates'), serves
        /// rows bit-identical to direct evaluation and to a store that
        /// computes its own, and solves to the same dual in every bit.
        #[test]
        fn served_rows_equal_a_whole_store_and_direct_evaluation(
            flat in proptest::collection::vec(-3.0f64..3.0, 36),
            split in 2usize..=12,
            touched in proptest::collection::vec(0usize..12, 0..8),
            gamma in 0.05f64..2.0,
        ) {
            let samples = samples_from(&flat, 3);
            let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
            let kernel = RbfKernel::new(gamma);
            let labels: Vec<f64> = (0..split).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
            let bounds = vec![1.0; split];
            let params = SmoParams::default();

            let direct = |i: usize| -> Vec<f64> {
                refs.iter().map(|&t| kernel.compute(refs[i], t)).collect()
            };
            let rows = (0..split).map(|i| direct(i)[..split].to_vec()).collect();
            let mut served = KernelCache::new(kernel, refs[..split].to_vec()).served(rows);
            let mut whole = KernelCache::new(kernel, refs[..split].to_vec());
            let a = served.solve(&labels, &bounds, &params, None).unwrap();
            let b = whole.solve(&labels, &bounds, &params, None).unwrap();
            prop_assert_eq!(&a.alpha, &b.alpha);
            prop_assert_eq!(a.bias.to_bits(), b.bias.to_bits());
            // Rows the solve left out are computed in `touched`'s order,
            // each mirroring whichever rows are resident by then.
            for i in touched.iter().map(|&i| i % split).chain(0..split) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let direct = &direct(i)[..split];
                prop_assert_eq!(bits(served.row(i)), bits(direct), "row {}", i);
                prop_assert_eq!(bits(whole.row(i)), bits(direct), "row {}", i);
            }
        }

        /// Slacks read from a shared store equal the model's own decision
        /// arithmetic in every bit, on dense and sparse problems, across
        /// warm and cold solve sequences in one store.
        #[test]
        fn store_slacks_equal_model_slacks_bit_for_bit(
            seed in 0u64..10_000,
            n in 2usize..16,
            gamma in 0.05f64..2.0,
            solves in 1usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dense: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let refs: Vec<&[f64]> = dense.iter().map(Vec::as_slice).collect();
            check_store_slacks(&refs, RbfKernel::new(gamma), seed, solves);

            let sparse: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|_| {
                    let mut sample = Vec::new();
                    for k in 0..12u32 {
                        if rng.gen_bool(0.3) {
                            sample.push((k, if rng.gen_bool(0.5) { 1.0 } else { -1.0 }));
                        }
                    }
                    sample
                })
                .collect();
            let refs: Vec<&[(u32, f64)]> = sparse.iter().map(Vec::as_slice).collect();
            check_store_slacks(&refs, SparseRbf(gamma / 4.0), seed, solves);
        }
    }
}
