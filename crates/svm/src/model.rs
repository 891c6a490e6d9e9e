//! Trained SVM models: the decision function (a trained machine's hinge
//! slacks are read from its row store, the `cache` module). A model
//! scores one sample at a time, summing its support vectors' terms in
//! order; scoring is single-threaded here: callers that have cores to
//! spend (the evaluator's per-query threads) own the threads and hand
//! each one a slice of the work. A caller that scores the same candidates
//! round after round keeps the kernel rows instead of a model (lrf-core's
//! row blocks read a dual's [`crate::Dual::expansion`] against them, bit
//! for bit what the model would return).
//!
//! Models are generic over a possibly-unsized sample type `S` (e.g.
//! `[f64]`): the decision function *reads* borrowed samples, while the
//! support vectors are stored as `S::Owned` (e.g. `Vec<f64>`) so the model
//! stays self-contained after the training round's borrows end.

use crate::kernel::Kernel;
use crate::smo::SolveStats;
use std::borrow::Borrow;

/// A trained SVM decision function `f(x) = Σ_i coef_i · K(sv_i, x) + b` —
/// or, for degenerate single-class input, the constant class sign (`±1`,
/// no support vectors). Relevance-feedback rounds where the user marks
/// everything relevant (or everything irrelevant) produce the latter.
pub struct SvmModel<S: ?Sized + ToOwned, K> {
    kernel: K,
    support_vectors: Vec<S::Owned>,
    /// `α_i · y_i` per support vector.
    coefficients: Vec<f64>,
    bias: f64,
}

impl<S: ?Sized + ToOwned, K: Kernel<S>> SvmModel<S, K> {
    /// Builds a model from solver output (`bias = −ρ` in LIBSVM terms).
    pub(crate) fn new(
        kernel: K,
        support_vectors: Vec<S::Owned>,
        coefficients: Vec<f64>,
        bias: f64,
    ) -> Self {
        debug_assert_eq!(support_vectors.len(), coefficients.len());
        Self {
            kernel,
            support_vectors,
            coefficients,
            bias,
        }
    }

    /// The decision value `f(x)`; the predicted class is its sign, the
    /// magnitude is the (unnormalized) distance from the separating
    /// hyperplane — the quantity the paper calls `SVM_Dist`.
    pub(crate) fn decision(&self, x: &S) -> f64 {
        let mut f = self.bias;
        for (sv, &coef) in self.support_vectors.iter().zip(&self.coefficients) {
            f += coef * self.kernel.compute(sv.borrow(), x);
        }
        f
    }

    /// Bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Decision values for many samples: `f(x)` per sample, the bias
    /// first, then `coef_i · K(sv_i, x)` in support-vector order.
    pub fn decision_batch<B: Borrow<S>>(&self, xs: &[B]) -> Vec<f64> {
        xs.iter().map(|x| self.decision(x.borrow())).collect()
    }
}

/// Bundle [`crate::KernelCache::machine`] builds from a solve: the model
/// plus the full dual solution and solver statistics.
pub struct TrainedSvm<S: ?Sized + ToOwned, K> {
    /// The decision model.
    pub model: SvmModel<S, K>,
    /// The complete dual vector `α` over the training set (including
    /// non-support zeros) — used by tests and diagnostics.
    pub alpha: Vec<f64>,
    /// Solver diagnostics.
    pub stats: SolveStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{LinearKernel, RbfKernel};
    use crate::smo::{train, SmoParams};

    /// The per-sample arithmetic the row store is held to; production
    /// code reads slacks through `KernelCache::slacks`.
    impl<S: ?Sized + ToOwned, K: Kernel<S>> SvmModel<S, K> {
        /// Support vectors retained by the model (0 for constant models).
        pub(crate) fn support_vectors(&self) -> &[S::Owned] {
            &self.support_vectors
        }

        /// A constant-decision model, as a single-class training set
        /// yields.
        pub(crate) fn constant(kernel: K, sign: f64) -> Self {
            debug_assert!(sign == 1.0 || sign == -1.0);
            Self::new(kernel, Vec::new(), Vec::new(), sign)
        }

        /// Hinge slack `ξ = max(0, 1 − y·f(x))` from [`Self::decision`].
        pub(crate) fn hinge_slack(&self, x: &S, y: f64) -> f64 {
            (1.0 - y * self.decision(x)).max(0.0)
        }
    }

    impl<S: ?Sized + ToOwned, K: Kernel<S>> TrainedSvm<S, K> {
        /// Hinge slacks of a labeled set under this model:
        /// `ξ_i = max(0, 1 − y_i f(x_i))` — what
        /// [`crate::KernelCache::slacks`] must equal bit for bit.
        pub(crate) fn slacks<B: Borrow<S>>(&self, samples: &[B], labels: &[f64]) -> Vec<f64> {
            assert_eq!(samples.len(), labels.len());
            samples
                .iter()
                .zip(labels)
                .map(|(x, &y)| self.model.hinge_slack(x.borrow(), y))
                .collect()
        }
    }

    fn simple_model() -> SvmModel<[f64], LinearKernel> {
        // f(x) = 1·K([1], x) − 1·K([−1], x) + 0 = 2x for linear kernel.
        SvmModel::new(
            LinearKernel,
            vec![vec![1.0], vec![-1.0]],
            vec![1.0, -1.0],
            0.0,
        )
    }

    #[test]
    fn decision_is_linear_combination() {
        let m = simple_model();
        assert_eq!(m.decision(&[0.5]), 1.0);
        assert_eq!(m.decision(&[-2.0]), -4.0);
    }

    #[test]
    fn hinge_slack_formula() {
        let m = simple_model(); // f(x) = 2x
                                // y=+1, f=2·0.25=0.5 → slack 0.5
        assert!((m.hinge_slack(&[0.25], 1.0) - 0.5).abs() < 1e-12);
        // y=+1, f=4 → no slack
        assert_eq!(m.hinge_slack(&[2.0], 1.0), 0.0);
        // y=−1, f=4 → slack 5
        assert!((m.hinge_slack(&[2.0], -1.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn constant_model_reports_kind_and_value() {
        let m: SvmModel<[f64], LinearKernel> = SvmModel::constant(LinearKernel, -1.0);
        assert!(m.support_vectors().is_empty());
        assert_eq!(m.decision(&[99.0]), -1.0);
        // slack of a "positive" sample under the constant −1 model is 2
        assert_eq!(m.hinge_slack(&[0.0], 1.0), 2.0);
    }

    #[test]
    fn slacks_align_with_samples() {
        let samples = vec![vec![-1.0], vec![1.0]];
        let labels = [-1.0, 1.0];
        let svm = train(
            &samples,
            &labels,
            &[10.0, 10.0],
            LinearKernel,
            &SmoParams::default(),
        )
        .unwrap();
        let slacks = svm.slacks(&samples, &labels);
        assert_eq!(slacks.len(), 2);
        // Separable with margin exactly 1 → slacks ~ 0.
        assert!(slacks.iter().all(|&s| s < 1e-6), "{slacks:?}");
    }

    /// A deterministic pseudo-random matrix (no RNG dependency needed).
    fn waves(n: usize, dim: usize, phase: f64) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i as f64) * 0.137 + phase).sin())
            .collect()
    }

    fn batch_model<K: Kernel<[f64]> + Clone>(
        kernel: K,
        n_sv: usize,
        dim: usize,
    ) -> SvmModel<[f64], K> {
        let svs: Vec<Vec<f64>> = waves(n_sv, dim, 0.3)
            .chunks(dim)
            .map(<[f64]>::to_vec)
            .collect();
        let coefs: Vec<f64> = (0..n_sv)
            .map(|i| if i % 2 == 0 { 0.7 } else { -0.9 })
            .collect();
        SvmModel::new(kernel, svs, coefs, -0.05)
    }

    /// decision_batch must be bit-identical to the per-sample decision loop
    /// for every dense kernel.
    #[test]
    fn decision_batch_is_bit_identical_to_serial() {
        let dim = 8;
        let n = 1345;
        let data = waves(n, dim, 1.7);
        let rows: Vec<&[f64]> = data.chunks_exact(dim).collect();

        fn check<K: Kernel<[f64]>>(model: &SvmModel<[f64], K>, rows: &[&[f64]]) {
            let serial: Vec<f64> = rows.iter().map(|r| model.decision(r)).collect();
            let batch = model.decision_batch(rows);
            assert_eq!(batch, serial, "batch diverged from serial");
        }

        check(&batch_model(LinearKernel, 8, dim), &rows);
        check(&batch_model(RbfKernel::new(0.4), 8, dim), &rows);
        // The degenerate constant model must batch too.
        let constant: SvmModel<[f64], RbfKernel> = SvmModel::constant(RbfKernel::new(1.0), 1.0);
        check(&constant, &rows);
    }

    /// decision_batch over the row views of one flat matrix — the
    /// whole-database scoring shape — equals the serial loop, for a
    /// constant model and for one to many support vectors.
    #[test]
    fn decision_batch_over_row_views_matches_decision() {
        let dim = 6;
        let n = 1101;
        let data = waves(n, dim, 0.9);
        let rows: Vec<&[f64]> = data.chunks_exact(dim).collect();
        for n_sv in [0usize, 1, 8, 64] {
            let model = if n_sv == 0 {
                SvmModel::constant(RbfKernel::new(0.25), -1.0)
            } else {
                batch_model(RbfKernel::new(0.25), n_sv, dim)
            };
            let serial: Vec<f64> = rows.iter().map(|r| model.decision(r)).collect();
            assert_eq!(model.decision_batch(&rows), serial, "n_sv={n_sv}");
        }
    }

    #[test]
    fn small_batches_stay_serial_and_correct() {
        let model = batch_model(RbfKernel::new(0.5), 4, 3);
        let data = waves(10, 3, 0.1);
        let rows: Vec<&[f64]> = data.chunks_exact(3).collect();
        let serial: Vec<f64> = rows.iter().map(|r| model.decision(r)).collect();
        assert_eq!(model.decision_batch(&rows), serial);
        // Empty input is fine.
        let empty: Vec<&[f64]> = Vec::new();
        assert!(model.decision_batch(&empty).is_empty());
    }
}
