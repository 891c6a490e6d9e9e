//! Sequential Minimal Optimization for the C-SVC dual with per-sample
//! upper bounds.
//!
//! This is the working-set algorithm of LIBSVM (Fan, Chen & Lin's
//! second-order selection, "WSS 2", in the `working_set` module) with the
//! parts of the LIBSVM training path a feedback round's tens of samples can
//! use: kernel rows computed lazily and kept in a row store (the `cache`
//! module) and **warm starts** that resume from a previous round's dual
//! solution.
//! The one extension over stock LIBSVM is the **individual upper bound
//! `C_i` per sample**, which is exactly the modification the paper made to
//! LIBSVM: labeled points keep `C`, the unlabeled transductive points get
//! `ρ*·C` (Eq. 2/3 of the paper).
//!
//! Every solve runs in a row store: [`crate::KernelCache::solve`] returns
//! a [`Dual`] — `α`, the bias and [`SolveStats`] — without building a
//! model, optionally seeded with a previous solution whose alphas are
//! clipped to the new bounds and repaired onto `Σ y_i α_i = 0`;
//! [`crate::KernelCache::slacks`] reads a dual's hinge slacks from the
//! stored rows, and [`crate::KernelCache::machine`] is the one place a
//! dual becomes a [`TrainedSvm`]: the support vectors are cloned there and
//! nowhere else, so a caller that re-solves a hundred times and keeps only
//! the last machine clones them once. [`train`] is a cold store used for
//! one solve and one machine.
//!
//! The test module runs the same loop over an eager symmetric Gram matrix
//! (`train_precomputed`) as the bit-exact oracle: the lazy path reproduces
//! it bit for bit (lazily computed rows are bitwise identical to
//! precomputed ones).
//!
//! Optimality: the pair `(m(α), M(α))` of maximal KKT violations over the
//! index sets
//!
//! ```text
//! I_up(α)  = {t | α_t < C_t, y_t = +1} ∪ {t | α_t > 0, y_t = −1}
//! I_low(α) = {t | α_t < C_t, y_t = −1} ∪ {t | α_t > 0, y_t = +1}
//! ```
//!
//! narrows until `m(α) − M(α) ≤ ε` ([`EPS`]: `10⁻³`, LIBSVM's default).

use crate::cache::{KernelCache, KernelRows};
use crate::error::SvmError;
use crate::kernel::Kernel;
use crate::model::TrainedSvm;
use crate::working_set::{select_working_set, update_pair};
use std::borrow::Borrow;

/// Stopping tolerance on the KKT violation gap (LIBSVM's default).
pub const EPS: f64 = 1e-3;
/// Alphas at or below this are dropped from the support set when building
/// the model.
const SV_THRESHOLD: f64 = 1e-9;

/// The solver parameter a caller has had reason to set. The stopping
/// tolerance ([`EPS`]), the curvature floor (`TAU`) and the
/// support-vector threshold have only ever had one value and are
/// constants of this crate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmoParams {
    /// Hard cap on SMO iterations (working-set updates). The cap exists so
    /// a pathological kernel cannot hang a retrieval request; hitting it is
    /// reported through [`SolveStats::converged`].
    pub max_iter: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        Self { max_iter: 100_000 }
    }
}

/// Diagnostics from one solver run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Number of working-set updates performed.
    pub iterations: usize,
    /// Whether the KKT gap reached [`EPS`] (vs. hitting `max_iter`).
    pub converged: bool,
    /// Final dual objective `½αᵀQα − eᵀα`.
    pub objective: f64,
    /// Number of support vectors (`α_i > 10⁻⁹`).
    pub n_support: usize,
    /// This solve's kernel-row accesses served by an already-computed row
    /// — one an earlier solve in the same store may have computed (0 on
    /// the precomputed path).
    pub cache_hits: u64,
    /// This solve's kernel-row accesses that computed the row (0 on the
    /// precomputed path).
    pub cache_misses: u64,
}

/// Trains a C-SVC with per-sample upper bounds.
///
/// * `samples` — training points; anything that borrows as the kernel's
///   sample type is accepted (owned `Vec<f64>`s, borrowed `&[f64]` row
///   views of a flat feature matrix, `&SparseVector`s). Training never
///   clones a sample — only the retained support vectors are copied (via
///   `ToOwned`) into the model.
/// * `labels` — `+1.0` / `-1.0` per sample.
/// * `upper_bounds` — `C_i > 0` per sample.
///
/// Returns a [`TrainedSvm`] bundling the decision model, the full dual
/// solution, and solver statistics: one cold [`crate::KernelCache::solve`]
/// in a store of its own, turned into its machine by
/// [`crate::KernelCache::machine`]. A seeded solve, or several solves
/// over one sample set, go through a store the caller keeps.
///
/// **Degenerate input:** when every label has the same sign the dual forces
/// `α = 0` and the margin is meaningless; the returned model is a constant
/// decision equal to that sign (no support vectors), which keeps
/// relevance-feedback rounds total when a user marks everything relevant.
pub fn train<S, B, K>(
    samples: &[B],
    labels: &[f64],
    upper_bounds: &[f64],
    kernel: K,
    params: &SmoParams,
) -> Result<TrainedSvm<S, K>, SvmError>
where
    S: ?Sized + ToOwned,
    B: Borrow<S>,
    K: Kernel<S> + Clone,
{
    let mut store = KernelCache::new(kernel, samples.iter().map(Borrow::borrow).collect());
    let dual = store.solve(labels, upper_bounds, params, None)?;
    Ok(store.machine(dual, labels))
}

/// Detects the single-class degenerate case shared by every entry point,
/// returning the constant decision sign when only one label is present.
/// `labels` has passed [`validate`]: it is non-empty and all `±1`.
pub(crate) fn single_class_sign(labels: &[f64]) -> Option<f64> {
    let first = labels[0];
    labels.iter().all(|&y| y == first).then_some(first)
}

pub(crate) fn validate(n_samples: usize, labels: &[f64], bounds: &[f64]) -> Result<(), SvmError> {
    if n_samples == 0 {
        return Err(SvmError::EmptyTrainingSet);
    }
    if labels.len() != n_samples || bounds.len() != n_samples {
        return Err(SvmError::LengthMismatch {
            samples: n_samples,
            labels: labels.len(),
            bounds: bounds.len(),
        });
    }
    for (i, &y) in labels.iter().enumerate() {
        if y != 1.0 && y != -1.0 {
            return Err(SvmError::InvalidLabel { index: i });
        }
    }
    for (i, &c) in bounds.iter().enumerate() {
        if !(c > 0.0 && c.is_finite()) {
            return Err(SvmError::InvalidBound { index: i });
        }
    }
    Ok(())
}

/// One solve's dual solution: what a re-solving caller keeps between
/// solves (the warm seed, the hinge slacks) and what
/// [`crate::KernelCache::machine`] turns into a model. Holds no sample.
#[derive(Clone, Debug)]
pub struct Dual {
    /// The complete dual vector `α` over the store's samples, non-support
    /// zeros included.
    pub alpha: Vec<f64>,
    /// Solver diagnostics.
    pub stats: SolveStats,
    /// `b = −ρ` in LIBSVM terms.
    pub(crate) bias: f64,
}

impl Dual {
    /// The decision function this dual defines over its store's samples,
    /// which were solved with `labels`: the bias `b` and one `(i, α_i·y_i)`
    /// per support vector (`α_i > 10⁻⁹`), in sample order, so that
    /// `f(x) = b + Σ coef·K(x_i, x)` summed in that order. These are the
    /// terms and the order of [`crate::KernelCache::machine`]'s model, so a
    /// caller that holds the rows `K(x_i, ·)` scores bit-identically to
    /// the model's [`crate::SvmModel::decision_batch`] without building it.
    pub fn expansion(&self, labels: &[f64]) -> (f64, Vec<(usize, f64)>) {
        let terms = self.alpha.iter().zip(labels).enumerate();
        let support = terms.filter(|(_, (&a, _))| a > SV_THRESHOLD);
        (self.bias, support.map(|(i, (&a, &y))| (i, a * y)).collect())
    }

    /// The degenerate single-class solution: `α = 0` and a decision that
    /// is the constant `sign`.
    pub(crate) fn constant(n: usize, sign: f64) -> Self {
        Self {
            alpha: vec![0.0; n],
            stats: SolveStats {
                converged: true,
                ..SolveStats::default()
            },
            bias: sign,
        }
    }
}

/// Clips a warm-start seed into the new box `[0, C_i]` and repairs the
/// equality constraint `Σ y_i α_i = 0` by draining the surplus side in
/// deterministic index order. Non-finite seed entries and any tail beyond
/// the seed's length start at zero.
fn clip_and_repair(warm: &[f64], y: &[f64], c: &[f64]) -> Vec<f64> {
    let n = y.len();
    let mut a = vec![0.0f64; n];
    for i in 0..n.min(warm.len()) {
        let v = warm[i];
        if v.is_finite() {
            a[i] = v.clamp(0.0, c[i]);
        }
    }
    let mut surplus: f64 = a.iter().zip(y).map(|(ai, yi)| ai * yi).sum();
    for i in 0..n {
        if surplus == 0.0 {
            break;
        }
        if surplus > 0.0 && y[i] > 0.0 && a[i] > 0.0 {
            let d = a[i].min(surplus);
            a[i] -= d;
            surplus -= d;
        } else if surplus < 0.0 && y[i] < 0.0 && a[i] > 0.0 {
            let d = a[i].min(-surplus);
            a[i] -= d;
            surplus += d;
        }
    }
    a
}

/// `G_i = Σ_j Q_ij α_j − 1` computed from scratch (the initial gradient
/// of a warm-started solve). Rows are only touched for nonzero alphas.
fn recompute_gradient<Q: KernelRows>(q: &mut Q, y: &[f64], alpha: &[f64], g: &mut [f64]) {
    let n = y.len();
    g.fill(-1.0);
    for j in 0..n {
        if alpha[j] != 0.0 {
            let coef = alpha[j] * y[j];
            let kj = q.row(j);
            for t in 0..n {
                g[t] += y[t] * coef * kj[t];
            }
        }
    }
}

/// Core SMO loop over any [`KernelRows`] provider (lazy cache or
/// precomputed matrix). The decision function of the returned solution is
/// `f(x) = Σ α_i y_i K(x_i, x) + bias`; its row-access counts are left at
/// zero for the row store to fill in.
pub(crate) fn solve_dual<Q: KernelRows>(
    q: &mut Q,
    y: &[f64],
    c: &[f64],
    params: &SmoParams,
    warm: Option<&[f64]>,
) -> Dual {
    let n = y.len();
    let qd: Vec<f64> = (0..n).map(|i| q.diag(i)).collect();

    let mut alpha;
    let mut g = vec![-1.0f64; n];
    match warm {
        Some(w) => {
            alpha = clip_and_repair(w, y, c);
            recompute_gradient(q, y, &alpha, &mut g);
        }
        None => alpha = vec![0.0f64; n],
    }

    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < params.max_iter {
        let Some(pair) = select_working_set(q, &qd, y, c, &alpha, &g) else {
            converged = true;
            break;
        };
        iterations += 1;
        update_pair(q, &qd, y, c, &mut alpha, &mut g, pair);
    }

    let rho = calculate_rho(y, c, &alpha, &g);

    // ½αᵀQα − eᵀα = ½ Σ_i α_i (G_i − 1), since G = Qα − e.
    let mut objective = 0.0;
    for t in 0..n {
        objective += 0.5 * alpha[t] * (g[t] - 1.0);
    }

    let n_support = alpha.iter().filter(|&&a| a > SV_THRESHOLD).count();
    Dual {
        alpha,
        stats: SolveStats {
            iterations,
            converged,
            objective,
            n_support,
            ..SolveStats::default()
        },
        bias: -rho,
    }
}

/// Bias recovery (LIBSVM `calculate_rho`): average `y_t G_t` over free
/// support vectors, falling back to the midpoint of the feasibility
/// interval when no variable is free.
fn calculate_rho(y: &[f64], c: &[f64], alpha: &[f64], g: &[f64]) -> f64 {
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut sum_free = 0.0;
    let mut n_free = 0usize;
    for t in 0..y.len() {
        let ygt = y[t] * g[t];
        if alpha[t] >= c[t] {
            if y[t] < 0.0 {
                upper = upper.min(ygt);
            } else {
                lower = lower.max(ygt);
            }
        } else if alpha[t] <= 0.0 {
            if y[t] > 0.0 {
                upper = upper.min(ygt);
            } else {
                lower = lower.max(ygt);
            }
        } else {
            n_free += 1;
            sum_free += ygt;
        }
    }
    if n_free > 0 {
        sum_free / n_free as f64
    } else {
        (upper + lower) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle::gram_matrix;
    use crate::kernel::{LinearKernel, RbfKernel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn default_params() -> SmoParams {
        SmoParams::default()
    }

    /// Trains over an eagerly precomputed Gram matrix — the bit-exact
    /// reference the lazy-cache path is validated against. The full matrix
    /// is scanned for non-finite entries up front (the lazy path checks the
    /// kernel diagonal instead, which the dense and sparse kernels here
    /// poison on any NaN/∞ sample).
    ///
    /// Warm starts are deliberately not offered here: the reference is the
    /// deterministic from-zero solve. Its model is built by the same
    /// `KernelCache::machine` as every other solve's, from a store that
    /// never computes a row.
    fn train_precomputed<S, B, K>(
        samples: &[B],
        labels: &[f64],
        upper_bounds: &[f64],
        kernel: K,
        params: &SmoParams,
    ) -> Result<TrainedSvm<S, K>, SvmError>
    where
        S: ?Sized + ToOwned,
        B: Borrow<S>,
        K: Kernel<S> + Clone,
    {
        validate(samples.len(), labels, upper_bounds)?;
        let store = KernelCache::new(kernel, samples.iter().map(Borrow::borrow).collect());
        if let Some(sign) = single_class_sign(labels) {
            let dual = Dual::constant(samples.len(), sign);
            return Ok(store.machine(dual, labels));
        }

        let n = samples.len();
        let mut k = gram_matrix::<S, B, K>(&store.kernel, samples);
        for (idx, &v) in k.as_slice().iter().enumerate() {
            if !v.is_finite() {
                return Err(SvmError::NonFiniteKernel {
                    row: idx / n,
                    col: idx % n,
                });
            }
        }

        let dual = solve_dual(&mut k, labels, upper_bounds, params, None);
        Ok(store.machine(dual, labels))
    }

    /// [`train`] seeded with `warm`: one store, one seeded solve, its
    /// machine.
    fn train_seeded<K: Kernel<[f64]> + Clone>(
        samples: &[Vec<f64>],
        labels: &[f64],
        upper_bounds: &[f64],
        kernel: K,
        warm: &[f64],
    ) -> TrainedSvm<[f64], K> {
        let mut store = KernelCache::new(kernel, samples.iter().map(Vec::as_slice).collect());
        let dual = store
            .solve(labels, upper_bounds, &default_params(), Some(warm))
            .unwrap();
        store.machine(dual, labels)
    }

    /// Independent KKT verification for the solution of a C-SVC dual.
    /// Returns the maximum violation found.
    fn kkt_violation<K: Kernel<[f64]>>(
        samples: &[Vec<f64>],
        labels: &[f64],
        bounds: &[f64],
        kernel: &K,
        trained: &TrainedSvm<[f64], K>,
    ) -> f64 {
        let mut worst: f64 = 0.0;
        // Dual feasibility: Σ α_i y_i = 0 and 0 ≤ α ≤ C.
        let balance: f64 = trained.alpha.iter().zip(labels).map(|(a, y)| a * y).sum();
        worst = worst.max(balance.abs());
        for (i, &a) in trained.alpha.iter().enumerate() {
            worst = worst.max((-a).max(a - bounds[i]).max(0.0));
        }
        // Stationarity through the margins: α=0 ⇒ y f ≥ 1; α=C ⇒ y f ≤ 1;
        // 0<α<C ⇒ y f ≈ 1. The model drops tiny alphas, so recompute the
        // decision from the full alpha vector.
        for (i, x) in samples.iter().enumerate() {
            let mut f = trained.model.bias();
            for (j, xj) in samples.iter().enumerate() {
                if trained.alpha[j] > 0.0 {
                    f += trained.alpha[j] * labels[j] * kernel.compute(xj, x);
                }
            }
            let margin = labels[i] * f;
            let a = trained.alpha[i];
            if a <= 1e-8 {
                worst = worst.max((1.0 - margin).max(0.0));
            } else if a >= bounds[i] - 1e-8 {
                worst = worst.max((margin - 1.0).max(0.0));
            } else {
                worst = worst.max((margin - 1.0).abs());
            }
        }
        worst
    }

    /// A reproducible two-cluster Gaussian problem used by the new
    /// equivalence tests.
    fn gaussian_problem(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            samples.push(vec![
                y * 0.8 + rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.0..1.0),
            ]);
            labels.push(y);
        }
        (samples, labels)
    }

    #[test]
    fn two_point_problem_has_known_solution() {
        // x = −1 (y=−1), x = +1 (y=+1), linear kernel, large C:
        // α₁ = α₂ = 0.5, f(x) = x, b = 0.
        let samples = vec![vec![-1.0], vec![1.0]];
        let labels = [-1.0, 1.0];
        let bounds = [100.0, 100.0];
        let svm = train(&samples, &labels, &bounds, LinearKernel, &default_params()).unwrap();
        assert!(svm.stats.converged);
        assert!((svm.alpha[0] - 0.5).abs() < 1e-6, "alpha {:?}", svm.alpha);
        assert!((svm.alpha[1] - 0.5).abs() < 1e-6);
        assert!(svm.model.bias().abs() < 1e-6);
        assert!((svm.model.decision(&[1.0]) - 1.0).abs() < 1e-6);
        assert!((svm.model.decision(&[-1.0]) + 1.0).abs() < 1e-6);
        assert!((svm.model.decision(&[0.25]) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn training_over_borrowed_row_views_matches_owned() {
        // The zero-copy contract: training on &[f64] views of one flat
        // matrix produces exactly the training result over owned Vecs.
        let flat: Vec<f64> = (0..20).map(|i| (i as f64 * 0.43).sin()).collect();
        let owned: Vec<Vec<f64>> = flat.chunks(2).map(<[f64]>::to_vec).collect();
        let views: Vec<&[f64]> = flat.chunks(2).collect();
        let labels: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let bounds = vec![5.0; 10];
        let kernel = RbfKernel::new(0.9);
        let a = train(&owned, &labels, &bounds, kernel, &default_params()).unwrap();
        let b = train(&views, &labels, &bounds, kernel, &default_params()).unwrap();
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.model.bias(), b.model.bias());
        assert_eq!(a.model.support_vectors(), b.model.support_vectors());
        let probe = [0.3, -0.3];
        assert_eq!(a.model.decision(&probe), b.model.decision(&probe));
    }

    #[test]
    fn cached_path_matches_precomputed_bit_exactly() {
        // The lazy-row solver must reproduce the eager-Gram reference bit
        // for bit — same iterates, same alphas, same bias.
        let (samples, labels) = gaussian_problem(40, 11);
        let bounds = vec![3.0; samples.len()];
        let kernel = RbfKernel::new(0.7);
        let reference =
            train_precomputed(&samples, &labels, &bounds, kernel, &default_params()).unwrap();
        let cached = train(&samples, &labels, &bounds, kernel, &default_params()).unwrap();
        assert_eq!(cached.alpha, reference.alpha);
        assert_eq!(cached.model.bias(), reference.model.bias());
        assert_eq!(cached.stats.iterations, reference.stats.iterations);
        assert_eq!(cached.stats.objective, reference.stats.objective);
        assert!(cached.stats.cache_misses > 0);
    }

    #[test]
    fn default_params_match_oracle_past_n_iterations() {
        // n = 60 and 73 iterations: the solve runs longer than it has
        // points, and still equals the eager-Gram reference in every bit.
        let (samples, labels) = gaussian_problem(60, 5);
        let bounds = vec![5.0; samples.len()];
        let kernel = RbfKernel::new(0.6);
        let params = SmoParams::default();
        let cached = train(&samples, &labels, &bounds, kernel, &params).unwrap();
        let reference = train_precomputed(&samples, &labels, &bounds, kernel, &params).unwrap();
        assert!(cached.stats.iterations > samples.len());
        assert_eq!(cached.alpha, reference.alpha);
        assert_eq!(cached.model.bias(), reference.model.bias());
        assert_eq!(cached.stats.iterations, reference.stats.iterations);
        assert_eq!(cached.stats.objective, reference.stats.objective);
        let viol = kkt_violation(&samples, &labels, &bounds, &kernel, &cached);
        assert!(viol < 5e-3, "KKT violation {viol}");
    }

    #[test]
    fn warm_start_from_exact_solution_converges_immediately() {
        let (samples, labels) = gaussian_problem(30, 7);
        let bounds = vec![2.0; samples.len()];
        let kernel = RbfKernel::new(0.8);
        let params = default_params();
        let cold = train(&samples, &labels, &bounds, kernel, &params).unwrap();
        let warm = train_seeded(&samples, &labels, &bounds, kernel, &cold.alpha);
        assert!(warm.stats.converged);
        // The recomputed warm gradient rounds the KKT gap slightly
        // differently than the incremental one, so allow a touch-up
        // update or two — against hundreds for the cold solve.
        assert!(
            warm.stats.iterations <= 2,
            "re-solving from the optimum took {} updates (cold took {})",
            warm.stats.iterations,
            cold.stats.iterations
        );
        assert!(
            cold.stats.iterations > 10,
            "cold baseline should be nontrivial"
        );
        for s in &samples {
            let d = (warm.model.decision(s) - cold.model.decision(s)).abs();
            assert!(d < 1e-9, "decision drift {d}");
        }
    }

    #[test]
    fn warm_start_equivalence_from_perturbed_and_stale_seeds() {
        // A warm start changes where the solver starts, never where it
        // stops: from a perturbed/previous-round solution it must reach
        // the same eps-optimal model as the cold solve.
        let (samples, labels) = gaussian_problem(36, 21);
        let bounds = vec![4.0; samples.len()];
        let kernel = RbfKernel::new(0.5);
        let params = default_params();
        let cold = train(&samples, &labels, &bounds, kernel, &params).unwrap();

        // Previous-round seed: the solution of the problem minus its last
        // four points (shorter than n — the tail starts at zero).
        let prev = train(
            &samples[..samples.len() - 4],
            &labels[..labels.len() - 4],
            &bounds[..bounds.len() - 4],
            kernel,
            &params,
        )
        .unwrap();
        // Perturbed seed: infeasible on purpose (out of box, NaN entry).
        let mut perturbed = cold.alpha.clone();
        for (i, v) in perturbed.iter_mut().enumerate() {
            *v += [(0.7, 1.0), (-2.0, 0.3)][i % 2].0 * [(0.7, 1.0), (-2.0, 0.3)][i % 2].1;
        }
        perturbed[0] = f64::NAN;

        for seed in [prev.alpha.as_slice(), perturbed.as_slice()] {
            let warm = train_seeded(&samples, &labels, &bounds, kernel, seed);
            assert!(warm.stats.converged);
            let viol = kkt_violation(&samples, &labels, &bounds, &kernel, &warm);
            assert!(viol < 1e-2, "warm KKT violation {viol}");
            for s in &samples {
                let d = (warm.model.decision(s) - cold.model.decision(s)).abs();
                assert!(d < 2e-2, "decision drift {d}");
            }
        }
    }

    #[test]
    fn warm_zero_seed_reproduces_cold_path_bit_for_bit() {
        let (samples, labels) = gaussian_problem(24, 3);
        let bounds = vec![1.5; samples.len()];
        let kernel = RbfKernel::new(1.0);
        let params = default_params();
        let cold = train(&samples, &labels, &bounds, kernel, &params).unwrap();
        let zeros = vec![0.0; samples.len()];
        let warm = train_seeded(&samples, &labels, &bounds, kernel, &zeros);
        assert_eq!(cold.alpha, warm.alpha);
        assert_eq!(cold.stats.iterations, warm.stats.iterations);
        assert_eq!(cold.model.bias(), warm.model.bias());
    }

    #[test]
    fn cache_counters_surface_in_stats() {
        let (samples, labels) = gaussian_problem(20, 9);
        let bounds = vec![2.0; samples.len()];
        let svm = train(
            &samples,
            &labels,
            &bounds,
            RbfKernel::new(0.9),
            &default_params(),
        )
        .unwrap();
        assert!(svm.stats.cache_misses > 0, "some rows must be computed");
        assert!(
            svm.stats.cache_misses <= samples.len() as u64,
            "every row is kept — no recomputes"
        );
        assert!(
            svm.stats.cache_hits > 0,
            "rows are revisited across iterations"
        );
        let reference = train_precomputed(
            &samples,
            &labels,
            &bounds,
            RbfKernel::new(0.9),
            &default_params(),
        )
        .unwrap();
        assert_eq!(reference.stats.cache_hits, 0);
        assert_eq!(reference.stats.cache_misses, 0);
    }

    #[test]
    fn asymmetric_two_point_bias() {
        // Points at 0 and 2: separator midpoint at 1 → f(x) = x − 1.
        let samples = vec![vec![0.0], vec![2.0]];
        let labels = [-1.0, 1.0];
        let bounds = [50.0, 50.0];
        let svm = train(&samples, &labels, &bounds, LinearKernel, &default_params()).unwrap();
        assert!((svm.model.decision(&[1.0])).abs() < 1e-6);
        assert!((svm.model.decision(&[2.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bound_constrains_noisy_point() {
        // A mislabeled point with a tiny C_i cannot dominate: the solution
        // should essentially ignore it.
        let samples = vec![
            vec![-2.0],
            vec![-1.5],
            vec![1.5],
            vec![2.0],
            vec![1.8], // mislabeled as negative
        ];
        let labels = [-1.0, -1.0, 1.0, 1.0, -1.0];
        let bounds = [10.0, 10.0, 10.0, 10.0, 1e-4];
        let svm = train(&samples, &labels, &bounds, LinearKernel, &default_params()).unwrap();
        // The mislabeled point's alpha is capped at its tiny bound.
        assert!(svm.alpha[4] <= 1e-4 + 1e-12);
        // Classification of the clean points is unaffected.
        assert!(svm.model.decision(&[1.5]) > 0.0);
        assert!(svm.model.decision(&[-1.5]) < 0.0);
    }

    #[test]
    fn single_class_returns_constant_model() {
        let samples = vec![vec![0.0], vec![1.0]];
        let labels = [1.0, 1.0];
        let bounds = [1.0, 1.0];
        let svm = train(&samples, &labels, &bounds, LinearKernel, &default_params()).unwrap();
        assert!(svm.model.support_vectors().is_empty());
        assert_eq!(svm.model.decision(&[123.0]), 1.0);
        let svm_neg = train(
            &samples,
            &[-1.0, -1.0],
            &bounds,
            LinearKernel,
            &default_params(),
        )
        .unwrap();
        assert_eq!(svm_neg.model.decision(&[123.0]), -1.0);
    }

    #[test]
    fn rbf_separates_xor() {
        // XOR is the classic linearly inseparable problem; RBF must solve it.
        let samples = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ];
        let labels = [1.0, 1.0, -1.0, -1.0];
        let bounds = [100.0; 4];
        let svm = train(
            &samples,
            &labels,
            &bounds,
            RbfKernel::new(2.0),
            &default_params(),
        )
        .unwrap();
        for (s, &y) in samples.iter().zip(&labels) {
            assert!(svm.model.decision(s) * y > 0.0, "misclassified {s:?}");
        }
    }

    #[test]
    fn validation_errors() {
        let s: Vec<Vec<f64>> = vec![];
        assert_eq!(
            train(&s, &[], &[], LinearKernel, &default_params()).err(),
            Some(SvmError::EmptyTrainingSet)
        );
        let s = vec![vec![0.0]];
        assert!(matches!(
            train(&s, &[1.0, 1.0], &[1.0], LinearKernel, &default_params()).err(),
            Some(SvmError::LengthMismatch { .. })
        ));
        assert!(matches!(
            train(&s, &[0.5], &[1.0], LinearKernel, &default_params()).err(),
            Some(SvmError::InvalidLabel { index: 0 })
        ));
        assert!(matches!(
            train(&s, &[1.0], &[0.0], LinearKernel, &default_params()).err(),
            Some(SvmError::InvalidBound { index: 0 })
        ));
    }

    #[test]
    fn nan_sample_is_reported() {
        let s = vec![vec![f64::NAN], vec![1.0]];
        for result in [
            train(
                &s,
                &[-1.0, 1.0],
                &[1.0, 1.0],
                LinearKernel,
                &default_params(),
            ),
            train_precomputed(
                &s,
                &[-1.0, 1.0],
                &[1.0, 1.0],
                LinearKernel,
                &default_params(),
            ),
        ] {
            assert!(matches!(
                result.err(),
                Some(SvmError::NonFiniteKernel { .. })
            ));
        }
    }

    #[test]
    fn slacks_zero_for_separable_large_c() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..20 {
            samples.push(vec![rng.gen_range(-1.0..1.0), rng.gen_range(2.0..4.0)]);
            labels.push(1.0);
            samples.push(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-4.0..-2.0)]);
            labels.push(-1.0);
        }
        let bounds = vec![1000.0; samples.len()];
        let svm = train(&samples, &labels, &bounds, LinearKernel, &default_params()).unwrap();
        for (s, &y) in samples.iter().zip(&labels) {
            let slack = svm.model.hinge_slack(s, y);
            assert!(slack < 1e-3, "slack {slack}");
        }
    }

    #[test]
    fn kkt_conditions_hold_on_random_gaussian_problem() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..30 {
            let y = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let cx = if y > 0.0 { 1.0 } else { -1.0 };
            samples.push(vec![
                cx + rng.gen_range(-1.2..1.2),
                rng.gen_range(-1.0..1.0),
            ]);
            labels.push(y);
        }
        let bounds = vec![5.0; samples.len()];
        let kernel = RbfKernel::new(0.7);
        let svm = train(&samples, &labels, &bounds, kernel, &default_params()).unwrap();
        assert!(svm.stats.converged);
        let viol = kkt_violation(&samples, &labels, &bounds, &kernel, &svm);
        assert!(viol < 5e-3, "KKT violation {viol}");
    }

    #[test]
    fn mixed_per_sample_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        let mut bounds = Vec::new();
        for i in 0..24 {
            let y = if i % 2 == 0 { 1.0 } else { -1.0 };
            samples.push(vec![
                y * 0.4 + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            labels.push(y);
            bounds.push(if i < 12 { 2.0 } else { 0.02 }); // labeled vs ρC-style split
        }
        let svm = train(
            &samples,
            &labels,
            &bounds,
            RbfKernel::new(0.5),
            &default_params(),
        )
        .unwrap();
        for (i, &a) in svm.alpha.iter().enumerate() {
            assert!(a >= -1e-12 && a <= bounds[i] + 1e-12, "alpha[{i}]={a}");
        }
        let balance: f64 = svm.alpha.iter().zip(&labels).map(|(a, y)| a * y).sum();
        assert!(balance.abs() < 1e-9);
    }

    #[test]
    fn objective_decreases_with_larger_c_freedom() {
        // Enlarging the feasible region can only improve (lower) the optimal
        // dual objective.
        let samples = vec![vec![0.0], vec![0.4], vec![0.6], vec![1.0]];
        let labels = [-1.0, 1.0, -1.0, 1.0]; // noisy ordering → slack needed
        let small = train(
            &samples,
            &labels,
            &[0.5; 4],
            LinearKernel,
            &default_params(),
        )
        .unwrap();
        let large = train(
            &samples,
            &labels,
            &[5.0; 4],
            LinearKernel,
            &default_params(),
        )
        .unwrap();
        assert!(large.stats.objective <= small.stats.objective + 1e-9);
    }

    #[test]
    fn clip_and_repair_restores_feasibility() {
        let y = [1.0, -1.0, 1.0, -1.0];
        let c = [1.0, 1.0, 1.0, 1.0];
        // Out-of-box, unbalanced, with a NaN: must come back feasible.
        let seed = [5.0, 0.25, f64::NAN, -3.0];
        let a = clip_and_repair(&seed, &y, &c);
        let balance: f64 = a.iter().zip(&y).map(|(ai, yi)| ai * yi).sum();
        assert!(balance.abs() < 1e-12, "balance {balance}");
        for (i, &v) in a.iter().enumerate() {
            assert!((0.0..=c[i]).contains(&v), "a[{i}]={v}");
        }
        // A shorter-than-n seed leaves the tail at zero.
        let short = clip_and_repair(&[0.5], &y, &c);
        assert_eq!(&short[1..], &[0.0, 0.0, 0.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On random binary problems, the SMO solution satisfies all KKT
        /// conditions (checked independently of the solver internals).
        #[test]
        fn random_problems_satisfy_kkt(
            seed in 0u64..500,
            n_half in 3usize..12,
            c in 0.1f64..20.0,
            gamma in 0.1f64..2.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..n_half {
                samples.push(vec![rng.gen_range(-2.0..0.5), rng.gen_range(-1.0..1.0)]);
                labels.push(-1.0);
                samples.push(vec![rng.gen_range(-0.5..2.0), rng.gen_range(-1.0..1.0)]);
                labels.push(1.0);
            }
            let bounds = vec![c; samples.len()];
            let kernel = RbfKernel::new(gamma);
            let svm = train(&samples, &labels, &bounds, kernel, &default_params()).unwrap();
            prop_assert!(svm.stats.converged);
            let viol = kkt_violation(&samples, &labels, &bounds, &kernel, &svm);
            prop_assert!(viol < 1e-2, "KKT violation {viol}");
        }

        /// Equality constraint and box constraints always hold exactly.
        #[test]
        fn dual_feasibility(
            seed in 0u64..500,
            n_half in 2usize..10,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples = Vec::new();
            let mut labels = Vec::new();
            let mut bounds = Vec::new();
            for _ in 0..n_half * 2 {
                samples.push(vec![rng.gen_range(-1.0..1.0); 3]);
                labels.push(if rng.gen_bool(0.5) { 1.0 } else { -1.0 });
                bounds.push(rng.gen_range(0.01..10.0));
            }
            // Ensure both classes appear.
            labels[0] = 1.0;
            labels[1] = -1.0;
            let svm = train(&samples, &labels, &bounds, RbfKernel::new(1.0), &default_params())
                .unwrap();
            let balance: f64 = svm.alpha.iter().zip(&labels).map(|(a, y)| a * y).sum();
            prop_assert!(balance.abs() < 1e-8, "balance {balance}");
            for (a, c) in svm.alpha.iter().zip(&bounds) {
                prop_assert!(*a >= -1e-12 && *a <= c + 1e-12);
            }
        }

        /// Warm starting from any (even garbage) seed reaches an
        /// eps-optimal model: the stopping criterion is independent of the
        /// starting point.
        #[test]
        fn warm_start_always_reaches_optimality(
            seed in 0u64..200,
            n_half in 3usize..8,
            scale in -5.0f64..5.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..n_half {
                samples.push(vec![rng.gen_range(-2.0..0.5), rng.gen_range(-1.0..1.0)]);
                labels.push(-1.0);
                samples.push(vec![rng.gen_range(-0.5..2.0), rng.gen_range(-1.0..1.0)]);
                labels.push(1.0);
            }
            let bounds = vec![2.0; samples.len()];
            let kernel = RbfKernel::new(0.7);
            let warm_seed: Vec<f64> =
                (0..samples.len()).map(|i| scale * (i as f64 * 0.71).sin()).collect();
            let svm = train_seeded(&samples, &labels, &bounds, kernel, &warm_seed);
            prop_assert!(svm.stats.converged);
            let viol = kkt_violation(&samples, &labels, &bounds, &kernel, &svm);
            prop_assert!(viol < 1e-2, "KKT violation {viol}");
        }
    }
}
