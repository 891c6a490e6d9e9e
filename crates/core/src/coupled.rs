//! The coupled support vector machine (Eq. 1) trained by alternating
//! optimization (§4.2, Fig. 1).
//!
//! Two max-margin machines — one per information modality — share a pool of
//! unlabeled points whose pseudo-labels `Y'` are optimization variables:
//!
//! ```text
//! min  ½‖w‖² + ½‖u‖² + C_w Σξ + C_u Ση + ρC_w Σξ' + ρC_u Ση'
//! s.t. labeled:   y_i (wᵀx_i + b_w) ≥ 1 − ξ_i,   y_i (uᵀr_i + b_u) ≥ 1 − η_i
//!      unlabeled: y'_j(wᵀx'_j + b_w) ≥ 1 − ξ'_j, y'_j(uᵀr'_j + b_u) ≥ 1 − η'_j
//! ```
//!
//! **Alternating optimization.** With `Y'` fixed, the problem splits into
//! two independent soft-margin SVM QPs whose only nonstandard feature is
//! the per-sample bound (`C` labeled / `ρ*C` unlabeled) — solved by
//! `lrf-svm`. With the models fixed, the optimal `Y'` minimizes
//! `Σ_j C_w·hinge(y'_j, f_w) + C_u·hinge(y'_j, f_u)`, an integer program
//! the paper approximates by flipping exactly the labels both machines
//! reject: `ξ'_j > 0 ∧ η'_j > 0 ∧ ξ'_j + η'_j > Δ`.
//!
//! **Annealing.** `ρ*` starts at `10⁻⁴` so unlabeled points cannot dominate
//! early, and doubles per outer round up to `ρ` — "similar to the approach
//! in transductive SVM" (Joachims).
//!
//! **Two views.** [`train_coupled`] builds one view per modality (content,
//! log): a view owns its borrowed labeled + unlabeled samples, kernel,
//! per-view `C` and current machine, and can *retrain at (labels, ρ\*)*
//! and *report its unlabeled slacks*. The schedule above runs over that
//! pair and hands back the two typed machines.
//!
//! **One row store per view, warm starts.** Every retrain inside one run
//! solves a QP over the *same* concatenated sample set — only the bounds
//! (`ρ*` doubling) and a few pseudo-labels change between rounds. So each
//! view owns one [`lrf_svm::KernelCache`] for the whole anneal: a kernel
//! row is computed once and serves every later solve, and the correction
//! loop reads its slacks from the same rows instead of re-evaluating the
//! kernel against every support vector. The slacks are bit-identical to
//! the model's decision values, so the anneal is bit-identical to one
//! that re-evaluates. The store computes nothing until a view's first
//! two-class solve, so an all-one-class round stays the constant machine
//! it always was, whatever its samples hold. Each view's solve after its
//! first is also seeded with its previous dual solution, which the solver
//! clips to the new bounds and repairs to feasibility; the annealing
//! schedule's dozen-plus retrains then each start a stone's throw from
//! their optimum instead of from zero. The final models agree with cold
//! training within the solver's KKT tolerance (the tests keep a cold
//! reference run).

use crate::config::CoupledConfig;
use lrf_svm::{Kernel, KernelCache, SmoParams, SvmError, TrainedSvm};
use std::borrow::Borrow;

/// Diagnostics of one coupled training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Number of ρ* annealing steps executed (including the final pass at
    /// `ρ* = ρ`).
    pub rho_steps: usize,
    /// Total SVM *pair* trainings (each counts one content + one log QP).
    pub retrains: usize,
    /// Total pseudo-label flips performed by the correction loop.
    pub flips: usize,
    /// Whether any correction loop hit its round cap (possible oscillation).
    pub correction_capped: bool,
    /// Final pseudo-labels of the unlabeled pool.
    pub final_labels: Vec<f64>,
}

/// Result of [`train_coupled`]: the two final models plus diagnostics.
pub struct CoupledOutcome<S1: ?Sized + ToOwned, K1, S2: ?Sized + ToOwned, K2> {
    /// The content-modality machine (`w`, `b_w`).
    pub content: TrainedSvm<S1, K1>,
    /// The log-modality machine (`u`, `b_u`).
    pub log: TrainedSvm<S2, K2>,
    /// Training diagnostics.
    pub report: TrainReport,
}

/// Trains the coupled SVM over two modalities.
///
/// * `labeled_a` / `labeled_b` — the `N_l` labeled samples in each modality
///   (same images, aligned by index) with shared labels `y`.
/// * `unlabeled_a` / `unlabeled_b` — the `N'` unlabeled samples, with
///   initial pseudo-labels `y_init` (±1).
/// * `kernel_a` / `kernel_b` — the per-modality kernels.
///
/// Samples are taken by borrow (`B1: Borrow<S1>`, `B2: Borrow<S2>`):
/// callers pass `&[f64]` row views of the database's flat matrix and
/// `&SparseVector` references straight out of the log store; no training
/// round copies a feature. Only the final models' support vectors are
/// materialized (via `ToOwned`).
///
/// # Errors
/// Propagates solver errors (invalid labels/bounds, non-finite kernels).
///
/// # Panics
/// Panics if the modality arrays are misaligned.
#[allow(clippy::too_many_arguments)] // mirrors the paper's explicit operands
pub fn train_coupled<S1, B1, K1, S2, B2, K2>(
    labeled_a: &[B1],
    labeled_b: &[B2],
    y: &[f64],
    unlabeled_a: &[B1],
    unlabeled_b: &[B2],
    y_init: &[f64],
    kernel_a: K1,
    kernel_b: K2,
    cfg: &CoupledConfig,
) -> Result<CoupledOutcome<S1, K1, S2, K2>, SvmError>
where
    S1: ?Sized + ToOwned,
    B1: Borrow<S1>,
    K1: Kernel<S1> + Clone,
    S2: ?Sized + ToOwned,
    B2: Borrow<S2>,
    K2: Kernel<S2> + Clone,
{
    anneal_views(
        labeled_a,
        labeled_b,
        y,
        unlabeled_a,
        unlabeled_b,
        y_init,
        kernel_a,
        kernel_b,
        cfg,
        true,
    )
}

/// [`train_coupled`], with every retrain after a view's first seeded from
/// its previous solution when `warm` (cold solves are the tests'
/// reference).
#[allow(clippy::too_many_arguments)]
fn anneal_views<S1, B1, K1, S2, B2, K2>(
    labeled_a: &[B1],
    labeled_b: &[B2],
    y: &[f64],
    unlabeled_a: &[B1],
    unlabeled_b: &[B2],
    y_init: &[f64],
    kernel_a: K1,
    kernel_b: K2,
    cfg: &CoupledConfig,
    warm: bool,
) -> Result<CoupledOutcome<S1, K1, S2, K2>, SvmError>
where
    S1: ?Sized + ToOwned,
    B1: Borrow<S1>,
    K1: Kernel<S1> + Clone,
    S2: ?Sized + ToOwned,
    B2: Borrow<S2>,
    K2: Kernel<S2> + Clone,
{
    assert_eq!(
        labeled_a.len(),
        labeled_b.len(),
        "labeled modalities misaligned"
    );
    assert_eq!(
        labeled_a.len(),
        y.len(),
        "labels misaligned with labeled samples"
    );
    assert_eq!(
        unlabeled_a.len(),
        unlabeled_b.len(),
        "unlabeled modalities misaligned"
    );
    assert_eq!(
        unlabeled_a.len(),
        y_init.len(),
        "initial pseudo-labels misaligned"
    );

    cfg.validate();
    let mut run = Annealing {
        content: SvmView::new(labeled_a, unlabeled_a, kernel_a, cfg.c_content, &cfg.smo),
        log: SvmView::new(labeled_b, unlabeled_b, kernel_b, cfg.c_log, &cfg.smo),
        labels: [y, y_init].concat(),
        n_labeled: y.len(),
        cfg,
        warm,
        report: TrainReport {
            rho_steps: 0,
            retrains: 0,
            flips: 0,
            correction_capped: false,
            final_labels: Vec::new(),
        },
    };
    run.anneal()?;
    Ok(CoupledOutcome {
        content: run.content.into_machine(),
        log: run.log.into_machine(),
        report: run.report,
    })
}

/// One modality as Fig. 1 sees it: the row store over its borrowed
/// labeled and unlabeled samples, the view's `C` and its current machine.
/// It can be re-solved at the current pseudo-labels and `ρ*`, and asked
/// how badly its machine fits the unlabeled pool.
struct SvmView<'a, S: ?Sized + ToOwned, K> {
    /// Labeled then unlabeled samples (references, never cloned), the
    /// kernel, and every kernel row any retrain has computed.
    store: KernelCache<'a, S, K>,
    n_labeled: usize,
    c: f64,
    smo: &'a SmoParams,
    machine: Option<TrainedSvm<S, K>>,
}

impl<'a, S: ?Sized + ToOwned, K: Kernel<S> + Clone> SvmView<'a, S, K> {
    fn new<B: Borrow<S>>(
        labeled: &'a [B],
        unlabeled: &'a [B],
        kernel: K,
        c: f64,
        smo: &'a SmoParams,
    ) -> Self {
        let samples = labeled.iter().chain(unlabeled).map(Borrow::borrow);
        Self {
            store: KernelCache::new(kernel, samples.collect()),
            n_labeled: labeled.len(),
            c,
            smo,
            machine: None,
        }
    }

    /// The machine [`Annealing::anneal`] left behind.
    fn into_machine(self) -> TrainedSvm<S, K> {
        // lrf-lint: allow(service-panic): both exits of `anneal` follow a
        // `retrain` of both views, and `train_coupled` returns on its error
        self.machine.expect("anneal trains both views")
    }

    /// Re-solves this view's QP over its labeled + unlabeled samples with
    /// `labels` (shared labels, then pseudo-labels) and bounds `C` /
    /// `ρ*·C`; when `warm`, seeded with the current machine's dual
    /// solution if there is one.
    fn retrain(&mut self, labels: &[f64], rho_star: f64, warm: bool) -> Result<(), SvmError> {
        let mut bounds = vec![self.c; self.n_labeled];
        bounds.resize(labels.len(), rho_star * self.c);
        // Borrowed, not cloned: the seed is last read before the retrained
        // machine replaces the one it comes from.
        let seed = self.machine.as_ref().filter(|_| warm);
        let seed = seed.map(|m| m.alpha.as_slice());
        self.machine = Some(self.store.train(labels, &bounds, self.smo, seed)?);
        Ok(())
    }

    /// Hinge slacks of the unlabeled pool under the current machine, which
    /// was trained with `labels`, read from the store's rows.
    fn unlabeled_slacks(&mut self, labels: &[f64]) -> Vec<f64> {
        // lrf-lint: allow(service-panic): `Annealing::step` retrains both
        // views before its first correction round
        let machine = self.machine.as_ref().expect("trained before correction");
        self.store.slacks(machine, labels, self.n_labeled)
    }
}

/// The state one [`train_coupled`] call threads through Fig. 1's steps:
/// the two views and the labels `y` followed by the pseudo-labels `Y'`.
struct Annealing<'a, S1: ?Sized + ToOwned, K1, S2: ?Sized + ToOwned, K2> {
    content: SvmView<'a, S1, K1>,
    log: SvmView<'a, S2, K2>,
    /// `y` then `Y'`: what both views train on.
    labels: Vec<f64>,
    /// Length of the `y` prefix of `labels`.
    n_labeled: usize,
    cfg: &'a CoupledConfig,
    /// Seed each retrain from the view's previous solution.
    warm: bool,
    report: TrainReport,
}

impl<S1, K1, S2, K2> Annealing<'_, S1, K1, S2, K2>
where
    S1: ?Sized + ToOwned,
    K1: Kernel<S1> + Clone,
    S2: ?Sized + ToOwned,
    K2: Kernel<S2> + Clone,
{
    /// Fig. 1's alternating optimization: train at `ρ* = min(ρ_init, ρ)`,
    /// correct, and double `ρ*` up to `ρ`. Leaves the final machine in
    /// both views and the final pseudo-labels in the report.
    fn anneal(&mut self) -> Result<(), SvmError> {
        let cfg = self.cfg;
        // Degenerate-but-legal case: no unlabeled points. The coupled problem
        // collapses to independent labeled SVMs.
        if self.labels.len() == self.n_labeled {
            self.retrain(cfg.rho)?;
            self.report.rho_steps = 1;
            return Ok(());
        }

        let mut rho_star = cfg.rho_init.min(cfg.rho);
        self.step(rho_star)?;
        // Fig. 1: WHILE (ρ* < ρ) { train; correct; ρ* = min(2ρ*, ρ) }. As
        // written that never trains at exactly ρ (the loop exits when ρ*
        // reaches it); stepping at the *new* ρ* makes the last pass the one
        // at ρ — the paper's "increase ρ until it achieves a setting
        // threshold".
        while rho_star < cfg.rho {
            rho_star = (2.0 * rho_star).min(cfg.rho);
            self.step(rho_star)?;
        }

        self.report.final_labels = self.labels.split_off(self.n_labeled);
        Ok(())
    }

    /// Re-solves both views, content first, at the current pseudo-labels.
    fn retrain(&mut self, rho_star: f64) -> Result<(), SvmError> {
        self.content.retrain(&self.labels, rho_star, self.warm)?;
        self.log.retrain(&self.labels, rho_star, self.warm)?;
        self.report.retrains += 1;
        Ok(())
    }

    /// One `ρ*` step: train, then Fig. 1's inner correction loop — while
    /// any unlabeled point has positive slack on *both* views exceeding
    /// `Δ` in sum, flip those pseudo-labels and retrain.
    fn step(&mut self, rho_star: f64) -> Result<(), SvmError> {
        self.retrain(rho_star)?;
        for round in 0.. {
            if round >= self.cfg.max_correction_rounds {
                self.report.correction_capped = true;
                break;
            }
            let xi = self.content.unlabeled_slacks(&self.labels);
            let eta = self.log.unlabeled_slacks(&self.labels);
            let mut flipped_any = false;
            let y_prime = &mut self.labels[self.n_labeled..];
            for (j, label) in y_prime.iter_mut().enumerate() {
                if xi[j] > 0.0 && eta[j] > 0.0 && xi[j] + eta[j] > self.cfg.delta {
                    *label = -*label;
                    self.report.flips += 1;
                    flipped_any = true;
                }
            }
            if !flipped_any {
                break;
            }
            self.retrain(rho_star)?;
        }
        self.report.rho_steps += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::LogRbfKernel;
    use lrf_logdb::SparseVector;
    use lrf_svm::{RbfKernel, SmoParams};

    /// Two modalities that agree: content clusers at ±1, log vectors with
    /// matching session signatures.
    #[allow(clippy::type_complexity)]
    fn agreeing_problem() -> (
        Vec<Vec<f64>>,
        Vec<SparseVector>,
        Vec<f64>,
        Vec<Vec<f64>>,
        Vec<SparseVector>,
    ) {
        let labeled_a = vec![
            vec![1.0, 0.9],
            vec![0.9, 1.1],
            vec![-1.0, -0.9],
            vec![-1.1, -1.0],
        ];
        let labeled_b = vec![
            SparseVector::from_entries(vec![(0, 1.0)]),
            SparseVector::from_entries(vec![(0, 1.0), (1, 1.0)]),
            SparseVector::from_entries(vec![(0, -1.0)]),
            SparseVector::from_entries(vec![(0, -1.0), (1, -1.0)]),
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let unlabeled_a = vec![vec![0.8, 1.0], vec![-0.9, -1.1]];
        let unlabeled_b = vec![
            SparseVector::from_entries(vec![(1, 1.0)]),
            SparseVector::from_entries(vec![(1, -1.0)]),
        ];
        (labeled_a, labeled_b, y, unlabeled_a, unlabeled_b)
    }

    fn kernels() -> (RbfKernel, LogRbfKernel) {
        (RbfKernel::new(0.5), LogRbfKernel::new(0.5))
    }

    #[test]
    fn trains_and_classifies_consistently() {
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let out = train_coupled(
            &la,
            &lb,
            &y,
            &ua,
            &ub,
            &[1.0, -1.0],
            ka,
            kb,
            &CoupledConfig::default(),
        )
        .unwrap();
        // Both machines classify the labeled data correctly.
        for (i, x) in la.iter().enumerate() {
            assert!(
                out.content.model.decision(x) * y[i] > 0.0,
                "content sample {i}"
            );
        }
        for (i, r) in lb.iter().enumerate() {
            assert!(out.log.model.decision(r) * y[i] > 0.0, "log sample {i}");
        }
        // CSVM_Dist (the summed decisions) agrees with the shared structure.
        let csvm_dist =
            |j: usize| out.content.model.decision(&ua[j]) + out.log.model.decision(&ub[j]);
        assert!(csvm_dist(0) > csvm_dist(1));
        assert!(out.report.retrains >= 1);
        assert!(
            out.report.rho_steps >= 2,
            "annealing must take multiple steps"
        );
        assert_eq!(out.report.final_labels, vec![1.0, -1.0]);
    }

    #[test]
    fn wrong_pseudo_labels_get_corrected() {
        // Initialize the pseudo-labels INVERTED: the correction loop must
        // flip them back because both modalities place the points firmly on
        // the other side.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig {
            delta: 1.0,
            ..Default::default()
        };
        let out = train_coupled(&la, &lb, &y, &ua, &ub, &[-1.0, 1.0], ka, kb, &cfg).unwrap();
        assert_eq!(
            out.report.final_labels,
            vec![1.0, -1.0],
            "correction should recover the consistent labeling (flips={})",
            out.report.flips
        );
        assert!(out.report.flips >= 2);
    }

    #[test]
    fn no_unlabeled_pool_degrades_to_independent_svms() {
        let (la, lb, y, _, _) = agreeing_problem();
        let (ka, kb) = kernels();
        let out = train_coupled(
            &la,
            &lb,
            &y,
            &[],
            &[],
            &[],
            ka,
            kb,
            &CoupledConfig::default(),
        )
        .unwrap();
        assert_eq!(out.report.rho_steps, 1);
        assert_eq!(out.report.flips, 0);
        for (i, x) in la.iter().enumerate() {
            assert!(out.content.model.decision(x) * y[i] > 0.0);
        }
    }

    #[test]
    fn annealing_step_count_matches_schedule() {
        // rho_init 1e-4 doubling to rho 0.5: steps at 1e-4, 2e-4, ..., plus
        // the final pass. ceil(log2(0.5/1e-4)) = 13 doublings.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig::default();
        let out = train_coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &cfg).unwrap();
        let expected = ((cfg.rho / cfg.rho_init).log2().ceil() as usize) + 1;
        assert_eq!(
            out.report.rho_steps, expected,
            "steps {}",
            out.report.rho_steps
        );
    }

    #[test]
    fn correction_cap_terminates_oscillation() {
        // A pool of contradictory points (content says +, log says −) with
        // a tiny Δ invites oscillation; the cap must terminate training and
        // be reported.
        let la = vec![vec![1.0, 1.0], vec![-1.0, -1.0]];
        let lb = vec![
            SparseVector::from_entries(vec![(0, 1.0)]),
            SparseVector::from_entries(vec![(0, -1.0)]),
        ];
        let y = vec![1.0, -1.0];
        // Unlabeled: content features positive-side, log vectors negative-side.
        let ua = vec![vec![1.2, 0.8], vec![0.9, 1.3]];
        let ub = vec![
            SparseVector::from_entries(vec![(0, -1.0)]),
            SparseVector::from_entries(vec![(0, -1.0), (1, -1.0)]),
        ];
        let (ka, kb) = kernels();
        let cfg = CoupledConfig {
            delta: 0.0,
            max_correction_rounds: 2,
            rho: 1.0,
            ..Default::default()
        };
        let out = train_coupled(&la, &lb, &y, &ua, &ub, &[1.0, 1.0], ka, kb, &cfg).unwrap();
        // Must terminate (the assertion is that we got here) and flag the cap
        // if it oscillated; either way, the report is internally consistent.
        assert!(out.report.retrains >= out.report.rho_steps);
        if out.report.correction_capped {
            assert!(out.report.flips > 0);
        }
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_modalities_panic() {
        let (la, lb, y, ua, _) = agreeing_problem();
        let (ka, kb) = kernels();
        let _ = train_coupled(
            &la,
            &lb,
            &y,
            &ua,
            &[],
            &[1.0, -1.0],
            ka,
            kb,
            &CoupledConfig::default(),
        );
    }

    #[test]
    fn rho_larger_weights_move_unlabeled_influence() {
        // With rho → 0 the unlabeled points have ~no influence; with a big
        // rho they pull the boundary. Verify the decision values differ.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let weak = CoupledConfig {
            rho: 1e-4,
            rho_init: 1e-4,
            ..Default::default()
        };
        let strong = CoupledConfig {
            rho: 2.0,
            rho_init: 1e-4,
            ..Default::default()
        };
        let out_weak = train_coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &weak).unwrap();
        let out_strong =
            train_coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &strong).unwrap();
        let probe = vec![0.5, 0.6];
        let d_weak = out_weak.content.model.decision(&probe);
        let d_strong = out_strong.content.model.decision(&probe);
        assert!(
            (d_weak - d_strong).abs() > 1e-6,
            "rho must matter: {d_weak} vs {d_strong}"
        );
    }

    #[test]
    fn warm_started_retrains_match_cold_training() {
        // Warm starting the annealing schedule's retrains is a pure
        // performance device: the final models must agree with cold
        // training on decision values (within the solver tolerance) and on
        // the transductive outcome (identical final pseudo-labels), while
        // spending no more total SMO iterations.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig::default();
        let y_init = [1.0, -1.0];
        let warm = train_coupled(&la, &lb, &y, &ua, &ub, &y_init, ka, kb, &cfg).unwrap();
        let cold = anneal_views(&la, &lb, &y, &ua, &ub, &y_init, ka, kb, &cfg, false).unwrap();
        assert_eq!(warm.report.final_labels, cold.report.final_labels);
        assert_eq!(warm.report.retrains, cold.report.retrains);
        for x in la.iter().chain(&ua) {
            let dw = warm.content.model.decision(x);
            let dc = cold.content.model.decision(x);
            assert!(
                (dw - dc).abs() < 1e-2,
                "content decisions diverged: warm {dw} vs cold {dc}"
            );
        }
        for r in lb.iter().chain(&ub) {
            let dw = warm.log.model.decision(r);
            let dc = cold.log.model.decision(r);
            assert!(
                (dw - dc).abs() < 1e-2,
                "log decisions diverged: warm {dw} vs cold {dc}"
            );
        }
    }

    /// A kernel that counts its evaluations, shared by every clone.
    #[derive(Clone)]
    struct Counting<K>(K, std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl<S: ?Sized, K: Kernel<S>> Kernel<S> for Counting<K> {
        fn compute(&self, a: &S, b: &S) -> f64 {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.compute(a, b)
        }
    }

    #[test]
    fn each_view_evaluates_each_kernel_value_at_most_once_per_anneal() {
        // One anneal re-solves the same sample set over and over: with one
        // row store per view, no kernel value is computed twice — at most
        // the n(n+1)/2 of a symmetric Gram fill, however many retrains
        // and correction rounds read the rows.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let (count_a, count_b) = (Default::default(), Default::default());
        let out = train_coupled(
            &la,
            &lb,
            &y,
            &ua,
            &ub,
            &[-1.0, 1.0],
            Counting(ka, std::sync::Arc::clone(&count_a)),
            Counting(kb, std::sync::Arc::clone(&count_b)),
            &CoupledConfig::default(),
        )
        .unwrap();
        assert!(out.report.retrains >= 10, "{:?}", out.report);
        let n = la.len() + ua.len();
        for count in [count_a, count_b] {
            let evaluations = count.load(std::sync::atomic::Ordering::Relaxed);
            assert!(evaluations > 0);
            assert!(evaluations <= n * (n + 1) / 2, "{evaluations} evaluations");
        }
    }

    #[test]
    fn one_class_round_with_a_nan_feature_trains_constant_machines() {
        // Every label and pseudo-label +1: each solve is the single-class
        // shortcut, so no kernel is evaluated and the NaN is never read.
        let (mut la, lb, _, ua, ub) = agreeing_problem();
        la[1][0] = f64::NAN;
        let y = [1.0; 4];
        let (ka, kb) = kernels();
        let cfg = CoupledConfig::default();
        let out = train_coupled(&la, &lb, &y, &ua, &ub, &[1.0, 1.0], ka, kb, &cfg).unwrap();
        assert_eq!(out.report.final_labels, vec![1.0, 1.0]);
        assert_eq!(out.report.flips, 0);
        for (stats, alpha, bias) in [
            (
                out.content.stats,
                &out.content.alpha,
                out.content.model.bias(),
            ),
            (out.log.stats, &out.log.alpha, out.log.model.bias()),
        ] {
            assert_eq!(stats.n_support, 0);
            assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
            assert!(alpha.iter().all(|&a| a == 0.0));
            assert_eq!(bias, 1.0);
        }
        assert_eq!(out.content.model.decision(&la[1]), 1.0);
    }

    #[test]
    fn smo_params_are_threaded_through() {
        // An absurdly low iteration cap must be respected (convergence flag
        // off) — proving the inner solver reads the provided SmoParams.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig {
            smo: SmoParams { max_iter: 1 },
            ..Default::default()
        };
        let out = train_coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &cfg).unwrap();
        assert!(!out.content.stats.converged);
    }
}
