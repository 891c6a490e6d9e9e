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
//! `Σ_j C_w·hinge(y'_j, f_w) + C_u·hinge(y'_j, f_u)`, an integer program.
//! Fig. 1 approximates it by flipping every label both machines reject,
//! `ξ'_j > 0 ∧ η'_j > 0 ∧ ξ'_j + η'_j > Δ`; taken literally that also
//! flips labels whose flip *raises* the sum, and the next round flips them
//! back. Here that gate only nominates candidates. They are switched in
//! pairs, one positive and one negative, and only while the pair lowers
//! the sum — the switch of Joachims' transductive SVM, which the paper
//! cites for its `ρ*` schedule. Every switch lowers Eq. 1's objective, no
//! retrain raises it, and the pool's class count never changes, so the
//! correction loop ends without a cap.
//!
//! **Annealing.** `ρ*` starts at `10⁻⁴` so unlabeled points cannot dominate
//! early, and doubles per outer round up to `ρ` — "similar to the approach
//! in transductive SVM" (Joachims).
//!
//! **Two views, one row store each.** [`train_coupled`] takes one
//! [`lrf_svm::KernelCache`] per modality (content, log), holding the
//! labeled samples and then the unlabeled pool. A caller that has already
//! solved the labeled-only SVMs in those stores (LRF-CSVM's step 1) and
//! then [`extend`](lrf_svm::KernelCache::extend)ed them hands the rows it
//! computed over to the anneal, so no Gram value of the fit's solves is
//! evaluated twice. Every retrain inside the run solves a QP over the *same* sample
//! set — only the bounds (`ρ*` doubling) and a few pseudo-labels change —
//! so a row computed once serves every later solve, and the correction
//! loop reads its slacks from the same rows instead of re-evaluating the
//! kernel against every support vector. The slacks are bit-identical to
//! the model's decision values, so the anneal is bit-identical to one
//! that re-evaluates.
//!
//! **Duals, no machine.** A retrain keeps only its [`lrf_svm::Dual`]: the
//! next solve's seed and the slacks need nothing else, and the run returns
//! each view's final dual. No sample is cloned: LRF-CSVM scores a dual's
//! [`lrf_svm::Dual::expansion`] from its row blocks, and a caller that
//! wants a model builds it ([`lrf_svm::KernelCache::machine`]). Each
//! view's solve after its first
//! is seeded with its previous dual, which the solver clips to the new
//! bounds and repairs to feasibility; the annealing schedule's retrains
//! then each start a stone's throw from their optimum instead of from
//! zero. The final models agree with cold training within the solver's
//! KKT tolerance (the tests keep a cold reference run). Every solve's
//! [`lrf_svm::SolveStats`] is folded into the outcome's
//! [`CoupledOutcome::solves`].

use crate::config::CoupledConfig;
use crate::feedback::RoundDiagnostics;
use lrf_svm::{Dual, Kernel, KernelCache, SvmError};

/// Diagnostics of one coupled training run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// Number of ρ* annealing steps executed (including the final pass at
    /// `ρ* = ρ`).
    pub rho_steps: usize,
    /// Total SVM *pair* trainings (each counts one content + one log QP).
    pub retrains: usize,
    /// Total pseudo-label flips performed by the correction loop.
    pub flips: usize,
    /// Final pseudo-labels of the unlabeled pool.
    pub final_labels: Vec<f64>,
}

/// Result of [`train_coupled`]: the two final dual solutions plus
/// diagnostics.
pub struct CoupledOutcome {
    /// The content machine's (`w`, `b_w`) dual over the labeled samples
    /// then the pool, solved with `y` then the final pseudo-labels.
    pub content: Dual,
    /// The log machine's (`u`, `b_u`) dual, over the same samples.
    pub log: Dual,
    /// Every solve of the run, both views, folded together.
    pub solves: RoundDiagnostics,
    /// Training diagnostics.
    pub report: TrainReport,
}

/// Trains the coupled SVM over two modalities.
///
/// * `content` / `log` — one row store per modality over the same images
///   in the same order: the `N_l` labeled samples, then the `N'`
///   unlabeled ones. Rows a caller's earlier solves left in a store are
///   reused.
/// * `y` — the shared labels of the labeled samples; `y_init` — the
///   initial pseudo-labels (±1) of the unlabeled ones.
///
/// The stores borrow their samples (`&[f64]` row views of the database's
/// flat matrix, `&SparseVector` references straight out of the log
/// store), and the run clones none: it returns each view's final dual,
/// which [`Dual::expansion`] turns into the decision function over those
/// samples and [`KernelCache::machine`] into a model.
///
/// # Errors
/// Propagates solver errors: invalid labels or bounds, non-finite
/// kernels, and [`SvmError::LengthMismatch`] when a store does not hold
/// `y.len() + y_init.len()` samples.
pub fn train_coupled<S1, K1, S2, K2>(
    content: KernelCache<'_, S1, K1>,
    log: KernelCache<'_, S2, K2>,
    y: &[f64],
    y_init: &[f64],
    cfg: &CoupledConfig,
) -> Result<CoupledOutcome, SvmError>
where
    S1: ?Sized + ToOwned,
    K1: Kernel<S1>,
    S2: ?Sized + ToOwned,
    K2: Kernel<S2>,
{
    anneal_views(content, log, y, y_init, cfg, true)
}

/// [`train_coupled`], with every retrain after a view's first seeded from
/// its previous solution when `warm` (cold solves are the tests'
/// reference).
fn anneal_views<S1, K1, S2, K2>(
    content: KernelCache<'_, S1, K1>,
    log: KernelCache<'_, S2, K2>,
    y: &[f64],
    y_init: &[f64],
    cfg: &CoupledConfig,
    warm: bool,
) -> Result<CoupledOutcome, SvmError>
where
    S1: ?Sized + ToOwned,
    K1: Kernel<S1>,
    S2: ?Sized + ToOwned,
    K2: Kernel<S2>,
{
    cfg.validate();
    let mut run = Annealing {
        content: SvmView::new(content, cfg.c_content),
        log: SvmView::new(log, cfg.c_log),
        labels: [y, y_init].concat(),
        n_labeled: y.len(),
        cfg,
        warm,
        solves: RoundDiagnostics::all_converged(),
        report: TrainReport::default(),
    };
    run.anneal()?;
    run.report.final_labels = run.labels.split_off(run.n_labeled);
    Ok(CoupledOutcome {
        content: run.content.into_dual(),
        log: run.log.into_dual(),
        solves: run.solves,
        report: run.report,
    })
}

/// One modality as Fig. 1 sees it: the row store over its borrowed
/// labeled and unlabeled samples, the view's `C` and its current dual.
/// It can be re-solved at the current pseudo-labels and `ρ*`, and asked
/// how badly its dual fits the unlabeled pool.
struct SvmView<'a, S: ?Sized, K> {
    /// Labeled then unlabeled samples (references, never cloned), the
    /// kernel, and every kernel row any solve has computed.
    store: KernelCache<'a, S, K>,
    c: f64,
    dual: Option<Dual>,
}

impl<'a, S: ?Sized + ToOwned, K: Kernel<S>> SvmView<'a, S, K> {
    fn new(store: KernelCache<'a, S, K>, c: f64) -> Self {
        let dual = None;
        Self { store, c, dual }
    }

    /// The dual [`Annealing::anneal`] left behind.
    fn into_dual(self) -> Dual {
        // lrf-lint: allow(service-panic): both exits of `anneal` follow a
        // `retrain` of both views, and `train_coupled` returns on its error
        self.dual.expect("anneal trains both views")
    }

    /// Re-solves this view's QP with `labels` (shared labels, then
    /// pseudo-labels) and bounds `C` on the first `n_labeled` samples,
    /// `ρ*·C` on the rest; when `warm`, seeded with the current dual if
    /// there is one. Folds the solve into `solves`.
    fn retrain(
        &mut self,
        labels: &[f64],
        n_labeled: usize,
        rho_star: f64,
        cfg: &CoupledConfig,
        warm: bool,
        solves: &mut RoundDiagnostics,
    ) -> Result<(), SvmError> {
        let mut bounds = vec![self.c; n_labeled];
        bounds.resize(labels.len(), rho_star * self.c);
        // Borrowed, not cloned: the seed is last read before the new dual
        // replaces the one it comes from.
        let seed = self.dual.as_ref().filter(|_| warm);
        let seed = seed.map(|d| d.alpha.as_slice());
        let dual = self.store.solve(labels, &bounds, &cfg.smo, seed)?;
        solves.absorb(&dual.stats);
        self.dual = Some(dual);
        Ok(())
    }

    /// Hinge slacks of the samples `from..` (the unlabeled pool) under the
    /// current dual, which was solved with `labels`, read from the
    /// store's rows.
    fn slacks(&mut self, labels: &[f64], from: usize) -> Vec<f64> {
        // lrf-lint: allow(service-panic): `Annealing::step` retrains both
        // views before its first correction round
        let dual = self.dual.as_ref().expect("trained before correction");
        self.store.slacks(dual, labels, from)
    }
}

/// The state one [`train_coupled`] call threads through Fig. 1's steps:
/// the two views and the labels `y` followed by the pseudo-labels `Y'`.
struct Annealing<'a, S1: ?Sized, K1, S2: ?Sized, K2> {
    content: SvmView<'a, S1, K1>,
    log: SvmView<'a, S2, K2>,
    /// `y` then `Y'`: what both views train on.
    labels: Vec<f64>,
    /// Length of the `y` prefix of `labels`.
    n_labeled: usize,
    cfg: &'a CoupledConfig,
    /// Seed each retrain from the view's previous solution.
    warm: bool,
    /// Every solve so far, both views.
    solves: RoundDiagnostics,
    report: TrainReport,
}

impl<S1, K1, S2, K2> Annealing<'_, S1, K1, S2, K2>
where
    S1: ?Sized + ToOwned,
    K1: Kernel<S1>,
    S2: ?Sized + ToOwned,
    K2: Kernel<S2>,
{
    /// Fig. 1's alternating optimization: train at `ρ* = min(ρ_init, ρ)`,
    /// correct, and double `ρ*` up to `ρ`. Leaves the final dual in both
    /// views and the final pseudo-labels in `labels`.
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
        Ok(())
    }

    /// Re-solves both views, content first, at the current pseudo-labels.
    fn retrain(&mut self, rho_star: f64) -> Result<(), SvmError> {
        let (labels, n_l, cfg, warm) = (&self.labels, self.n_labeled, self.cfg, self.warm);
        let solves = &mut self.solves;
        self.content
            .retrain(labels, n_l, rho_star, cfg, warm, solves)?;
        self.log.retrain(labels, n_l, rho_star, cfg, warm, solves)?;
        self.report.retrains += 1;
        Ok(())
    }

    /// One `ρ*` step: train, then [`correct`](Self::correct) until no
    /// switch pair qualifies. Each round lowers Eq. 1's objective (the
    /// switch at fixed models, then the retrain), so the loop ends by
    /// itself. The guard of `N'/2 + 1` rounds is there only because warm
    /// solves are exact within the KKT tolerance; a step that uses every
    /// round marks the run not converged.
    fn step(&mut self, rho_star: f64) -> Result<(), SvmError> {
        self.retrain(rho_star)?;
        let guard = (self.labels.len() - self.n_labeled) / 2 + 1;
        let mut rounds = 0;
        while rounds < guard && self.correct(rho_star)? {
            rounds += 1;
        }
        self.solves.converged &= rounds < guard;
        self.report.rho_steps += 1;
        Ok(())
    }

    /// One correction round: Fig. 1's gate, `ξ'_j > 0 ∧ η'_j > 0 ∧
    /// ξ'_j + η'_j > Δ` on the current duals' pool slacks, then Joachims'
    /// transductive-SVM switch over what passes it, then a retrain if any
    /// pair switched. Returns whether one did.
    ///
    /// Flipping `y'_j` at fixed models turns its slacks into
    /// `max(0, 2 − ξ'_j)` and `max(0, 2 − η'_j)`, so it changes Eq. 1's
    /// objective by `ρ*` times the gain
    /// `C_w(max(0, 2 − ξ'_j) − ξ'_j) + C_u(max(0, 2 − η'_j) − η'_j)`. The
    /// gated positives and negatives are each sorted by gain (ties by pool
    /// index); the best positive switches with the best negative, the
    /// second with the second, while the pair's gains sum below zero. Every
    /// switch thus lowers the objective and keeps the pool's class count.
    fn correct(&mut self, rho_star: f64) -> Result<bool, SvmError> {
        let xi = self.content.slacks(&self.labels, self.n_labeled);
        let eta = self.log.slacks(&self.labels, self.n_labeled);
        // One view's term of the gain: `C` times the slack's change.
        let view = |s: f64, c: f64| c * ((2.0 - s).max(0.0) - s);
        let gain = |j: usize| view(xi[j], self.cfg.c_content) + view(eta[j], self.cfg.c_log);
        let gate = |j: &usize| xi[*j] > 0.0 && eta[*j] > 0.0 && xi[*j] + eta[*j] > self.cfg.delta;
        let mut gated: Vec<usize> = (0..xi.len()).filter(gate).collect();
        // A stable sort: equal gains stay in pool-index order.
        gated.sort_by(|&i, &j| gain(i).total_cmp(&gain(j)));
        let y_prime = &mut self.labels[self.n_labeled..];
        let (pos, neg): (Vec<usize>, Vec<usize>) = gated.iter().partition(|&&j| y_prime[j] > 0.0);
        let pairs = pos.into_iter().zip(neg);
        let pairs: Vec<_> = pairs
            .take_while(|&(i, j)| gain(i) + gain(j) < 0.0)
            .collect();
        for &(i, j) in &pairs {
            y_prime[i] *= -1.0;
            y_prime[j] *= -1.0;
        }
        self.report.flips += 2 * pairs.len();
        if !pairs.is_empty() {
            self.retrain(rho_star)?;
        }
        Ok(!pairs.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::LogRbfKernel;
    use lrf_logdb::SparseVector;
    use lrf_svm::{RbfKernel, SmoParams};
    use std::borrow::Borrow;

    /// A row store over `labeled` then `unlabeled`.
    fn store<'a, S, B, K>(kernel: K, labeled: &'a [B], unlabeled: &'a [B]) -> KernelCache<'a, S, K>
    where
        S: ?Sized + ToOwned,
        B: Borrow<S>,
        K: Kernel<S>,
    {
        let samples = labeled.iter().chain(unlabeled).map(Borrow::borrow);
        KernelCache::new(kernel, samples.collect())
    }

    /// [`train_coupled`] over a fresh store per view.
    #[allow(clippy::too_many_arguments)]
    fn coupled<S1, B1, K1, S2, B2, K2>(
        labeled_a: &[B1],
        labeled_b: &[B2],
        y: &[f64],
        unlabeled_a: &[B1],
        unlabeled_b: &[B2],
        y_init: &[f64],
        kernel_a: K1,
        kernel_b: K2,
        cfg: &CoupledConfig,
    ) -> Result<CoupledOutcome, SvmError>
    where
        S1: ?Sized + ToOwned,
        B1: Borrow<S1>,
        K1: Kernel<S1>,
        S2: ?Sized + ToOwned,
        B2: Borrow<S2>,
        K2: Kernel<S2>,
    {
        let content = store(kernel_a, labeled_a, unlabeled_a);
        let log = store(kernel_b, labeled_b, unlabeled_b);
        train_coupled(content, log, y, y_init, cfg)
    }

    /// The decision function of a view's final `dual` in `out`, over
    /// `labeled` then `unlabeled`, solved with `y` then the final
    /// pseudo-labels: its model's `decision_batch`, one sample at a time.
    fn machine<S, B, K>(
        kernel: K,
        (labeled, unlabeled): (&[B], &[B]),
        y: &[f64],
        out: &CoupledOutcome,
        dual: &Dual,
    ) -> impl Fn(&S) -> f64
    where
        S: ?Sized + ToOwned,
        B: Borrow<S>,
        K: Kernel<S> + Clone,
    {
        let labels: Vec<f64> = y.iter().chain(&out.report.final_labels).copied().collect();
        let store = store(kernel, labeled, unlabeled);
        let model = store.machine(dual.clone(), &labels).model;
        move |x: &S| model.decision_batch(&[x])[0]
    }

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
        let out = coupled(
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
        let content = machine(ka, (&la, &ua), &y, &out, &out.content);
        let log = machine(kb, (&lb, &ub), &y, &out, &out.log);
        // Both machines classify the labeled data correctly.
        for (i, x) in la.iter().enumerate() {
            assert!(content(x) * y[i] > 0.0, "content sample {i}");
        }
        for (i, r) in lb.iter().enumerate() {
            assert!(log(r) * y[i] > 0.0, "log sample {i}");
        }
        // CSVM_Dist (the summed decisions) agrees with the shared structure.
        let csvm_dist = |j: usize| content(&ua[j]) + log(&ub[j]);
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
        let out = coupled(&la, &lb, &y, &ua, &ub, &[-1.0, 1.0], ka, kb, &cfg).unwrap();
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
        let out = coupled(
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
        let content = machine(ka, (&la, &[]), &y, &out, &out.content);
        for (i, x) in la.iter().enumerate() {
            assert!(content(x) * y[i] > 0.0);
        }
    }

    #[test]
    fn annealing_step_count_matches_schedule() {
        // rho_init 1e-4 doubling to rho 0.5: steps at 1e-4, 2e-4, ..., plus
        // the final pass. ceil(log2(0.5/1e-4)) = 13 doublings.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig::default();
        let out = coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &cfg).unwrap();
        let expected = ((cfg.rho / cfg.rho_init).log2().ceil() as usize) + 1;
        assert_eq!(
            out.report.rho_steps, expected,
            "steps {}",
            out.report.rho_steps
        );
    }

    #[test]
    fn contradictory_pool_terminates_inside_the_guard() {
        // A pool of contradictory points (content says +, log says −) at
        // Δ = 0 made Fig. 1's literal rule oscillate until a round cap
        // stopped it. The pair switch only ever lowers the objective, so
        // every ρ* step ends on its own, well inside the guard.
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
            rho: 1.0,
            ..Default::default()
        };
        for y_init in [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]] {
            let out = coupled(&la, &lb, &y, &ua, &ub, &y_init, ka, kb, &cfg).unwrap();
            assert!(out.solves.converged, "{:?}", out.report);
            // The guard is 2 rounds per step for a pool of two.
            let steps = out.report.rho_steps;
            assert!(out.report.retrains <= 3 * steps, "{:?}", out.report);
            // A switch flips one positive and one negative.
            let positives = |l: &[f64]| l.iter().filter(|&&v| v > 0.0).count();
            assert_eq!(positives(&out.report.final_labels), positives(&y_init));
        }
    }

    #[test]
    fn misaligned_views_are_a_length_mismatch() {
        let (la, lb, y, ua, _) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig::default();
        let err = coupled(&la, &lb, &y, &ua, &[], &[1.0, -1.0], ka, kb, &cfg).err();
        assert!(
            matches!(err, Some(SvmError::LengthMismatch { samples: 4, .. })),
            "{err:?}"
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
        let out_weak = coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &weak).unwrap();
        let out_strong = coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &strong).unwrap();
        let probe = vec![0.5, 0.6];
        let d_weak = machine(ka, (&la, &ua), &y, &out_weak, &out_weak.content)(&probe);
        let d_strong = machine(ka, (&la, &ua), &y, &out_strong, &out_strong.content)(&probe);
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
        let warm = coupled(&la, &lb, &y, &ua, &ub, &y_init, ka, kb, &cfg).unwrap();
        let (content, log) = (store(ka, &la, &ua), store(kb, &lb, &ub));
        let cold = anneal_views(content, log, &y, &y_init, &cfg, false).unwrap();
        assert_eq!(warm.report.final_labels, cold.report.final_labels);
        assert_eq!(warm.report.retrains, cold.report.retrains);
        let content = |out: &CoupledOutcome| machine(ka, (&la, &ua), &y, out, &out.content);
        let log = |out: &CoupledOutcome| machine(kb, (&lb, &ub), &y, out, &out.log);
        let (warm_content, cold_content) = (content(&warm), content(&cold));
        let (warm_log, cold_log) = (log(&warm), log(&cold));
        for x in la.iter().chain(&ua) {
            let dw = warm_content(x);
            let dc = cold_content(x);
            assert!(
                (dw - dc).abs() < 1e-2,
                "content decisions diverged: warm {dw} vs cold {dc}"
            );
        }
        for r in lb.iter().chain(&ub) {
            let dw = warm_log(r);
            let dc = cold_log(r);
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
        let out = coupled(
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
    fn each_view_evaluates_each_kernel_value_at_most_once_per_fit() {
        // LRF-CSVM's shape: a labeled-only solve per view, the stores
        // extended by the pool, the anneal in the same stores. Together
        // they make at most the n(n+1)/2 evaluations of one symmetric Gram
        // fill; a fresh store for the anneal would exceed it.
        let (la, lb, y, ua, ub) = agreeing_problem();
        let (ka, kb) = kernels();
        let cfg = CoupledConfig::default();
        let (count_a, count_b) = (Default::default(), Default::default());
        let ka = Counting(ka, std::sync::Arc::clone(&count_a));
        let kb = Counting(kb, std::sync::Arc::clone(&count_b));
        let mut content = store(ka.clone(), &la, &[]);
        let mut log = store(kb.clone(), &lb, &[]);
        let labeled = |c: f64| vec![c; y.len()];
        content
            .solve(&y, &labeled(cfg.c_content), &cfg.smo, None)
            .unwrap();
        log.solve(&y, &labeled(cfg.c_log), &cfg.smo, None).unwrap();
        content.extend(ua.iter().map(Vec::as_slice));
        log.extend(&ub);
        let out = train_coupled(content, log, &y, &[-1.0, 1.0], &cfg).unwrap();
        assert!(out.report.retrains >= 10, "{:?}", out.report);
        let n = la.len() + ua.len();
        let shared = [&count_a, &count_b].map(|c| c.load(std::sync::atomic::Ordering::Relaxed));
        for evaluations in shared {
            assert!(evaluations > 0);
            assert!(evaluations <= n * (n + 1) / 2, "{evaluations} evaluations");
        }

        // The same fit with the anneal in fresh stores.
        count_a.store(0, std::sync::atomic::Ordering::Relaxed);
        count_b.store(0, std::sync::atomic::Ordering::Relaxed);
        let (mut content, mut log) = (store(ka.clone(), &la, &[]), store(kb.clone(), &lb, &[]));
        content
            .solve(&y, &labeled(cfg.c_content), &cfg.smo, None)
            .unwrap();
        log.solve(&y, &labeled(cfg.c_log), &cfg.smo, None).unwrap();
        coupled(&la, &lb, &y, &ua, &ub, &[-1.0, 1.0], ka, kb, &cfg).unwrap();
        let fresh = [&count_a, &count_b].map(|c| c.load(std::sync::atomic::Ordering::Relaxed));
        assert!(fresh.iter().any(|&e| e > n * (n + 1) / 2), "{fresh:?}");
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
        let out = coupled(&la, &lb, &y, &ua, &ub, &[1.0, 1.0], ka, kb, &cfg).unwrap();
        assert_eq!(out.report.final_labels, vec![1.0, 1.0]);
        assert_eq!(out.report.flips, 0);
        let labels = [1.0; 6];
        for dual in [&out.content, &out.log] {
            let stats = dual.stats;
            assert_eq!(stats.n_support, 0);
            assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
            assert!(dual.alpha.iter().all(|&a| a == 0.0));
            assert_eq!(dual.expansion(&labels), (1.0, Vec::new()));
        }
        let content = machine(ka, (&la, &ua), &y, &out, &out.content);
        assert_eq!(content(&la[1]), 1.0);
    }

    #[test]
    fn a_capped_solve_mid_anneal_is_folded_into_the_outcome() {
        // At a cap of 5 iterations both final solves converge, but an
        // earlier one inside the anneal does not.
        let (la, _, y, ua, _) = agreeing_problem();
        let cfg = CoupledConfig {
            smo: SmoParams { max_iter: 5 },
            ..Default::default()
        };
        let (ka, kb) = (RbfKernel::new(0.5), RbfKernel::new(0.2));
        let out = coupled(&la, &la, &y, &ua, &ua, &[-1.0, 1.0], ka, kb, &cfg).unwrap();
        assert!(out.content.stats.converged && out.log.stats.converged);
        assert!(!out.solves.converged);
        let finals = out.content.stats.iterations + out.log.stats.iterations;
        assert!(out.solves.iterations > finals, "{:?}", out.solves);
    }

    /// A dense sample that counts its clones, shared by every clone.
    struct Tracked(Vec<f64>, std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Self(self.0.clone(), std::sync::Arc::clone(&self.1))
        }
    }

    /// The dense RBF over [`Tracked`] samples.
    #[derive(Clone)]
    struct TrackedRbf(RbfKernel);

    impl Kernel<Tracked> for TrackedRbf {
        fn compute(&self, a: &Tracked, b: &Tracked) -> f64 {
            self.0.compute(&a.0, &b.0)
        }
    }

    #[test]
    fn the_anneal_clones_no_sample() {
        // However many retrains the anneal runs, it returns duals, and no
        // view copies a sample: a model, if a caller wants one, is built
        // from a final dual outside the run.
        let (la, _, y, ua, _) = agreeing_problem();
        let counters: [std::sync::Arc<std::sync::atomic::AtomicUsize>; 2] = Default::default();
        let track = |xs: &[Vec<f64>], c: &std::sync::Arc<_>| -> Vec<Tracked> {
            xs.iter()
                .map(|x| Tracked(x.clone(), std::sync::Arc::clone(c)))
                .collect()
        };
        let (la_a, ua_a) = (track(&la, &counters[0]), track(&ua, &counters[0]));
        let (la_b, ua_b) = (track(&la, &counters[1]), track(&ua, &counters[1]));
        let (ka, kb) = (
            TrackedRbf(RbfKernel::new(0.5)),
            TrackedRbf(RbfKernel::new(0.2)),
        );
        let cfg = CoupledConfig::default();
        let out = coupled(&la_a, &la_b, &y, &ua_a, &ua_b, &[-1.0, 1.0], ka, kb, &cfg).unwrap();
        assert!(out.report.retrains >= 10, "{:?}", out.report);
        let n_support = [out.content.stats.n_support, out.log.stats.n_support];
        for (counter, n_support) in counters.iter().zip(n_support) {
            assert!(n_support > 0);
            assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 0);
        }
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
        let out = coupled(&la, &lb, &y, &ua, &ub, &[1.0, -1.0], ka, kb, &cfg).unwrap();
        assert!(!out.content.stats.converged);
    }

    /// [`anneal_views`]'s run before its first solve, warm.
    fn annealing<'a, S1, K1, S2, K2>(
        content: KernelCache<'a, S1, K1>,
        log: KernelCache<'a, S2, K2>,
        y: &[f64],
        y_init: &[f64],
        cfg: &'a CoupledConfig,
    ) -> Annealing<'a, S1, K1, S2, K2>
    where
        S1: ?Sized + ToOwned,
        K1: Kernel<S1> + Clone,
        S2: ?Sized + ToOwned,
        K2: Kernel<S2> + Clone,
    {
        Annealing {
            content: SvmView::new(content, cfg.c_content),
            log: SvmView::new(log, cfg.c_log),
            labels: [y, y_init].concat(),
            n_labeled: y.len(),
            cfg,
            warm: true,
            solves: RoundDiagnostics::all_converged(),
            report: TrainReport::default(),
        }
    }

    /// Eq. 1's objective for one view at its current dual: `½‖w‖²` (the
    /// dual objective `½αᵀQα − Σα`, plus `Σα`) and every sample's bound
    /// (`C` labeled, `ρ*·C` pool) times its hinge slack.
    fn view_objective<S: ?Sized + ToOwned, K: Kernel<S> + Clone>(
        view: &mut SvmView<'_, S, K>,
        labels: &[f64],
        n_labeled: usize,
        rho_star: f64,
    ) -> f64 {
        let dual = view.dual.as_ref().expect("trained");
        let half_w2 = dual.stats.objective + dual.alpha.iter().sum::<f64>();
        let slacks = view.store.slacks(dual, labels, 0);
        let bound = |i: usize| if i < n_labeled { 1.0 } else { rho_star };
        let hinge: f64 = slacks.iter().enumerate().map(|(i, s)| bound(i) * s).sum();
        half_w2 + view.c * hinge
    }

    /// Drives Fig. 1's schedule one correction round at a time and checks
    /// every round: the pool's positive count is kept, Eq. 1's objective
    /// does not rise beyond the solver's KKT tolerance (the switch lowers
    /// it at fixed models; the warm retrain is optimal within `EPS`), and
    /// no step needs more rounds than its guard. Returns the final labels.
    fn check_switch_rounds<S1, K1, S2, K2>(mut run: Annealing<'_, S1, K1, S2, K2>) -> Vec<f64>
    where
        S1: ?Sized + ToOwned,
        K1: Kernel<S1> + Clone,
        S2: ?Sized + ToOwned,
        K2: Kernel<S2> + Clone,
    {
        let (cfg, n_l) = (run.cfg, run.n_labeled);
        let positives = |labels: &[f64]| labels[n_l..].iter().filter(|&&v| v > 0.0).count();
        let mut rho_star = cfg.rho_init;
        loop {
            run.retrain(rho_star).unwrap();
            // A KKT gap of EPS per unit of bound, summed over both views.
            let n_pool = (run.labels.len() - n_l) as f64;
            let bounds = (cfg.c_content + cfg.c_log) * (n_l as f64 + rho_star * n_pool);
            let slack = lrf_svm::EPS * bounds;
            let objective = |run: &mut Annealing<'_, S1, K1, S2, K2>| {
                let labels = run.labels.clone();
                view_objective(&mut run.content, &labels, n_l, rho_star)
                    + view_objective(&mut run.log, &labels, n_l, rho_star)
            };
            let (mut rounds, guard) = (0, (run.labels.len() - n_l) / 2 + 1);
            loop {
                let (count, before) = (positives(&run.labels), objective(&mut run));
                if !run.correct(rho_star).unwrap() {
                    break;
                }
                rounds += 1;
                assert_eq!(positives(&run.labels), count, "round {rounds}");
                let after = objective(&mut run);
                assert!(
                    after <= before + slack,
                    "{before} -> {after} (slack {slack})"
                );
                // `step` marks a run that needs every guard round.
                assert!(rounds < guard, "{rounds} rounds at ρ* {rho_star}");
            }
            if rho_star >= cfg.rho {
                break;
            }
            rho_star = (2.0 * rho_star).min(cfg.rho);
        }
        assert!(run.solves.converged);
        run.labels.split_off(n_l)
    }

    /// A random two-view problem: `n_l` labeled points of alternating
    /// class and an `n_pool` pool with random pseudo-labels, dense in the
    /// content view, then dense or sparse (`±1` session judgments) in the
    /// log view, each class shifted to its own side.
    #[allow(clippy::type_complexity)]
    fn random_problem(
        seed: u64,
        n_l: usize,
        n_pool: usize,
    ) -> (
        Vec<Vec<f64>>,
        Vec<Vec<f64>>,
        Vec<SparseVector>,
        Vec<f64>,
        Vec<f64>,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let y: Vec<f64> = (0..n_l).map(|i| [1.0, -1.0][i % 2]).collect();
        let y_init: Vec<f64> = (0..n_pool)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        // Pool points take a hidden class, labeled points their label.
        let class: Vec<f64> = y
            .iter()
            .copied()
            .chain((0..n_pool).map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 }))
            .collect();
        let mut point = |c: f64, dim: usize| -> Vec<f64> {
            (0..dim)
                .map(|_| 0.6 * c + rng.gen_range(-1.0..1.0))
                .collect()
        };
        let content: Vec<Vec<f64>> = class.iter().map(|&c| point(c, 2)).collect();
        let dense: Vec<Vec<f64>> = class.iter().map(|&c| point(c, 3)).collect();
        let mut sparse = Vec::new();
        for &c in &class {
            let mut entries = Vec::new();
            for session in 0..6u32 {
                if rng.gen_bool(0.5) {
                    entries.push((session, if rng.gen_bool(0.8) { c } else { -c }));
                }
            }
            sparse.push(SparseVector::from_entries(entries));
        }
        (content, dense, sparse, y, y_init)
    }

    fn rows(xs: &[Vec<f64>]) -> Vec<&[f64]> {
        xs.iter().map(Vec::as_slice).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn every_switch_round_keeps_the_class_count_and_lowers_the_objective(
            seed in 0u64..u64::MAX,
            n_l in 2usize..9,
            n_pool in 2usize..13,
            c_content in 0.1f64..10.0,
            c_log in 0.1f64..10.0,
            delta in 0.0f64..2.0,
            rho in 0.01f64..2.0,
        ) {
            let cfg = CoupledConfig {
                c_content,
                c_log,
                delta,
                rho,
                ..Default::default()
            };
            let (content, dense, sparse, y, y_init) = random_problem(seed, n_l, n_pool);
            let content_store = || KernelCache::new(RbfKernel::new(0.5), rows(&content));
            // Dense × dense.
            let log = KernelCache::new(RbfKernel::new(0.2), rows(&dense));
            let run = annealing(content_store(), log, &y, &y_init, &cfg);
            let labels = check_switch_rounds(run);
            // The product's own loop takes the same rounds.
            let log = KernelCache::new(RbfKernel::new(0.2), rows(&dense));
            let out = train_coupled(content_store(), log, &y, &y_init, &cfg).unwrap();
            proptest::prop_assert_eq!(&out.report.final_labels, &labels);
            proptest::prop_assert!(out.solves.converged);
            // Dense × sparse log view.
            let log = KernelCache::new(LogRbfKernel::new(0.5), sparse.iter().collect());
            check_switch_rounds(annealing(content_store(), log, &y, &y_init, &cfg));
        }
    }
}
