//! Configuration for the coupled SVM and the LRF-CSVM algorithm.
//!
//! The paper reports no concrete constants; every default below is
//! documented with its rationale and is swept by the ablation benches in
//! `lrf-bench` (`reproduce ablate-rho | ablate-delta | ablate-unlabeled |
//! ablate-noise | ablate-sessions` measure the sensitivity).

use crate::kernels::LogRbfKernel;
use lrf_svm::SmoParams;

/// Parameters of the coupled-SVM optimization (Eq. 1 + the annealing
/// schedule of Fig. 1) that [`crate::train_coupled`] runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoupledConfig {
    /// Penalty `C_w` on labeled content-side slack.
    pub c_content: f64,
    /// Penalty `C_u` on labeled log-side slack.
    pub c_log: f64,
    /// Final unlabeled regularization weight `ρ` (unlabeled points receive
    /// `ρ*·C` during annealing, capped at `ρ·C`). The paper increases ρ*
    /// "until it achieves a setting threshold" without reporting it. The
    /// default 0.05 was calibrated when the label correction was Fig. 1's
    /// literal rule, under which larger ρ let wrong pseudo-positives poison
    /// the boundary. Under the pair switch the result is flat in ρ: the ρ
    /// ablation (`reproduce ablate-rho`) reads P@20 0.589–0.602 from
    /// ρ = 0.001 to 2, against 0.601 at the default.
    pub rho: f64,
    /// Starting value of the annealed `ρ*` (Fig. 1: `ρ* = 10⁻⁴`).
    pub rho_init: f64,
    /// Label-correction gate `Δ`: `y'_i` is a switch candidate when
    /// `ξ'_i > 0 ∧ η'_i > 0 ∧ ξ'_i + η'_i > Δ` (Fig. 1's rule), and is
    /// flipped only in a pair switch that lowers Eq. 1's objective. That
    /// descent test binds before the gate does: with slacks below 2, a flip
    /// lowers the objective only when `C_w·ξ'_i + C_u·η'_i > C_w + C_u`, so
    /// Δ ∈ {0.5, 1, 2, 3} gives identical results on this corpus
    /// (`reproduce ablate-delta`). Default 0.5.
    pub delta: f64,
    /// Inner QP solver parameters.
    pub smo: SmoParams,
}

impl Default for CoupledConfig {
    fn default() -> Self {
        Self {
            c_content: 1.0,
            c_log: 0.5,
            rho: 0.05,
            rho_init: 1e-4,
            delta: 0.5,
            smo: SmoParams::default(),
        }
    }
}

impl CoupledConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    /// Panics on non-positive penalties, `rho_init > rho`, or a negative Δ.
    pub(crate) fn validate(&self) {
        assert!(self.c_content > 0.0, "c_content must be positive");
        assert!(self.c_log > 0.0, "c_log must be positive");
        assert!(
            self.rho > 0.0 && self.rho_init > 0.0,
            "rho values must be positive"
        );
        assert!(self.rho_init <= self.rho, "rho_init must not exceed rho");
        assert!(self.delta >= 0.0, "delta must be nonnegative");
    }
}

/// How LRF-CSVM picks its `N'` unlabeled samples (Fig. 1 step 1 vs. the
/// §6.5 discussion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnlabeledSelection {
    /// The paper's strategy: `N'/2` with the largest combined SVM distance
    /// (closest to the positive labeled data) and `N'/2` with the smallest
    /// (closest to the negative).
    MaxMinCombinedDistance,
    /// The active-learning alternative the paper reports as *not* working
    /// ("did not achieve promising improvements"): the `N'` samples closest
    /// to the decision boundary (smallest `|dist|`). Kept to reproduce the
    /// §6.5 negative result.
    ClosestToBoundary,
    /// Uniform random selection (ablation control).
    Random,
}

/// Full configuration of the LRF-CSVM algorithm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LrfConfig {
    /// Coupled-SVM parameters.
    pub coupled: CoupledConfig,
    /// Number of unlabeled samples `N'` engaged in the learning task.
    /// "It is impossible to engage all of the unlabeled data." The default
    /// 10 is calibrated: pseudo-positive precision decays quickly with pool
    /// depth on this corpus (0.52 at N'=10 → 0.35 at N'=40; the
    /// `tune_csvm` example prints the curve), so small pools dominate.
    /// Swept by the N' ablation.
    pub n_unlabeled: usize,
    /// Unlabeled selection strategy. It also fixes the initial
    /// pseudo-labels `Y'`: under
    /// [`UnlabeledSelection::MaxMinCombinedDistance`], `+1` for the
    /// max-distance half and `−1` for the min-distance half (the
    /// initialization §6.5 argues provides "more precise label
    /// information"); otherwise the sign of each chosen sample's combined
    /// SVM distance.
    pub selection: UnlabeledSelection,
    /// RBF width for the content kernel; `None` → LIBSVM default `1/d`.
    /// The paper reports no kernel parameters; the default (`Some(1.0)`) is
    /// calibrated so RF-SVM's improvement over Euclidean matches the
    /// paper's ratio (the `tune_rf` example is the grid search).
    pub gamma_content: Option<f64>,
    /// RBF kernel over the sparse log vectors. Default `γ = 0.1`, picked
    /// by a grid search over kernel family and width (the table is in
    /// `lrf-bench`'s crate docs).
    pub log_kernel: LogRbfKernel,
}

impl Default for LrfConfig {
    fn default() -> Self {
        Self {
            coupled: CoupledConfig::default(),
            n_unlabeled: 10,
            selection: UnlabeledSelection::MaxMinCombinedDistance,
            gamma_content: Some(1.0),
            log_kernel: LogRbfKernel { gamma: 0.1 },
        }
    }
}

impl LrfConfig {
    /// Validates parameter ranges, the coupled-SVM ones included.
    ///
    /// # Panics
    /// Panics on whatever `coupled` rejects (non-positive penalties,
    /// `rho_init > rho`, a negative Δ), fewer than two unlabeled samples,
    /// or a non-positive kernel width.
    pub fn validate(&self) {
        self.coupled.validate();
        assert!(self.n_unlabeled >= 2, "need at least two unlabeled samples");
        assert!(
            self.log_kernel.gamma > 0.0,
            "log kernel gamma must be positive"
        );
        if let Some(g) = self.gamma_content {
            assert!(g > 0.0, "gamma_content must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        CoupledConfig::default().validate();
        LrfConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "rho_init")]
    fn rho_init_above_rho_rejected() {
        let cfg = CoupledConfig {
            rho_init: 2.0,
            rho: 1.0,
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "c_content")]
    fn nonpositive_c_rejected() {
        let cfg = CoupledConfig {
            c_content: 0.0,
            ..Default::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "unlabeled")]
    fn too_few_unlabeled_rejected() {
        let cfg = LrfConfig {
            n_unlabeled: 1,
            ..Default::default()
        };
        cfg.validate();
    }
}
