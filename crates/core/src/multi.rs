//! Multi-modality coupled SVM — the generalization the paper sketches.
//!
//! "Without losing generality, we formalize the coupled SVM for learning on
//! data with two types of information. It can be naturally generalized for
//! learning on a multiple-modality problem." This module is that
//! generalization for *k* dense modalities:
//!
//! * one max-margin machine per modality, all sharing labels and the
//!   unlabeled pseudo-labels `Y'`;
//! * alternating optimization by the *same* driver as the two-modality
//!   [`crate::train_coupled`] (`coupled::anneal`) — there is one Fig. 1 in
//!   this crate, so the `k = 2` dense case is bit-identical to it;
//! * the label-correction rule generalizes conjunctively: flip `y'_j` when
//!   **every** modality has positive slack on it and the summed slack
//!   exceeds `Δ` (for `k = 2` this is exactly Fig. 1's rule).

use crate::config::CoupledConfig;
use crate::coupled::{anneal, SvmView, TrainReport, View};
use lrf_svm::{Kernel, SvmError, SvmModel, TrainedSvm};
use serde::{Deserialize, Serialize};

/// Kernel choice for a dense modality (an enum so heterogeneous modalities
/// can live in one `Vec<ModalityData>` without generics).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DenseKernel {
    /// `K(a,b) = aᵀb`.
    Linear,
    /// `K(a,b) = exp(−γ‖a−b‖²)`.
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
}

impl Kernel<[f64]> for DenseKernel {
    #[inline]
    fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            DenseKernel::Linear => lrf_svm::kernel::dot(a, b),
            DenseKernel::Rbf { gamma } => (-gamma * lrf_svm::kernel::squared_distance(a, b)).exp(),
        }
    }
}

/// One modality's data and hyperparameters.
#[derive(Clone, Debug)]
pub struct ModalityData {
    /// Labeled samples (aligned with the shared label vector).
    pub labeled: Vec<Vec<f64>>,
    /// Unlabeled samples (aligned with the shared pseudo-label vector).
    pub unlabeled: Vec<Vec<f64>>,
    /// Kernel for this modality.
    pub kernel: DenseKernel,
    /// Labeled-slack penalty `C` for this modality.
    pub c: f64,
}

/// Result of [`train_multi_coupled`].
#[derive(Clone, Debug)]
pub struct MultiCoupledOutcome {
    /// One trained machine per modality, in input order.
    pub machines: Vec<TrainedSvm<[f64], DenseKernel>>,
    /// Training diagnostics (shared across modalities).
    pub report: TrainReport,
}

impl MultiCoupledOutcome {
    /// The coupled relevance score of a sample given per-modality views:
    /// the sum of all machines' decision values.
    ///
    /// # Panics
    /// Panics if `views.len()` differs from the number of modalities.
    pub fn coupled_score(&self, views: &[Vec<f64>]) -> f64 {
        assert_eq!(
            views.len(),
            self.machines.len(),
            "one view per modality required"
        );
        self.machines
            .iter()
            .zip(views)
            .map(|(m, v)| m.model.decision(v))
            .sum()
    }

    /// Borrow the per-modality models.
    pub fn models(&self) -> impl Iterator<Item = &SvmModel<[f64], DenseKernel>> {
        self.machines.iter().map(|m| &m.model)
    }
}

/// Trains the k-modality coupled machine on the schedule in `cfg` (ρ, ρ
/// init, Δ, correction cap, final pass, warm starts, solver). Per-view `C`
/// lives on each [`ModalityData`]; `c_content` / `c_log` are the 2-view
/// entry's and are not read here.
///
/// # Errors
/// Propagates solver errors.
///
/// # Panics
/// Panics on empty modality lists or misaligned sample counts.
pub fn train_multi_coupled(
    modalities: &[ModalityData],
    y: &[f64],
    y_init: &[f64],
    cfg: &CoupledConfig,
) -> Result<MultiCoupledOutcome, SvmError> {
    assert!(!modalities.is_empty(), "need at least one modality");
    for (m, data) in modalities.iter().enumerate() {
        assert_eq!(
            data.labeled.len(),
            y.len(),
            "modality {m} labeled count mismatch"
        );
        assert_eq!(
            data.unlabeled.len(),
            y_init.len(),
            "modality {m} unlabeled count mismatch"
        );
        assert!(data.c > 0.0, "modality {m} penalty must be positive");
    }

    let mut views: Vec<SvmView<'_, [f64], DenseKernel>> = modalities
        .iter()
        .map(|m| SvmView::new(&m.labeled, &m.unlabeled, m.kernel, m.c, &cfg.smo))
        .collect();
    let mut erased: Vec<&mut dyn View> = views.iter_mut().map(|v| v as &mut dyn View).collect();
    let report = anneal(&mut erased, y, y_init, cfg)?;
    Ok(MultiCoupledOutcome {
        machines: views.into_iter().map(SvmView::into_machine).collect(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule these tests were written against (ρ 0.5, Δ 2), which
    /// is not the calibrated LRF-CSVM default.
    fn schedule() -> CoupledConfig {
        CoupledConfig {
            rho: 0.5,
            delta: 2.0,
            ..Default::default()
        }
    }

    /// Three views of the same two-cluster concept, with different scales
    /// and one linear modality.
    fn three_modality_problem() -> (Vec<ModalityData>, Vec<f64>, Vec<f64>) {
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let mk = |scale: f64, kernel: DenseKernel| ModalityData {
            labeled: vec![
                vec![scale, scale * 0.9],
                vec![scale * 1.1, scale],
                vec![-scale, -scale * 0.9],
                vec![-scale * 1.1, -scale],
            ],
            unlabeled: vec![vec![scale * 0.8, scale], vec![-scale, -scale * 1.2]],
            kernel,
            c: 10.0,
        };
        let modalities = vec![
            mk(1.0, DenseKernel::Rbf { gamma: 0.5 }),
            mk(3.0, DenseKernel::Rbf { gamma: 0.1 }),
            mk(0.5, DenseKernel::Linear),
        ];
        (modalities, y, vec![1.0, -1.0])
    }

    #[test]
    fn trains_k_machines_consistently() {
        let (mods, y, y_init) = three_modality_problem();
        let out = train_multi_coupled(&mods, &y, &y_init, &schedule()).unwrap();
        assert_eq!(out.machines.len(), 3);
        for (m, data) in out.machines.iter().zip(&mods) {
            for (x, &label) in data.labeled.iter().zip(&y) {
                assert!(m.model.decision(x) * label > 0.0);
            }
        }
        // Coupled score sums all modalities.
        let views: Vec<Vec<f64>> = mods.iter().map(|m| m.unlabeled[0].clone()).collect();
        assert!(out.coupled_score(&views) > 0.0);
    }

    #[test]
    fn two_modality_case_matches_pairwise_semantics() {
        // With k = 2 the flip rule must equal Fig. 1's: initialize wrong,
        // expect corrections.
        let (mut mods, y, _) = three_modality_problem();
        mods.truncate(2);
        let cfg = CoupledConfig {
            delta: 1.0,
            ..schedule()
        };
        let out = train_multi_coupled(&mods, &y, &[-1.0, 1.0], &cfg).unwrap();
        assert_eq!(out.report.final_labels, vec![1.0, -1.0]);
        assert!(out.report.flips >= 2);
    }

    #[test]
    fn empty_unlabeled_pool_ok() {
        let (mut mods, y, _) = three_modality_problem();
        for m in &mut mods {
            m.unlabeled.clear();
        }
        let out = train_multi_coupled(&mods, &y, &[], &schedule()).unwrap();
        assert_eq!(out.report.rho_steps, 1);
    }

    #[test]
    #[should_panic(expected = "labeled count mismatch")]
    fn misaligned_modalities_panic() {
        let (mut mods, y, y_init) = three_modality_problem();
        mods[1].labeled.pop();
        let _ = train_multi_coupled(&mods, &y, &y_init, &schedule());
    }

    #[test]
    #[should_panic(expected = "one view per modality")]
    fn score_requires_all_views() {
        let (mods, y, y_init) = three_modality_problem();
        let out = train_multi_coupled(&mods, &y, &y_init, &schedule()).unwrap();
        let _ = out.coupled_score(&[vec![0.0, 0.0]]);
    }

    #[test]
    fn single_modality_reduces_to_plain_transductive_svm() {
        let (mut mods, y, y_init) = three_modality_problem();
        mods.truncate(1);
        let out = train_multi_coupled(&mods, &y, &y_init, &schedule()).unwrap();
        assert_eq!(out.machines.len(), 1);
        for (x, &label) in mods[0].labeled.iter().zip(&y) {
            assert!(out.machines[0].model.decision(x) * label > 0.0);
        }
    }
}
