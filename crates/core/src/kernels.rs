//! Kernels over sparse feedback-log vectors.
//!
//! The log-side SVM of Eq. 3 operates on the relevance-matrix columns
//! `r_i`. These types implement [`lrf_svm::Kernel`] for
//! [`lrf_logdb::SparseVector`] so the same SMO solver drives both
//! modalities. (The impls live here — not in `lrf-logdb` — to keep the log
//! store free of any learning-stack dependency.)

use lrf_logdb::SparseVector;
use lrf_svm::Kernel;

/// Gaussian RBF over sparse log vectors:
/// `K(r_a, r_b) = exp(−γ‖r_a − r_b‖²)`.
///
/// Entries are ±1 judgments, so `‖r_a − r_b‖²` is an exact integer count:
/// 4 per disagreeing session plus 1 per unshared judgment — two images
/// consistently co-judged get kernel ≈ 1, images with opposite feedback
/// histories decay fast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogRbfKernel {
    /// Width parameter γ.
    pub gamma: f64,
}

impl LogRbfKernel {
    /// Creates the kernel.
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

impl Kernel<SparseVector> for LogRbfKernel {
    #[inline]
    fn compute(&self, a: &SparseVector, b: &SparseVector) -> f64 {
        (-self.gamma * a.squared_distance(b)).exp()
    }
}

/// The log-side kernel choice, configurable per experiment (the paper does
/// not specify how its RBF treated the sparse log columns; plain RBF is
/// the calibrated default of [`crate::LrfConfig::log_kernel`], the others
/// are ablations the `tune_log` example in `lrf-bench` compares).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LogKernel {
    /// Plain RBF on raw log vectors (default): [`LogRbfKernel`].
    Rbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// RBF on **L2-normalized** log vectors:
    /// `K(r_a, r_b) = exp(−γ‖φ(r_a) − φ(r_b)‖²)` with `φ(r) = r/‖r‖` (and
    /// `φ(0) = 0`).
    ///
    /// Raw log vectors differ mostly in their *degree* (how often an image
    /// was judged), which swamps the overlap signal under a plain RBF;
    /// normalizing makes the kernel respond to co-judgment *agreement*:
    /// identical feedback histories → 1, disjoint histories → `e^{−2γ}`,
    /// perfectly contradictory histories → `e^{−4γ}`. Mercer-valid: `φ` is
    /// an explicit feature map and the Gaussian of any feature map is
    /// positive semidefinite.
    CosineRbf {
        /// Width parameter γ.
        gamma: f64,
    },
    /// Raw signed co-judgment count, `K(r_a, r_b) = r_aᵀ r_b`: agreeing
    /// minus disagreeing co-judgments.
    Linear,
}

impl Kernel<SparseVector> for LogKernel {
    #[inline]
    fn compute(&self, a: &SparseVector, b: &SparseVector) -> f64 {
        match *self {
            LogKernel::Rbf { gamma } => LogRbfKernel { gamma }.compute(a, b),
            LogKernel::CosineRbf { gamma } => {
                let na = a.norm_sq();
                let nb = b.norm_sq();
                // ‖φa − φb‖² = 1{a≠0} + 1{b≠0} − 2·cos(a, b)
                let mut d2 = 0.0;
                if na > 0.0 {
                    d2 += 1.0;
                }
                if nb > 0.0 {
                    d2 += 1.0;
                }
                if na > 0.0 && nb > 0.0 {
                    d2 -= 2.0 * a.dot(b) / (na.sqrt() * nb.sqrt());
                }
                (-gamma * d2.max(0.0)).exp()
            }
            LogKernel::Linear => a.dot(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec())
    }

    #[test]
    fn rbf_identical_histories_give_unit_kernel() {
        let a = sv(&[(0, 1.0), (3, -1.0)]);
        let k = LogRbfKernel::new(0.5);
        assert!((k.compute(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decays_with_disagreement() {
        let k = LogRbfKernel::new(0.5);
        let a = sv(&[(0, 1.0)]);
        let agree = sv(&[(0, 1.0)]);
        let disagree = sv(&[(0, -1.0)]);
        let unrelated = sv(&[(5, 1.0)]);
        let k_agree = k.compute(&a, &agree);
        let k_unrel = k.compute(&a, &unrelated);
        let k_disag = k.compute(&a, &disagree);
        assert!(k_agree > k_unrel, "{k_agree} vs {k_unrel}");
        assert!(k_unrel > k_disag, "{k_unrel} vs {k_disag}");
    }

    #[test]
    fn empty_vectors_look_identical_to_rbf() {
        // Images never judged carry no log information: the kernel sees
        // them as one point, so the log SVM scores them all equally.
        let k = LogRbfKernel::new(0.5);
        let empty1 = SparseVector::new();
        let empty2 = SparseVector::new();
        assert_eq!(k.compute(&empty1, &empty2), 1.0);
    }

    #[test]
    fn linear_counts_signed_overlap() {
        let a = sv(&[(0, 1.0), (1, 1.0), (2, -1.0)]);
        let b = sv(&[(0, 1.0), (2, 1.0), (7, -1.0)]);
        // session 0 agrees (+1), session 2 disagrees (−1) → 0
        assert_eq!(LogKernel::Linear.compute(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn invalid_gamma_rejected() {
        let _ = LogRbfKernel::new(-1.0);
    }
}
