//! The kernel over sparse feedback-log vectors.
//!
//! The log-side SVM of Eq. 3 operates on the relevance-matrix columns
//! `r_i`. [`LogRbfKernel`] implements [`lrf_svm::Kernel`] for
//! [`lrf_logdb::SparseVector`] so the same SMO solver drives both
//! modalities. (The impl lives here — not in `lrf-logdb` — to keep the log
//! store free of any learning-stack dependency.) The paper does not say
//! how its RBF treated the sparse columns; plain RBF on the raw ±1 columns
//! is the calibrated choice (`lrf-bench`'s crate docs hold the grid).

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
    #[should_panic(expected = "gamma")]
    fn invalid_gamma_rejected() {
        let _ = LogRbfKernel::new(-1.0);
    }
}
