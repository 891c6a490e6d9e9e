//! The kernel over sparse feedback-log vectors.
//!
//! The log-side SVM of Eq. 3 operates on the relevance-matrix columns
//! `r_i`. [`LogRbfKernel`] implements [`lrf_svm::Kernel`] for
//! [`lrf_logdb::SparseVector`] so the same SMO solver drives both
//! modalities. (The impl lives here — not in `lrf-logdb` — to keep the log
//! store free of any learning-stack dependency.) The paper does not say
//! how its RBF treated the sparse columns; plain RBF on the raw ±1 columns
//! is the calibrated choice (`lrf-bench`'s crate docs hold the grid).
//!
//! The session's row blocks compute every log-side kernel value of a fit
//! a block at a time ([`lrf_svm::Kernel::block`]): the labeled images' and
//! the `N'` pool's rows over the round's universe, which also serve the
//! SMO row stores. This kernel's block takes every dot of the block from
//! one session-major [`SparseVector::overlap_block`] instead of a merge
//! per pair: the rows' judgments counting-sorted into one bucket per
//! session they judged, then one index load per column judgment. Its cost
//! follows the judgments of the block's images, not the log's session
//! count, so it does not grow as the log records sessions.

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

    /// `exp(−γ‖r_a − r_b‖²)` from the three exact integers it depends on,
    /// `‖r_a − r_b‖² = nnz_a + nnz_b − 2·r_a·r_b`, converted to `f64` once.
    fn value(&self, nnz: usize, dot: i64) -> f64 {
        (-self.gamma * (nnz as i64 - 2 * dot) as f64).exp()
    }
}

impl Kernel<SparseVector> for LogRbfKernel {
    #[inline]
    fn compute(&self, a: &SparseVector, b: &SparseVector) -> f64 {
        self.value(a.nnz() + b.nnz(), a.dot(b))
    }

    /// Every dot of the block from one [`SparseVector::overlap_block`]
    /// instead of a merge per pair; each value is then the one `compute`
    /// returns, bit for bit (the dot is an exact integer, and the value a
    /// function of it and the two nnz alone), so a block row can stand in
    /// for a row the solver would compute.
    fn block(&self, rows: &[&SparseVector], cols: &[&SparseVector]) -> Vec<f64> {
        let dots = SparseVector::overlap_block(rows, cols);
        rows.iter()
            .flat_map(|a| cols.iter().map(move |b| a.nnz() + b.nnz()))
            .zip(dots)
            .map(|(nnz, dot)| self.value(nnz, dot))
            .collect()
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
        let empty1 = SparseVector::default();
        let empty2 = SparseVector::default();
        assert_eq!(k.compute(&empty1, &empty2), 1.0);
    }

    #[test]
    fn block_is_compute_bit_for_bit() {
        // Agreeing, disagreeing, disjoint and empty histories, a repeated
        // column, and γ values whose products are not exact.
        let vs = [
            sv(&[(0, 1.0), (3, -1.0), (7, 1.0)]),
            sv(&[(0, 1.0), (3, 1.0)]),
            sv(&[(3, -1.0), (5, -1.0), (7, -1.0), (9, 1.0)]),
            sv(&[(11, 1.0)]),
            SparseVector::default(),
        ];
        let rows: Vec<&SparseVector> = vs.iter().collect();
        let cols: Vec<&SparseVector> = [4, 0, 2, 2, 1, 3].iter().map(|&i| &vs[i]).collect();
        for gamma in [0.5, 0.13, 1.0 / 36.0, 2.7] {
            let k = LogRbfKernel::new(gamma);
            let block = k.block(&rows, &cols);
            assert_eq!(block.len(), rows.len() * cols.len());
            for (i, a) in rows.iter().enumerate() {
                for (j, b) in cols.iter().enumerate() {
                    let want = k.compute(a, b);
                    assert_eq!(block[i * cols.len() + j].to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn invalid_gamma_rejected() {
        let _ = LogRbfKernel::new(-1.0);
    }
}
