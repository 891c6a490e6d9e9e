//! Feature normalization across a database.
//!
//! Raw descriptor components live on wildly different scales (histogram
//! bins sum to 1, entropies reach `ln 256 ≈ 5.5`), so both Euclidean
//! ranking and the RBF kernel need per-dimension normalization. We use the
//! classical **Gaussian (3σ) normalization** of Rui et al. (the standard in
//! the era's relevance-feedback literature): each dimension is shifted to
//! zero mean, divided by three standard deviations, and clamped to
//! `[-1, 1]`, which puts ~99.7% of values in range without letting
//! outliers stretch the scale.

/// Per-dimension affine normalizer fitted on a feature matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Normalizer {
    mean: Vec<f64>,
    /// Divisor per dimension (`3σ`, floored to a tiny epsilon for
    /// zero-variance dimensions).
    scale: Vec<f64>,
    /// Whether outputs are clamped into `[-1, 1]`.
    clamp: bool,
}

impl Normalizer {
    /// Fits a Gaussian 3σ normalizer on rows of equal length.
    ///
    /// # Panics
    /// Panics if `rows` is empty or rows have inconsistent lengths.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        Self::fit_with(rows, 3.0, true)
    }

    /// Fits with an explicit σ multiplier and clamping choice.
    pub(crate) fn fit_with(rows: &[Vec<f64>], sigma_multiplier: f64, clamp: bool) -> Self {
        assert!(!rows.is_empty(), "cannot fit a normalizer on zero rows");
        assert!(sigma_multiplier > 0.0, "sigma multiplier must be positive");
        let dims = rows[0].len();
        let n = rows.len() as f64;

        let mut mean = vec![0.0f64; dims];
        for row in rows {
            assert_eq!(row.len(), dims, "inconsistent row length");
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }

        let mut var = vec![0.0f64; dims];
        for row in rows {
            for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                let d = v - m;
                *s += d * d;
            }
        }
        let scale = var
            .iter()
            .map(|&s| {
                let sd = (s / n).sqrt();
                // Zero-variance dimensions normalize to exactly 0; use 1.0
                // so we don't blow up (the shifted value is already 0).
                if sd < 1e-12 {
                    1.0
                } else {
                    sd * sigma_multiplier
                }
            })
            .collect();
        Self { mean, scale, clamp }
    }

    /// Number of feature dimensions.
    pub(crate) fn dims(&self) -> usize {
        self.mean.len()
    }

    /// Normalizes one vector in place.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub(crate) fn apply_in_place(&self, v: &mut [f64]) {
        assert_eq!(v.len(), self.dims(), "dimension mismatch");
        for ((x, &m), &s) in v.iter_mut().zip(&self.mean).zip(&self.scale) {
            *x = (*x - m) / s;
            if self.clamp {
                *x = x.clamp(-1.0, 1.0);
            }
        }
    }

    /// Normalizes every row of a matrix in place.
    pub fn apply_all(&self, rows: &mut [Vec<f64>]) {
        for row in rows {
            self.apply_in_place(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Normalizer {
        /// Returns a normalized copy of `v`.
        fn apply(&self, v: &[f64]) -> Vec<f64> {
            let mut out = v.to_vec();
            self.apply_in_place(&mut out);
            out
        }
    }

    #[test]
    fn fitted_stats_center_the_data() {
        let rows = vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let norm = Normalizer::fit(&rows);
        let mut all = rows.clone();
        norm.apply_all(&mut all);
        // Mean of each dimension ≈ 0 after normalization.
        for d in 0..2 {
            let m: f64 = all.iter().map(|r| r[d]).sum::<f64>() / all.len() as f64;
            assert!(m.abs() < 1e-12, "dim {d} mean {m}");
        }
    }

    #[test]
    fn three_sigma_values_map_to_unit() {
        // A dimension with mean 0 and σ=1: value 3.0 normalizes to exactly 1.0.
        let rows: Vec<Vec<f64>> = vec![vec![-1.0], vec![1.0]]; // σ = 1
        let norm = Normalizer::fit(&rows);
        let out = norm.apply(&[3.0]);
        assert!((out[0] - 1.0).abs() < 1e-12, "{}", out[0]);
        // and beyond 3σ is clamped
        let out = norm.apply(&[30.0]);
        assert_eq!(out[0], 1.0);
        let out = norm.apply(&[-30.0]);
        assert_eq!(out[0], -1.0);
    }

    #[test]
    fn unclamped_variant_extends_beyond_unit() {
        let rows: Vec<Vec<f64>> = vec![vec![-1.0], vec![1.0]];
        let norm = Normalizer::fit_with(&rows, 3.0, false);
        let out = norm.apply(&[30.0]);
        assert!(out[0] > 1.0);
    }

    #[test]
    fn zero_variance_dimension_maps_to_zero() {
        let rows = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let norm = Normalizer::fit(&rows);
        let out = norm.apply(&[5.0, 2.0]);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let _ = Normalizer::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "inconsistent row length")]
    fn ragged_rows_panic() {
        let _ = Normalizer::fit(&[vec![1.0], vec![1.0, 2.0]]);
    }

    proptest! {
        /// Outputs always stay inside [-1, 1] when clamped.
        #[test]
        fn outputs_bounded(
            rows in proptest::collection::vec(
                proptest::collection::vec(-100.0f64..100.0, 4), 2..20),
            probe in proptest::collection::vec(-1000.0f64..1000.0, 4)
        ) {
            let norm = Normalizer::fit(&rows);
            let out = norm.apply(&probe);
            for &v in &out {
                prop_assert!((-1.0..=1.0).contains(&v));
            }
        }

        /// Normalization is monotone per dimension: larger raw values never
        /// produce smaller normalized values.
        #[test]
        fn monotone_per_dimension(
            rows in proptest::collection::vec(
                proptest::collection::vec(-10.0f64..10.0, 2), 2..10),
            a in -50.0f64..50.0,
            delta in 0.0f64..10.0,
        ) {
            let norm = Normalizer::fit(&rows);
            let lo = norm.apply(&[a, 0.0]);
            let hi = norm.apply(&[a + delta, 0.0]);
            prop_assert!(hi[0] >= lo[0]);
        }
    }
}
