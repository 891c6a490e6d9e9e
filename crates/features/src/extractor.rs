//! The combined 36-D feature pipeline.
//!
//! Concatenation order matches the paper's presentation: color (9), edge
//! (18), texture (9). Every image is extracted under the one Canny setting,
//! `CannyParams::default()`, so a database is consistent by construction.

use crate::color_moments::{self, color_moments};
use crate::edge_histogram::{self, edge_direction_histogram};
use crate::texture::{self, wavelet_texture};
use lrf_imaging::canny::CannyParams;
use lrf_imaging::RgbImage;

/// Dimensions contributed by the color-moment descriptor.
pub(crate) const COLOR_DIMS: usize = color_moments::DIMS;
/// Dimensions contributed by the edge-direction histogram.
pub(crate) const EDGE_DIMS: usize = edge_histogram::BINS;
/// Dimensions contributed by the wavelet-entropy texture descriptor.
pub(crate) const TEXTURE_DIMS: usize = texture::DIMS;
/// Total feature dimensionality (36).
pub const TOTAL_DIMS: usize = COLOR_DIMS + EDGE_DIMS + TEXTURE_DIMS;

/// A raw (pre-normalization) 36-D feature vector.
pub(crate) type FeatureVector = Vec<f64>;

/// Extracts the concatenated `[color | edge | texture]` descriptor, with
/// edges from a Canny detector at its default parameters.
///
/// # Panics
/// Panics if the image dimensions are unsuitable for a 3-level DWT
/// (must be divisible by 8 and at least 16×16).
fn extract(img: &RgbImage) -> FeatureVector {
    let mut out = Vec::with_capacity(TOTAL_DIMS);
    out.extend_from_slice(&color_moments(img));
    let gray = img.to_gray();
    out.extend_from_slice(&edge_direction_histogram(&gray, CannyParams::default()));
    out.extend_from_slice(&wavelet_texture(&gray));
    debug_assert_eq!(out.len(), TOTAL_DIMS);
    out
}

/// Extracts the full 36-D descriptor of §6.2 for a whole image slice,
/// preserving order.
pub fn extract_all(images: &[RgbImage]) -> Vec<FeatureVector> {
    images.iter().map(extract).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_imaging::SyntheticGenerator;

    #[test]
    fn dimensions_add_up() {
        assert_eq!(TOTAL_DIMS, 36);
        assert_eq!(COLOR_DIMS, 9);
        assert_eq!(EDGE_DIMS, 18);
        assert_eq!(TEXTURE_DIMS, 9);
    }

    #[test]
    fn extraction_has_expected_length_and_is_finite() {
        let gen = SyntheticGenerator::new(3, 32, 32, 77);
        for cat in 0..3 {
            let v = extract(&gen.generate(cat, 0));
            assert_eq!(v.len(), TOTAL_DIMS);
            assert!(v.iter().all(|x| x.is_finite()), "{v:?}");
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let gen = SyntheticGenerator::new(2, 32, 32, 5);
        let img = gen.generate(1, 4);
        assert_eq!(extract(&img), extract(&img));
    }

    #[test]
    fn same_category_closer_than_cross_category_on_average() {
        // The whole premise of CBIR features: intra-category feature
        // distance below inter-category distance in expectation.
        let gen = SyntheticGenerator::new(6, 32, 32, 123);
        let per_cat = 6;
        let mut feats: Vec<Vec<FeatureVector>> = Vec::new();
        for cat in 0..6 {
            feats.push(
                (0..per_cat)
                    .map(|i| extract(&gen.generate(cat, i)))
                    .collect(),
            );
        }
        let d2 = |a: &FeatureVector, b: &FeatureVector| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let mut intra = 0.0;
        let mut intra_n = 0;
        let mut inter = 0.0;
        let mut inter_n = 0;
        for c1 in 0..6 {
            for i in 0..per_cat {
                for c2 in 0..6 {
                    for j in 0..per_cat {
                        if c1 == c2 && i >= j {
                            continue;
                        }
                        if c1 == c2 {
                            intra += d2(&feats[c1][i], &feats[c2][j]);
                            intra_n += 1;
                        } else if c1 < c2 {
                            inter += d2(&feats[c1][i], &feats[c2][j]);
                            inter_n += 1;
                        }
                    }
                }
            }
        }
        let intra_mean = intra / intra_n as f64;
        let inter_mean = inter / inter_n as f64;
        assert!(
            inter_mean > intra_mean,
            "inter {inter_mean:.4} should exceed intra {intra_mean:.4}"
        );
    }

    #[test]
    fn extract_all_preserves_order() {
        let gen = SyntheticGenerator::new(2, 32, 32, 9);
        let imgs = vec![gen.generate(0, 0), gen.generate(1, 0)];
        let all = extract_all(&imgs);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], extract(&imgs[0]));
        assert_eq!(all[1], extract(&imgs[1]));
    }
}
