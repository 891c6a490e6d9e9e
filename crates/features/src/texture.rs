//! Wavelet-entropy texture descriptor — the paper's texture feature.
//!
//! "We perform the Discrete Wavelet Transformation (DWT) on the gray images
//! employing a Daubechies-4 wavelet filter ... we perform 3-level
//! decompositions and obtain 10 subimages ... [the approximation] is
//! discarded ... For the other 9 subimages, we compute the entropy of each
//! subimage respectively. Therefore, we obtain a 9-dimensional wavelet-based
//! texture feature."
//!
//! Entropy here is the Shannon entropy of the **energy distribution** of a
//! subband: `p_i = c_i² / Σc²`, `H = −Σ p_i ln p_i` (the standard "wavelet
//! entropy"). A subband with all-zero coefficients has `H = 0` by
//! convention. High entropy ⇒ energy spread over many coefficients
//! (noise-like texture); low entropy ⇒ energy concentrated (strong regular
//! pattern or flat region).

use lrf_imaging::wavelet::dwt2d_multilevel;
use lrf_imaging::GrayImage;

/// Number of texture dimensions (3 levels × {LH, HL, HH}).
pub(crate) const DIMS: usize = 9;

/// Default decomposition depth used by the paper.
pub(crate) const LEVELS: usize = 3;

/// Shannon entropy of the energy distribution of a coefficient block.
pub(crate) fn band_entropy(band: &GrayImage) -> f64 {
    let total: f64 = band
        .as_slice()
        .iter()
        .map(|&c| f64::from(c) * f64::from(c))
        .sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0f64;
    for &c in band.as_slice() {
        let e = f64::from(c) * f64::from(c);
        if e > 0.0 {
            let p = e / total;
            h -= p * p.ln();
        }
    }
    h
}

/// Computes the 9-D wavelet-entropy descriptor of a gray image, ordered
/// `[lh1, hl1, hh1, lh2, hl2, hh2, lh3, hl3, hh3]` (level 1 = finest).
///
/// # Panics
/// Panics if the image dimensions are not divisible by `2^LEVELS` (= 8) or
/// are too small for the transform (the synthetic corpus always satisfies
/// this; arbitrary inputs should be resized/cropped first).
pub(crate) fn wavelet_texture(img: &GrayImage) -> [f64; DIMS] {
    let pyramid = dwt2d_multilevel(img, LEVELS);
    let mut out = [0.0f64; DIMS];
    for (i, band) in pyramid.detail_bands().enumerate() {
        out[i] = band_entropy(band);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flat_image_has_zero_entropy_everywhere() {
        let img = GrayImage::filled(32, 32, 0.7);
        let t = wavelet_texture(&img);
        for (i, &e) in t.iter().enumerate() {
            assert!(e.abs() < 1e-6, "band {i} entropy {e}");
        }
    }

    #[test]
    fn entropy_nonnegative_and_bounded_by_log_n() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..32 * 32).map(|_| rng.gen_range(0.0..1.0)).collect();
        let img = GrayImage::from_vec(32, 32, data);
        let t = wavelet_texture(&img);
        // Finest band is 16x16 = 256 coefficients → H ≤ ln 256.
        for (i, &e) in t.iter().enumerate() {
            assert!(e >= 0.0);
            let n = match i / 3 {
                0 => 256.0f64,
                1 => 64.0,
                _ => 16.0,
            };
            assert!(e <= n.ln() + 1e-9, "band {i} entropy {e} exceeds ln({n})");
        }
    }

    #[test]
    fn noise_has_higher_entropy_than_single_step() {
        let mut rng = StdRng::seed_from_u64(11);
        let noise = GrayImage::from_vec(
            32,
            32,
            (0..1024).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
        );
        let mut step = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 16..32 {
                step.set(x, y, 1.0);
            }
        }
        let tn = wavelet_texture(&noise);
        let ts = wavelet_texture(&step);
        // Finest-level entropy: noise spreads energy, the step concentrates
        // it on one column of coefficients.
        assert!(tn[0] > ts[0], "noise {} <= step {}", tn[0], ts[0]);
    }

    #[test]
    fn stripes_orientation_separates_bands() {
        // Horizontal stripes (vary along y) excite HL; vertical stripes
        // excite LH. Their descriptors must differ noticeably.
        let mut horiz = GrayImage::new(32, 32);
        for y in 0..32 {
            let v = if (y / 2) % 2 == 0 { 1.0 } else { 0.0 };
            for x in 0..32 {
                horiz.set(x, y, v);
            }
        }
        let mut vert = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                let v = if (x / 2) % 2 == 0 { 1.0 } else { 0.0 };
                vert.set(x, y, v);
            }
        }
        let th = wavelet_texture(&horiz);
        let tv = wavelet_texture(&vert);
        let dist: f64 = th
            .iter()
            .zip(&tv)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.5, "orientations should separate, dist={dist}");
    }

    #[test]
    fn entropy_is_scale_invariant() {
        // p_i = c_i²/Σc² is invariant to multiplying all coefficients by a
        // constant, so doubling image contrast leaves the descriptor intact.
        let mut rng = StdRng::seed_from_u64(2);
        let base: Vec<f32> = (0..1024).map(|_| rng.gen_range(0.0..0.5)).collect();
        let img1 = GrayImage::from_vec(32, 32, base.clone());
        let img2 = GrayImage::from_vec(32, 32, base.iter().map(|v| v * 2.0).collect());
        let t1 = wavelet_texture(&img1);
        let t2 = wavelet_texture(&img2);
        for (a, b) in t1.iter().zip(&t2) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
