//! HSV color moments — the paper's color descriptor.
//!
//! "We extract 3 moments: color mean, color variance and color skewness in
//! each color channel (H, S, and V), respectively. Thus, 9-dimensional color
//! moment is adopted as the color feature."
//!
//! Following the standard color-moment formulation (Stricker & Orengo), the
//! second moment is reported as the **standard deviation** and the third as
//! the **signed cube root** of the third central moment, so all nine
//! components share the scale of the underlying channel.

use lrf_imaging::color::rgb_to_hsv;
use lrf_imaging::RgbImage;

/// Number of color-moment dimensions (3 moments × 3 channels).
pub(crate) const DIMS: usize = 9;

/// Extracts the 9-D color-moment descriptor, laid out as
/// `[mean_h, std_h, skew_h, mean_s, std_s, skew_s, mean_v, std_v, skew_v]`.
pub(crate) fn color_moments(img: &RgbImage) -> [f64; DIMS] {
    let n = img.len() as f64;
    debug_assert!(n > 0.0);

    // Single pass to accumulate channel values; HSV conversion dominates.
    let mut sums = [0.0f64; 3];
    let mut hsv_buf: Vec<[f32; 3]> = Vec::with_capacity(img.len());
    for &px in img.pixels() {
        let hsv = rgb_to_hsv(px);
        let trip = [hsv.h, hsv.s, hsv.v];
        for c in 0..3 {
            sums[c] += f64::from(trip[c]);
        }
        hsv_buf.push(trip);
    }
    let means = [sums[0] / n, sums[1] / n, sums[2] / n];

    let mut m2 = [0.0f64; 3];
    let mut m3 = [0.0f64; 3];
    for trip in &hsv_buf {
        for c in 0..3 {
            let d = f64::from(trip[c]) - means[c];
            m2[c] += d * d;
            m3[c] += d * d * d;
        }
    }

    let mut out = [0.0f64; DIMS];
    for c in 0..3 {
        out[3 * c] = means[c];
        out[3 * c + 1] = (m2[c] / n).sqrt();
        out[3 * c + 2] = signed_cbrt(m3[c] / n);
    }
    out
}

/// Cube root that preserves sign (`f64::cbrt` already does, but the helper
/// documents the intent and guards against NaN from `-0.0` pathologies).
#[inline]
fn signed_cbrt(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v.cbrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_imaging::color::Hsv;

    #[test]
    fn constant_image_has_zero_spread() {
        let img = RgbImage::filled(8, 8, Hsv::new(0.3, 0.7, 0.9).to_rgb());
        let m = color_moments(&img);
        // std and skew are zero in all channels
        for c in 0..3 {
            assert!(m[3 * c + 1].abs() < 1e-9, "std ch{c} = {}", m[3 * c + 1]);
            assert!(m[3 * c + 2].abs() < 1e-9, "skew ch{c} = {}", m[3 * c + 2]);
        }
        // means match the fill color (within 8-bit quantization)
        assert!((m[0] - 0.3).abs() < 0.01);
        assert!((m[3] - 0.7).abs() < 0.01);
        assert!((m[6] - 0.9).abs() < 0.01);
    }

    #[test]
    fn two_tone_image_means_and_std() {
        // Half black (v=0), half white (v=1): V mean 0.5, V std 0.5.
        let mut img = RgbImage::new(2, 1);
        img.set(0, 0, [0, 0, 0]);
        img.set(1, 0, [255, 255, 255]);
        let m = color_moments(&img);
        assert!((m[6] - 0.5).abs() < 1e-6, "v mean {}", m[6]);
        assert!((m[7] - 0.5).abs() < 1e-6, "v std {}", m[7]);
        // Symmetric two-point distribution has zero skew.
        assert!(m[8].abs() < 1e-6, "v skew {}", m[8]);
    }

    #[test]
    fn skew_sign_tracks_asymmetry() {
        // Three dark pixels, one bright: V distribution skews right (+).
        let mut img = RgbImage::filled(4, 1, [10, 10, 10]);
        img.set(3, 0, [250, 250, 250]);
        let m = color_moments(&img);
        assert!(m[8] > 0.0, "expected positive v-skew, got {}", m[8]);

        // Inverse: mostly bright, one dark → negative skew.
        let mut img2 = RgbImage::filled(4, 1, [250, 250, 250]);
        img2.set(0, 0, [10, 10, 10]);
        let m2 = color_moments(&img2);
        assert!(m2[8] < 0.0, "expected negative v-skew, got {}", m2[8]);
    }

    #[test]
    fn hue_channel_separates_red_and_cyan() {
        let red = RgbImage::filled(4, 4, [255, 0, 0]);
        let cyan = RgbImage::filled(4, 4, [0, 255, 255]);
        let mr = color_moments(&red);
        let mc = color_moments(&cyan);
        assert!((mr[0] - 0.0).abs() < 1e-3);
        assert!((mc[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn descriptor_is_translation_invariant_in_space() {
        // Color moments ignore pixel positions: permuting pixels leaves the
        // descriptor unchanged.
        let mut a = RgbImage::new(2, 2);
        a.set(0, 0, [10, 200, 30]);
        a.set(1, 0, [200, 10, 90]);
        a.set(0, 1, [5, 5, 5]);
        a.set(1, 1, [130, 130, 220]);
        let mut b = RgbImage::new(2, 2);
        b.set(0, 0, [130, 130, 220]);
        b.set(1, 0, [5, 5, 5]);
        b.set(0, 1, [200, 10, 90]);
        b.set(1, 1, [10, 200, 30]);
        let ma = color_moments(&a);
        let mb = color_moments(&b);
        for (x, y) in ma.iter().zip(&mb) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
