//! Daubechies-4 discrete wavelet transform (1-D and 2-D, multi-level).
//!
//! The paper's texture feature: "we perform the Discrete Wavelet
//! Transformation (DWT) on the gray images employing a Daubechies-4 wavelet
//! filter ... In total, we perform 3-level decompositions and obtain 10
//! subimages" — one approximation and nine detail subbands. The entropy of
//! each of the nine detail subbands becomes the 9-D texture descriptor
//! (computed in `lrf-features::texture`).
//!
//! The transform here uses **periodic boundary handling**, which keeps the
//! basis orthonormal: energy is preserved exactly and the inverse transform
//! reconstructs the input to floating-point precision — both properties are
//! enforced by property tests.

use crate::image::GrayImage;

/// The four Daubechies-4 scaling coefficients `h0..h3`.
///
/// `h_k = (1 ± √3) / (4√2)` pattern; the wavelet (high-pass) filter is the
/// quadrature mirror `g_k = (-1)^k · h_{3-k}`.
const DB4_H: [f64; 4] = {
    // (1+√3)/(4√2), (3+√3)/(4√2), (3−√3)/(4√2), (1−√3)/(4√2)
    // √3 and √2 are not const fns; values are written out to full f64 precision.
    [
        0.482_962_913_144_690_2,
        0.836_516_303_737_469,
        0.224_143_868_041_857_35,
        -0.129_409_522_550_921_44,
    ]
};

/// High-pass (wavelet) filter derived from [`DB4_H`].
const DB4_G: [f64; 4] = [
    // g_k = (-1)^k h_{3-k}
    -0.129_409_522_550_921_44,
    -0.224_143_868_041_857_35,
    0.836_516_303_737_469,
    -0.482_962_913_144_690_2,
];

/// One level of the forward 1-D DB4 transform with periodic boundaries.
///
/// Input length must be even and ≥ 4. The first half of the output receives
/// the approximation (low-pass) coefficients, the second half the detail
/// (high-pass) coefficients.
fn dwt1d_forward(signal: &[f32], out: &mut [f32]) {
    let n = signal.len();
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "DWT needs even length >= 4, got {n}"
    );
    assert_eq!(out.len(), n);
    let half = n / 2;
    for i in 0..half {
        let mut a = 0.0f64;
        let mut d = 0.0f64;
        for k in 0..4 {
            let idx = (2 * i + k) % n;
            let s = f64::from(signal[idx]);
            a += DB4_H[k] * s;
            d += DB4_G[k] * s;
        }
        out[i] = a as f32;
        out[half + i] = d as f32;
    }
}

/// One 2-D decomposition level: returns `(ll, lh, hl, hh)` quarter-size
/// subimages (approximation, horizontal, vertical, diagonal detail).
///
/// Rows are transformed first, then columns — the conventional separable
/// Mallat scheme. Input dimensions must be even and ≥ 4.
fn dwt2d_level(img: &GrayImage) -> (GrayImage, GrayImage, GrayImage, GrayImage) {
    let w = img.width();
    let h = img.height();
    assert!(
        w >= 4 && w.is_multiple_of(2),
        "width must be even and >= 4, got {w}"
    );
    assert!(
        h >= 4 && h.is_multiple_of(2),
        "height must be even and >= 4, got {h}"
    );

    // Row pass.
    let mut row_in = vec![0.0f32; w];
    let mut row_out = vec![0.0f32; w];
    let mut row_transformed = GrayImage::new(w, h);
    for y in 0..h {
        img.read_row(y, &mut row_in);
        dwt1d_forward(&row_in, &mut row_out);
        row_transformed.write_row(y, &row_out);
    }

    // Column pass.
    let mut col_in = vec![0.0f32; h];
    let mut col_out = vec![0.0f32; h];
    let mut full = GrayImage::new(w, h);
    for x in 0..w {
        row_transformed.read_col(x, &mut col_in);
        dwt1d_forward(&col_in, &mut col_out);
        full.write_col(x, &col_out);
    }

    let hw = w / 2;
    let hh = h / 2;
    (
        full.crop(0, 0, hw, hh),   // LL
        full.crop(hw, 0, hw, hh),  // LH: high-pass rows, low-pass cols
        full.crop(0, hh, hw, hh),  // HL: low-pass rows, high-pass cols
        full.crop(hw, hh, hw, hh), // HH
    )
}

/// A full multi-level decomposition: `levels` triplets of detail subbands
/// (finest first) plus the final approximation.
#[derive(Clone, Debug)]
pub struct WaveletPyramid {
    /// `(lh, hl, hh)` per level, index 0 = finest scale.
    pub details: Vec<(GrayImage, GrayImage, GrayImage)>,
    /// The coarsest approximation subimage.
    pub approx: GrayImage,
}

impl WaveletPyramid {
    /// Iterates the detail subbands in the paper's order — for a 3-level
    /// decomposition this yields the 9 detail subimages (the 10th subimage,
    /// the approximation, "is discarded since it contains less useful
    /// texture information").
    pub fn detail_bands(&self) -> impl Iterator<Item = &GrayImage> {
        self.details.iter().flat_map(|(lh, hl, hh)| [lh, hl, hh])
    }
}

/// Performs a `levels`-deep 2-D decomposition.
///
/// # Panics
/// Panics if the image is not at least `4·2^(levels-1)` on each side with
/// dimensions divisible by `2^levels`.
pub fn dwt2d_multilevel(img: &GrayImage, levels: usize) -> WaveletPyramid {
    assert!(levels >= 1, "need at least one level");
    let mut details = Vec::with_capacity(levels);
    let mut current = img.clone();
    for _ in 0..levels {
        let (ll, lh, hl, hh) = dwt2d_level(&current);
        details.push((lh, hl, hh));
        current = ll;
    }
    WaveletPyramid {
        details,
        approx: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The inverse transform: nothing outside the tests runs it — they use
    // it to hold the forward transform to perfect reconstruction.

    /// One level of the inverse 1-D DB4 transform (exact inverse of
    /// [`dwt1d_forward`] up to floating-point error).
    fn dwt1d_inverse(coeffs: &[f32], out: &mut [f32]) {
        let n = coeffs.len();
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "DWT needs even length >= 4, got {n}"
        );
        assert_eq!(out.len(), n);
        let half = n / 2;
        for o in out.iter_mut() {
            *o = 0.0;
        }
        // Transpose of the forward (orthonormal) analysis operator.
        let mut acc = vec![0.0f64; n];
        for i in 0..half {
            let a = f64::from(coeffs[i]);
            let d = f64::from(coeffs[half + i]);
            for k in 0..4 {
                let idx = (2 * i + k) % n;
                acc[idx] += DB4_H[k] * a + DB4_G[k] * d;
            }
        }
        for (o, &v) in out.iter_mut().zip(&acc) {
            *o = v as f32;
        }
    }

    /// Inverse of [`dwt2d_level`].
    fn dwt2d_level_inverse(
        ll: &GrayImage,
        lh: &GrayImage,
        hl: &GrayImage,
        hh: &GrayImage,
    ) -> GrayImage {
        let hw = ll.width();
        let hh_ = ll.height();
        for sub in [lh, hl, hh] {
            assert_eq!(sub.width(), hw);
            assert_eq!(sub.height(), hh_);
        }
        let w = hw * 2;
        let h = hh_ * 2;

        // Reassemble the packed coefficient image.
        let mut full = GrayImage::new(w, h);
        for y in 0..hh_ {
            for x in 0..hw {
                full.set(x, y, ll.get(x, y));
                full.set(hw + x, y, lh.get(x, y));
                full.set(x, hh_ + y, hl.get(x, y));
                full.set(hw + x, hh_ + y, hh.get(x, y));
            }
        }

        // Inverse column pass then inverse row pass.
        let mut col_in = vec![0.0f32; h];
        let mut col_out = vec![0.0f32; h];
        let mut col_done = GrayImage::new(w, h);
        for x in 0..w {
            full.read_col(x, &mut col_in);
            dwt1d_inverse(&col_in, &mut col_out);
            col_done.write_col(x, &col_out);
        }
        let mut row_in = vec![0.0f32; w];
        let mut row_out = vec![0.0f32; w];
        let mut out = GrayImage::new(w, h);
        for y in 0..h {
            col_done.read_row(y, &mut row_in);
            dwt1d_inverse(&row_in, &mut row_out);
            out.write_row(y, &row_out);
        }
        out
    }

    #[test]
    fn filter_orthonormality() {
        // Σ h_k² = 1, Σ h_k g_k = 0, Σ h_k = √2, Σ g_k = 0.
        let h2: f64 = DB4_H.iter().map(|v| v * v).sum();
        assert!((h2 - 1.0).abs() < 1e-12);
        let hg: f64 = DB4_H.iter().zip(&DB4_G).map(|(a, b)| a * b).sum();
        assert!(hg.abs() < 1e-12);
        let hsum: f64 = DB4_H.iter().sum();
        assert!((hsum - std::f64::consts::SQRT_2).abs() < 1e-12);
        let gsum: f64 = DB4_G.iter().sum();
        assert!(gsum.abs() < 1e-12);
    }

    #[test]
    fn forward_inverse_roundtrip_1d() {
        let signal: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut coeffs = vec![0.0f32; 16];
        let mut back = vec![0.0f32; 16];
        dwt1d_forward(&signal, &mut coeffs);
        dwt1d_inverse(&coeffs, &mut back);
        for (a, b) in signal.iter().zip(&back) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        let signal = vec![0.6f32; 8];
        let mut coeffs = vec![0.0f32; 8];
        dwt1d_forward(&signal, &mut coeffs);
        // Detail half must vanish for constant inputs (vanishing moment).
        for &d in &coeffs[4..] {
            assert!(d.abs() < 1e-6, "detail {d}");
        }
        // Approximation carries √2-scaled values.
        for &a in &coeffs[..4] {
            assert!((a - 0.6 * std::f32::consts::SQRT_2).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_ramp_has_zero_detail_except_wrap() {
        // DB4 has two vanishing moments; a linear ramp yields zero detail
        // everywhere except where the periodic boundary wraps the ramp.
        let signal: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut coeffs = vec![0.0f32; 32];
        dwt1d_forward(&signal, &mut coeffs);
        for (i, &d) in coeffs[16..].iter().enumerate() {
            if i < 15 {
                assert!(d.abs() < 1e-3, "interior detail [{i}] = {d}");
            }
        }
        // wrap-around coefficient is large
        assert!(coeffs[31].abs() > 1.0);
    }

    #[test]
    fn roundtrip_2d_level() {
        let img = GrayImage::from_vec(
            8,
            8,
            (0..64).map(|i| ((i * 37 % 64) as f32) / 64.0).collect(),
        );
        let (ll, lh, hl, hh) = dwt2d_level(&img);
        let back = dwt2d_level_inverse(&ll, &lh, &hl, &hh);
        for (a, b) in img.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn three_level_pyramid_shapes() {
        let img = GrayImage::filled(64, 32, 0.5);
        let pyr = dwt2d_multilevel(&img, 3);
        assert_eq!(pyr.details.len(), 3);
        assert_eq!(pyr.detail_bands().count(), 9);
        let (lh0, _, _) = &pyr.details[0];
        assert_eq!((lh0.width(), lh0.height()), (32, 16));
        let (lh2, _, _) = &pyr.details[2];
        assert_eq!((lh2.width(), lh2.height()), (8, 4));
        assert_eq!((pyr.approx.width(), pyr.approx.height()), (8, 4));
    }

    #[test]
    fn horizontal_stripes_concentrate_in_hl_band() {
        // Stripes varying along y (horizontal bands) are picked up by the
        // column high-pass → HL subband energy dominates LH.
        let mut img = GrayImage::new(32, 32);
        for y in 0..32 {
            let v = if (y / 2) % 2 == 0 { 1.0 } else { 0.0 };
            for x in 0..32 {
                img.set(x, y, v);
            }
        }
        let (_, lh, hl, _) = dwt2d_level(&img);
        assert!(
            hl.energy() > 10.0 * lh.energy(),
            "hl={} lh={}",
            hl.energy(),
            lh.energy()
        );
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        let mut out = vec![0.0; 5];
        dwt1d_forward(&[0.0; 5], &mut out);
    }

    proptest! {
        /// Orthonormal transform preserves energy (Parseval).
        #[test]
        fn energy_preservation_1d(vals in proptest::collection::vec(-2.0f32..2.0, 16)) {
            let mut coeffs = vec![0.0f32; 16];
            dwt1d_forward(&vals, &mut coeffs);
            let e_in: f64 = vals.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            let e_out: f64 = coeffs.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            prop_assert!((e_in - e_out).abs() < 1e-3 * e_in.max(1.0));
        }

        /// Forward∘inverse == identity for arbitrary even-length signals.
        #[test]
        fn roundtrip_random_1d(vals in proptest::collection::vec(-5.0f32..5.0, 24)) {
            let mut coeffs = vec![0.0f32; 24];
            let mut back = vec![0.0f32; 24];
            dwt1d_forward(&vals, &mut coeffs);
            dwt1d_inverse(&coeffs, &mut back);
            for (a, b) in vals.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }

        /// 2-D energy preservation across one level.
        #[test]
        fn energy_preservation_2d(vals in proptest::collection::vec(-1.0f32..1.0, 64)) {
            let img = GrayImage::from_vec(8, 8, vals);
            let (ll, lh, hl, hh) = dwt2d_level(&img);
            let total = ll.energy() + lh.energy() + hl.energy() + hh.energy();
            prop_assert!((total - img.energy()).abs() < 1e-3 * img.energy().max(1.0));
        }
    }
}
