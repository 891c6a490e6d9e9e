//! Separable convolution, Gaussian smoothing, and Sobel gradients.
//!
//! Boundary handling is replicate ("clamp to edge") everywhere, matching the
//! common choice in edge-detection pipelines.

use crate::image::GrayImage;

/// Convolves the image with a horizontal 1-D kernel (centered).
fn convolve_rows(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    assert!(
        !kernel.is_empty() && kernel.len() % 2 == 1,
        "kernel must have odd length"
    );
    let half = (kernel.len() / 2) as isize;
    let mut out = GrayImage::new(img.width(), img.height());
    for y in 0..img.height() {
        for x in 0..img.width() {
            let mut acc = 0.0f32;
            for (k, &kv) in kernel.iter().enumerate() {
                let sx = x as isize + k as isize - half;
                acc += kv * img.get_clamped(sx, y as isize);
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Convolves the image with a vertical 1-D kernel (centered).
fn convolve_cols(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    assert!(
        !kernel.is_empty() && kernel.len() % 2 == 1,
        "kernel must have odd length"
    );
    let half = (kernel.len() / 2) as isize;
    let mut out = GrayImage::new(img.width(), img.height());
    for y in 0..img.height() {
        for x in 0..img.width() {
            let mut acc = 0.0f32;
            for (k, &kv) in kernel.iter().enumerate() {
                let sy = y as isize + k as isize - half;
                acc += kv * img.get_clamped(x as isize, sy);
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Convolves with a separable kernel applied along both axes.
fn convolve_separable(img: &GrayImage, kernel: &[f32]) -> GrayImage {
    convolve_cols(&convolve_rows(img, kernel), kernel)
}

/// Builds a normalized 1-D Gaussian kernel with the given standard deviation.
///
/// The radius is `ceil(3σ)`, covering > 99.7% of the mass; coefficients are
/// normalized to sum to exactly 1 so smoothing preserves mean intensity.
fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as isize;
    let denom = 2.0 * sigma * sigma;
    let mut kernel: Vec<f32> = (-radius..=radius)
        .map(|i| (-((i * i) as f32) / denom).exp())
        .collect();
    let sum: f32 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

/// Gaussian-blurs the image with standard deviation `sigma`.
pub(crate) fn gaussian_blur(img: &GrayImage, sigma: f32) -> GrayImage {
    convolve_separable(img, &gaussian_kernel(sigma))
}

/// Horizontal and vertical Sobel gradient images `(gx, gy)`.
///
/// `gx` responds to vertical edges (intensity change along x), `gy` to
/// horizontal edges. Standard 3×3 Sobel masks, separable form
/// `[1 2 1]ᵀ · [-1 0 1]`.
pub(crate) fn sobel(img: &GrayImage) -> (GrayImage, GrayImage) {
    let smooth = [1.0, 2.0, 1.0];
    let diff = [-1.0, 0.0, 1.0];
    let gx = convolve_cols(&convolve_rows(img, &diff), &smooth);
    let gy = convolve_rows(&convolve_cols(img, &diff), &smooth);
    (gx, gy)
}

/// Gradient magnitude `sqrt(gx² + gy²)` computed pixel-wise.
pub(crate) fn gradient_magnitude(gx: &GrayImage, gy: &GrayImage) -> GrayImage {
    assert_eq!(gx.width(), gy.width());
    assert_eq!(gx.height(), gy.height());
    let data = gx
        .as_slice()
        .iter()
        .zip(gy.as_slice())
        .map(|(&a, &b)| (a * a + b * b).sqrt())
        .collect();
    GrayImage::from_vec(gx.width(), gx.height(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn constant(w: usize, h: usize, v: f32) -> GrayImage {
        GrayImage::filled(w, h, v)
    }

    #[test]
    fn identity_kernel_is_noop() {
        let img = GrayImage::from_vec(3, 3, (0..9).map(|v| v as f32).collect());
        let out = convolve_separable(&img, &[1.0]);
        assert_eq!(out.as_slice(), img.as_slice());
    }

    #[test]
    fn gaussian_kernel_normalized_and_symmetric() {
        for sigma in [0.5f32, 1.0, 1.4, 2.5] {
            let k = gaussian_kernel(sigma);
            assert_eq!(k.len() % 2, 1);
            let sum: f32 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sum {sum}");
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
            }
            // peak at center
            let mid = k.len() / 2;
            assert!(k.iter().all(|&v| v <= k[mid] + 1e-9));
        }
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = constant(8, 6, 0.37);
        let out = gaussian_blur(&img, 1.4);
        for &v in out.as_slice() {
            assert!((v - 0.37).abs() < 1e-5);
        }
    }

    #[test]
    fn sobel_zero_on_flat_image() {
        let img = constant(8, 8, 0.5);
        let (gx, gy) = sobel(&img);
        assert!(gx.as_slice().iter().all(|&v| v.abs() < 1e-6));
        assert!(gy.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn sobel_detects_vertical_step() {
        // Left half 0, right half 1 → strong gx at the boundary, gy ~ 0.
        let mut img = GrayImage::new(8, 8);
        for y in 0..8 {
            for x in 4..8 {
                img.set(x, y, 1.0);
            }
        }
        let (gx, gy) = sobel(&img);
        let center_gx = gx.get(4, 4).abs();
        assert!(center_gx > 1.0, "gx at step = {center_gx}");
        assert!(gy.get(4, 4).abs() < 1e-6);
        // gradient positive: intensity increases with x
        assert!(gx.get(4, 4) > 0.0);
    }

    #[test]
    fn sobel_detects_horizontal_step() {
        let mut img = GrayImage::new(8, 8);
        for y in 4..8 {
            for x in 0..8 {
                img.set(x, y, 1.0);
            }
        }
        let (gx, gy) = sobel(&img);
        assert!(gy.get(4, 4) > 1.0);
        assert!(gx.get(4, 4).abs() < 1e-6);
    }

    #[test]
    fn magnitude_is_euclidean() {
        let gx = GrayImage::from_vec(1, 1, vec![3.0]);
        let gy = GrayImage::from_vec(1, 1, vec![4.0]);
        let m = gradient_magnitude(&gx, &gy);
        assert!((m.get(0, 0) - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "odd length")]
    fn even_kernel_rejected() {
        let img = constant(4, 4, 0.0);
        let _ = convolve_rows(&img, &[0.5, 0.5]);
    }

    proptest! {
        /// Blurring never extends the value range of the input (since the
        /// kernel is a convex combination under replicate padding).
        #[test]
        fn blur_within_input_range(vals in proptest::collection::vec(0.0f32..1.0, 36)) {
            let img = GrayImage::from_vec(6, 6, vals.clone());
            let out = gaussian_blur(&img, 1.0);
            let min = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for &v in out.as_slice() {
                prop_assert!(v >= min - 1e-4 && v <= max + 1e-4);
            }
        }

        /// Convolution is linear: conv(a·img) == a·conv(img).
        #[test]
        fn convolution_is_homogeneous(vals in proptest::collection::vec(-1.0f32..1.0, 16), a in 0.1f32..3.0) {
            let img = GrayImage::from_vec(4, 4, vals.clone());
            let scaled = GrayImage::from_vec(4, 4, vals.iter().map(|v| v * a).collect());
            let k = gaussian_kernel(0.8);
            let c1 = convolve_separable(&scaled, &k);
            let c2 = convolve_separable(&img, &k);
            for (u, v) in c1.as_slice().iter().zip(c2.as_slice()) {
                prop_assert!((u - a * v).abs() < 1e-3);
            }
        }
    }
}
