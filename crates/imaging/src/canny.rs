//! Canny edge detection.
//!
//! The paper's edge feature is an 18-bin edge-direction histogram computed
//! from "edge images" produced by "a Canny edge detector" (\[16\] in the
//! paper). This is the full classical pipeline:
//!
//! 1. Gaussian smoothing (`sigma`),
//! 2. Sobel gradients,
//! 3. non-maximum suppression along the quantized gradient direction,
//! 4. double thresholding + hysteresis (weak edges survive only when
//!    8-connected to a strong edge).
//!
//! The output [`EdgeMap`] keeps the gradient direction of every edge pixel
//! so the histogram extractor does not have to recompute gradients.

use crate::convolve::{gaussian_blur, gradient_magnitude, sobel};
use crate::image::GrayImage;

/// Tuning parameters for [`canny`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CannyParams {
    /// Standard deviation of the pre-smoothing Gaussian.
    pub sigma: f32,
    /// Low hysteresis threshold as a fraction of the maximum gradient
    /// magnitude (e.g. `0.1`).
    pub low_ratio: f32,
    /// High hysteresis threshold as a fraction of the maximum gradient
    /// magnitude (e.g. `0.25`).
    pub high_ratio: f32,
}

impl Default for CannyParams {
    fn default() -> Self {
        // sigma 1.4 is the textbook choice; ratio thresholds adapt to image
        // contrast, which matters because synthetic categories differ in
        // edge strength by design.
        Self {
            sigma: 1.4,
            low_ratio: 0.10,
            high_ratio: 0.25,
        }
    }
}

/// Result of Canny edge detection.
#[derive(Clone, Debug)]
pub struct EdgeMap {
    width: usize,
    /// `true` where the pixel is an edge.
    edges: Vec<bool>,
    /// Gradient direction in radians in `[0, 2π)`, valid only at edge pixels.
    directions: Vec<f32>,
}

impl EdgeMap {
    /// Map width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Iterates over `(x, y, direction)` of all edge pixels in row-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        let w = self.width;
        self.edges
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .map(move |(i, _)| (i % w, i / w, self.directions[i]))
    }
}

/// Runs the Canny detector over a gray image.
///
/// # Panics
/// Panics if `params` are out of range (`low_ratio >= high_ratio`, ratios
/// outside `(0, 1)`, non-positive sigma).
pub fn canny(img: &GrayImage, params: CannyParams) -> EdgeMap {
    assert!(params.sigma > 0.0, "sigma must be positive");
    assert!(
        params.low_ratio > 0.0 && params.high_ratio < 1.0 && params.low_ratio < params.high_ratio,
        "thresholds must satisfy 0 < low < high < 1"
    );
    let w = img.width();
    let h = img.height();

    let smoothed = gaussian_blur(img, params.sigma);
    let (gx, gy) = sobel(&smoothed);
    let mag = gradient_magnitude(&gx, &gy);

    let max_mag = mag.as_slice().iter().cloned().fold(0.0f32, f32::max);
    let mut edges = vec![false; w * h];
    let mut directions = vec![0.0f32; w * h];

    if max_mag <= f32::EPSILON {
        // Perfectly flat image: no edges at all.
        return EdgeMap {
            width: w,
            edges,
            directions,
        };
    }
    let high = params.high_ratio * max_mag;
    let low = params.low_ratio * max_mag;

    // Non-maximum suppression: a pixel survives when its magnitude is a
    // local maximum along the (quantized) gradient direction.
    let mut nms = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let m = mag.get(x, y);
            if m < low {
                continue; // cannot become an edge; skip the neighbor lookups
            }
            let dir = gy.get(x, y).atan2(gx.get(x, y)); // (-π, π]
            directions[y * w + x] = dir.rem_euclid(std::f32::consts::TAU);
            // Quantize into 4 orientations (0°, 45°, 90°, 135° modulo 180°).
            let angle = dir.rem_euclid(std::f32::consts::PI);
            let sector = ((angle / std::f32::consts::PI * 4.0).round() as usize) % 4;
            let (dx, dy): (isize, isize) = match sector {
                0 => (1, 0),  // gradient ~horizontal → compare left/right
                1 => (1, 1),  // 45°
                2 => (0, 1),  // vertical
                _ => (-1, 1), // 135°
            };
            let m1 = mag.get_clamped(x as isize + dx, y as isize + dy);
            let m2 = mag.get_clamped(x as isize - dx, y as isize - dy);
            if m >= m1 && m >= m2 {
                nms[y * w + x] = m;
            }
        }
    }

    // Double threshold + hysteresis via an explicit stack (BFS over strong
    // seeds, expanding into weak pixels).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if nms[y * w + x] >= high && !edges[y * w + x] {
                edges[y * w + x] = true;
                stack.push((x, y));
                while let Some((cx, cy)) = stack.pop() {
                    for ny in cy.saturating_sub(1)..=(cy + 1).min(h - 1) {
                        for nx in cx.saturating_sub(1)..=(cx + 1).min(w - 1) {
                            let idx = ny * w + nx;
                            if !edges[idx] && nms[idx] >= low {
                                edges[idx] = true;
                                stack.push((nx, ny));
                            }
                        }
                    }
                }
            }
        }
    }

    EdgeMap {
        width: w,
        edges,
        directions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EdgeMap {
        /// Number of edge pixels.
        fn edge_count(&self) -> usize {
            self.edges.iter().filter(|&&e| e).count()
        }
    }

    fn step_image(w: usize, h: usize) -> GrayImage {
        let mut img = GrayImage::new(w, h);
        for y in 0..h {
            for x in w / 2..w {
                img.set(x, y, 1.0);
            }
        }
        img
    }

    #[test]
    fn flat_image_has_no_edges() {
        let img = GrayImage::filled(16, 16, 0.42);
        let map = canny(&img, CannyParams::default());
        assert_eq!(map.edge_count(), 0);
    }

    #[test]
    fn vertical_step_produces_vertical_edge_line() {
        let img = step_image(32, 32);
        let map = canny(&img, CannyParams::default());
        assert!(map.edge_count() > 0);
        // All edges should hug the step column (x near 15/16), away from borders.
        for (x, _y, dir) in map.iter_edges() {
            assert!((13..=18).contains(&x), "edge at unexpected x={x}");
            // Gradient direction should be horizontal (≈ 0 or π).
            let d = dir.rem_euclid(std::f32::consts::PI);
            assert!(
                !(0.3..=std::f32::consts::PI - 0.3).contains(&d),
                "direction {d} not horizontal"
            );
        }
    }

    #[test]
    fn horizontal_step_direction_is_vertical() {
        let mut img = GrayImage::new(32, 32);
        for y in 16..32 {
            for x in 0..32 {
                img.set(x, y, 1.0);
            }
        }
        let map = canny(&img, CannyParams::default());
        assert!(map.edge_count() > 0);
        for (_x, y, dir) in map.iter_edges() {
            assert!((13..=18).contains(&y));
            let d = dir.rem_euclid(std::f32::consts::PI);
            assert!(
                (d - std::f32::consts::FRAC_PI_2).abs() < 0.3,
                "direction {d} not vertical"
            );
        }
    }

    #[test]
    fn edge_thinning_yields_thin_lines() {
        // NMS should keep the edge roughly one or two pixels thick: the count
        // must be close to the image height, not to height × blur width.
        let img = step_image(64, 64);
        let map = canny(&img, CannyParams::default());
        let count = map.edge_count();
        assert!((60..=140).contains(&count), "edge count {count} not thin");
    }

    #[test]
    fn hysteresis_connects_weak_to_strong() {
        // A vertical step whose contrast tapers from strong (top) to weak
        // (bottom) along a single straight edge — no corner, so non-maximum
        // suppression cannot sever connectivity. Hysteresis keeps the weak
        // tail because it is 8-connected to strong seeds; raising the low
        // threshold above the tail strength prunes it.
        let mut img = GrayImage::new(24, 24);
        for y in 0..24 {
            let t = y as f32 / 23.0;
            let contrast = 1.0 - 0.65 * t; // 1.0 at top → 0.35 at bottom
            for x in 12..24 {
                img.set(x, y, contrast);
            }
        }
        let keep = canny(
            &img,
            CannyParams {
                sigma: 1.0,
                low_ratio: 0.08,
                high_ratio: 0.5,
            },
        );
        let lower_kept = keep.iter_edges().filter(|&(_, y, _)| y > 18).count();
        assert!(lower_kept > 0, "weak tail should survive via hysteresis");

        let cut = canny(
            &img,
            CannyParams {
                sigma: 1.0,
                low_ratio: 0.45,
                high_ratio: 0.5,
            },
        );
        let lower_cut = cut.iter_edges().filter(|&(_, y, _)| y > 18).count();
        assert!(
            lower_cut < lower_kept,
            "raising the low threshold should prune the weak tail ({lower_cut} vs {lower_kept})"
        );
    }

    #[test]
    fn higher_thresholds_never_add_edges() {
        let mut img = GrayImage::new(32, 32);
        // Add a few boxes of different contrast.
        for (x0, contrast) in [(4usize, 0.9f32), (16, 0.4)] {
            for y in 8..24 {
                for x in x0..x0 + 6 {
                    img.set(x, y, contrast);
                }
            }
        }
        let loose = canny(
            &img,
            CannyParams {
                sigma: 1.0,
                low_ratio: 0.05,
                high_ratio: 0.15,
            },
        );
        let strict = canny(
            &img,
            CannyParams {
                sigma: 1.0,
                low_ratio: 0.3,
                high_ratio: 0.8,
            },
        );
        assert!(strict.edge_count() <= loose.edge_count());
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn invalid_thresholds_panic() {
        let img = GrayImage::new(8, 8);
        let _ = canny(
            &img,
            CannyParams {
                sigma: 1.0,
                low_ratio: 0.5,
                high_ratio: 0.2,
            },
        );
    }
}
