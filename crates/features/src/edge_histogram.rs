//! Edge-direction histogram — the paper's edge descriptor.
//!
//! "The images in the datasets are first translated to gray images. Then a
//! Canny edge detector is applied to obtain the edge images. From the edge
//! images, the edge direction histogram can then be computed. The edge
//! direction histogram is quantized into 18 bins of 20 degrees each."
//!
//! Each Canny edge pixel votes its gradient direction into one of 18 bins
//! covering the full 360° circle; the histogram is normalized by the edge
//! count so the descriptor is invariant to image size and edge density (an
//! all-flat image yields the zero vector, a documented convention).

use lrf_imaging::canny::{canny, CannyParams, EdgeMap};
use lrf_imaging::GrayImage;

/// Number of histogram bins (18 × 20° = 360°).
pub(crate) const BINS: usize = 18;

/// Computes the normalized 18-bin edge-direction histogram of a gray image.
pub(crate) fn edge_direction_histogram(img: &GrayImage, params: CannyParams) -> [f64; BINS] {
    let map = canny(img, params);
    histogram_from_edges(&map)
}

/// Builds the normalized histogram from an existing [`EdgeMap`].
pub(crate) fn histogram_from_edges(map: &EdgeMap) -> [f64; BINS] {
    let mut hist = [0.0f64; BINS];
    let mut count = 0usize;
    let bin_width = std::f32::consts::TAU / BINS as f32;
    for (_x, _y, dir) in map.iter_edges() {
        let mut bin = (dir / bin_width) as usize;
        if bin >= BINS {
            bin = BINS - 1; // guard dir == 2π from float rounding
        }
        hist[bin] += 1.0;
        count += 1;
    }
    if count > 0 {
        let inv = 1.0 / count as f64;
        for h in &mut hist {
            *h *= inv;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_params() -> CannyParams {
        CannyParams::default()
    }

    #[test]
    fn flat_image_yields_zero_histogram() {
        let img = GrayImage::filled(32, 32, 0.5);
        let hist = edge_direction_histogram(&img, default_params());
        assert!(hist.iter().all(|&h| h == 0.0));
    }

    #[test]
    fn histogram_is_normalized() {
        let mut img = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 16..32 {
                img.set(x, y, 1.0);
            }
        }
        let hist = edge_direction_histogram(&img, default_params());
        let sum: f64 = hist.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn vertical_edge_votes_horizontal_direction_bins() {
        // A bright right half: gradient points along +x (0°) on the edge.
        let mut img = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 16..32 {
                img.set(x, y, 1.0);
            }
        }
        let hist = edge_direction_histogram(&img, default_params());
        // 0° falls in bin 0; allow its circular neighbors (17, 1).
        let mass: f64 = hist[0] + hist[1] + hist[17];
        assert!(mass > 0.9, "mass near 0° = {mass}, hist = {hist:?}");
    }

    #[test]
    fn opposite_contrast_flips_bins_by_180_degrees() {
        // Bright LEFT half: gradient along −x (180°) → bin 9 neighborhood.
        let mut img = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 0..16 {
                img.set(x, y, 1.0);
            }
        }
        let hist = edge_direction_histogram(&img, default_params());
        let mass: f64 = hist[8] + hist[9] + hist[10];
        assert!(mass > 0.9, "mass near 180° = {mass}, hist = {hist:?}");
    }

    #[test]
    fn horizontal_edge_votes_vertical_bins() {
        // Bright bottom half: gradient along +y (90°) → bin 4/5 area.
        let mut img = GrayImage::new(32, 32);
        for y in 16..32 {
            for x in 0..32 {
                img.set(x, y, 1.0);
            }
        }
        let hist = edge_direction_histogram(&img, default_params());
        let mass: f64 = hist[3] + hist[4] + hist[5];
        assert!(mass > 0.9, "mass near 90° = {mass}, hist = {hist:?}");
    }

    #[test]
    fn all_entries_nonnegative_and_bounded() {
        let mut img = GrayImage::new(24, 24);
        // a small box: edges in all four directions
        for y in 8..16 {
            for x in 8..16 {
                img.set(x, y, 1.0);
            }
        }
        let hist = edge_direction_histogram(&img, default_params());
        for &h in &hist {
            assert!((0.0..=1.0).contains(&h));
        }
        // a box has at least two distinct edge orientations
        let nonzero = hist.iter().filter(|&&h| h > 0.0).count();
        assert!(nonzero >= 2, "hist {hist:?}");
    }
}
