//! Synthetic COREL-like image corpus.
//!
//! The paper evaluates on 20- and 50-category subsets of the COREL image CDs
//! (100 images per category: antique, antelope, aviation, balloon, ...).
//! COREL is proprietary and unavailable, so this module generates a corpus
//! with the *statistical properties the algorithms actually consume*:
//!
//! * **Categories are multimodal.** A COREL category is a union of tight
//!   "photo shoots": within a shoot, images are nearly identical in
//!   low-level statistics; across shoots of the same category they differ
//!   wildly (a "car" can be any color). We model this with per-category
//!   `ThemeStyle`s — each image is drawn from one of its category's
//!   themes with tight within-theme jitter.
//! * **The semantic gap is structural.** Theme appearance is only loosely
//!   anchored to the category (hue anchoring plus a texture-family bias,
//!   with off-palette themes), so low-level features retrieve the query's
//!   *theme*, not its *category*: Euclidean precision lands in the band the
//!   paper reports for COREL (≈ 0.4 at top-20 for 20 categories), and only
//!   semantic information (the feedback log) can bridge between themes of
//!   the same category.
//! * Per-image jitter, off-theme outliers, distractor clutter, and pixel
//!   noise keep every image distinct.
//! * Generation is **deterministic** given `(seed, category, index)`, so
//!   experiments are bit-reproducible and images never need to be stored.
//!
//! The knobs that govern intra/inter-category structure live in
//! [`StyleDistribution`]; `lrf-bench`'s `reproduce calibrate` subcommand
//! measures the Euclidean baseline they were calibrated against.

use crate::color::Hsv;
use crate::draw;
use crate::image::RgbImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The texture family a theme carries.
///
/// Different motifs produce distinct wavelet-entropy signatures; sharing a
/// motif family (with different parameters) across categories is one of the
/// deliberate sources of inter-category confusion.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TextureMotif {
    /// Sinusoidal stripes with orientation (radians) and frequency
    /// (cycles per image width).
    Stripes { angle: f32, frequency: f32 },
    /// Checkerboard modulation with the given cell edge (pixels).
    Checker { cell: usize },
    /// Soft organic mottling with the given blob count.
    Blobs { count: usize },
    /// No texture carrier (smooth background only).
    Smooth,
}

/// The shape family drawn on top of the background.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShapeMotif {
    /// Filled discs.
    Discs,
    /// Filled axis-aligned boxes.
    Boxes,
    /// Thick straight bars.
    Bars,
    /// No foreground shapes.
    None,
}

/// One "photo shoot": a tight appearance cluster inside a category.
#[derive(Clone, Debug)]
struct ThemeStyle {
    /// Background hue center, `[0, 1)`.
    hue: f32,
    /// Within-theme hue jitter half-width (small).
    hue_jitter: f32,
    /// Background saturation center.
    saturation: f32,
    /// Background value (brightness) center.
    value: f32,
    /// Texture carrier (fixed parameters for the whole theme).
    motif: TextureMotif,
    /// Texture blend strength `[0, 1]`.
    motif_strength: f32,
    /// Foreground shape family.
    shapes: ShapeMotif,
    /// Inclusive range of foreground shapes per image.
    shape_count: (usize, usize),
    /// Hue offset of foreground shapes relative to the background hue.
    shape_hue_offset: f32,
    /// Per-pixel uniform noise amplitude (8-bit counts).
    noise_amp: f32,
}

/// A category: a set of themes plus the outlier rate.
#[derive(Clone, Debug)]
struct CategoryStyle {
    /// The category's themes ("photo shoots").
    themes: Vec<ThemeStyle>,
    /// Probability an image ignores its category's themes entirely and is
    /// rendered from a freshly sampled global theme (an outlier photo).
    off_theme_prob: f32,
}

/// The distribution category styles are sampled from — the single
/// calibration surface of the corpus.
#[derive(Clone, Debug)]
struct StyleDistribution {
    /// Inclusive range of themes per category.
    themes_per_category: (usize, usize),
    /// Std-dev-like half-width of theme hue spread around the category
    /// anchor hue.
    theme_hue_spread: f32,
    /// Probability a theme's hue is drawn globally (off-palette theme) —
    /// "a car can be any color".
    theme_off_palette: f32,
    /// Probability a theme uses the category's texture family (with fresh
    /// parameters) rather than a random family.
    theme_family_adherence: f32,
    /// Within-theme per-image hue jitter half-width.
    within_theme_hue_jitter: f32,
    /// Probability an image is an off-theme outlier.
    off_theme_prob: f32,
    /// Range per-theme pixel-noise amplitude is drawn from (8-bit counts).
    noise_amp: (f32, f32),
    /// Maximum foreground shapes per image.
    max_shapes: usize,
}

impl Default for StyleDistribution {
    fn default() -> Self {
        // Calibrated so 36-D feature Euclidean P@20 on the 20-category
        // corpus lands near the paper's 0.398 while categories stay
        // multimodal (`reproduce calibrate` in lrf-bench re-measures it).
        Self {
            themes_per_category: (5, 8),
            theme_hue_spread: 0.045,
            theme_off_palette: 0.12,
            theme_family_adherence: 0.7,
            within_theme_hue_jitter: 0.03,
            off_theme_prob: 0.08,
            noise_amp: (8.0, 25.0),
            max_shapes: 6,
        }
    }
}

/// Draws a texture motif with globally distributed parameters.
fn sample_motif<R: Rng>(rng: &mut R) -> TextureMotif {
    match rng.gen_range(0..4u8) {
        0 => TextureMotif::Stripes {
            angle: rng.gen_range(0.0..std::f32::consts::PI),
            frequency: rng.gen_range(2.0..16.0),
        },
        1 => TextureMotif::Checker {
            cell: rng.gen_range(2..12),
        },
        2 => TextureMotif::Blobs {
            count: rng.gen_range(3..14),
        },
        _ => TextureMotif::Smooth,
    }
}

/// Draws a motif from the same *family* as `family` but with fresh
/// parameters (theme-level variation within a category's texture family).
fn sample_motif_in_family<R: Rng>(family: TextureMotif, rng: &mut R) -> TextureMotif {
    match family {
        TextureMotif::Stripes { .. } => TextureMotif::Stripes {
            angle: rng.gen_range(0.0..std::f32::consts::PI),
            frequency: rng.gen_range(2.0..16.0),
        },
        TextureMotif::Checker { .. } => TextureMotif::Checker {
            cell: rng.gen_range(2..12),
        },
        TextureMotif::Blobs { .. } => TextureMotif::Blobs {
            count: rng.gen_range(3..14),
        },
        TextureMotif::Smooth => TextureMotif::Smooth,
    }
}

fn sample_shapes<R: Rng>(rng: &mut R) -> ShapeMotif {
    match rng.gen_range(0..4u8) {
        0 => ShapeMotif::Discs,
        1 => ShapeMotif::Boxes,
        2 => ShapeMotif::Bars,
        _ => ShapeMotif::None,
    }
}

impl ThemeStyle {
    /// Samples one theme for a category anchored at `anchor_hue` whose
    /// texture family is `family`.
    fn sample<R: Rng>(
        anchor_hue: f32,
        family: TextureMotif,
        dist: &StyleDistribution,
        rng: &mut R,
    ) -> Self {
        let hue = if rng.gen_bool(f64::from(dist.theme_off_palette)) {
            rng.gen_range(0.0f32..1.0)
        } else {
            (anchor_hue + rng.gen_range(-dist.theme_hue_spread..=dist.theme_hue_spread))
                .rem_euclid(1.0)
        };
        let motif = if rng.gen_bool(f64::from(dist.theme_family_adherence)) {
            sample_motif_in_family(family, rng)
        } else {
            sample_motif(rng)
        };
        Self {
            hue,
            hue_jitter: dist.within_theme_hue_jitter,
            saturation: rng.gen_range(0.25..0.9),
            value: rng.gen_range(0.3..0.9),
            motif,
            motif_strength: rng.gen_range(0.1..0.45),
            shapes: sample_shapes(rng),
            shape_count: (1, dist.max_shapes.max(1)),
            shape_hue_offset: rng.gen_range(0.1..0.6),
            noise_amp: rng.gen_range(dist.noise_amp.0..=dist.noise_amp.1),
        }
    }
}

impl CategoryStyle {
    /// Samples a category style: an anchor hue stratified on the hue circle,
    /// a texture family, and `themes_per_category` themes around them.
    fn sample<R: Rng>(
        cat: usize,
        n_categories: usize,
        dist: &StyleDistribution,
        rng: &mut R,
    ) -> Self {
        assert!(n_categories > 0 && cat < n_categories);
        let stratum = cat as f32 / n_categories as f32;
        let anchor_hue = (stratum + rng.gen_range(-0.5..0.5) / n_categories as f32).rem_euclid(1.0);
        let family = sample_motif(rng);
        let n_themes = rng.gen_range(
            dist.themes_per_category.0..=dist.themes_per_category.1.max(dist.themes_per_category.0),
        );
        let themes = (0..n_themes.max(1))
            .map(|_| ThemeStyle::sample(anchor_hue, family, dist, rng))
            .collect();
        Self {
            themes,
            off_theme_prob: dist.off_theme_prob,
        }
    }
}

/// Deterministic image generator for a fixed set of category styles.
#[derive(Clone, Debug)]
pub struct SyntheticGenerator {
    styles: Vec<CategoryStyle>,
    dist: StyleDistribution,
    width: usize,
    height: usize,
    seed: u64,
}

impl SyntheticGenerator {
    /// Builds a generator for `n_categories` categories of `width × height`
    /// images; styles are sampled deterministically from `seed`.
    pub fn new(n_categories: usize, width: usize, height: usize, seed: u64) -> Self {
        Self::with_distribution(
            n_categories,
            width,
            height,
            seed,
            &StyleDistribution::default(),
        )
    }

    /// As [`Self::new`] but with an explicit style distribution (the
    /// sampler tests build non-default ones).
    fn with_distribution(
        n_categories: usize,
        width: usize,
        height: usize,
        seed: u64,
        dist: &StyleDistribution,
    ) -> Self {
        assert!(n_categories > 0, "need at least one category");
        let mut style_rng = StdRng::seed_from_u64(seed ^ 0x5379_4c45); // "STYL"
        let styles = (0..n_categories)
            .map(|c| CategoryStyle::sample(c, n_categories, dist, &mut style_rng))
            .collect();
        Self {
            styles,
            dist: dist.clone(),
            width,
            height,
            seed,
        }
    }

    /// Number of categories.
    fn n_categories(&self) -> usize {
        self.styles.len()
    }

    /// Renders image `index` of `category`. Deterministic in
    /// `(seed, category, index)`.
    pub fn generate(&self, category: usize, index: usize) -> RgbImage {
        let style = &self.styles[category];
        // Decorrelate the per-image stream from the style stream and from
        // neighbouring (category, index) pairs.
        let image_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((category as u64) << 32)
            .wrapping_add(index as u64 + 1);
        let mut rng = StdRng::seed_from_u64(image_seed);

        // Pick the theme: usually one of the category's, occasionally a
        // fresh global outlier theme.
        let outlier;
        let theme = if rng.gen_bool(f64::from(style.off_theme_prob)) {
            outlier = ThemeStyle::sample(
                rng.gen_range(0.0f32..1.0),
                sample_motif(&mut rng),
                &self.dist,
                &mut rng,
            );
            &outlier
        } else {
            &style.themes[rng.gen_range(0..style.themes.len())]
        };
        self.render_theme(theme, &mut rng)
    }

    /// Renders one image of a theme with within-theme jitter.
    fn render_theme(&self, theme: &ThemeStyle, rng: &mut StdRng) -> RgbImage {
        let mut img = RgbImage::new(self.width, self.height);
        let w = self.width as isize;
        let h = self.height as isize;

        // 1. Background gradient, tight around the theme appearance.
        let hue = theme.hue + rng.gen_range(-theme.hue_jitter..=theme.hue_jitter);
        let top = Hsv::new(
            hue + rng.gen_range(-0.015..0.015),
            theme.saturation + rng.gen_range(-0.08..0.08),
            theme.value + rng.gen_range(-0.08..0.08),
        );
        let bottom = Hsv::new(
            hue + rng.gen_range(-0.03..0.03),
            theme.saturation + rng.gen_range(-0.08..0.08),
            theme.value + rng.gen_range(-0.12..0.04),
        );
        draw::fill_vertical_gradient(&mut img, top, bottom);

        // 2. Texture carrier with small per-image parameter jitter.
        match theme.motif {
            TextureMotif::Stripes { angle, frequency } => {
                let a = angle + rng.gen_range(-0.08..0.08);
                let f = frequency * rng.gen_range(0.92..1.08);
                let phase = rng.gen_range(0.0..std::f32::consts::TAU);
                draw::overlay_stripes(&mut img, a, f, theme.motif_strength, phase);
            }
            TextureMotif::Checker { cell } => {
                draw::overlay_checker(&mut img, cell, theme.motif_strength);
            }
            TextureMotif::Blobs { count } => {
                draw::overlay_blobs(&mut img, count, theme.motif_strength, rng);
            }
            TextureMotif::Smooth => {}
        }

        // 3. Foreground shapes in the theme's accent hue.
        let n_shapes = rng.gen_range(theme.shape_count.0..=theme.shape_count.1);
        for _ in 0..n_shapes {
            let shape_hue = hue + theme.shape_hue_offset + rng.gen_range(-0.04..0.04);
            let color =
                Hsv::new(shape_hue, rng.gen_range(0.5..1.0), rng.gen_range(0.5..1.0)).to_rgb();
            match theme.shapes {
                ShapeMotif::Discs => {
                    let r = rng.gen_range((w.min(h) / 14).max(2)..=(w.min(h) / 5).max(3));
                    draw::fill_disc(&mut img, rng.gen_range(0..w), rng.gen_range(0..h), r, color);
                }
                ShapeMotif::Boxes => {
                    let bw = rng.gen_range(self.width / 10..=self.width / 3).max(2);
                    let bh = rng.gen_range(self.height / 10..=self.height / 3).max(2);
                    draw::fill_rect(
                        &mut img,
                        rng.gen_range(-(bw as isize) / 2..w),
                        rng.gen_range(-(bh as isize) / 2..h),
                        bw,
                        bh,
                        color,
                    );
                }
                ShapeMotif::Bars => {
                    let x0 = rng.gen_range(0..w);
                    let y0 = rng.gen_range(0..h);
                    let len = rng.gen_range(w.min(h) / 3..=w.min(h));
                    let angle: f32 = rng.gen_range(-0.2..0.2)
                        + match theme.motif {
                            TextureMotif::Stripes { angle, .. } => angle,
                            _ => rng.gen_range(0.0..std::f32::consts::PI),
                        };
                    let x1 = x0 + (angle.cos() * len as f32) as isize;
                    let y1 = y0 + (angle.sin() * len as f32) as isize;
                    draw::draw_line(&mut img, x0, y0, x1, y1, self.width / 24 + 1, color);
                }
                ShapeMotif::None => break,
            }
        }

        // 4. Distractor clutter: a few shapes of arbitrary hue (off-concept
        // objects appear in real photographs).
        let n_distractors = rng.gen_range(0..=2usize);
        for _ in 0..n_distractors {
            let color = Hsv::new(
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.3..1.0),
                rng.gen_range(0.3..1.0),
            )
            .to_rgb();
            let r = rng.gen_range((w.min(h) / 16).max(2)..=(w.min(h) / 7).max(3));
            draw::fill_disc(&mut img, rng.gen_range(0..w), rng.gen_range(0..h), r, color);
        }

        // 5. Sensor-style pixel noise.
        draw::add_pixel_noise(&mut img, theme.noise_amp, rng);
        img
    }
}

/// A fully materialized corpus: every image of every category plus labels.
#[derive(Clone, Debug)]
pub struct SyntheticCorpus {
    /// Images in category-major order (`category * per_category + index`).
    pub images: Vec<RgbImage>,
    /// Ground-truth category of each image.
    pub labels: Vec<usize>,
    /// Number of categories.
    pub n_categories: usize,
    /// Images per category.
    pub per_category: usize,
}

impl SyntheticCorpus {
    /// Generates the whole corpus eagerly.
    pub fn generate(gen: &SyntheticGenerator, per_category: usize) -> Self {
        let n_categories = gen.n_categories();
        let mut images = Vec::with_capacity(n_categories * per_category);
        let mut labels = Vec::with_capacity(n_categories * per_category);
        for cat in 0..n_categories {
            for idx in 0..per_category {
                images.push(gen.generate(cat, idx));
                labels.push(cat);
            }
        }
        Self {
            images,
            labels,
            n_categories,
            per_category,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SyntheticGenerator {
        /// The sampled style of a category, for the tests that check the
        /// sampler.
        fn style(&self, category: usize) -> &CategoryStyle {
            &self.styles[category]
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = SyntheticGenerator::new(5, 32, 32, 42);
        let g2 = SyntheticGenerator::new(5, 32, 32, 42);
        for cat in 0..5 {
            assert_eq!(g1.generate(cat, 3), g2.generate(cat, 3));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = SyntheticGenerator::new(3, 32, 32, 1);
        let g2 = SyntheticGenerator::new(3, 32, 32, 2);
        assert_ne!(g1.generate(0, 0), g2.generate(0, 0));
    }

    #[test]
    fn different_indices_differ() {
        let g = SyntheticGenerator::new(3, 32, 32, 9);
        assert_ne!(g.generate(1, 0), g.generate(1, 1));
        assert_ne!(g.generate(0, 0), g.generate(1, 0));
    }

    #[test]
    fn corpus_layout() {
        let g = SyntheticGenerator::new(4, 16, 16, 7);
        let corpus = SyntheticCorpus::generate(&g, 3);
        assert_eq!(corpus.images.len(), 12);
        assert_eq!(corpus.labels[0], 0);
        assert_eq!(corpus.labels[3], 1);
        assert_eq!(corpus.labels[11], 3);
        assert_eq!(corpus.images[5], g.generate(1, 2));
    }

    #[test]
    fn categories_have_multiple_themes() {
        let g = SyntheticGenerator::new(6, 16, 16, 5);
        let dist = StyleDistribution::default();
        for c in 0..6 {
            let n = g.style(c).themes.len();
            assert!(
                (dist.themes_per_category.0..=dist.themes_per_category.1).contains(&n),
                "cat {c} has {n} themes"
            );
        }
    }

    #[test]
    fn on_palette_themes_cluster_near_anchor() {
        // With off-palette probability 0, every theme hue must lie within
        // the configured spread of the category anchor (which itself lies
        // in the category's stratum).
        let dist = StyleDistribution {
            theme_off_palette: 0.0,
            ..StyleDistribution::default()
        };
        let g = SyntheticGenerator::with_distribution(10, 16, 16, 3, &dist);
        for c in 0..10 {
            let stratum = c as f32 / 10.0;
            for (t, theme) in g.style(c).themes.iter().enumerate() {
                let mut d = (theme.hue - stratum).abs();
                if d > 0.5 {
                    d = 1.0 - d;
                }
                // anchor offset (±half stratum) + spread
                let bound = 0.5 / 10.0 + dist.theme_hue_spread + 1e-5;
                assert!(
                    d <= bound,
                    "cat {c} theme {t}: hue {} vs stratum {stratum}",
                    theme.hue
                );
            }
        }
    }

    #[test]
    fn within_theme_images_are_visually_tight() {
        // Two images of the same (single-theme, no-outlier) category must
        // be much closer in mean color than images of a far category.
        let dist = StyleDistribution {
            themes_per_category: (1, 1),
            off_theme_prob: 0.0,
            theme_off_palette: 0.0,
            ..StyleDistribution::default()
        };
        let g = SyntheticGenerator::with_distribution(2, 32, 32, 8, &dist);
        let mean_rgb = |img: &RgbImage| -> [f64; 3] {
            let mut acc = [0.0f64; 3];
            for p in img.pixels() {
                for c in 0..3 {
                    acc[c] += f64::from(p[c]);
                }
            }
            let n = img.len() as f64;
            [acc[0] / n, acc[1] / n, acc[2] / n]
        };
        let dist_rgb = |a: [f64; 3], b: [f64; 3]| -> f64 {
            a.iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        // Average over several pairs to avoid single-image flukes.
        let mut intra = 0.0;
        let mut inter = 0.0;
        for i in 0..6 {
            intra += dist_rgb(mean_rgb(&g.generate(0, i)), mean_rgb(&g.generate(0, i + 6)));
            inter += dist_rgb(mean_rgb(&g.generate(0, i)), mean_rgb(&g.generate(1, i)));
        }
        assert!(
            inter > intra,
            "single-theme categories should be tighter within ({intra:.1}) than across ({inter:.1})"
        );
    }

    #[test]
    fn images_are_not_degenerate() {
        // Every generated image should have nontrivial variance (noise +
        // texture guarantee it) so feature extraction never divides by zero.
        let g = SyntheticGenerator::new(6, 32, 32, 3);
        for cat in 0..6 {
            let img = g.generate(cat, 0);
            let gray = img.to_gray();
            let n = gray.as_slice().len() as f32;
            let mean: f32 = gray.as_slice().iter().sum::<f32>() / n;
            let var: f32 = gray
                .as_slice()
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / n;
            assert!(var > 1e-5, "cat {cat} variance {var}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_categories_panics() {
        let _ = SyntheticGenerator::new(0, 16, 16, 0);
    }
}
