//! Shape, gradient, and noise rendering primitives.
//!
//! The synthetic COREL substitute ([`crate::synthetic`]) composes images out
//! of these primitives; they are deliberately simple rasterizers (no
//! anti-aliasing) because the downstream consumers are statistical feature
//! extractors, not human eyes.

use crate::color::Hsv;
use crate::image::RgbImage;
use rand::Rng;

/// Fills the whole image with a vertical HSV gradient from `top` to `bottom`.
///
/// Hue is interpolated along the shorter arc of the hue circle.
pub(crate) fn fill_vertical_gradient(img: &mut RgbImage, top: Hsv, bottom: Hsv) {
    let h = img.height();
    let w = img.width();
    for y in 0..h {
        let t = if h == 1 {
            0.0
        } else {
            y as f32 / (h - 1) as f32
        };
        let color = lerp_hsv(top, bottom, t).to_rgb();
        for x in 0..w {
            img.set(x, y, color);
        }
    }
}

/// Interpolates two HSV colors; hue takes the shorter arc.
fn lerp_hsv(a: Hsv, b: Hsv, t: f32) -> Hsv {
    let mut dh = b.h - a.h;
    if dh > 0.5 {
        dh -= 1.0;
    } else if dh < -0.5 {
        dh += 1.0;
    }
    Hsv::new(a.h + dh * t, a.s + (b.s - a.s) * t, a.v + (b.v - a.v) * t)
}

/// Draws a filled axis-aligned rectangle; clipped to the image bounds.
pub(crate) fn fill_rect(
    img: &mut RgbImage,
    x0: isize,
    y0: isize,
    w: usize,
    h: usize,
    color: [u8; 3],
) {
    for dy in 0..h as isize {
        for dx in 0..w as isize {
            img.set_clipped(x0 + dx, y0 + dy, color);
        }
    }
}

/// Draws a filled disc of radius `r` centered at `(cx, cy)`; clipped.
pub(crate) fn fill_disc(img: &mut RgbImage, cx: isize, cy: isize, r: isize, color: [u8; 3]) {
    let r2 = r * r;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy <= r2 {
                img.set_clipped(cx + dx, cy + dy, color);
            }
        }
    }
}

/// Draws a straight line of the given thickness between two points using a
/// dense parametric walk (adequate for small canvases); clipped.
pub(crate) fn draw_line(
    img: &mut RgbImage,
    x0: isize,
    y0: isize,
    x1: isize,
    y1: isize,
    thickness: usize,
    color: [u8; 3],
) {
    let steps = (x1 - x0).abs().max((y1 - y0).abs()).max(1) * 2;
    let half = thickness as isize / 2;
    for s in 0..=steps {
        let t = s as f32 / steps as f32;
        let x = x0 as f32 + (x1 - x0) as f32 * t;
        let y = y0 as f32 + (y1 - y0) as f32 * t;
        for dy in -half..=half {
            for dx in -half..=half {
                img.set_clipped(x.round() as isize + dx, y.round() as isize + dy, color);
            }
        }
    }
}

/// Overlays sinusoidal stripes of the given angular orientation (radians),
/// spatial frequency (cycles per image width), and blend strength in `[0,1]`.
///
/// Stripes brighten/darken the existing pixels rather than replacing them,
/// so they act as a texture carrier on top of the color palette — this is
/// what gives categories a wavelet-texture signature.
pub(crate) fn overlay_stripes(
    img: &mut RgbImage,
    angle: f32,
    frequency: f32,
    strength: f32,
    phase: f32,
) {
    let w = img.width() as f32;
    let (sin_a, cos_a) = angle.sin_cos();
    let two_pi = std::f32::consts::TAU;
    for y in 0..img.height() {
        for x in 0..img.width() {
            let u = (x as f32 * cos_a + y as f32 * sin_a) / w;
            let m = 1.0 + strength * (two_pi * frequency * u + phase).sin();
            let [r, g, b] = img.get(x, y);
            img.set(x, y, [scale_u8(r, m), scale_u8(g, m), scale_u8(b, m)]);
        }
    }
}

/// Overlays a checkerboard modulation with the given cell size in pixels and
/// blend strength in `[0,1]`; dark cells are dimmed, light cells brightened.
pub(crate) fn overlay_checker(img: &mut RgbImage, cell: usize, strength: f32) {
    let cell = cell.max(1);
    for y in 0..img.height() {
        for x in 0..img.width() {
            let parity = (x / cell + y / cell) % 2;
            let m = if parity == 0 {
                1.0 + strength
            } else {
                1.0 - strength
            };
            let [r, g, b] = img.get(x, y);
            img.set(x, y, [scale_u8(r, m), scale_u8(g, m), scale_u8(b, m)]);
        }
    }
}

/// Adds independent uniform pixel noise of amplitude `amp` (in 8-bit counts)
/// to every channel. This models sensor/compression noise and prevents the
/// synthetic categories from being trivially separable.
pub(crate) fn add_pixel_noise<R: Rng>(img: &mut RgbImage, amp: f32, rng: &mut R) {
    if amp <= 0.0 {
        return;
    }
    for px in img.pixels_mut() {
        for c in px.iter_mut() {
            let n = rng.gen_range(-amp..=amp);
            *c = (f32::from(*c) + n).round().clamp(0.0, 255.0) as u8;
        }
    }
}

/// Overlays smooth low-frequency "blob" mottling: `count` soft discs that
/// multiply local brightness. Gives organic texture (foliage / fur-like)
/// distinct from stripes and checkers in the wavelet domain.
pub(crate) fn overlay_blobs<R: Rng>(img: &mut RgbImage, count: usize, strength: f32, rng: &mut R) {
    let w = img.width() as isize;
    let h = img.height() as isize;
    for _ in 0..count {
        let cx = rng.gen_range(0..w);
        let cy = rng.gen_range(0..h);
        let r = rng.gen_range((w.min(h) / 12).max(2)..=(w.min(h) / 4).max(3));
        let bright = rng.gen_bool(0.5);
        let r2 = (r * r) as f32;
        for dy in -r..=r {
            for dx in -r..=r {
                let d2 = (dx * dx + dy * dy) as f32;
                if d2 > r2 {
                    continue;
                }
                let x = cx + dx;
                let y = cy + dy;
                if x < 0 || y < 0 || x >= w || y >= h {
                    continue;
                }
                let falloff = 1.0 - d2 / r2;
                let m = if bright {
                    1.0 + strength * falloff
                } else {
                    1.0 - strength * falloff
                };
                let [pr, pg, pb] = img.get(x as usize, y as usize);
                img.set(
                    x as usize,
                    y as usize,
                    [scale_u8(pr, m), scale_u8(pg, m), scale_u8(pb, m)],
                );
            }
        }
    }
}

#[inline]
fn scale_u8(v: u8, m: f32) -> u8 {
    (f32::from(v) * m).round().clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gradient_endpoints_match() {
        let mut img = RgbImage::new(4, 8);
        let top = Hsv::new(0.0, 1.0, 1.0);
        let bottom = Hsv::new(0.5, 1.0, 0.2);
        fill_vertical_gradient(&mut img, top, bottom);
        assert_eq!(img.get(0, 0), top.to_rgb());
        assert_eq!(img.get(3, 7), bottom.to_rgb());
    }

    #[test]
    fn lerp_hsv_takes_short_hue_arc() {
        // 0.9 → 0.1 should pass through 1.0/0.0, not 0.5.
        let mid = lerp_hsv(Hsv::new(0.9, 1.0, 1.0), Hsv::new(0.1, 1.0, 1.0), 0.5);
        assert!(mid.h < 0.05 || mid.h > 0.95, "hue {} should wrap", mid.h);
    }

    #[test]
    fn rect_is_clipped_not_panicking() {
        let mut img = RgbImage::new(4, 4);
        fill_rect(&mut img, -2, -2, 10, 10, [255, 255, 255]);
        assert_eq!(img.get(0, 0), [255, 255, 255]);
        assert_eq!(img.get(3, 3), [255, 255, 255]);
    }

    #[test]
    fn disc_center_and_radius() {
        let mut img = RgbImage::new(9, 9);
        fill_disc(&mut img, 4, 4, 2, [255, 0, 0]);
        assert_eq!(img.get(4, 4), [255, 0, 0]);
        assert_eq!(img.get(4, 6), [255, 0, 0]); // on radius
        assert_eq!(img.get(0, 0), [0, 0, 0]); // far corner untouched
        assert_eq!(img.get(7, 4), [0, 0, 0]); // just outside radius
    }

    #[test]
    fn line_covers_endpoints() {
        let mut img = RgbImage::new(8, 8);
        draw_line(&mut img, 0, 0, 7, 7, 1, [0, 255, 0]);
        assert_eq!(img.get(0, 0), [0, 255, 0]);
        assert_eq!(img.get(7, 7), [0, 255, 0]);
        assert_eq!(img.get(3, 3), [0, 255, 0]);
    }

    #[test]
    fn stripes_modulate_brightness() {
        let mut img = RgbImage::filled(32, 32, [128, 128, 128]);
        overlay_stripes(&mut img, 0.0, 4.0, 0.5, 0.0);
        let vals: Vec<u8> = img.pixels().iter().map(|p| p[0]).collect();
        let max = *vals.iter().max().unwrap();
        let min = *vals.iter().min().unwrap();
        assert!(
            max > 150 && min < 100,
            "stripes should spread brightness, got {min}..{max}"
        );
        // columns should vary along x (angle 0 = vertical stripes), constant along y
        assert_eq!(img.get(5, 0)[0], img.get(5, 20)[0]);
    }

    #[test]
    fn checker_alternates_cells() {
        let mut img = RgbImage::filled(8, 8, [100, 100, 100]);
        overlay_checker(&mut img, 4, 0.4);
        assert!(img.get(0, 0)[0] > img.get(4, 0)[0]);
        assert_eq!(img.get(0, 0)[0], img.get(4, 4)[0]);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_bounded() {
        let mut a = RgbImage::filled(16, 16, [128, 128, 128]);
        let mut b = RgbImage::filled(16, 16, [128, 128, 128]);
        add_pixel_noise(&mut a, 10.0, &mut StdRng::seed_from_u64(7));
        add_pixel_noise(&mut b, 10.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        for px in a.pixels() {
            for &c in px {
                assert!((118..=138).contains(&c));
            }
        }
    }

    #[test]
    fn zero_amplitude_noise_is_identity() {
        let mut img = RgbImage::filled(4, 4, [42, 42, 42]);
        add_pixel_noise(&mut img, 0.0, &mut StdRng::seed_from_u64(1));
        assert!(img.pixels().iter().all(|&p| p == [42, 42, 42]));
    }

    #[test]
    fn blobs_change_some_pixels() {
        let mut img = RgbImage::filled(32, 32, [120, 120, 120]);
        overlay_blobs(&mut img, 6, 0.5, &mut StdRng::seed_from_u64(3));
        let changed = img
            .pixels()
            .iter()
            .filter(|&&p| p != [120, 120, 120])
            .count();
        assert!(changed > 20, "expected blob coverage, changed={changed}");
    }
}
