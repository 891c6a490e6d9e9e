//! RGB ↔ HSV color-space conversion.
//!
//! The paper extracts color moments "in each color channel (H, S, and V)";
//! this module provides the conversion used by `lrf-features::color_moments`
//! and by the synthetic generator (which designs palettes in HSV).
//!
//! Conventions: all HSV components are normalized to `[0, 1]` — hue is the
//! usual angle divided by 360°. Using a unit-range hue keeps the three
//! channels commensurate for moment statistics.

/// A normalized HSV color; every component lies in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hsv {
    /// Hue as a fraction of the full circle (`0.0` = red, `1/3` = green, ...).
    pub h: f32,
    /// Saturation.
    pub s: f32,
    /// Value (brightness).
    pub v: f32,
}

impl Hsv {
    /// Constructs an HSV color, wrapping hue into `[0, 1)` and clamping
    /// saturation/value into `[0, 1]`.
    pub fn new(h: f32, s: f32, v: f32) -> Self {
        Self {
            h: h.rem_euclid(1.0),
            s: s.clamp(0.0, 1.0),
            v: v.clamp(0.0, 1.0),
        }
    }

    /// Converts to 8-bit RGB.
    pub fn to_rgb(self) -> [u8; 3] {
        hsv_to_rgb(self)
    }
}

/// Converts an 8-bit RGB pixel into normalized HSV.
///
/// For achromatic pixels (`max == min`) hue is defined as `0.0`.
pub fn rgb_to_hsv(rgb: [u8; 3]) -> Hsv {
    let r = f32::from(rgb[0]) / 255.0;
    let g = f32::from(rgb[1]) / 255.0;
    let b = f32::from(rgb[2]) / 255.0;
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let delta = max - min;

    let h = if delta <= f32::EPSILON {
        0.0
    } else if (max - r).abs() <= f32::EPSILON {
        (((g - b) / delta).rem_euclid(6.0)) / 6.0
    } else if (max - g).abs() <= f32::EPSILON {
        ((b - r) / delta + 2.0) / 6.0
    } else {
        ((r - g) / delta + 4.0) / 6.0
    };
    let s = if max <= f32::EPSILON {
        0.0
    } else {
        delta / max
    };
    Hsv { h, s, v: max }
}

/// Converts a normalized HSV color into 8-bit RGB.
fn hsv_to_rgb(hsv: Hsv) -> [u8; 3] {
    let h = hsv.h.rem_euclid(1.0) * 6.0;
    let s = hsv.s.clamp(0.0, 1.0);
    let v = hsv.v.clamp(0.0, 1.0);

    let sector = h.floor() as i32 % 6;
    let f = h - h.floor();
    let p = v * (1.0 - s);
    let q = v * (1.0 - s * f);
    let t = v * (1.0 - s * (1.0 - f));

    let (r, g, b) = match sector {
        0 => (v, t, p),
        1 => (q, v, p),
        2 => (p, v, t),
        3 => (p, q, v),
        4 => (t, p, v),
        _ => (v, p, q),
    };
    [
        (r * 255.0).round().clamp(0.0, 255.0) as u8,
        (g * 255.0).round().clamp(0.0, 255.0) as u8,
        (b * 255.0).round().clamp(0.0, 255.0) as u8,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primary_colors() {
        let red = rgb_to_hsv([255, 0, 0]);
        assert!((red.h - 0.0).abs() < 1e-6 && (red.s - 1.0).abs() < 1e-6);
        let green = rgb_to_hsv([0, 255, 0]);
        assert!((green.h - 1.0 / 3.0).abs() < 1e-3);
        let blue = rgb_to_hsv([0, 0, 255]);
        assert!((blue.h - 2.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn achromatic_pixels_have_zero_saturation() {
        for v in [0u8, 17, 128, 255] {
            let hsv = rgb_to_hsv([v, v, v]);
            assert_eq!(hsv.s, 0.0);
            assert_eq!(hsv.h, 0.0);
            assert!((hsv.v - f32::from(v) / 255.0).abs() < 1e-6);
        }
    }

    #[test]
    fn hsv_new_wraps_and_clamps() {
        let c = Hsv::new(1.25, 1.5, -0.2);
        assert!((c.h - 0.25).abs() < 1e-6);
        assert_eq!(c.s, 1.0);
        assert_eq!(c.v, 0.0);
        let d = Hsv::new(-0.25, 0.5, 0.5);
        assert!((d.h - 0.75).abs() < 1e-6);
    }

    #[test]
    fn known_conversion_orange() {
        // 30° orange, fully saturated.
        let rgb = hsv_to_rgb(Hsv {
            h: 30.0 / 360.0,
            s: 1.0,
            v: 1.0,
        });
        assert_eq!(rgb, [255, 128, 0]);
    }

    proptest! {
        /// RGB → HSV → RGB must round-trip within quantization error.
        #[test]
        fn roundtrip_rgb_hsv_rgb(r in 0u8..=255, g in 0u8..=255, b in 0u8..=255) {
            let back = hsv_to_rgb(rgb_to_hsv([r, g, b]));
            prop_assert!((i16::from(back[0]) - i16::from(r)).abs() <= 1);
            prop_assert!((i16::from(back[1]) - i16::from(g)).abs() <= 1);
            prop_assert!((i16::from(back[2]) - i16::from(b)).abs() <= 1);
        }

        /// Conversion output always stays inside the normalized ranges.
        #[test]
        fn hsv_components_normalized(r in 0u8..=255, g in 0u8..=255, b in 0u8..=255) {
            let hsv = rgb_to_hsv([r, g, b]);
            prop_assert!((0.0..=1.0).contains(&hsv.h));
            prop_assert!((0.0..=1.0).contains(&hsv.s));
            prop_assert!((0.0..=1.0).contains(&hsv.v));
        }

        /// Value equals the max RGB channel (definition of V).
        #[test]
        fn value_is_max_channel(r in 0u8..=255, g in 0u8..=255, b in 0u8..=255) {
            let hsv = rgb_to_hsv([r, g, b]);
            let max = r.max(g).max(b);
            prop_assert!((hsv.v - f32::from(max) / 255.0).abs() < 1e-6);
        }
    }
}
