//! # lrf-imaging — image substrate for the LRF-CSVM reproduction
//!
//! The paper (Hoi, Lyu & Jin, ICDE 2005) evaluates on images from the COREL
//! CDs and extracts three low-level features: HSV color moments, a Canny
//! edge-direction histogram, and Daubechies-4 wavelet texture entropy. This
//! crate provides everything below the feature extractors:
//!
//! * [`RgbImage`] / [`GrayImage`] — owned raster types.
//! * [`color`] — RGB ↔ HSV conversion.
//! * [`SyntheticGenerator`] / [`SyntheticCorpus`] — a seeded,
//!   category-parameterized image generator that stands in for the COREL
//!   collection (the crate-private `synthetic` module's docs say why the
//!   substitution preserves the relevant behaviour), over the crate-private
//!   `draw` module's shape/gradient/noise rendering primitives.
//! * [`mod@canny`] — a full Canny edge detector (blur → gradient → non-maximum
//!   suppression → double-threshold hysteresis), over the crate-private
//!   `convolve` module (separable convolution, Gaussian blur, Sobel).
//! * [`wavelet`] — multi-level 2-D Daubechies-4 discrete wavelet transform,
//!   used by the texture features; the inverse transform lives with the
//!   test suite, which holds the forward one to perfect reconstruction and
//!   energy preservation.
//!
//! Everything is deterministic: any randomness flows through caller-provided
//! [`rand::Rng`] instances.

pub mod canny;
pub mod color;
mod convolve;
mod draw;
mod image;
mod synthetic;
pub mod wavelet;

pub use crate::image::{GrayImage, RgbImage};
pub use canny::{canny, CannyParams, EdgeMap};
pub use color::{rgb_to_hsv, Hsv};
pub use synthetic::{SyntheticCorpus, SyntheticGenerator};
