//! # lrf-imaging — image substrate for the LRF-CSVM reproduction
//!
//! The paper (Hoi, Lyu & Jin, ICDE 2005) evaluates on images from the COREL
//! CDs and extracts three low-level features: HSV color moments, a Canny
//! edge-direction histogram, and Daubechies-4 wavelet texture entropy. This
//! crate provides everything below the feature extractors:
//!
//! * [`RgbImage`] / [`GrayImage`] — owned raster types.
//! * [`color`] — RGB ↔ HSV conversion.
//! * [`draw`] — shape/gradient/noise rendering primitives.
//! * [`synthetic`] — a seeded, category-parameterized image generator that
//!   stands in for the COREL collection (its module docs say why the
//!   substitution preserves the relevant behaviour).
//! * [`convolve`] — separable convolution, Gaussian blur, Sobel gradients.
//! * [`mod@canny`] — a full Canny edge detector (blur → gradient → non-maximum
//!   suppression → double-threshold hysteresis).
//! * [`wavelet`] — 1-D/2-D Daubechies-4 discrete wavelet transform with
//!   inverse, used both by texture features and by the test suite (perfect
//!   reconstruction / energy-preservation invariants).
//!
//! Everything is deterministic: any randomness flows through caller-provided
//! [`rand::Rng`] instances.

pub mod canny;
pub mod color;
pub mod convolve;
pub mod draw;
pub mod image;
pub mod synthetic;
pub mod wavelet;

pub use crate::image::{GrayImage, RgbImage};
pub use canny::{canny, CannyParams, EdgeMap};
pub use color::{hsv_to_rgb, rgb_to_hsv, Hsv};
pub use synthetic::{CategoryStyle, SyntheticCorpus, SyntheticGenerator, TextureMotif};
