//! # lrf-features — low-level visual feature extraction
//!
//! Implements §6.2 of the paper ("Image Representation"): three descriptors
//! concatenated into a 36-dimensional feature vector per image.
//!
//! | Descriptor | Dim | Module |
//! |---|---|---|
//! | HSV color moments (mean, std, skewness per channel) | 9 | `color_moments` |
//! | Canny edge-direction histogram (18 bins × 20°) | 18 | `edge_histogram` |
//! | Daubechies-4 wavelet entropy (3 levels × 3 orientations) | 9 | `texture` |
//!
//! [`extract_all`] runs the full pipeline;
//! [`normalize::Normalizer`] applies the classical Gaussian (3σ)
//! normalization across a database so no descriptor dominates Euclidean
//! distances or the RBF kernel.

mod color_moments;
mod edge_histogram;
mod extractor;
mod normalize;
mod texture;

pub use extractor::{extract_all, TOTAL_DIMS};
pub use normalize::Normalizer;
