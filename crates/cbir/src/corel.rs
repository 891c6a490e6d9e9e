//! Synthetic COREL dataset builders.
//!
//! "There are two sets of data collected in our experiment: 20-Category and
//! 50-Category. ... Each category in the datasets consists exactly 100
//! images selected from the COREL image CDs." These builders produce the
//! synthetic equivalents (`lrf-imaging`'s synthetic module documents what
//! the generator preserves; `reproduce calibrate` measures it).

use crate::database::ImageDatabase;
use lrf_imaging::{SyntheticCorpus, SyntheticGenerator};

/// Specification of a synthetic COREL-like dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct CorelSpec {
    /// Number of semantic categories (paper: 20 or 50).
    pub n_categories: usize,
    /// Images per category (paper: exactly 100).
    pub per_category: usize,
    /// Rendered image edge length in pixels. Must be a multiple of 8 (for
    /// the 3-level DWT) and at least 16.
    pub image_size: usize,
    /// Master seed for styles and images.
    pub seed: u64,
}

impl CorelSpec {
    /// The paper's 20-Category dataset (20 × 100 images).
    pub fn twenty_category(seed: u64) -> Self {
        Self {
            n_categories: 20,
            per_category: 100,
            image_size: 64,
            seed,
        }
    }

    /// The paper's 50-Category dataset (50 × 100 images).
    pub fn fifty_category(seed: u64) -> Self {
        Self {
            n_categories: 50,
            ..Self::twenty_category(seed)
        }
    }

    /// A reduced spec for fast tests: fewer categories/images, small canvas.
    pub fn tiny(n_categories: usize, per_category: usize, seed: u64) -> Self {
        Self {
            n_categories,
            per_category,
            image_size: 32,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.n_categories > 0, "need at least one category");
        assert!(
            self.per_category > 0,
            "need at least one image per category"
        );
        assert!(
            self.image_size >= 16 && self.image_size.is_multiple_of(8),
            "image_size must be a multiple of 8 and >= 16 (3-level DWT), got {}",
            self.image_size
        );
    }
}

/// A built dataset: the database plus the generator that can re-render any
/// image on demand (e.g. to dump sample PPMs).
#[derive(Clone, Debug)]
pub struct CorelDataset {
    /// The retrieval database (features + categories).
    pub db: ImageDatabase,
    /// The generator (kept for re-rendering; images are not stored).
    pub generator: SyntheticGenerator,
    /// The spec the dataset was built from.
    pub spec: CorelSpec,
}

impl CorelDataset {
    /// Renders the corpus, extracts features, and assembles the database.
    ///
    /// Cost scales with `n_categories × per_category` Canny+DWT runs; the
    /// full 50×100 dataset takes a few seconds in release mode.
    pub fn build(spec: CorelSpec) -> Self {
        spec.validate();
        let generator = SyntheticGenerator::new(
            spec.n_categories,
            spec.image_size,
            spec.image_size,
            spec.seed,
        );
        let corpus = SyntheticCorpus::generate(&generator, spec.per_category);
        let db = ImageDatabase::from_images(&corpus.images, corpus.labels);
        Self {
            db,
            generator,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::top_k_euclidean;
    use crate::eval::precision_at;

    #[test]
    fn build_tiny_dataset() {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 6, 77));
        assert_eq!(ds.db.len(), 24);
        assert_eq!(ds.db.n_categories(), 4);
        assert_eq!(ds.db.category(7), 1);
    }

    #[test]
    fn build_is_deterministic() {
        let a = CorelDataset::build(CorelSpec::tiny(3, 4, 5));
        let b = CorelDataset::build(CorelSpec::tiny(3, 4, 5));
        assert_eq!(a.db, b.db);
    }

    #[test]
    fn euclidean_retrieval_beats_chance_on_tiny_corpus() {
        // The semantic gap must exist but features must carry signal:
        // nearest-neighbor precision well above chance, well below 1.
        let ds = CorelDataset::build(CorelSpec::tiny(5, 12, 99));
        let db = &ds.db;
        let k = 10;
        let mut total = 0.0;
        for q in 0..db.len() {
            let ranked = top_k_euclidean(db, q, k);
            total += precision_at(&ranked, |id| db.same_category(id, q), k);
        }
        let mean_p = total / db.len() as f64;
        let chance = 1.0 / 5.0;
        assert!(
            mean_p > chance * 1.5,
            "precision {mean_p} not above chance {chance}"
        );
        assert!(
            mean_p < 0.999,
            "corpus must not be trivially separable, got {mean_p}"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn invalid_image_size_rejected() {
        let _ = CorelDataset::build(CorelSpec {
            image_size: 30,
            ..CorelSpec::tiny(2, 2, 0)
        });
    }

    #[test]
    fn named_specs_match_paper() {
        let s20 = CorelSpec::twenty_category(1);
        assert_eq!((s20.n_categories, s20.per_category), (20, 100));
        let s50 = CorelSpec::fifty_category(1);
        assert_eq!((s50.n_categories, s50.per_category), (50, 100));
    }
}
