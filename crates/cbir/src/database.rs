//! The image database: features + ground-truth categories.

use lrf_features::{extract_all, Normalizer};
use lrf_imaging::RgbImage;
use std::sync::Arc;

/// A retrieval database: one normalized feature vector and one ground-truth
/// category per image. Categories exist for *automatic evaluation* (the
/// paper: "the approach can help us evaluate the performance automatically")
/// — retrieval itself never reads them.
///
/// Features live in **one contiguous row-major `N × dim` matrix** behind an
/// [`Arc`]: per-image access is a borrowed `&[f64]` row view
/// ([`Self::feature`]), and the index and its shards share the same allocation
/// ([`Self::features_shared`]) instead of copying it — so at any scale the
/// collection's features exist exactly once in memory.
///
/// A database is rebuilt from features, never persisted.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageDatabase {
    /// The shared row-major feature matrix.
    flat: Arc<Vec<f64>>,
    dim: usize,
    categories: Vec<usize>,
    n_categories: usize,
}

impl ImageDatabase {
    /// Builds a database from pre-extracted raw features; fits a Gaussian
    /// 3σ normalizer on the whole collection and stores normalized vectors,
    /// as the era's CBIR systems did. The nested input rows are consumed
    /// and flattened — after construction only the flat matrix exists.
    ///
    /// # Panics
    /// Panics if inputs are empty or of mismatched length.
    pub fn from_features(mut features: Vec<Vec<f64>>, categories: Vec<usize>) -> Self {
        assert!(!features.is_empty(), "database cannot be empty");
        assert_eq!(
            features.len(),
            categories.len(),
            "features/categories mismatch"
        );
        let normalizer = Normalizer::fit(&features);
        normalizer.apply_all(&mut features);
        let n_categories = categories.iter().copied().max().unwrap_or(0) + 1;
        let dim = features[0].len();
        assert!(
            features.iter().all(|f| f.len() == dim),
            "all feature vectors must share one dimension"
        );
        let flat: Vec<f64> = features.into_iter().flatten().collect();
        Self {
            flat: Arc::new(flat),
            dim,
            categories,
            n_categories,
        }
    }

    /// Extracts features from images (multi-threaded) and builds the
    /// database.
    pub(crate) fn from_images(images: &[RgbImage], categories: Vec<usize>) -> Self {
        assert_eq!(images.len(), categories.len(), "images/categories mismatch");
        let features = extract_parallel(images);
        Self::from_features(features, categories)
    }

    /// Number of images `N`.
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// `true` when the database holds no images (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// Number of distinct categories.
    pub fn n_categories(&self) -> usize {
        self.n_categories
    }

    /// The normalized feature vector of image `i` — a borrowed row view of
    /// the flat matrix (no per-vector allocation behind it).
    pub fn feature(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dim..(i + 1) * self.dim]
    }

    /// Feature dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The contiguous row-major `N × dim` feature matrix — the input the
    /// index scan consumes.
    pub fn features_flat(&self) -> &[f64] {
        &self.flat
    }

    /// A shared handle to the feature matrix. Indexes and shards hold this
    /// instead of copying the data, keeping peak feature storage at one
    /// copy regardless of how many indexes serve the collection.
    pub fn features_shared(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.flat)
    }

    /// Ground-truth category of image `i`.
    pub fn category(&self, i: usize) -> usize {
        self.categories[i]
    }

    /// All ground-truth categories, indexed by image id.
    pub fn categories(&self) -> &[usize] {
        &self.categories
    }

    /// Whether two images share a category (the automatic relevance
    /// judgment of §6.1: same semantic category ⇔ relevant).
    pub fn same_category(&self, a: usize, b: usize) -> bool {
        self.categories[a] == self.categories[b]
    }
}

/// Chunked multi-threaded feature extraction (std scoped threads — feature
/// extraction is embarrassingly parallel and dominates dataset build time).
fn extract_parallel(images: &[RgbImage]) -> Vec<Vec<f64>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads <= 1 || images.len() < 32 {
        return extract_all(images);
    }
    let chunk = images.len().div_ceil(threads);
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(images.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = images
            .chunks(chunk)
            .map(|part| scope.spawn(move || extract_all(part)))
            .collect();
        for h in handles {
            out.extend(h.join().expect("feature extraction thread panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_imaging::SyntheticGenerator;

    impl ImageDatabase {
        /// Iterates the normalized feature rows in image-id order.
        fn rows(&self) -> impl Iterator<Item = &[f64]> {
            self.flat.chunks_exact(self.dim)
        }
    }

    fn tiny_db() -> ImageDatabase {
        let gen = SyntheticGenerator::new(3, 32, 32, 21);
        let mut images = Vec::new();
        let mut cats = Vec::new();
        for c in 0..3 {
            for i in 0..4 {
                images.push(gen.generate(c, i));
                cats.push(c);
            }
        }
        ImageDatabase::from_images(&images, cats)
    }

    #[test]
    fn database_shape() {
        let db = tiny_db();
        assert_eq!(db.len(), 12);
        assert_eq!(db.n_categories(), 3);
        assert_eq!(db.feature(0).len(), lrf_features::TOTAL_DIMS);
        assert_eq!(db.category(5), 1);
        assert!(db.same_category(0, 3));
        assert!(!db.same_category(0, 4));
    }

    #[test]
    fn flat_matrix_mirrors_row_features() {
        let db = tiny_db();
        assert_eq!(db.dim(), lrf_features::TOTAL_DIMS);
        assert_eq!(db.features_flat().len(), db.len() * db.dim());
        for (i, row) in db.rows().enumerate() {
            assert_eq!(db.feature(i), row);
        }
    }

    #[test]
    fn shared_matrix_is_the_same_allocation() {
        let db = tiny_db();
        let a = db.features_shared();
        let b = db.features_shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_slice(), db.features_flat());
        // Cloning the database clones the handle, not the matrix.
        let copy = db.clone();
        assert!(Arc::ptr_eq(&a, &copy.features_shared()));
    }

    #[test]
    fn features_are_normalized_into_unit_box() {
        let db = tiny_db();
        for f in db.rows() {
            for &v in f {
                assert!((-1.0..=1.0).contains(&v), "unnormalized value {v}");
            }
        }
    }

    #[test]
    fn parallel_extraction_matches_serial() {
        let gen = SyntheticGenerator::new(2, 32, 32, 4);
        let images: Vec<_> = (0..40).map(|i| gen.generate(i % 2, i / 2)).collect();
        let parallel = extract_parallel(&images);
        let serial = extract_all(&images);
        assert_eq!(parallel, serial);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_database_rejected() {
        let _ = ImageDatabase::from_features(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = ImageDatabase::from_features(vec![vec![0.0]], vec![0, 1]);
    }

    #[test]
    fn from_features_normalizes() {
        let feats = vec![vec![0.0, 100.0], vec![10.0, 200.0], vec![20.0, 300.0]];
        let db = ImageDatabase::from_features(feats, vec![0, 0, 1]);
        // Mean of each dim is 0 after normalization.
        for d in 0..2 {
            let m: f64 = db.rows().map(|f| f[d]).sum::<f64>() / 3.0;
            assert!(m.abs() < 1e-12);
        }
    }
}
