//! Evaluation: precision curves, the paper's MAP, and the §6.4 protocol.
//!
//! "The performance metric used in the experiment is Average Precision,
//! which is defined as the number of relevant samples in the returned
//! images divided by the total number of returned images. For an objective
//! performance comparison, 200 queries are generated randomly. ... Based on
//! a query q and 20 labeled images, we try the three different relevance
//! feedback schemes."
//!
//! The tables report precision at top-{20, 30, ..., 100} plus a "MAP" row;
//! that row is the mean of the nine precision values (not TREC MAP), and
//! this module reproduces exactly that definition.

use crate::database::ImageDatabase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// The cutoffs of the paper's tables: top-20 … top-100 in steps of 10.
pub const CUTOFFS: [usize; 9] = [20, 30, 40, 50, 60, 70, 80, 90, 100];

/// Precision at cutoff `k`: fraction of the first `k` ranked ids accepted
/// by `is_relevant`.
///
/// # Panics
/// Panics if the ranking holds fewer than `k` items (an evaluation bug).
pub fn precision_at(ranked: &[usize], is_relevant: impl Fn(usize) -> bool, k: usize) -> f64 {
    assert!(
        ranked.len() >= k,
        "ranking has {} items, need {k}",
        ranked.len()
    );
    assert!(k > 0, "cutoff must be positive");
    let hits = ranked[..k].iter().filter(|&&id| is_relevant(id)).count();
    hits as f64 / k as f64
}

/// A precision curve over [`CUTOFFS`], averaged over queries.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PrecisionCurve {
    /// `values[i]` = mean precision at `CUTOFFS[i]`.
    pub values: Vec<f64>,
    /// Number of queries averaged.
    pub n_queries: usize,
}

impl PrecisionCurve {
    /// Accumulator over queries.
    pub fn new() -> Self {
        Self {
            values: vec![0.0; CUTOFFS.len()],
            n_queries: 0,
        }
    }

    /// Adds one query's ranking to the average.
    pub fn add(&mut self, ranked: &[usize], is_relevant: impl Fn(usize) -> bool) {
        for (slot, &k) in self.values.iter_mut().zip(CUTOFFS.iter()) {
            *slot += precision_at(ranked, &is_relevant, k);
        }
        self.n_queries += 1;
    }

    /// Finalizes the mean curve.
    pub fn finish(mut self) -> Self {
        if self.n_queries > 0 {
            for v in &mut self.values {
                *v /= self.n_queries as f64;
            }
        }
        self
    }

    /// Precision at a cutoff (`k` must be one of [`CUTOFFS`]).
    pub fn at(&self, k: usize) -> f64 {
        let idx = CUTOFFS
            .iter()
            .position(|&c| c == k)
            .expect("k must be one of CUTOFFS");
        self.values[idx]
    }

    /// The paper's "MAP": mean of the nine precision values.
    pub fn map(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// One evaluation query's feedback round: the judged top-20 of the initial
/// Euclidean retrieval, labeled automatically by ground truth (the paper
/// "simulate\[s\] the relevance judgements that would have been made by
/// users").
#[derive(Clone, Debug, PartialEq)]
pub struct FeedbackExample {
    /// The query image id.
    pub query: usize,
    /// `(image_id, ±1.0)` labeled pairs, in initial-rank order.
    pub labeled: Vec<(usize, f64)>,
}

/// The §6.4 protocol: deterministic random queries plus their auto-judged
/// initial screens.
#[derive(Clone, Copy, Debug)]
pub struct QueryProtocol {
    /// Number of random queries (the paper: 200).
    pub n_queries: usize,
    /// Images judged per feedback round (the paper: 20).
    pub n_labeled: usize,
    /// Seed for query sampling.
    pub seed: u64,
}

impl Default for QueryProtocol {
    fn default() -> Self {
        Self {
            n_queries: 200,
            n_labeled: 20,
            seed: 0x9e3779b9,
        }
    }
}

impl QueryProtocol {
    /// Draws the query ids (uniform over the database, deterministic).
    pub fn sample_queries(&self, db: &ImageDatabase) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.n_queries)
            .map(|_| rng.gen_range(0..db.len()))
            .collect()
    }

    /// Builds the feedback round for one query: Euclidean top-`n_labeled`,
    /// labeled by ground-truth category match, over the exact flat index.
    pub fn feedback_example(&self, db: &ImageDatabase, query: usize) -> FeedbackExample {
        let same = |id| {
            if db.same_category(id, query) {
                1.0
            } else {
                -1.0
            }
        };
        let labeled = crate::distance::top_k_euclidean(db, query, self.n_labeled)
            .into_iter()
            .map(|id| (id, same(id)))
            .collect();
        FeedbackExample { query, labeled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_line(n: usize) -> ImageDatabase {
        // n images on a line, two categories split down the middle.
        let feats = (0..n).map(|i| vec![i as f64]).collect();
        let cats = (0..n).map(|i| usize::from(i >= n / 2)).collect();
        ImageDatabase::from_features(feats, cats)
    }

    #[test]
    fn precision_at_counts_hits() {
        let ranked = vec![0, 1, 2, 3, 4];
        let p = precision_at(&ranked, |id| id % 2 == 0, 4);
        assert!((p - 0.5).abs() < 1e-12);
        let p1 = precision_at(&ranked, |id| id == 0, 1);
        assert_eq!(p1, 1.0);
    }

    #[test]
    #[should_panic(expected = "need 10")]
    fn precision_requires_enough_results() {
        let _ = precision_at(&[1, 2, 3], |_| true, 10);
    }

    #[test]
    fn curve_averages_queries() {
        let mut curve = PrecisionCurve::new();
        let ranked: Vec<usize> = (0..100).collect();
        curve.add(&ranked, |id| id < 20); // p@20 = 1.0, p@100 = 0.2
        curve.add(&ranked, |_| false); // all zeros
        let curve = curve.finish();
        assert_eq!(curve.n_queries, 2);
        assert!((curve.at(20) - 0.5).abs() < 1e-12);
        assert!((curve.at(100) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn map_is_mean_of_cutoffs() {
        let mut curve = PrecisionCurve::new();
        let ranked: Vec<usize> = (0..100).collect();
        curve.add(&ranked, |id| id < 50);
        let curve = curve.finish();
        let expected: f64 = CUTOFFS
            .iter()
            .map(|&k| (k.min(50) as f64) / k as f64)
            .sum::<f64>()
            / 9.0;
        assert!((curve.map() - expected).abs() < 1e-12);
    }

    #[test]
    fn protocol_queries_are_deterministic_and_in_range() {
        let db = db_line(50);
        let proto = QueryProtocol {
            n_queries: 30,
            n_labeled: 5,
            seed: 7,
        };
        let q1 = proto.sample_queries(&db);
        let q2 = proto.sample_queries(&db);
        assert_eq!(q1, q2);
        assert_eq!(q1.len(), 30);
        assert!(q1.iter().all(|&q| q < 50));
    }

    #[test]
    fn flat_index_feedback_examples_are_bit_identical() {
        // The acceptance bar for defaulting retrieval to the index: the
        // flat-backed protocol reproduces the direct-scan protocol exactly,
        // query for query.
        let db = db_line(40);
        let proto = QueryProtocol {
            n_queries: 10,
            n_labeled: 8,
            seed: 3,
        };
        for q in 0..db.len() {
            // Reference: the head of a sort-everything ranking.
            let ranked = crate::distance::oracle::rank_by_sorting(&db, db.feature(q));
            let label = |id| if db.same_category(id, q) { 1.0 } else { -1.0 };
            let direct = FeedbackExample {
                query: q,
                labeled: ranked[..proto.n_labeled]
                    .iter()
                    .map(|&id| (id, label(id)))
                    .collect(),
            };
            assert_eq!(proto.feedback_example(&db, q), direct, "query {q}");
        }
    }

    #[test]
    fn feedback_example_labels_by_category() {
        let db = db_line(20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 6,
            seed: 0,
        };
        let ex = proto.feedback_example(&db, 3);
        assert_eq!(ex.labeled.len(), 6);
        // query itself is first and labeled relevant
        assert_eq!(ex.labeled[0].0, 3);
        assert_eq!(ex.labeled[0].1, 1.0);
        for &(id, y) in &ex.labeled {
            assert_eq!(y, if db.same_category(id, 3) { 1.0 } else { -1.0 });
        }
    }

    #[test]
    fn feedback_example_near_boundary_mixes_labels() {
        let db = db_line(20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        // query at the category boundary sees both classes on its screen
        let ex = proto.feedback_example(&db, 9);
        let pos = ex.labeled.iter().filter(|&&(_, y)| y > 0.0).count();
        let neg = ex.labeled.len() - pos;
        assert!(pos > 0 && neg > 0, "pos={pos} neg={neg}");
    }
}
