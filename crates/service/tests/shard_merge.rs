//! Property test for the serving tier's scatter-gather contract: the
//! sharded engine's k-way merged ranking is **bit-identical** to the
//! single-shard flat reference — for shard counts 1, 2, and 5, at every
//! `k`, including duplicate-distance tie-breaks.
//!
//! Features are drawn from a 3-letter alphabet so duplicate rows (and
//! therefore exactly-equal distances) are common; the merge must resolve
//! those ties by image id exactly as the flat scan does, or rankings
//! diverge between deployments that differ only in shard topology.

use lrf_cbir::{build_flat_index, ImageDatabase};
use lrf_index::AnnIndex;
use lrf_obs::Registry;
use lrf_service::ShardedEngine;
use lrf_sync::Arc;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_ranking_bit_identical_to_flat(
        // 4-dim rows over {0.0, 0.5, 1.0}: collisions guaranteed.
        levels in proptest::collection::vec(0usize..3, 4 * 17),
        k in 1usize..24,
        qpick in 0usize..17,
    ) {
        let dim = 4;
        let features: Vec<Vec<f64>> = levels
            .chunks(dim)
            .map(|row| row.iter().map(|&v| v as f64 * 0.5).collect())
            .collect();
        let n = features.len();
        let categories = (0..n).map(|i| i % 3).collect();
        let db = Arc::new(ImageDatabase::from_features(features, categories));
        let query = db.feature(qpick % n).to_vec();

        let flat = build_flat_index(&db);
        let expected = flat.search(&query, k);
        prop_assert_eq!(expected.len(), k.min(n));

        for n_shards in [1usize, 2, 5] {
            let engine =
                ShardedEngine::new(Arc::clone(&db), n_shards, &Registry::new(), None);
            let merged = engine.search_with_stats(&query, k).0;
            prop_assert_eq!(
                &merged, &expected,
                "merged ranking diverged from flat reference at {} shards", n_shards
            );
        }
    }
}
