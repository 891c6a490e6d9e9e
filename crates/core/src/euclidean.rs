//! The `Euclidean` reference scheme.
//!
//! No learning: rank by ascending Euclidean distance to the query's feature
//! vector. This is the paper's reference curve and also what produced the
//! initial screen the user judged.

use crate::feedback::{QueryContext, RelevanceFeedback, ScorerRef, WarmState};
use lrf_cbir::rank_by_euclidean;

/// Plain content-distance ranking.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EuclideanScheme;

impl RelevanceFeedback for EuclideanScheme {
    fn name(&self) -> &'static str {
        "Euclidean"
    }

    /// Nothing to train: a candidate pool keeps its (distance) order.
    fn fit_warm(
        &self,
        _ctx: &QueryContext<'_>,
        _pool: &[usize],
        _warm: &mut WarmState,
    ) -> Option<ScorerRef> {
        None
    }

    /// The one `rank` override: with nothing fitted, the provided method
    /// would return id order; the scheme's ranking is the distance order.
    fn rank(&self, ctx: &QueryContext<'_>) -> Vec<usize> {
        rank_by_euclidean(ctx.db, ctx.db.feature(ctx.example.query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::{collect_log, CorelDataset, CorelSpec, QueryProtocol};
    use lrf_logdb::SimulationConfig;

    #[test]
    fn ranks_query_first_and_is_a_permutation() {
        let ds = CorelDataset::build(CorelSpec::tiny(3, 6, 42));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: 4,
                judged_per_session: 4,
                rounds_per_query: 1,
                noise: 0.0,
                seed: 1,
            },
        );
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 4,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 5);
        let ranked = EuclideanScheme.rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        assert_eq!(ranked[0], 5);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
        assert_eq!(EuclideanScheme.name(), "Euclidean");
    }
}
