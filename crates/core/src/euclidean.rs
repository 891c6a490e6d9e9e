//! Tests of [`crate::Scheme`] as the `Euclidean` reference
//! ([`crate::SchemeKind::Euclidean`]): the content distance order.

#[cfg(test)]
mod tests {
    use crate::{LrfConfig, QueryContext, Scheme, SchemeKind};
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
        let ranked = Scheme::new(SchemeKind::Euclidean, LrfConfig::default()).rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        assert_eq!(ranked[0], 5);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
        assert_eq!(
            Scheme::new(SchemeKind::Euclidean, LrfConfig::default())
                .kind()
                .name(),
            "Euclidean"
        );
    }
}
