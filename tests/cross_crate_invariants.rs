//! Property-based invariants that span crate boundaries: the coupled
//! trainer over realistic (database + log) inputs, scheme determinism, and
//! solver feasibility on real feature vectors.

use corelog::cbir::{CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::{
    collect_feedback_log, train_coupled, CoupledConfig, LogRbfKernel, LrfConfig, LrfCsvm,
    QueryContext, RelevanceFeedback,
};
use lrf_logdb::SimulationConfig;
use lrf_svm::{KernelCache, RbfKernel};
use proptest::prelude::*;

/// One shared fixture (building datasets inside proptest cases would be
/// prohibitively slow); the properties randomize over queries and
/// algorithm parameters instead.
fn fixture() -> (CorelDataset, lrf_logdb::LogStore) {
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 4,
        per_category: 20,
        image_size: 32,
        seed: 99,
    });
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 24,
            judged_per_session: 8,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 3,
        },
        &LrfConfig::default(),
    );
    (ds, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The coupled trainer, fed real features and real log vectors with a
    /// randomized feedback round, always (a) terminates, (b) keeps dual
    /// feasibility on both modalities, and (c) returns pseudo-labels in
    /// {±1}.
    #[test]
    fn coupled_training_feasible_on_real_data(
        query in 0usize..80,
        n_pool in 2usize..10,
        rho in 0.01f64..0.5,
        delta in 0.1f64..3.0,
    ) {
        let (ds, log) = fixture();
        let protocol = QueryProtocol { n_queries: 1, n_labeled: 8, seed: 0 };
        let example = protocol.feedback_example(&ds.db, query);

        // Borrowed row views straight out of the database/log — the
        // zero-copy shape every production scheme now feeds the trainer.
        let labeled_x: Vec<&[f64]> =
            example.labeled.iter().map(|&(id, _)| ds.db.feature(id)).collect();
        let labeled_r: Vec<_> =
            example.labeled.iter().map(|&(id, _)| log.log_vector(id)).collect();
        let y: Vec<f64> = example.labeled.iter().map(|&(_, l)| l).collect();
        // Pool: the first n_pool images not in the labeled set.
        let in_labeled: std::collections::HashSet<usize> =
            example.labeled.iter().map(|&(id, _)| id).collect();
        let pool: Vec<usize> =
            (0..ds.db.len()).filter(|id| !in_labeled.contains(id)).take(n_pool).collect();
        let unl_x: Vec<&[f64]> = pool.iter().map(|&id| ds.db.feature(id)).collect();
        let unl_r: Vec<_> = pool.iter().map(|&id| log.log_vector(id)).collect();
        let y_init: Vec<f64> =
            (0..pool.len()).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();

        let cfg = CoupledConfig { rho, rho_init: (rho / 16.0).max(1e-4), delta, ..Default::default() };
        let content = KernelCache::new(RbfKernel::new(1.0), [labeled_x, unl_x].concat());
        let logside = KernelCache::new(LogRbfKernel::new(0.1), [labeled_r, unl_r].concat());
        let out = train_coupled(content, logside, &y, &y_init, &cfg)
            .expect("coupled training failed");

        // Dual feasibility, content side: Σ α_i y_i = 0 within tolerance.
        let all_labels: Vec<f64> =
            y.iter().chain(&out.report.final_labels).copied().collect();
        let balance: f64 = out.content.alpha.iter().zip(&all_labels).map(|(a, l)| a * l).sum();
        prop_assert!(balance.abs() < 1e-6, "content dual balance {balance}");
        let balance_log: f64 = out.log.alpha.iter().zip(&all_labels).map(|(a, l)| a * l).sum();
        prop_assert!(balance_log.abs() < 1e-6, "log dual balance {balance_log}");

        // Pseudo-labels stay in {±1}.
        prop_assert!(out.report.final_labels.iter().all(|&l| l == 1.0 || l == -1.0));
        // Report is internally consistent.
        prop_assert!(out.report.retrains >= out.report.rho_steps);
    }

    /// LRF-CSVM produces a permutation for arbitrary queries and pool
    /// sizes, and repeated runs agree exactly.
    #[test]
    fn lrf_csvm_permutation_and_determinism(
        query in 0usize..80,
        n_unlabeled in 2usize..12,
    ) {
        let (ds, log) = fixture();
        let protocol = QueryProtocol { n_queries: 1, n_labeled: 8, seed: 0 };
        let example = protocol.feedback_example(&ds.db, query);
        let ctx = QueryContext { db: &ds.db, log: &log, example: &example };
        let scheme = LrfCsvm::new(LrfConfig { n_unlabeled, ..LrfConfig::default() });
        let a = scheme.rank(&ctx);
        let b = scheme.rank(&ctx);
        prop_assert_eq!(&a, &b);
        let mut sorted = a;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
    }
}

#[test]
fn coupled_training_survives_hostile_log_noise() {
    // Failure injection: a log collected at 50% noise is close to garbage;
    // training must stay total and ranking valid.
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 3,
        per_category: 15,
        image_size: 32,
        seed: 1,
    });
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 20,
            judged_per_session: 8,
            rounds_per_query: 2,
            noise: 0.5,
            seed: 8,
        },
        &LrfConfig::default(),
    );
    let protocol = QueryProtocol {
        n_queries: 3,
        n_labeled: 8,
        seed: 4,
    };
    let scheme = LrfCsvm::new(LrfConfig {
        n_unlabeled: 6,
        ..LrfConfig::default()
    });
    for &q in &protocol.sample_queries(&ds.db) {
        let example = protocol.feedback_example(&ds.db, q);
        let ranked = corelog::core::RelevanceFeedback::rank(
            &scheme,
            &QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            },
        );
        assert_eq!(ranked.len(), ds.db.len());
    }
}
