//! End-to-end pipeline integration: synthetic corpus → features → database
//! → feedback log → every retrieval scheme, crossing all seven crates.

use corelog::cbir::{CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::{collect_feedback_log, LrfConfig, QueryContext, Scheme, SchemeKind};
use corelog::storage::{StdIo, WalOptions};
use lrf_logdb::{SharedLogStore, SimulationConfig};

fn build() -> (CorelDataset, lrf_logdb::LogStore, LrfConfig) {
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 5,
        per_category: 24,
        image_size: 32,
        seed: 404,
    });
    let lrf = LrfConfig {
        n_unlabeled: 8,
        ..LrfConfig::default()
    };
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 30,
            judged_per_session: 10,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 7,
        },
        &lrf,
    );
    (ds, log, lrf)
}

#[test]
fn every_scheme_returns_a_full_permutation_for_every_query() {
    let (ds, log, lrf) = build();
    let schemes = SchemeKind::all().map(|kind| Scheme::new(kind, lrf));
    let protocol = QueryProtocol {
        n_queries: 5,
        n_labeled: 10,
        seed: 1,
    };
    let expected: Vec<usize> = (0..ds.db.len()).collect();
    for &q in &protocol.sample_queries(&ds.db) {
        let example = protocol.feedback_example(&ds.db, q);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        for scheme in &schemes {
            let mut ranked = scheme.rank(&ctx);
            ranked.sort_unstable();
            assert_eq!(
                ranked,
                expected,
                "{} broke the permutation",
                scheme.kind().name()
            );
        }
    }
}

#[test]
fn learning_schemes_beat_chance_decisively() {
    let (ds, log, lrf) = build();
    let protocol = QueryProtocol {
        n_queries: 10,
        n_labeled: 10,
        seed: 5,
    };
    let chance = 1.0 / ds.db.n_categories() as f64;
    for scheme in [
        Scheme::new(SchemeKind::RfSvm, lrf),
        Scheme::new(SchemeKind::Lrf2Svms, lrf),
        Scheme::new(SchemeKind::LrfCsvm, lrf),
    ] {
        let mut total = 0.0;
        let queries = protocol.sample_queries(&ds.db);
        for &q in &queries {
            let example = protocol.feedback_example(&ds.db, q);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let ranked = scheme.rank(&ctx);
            total += ranked[..10]
                .iter()
                .filter(|&&id| ds.db.same_category(id, q))
                .count() as f64
                / 10.0;
        }
        let mean = total / queries.len() as f64;
        assert!(
            mean > chance * 1.8,
            "{} precision {mean:.3} vs chance {chance:.3}",
            scheme.kind().name()
        );
    }
}

#[test]
fn full_stack_is_deterministic_across_rebuilds() {
    let (ds1, log1, lrf) = build();
    let (ds2, log2, _) = build();
    assert_eq!(ds1.db, ds2.db, "dataset build must be deterministic");
    assert_eq!(log1, log2, "log collection must be deterministic");

    let protocol = QueryProtocol {
        n_queries: 1,
        n_labeled: 10,
        seed: 9,
    };
    let q = protocol.sample_queries(&ds1.db)[0];
    let example = protocol.feedback_example(&ds1.db, q);
    let scheme = Scheme::new(SchemeKind::LrfCsvm, lrf);
    let a = scheme.rank(&QueryContext {
        db: &ds1.db,
        log: &log1,
        example: &example,
    });
    let b = scheme.rank(&QueryContext {
        db: &ds2.db,
        log: &log2,
        example: &example,
    });
    assert_eq!(a, b, "LRF-CSVM ranking must be deterministic");
}

#[test]
fn log_store_persistence_round_trips_through_disk() {
    // The log's WAL directory is its on-disk form: an empty one seeded
    // with the log holds it as a snapshot, and reopening recovers it.
    let (ds, log, _lrf) = build();
    let dir = std::env::temp_dir().join("corelog_e2e_persist");
    let _ = std::fs::remove_dir_all(&dir);
    let (_, seeded) =
        SharedLogStore::open_with_seed(StdIo::handle(), &dir, log.clone(), WalOptions::default())
            .unwrap();
    assert!(seeded.seeded);
    let (back, recovery) =
        SharedLogStore::open(StdIo::handle(), &dir, ds.db.len(), WalOptions::default()).unwrap();
    assert_eq!(recovery.recovered_sessions, log.n_sessions() as u64);
    assert_eq!(*back.snapshot(), log);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn facade_reexports_are_usable() {
    // The root crate exposes every subsystem; a downstream user can reach
    // the imaging substrate through it.
    let img = corelog::imaging::SyntheticGenerator::new(2, 16, 16, 1).generate(0, 0);
    let gray = img.to_gray();
    let edges = corelog::imaging::canny(&gray, corelog::imaging::CannyParams::default());
    assert_eq!(edges.width(), 16);
    let kernel = corelog::svm::RbfKernel::new(0.5);
    let k = corelog::svm::Kernel::compute(&kernel, &[0.0], &[0.0]);
    assert!((k - 1.0).abs() < 1e-12);
}
