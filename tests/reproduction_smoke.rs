//! Reproduction smoke test: a scaled-down §6.4 evaluation must reproduce
//! the paper's qualitative ordering. This is the repository's contract:
//! if a refactor breaks the science, this test goes red.

use corelog::cbir::{CorelDataset, CorelSpec, PrecisionCurve, QueryProtocol};
use corelog::core::{collect_feedback_log, LrfConfig, QueryContext, Scheme, SchemeKind};
use lrf_logdb::SimulationConfig;

/// Runs a reduced experiment (10 categories × 30, 25 queries) and returns
/// the per-scheme curves in [Euclidean, RF-SVM, LRF-2SVMs, LRF-CSVM] order.
fn run_reduced(seed: u64) -> Vec<PrecisionCurve> {
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 10,
        per_category: 30,
        image_size: 64,
        seed,
    });
    let lrf = LrfConfig::default();
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 60,
            judged_per_session: 15,
            rounds_per_query: 3,
            noise: 0.1,
            seed: seed ^ 0xa5,
        },
        &lrf,
    );
    let protocol = QueryProtocol {
        n_queries: 25,
        n_labeled: 15,
        seed: seed ^ 0x5a,
    };
    let schemes = SchemeKind::all().map(|kind| Scheme::new(kind, lrf));
    let mut curves: Vec<PrecisionCurve> = schemes.iter().map(|_| PrecisionCurve::new()).collect();
    for &q in &protocol.sample_queries(&ds.db) {
        let example = protocol.feedback_example(&ds.db, q);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        for (scheme, curve) in schemes.iter().zip(&mut curves) {
            let ranked = scheme.rank(&ctx);
            curve.add(&ranked, |id| ds.db.same_category(id, q));
        }
    }
    curves.into_iter().map(|c| c.finish()).collect()
}

#[test]
fn paper_ordering_holds_at_reduced_scale() {
    let curves = run_reduced(2024);
    let (eu, rf, two, csvm) = (&curves[0], &curves[1], &curves[2], &curves[3]);

    // The semantic gap exists: Euclidean is far from perfect but above chance.
    assert!(
        eu.at(20) > 0.15 && eu.at(20) < 0.8,
        "Euclidean P@20 = {}",
        eu.at(20)
    );

    // Relevance feedback beats plain distance (paper's premise).
    assert!(
        rf.map() > eu.map() * 1.05,
        "RF-SVM MAP {} should beat Euclidean {}",
        rf.map(),
        eu.map()
    );

    // Log-based feedback beats content-only feedback at the headline cutoff
    // (paper's first empirical question, §6).
    assert!(
        two.at(20) > rf.at(20),
        "LRF-2SVMs P@20 {} should beat RF-SVM {}",
        two.at(20),
        rf.at(20)
    );

    // The coupled scheme stays competitive with the simple combination
    // (our reproduction finds parity, not the paper's further gain; the
    // contract here is "no collapse").
    assert!(
        csvm.at(20) > rf.at(20) * 0.97,
        "LRF-CSVM P@20 {} collapsed below RF-SVM {}",
        csvm.at(20),
        rf.at(20)
    );
    assert!(
        csvm.map() > two.map() * 0.93,
        "LRF-CSVM MAP {} collapsed below LRF-2SVMs {}",
        csvm.map(),
        two.map()
    );
}

#[test]
fn precision_decays_with_cutoff_for_all_schemes() {
    // Average precision must be non-increasing in k in aggregate (each
    // category has only 30 relevant images in this corpus).
    let curves = run_reduced(7);
    for curve in &curves {
        assert!(
            curve.at(20) > curve.at(100),
            "precision should decay: P@20 {} vs P@100 {}",
            curve.at(20),
            curve.at(100)
        );
    }
}
