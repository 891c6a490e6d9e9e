//! Golden training traces: literal output of the Fig. 1 trainers and of
//! the Euclidean reference ranking, pinned before the two coupled trainers
//! were folded onto one annealing driver and the Euclidean ranker onto the
//! flat index's scan. `golden_rankings.rs` catches a refactor that moves a
//! ranked id; this file catches one that moves a ρ-step, a flip, a dual
//! coefficient or a collected judgment.
//!
//! The values were captured from the code as it stood before that
//! unification and must never be edited to make a refactor pass. A failing
//! assertion prints the observed value in the literal's own syntax.

use corelog::cbir::{collect_log, rank_by_euclidean, CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::{
    collect_feedback_log, run_lrf_csvm, train_coupled, CoupledConfig, FeedbackLoop, LrfConfig,
    QueryContext, SchemeKind, TrainReport,
};
use lrf_logdb::{LogStore, Relevance, SimulationConfig};
use lrf_svm::{KernelCache, RbfKernel};

const QUERY: usize = 37;

/// The `golden_rankings.rs` fixture.
fn build() -> (CorelDataset, LogStore, LrfConfig) {
    let ds = CorelDataset::build(CorelSpec::tiny(5, 20, 1205));
    let lrf = LrfConfig {
        n_unlabeled: 12,
        ..LrfConfig::default()
    };
    let log = collect_feedback_log(&ds.db, &sessions(40), &lrf);
    (ds, log, lrf)
}

fn sessions(n_sessions: usize) -> SimulationConfig {
    SimulationConfig {
        n_sessions,
        judged_per_session: 10,
        rounds_per_query: 2,
        noise: 0.1,
        seed: 77,
    }
}

/// A view of a two-cluster concept at the given scale whose unlabeled
/// pool straddles the boundary, so pseudo-labels are contested.
fn view(scale: f64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let s = scale;
    (
        vec![
            vec![s, 0.9 * s],
            vec![1.1 * s, s],
            vec![0.7 * s, 1.2 * s],
            vec![-s, -0.9 * s],
            vec![-1.1 * s, -s],
            vec![-0.8 * s, -1.3 * s],
        ],
        vec![
            vec![0.8 * s, s],
            vec![-s, -1.2 * s],
            vec![0.3 * s, -0.2 * s],
            vec![-0.25 * s, 0.3 * s],
            vec![0.9 * s, 0.7 * s],
            vec![-0.6 * s, -0.9 * s],
            vec![0.1 * s, 0.15 * s],
            vec![-0.15 * s, -0.05 * s],
        ],
    )
}

const Y: [f64; 6] = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
/// Half the pseudo-labels start on the wrong side.
const Y_INIT: [f64; 8] = [-1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0];

fn contested_schedule() -> CoupledConfig {
    CoupledConfig {
        rho: 0.5,
        delta: 0.2,
        ..CoupledConfig::default()
    }
}

/// The LRF-CSVM trace's feedback round.
fn trace_example(ds: &CorelDataset) -> corelog::cbir::FeedbackExample {
    let proto = QueryProtocol {
        n_queries: 10,
        n_labeled: 10,
        seed: 11,
    };
    proto.feedback_example(&ds.db, QUERY)
}

#[test]
fn lrf_csvm_training_trace_is_pinned() {
    let (ds, log, lrf) = build();
    let example = trace_example(&ds);
    let out = run_lrf_csvm(
        &lrf,
        &QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        },
    );
    assert_eq!(
        out.unlabeled_ids,
        [27, 22, 95, 4, 32, 65, 93, 81, 43, 20, 50, 44]
    );
    assert_eq!(
        out.report,
        TrainReport {
            rho_steps: 10,
            retrains: 10,
            flips: 0,
            final_labels: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0],
        }
    );
}

/// The dense-pair trace, two dense views of a contested pool through
/// `train_coupled`: its report, and whether every solve converged and no
/// correction loop hit its guard.
fn dense_pair() -> (TrainReport, bool) {
    let (labeled_a, unlabeled_a) = view(1.0);
    let (labeled_b, unlabeled_b) = view(3.0);
    let cfg = CoupledConfig {
        c_content: 10.0,
        c_log: 4.0,
        ..contested_schedule()
    };
    let content = labeled_a.iter().chain(&unlabeled_a).map(Vec::as_slice);
    let log = labeled_b.iter().chain(&unlabeled_b).map(Vec::as_slice);
    let pair = train_coupled(
        KernelCache::new(RbfKernel::new(0.5), content.collect()),
        KernelCache::new(RbfKernel::new(0.1), log.collect()),
        &Y,
        &Y_INIT,
        &cfg,
    )
    .expect("training succeeds");
    (pair.report, pair.solves.converged)
}

/// Two dense views of a contested pool through `train_coupled`.
#[test]
fn two_dense_views_train_identically_through_either_entry() {
    assert_eq!(
        dense_pair().0,
        TrainReport {
            rho_steps: 14,
            retrains: 15,
            flips: 4,
            final_labels: vec![1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0],
        }
    );
}

/// Both traces end with every solve converged and every ρ* step's
/// correction loop finished inside its guard (a guard hit would mark the
/// run not converged).
#[test]
fn golden_traces_finish_converged() {
    let (ds, log, lrf) = build();
    let example = trace_example(&ds);
    // The LRF-CSVM trace's round through a session whose pool is the whole
    // database: the same fit, and the diagnostics `run` drops.
    let mut fb = FeedbackLoop::new(SchemeKind::LrfCsvm, lrf, QUERY, ds.db.len());
    for &(id, label) in &example.labeled {
        fb.mark(id, label > 0.0).expect("in-range mark");
    }
    let pool: Vec<usize> = (0..ds.db.len()).collect();
    let ranking = fb.rerank_scattered(&ds.db, &log, &pool, |scorer, ids| {
        scorer.score_ids(&ds.db, &log, ids)
    });
    let run = run_lrf_csvm(
        &lrf,
        &QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        },
    );
    assert_eq!(ranking, run.ranking);
    let diag = fb.last_diagnostics().expect("LRF-CSVM trains");
    assert!(diag.converged, "{diag:?}");

    let (report, converged) = dense_pair();
    assert!(converged, "{report:?}");
}

#[test]
fn euclidean_permutation_and_collected_judgments_are_pinned() {
    let (ds, _, _) = build();
    assert_eq!(
        rank_by_euclidean(&ds.db, ds.db.feature(QUERY)),
        [
            37, 34, 46, 58, 49, 56, 25, 29, 80, 83, 77, 73, 95, 43, 65, 52, 12, 5, 14, 74, 27, 22,
            30, 55, 7, 62, 44, 10, 3, 48, 69, 98, 4, 41, 68, 82, 57, 47, 28, 97, 23, 9, 85, 66, 94,
            32, 72, 1, 63, 96, 86, 40, 71, 78, 87, 51, 99, 38, 75, 92, 91, 19, 31, 84, 45, 59, 81,
            0, 67, 8, 70, 50, 21, 64, 89, 11, 54, 2, 90, 26, 6, 60, 79, 15, 88, 20, 24, 42, 36, 39,
            13, 93, 33, 16, 35, 18, 76, 53, 61, 17,
        ]
    );

    // `(image id, judged relevant)` per session, in id order.
    let log = collect_log(&ds.db, &sessions(5));
    let judged: Vec<Vec<(usize, bool)>> = log
        .sessions()
        .map(|s| {
            s.iter()
                .map(|(id, r)| (id, r == Relevance::Relevant))
                .collect()
        })
        .collect();
    let (t, f) = (true, false);
    let want: [Vec<(usize, bool)>; 5] = [
        vec![
            (5, f),
            (30, t),
            (36, t),
            (62, f),
            (64, t),
            (71, f),
            (76, f),
            (82, f),
            (85, f),
            (88, f),
        ],
        vec![
            (1, t),
            (12, f),
            (28, t),
            (31, t),
            (38, t),
            (48, f),
            (65, f),
            (74, f),
            (80, f),
            (89, f),
        ],
        vec![
            (4, f),
            (14, f),
            (65, f),
            (66, f),
            (67, f),
            (78, f),
            (84, t),
            (87, t),
            (92, t),
            (98, t),
        ],
        vec![
            (11, f),
            (27, f),
            (34, t),
            (48, f),
            (52, f),
            (57, f),
            (69, f),
            (72, f),
            (73, f),
            (95, t),
        ],
        vec![
            (5, t),
            (10, f),
            (27, f),
            (34, f),
            (48, f),
            (56, t),
            (72, f),
            (74, f),
            (80, f),
            (89, f),
        ],
    ];
    assert_eq!(judged, want);
}
