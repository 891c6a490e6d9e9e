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
use corelog::core::multi::{train_multi_coupled, DenseKernel, ModalityData};
use corelog::core::{
    collect_feedback_log, train_coupled, CoupledConfig, LrfConfig, LrfCsvm, QueryContext,
    TrainReport,
};
use lrf_logdb::{LogStore, Relevance, SimulationConfig};
use lrf_svm::TrainedSvm;

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

/// The schedule in whatever type `train_multi_coupled` takes. The k-view
/// trainer's config type is part of what the unification changes, and this
/// file must compile unedited on both sides of it, so the type is left to
/// inference and the values travel as JSON (unknown members are ignored).
fn schedule(cfg: &CoupledConfig) -> String {
    serde_json::to_string(cfg).expect("config serializes")
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One machine's dual solution and bias, bit for bit.
fn dual<K: lrf_svm::Kernel<[f64]>>(svm: &TrainedSvm<[f64], K>) -> (Vec<u64>, u64) {
    (bits(&svm.alpha), svm.model.bias().to_bits())
}

/// A view of a two-cluster concept at the given scale whose unlabeled
/// pool straddles the boundary, so pseudo-labels are contested.
fn view(scale: f64, kernel: DenseKernel, c: f64) -> ModalityData {
    let s = scale;
    ModalityData {
        labeled: vec![
            vec![s, 0.9 * s],
            vec![1.1 * s, s],
            vec![0.7 * s, 1.2 * s],
            vec![-s, -0.9 * s],
            vec![-1.1 * s, -s],
            vec![-0.8 * s, -1.3 * s],
        ],
        unlabeled: vec![
            vec![0.8 * s, s],
            vec![-s, -1.2 * s],
            vec![0.3 * s, -0.2 * s],
            vec![-0.25 * s, 0.3 * s],
            vec![0.9 * s, 0.7 * s],
            vec![-0.6 * s, -0.9 * s],
            vec![0.1 * s, 0.15 * s],
            vec![-0.15 * s, -0.05 * s],
        ],
        kernel,
        c,
    }
}

const Y: [f64; 6] = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
/// Half the pseudo-labels start on the wrong side.
const Y_INIT: [f64; 8] = [-1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0];

fn contested_schedule() -> CoupledConfig {
    CoupledConfig {
        rho: 0.5,
        delta: 0.2,
        max_correction_rounds: 10,
        ..CoupledConfig::default()
    }
}

fn views() -> Vec<ModalityData> {
    vec![
        view(1.0, DenseKernel::Rbf { gamma: 0.5 }, 10.0),
        view(3.0, DenseKernel::Rbf { gamma: 0.1 }, 4.0),
        view(0.5, DenseKernel::Linear, 2.0),
    ]
}

#[test]
fn lrf_csvm_training_trace_is_pinned() {
    let (ds, log, lrf) = build();
    let proto = QueryProtocol {
        n_queries: 10,
        n_labeled: 10,
        seed: 11,
    };
    let example = proto.feedback_example(&ds.db, QUERY);
    let out = LrfCsvm::new(lrf).run(&QueryContext {
        db: &ds.db,
        log: &log,
        example: &example,
    });
    assert_eq!(
        out.unlabeled_ids,
        [27, 22, 95, 4, 32, 65, 93, 81, 43, 20, 50, 44]
    );
    assert_eq!(
        out.report,
        TrainReport {
            rho_steps: 10,
            retrains: 110,
            flips: 1100,
            correction_capped: true,
            final_labels: vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0],
        }
    );
}

#[test]
fn three_view_training_is_pinned() {
    let schedule = schedule(&contested_schedule());
    let out = train_multi_coupled(
        &views(),
        &Y,
        &Y_INIT,
        &serde_json::from_str(&schedule).expect("schedule parses"),
    )
    .expect("training succeeds");
    assert_eq!(
        out.report,
        TrainReport {
            rho_steps: 14,
            retrains: 154,
            flips: 783,
            correction_capped: true,
            final_labels: vec![1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
        }
    );
    let duals: Vec<(Vec<u64>, u64)> = out.machines.iter().map(dual).collect();
    let want: [(Vec<u64>, u64); 3] = [
        (
            vec![
                0,
                0,
                4602344008007024099,
                0,
                0,
                4606784472717520150,
                0,
                0,
                4617315517961601024,
                4617315517961601024,
                4602217738173275221,
                0,
                4617315517961601024,
                4617315517961601024,
            ],
            4598484249499906313,
        ),
        (
            vec![
                0,
                0,
                4602782169016683318,
                0,
                4600980647764981184,
                4604024619610385219,
                0,
                0,
                4611686018427387904,
                4611686018427387904,
                4603309723804123746,
                4583258493139873392,
                4611686018427387904,
                4611686018427387904,
            ],
            4593094161585788010,
        ),
        (
            vec![
                0,
                0,
                0,
                4599141685450712126,
                0,
                0,
                4599141685450712126,
                0,
                4607182418800017408,
                4607182418800017408,
                4607182418800017408,
                4607182418800017408,
                4607182418800017408,
                4607182418800017408,
            ],
            4583281651212612285,
        ),
    ];
    assert_eq!(duals, want);
}

/// The twin evidence: the k-view trainer at k = 2 and the 2-view trainer
/// are the same function of their inputs, bit for bit.
#[test]
fn two_dense_views_train_identically_through_either_entry() {
    let views = views();
    let two = &views[..2];
    let cfg = CoupledConfig {
        c_content: two[0].c,
        c_log: two[1].c,
        ..contested_schedule()
    };
    let multi = train_multi_coupled(
        two,
        &Y,
        &Y_INIT,
        &serde_json::from_str(&schedule(&cfg)).expect("schedule parses"),
    )
    .expect("training succeeds");
    let pair = train_coupled::<[f64], _, _, [f64], _, _>(
        &two[0].labeled,
        &two[1].labeled,
        &Y,
        &two[0].unlabeled,
        &two[1].unlabeled,
        &Y_INIT,
        two[0].kernel,
        two[1].kernel,
        &cfg,
    )
    .expect("training succeeds");
    assert_eq!(
        pair.report,
        TrainReport {
            rho_steps: 14,
            retrains: 136,
            flips: 517,
            correction_capped: true,
            final_labels: vec![1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0],
        }
    );
    assert_eq!(multi.report, pair.report);
    assert_eq!(dual(&multi.machines[0]), dual(&pair.content));
    assert_eq!(dual(&multi.machines[1]), dual(&pair.log));
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
