//! Paper-scale pin: every scheme's P@20, P@100 and MAP in the paper's two
//! experiments, Table 1 (20 categories) and Table 2 (50 categories), at
//! four master seeds. These are the specs `reproduce table1 --seed S` and
//! `reproduce table2 --seed S` run, so a change that moves a reported
//! number has to edit a literal here in the open.
//!
//! `golden_tables.rs` pins only the smoke experiment, which is small
//! enough for a debug build. Each seed here builds both paper-size corpora,
//! which takes seconds in release and minutes in debug, hence `#[ignore]`:
//!
//! ```text
//! cargo test --release -p lrf-bench --test paper_scale -- --ignored
//! ```
//!
//! Seed 42's two experiments are also pinned as the curves `reproduce
//! fig3` and `reproduce fig4` draw: every scheme's precision at all nine
//! cutoffs. Their evaluation universe is the whole database, so these are
//! the largest rankings any test pins.
//!
//! A literal moves only with a change meant to move retrieval quality,
//! and that change's CHANGES.md line says why. The tolerance is for the
//! evaluator's shard merge, which sums per-thread partial curves and so
//! rounds differently on hosts with different core counts.

use lrf_bench::{run_experiment, ExperimentResult, ExperimentSpec};

/// `(scheme, P@20, P@100, MAP)` in the paper's column order.
type Row = (&'static str, f64, f64, f64);

/// `(seed, Table 1 rows, Table 2 rows)`.
const PINNED: [(u64, [Row; 4], [Row; 4]); 4] = [
    (
        42,
        [
            ("Euclidean", 0.442, 0.18319999999999997, 0.2672102733686067),
            ("RF-SVM", 0.6085, 0.21165, 0.34157484567901236),
            (
                "LRF-2SVMs",
                0.6625000000000003,
                0.21939999999999998,
                0.3644122795414463,
            ),
            (
                "LRF-CSVM",
                0.6867500000000001,
                0.22929999999999992,
                0.38014012345679016,
            ),
        ],
        [
            (
                "Euclidean",
                0.40249999999999986,
                0.14489999999999997,
                0.22865158730158727,
            ),
            ("RF-SVM", 0.5554999999999999, 0.166, 0.2870158289241622),
            ("LRF-2SVMs", 0.5664999999999999, 0.1661, 0.2899714065255732),
            ("LRF-CSVM", 0.5699999999999998, 0.16765, 0.2920673059964726),
        ],
    ),
    (
        1,
        [
            ("Euclidean", 0.4927499999999999, 0.19225, 0.2877925264550265),
            ("RF-SVM", 0.6140000000000001, 0.22055, 0.3441269400352734),
            ("LRF-2SVMs", 0.6367499999999999, 0.2125, 0.3466915123456789),
            ("LRF-CSVM", 0.6655, 0.22324999999999992, 0.36437385361552027),
        ],
        [
            (
                "Euclidean",
                0.40800000000000025,
                0.14919999999999997,
                0.23339993386243385,
            ),
            ("RF-SVM", 0.5297499999999999, 0.1666, 0.2810871031746031),
            (
                "LRF-2SVMs",
                0.5442500000000001,
                0.16589999999999996,
                0.28433287037037047,
            ),
            ("LRF-CSVM", 0.55875, 0.17464999999999997, 0.2965008597883598),
        ],
    ),
    (
        2,
        [
            ("Euclidean", 0.502, 0.20814999999999997, 0.30776503527336857),
            (
                "RF-SVM",
                0.6715000000000001,
                0.24479999999999996,
                0.3882937610229277,
            ),
            ("LRF-2SVMs", 0.7115, 0.24065000000000006, 0.3991912037037037),
            (
                "LRF-CSVM",
                0.7452500000000001,
                0.24875000000000003,
                0.4163454585537919,
            ),
        ],
        [
            ("Euclidean", 0.3637500000000001, 0.1384, 0.21199953703703703),
            (
                "RF-SVM",
                0.5002500000000001,
                0.16804999999999992,
                0.27365769400352735,
            ),
            (
                "LRF-2SVMs",
                0.5115000000000001,
                0.16765,
                0.27666818783068786,
            ),
            ("LRF-CSVM", 0.51475, 0.1693, 0.2781338844797177),
        ],
    ),
    (
        3,
        [
            ("Euclidean", 0.4484999999999998, 0.1766, 0.26211291887125215),
            (
                "RF-SVM",
                0.6192500000000001,
                0.21760000000000013,
                0.34549479717813053,
            ),
            (
                "LRF-2SVMs",
                0.66175,
                0.21805000000000002,
                0.36138392857142854,
            ),
            ("LRF-CSVM", 0.667, 0.22180000000000008, 0.3660381613756614),
        ],
        [
            (
                "Euclidean",
                0.3347500000000001,
                0.12675000000000003,
                0.1942057980599647,
            ),
            ("RF-SVM", 0.4905, 0.14885000000000004, 0.25743128306878305),
            ("LRF-2SVMs", 0.5015, 0.15259999999999999, 0.2649023589065256),
            ("LRF-CSVM", 0.5057499999999999, 0.15395, 0.2666745590828924),
        ],
    ),
];

/// `(scheme, precision at each of `lrf_cbir::CUTOFFS`)`: one curve of
/// Fig. 3 or Fig. 4.
type Curve = (&'static str, [f64; 9]);

/// Seed 42's Fig. 3 (Table 1's experiment) and Fig. 4 (Table 2's) curves.
const FIGURES_42: ([Curve; 4], [Curve; 4]) = (
    [
        (
            "Euclidean",
            [
                0.442,
                0.3543333333333334,
                0.3005,
                0.2649999999999999,
                0.23975000000000007,
                0.22092857142857145,
                0.20562499999999997,
                0.19355555555555554,
                0.18319999999999997,
            ],
        ),
        (
            "RF-SVM",
            [
                0.6085,
                0.47450000000000003,
                0.39387499999999986,
                0.33959999999999996,
                0.30016666666666675,
                0.27049999999999996,
                0.24743750000000003,
                0.22794444444444445,
                0.21165,
            ],
        ),
        (
            "LRF-2SVMs",
            [
                0.6625000000000003,
                0.5133333333333333,
                0.423,
                0.36200000000000004,
                0.3174166666666667,
                0.2849285714285715,
                0.2591875,
                0.23794444444444443,
                0.21939999999999998,
            ],
        ),
        (
            "LRF-CSVM",
            [
                0.6867500000000001,
                0.5383333333333333,
                0.4448749999999999,
                0.37810000000000005,
                0.3305000000000001,
                0.29600000000000004,
                0.269625,
                0.2477777777777777,
                0.22929999999999992,
            ],
        ),
    ],
    [
        (
            "Euclidean",
            [
                0.40249999999999986,
                0.3151666666666668,
                0.26137499999999997,
                0.2275,
                0.20149999999999998,
                0.1822142857142856,
                0.16787499999999997,
                0.1548333333333332,
                0.14489999999999997,
            ],
        ),
        (
            "RF-SVM",
            [
                0.5554999999999999,
                0.41533333333333333,
                0.33175,
                0.2802,
                0.24275000000000005,
                0.2164285714285714,
                0.19612499999999997,
                0.17905555555555544,
                0.166,
            ],
        ),
        (
            "LRF-2SVMs",
            [
                0.5664999999999999,
                0.42200000000000004,
                0.33474999999999994,
                0.2821,
                0.2445833333333334,
                0.21778571428571428,
                0.1963125,
                0.17961111111111097,
                0.1661,
            ],
        ),
        (
            "LRF-CSVM",
            [
                0.5699999999999998,
                0.42516666666666664,
                0.33599999999999997,
                0.28380000000000005,
                0.24708333333333335,
                0.21885714285714278,
                0.19793749999999996,
                0.182111111111111,
                0.16765,
            ],
        ),
    ],
);

/// The curves `result` draws, in the pin's syntax.
fn curves(result: &ExperimentResult) -> Vec<(String, Vec<f64>)> {
    let curve = |(name, c): &(String, lrf_cbir::PrecisionCurve)| (name.clone(), c.values.clone());
    result.curves.iter().map(curve).collect()
}

/// Whether `got` matches `want` curve for curve, at every cutoff.
fn curves_match(got: &[(String, Vec<f64>)], want: &[Curve; 4]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.0 == w.0
                && g.1.len() == w.1.len()
                && g.1.iter().zip(&w.1).all(|(a, b)| (a - b).abs() < 1e-12)
        })
}

/// The rows `result` reports, in the pin's syntax.
fn rows(result: &ExperimentResult) -> Vec<(String, f64, f64, f64)> {
    let row = |(name, curve): &(String, lrf_cbir::PrecisionCurve)| {
        (name.clone(), curve.at(20), curve.at(100), curve.map())
    };
    result.curves.iter().map(row).collect()
}

/// Whether `got` matches `want` row for row.
fn matches(got: &[(String, f64, f64, f64)], want: &[Row; 4]) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && close(g.1, w.1) && close(g.2, w.2) && close(g.3, w.3))
}

/// Runs both experiments at `seed`, checks their pinned rows and the
/// paper's order, and returns them.
fn check(seed: u64) -> (ExperimentResult, ExperimentResult) {
    let (_, table1, table2) = PINNED
        .iter()
        .find(|(s, _, _)| *s == seed)
        .unwrap_or_else(|| panic!("seed {seed} is not pinned"));
    let (result1, result2) = (
        run_experiment(&ExperimentSpec::table1(seed)),
        run_experiment(&ExperimentSpec::table2(seed)),
    );
    let (got1, got2) = (rows(&result1), rows(&result2));
    assert!(
        matches(&got1, table1) && matches(&got2, table2),
        "seed {seed} moved; observed:\n({seed}, {got1:?}, {got2:?}),"
    );
    // The paper's claim: the log helps (LRF-2SVMs over RF-SVM), and the
    // coupled machine's unlabeled pool helps beyond that. The rows run
    // Euclidean, RF-SVM, LRF-2SVMs, LRF-CSVM, so each column must rise.
    for (table, got) in [("Table 1", &got1), ("Table 2", &got2)] {
        let p20: Vec<f64> = got.iter().map(|r| r.1).collect();
        let map: Vec<f64> = got.iter().map(|r| r.3).collect();
        for (metric, column) in [("P@20", p20), ("MAP", map)] {
            assert!(
                column.windows(2).all(|w| w[0] <= w[1]),
                "{table} {metric} at seed {seed} is out of the paper's order: {column:?}"
            );
        }
    }
    (result1, result2)
}

#[test]
#[ignore = "paper-scale corpora; run in release with --ignored"]
fn seed_42() {
    let (fig3, fig4) = check(42);
    let (got3, got4) = (curves(&fig3), curves(&fig4));
    assert!(
        curves_match(&got3, &FIGURES_42.0) && curves_match(&got4, &FIGURES_42.1),
        "seed 42's figures moved; observed:\n{got3:?}\n{got4:?}"
    );
}

#[test]
#[ignore = "paper-scale corpora; run in release with --ignored"]
fn seed_1() {
    check(1);
}

#[test]
#[ignore = "paper-scale corpora; run in release with --ignored"]
fn seed_2() {
    check(2);
}

#[test]
#[ignore = "paper-scale corpora; run in release with --ignored"]
fn seed_3() {
    check(3);
}
