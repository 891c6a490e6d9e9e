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

fn check(seed: u64) {
    let (_, table1, table2) = PINNED
        .iter()
        .find(|(s, _, _)| *s == seed)
        .unwrap_or_else(|| panic!("seed {seed} is not pinned"));
    let got1 = rows(&run_experiment(&ExperimentSpec::table1(seed)));
    let got2 = rows(&run_experiment(&ExperimentSpec::table2(seed)));
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
}

#[test]
#[ignore = "paper-scale corpora; run in release with --ignored"]
fn seed_42() {
    check(42);
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
