//! Golden precision tables: every scheme's curve at all nine cutoffs and
//! its MAP on one small experiment, pinned as literals. The root
//! `golden_rankings.rs` pins ranked ids per query; this file pins the
//! averaged table the `reproduce` binary prints — the §6.4 evaluator end to
//! end (log collection, query sampling, all four schemes ranking the whole
//! database, shard merge), so a refactor underneath it cannot shift a
//! decimal unnoticed.
//!
//! The values were captured before the batch scorers lost their thread
//! plane and must never be edited to make a refactor pass. The tolerance is
//! for the evaluator's shard merge, which sums per-thread partial curves
//! and so rounds differently on hosts with different core counts.

use lrf_bench::{run_experiment, ExperimentResult, ExperimentSpec};
use lrf_cbir::CUTOFFS;
use std::sync::OnceLock;

/// One run shared by both tests (the debug-build corpus render dominates).
fn result() -> &'static ExperimentResult {
    static RESULT: OnceLock<ExperimentResult> = OnceLock::new();
    RESULT.get_or_init(|| run_experiment(&ExperimentSpec::smoke(5, 25, 5)))
}

/// `(scheme, precision at each of CUTOFFS, MAP)` in the paper's column
/// order.
const TABLE: [(&str, [f64; 9], f64); 4] = [
    (
        "Euclidean",
        [
            0.345,
            0.30333333333333334,
            0.26749999999999996,
            0.252,
            0.23666666666666664,
            0.23857142857142852,
            0.23125,
            0.22888888888888886,
            0.221,
        ],
        0.2582455908289241,
    ),
    (
        "RF-SVM",
        [
            0.5,
            0.4133333333333333,
            0.35500000000000004,
            0.324,
            0.30166666666666664,
            0.28428571428571425,
            0.2625,
            0.24555555555555558,
            0.23499999999999996,
        ],
        0.3245934744268078,
    ),
    (
        "LRF-2SVMs",
        [
            0.54,
            0.44000000000000006,
            0.375,
            0.34400000000000003,
            0.32333333333333336,
            0.30428571428571427,
            0.27625,
            0.26222222222222225,
            0.24500000000000002,
        ],
        0.34556569664903003,
    ),
    (
        "LRF-CSVM",
        [
            0.53,
            0.44000000000000006,
            0.375,
            0.354,
            0.32166666666666666,
            0.3057142857142857,
            0.27875,
            0.2644444444444444,
            0.24699999999999997,
        ],
        0.3462861552028219,
    ),
];

#[test]
fn smoke_precision_tables_are_pinned() {
    let result = result();
    assert_eq!(result.n_queries, 10);
    let got: Vec<(&str, &[f64], f64)> = result
        .curves
        .iter()
        .map(|(name, curve)| (name.as_str(), curve.values.as_slice(), curve.map()))
        .collect();
    assert_eq!(got.len(), TABLE.len(), "{got:?}");
    for ((name, values, map), (want_name, want_values, want_map)) in got.iter().zip(TABLE) {
        assert_eq!(*name, want_name, "{got:?}");
        assert_eq!(values.len(), CUTOFFS.len(), "{got:?}");
        for (v, want) in values.iter().zip(want_values) {
            assert!((v - want).abs() < 1e-12, "{got:?}");
        }
        assert!((map - want_map).abs() < 1e-12, "{got:?}");
    }
}

/// The four schemes' relative order at the headline cutoff.
#[test]
fn scheme_ordering_at_p20_is_pinned() {
    let result = result();
    let mut by_p20: Vec<(&str, f64)> = result
        .curves
        .iter()
        .map(|(name, curve)| (name.as_str(), curve.at(20)))
        .collect();
    by_p20.sort_by(|a, b| a.1.total_cmp(&b.1));
    let order: Vec<&str> = by_p20.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        order,
        ["Euclidean", "RF-SVM", "LRF-CSVM", "LRF-2SVMs"],
        "{by_p20:?}"
    );
}
