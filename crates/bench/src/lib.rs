//! # lrf-bench — reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) and
//! hosts the ablation sweeps and the `tune_*` calibration examples.
//! Retrieval quality is its subject; performance evidence is the
//! repository's `benchmark/`.
//!
//! | Paper artifact | Regenerate with |
//! |---|---|
//! | Table 1 (20-Category) | `cargo run -p lrf-bench --release --bin reproduce -- table1` |
//! | Table 2 (50-Category) | `cargo run -p lrf-bench --release --bin reproduce -- table2` |
//! | Fig. 3 (20-Category curves) | `... -- fig3` |
//! | Fig. 4 (50-Category curves) | `... -- fig4` |
//! | §6.5 selection finding | `... -- ablate-selection` |
//!
//! The experiment protocol follows §6.4: random queries, the Euclidean
//! top-20 auto-judged as the feedback round, every scheme re-ranks the full
//! database, and precision is averaged at cutoffs 20..100.
//!
//! ## Log-kernel grid
//!
//! `LrfConfig::log_kernel` is a plain RBF with `γ = 0.1`. The grid that
//! picked it compared kernel families on the 20-Category corpus
//! (`ExperimentSpec::table1(42)`, 30 queries), with the log collected at
//! two depths (`rounds_per_query`). P@20, recorded 2026-10-16 on a 2-vCPU
//! Intel Xeon VM; RF-SVM without the log scores 0.592. "cos" is an RBF over
//! L2-normalised columns, "linear" the signed co-judgment count `r_aᵀr_b`.
//! Both were deleted afterwards:
//!
//! | kernel | rounds 3: LRF-2SVMs | rounds 3: log only | rounds 4: LRF-2SVMs | rounds 4: log only |
//! |---|---|---|---|---|
//! | **rbf γ=0.1** | 0.637 | 0.428 | **0.622** | 0.333 |
//! | cos γ=0.5 | **0.645** | **0.432** | 0.607 | **0.365** |
//! | cos γ=1.0 | 0.643 | 0.420 | 0.597 | 0.363 |
//! | cos γ=2.0 | 0.615 | 0.415 | 0.592 | 0.333 |
//! | linear | 0.598 | 0.372 | 0.580 | 0.293 |
//!
//! No family wins at both depths. The cosine RBF's edge at depth 3
//! (+0.008) is smaller than the RBF's at depth 4 (+0.015), so the paper's
//! plain RBF stays, with one width.

pub mod experiment;
mod report;

pub use experiment::{run_experiment, ExperimentResult, ExperimentSpec, SchemeChoice};
pub use report::{figure_series, markdown_table, paper_table};
