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

pub mod experiment;
pub mod report;

pub use experiment::{run_experiment, ExperimentResult, ExperimentSpec, SchemeChoice};
pub use report::{figure_series, markdown_table, paper_table};
