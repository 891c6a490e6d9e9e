//! `reproduce` — regenerate the paper's tables, figures, and ablations.
//!
//! ```text
//! USAGE:
//!   reproduce <COMMAND> [OPTIONS]
//!
//! COMMANDS:
//!   table1             Table 1: quantitative evaluation, 20-Category
//!   table2             Table 2: quantitative evaluation, 50-Category
//!   fig3               Fig. 3: precision curves, 20-Category
//!   fig4               Fig. 4: precision curves, 50-Category
//!   all                table1 + table2 + fig3 + fig4 (shared builds)
//!   ablate-selection   §6.5: unlabeled-selection strategies
//!   ablate-rho         sweep the unlabeled regularization cap ρ
//!   ablate-delta       sweep the label-correction gate Δ
//!   ablate-unlabeled   sweep the pool size N'
//!   ablate-noise       sweep feedback-log noise
//!   ablate-sessions    sweep the number of log sessions
//!   rounds             precision vs. feedback round per scheme
//!   calibrate          print Euclidean P@20 for corpus calibration
//!
//! OPTIONS:
//!   --queries N        evaluation queries            [default: 200]
//!   --sessions N       log sessions                  [default: 150]
//!   --noise F          log label-flip probability    [default: 0.1]
//!   --seed N           master seed                   [default: 42]
//!   --scale small|full dataset scale for ablations   [default: small]
//!   --json PATH        also dump results as JSON
//! ```

use lrf_bench::experiment::{run_on_prepared, ExperimentSpec, SchemeChoice};
use lrf_bench::{figure_series, markdown_table, paper_table, run_experiment};
use lrf_cbir::{CorelDataset, CorelSpec, QueryProtocol};
use lrf_core::{LrfConfig, UnlabeledSelection};
use std::process::ExitCode;

#[derive(Clone, Debug)]
struct Options {
    command: String,
    queries: usize,
    sessions: usize,
    noise: f64,
    seed: u64,
    scale_full: bool,
    json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        command: String::new(),
        queries: 200,
        sessions: 150,
        noise: 0.1,
        seed: 42,
        scale_full: false,
        json: None,
    };
    let mut it = args.into_iter();
    opts.command = it.next().ok_or_else(|| "missing command".to_string())?;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--queries" => {
                opts.queries = value("--queries")?.parse().map_err(|e| format!("{e}"))?
            }
            "--sessions" => {
                opts.sessions = value("--sessions")?.parse().map_err(|e| format!("{e}"))?
            }
            "--noise" => opts.noise = value("--noise")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => opts.scale_full = value("--scale")? == "full",
            "--json" => opts.json = Some(value("--json")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn spec_for(opts: &Options, fifty: bool) -> ExperimentSpec {
    let mut spec = if fifty {
        ExperimentSpec::table2(opts.seed)
    } else {
        ExperimentSpec::table1(opts.seed)
    };
    spec.protocol.n_queries = opts.queries;
    spec.log.n_sessions = opts.sessions;
    spec.log.noise = opts.noise;
    spec
}

/// Reduced dataset for ablations when `--scale full` is not given: 10
/// categories × 50 images keeps a sweep under a minute on one core.
fn ablation_spec(opts: &Options) -> ExperimentSpec {
    if opts.scale_full {
        let mut s = spec_for(opts, false);
        s.schemes = SchemeChoice::CsvmAndRf;
        return s;
    }
    let mut spec = ExperimentSpec::table1(opts.seed);
    spec.dataset = CorelSpec {
        n_categories: 10,
        per_category: 50,
        ..spec.dataset
    };
    spec.log.n_sessions = opts.sessions.min(80);
    spec.log.noise = opts.noise;
    spec.protocol = QueryProtocol {
        n_queries: opts.queries.min(50),
        ..spec.protocol
    };
    spec.schemes = SchemeChoice::CsvmAndRf;
    spec
}

fn dump_json(path: &str, payload: &impl serde::Serialize) {
    match serde_json::to_vec_pretty(payload) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(path, bytes) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("(results written to {path})");
            }
        }
        Err(e) => eprintln!("warning: could not serialize results: {e}"),
    }
}

fn run_main_experiment(opts: &Options, fifty: bool, as_figure: bool) {
    let spec = spec_for(opts, fifty);
    let (label, figure_label) = if fifty {
        (
            "Table 2: quantitative evaluation, 50-Category dataset",
            "Fig. 4: 50-Category",
        )
    } else {
        (
            "Table 1: quantitative evaluation, 20-Category dataset",
            "Fig. 3: 20-Category",
        )
    };
    eprintln!(
        "building {}-category dataset ({} images) ...",
        spec.dataset.n_categories,
        spec.dataset.n_categories * spec.dataset.per_category
    );
    let result = run_experiment(&spec);
    if as_figure {
        println!("{}", figure_series(figure_label, &result));
    } else {
        println!("{}", paper_table(label, &result));
    }
    eprintln!("evaluation took {:.1}s", result.eval_seconds);
    if let Some(path) = &opts.json {
        dump_json(path, &result);
    }
}

fn run_all(opts: &Options) {
    for fifty in [false, true] {
        let spec = spec_for(opts, fifty);
        eprintln!(
            "building {}-category dataset ...",
            spec.dataset.n_categories
        );
        let result = run_experiment(&spec);
        let (table_label, fig_label) = if fifty {
            (
                "Table 2: quantitative evaluation, 50-Category dataset",
                "Fig. 4: 50-Category",
            )
        } else {
            (
                "Table 1: quantitative evaluation, 20-Category dataset",
                "Fig. 3: 20-Category",
            )
        };
        println!("{}", paper_table(table_label, &result));
        println!("{}", figure_series(fig_label, &result));
        println!("markdown:\n{}", markdown_table(&result));
        eprintln!("evaluation took {:.1}s", result.eval_seconds);
    }
}

fn run_selection_ablation(opts: &Options) {
    let base = ablation_spec(opts);
    eprintln!("building ablation dataset ...");
    let dataset = CorelDataset::build(base.dataset.clone());
    let log = lrf_core::collect_feedback_log(&dataset.db, &base.log, &base.lrf);
    println!(
        "§6.5 ablation: unlabeled-selection strategy (MAP, {} queries)",
        base.protocol.n_queries
    );
    for (name, sel) in [
        (
            "MaxMinCombinedDistance (paper)",
            UnlabeledSelection::MaxMinCombinedDistance,
        ),
        (
            "ClosestToBoundary (rejected in §6.5)",
            UnlabeledSelection::ClosestToBoundary,
        ),
        ("Random (control)", UnlabeledSelection::Random),
    ] {
        let spec = ExperimentSpec {
            lrf: LrfConfig {
                selection: sel,
                ..base.lrf
            },
            schemes: SchemeChoice::CsvmOnly,
            ..base.clone()
        };
        let result = run_on_prepared(&spec, &dataset, &log);
        let map = result.curves[0].1.map();
        let p20 = result.curves[0].1.at(20);
        println!("  {name:<40} MAP {map:.3}  P@20 {p20:.3}");
    }
    // Reference: RF-SVM without any log/transduction.
    let rf_spec = ExperimentSpec {
        schemes: SchemeChoice::CsvmAndRf,
        ..base.clone()
    };
    let result = run_on_prepared(&rf_spec, &dataset, &log);
    let rf = result.curve("RF-SVM").expect("RF-SVM curve present");
    println!(
        "  {:<40} MAP {:.3}  P@20 {:.3}",
        "RF-SVM (no log reference)",
        rf.map(),
        rf.at(20)
    );
}

fn run_param_sweep<T: Copy + std::fmt::Display>(
    opts: &Options,
    param_name: &str,
    values: &[T],
    mut apply: impl FnMut(&mut ExperimentSpec, T),
    rebuild_log: bool,
) {
    let base = ablation_spec(opts);
    eprintln!("building ablation dataset ...");
    let dataset = CorelDataset::build(base.dataset.clone());
    let base_log = lrf_core::collect_feedback_log(&dataset.db, &base.log, &base.lrf);
    println!(
        "ablation: sweep {param_name} (LRF-CSVM MAP / P@20, {} queries)",
        base.protocol.n_queries
    );
    for &v in values {
        let mut spec = ExperimentSpec {
            schemes: SchemeChoice::CsvmOnly,
            ..base.clone()
        };
        apply(&mut spec, v);
        let result = if rebuild_log {
            let log = lrf_core::collect_feedback_log(&dataset.db, &spec.log, &spec.lrf);
            run_on_prepared(&spec, &dataset, &log)
        } else {
            run_on_prepared(&spec, &dataset, &base_log)
        };
        let curve = &result.curves[0].1;
        println!(
            "  {param_name} = {v:<10} MAP {:.3}  P@20 {:.3}",
            curve.map(),
            curve.at(20)
        );
    }
}

fn run_calibration(opts: &Options) {
    // Prints the Euclidean baseline at both dataset scales — the corpus
    // calibration target is the paper's Euclidean row (0.398 / 0.342).
    for fifty in [false, true] {
        let mut spec = spec_for(opts, fifty);
        spec.schemes = SchemeChoice::All;
        spec.protocol.n_queries = opts.queries;
        eprintln!(
            "building {}-category dataset ...",
            spec.dataset.n_categories
        );
        let result = run_experiment(&spec);
        let eu = result.curve("Euclidean").expect("Euclidean curve present");
        println!(
            "{}-category: Euclidean P@20 {:.3} (paper {})  MAP {:.3} (paper {})",
            spec.dataset.n_categories,
            eu.at(20),
            if fifty { "0.342" } else { "0.398" },
            eu.map(),
            if fifty { "0.242" } else { "0.283" },
        );
    }
}

fn run_rounds(opts: &Options) {
    use lrf_core::RoundSelection;
    let base = ablation_spec(opts);
    eprintln!("building rounds dataset ...");
    let dataset = CorelDataset::build(base.dataset.clone());
    let log = lrf_core::collect_feedback_log(&dataset.db, &base.log, &base.lrf);
    let n_rounds = 4;
    println!(
        "mean P@20 per feedback round ({} queries, screens of 15, top-confident presentation)",
        base.protocol.n_queries
    );
    let spec = lrf_bench::experiment::ExperimentSpec {
        schemes: SchemeChoice::All,
        ..base.clone()
    };
    let results = lrf_bench::experiment::run_rounds_experiment(
        &spec,
        &dataset,
        &log,
        n_rounds,
        15,
        RoundSelection::TopConfident,
    );
    print!("{:>10}", "scheme");
    for r in 1..=n_rounds {
        print!("  round{r:<3}");
    }
    println!();
    for (name, curve) in &results {
        print!("{name:>10}");
        for v in curve {
            print!("  {v:>7.3}");
        }
        println!();
    }
    // The active-learning comparison: uncertain screens trade early
    // precision for faster improvement (Tong & Chang's premise).
    println!("\nLRF-CSVM under different presentation policies:");
    for (label, sel) in [
        ("top-confident", RoundSelection::TopConfident),
        ("most-uncertain", RoundSelection::MostUncertain),
        ("mixed", RoundSelection::Mixed),
    ] {
        let spec = lrf_bench::experiment::ExperimentSpec {
            schemes: SchemeChoice::CsvmOnly,
            ..base.clone()
        };
        let results =
            lrf_bench::experiment::run_rounds_experiment(&spec, &dataset, &log, n_rounds, 15, sel);
        print!("{label:>15}");
        for v in &results[0].1 {
            print!("  {v:>7.3}");
        }
        println!();
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\nrun with a command: table1|table2|fig3|fig4|all|ablate-selection|ablate-rho|ablate-delta|ablate-unlabeled|ablate-noise|ablate-sessions|rounds|calibrate");
            return ExitCode::FAILURE;
        }
    };

    match opts.command.as_str() {
        "table1" => run_main_experiment(&opts, false, false),
        "table2" => run_main_experiment(&opts, true, false),
        "fig3" => run_main_experiment(&opts, false, true),
        "fig4" => run_main_experiment(&opts, true, true),
        "all" => run_all(&opts),
        "ablate-selection" => run_selection_ablation(&opts),
        "ablate-rho" => run_param_sweep(
            &opts,
            "rho",
            &[0.001, 0.01, 0.1, 0.5, 1.0, 2.0],
            |spec, v| spec.lrf.coupled.rho = v,
            false,
        ),
        "ablate-delta" => run_param_sweep(
            &opts,
            "delta",
            &[0.5, 1.0, 2.0, 3.0],
            |spec, v| spec.lrf.coupled.delta = v,
            false,
        ),
        "ablate-unlabeled" => run_param_sweep(
            &opts,
            "n_unlabeled",
            &[10usize, 20, 40, 80],
            |spec, v| spec.lrf.n_unlabeled = v,
            false,
        ),
        "ablate-noise" => run_param_sweep(
            &opts,
            "noise",
            &[0.0, 0.1, 0.2, 0.3],
            |spec, v| spec.log.noise = v,
            true,
        ),
        "ablate-sessions" => run_param_sweep(
            &opts,
            "sessions",
            &[20usize, 40, 80, 160],
            |spec, v| spec.log.n_sessions = v,
            true,
        ),
        "rounds" => run_rounds(&opts),
        "calibrate" => run_calibration(&opts),
        other => {
            eprintln!("error: unknown command {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
