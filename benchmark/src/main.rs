//! `lrf-benchmark`: one workload, one run. `--trace 0` measures the
//! end-to-end metrics over loopback TCP with tracing off; `--trace 1`
//! measures the per-layer ledger. `benchmark/run.sh` builds this binary
//! and either forwards the driver's arguments or loops over every
//! workload for a full pass. See `benchmark/README.md`.

mod client;
mod e2e;
mod gen;
mod layers;
mod report;
mod stats;
mod sut;

use gen::{Mix, Scheme};
use report::{Environment, ResultFile};
use std::path::PathBuf;
use std::process::ExitCode;

/// One traffic mix against one corpus and log size.
pub struct Workload {
    pub name: &'static str,
    pub n_images: usize,
    pub m_log: usize,
    pub clients: usize,
    pub shards: usize,
    pub mix: Mix,
    /// Durable service: flat index, `StdIo` WAL, default
    /// `DurabilityConfig` (auto-compaction on).
    pub durable: bool,
}

/// `--seconds` when none is given; equals `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.5;
const SMOKE_IMAGES: usize = 2_000;
const SMOKE_LOG: usize = 500;
/// Set-ups per end-to-end run (`setup_s` is their median).
const SETUPS: usize = 3;

const WORKLOADS: [Workload; 4] = [
    // The content side does nearly all the work: the log is empty. Two
    // clients, not the issue's one: a lone closed-loop client leaves both
    // virtual CPUs halting between every hand-off of a scatter-gather, and
    // the host's wake-up latency then decides the numbers (26 vs 40
    // sessions/s in two sets of runs twelve minutes apart).
    Workload {
        name: "content_scan",
        n_images: 200_000,
        m_log: 0,
        clients: 2,
        shards: 2,
        mix: Mix::Fixed(Scheme::RfSvm),
        durable: false,
    },
    // The paper's contribution is the cost: a coupled-SVM round over a
    // large log, and whole-store COW clones under concurrent reranks.
    Workload {
        name: "log_heavy",
        n_images: 20_000,
        m_log: 20_000,
        clients: 2,
        shards: 2,
        mix: Mix::Fixed(Scheme::LrfCsvm),
        durable: false,
    },
    // The headline mix: no layer dominates, so it catches an optimisation
    // that wins one workload by taxing the common path.
    Workload {
        name: "mixed_paper",
        n_images: 20_000,
        m_log: 10_000,
        clients: 2,
        shards: 2,
        mix: Mix::Paper,
        durable: false,
    },
    // Writes beside reads through the WAL: fsync, rotation, compaction.
    Workload {
        name: "flush_churn",
        n_images: 20_000,
        m_log: 10_000,
        clients: 2,
        shards: 1,
        mix: Mix::Churn,
        durable: true,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    home: PathBuf,
    out: Option<PathBuf>,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        home: PathBuf::from("benchmark"),
        out: None,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--home" => args.home = PathBuf::from(value),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let base = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
    let workload = Workload {
        n_images: if args.smoke {
            SMOKE_IMAGES
        } else {
            base.n_images
        },
        m_log: if args.smoke {
            SMOKE_LOG.min(base.m_log)
        } else {
            base.m_log
        },
        // Never more client threads than cores.
        clients: base
            .clients
            .min(std::thread::available_parallelism().map_or(1, usize::from)),
        ..*base
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let kind = if args.trace { "layers" } else { "e2e" };
    println!(
        "# {} {kind}: N={} M={} clients={} shards={} seed={} seconds={seconds}{}",
        workload.name,
        workload.n_images,
        workload.m_log,
        workload.clients,
        workload.shards,
        args.seed,
        if args.smoke { " (smoke)" } else { "" }
    );
    let outcome = if args.trace {
        layers::run(&workload, args.seed, seconds, args.smoke, &args.home)?
    } else {
        let setups = if args.smoke { 1 } else { SETUPS };
        e2e::run(&workload, args.seed, seconds, setups, &args.home)?
    };

    let mut problems = outcome.problems;
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    let correct = problems.is_empty() && outcome.failed == 0;
    report::print_table(&outcome.metrics);
    for (kind, n) in client::KINDS.iter().zip(outcome.op_counts) {
        println!("# timed {kind} samples: {n}");
    }
    println!(
        "# attempted {} failed {} error_rate {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for p in &problems {
        println!("# PROBLEM: {p}");
    }
    if let Some(dir) = &args.out {
        let op_counts: Vec<(&str, usize)> = client::KINDS
            .iter()
            .copied()
            .zip(outcome.op_counts)
            .collect();
        ResultFile {
            workload: workload.name,
            kind,
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            env: &Environment::capture(&args.rustc, &args.commit),
            correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            problems: &problems,
            timed_wall_s: outcome.timed_wall_s,
            op_counts: &op_counts,
            metrics: &outcome.metrics,
        }
        .write(dir)?;
    }
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("lrf-benchmark: a correctness check failed (see the PROBLEM lines)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("lrf-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
