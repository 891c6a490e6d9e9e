//! The end-to-end run: boot the real `NetServer`, drive it over loopback
//! TCP with closed-loop clients for a fixed time, check every output.

use crate::client::{drive_session, Tally, TcpConn, Transport};
use crate::gen::{self, Schedule, SessionPlan, Zipf};
use crate::report::Metric;
use crate::stats::median;
use crate::sut::{self, BootSpec, Server, Timing, SCREEN_SIZE};
use crate::Workload;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Untimed sessions each client runs before the clock starts.
const WARMUP_SESSIONS: usize = 20;
/// Sessions replayed against the single-shard reference service.
const CHECK_SESSIONS: usize = 20;
/// Schedule streams: one client never sees the same plan in two phases.
const STREAM_TIMED: u64 = 0;
const STREAM_WARMUP: u64 = 1;
const STREAM_CHECK: u64 = 2;

/// A booted service with its connected clients.
pub struct Stage {
    pub server: Server,
    pub zipf: Zipf,
    pub conns: Vec<TcpConn>,
    /// Seconds spent generating inputs, building the service and
    /// connecting.
    pub build_s: f64,
    pub wal_dir: Option<PathBuf>,
}

/// A fresh directory for one service's WAL, under the benchmark's own
/// directory (the run may write nowhere else).
pub fn fresh_wal_dir(home: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = home
        .join("tmp")
        .join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

impl Stage {
    /// Shuts the service down and removes its WAL directory.
    pub fn discard(self) -> Result<(), String> {
        drop(self.conns);
        self.server.shutdown()?;
        if let Some(dir) = &self.wal_dir {
            remove_dir(dir);
        }
        Ok(())
    }
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave no empty tmp/ behind.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// The data set of a workload: the same for every `--seed` (see `gen`).
pub fn inputs(w: &Workload) -> (Zipf, gen::Corpus, Vec<Vec<(usize, bool)>>) {
    let zipf = Zipf::new(w.n_images, gen::WORLD_SEED);
    let corpus = gen::corpus(gen::WORLD_SEED, w.n_images);
    let log = gen::log_sessions(gen::WORLD_SEED, &zipf, w.n_images, w.m_log);
    (zipf, corpus, log)
}

pub fn boot_stage(w: &Workload, timing: Timing, home: &Path, tag: &str) -> Result<Stage, String> {
    let start = Instant::now();
    let (zipf, corpus, log) = inputs(w);
    let wal_dir = w.durable.then(|| fresh_wal_dir(home, tag)).transpose()?;
    let server = sut::boot(
        corpus,
        &log,
        &BootSpec {
            shards: w.shards,
            workers: w.clients,
            timing,
            wal_dir: wal_dir.as_deref(),
        },
    )?;
    let conns = (0..w.clients)
        .map(|_| TcpConn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Stage {
        server,
        zipf,
        conns,
        build_s: start.elapsed().as_secs_f64(),
        wal_dir,
    })
}

/// Runs every client concurrently, each driving its own schedule stream
/// until `enough` says stop (checked between sessions: a session that has
/// started always runs to its close). Returns one tally per client.
fn drive_clients(
    stage: &mut Stage,
    w: &Workload,
    seed: u64,
    (stream, block): (u64, usize),
    enough: impl Fn(usize, Instant) -> bool + Sync,
) -> Vec<Tally> {
    let zipf = &stage.zipf;
    let enough = &enough;
    std::thread::scope(|scope| {
        let handles: Vec<_> = stage
            .conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let start = Instant::now();
                    let schedule =
                        Schedule::new(zipf, w.mix, seed, client, stream).with_block(block);
                    for (done, plan) in schedule.enumerate() {
                        if enough(done, start) {
                            break;
                        }
                        drive_session(conn, &plan, w.n_images, &mut tally);
                    }
                    tally.elapsed_s = start.elapsed().as_secs_f64();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The untimed warm-up; returns its tally (it still counts towards log
/// growth and failures) and how long it took.
pub fn warm_up(stage: &mut Stage, w: &Workload, seed: u64) -> (Tally, f64) {
    let start = Instant::now();
    // One whole stratified block: the same popularity mix on every seed.
    let stream = (STREAM_WARMUP, WARMUP_SESSIONS);
    let tallies = drive_clients(stage, w, seed, stream, |done, _| done >= WARMUP_SESSIONS);
    (merge(tallies).0, start.elapsed().as_secs_f64())
}

/// The timed phase: every client drives sessions for `seconds`. Returns
/// the merged tally and the closed-loop throughput Σ sessionsᵢ / elapsedᵢ.
pub fn timed(stage: &mut Stage, w: &Workload, seed: u64, seconds: f64) -> (Tally, f64) {
    let budget = Duration::from_secs_f64(seconds);
    let stream = (STREAM_TIMED, gen::BLOCK);
    merge(drive_clients(stage, w, seed, stream, |_, start| {
        start.elapsed() >= budget
    }))
}

fn merge(tallies: Vec<Tally>) -> (Tally, f64) {
    let mut all = Tally::default();
    let mut rate = 0.0;
    for t in tallies {
        rate += t.sessions as f64 / t.elapsed_s.max(1e-9);
        all.elapsed_s = all.elapsed_s.max(t.elapsed_s);
        all.absorb(t);
    }
    (all, rate)
}

/// The sessions both the served and the reference service replay: the
/// workload's own queries and schemes, one full round each.
fn check_plans(zipf: &Zipf, w: &Workload, seed: u64) -> Vec<SessionPlan> {
    Schedule::new(zipf, w.mix, seed, 0, STREAM_CHECK)
        .take(CHECK_SESSIONS)
        .map(|p| SessionPlan {
            rounds: 1,
            marks: SCREEN_SIZE,
            ..p
        })
        .collect()
}

fn first_pages<T: Transport>(
    t: &mut T,
    plans: &[SessionPlan],
    n_images: usize,
    tally: &mut Tally,
) -> Vec<Option<Vec<usize>>> {
    plans
        .iter()
        .map(|p| drive_session(t, p, n_images, tally))
        .collect()
}

/// Peak resident set of this process (the server runs in it), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one end-to-end run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty = correct).
    pub problems: Vec<String>,
    pub timed_wall_s: f64,
    /// Timed samples per request kind.
    pub op_counts: [usize; 5],
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    home: &Path,
) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut books = Tally::default();

    // `setup_s`: generate the inputs, build the service, boot the server
    // and connect, `setups` times; the median, so one slow page-fault
    // storm does not decide it. Only the last service is checked, warmed
    // up and measured.
    let mut build_times = Vec::new();
    let mut stage = boot_stage(w, Timing::Off, home, "e2e")?;
    build_times.push(stage.build_s);
    for _ in 1..setups {
        stage.discard()?;
        stage = boot_stage(w, Timing::Off, home, "e2e")?;
        build_times.push(stage.build_s);
    }
    // Before any concurrent traffic, while the log's evolution is still
    // reproducible by a sequential reference.
    let plans = check_plans(&stage.zipf, w, seed);
    let served_pages = first_pages(&mut stage.conns[0], &plans, w.n_images, &mut books);
    let (warm, warm_s) = warm_up(&mut stage, w, seed);
    books.absorb(warm);

    let (tally, sessions_per_s) = timed(&mut stage, w, seed, seconds);
    let rss = peak_rss_mb();

    // Everything below is checking, outside every measurement.
    let wal_dir = stage.wal_dir.clone();
    drop(stage.conns);
    let drained = stage.server.shutdown()?;
    let op_counts = tally.samples.each_ref().map(Vec::len);
    let timed_wall_s = tally.elapsed_s;
    let final_pages = tally.precision_n;
    let precision = tally.precision_sum / final_pages.max(1) as f64;
    let timings: Vec<Metric> = [
        ("open_p50_ms", 0),
        ("open_p95_ms", 0),
        ("rerank_p50_ms", 2),
        ("rerank_p95_ms", 2),
        // Close and mark latencies are ledger rows (client.*), not gated.
        // A close is an in-place append or a whole-store clone depending
        // on the other client's instant: its median flips between the two
        // modes, and the clone's tail (megabytes of fresh allocation) is
        // the first thing to move when the host gets busy. A ~10 us mark
        // is two thread wake-ups, which the host moves by a third between
        // minutes.
    ]
    .iter()
    .map(|&(name, kind)| Metric::timing(name, &tally.samples[kind]))
    .collect();
    books.absorb(tally);

    let logged = drained.n_sessions() as u64;
    if logged != w.m_log as u64 + books.judged_sessions || books.judged_sessions != books.flushed {
        problems.push(format!(
            "log went from {} to {logged} sessions, but {} sessions had an accepted judgment and {} closes reported a flush",
            w.m_log, books.judged_sessions, books.flushed
        ));
    }
    if let Some(dir) = &wal_dir {
        match sut::recover(dir, w.n_images) {
            Ok((recovered, _)) => {
                let acked = w.m_log as u64 + books.durable;
                if recovered.n_sessions() as u64 != acked {
                    problems.push(format!(
                        "WAL recovered {} sessions, {acked} were seeded or acknowledged durable",
                        recovered.n_sessions()
                    ));
                }
                if books.durable == books.flushed && recovered != drained {
                    problems.push("recovered log differs from the drained log".into());
                }
            }
            Err(e) => problems.push(e),
        }
        remove_dir(dir);
    }
    {
        let (_, corpus, log) = inputs(w);
        let mut reference = sut::reference(corpus, &log);
        let mut scratch = Tally::default();
        let expected = first_pages(&mut reference, &plans, w.n_images, &mut scratch);
        let compared = expected.iter().flatten().count();
        if expected != served_pages || compared != CHECK_SESSIONS {
            problems.push(format!(
                "served first-round pages differ from the single-shard reference ({compared} of {CHECK_SESSIONS} compared)"
            ));
        }
    }
    if books.failed > 0 {
        problems.extend(books.errors.iter().cloned());
    }

    let mut metrics = vec![
        // Without the warm-up: forty sessions whose cost hangs on which
        // few hot queries they drew repeat within +-40 %, a build within
        // +-10 %. The ledger reports the warm-up as client.warmup_s.
        Metric::new("setup_s", median(&build_times), "s").note(format!(
            "median of {setups} builds; the {warm_s:.2} s warm-up is not included"
        )),
        Metric::new("sessions_per_s", sessions_per_s, "1/s")
            .note(format!("{} clients, {:.1} s", w.clients, timed_wall_s)),
    ];
    metrics.extend(timings);
    metrics.push(
        Metric::new("precision_at_20", precision, "fraction")
            .note(format!("{final_pages} final pages")),
    );
    metrics.push(Metric::new("peak_rss_mb", rss, "MiB"));

    Ok(Outcome {
        metrics,
        attempted: books.attempted,
        failed: books.failed,
        problems,
        timed_wall_s,
        op_counts,
    })
}
