//! The traced run: the per-layer ledger. Two short TCP phases (stage
//! timers on, then off) give the registry counters and the tracing
//! overhead; an in-process single-threaded replay of the same schedule
//! records a span around every public call into each layer; fixed-count
//! probes cover the calls a request makes too briefly to see in a replay.

use crate::client::{drive_session, Op, Reply, Tally, TcpConn, Transport, KINDS};
use crate::e2e::{boot_stage, fresh_wal_dir, inputs, remove_dir, timed, warm_up, Outcome};
use crate::gen::{self, mix, Rng, Schedule};
use crate::report::Metric;
use crate::stats::{report, Spans};
use crate::sut::{self, Mirror, RoundFacts, Server, Shadow, Timing};
use crate::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of `--seconds` each phase gets.
const TCP_SHARE: f64 = 0.2;
const REPLAY_SHARE: f64 = 0.6;
/// The replay stops here even with time left (the trace file stays small).
const REPLAY_MAX_SESSIONS: usize = 1000;
/// The replay stratifies popularity over short blocks: on `log_heavy` it
/// gets through only ~20 sessions, which must still be a fair mix.
const REPLAY_BLOCK: usize = 20;
/// Request frames and pools kept for the wire and sparse-dot probes.
const FRAME_CAP: usize = 2000;
const POOL_CAP: usize = 64;

/// How many samples the fixed-count probes take.
struct ProbeSizes {
    pings: usize,
    timed_calls: usize,
    cow_records: usize,
    compactions: usize,
}

const FULL: ProbeSizes = ProbeSizes {
    pings: 1000,
    timed_calls: 210,
    cow_records: 30,
    compactions: 5,
};
const SMOKE: ProbeSizes = ProbeSizes {
    pings: 200,
    timed_calls: 40,
    cow_records: 5,
    compactions: 2,
};

/// `Service::handle` in-process, with the shadow layer calls after it.
struct Traced<'a> {
    server: &'a Server,
    shadow: &'a Shadow,
    spans: &'a mut Spans,
    mirror: Option<Mirror>,
    request: u64,
    frames: &'a mut Vec<String>,
    rounds: &'a mut Vec<RoundFacts>,
}

impl Transport for Traced<'_> {
    fn call(&mut self, op: &Op) -> Result<Reply, String> {
        self.request += 1;
        let request = self.request;
        if self.frames.len() < FRAME_CAP {
            self.frames.push(sut::encode_frame(op, request));
        }
        let name = match op {
            Op::Open { .. } => "service.handle.open",
            Op::Mark { .. } => "service.handle.mark",
            Op::Rerank { .. } => "service.handle.rerank",
            Op::Page { .. } => "service.handle.page",
            Op::Close { .. } => "service.handle.close",
            Op::Ping => "service.handle.ping",
        };
        let reply = self.spans.time(name, request, |_| self.server.handle(op));
        match *op {
            Op::Open { query, scheme } => {
                let shadow = self.shadow;
                self.mirror = Some(self.spans.time("shadow.open", request, |spans| {
                    shadow.open(query, scheme, request, spans)
                }));
            }
            Op::Mark {
                image, relevant, ..
            } => {
                if let Some(mirror) = &mut self.mirror {
                    self.shadow.mark(mirror, image, relevant);
                }
            }
            Op::Rerank { .. } => {
                if let Some(mirror) = &mut self.mirror {
                    let shadow = self.shadow;
                    let facts = self.spans.time("shadow.round", request, |spans| {
                        shadow.round(mirror, request, spans)
                    });
                    self.rounds.push(facts);
                }
            }
            _ => {}
        }
        Ok(reply)
    }
}

fn ping_probe(conn: &mut TcpConn, n: usize, tally: &mut Tally) -> Vec<f64> {
    let mut ns = Vec::with_capacity(n);
    for _ in 0..n {
        tally.attempted += 1;
        let start = Instant::now();
        match conn.call(&Op::Ping) {
            Ok(Reply::Pong) => ns.push(start.elapsed().as_nanos() as f64),
            other => {
                tally.failed += 1;
                tally.errors.push(format!("ping: {other:?}"));
            }
        }
    }
    ns
}

fn write_trace(path: &Path, workload: &str, seed: u64, spans: &Spans) -> Result<(), String> {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_time_us\": {{");
    let own: Vec<String> = spans
        .self_time_ns()
        .into_iter()
        .map(|(name, ns)| format!("\"{name}\": {}", ns as f64 / 1e3))
        .collect();
    out.push_str(&own.join(", "));
    out.push_str("}, \"spans\": [\n");
    for (id, s) in spans.all().iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            if id == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns,
            s.end_ns,
            s.request
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The ledger under construction, one line per metric.
struct Ledger(Vec<Metric>);

impl Ledger {
    fn timing(&mut self, name: &str, samples_ns: &[f64]) {
        self.0.push(Metric::timing(name, samples_ns));
    }

    fn value(&mut self, name: &str, value: f64, unit: &'static str) -> &mut Metric {
        self.0.push(Metric::new(name, value, unit));
        self.0.last_mut().expect("just pushed")
    }
}

fn per(total: u64, n: usize) -> f64 {
    total as f64 / n.max(1) as f64
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    home: &Path,
) -> Result<Outcome, String> {
    let sizes = if smoke { SMOKE } else { FULL };
    let mut books = Tally::default();
    let mut problems = Vec::new();

    // Phase A: stage timers on — registry counters, the lookup histogram.
    let mut a = boot_stage(w, Timing::On, home, "layers-a")?;
    let ping_ns = ping_probe(&mut a.conns[0], sizes.pings, &mut books);
    let (warm, _) = warm_up(&mut a, w, seed);
    books.absorb(warm);
    let before = a.server.counters();
    let (tally_a, rate_a) = timed(&mut a, w, seed, seconds * TCP_SHARE);
    let counted = a.server.counters().since(&before);
    let obs_snapshot_ns = a.server.snapshot_probe(sizes.timed_calls);
    let samples_a = tally_a.samples.each_ref().map(Vec::len);
    let sessions_a = tally_a.sessions as usize;
    books.absorb(tally_a);
    a.discard()?;

    // Phase B: stage timers off — the client-side reference for the
    // overhead figure and the ledger.
    let mut b = boot_stage(w, Timing::Off, home, "layers-b")?;
    let (warm, warmup_s) = warm_up(&mut b, w, seed);
    books.absorb(warm);
    let (mut tally_b, rate_b) = timed(&mut b, w, seed, seconds * TCP_SHARE);
    let timed_wall_s = tally_b.elapsed_s;
    let client_ns = std::mem::take(&mut tally_b.samples);
    books.absorb(tally_b);

    // Replay: the timed schedule of client 0, in-process, one span per
    // public call.
    let (_, corpus, log) = inputs(w);
    let shadow = Shadow::new(corpus, &log, w.shards);
    let mut spans = Spans::default();
    let mut frames = Vec::new();
    let mut rounds = Vec::new();
    let mut replayed = 0usize;
    let mut replay_tally = Tally::default();
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let start = Instant::now();
    let schedule = Schedule::new(&b.zipf, w.mix, seed, 0, 0).with_block(REPLAY_BLOCK);
    for plan in schedule.take(REPLAY_MAX_SESSIONS) {
        if start.elapsed() >= budget {
            break;
        }
        let session = replayed as u64;
        spans.time("session", session, |spans| {
            let mut traced = Traced {
                server: &b.server,
                shadow: &shadow,
                spans,
                mirror: None,
                request: session << 16,
                frames: &mut frames,
                rounds: &mut rounds,
            };
            drive_session(&mut traced, &plan, w.n_images, &mut replay_tally);
        });
        replayed += 1;
    }
    // The replay's tally times shadow work too; only its books count.
    replay_tally.samples = Default::default();
    books.absorb(replay_tally);

    // Fixed-count probes.
    let parse_ns = sut::parse_probe(&frames);
    let render_ns = b.server.render_probe();
    let snapshot_ns = shadow.snapshot_probe(sizes.timed_calls);
    let mut rng = Rng::new(mix(seed, 0xd07));
    let pools: Vec<&Vec<usize>> = rounds.iter().take(POOL_CAP).map(|r| &r.pool).collect();
    let pairs: Vec<(usize, usize)> = if pools.is_empty() {
        Vec::new()
    } else {
        (0..FRAME_CAP)
            .map(|_| {
                let pool = pools[rng.below(pools.len())];
                (pool[rng.below(pool.len())], pool[rng.below(pool.len())])
            })
            .collect()
    };
    let dot_ns = shadow.dot_probe(&pairs);
    let fresh = gen::log_sessions(
        mix(seed, 0x9e0),
        &b.zipf,
        w.n_images,
        2 * sizes.timed_calls + sizes.cow_records,
    );
    let (idle, rest) = fresh.split_at(sizes.timed_calls);
    let (cow, appends) = rest.split_at(sizes.cow_records);
    let (record_idle_ns, record_cow_ns) = shadow.record_probe(idle, cow);
    let probe_dir = fresh_wal_dir(home, "probe")?;
    let storage = shadow.storage_probe(&probe_dir, appends, sizes.compactions);
    remove_dir(&probe_dir);
    let storage = storage?;

    b.discard()?;
    write_trace(
        &home.join("results").join(format!("trace-{}.json", w.name)),
        w.name,
        seed,
        &spans,
    )?;

    if books.failed > 0 {
        problems.extend(books.errors.iter().cloned());
    }
    if replayed == 0 {
        problems.push("the replay ran no session".into());
    }

    // The ledger.
    let span = |name: &str| spans.durations(name);
    let p50 = |samples: &[f64]| report(samples, 0.5).value;
    let mut l = Ledger(Vec::new());
    l.timing("service.net.ping_p50_us", &ping_ns);
    l.timing("service.wire.parse_p50_us", &parse_ns);
    l.timing("service.wire.render_p50_us", &render_ns);
    let mut busy_ns = 0.0;
    for kind in KINDS {
        let handled = span(&format!("service.handle.{kind}"));
        l.timing(&format!("service.handle.{kind}_p50_us"), &handled);
        busy_ns += handled.iter().sum::<f64>();
    }
    l.value(
        "service.handle.busy_ms_per_session",
        busy_ns / 1e6 / replayed.max(1) as f64,
        "ms",
    )
    .note = format!("{replayed} sessions replayed");
    l.timing("service.shard.search_p50_us", &span("service.shard.search"));
    l.timing(
        "service.shard.scatter_p50_us",
        &span("service.shard.scatter"),
    );
    l.value(
        "service.shard.jobs_per_session",
        per(counted.shard_jobs, sessions_a),
        "count",
    );
    l.value(
        "service.sessions.lookup_p50_ns",
        counted.lookup_p50_ns as f64,
        "ns",
    );
    l.timing("index.rank_full_p50_us", &span("index.rank_full"));
    l.timing("index.search_pool_p50_us", &span("index.search_pool"));
    let queries = samples_a[0] + samples_a[2];
    l.value(
        "index.distance_evals_per_query",
        per(counted.distance_evals, queries),
        "count",
    );
    l.timing("index.merge_p50_us", &span("index.merge"));
    l.timing("core.fit_p50_us", &span("core.fit"));
    l.timing("core.fit_p95_us", &span("core.fit"));
    l.timing("core.score_p50_us", &span("core.score"));
    l.timing("core.rerank_p50_us", &span("core.rerank"));
    l.timing("svm.train_p50_us", &span("svm.train"));
    let reranks = samples_a[2];
    l.value(
        "svm.smo_iterations_per_round",
        per(counted.smo_iterations, reranks),
        "count",
    );
    let row_reads = (counted.cache_hits + counted.cache_misses) as usize;
    l.value(
        "svm.kernel_cache_hit_ratio",
        per(counted.cache_hits, row_reads),
        "ratio",
    );
    l.value(
        "svm.nonconverged_rate",
        per(counted.nonconverged, reranks),
        "ratio",
    );
    l.timing("logdb.snapshot_p50_ns", &snapshot_ns);
    l.timing("logdb.gather_p50_us", &span("logdb.gather"));
    let pool_nnz: usize = rounds.iter().map(|r| r.pool_nnz).sum();
    l.value(
        "logdb.pool_nnz_mean",
        per(pool_nnz as u64, rounds.len()),
        "count",
    );
    l.timing("logdb.sparse_dot_p50_ns", &dot_ns);
    l.timing("logdb.record_idle_p50_us", &record_idle_ns);
    l.timing("logdb.record_cow_p50_us", &record_cow_ns);
    let appends = counted.log_appends as usize;
    l.value(
        "logdb.cow_clone_ratio",
        per(counted.log_cow_clones, appends),
        "ratio",
    );
    l.value("logdb.store_nnz", shadow.store_nnz() as f64, "count");
    l.timing("storage.wal_append_p50_us", &storage.append_ns);
    l.timing("storage.wal_append_p95_us", &storage.append_ns);
    l.value(
        "storage.wal_bytes_per_session",
        storage.bytes_per_session,
        "B",
    );
    l.value(
        "storage.compactions",
        counted.wal_compactions as f64,
        "count",
    );
    l.timing("storage.compact_p50_ms", &storage.compact_ns);
    l.value("storage.recovery_s", storage.recovery_s, "s");
    l.value("cbir.db_build_s", shadow.db_build_s, "s");
    l.value(
        "obs.trace_overhead_pct",
        (rate_b - rate_a) / rate_b.max(1e-9) * 100.0,
        "%",
    )
    .note = format!("{rate_a:.2} sessions/s timed, {rate_b:.2} untimed");
    l.timing("obs.snapshot_p50_us", &obs_snapshot_ns);
    let handle_rerank = p50(&span("service.handle.rerank"));
    let transport = p50(&client_ns[2]) - p50(&ping_ns) - handle_rerank;
    l.value("ledger.unaccounted_rerank_us", transport / 1e3, "us");
    let staged: f64 = [
        "index.search_pool",
        "logdb.snapshot",
        "core.fit",
        "core.score",
    ]
    .iter()
    .map(|name| p50(&span(name)))
    .sum();
    l.value(
        "ledger.unaccounted_handle_us",
        (handle_rerank - staged) / 1e3,
        "us",
    );
    l.timing("client.rerank_p99_ms", &client_ns[2]);
    l.timing("client.close_p50_ms", &client_ns[4]);
    l.timing("client.close_p95_ms", &client_ns[4]);
    l.timing("client.mark_p50_us", &client_ns[1]);
    l.value("client.warmup_s", warmup_s, "s");
    for (kind, samples) in KINDS.iter().zip(&client_ns) {
        l.value(
            &format!("client.samples.{kind}"),
            samples.len() as f64,
            "count",
        );
    }
    l.value(
        "client.error_rate",
        per(books.failed, books.attempted as usize),
        "ratio",
    );
    let op_counts = client_ns.each_ref().map(Vec::len);

    Ok(Outcome {
        metrics: l.0,
        attempted: books.attempted,
        failed: books.failed,
        problems,
        timed_wall_s,
        op_counts,
    })
}
