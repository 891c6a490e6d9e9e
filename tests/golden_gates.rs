//! Golden gates: what the service *spends* per request, pinned as counts.
//!
//! The workspace used to hold two of these budgets as wall-clock ratios
//! between micro-benchmarks, enforceable only on a multi-core runner:
//! "the instrumented service stays within 5 % of the counters-only build"
//! and "a durably acknowledged close costs at most half again a volatile
//! one". A ratio of two timings is noise on a shared machine; the thing it
//! stood for is not. The observability layer costs clock reads, the WAL
//! costs storage calls, and both are exact functions of the request:
//!
//! * every `Clock::now_ns` read one request of each kind makes, and the
//!   guarantee that the untimed build makes none and records no latency;
//! * every storage call a close makes on a durable service — none for an
//!   empty session, a fixed handful for a judged one, and the one-off
//!   bill of the close that crosses `compact_segments`.
//!
//! A change that adds a span, a retry or a sync to the request path moves
//! a literal here on every machine, one core or sixty-four. Moving one on
//! purpose (request-scoped tracing will) is an edit to this file made in
//! the open; moving one by accident is a failing tier-1 test. The third
//! budget of that family, "a warm-started retrain beats a cold one", is
//! pinned by `golden_solver.rs` (18 SMO iterations against 67).
//!
//! The values were captured from the code as it stood before the
//! micro-benchmarks were retired. A failing assertion prints the observed
//! value in the literal's own syntax.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corelog::cbir::{build_flat_index, collect_log, CorelDataset, CorelSpec, ImageDatabase};
use corelog::core::{LrfConfig, SchemeKind};
use corelog::logdb::{LogStore, SimulationConfig};
use corelog::obs::{Clock, ManualClock};
use corelog::service::{
    DurabilityConfig, Request, Response, Service, ServiceConfig, ServiceMetrics,
};
use corelog::storage::{FaultIo, FaultPlan, MemIo};

/// A clock that counts how often it is asked the time. Each read returns
/// the number of reads before it, so it is monotone like any other clock.
#[derive(Default)]
struct CountingClock {
    reads: AtomicU64,
}

impl CountingClock {
    fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }
}

impl Clock for CountingClock {
    fn now_ns(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::SeqCst)
    }
}

fn corpus() -> (ImageDatabase, LogStore) {
    let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
    let log = collect_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 20,
            judged_per_session: 8,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 23,
        },
    );
    (ds.db, log)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        max_sessions: 16,
        ttl_requests: 0,
        screen_size: 8,
        pool_size: 30,
        lrf: LrfConfig {
            n_unlabeled: 8,
            ..LrfConfig::default()
        },
    }
}

/// A one-shard service: the shard worker times its own stages on the same
/// injected clock, and finishes each span before it replies, so its reads
/// land inside the request that caused them.
fn service(metrics: ServiceMetrics) -> Service {
    let (db, log) = corpus();
    Service::sharded_with_metrics(db, log, 1, config(), metrics)
}

const QUERY: usize = 5;

/// One LRF-CSVM session — open, judge the whole first screen, rerank, read
/// a page, close — then `Ping` and `Metrics`. Calls `after` with the
/// request's kind once each response is in hand.
fn drive_session(svc: &Service, mut after: impl FnMut(&'static str)) {
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query: QUERY,
        scheme: SchemeKind::LrfCsvm,
    }) else {
        panic!("open failed")
    };
    after("open");
    assert_eq!(screen.len(), 8);
    for &image in &screen {
        let marked = svc.handle(Request::Mark {
            session,
            image,
            relevant: svc.db().same_category(image, QUERY),
        });
        assert!(matches!(marked, Response::Marked { .. }), "{marked:?}");
        after("mark");
    }
    let reranked = svc.handle(Request::Rerank { session });
    assert!(
        matches!(
            reranked,
            Response::Reranked {
                converged: true,
                ..
            }
        ),
        "{reranked:?}"
    );
    after("rerank");
    let page = svc.handle(Request::Page {
        session,
        offset: 8,
        count: 8,
    });
    assert!(matches!(page, Response::Page { .. }), "{page:?}");
    after("page");
    let closed = svc.handle(Request::Close { session });
    assert!(
        matches!(
            closed,
            Response::Closed {
                log_session: Some(20),
                ..
            }
        ),
        "{closed:?}"
    );
    after("close");
    assert!(matches!(svc.handle(Request::Ping), Response::Pong { .. }));
    after("ping");
    assert!(matches!(
        svc.handle(Request::Metrics),
        Response::Metrics { .. }
    ));
    after("metrics");
}

/// Requests `drive_session` issues: 1 open + 8 marks + rerank + page +
/// close + ping + metrics.
const REQUESTS: u64 = 14;

/// The observability budget: the timed build reads the clock exactly this
/// often per request — one span around `handle`, one around each stage the
/// request passes through, one per shard job.
#[test]
fn timed_service_reads_the_clock_a_fixed_number_of_times_per_request() {
    let clock = Arc::new(CountingClock::default());
    let svc = service(ServiceMetrics::with_clock(clock.clone()));
    assert_eq!(clock.reads(), 0, "building a service reads no clock");

    let mut seen = 0u64;
    let mut per_kind: Vec<(&'static str, u64)> = Vec::new();
    drive_session(&svc, |kind| {
        let now = clock.reads();
        per_kind.push((kind, now - seen));
        seen = now;
    });
    // Eight marks, eight identical bills.
    per_kind.dedup();

    assert_eq!(
        per_kind,
        [
            ("open", 8),
            ("mark", 4),
            // 6, not 8: a rerank scores its pool on the session thread, so
            // the shard score job's span went (12 → 8 when it stopped
            // searching).
            ("rerank", 6),
            ("page", 4),
            ("close", 6),
            ("ping", 2),
            ("metrics", 2),
        ]
    );
    // 60, not 62: the rerank's shard score job went (66 → 62 with its
    // search).
    assert_eq!(clock.reads(), 60);

    // Every pair of reads is one span and left one sample: the books
    // balance against the histograms. (This snapshot is taken after the
    // Metrics request's own span closed, so that span is in it.)
    let snapshot = svc.metrics_snapshot();
    let samples: u64 = snapshot.histograms.iter().map(|h| h.histogram.count).sum();
    assert_eq!(samples * 2, clock.reads());
    assert_eq!(
        snapshot.histogram("request_latency_ns").map(|h| h.count),
        Some(REQUESTS)
    );
}

/// The other half of the budget: `ServiceMetrics::disabled()` is a build
/// with no clock reads to pay for — same session, same counters, not one
/// latency sample anywhere, the shard worker's histograms included.
#[test]
fn untimed_service_counts_requests_and_records_no_latency() {
    let svc = service(ServiceMetrics::disabled());
    assert!(svc.metrics().clock_ref().is_none());
    drive_session(&svc, |_| {});

    let snapshot = svc.metrics_snapshot();
    assert_eq!(snapshot.counter("requests_total"), Some(REQUESTS));
    assert_eq!(snapshot.counter("flushed_sessions_total"), Some(1));
    assert!(snapshot.counter("smo_iterations_total").unwrap_or(0) > 0);
    let names: Vec<&str> = snapshot
        .histograms
        .iter()
        .map(|h| h.name.as_str())
        .collect();
    for expected in [
        "request_latency_ns",
        "stage_session_lookup_ns",
        "stage_retrain_ns",
        "stage_scoring_ns",
        "stage_flush_ns",
        "shard0_search_ns",
    ] {
        assert!(names.contains(&expected), "{expected} missing: {names:?}");
    }
    for h in &snapshot.histograms {
        assert_eq!(h.histogram.count, 0, "{} recorded a latency", h.name);
    }
}

/// The work counters `work_counters_move_by_a_fixed_amount_per_request`
/// pins, in the order of its table's columns.
const WORK_COUNTERS: [&str; 9] = [
    "shard_jobs_total",
    "ann_distance_evals_total",
    "smo_iterations_total",
    "kernel_cache_hits_total",
    "kernel_cache_misses_total",
    "log_snapshots_total",
    "log_appends_total",
    "log_cow_clones_total",
    "flushed_sessions_total",
];

/// The work budget: what each request kind makes the service *do*, as the
/// change in its work counters — shard jobs, distance evaluations, SMO
/// iterations, kernel-row cache traffic, log snapshots and writes, flushes.
/// Unlike a wall-clock A/B these are exact on every machine. A change meant
/// to cut work moves the literal it names; a refactor leaves every row as
/// it stands.
#[test]
fn work_counters_move_by_a_fixed_amount_per_request() {
    let svc = service(ServiceMetrics::disabled());
    let read = |svc: &Service| {
        let snapshot = svc.metrics_snapshot();
        WORK_COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
    };
    let mut seen = read(&svc);
    let mut per_kind: Vec<(&'static str, [u64; 9])> = Vec::new();
    drive_session(&svc, |kind| {
        let now = read(&svc);
        per_kind.push((kind, std::array::from_fn(|i| now[i] - seen[i])));
        seen = now;
    });
    // Eight marks, eight identical (empty) bills.
    per_kind.dedup();

    // Columns: shard jobs, distance evals, SMO iterations, cache hits,
    // cache misses, log snapshots, log appends, COW clones, flushes.
    assert_eq!(
        per_kind,
        [
            // One search job on the one shard, scanning all 48 images.
            ("open", [1, 48, 0, 0, 0, 0, 0, 0, 0]),
            ("mark", [0; 9]),
            // The coupled fit and its scoring run on the session thread
            // against one log snapshot: no shard job, no index scan.
            // Every row the solver reads is served from the session's row
            // blocks (`two_rounds` pins the blocks' own bill): no misses.
            ("rerank", [0, 0, 160, 781, 0, 1, 0, 0, 0]),
            ("page", [0; 9]),
            // One append into the log; no snapshot is held, so no copy.
            ("close", [0, 0, 0, 0, 0, 0, 1, 0, 1]),
            ("ping", [0; 9]),
            ("metrics", [0; 9]),
        ]
    );
}

/// Two LRF-CSVM rounds of one session: the first screen judged, a
/// rerank, then three more pool images judged and one from past the pool
/// (it joins the round's universe), and a second rerank. When
/// `close_between`, another session judges four images and closes between
/// the rounds, so the log records a session and the second round's log
/// rows of the images it judged are stale. Returns each rerank's block
/// rows computed, block rows carried, and content and log kernel values
/// evaluated.
fn two_rounds(close_between: bool) -> [[u64; 4]; 2] {
    let svc = service(ServiceMetrics::disabled());
    let rows = |svc: &Service| {
        let snapshot = svc.metrics_snapshot();
        [
            "block_rows_computed_total",
            "block_rows_carried_total",
            "content_kernel_evals_total",
            "log_kernel_evals_total",
        ]
        .map(|name| snapshot.counter(name).unwrap_or(0))
    };
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query: QUERY,
        scheme: SchemeKind::LrfCsvm,
    }) else {
        panic!("open failed")
    };
    let mark = |image: usize| {
        let relevant = svc.db().same_category(image, QUERY);
        let marked = svc.handle(Request::Mark {
            session,
            image,
            relevant,
        });
        assert!(matches!(marked, Response::Marked { .. }), "{marked:?}");
    };
    screen.iter().for_each(|&image| mark(image));
    let mut per_round = [[0; 4]; 2];
    let mut seen = rows(&svc);
    for (round, counts) in per_round.iter_mut().enumerate() {
        let reranked = svc.handle(Request::Rerank { session });
        assert!(
            matches!(reranked, Response::Reranked { .. }),
            "{reranked:?}"
        );
        let now = rows(&svc);
        *counts = std::array::from_fn(|i| now[i] - seen[i]);
        seen = now;
        if round == 0 {
            if close_between {
                assert_eq!(close_after(&svc, QUERY + 1, 4).0, Some(20));
            }
            let pool = config().pool_size;
            let Response::Page { ids, .. } = svc.handle(Request::Page {
                session,
                offset: 0,
                count: pool + 1,
            }) else {
                panic!("page failed")
            };
            let fresh = ids[..pool].iter().filter(|id| !screen.contains(id));
            fresh
                .take(3)
                .chain([&ids[pool]])
                .for_each(|&image| mark(image));
        }
    }
    per_round
}

/// The row blocks' bill: what each LRF-CSVM rerank computes into its
/// session's row blocks, what it finds there (both views together), and
/// the kernel values each view evaluates. The blocks serve the solver's
/// row stores, so these are all the kernel values a rerank costs: step 1
/// computes the labeled images' rows, the anneal the `N'` pool's, and the
/// final score finds every row resident. A second round carries every row
/// still valid. A close between the rounds records a session, so the
/// second round drops the log rows of the images it judged and patches
/// their columns into the rest. The solver's own counters (iterations,
/// row-store hits and misses) are pinned per request by
/// `work_counters_move_by_a_fixed_amount_per_request`.
#[test]
fn row_blocks_carry_rows_between_rounds_until_the_log_moves() {
    // Round 1 computes 32 rows, 8 labeled and 8 pooled per view, each over
    // the 30-image universe (480 values per view). It finds 62: the 16
    // labeled rows again when the stores grow, and every support vector's
    // row for the two scores. Round 2 computes the rows of the 6 new
    // training images per view over the 31-image universe (186 values)
    // and gives the 16 rows it carries the column of the mark from past
    // the pool (16 values).
    assert_eq!(two_rounds(false), [[32, 62, 480, 480], [12, 114, 202, 202]]);
    // A close between the rounds: one more log row computed (a carried
    // row the new session judged; 31 values), and its 3 judged universe
    // members' columns patched into the 15 log rows kept (45 values).
    assert_eq!(two_rounds(true), [[32, 62, 480, 480], [13, 115, 202, 277]]);
}

const WAL_DIR: &str = "/srv/feedback-wal";

/// Opens a session, marks `marks` images of its first screen, closes it,
/// and returns the `(log_session, durable)` of the ack.
fn close_after(svc: &Service, query: usize, marks: usize) -> (Option<usize>, bool) {
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    for &image in screen.iter().take(marks) {
        let _ = svc.handle(Request::Mark {
            session,
            image,
            relevant: svc.db().same_category(image, query),
        });
    }
    match svc.handle(Request::Close { session }) {
        Response::Closed {
            log_session,
            durable,
            ..
        } => (log_session, durable),
        other => panic!("close failed: {other:?}"),
    }
}

/// The durability tax: what a close costs in storage calls. Every segment
/// holds one session here (`segment_bytes: 1`), so the fourth judged close
/// is the one that finds `compact_segments` segments started and pays for
/// the snapshot too.
#[test]
fn durable_close_costs_a_fixed_number_of_storage_calls() {
    let probe = FaultIo::handle(MemIo::handle(), FaultPlan::new());
    let (db, seed) = corpus();
    let index = Box::new(build_flat_index(&db));
    let (svc, _) = Service::with_durability_metrics(
        db,
        index,
        probe.clone(),
        Path::new(WAL_DIR),
        seed,
        config(),
        DurabilityConfig {
            segment_bytes: 1,
            compact_segments: 4,
            ..DurabilityConfig::default()
        },
        ServiceMetrics::with_clock(ManualClock::shared()),
    )
    .expect("durable service must open");

    let mut seen = probe.ops();
    let mut ops_of = |what: (Option<usize>, bool)| {
        let now = probe.ops();
        let delta = now - seen;
        seen = now;
        (what.0, what.1, delta)
    };

    // Nothing judged, nothing to make durable, nothing spent.
    assert_eq!(ops_of(close_after(&svc, 1, 0)), (None, true, 0));
    // A durable ack is one append and one sync; rotating to a fresh
    // segment is free until that append creates the file.
    assert_eq!(ops_of(close_after(&svc, 2, 4)), (Some(20), true, 2));
    assert_eq!(ops_of(close_after(&svc, 3, 4)), (Some(21), true, 2));
    assert_eq!(ops_of(close_after(&svc, 4, 4)), (Some(22), true, 2));
    // The close that crosses `compact_segments` pays the same 2, then the
    // snapshot's write + sync + rename, one directory listing, and the
    // removal of the four segments and the seed snapshot it retired.
    assert_eq!(ops_of(close_after(&svc, 5, 4)), (Some(23), true, 11));
    // And back to 2 in the new epoch.
    assert_eq!(ops_of(close_after(&svc, 6, 4)), (Some(24), true, 2));
    assert_eq!(ops_of(close_after(&svc, 7, 4)), (Some(25), true, 2));

    let snapshot = svc.metrics_snapshot();
    assert_eq!(snapshot.counter("wal_appends_total"), Some(6));
    assert_eq!(snapshot.counter("wal_compactions_total"), Some(1));
    assert_eq!(snapshot.counter("wal_retries_total"), Some(0));
}
