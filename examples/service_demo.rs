//! Service demo: the multi-session feedback service end to end.
//!
//! ```sh
//! cargo run --release --example service_demo
//! ```
//!
//! Builds a synthetic corpus with an initial feedback log, starts the
//! service, drives several users concurrently (each a full open → judge →
//! retrain → close loop on its own thread), reads the live metrics
//! endpoint back out through JSON (asserting it is well-formed,
//! so CI runs this demo as an observability smoke), and prints how the
//! shared log grew — the paper's loop, live: every finished session
//! becomes log evidence for the next user's coupled SVM.

use corelog::cbir::{build_flat_index, collect_log, CorelDataset, CorelSpec};
use corelog::core::{LrfConfig, SchemeKind};
use corelog::logdb::SimulationConfig;
use corelog::obs::{Clock, MonotonicClock};
use corelog::service::{
    DurabilityConfig, Request, Response, Service, ServiceConfig, ServiceMetrics,
};
use corelog::storage::MemIo;

fn main() {
    // 1. Corpus: 6 categories × 30 images + a simulated historical log.
    println!("building corpus (6 categories x 30 images) ...");
    let ds = CorelDataset::build(CorelSpec::tiny(6, 30, 7));
    let log = collect_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 40,
            judged_per_session: 15,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 11,
        },
    );
    println!(
        "  {} images, {} historical log sessions",
        ds.db.len(),
        log.n_sessions()
    );

    // 2. The service: one shared database + log, searched and scored by a
    //    one-shard engine (the worker thread scans the database's rows).
    let svc = Service::new(
        ds.db,
        log,
        ServiceConfig {
            screen_size: 10,
            pool_size: 60,
            lrf: LrfConfig {
                n_unlabeled: 10,
                ..LrfConfig::default()
            },
            ..ServiceConfig::default()
        },
    );

    // 3. Four users, four threads, one service. Each runs the paper's
    //    loop: judge the initial screen, retrain (LRF-CSVM), judge the
    //    refined screen, retrain again, close (flushing into the log).
    let queries = [4usize, 40, 77, 130];
    println!("driving {} concurrent user sessions ...", queries.len());
    let clock = MonotonicClock::new();
    std::thread::scope(|scope| {
        for &query in &queries {
            let svc = &svc;
            scope.spawn(move || {
                let Response::Opened { session, screen } = svc.handle(Request::Open {
                    query,
                    scheme: SchemeKind::LrfCsvm,
                }) else {
                    panic!("open failed")
                };
                for round in 0..2 {
                    let ids = if round == 0 {
                        screen.clone()
                    } else {
                        match svc.handle(Request::Page {
                            session,
                            offset: 0,
                            count: 20,
                        }) {
                            Response::Page { ids, .. } => ids,
                            other => panic!("page failed: {other:?}"),
                        }
                    };
                    for id in ids {
                        let _ = svc.handle(Request::Mark {
                            session,
                            image: id,
                            relevant: svc.db().same_category(id, query),
                        });
                    }
                    let Response::Reranked { page, round, .. } =
                        svc.handle(Request::Rerank { session })
                    else {
                        panic!("rerank failed")
                    };
                    let hits = page
                        .iter()
                        .filter(|&&id| svc.db().same_category(id, query))
                        .count();
                    println!(
                        "  user(query {query:>3}) round {round}: top-{} precision {:.2}",
                        page.len(),
                        hits as f64 / page.len() as f64
                    );
                }
                svc.handle(Request::Close { session });
            });
        }
    });
    println!(
        "  all sessions closed in {:.1} ms",
        clock.now_ns() as f64 / 1e6
    );

    // 4. The live metrics endpoint: a full registry snapshot that
    //    round-trips through JSON, and the typed API renders a Prometheus
    //    page. Asserted well-formed so this demo doubles as the CI smoke
    //    for the observability layer.
    let body =
        serde_json::to_string(&svc.handle(Request::Metrics)).expect("metrics response serializes");
    let parsed: Response =
        serde_json::from_str(&body).expect("metrics endpoint returned invalid JSON");
    let Response::Metrics { snapshot } = parsed else {
        panic!("metrics endpoint returned a non-Metrics response: {body}")
    };
    let requests = snapshot
        .counter("requests_total")
        .expect("requests_total registered");
    let retrains = snapshot
        .histogram("stage_retrain_ns")
        .expect("retrain histogram registered");
    assert!(
        requests > 0 && retrains.count > 0,
        "a driven service must have recorded requests and retrains"
    );
    println!("metrics endpoint:");
    println!(
        "  requests_total {requests}; {} retrains (p50 {:.2} ms, p99 {:.2} ms)",
        retrains.count,
        retrains.p50() as f64 / 1e6,
        retrains.p99() as f64 / 1e6,
    );
    let page = svc.metrics_prometheus();
    assert!(
        page.lines()
            .any(|l| l == "# TYPE request_latency_ns histogram"),
        "Prometheus page must type the latency histogram"
    );
    assert!(
        page.contains("request_latency_ns_bucket{le=\"+Inf\"}"),
        "histogram series must be capped by a +Inf bucket"
    );
    println!(
        "  prometheus page: {} lines, {} bytes",
        page.lines().count(),
        page.len()
    );

    // 5. The log grew by one session per closed user session: tomorrow's
    //    queries train on today's feedback.
    let log = svc.into_log();
    println!(
        "final log: {} sessions ({} judged images, {} judgments)",
        log.n_sessions(),
        log.n_judged_images(),
        log.nnz()
    );

    // 6. Crash safety. The same service rebuilt over a checksummed WAL on
    //    an in-memory disk with a power-cut model: a `Close` is only
    //    acknowledged as durable once the flush is fsynced, so judgments
    //    from acknowledged sessions survive the cut and feed recovery.
    println!("crash-recovery:");
    let spec = CorelSpec::tiny(4, 12, 19);
    let sim = SimulationConfig {
        n_sessions: 8,
        judged_per_session: 6,
        rounds_per_query: 2,
        noise: 0.1,
        seed: 5,
    };
    let ds = CorelDataset::build(spec.clone());
    let seed = collect_log(&ds.db, &sim);
    let index = Box::new(build_flat_index(&ds.db));
    let mem = MemIo::handle();
    let dir = std::path::Path::new("/srv/feedback-wal");

    let (svc, recovery) = Service::with_durability_metrics(
        ds.db,
        index,
        mem.clone(),
        dir,
        seed,
        ServiceConfig::default(),
        DurabilityConfig::default(),
        ServiceMetrics::new(),
    )
    .expect("empty in-memory disk must open cleanly");
    assert!(
        recovery.seeded,
        "an empty directory is seeded, not replayed"
    );
    let Response::Stats { log_sessions, .. } = svc.handle(Request::Stats) else {
        panic!("stats failed")
    };
    println!("  fresh WAL seeded with {log_sessions} historical sessions");

    // One user session: judge a few images and close. The ack carries the
    // durability of the flush.
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query: 3,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    for &id in screen.iter().take(5) {
        let _ = svc.handle(Request::Mark {
            session,
            image: id,
            relevant: svc.db().same_category(id, 3),
        });
    }
    let Response::Closed {
        log_session,
        durable,
        ..
    } = svc.handle(Request::Close { session })
    else {
        panic!("close failed")
    };
    assert!(durable, "a healthy disk must acknowledge a durable flush");
    println!(
        "  session closed: log session {:?}, durable = {durable}",
        log_session
    );

    // Power cut: everything not yet fsynced is gone.
    drop(svc);
    mem.crash();

    // Recovery replays the WAL: the acknowledged session is still there.
    let ds = CorelDataset::build(spec.clone());
    let index = Box::new(build_flat_index(&ds.db));
    let (svc, recovery) = Service::with_durability_metrics(
        ds.db,
        index,
        mem.clone(),
        dir,
        collect_log(&CorelDataset::build(spec.clone()).db, &sim), // ignored: disk wins
        ServiceConfig::default(),
        DurabilityConfig::default(),
        ServiceMetrics::new(),
    )
    .expect("recovery after a clean power cut must succeed");
    assert!(
        !recovery.seeded,
        "a non-empty directory replays, never seeds"
    );
    println!(
        "  after power cut: recovered {} sessions ({} replayed from the WAL, \
         {} torn records truncated)",
        recovery.recovered_sessions, recovery.replayed_sessions, recovery.truncated_records
    );
    let Response::Stats { log_sessions, .. } = svc.handle(Request::Stats) else {
        panic!("stats failed")
    };
    assert_eq!(
        log_sessions, 9,
        "8 seeded + 1 acknowledged session must survive the crash"
    );
    println!("  the acknowledged judgment set survived the crash");
}
