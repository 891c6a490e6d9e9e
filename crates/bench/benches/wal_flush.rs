//! Criterion bench: the durable flush path.
//!
//! Measures the complete close-path session (open → judge → close) with
//! the flush landing (a) in the in-memory log only — the volatile
//! baseline — and (b) through the checksummed WAL on `MemIo` with an
//! fsync before the acknowledgement. `tools/bench_check.sh` gates CI on
//! the durable path staying within the documented margin of the
//! volatile one (`WAL_MARGIN_PCT`): durability must stay a bounded tax
//! on the ack, not a rewrite of the latency budget.
//!
//! Also reports the service's own `stage_durable_flush_ns` percentiles
//! in the `bench … ns/iter` line format, so the flush-durability stage
//! lands in BENCH_latency.json next to the other stage latencies.
//!
//! Set `BENCH_QUICK=1` for the CI smoke configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use lrf_cbir::{build_flat_index, collect_log, CorelDataset, CorelSpec};
use lrf_core::{LrfConfig, SchemeKind};
use lrf_logdb::SimulationConfig;
use lrf_service::{DurabilityConfig, Request, Response, Service, ServiceConfig, ServiceMetrics};
use lrf_storage::MemIo;
use std::hint::black_box;
use std::path::Path;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

fn build_corpus() -> (lrf_cbir::ImageDatabase, lrf_logdb::LogStore) {
    let (categories, per_category) = if quick() { (4, 12) } else { (8, 40) };
    let ds = CorelDataset::build(CorelSpec::tiny(categories, per_category, 19));
    let log = collect_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 30,
            judged_per_session: 10,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 23,
        },
    );
    (ds.db, log)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_sessions: 256,
        ttl_requests: 0,
        screen_size: 10,
        pool_size: 60,
        lrf: LrfConfig {
            n_unlabeled: 8,
            ..LrfConfig::default()
        },
    }
}

fn durable_service(db: lrf_cbir::ImageDatabase, log: lrf_logdb::LogStore) -> Service {
    let index = Box::new(build_flat_index(&db));
    let (svc, _) = Service::with_durability_metrics(
        db,
        index,
        MemIo::io_ref(),
        Path::new("/srv/feedback-wal"),
        log,
        service_config(),
        DurabilityConfig {
            // Auto-compaction rewrites a full snapshot every N segments —
            // an amortized cost that would spike individual samples. Off
            // here so every iteration pays the same per-close WAL price.
            compact_segments: 0,
            ..DurabilityConfig::default()
        },
        ServiceMetrics::new(),
    )
    .expect("durable service over a fresh MemIo must open");
    svc
}

/// The close-path session: open, judge the screen, close. No rerank —
/// the retrain would dwarf the flush this bench isolates.
fn run_session(svc: &Service, query: usize) -> usize {
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    for &id in &screen {
        svc.handle(Request::Mark {
            session,
            image: id,
            relevant: svc.db().same_category(id, query),
        });
    }
    match svc.handle(Request::Close { session }) {
        Response::Closed { log_session, .. } => log_session.unwrap_or(0),
        other => panic!("close failed: {other:?}"),
    }
}

/// `stage_durable_flush_ns` percentiles from a driven durable service,
/// printed for BENCH_latency.json.
fn report_flush_durability_percentiles() {
    let (db, log) = build_corpus();
    let n_images = db.len();
    let svc = durable_service(db, log);
    let sessions = if quick() { 8 } else { 32 };
    for i in 0..sessions {
        run_session(&svc, (i * 17 + 3) % n_images);
    }
    let snapshot = svc.metrics_snapshot();
    let h = snapshot
        .histogram("stage_durable_flush_ns")
        .expect("durable flush histogram registered");
    for (q, q_label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        println!(
            "bench {:<40} {:>14} ns/iter",
            format!("service_latency/flush_durability/{q_label}"),
            h.quantile(q)
        );
    }
}

fn bench_wal_flush(c: &mut Criterion) {
    // One prebuilt service per side; the measured unit is the session
    // loop alone, so the comparison isolates what durability adds to the
    // close path (WAL framing + checksum + fsync on MemIo) rather than
    // re-measuring service construction and WAL seeding every iteration.
    // Both sides' logs grow as iterations flush — symmetrically, and the
    // close path is O(session), not O(log), so samples stay comparable.
    let (db, log) = build_corpus();
    let n = if quick() { 4 } else { 12 };
    let n_images = db.len();
    let queries: Vec<usize> = (0..n).map(|i| (i * 17 + 3) % n_images).collect();
    let mut group = c.benchmark_group("wal_flush");
    group.sample_size(10);
    let volatile = Service::new(db.clone(), log.clone(), service_config());
    group.bench_function("volatile", |b| {
        b.iter(|| {
            let total: usize = queries.iter().map(|&q| run_session(&volatile, q)).sum();
            black_box(total)
        })
    });
    let durable = durable_service(db, log);
    group.bench_function("durable", |b| {
        b.iter(|| {
            let total: usize = queries.iter().map(|&q| run_session(&durable, q)).sum();
            black_box(total)
        })
    });
    group.finish();
    report_flush_durability_percentiles();
}

criterion_group!(benches, bench_wal_flush);
criterion_main!(benches);
