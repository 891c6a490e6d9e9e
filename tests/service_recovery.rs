//! Crash-safety integration: the durable service through the `corelog`
//! facade. A `Close` acknowledged as durable survives a power cut; a
//! storage outage degrades gracefully (volatile flush + shed) and
//! `SyncLog`'s compaction makes the unsynced sessions durable; seeded
//! schedules of outages, closes and syncs recover exactly the sessions
//! that reached the disk, once each; recovery counters surface through the
//! metrics endpoint.

use std::path::Path;

use corelog::cbir::{build_flat_index, collect_log, CorelDataset, CorelSpec, ImageDatabase};
use corelog::core::{LrfConfig, SchemeKind};
use corelog::logdb::{DurableLogStore, LogSession, LogStore, Relevance, SimulationConfig};
use corelog::obs::ManualClock;
use corelog::service::metrics::names;
use corelog::service::{
    DurabilityConfig, Request, Response, Service, ServiceConfig, ServiceError, ServiceMetrics,
};
use corelog::storage::fault::splitmix64;
use corelog::storage::{FaultIo, FaultKind, FaultPlan, IoRef, MemIo, WalOptions};

const WAL_DIR: &str = "/srv/feedback-wal";

fn corpus() -> (ImageDatabase, LogStore) {
    let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
    let log = collect_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 12,
            judged_per_session: 8,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 31,
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

fn policy() -> DurabilityConfig {
    DurabilityConfig {
        max_attempts: 2,
        backoff_ns: 0,
        deadline_ns: 0,
        shed_watermark: 1,
        ..DurabilityConfig::default()
    }
}

/// Builds a durable service over `io` with a deterministic clock.
fn durable_service(io: IoRef) -> Service {
    service_with(io, policy())
}

fn service_with(io: IoRef, policy: DurabilityConfig) -> Service {
    let (db, seed) = corpus();
    let index = Box::new(build_flat_index(&db));
    let (svc, _) = Service::with_durability_metrics(
        db,
        index,
        io,
        Path::new(WAL_DIR),
        seed,
        config(),
        policy,
        ServiceMetrics::with_clock(ManualClock::shared()),
    )
    .expect("durable service must open");
    svc
}

/// Storage ops a durable service spends opening over an empty disk:
/// everything before the first flush (open/mark never touch disk).
fn construction_ops() -> u64 {
    let probe = FaultIo::handle(MemIo::io_ref(), FaultPlan::new());
    let _svc = durable_service(probe.clone());
    probe.ops()
}

/// One minimal session: open, judge a handful, close. Returns the
/// `Closed` ack's `(log_session, durable)`.
fn run_one_session(svc: &Service, query: usize) -> (Option<usize>, bool) {
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    for &id in screen.iter().take(4) {
        let _ = svc.handle(Request::Mark {
            session,
            image: id,
            relevant: svc.db().same_category(id, query),
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

fn log_sessions(svc: &Service) -> usize {
    match svc.handle(Request::Stats) {
        Response::Stats { log_sessions, .. } => log_sessions,
        other => panic!("stats failed: {other:?}"),
    }
}

#[test]
fn durable_close_survives_power_cut() {
    let mem = MemIo::handle();
    let svc = durable_service(mem.clone());
    assert_eq!(log_sessions(&svc), 12, "seeded from the historical log");

    let (id, durable) = run_one_session(&svc, 2);
    assert_eq!(id, Some(12));
    assert!(durable, "a healthy disk acknowledges a durable flush");

    drop(svc);
    mem.crash(); // power cut: volatile writes gone, fsynced WAL stays

    let svc = durable_service(mem.clone());
    assert_eq!(
        log_sessions(&svc),
        13,
        "12 seeded + 1 acknowledged session replay after the crash"
    );
    // And the recovered log keeps serving: another full session works.
    let (id, durable) = run_one_session(&svc, 5);
    assert_eq!(id, Some(13));
    assert!(durable);
}

#[test]
fn outage_degrades_then_sync_log_reconciles() {
    // Pin the outage window to the first flush: construction is the only
    // storage traffic before it, so a dry run counts the ops it consumes.
    let construction_ops = construction_ops();
    let mem = MemIo::handle();
    let fault = FaultIo::handle(
        mem.clone(),
        FaultPlan::outage(construction_ops, construction_ops + 40),
    );
    let svc = durable_service(fault.clone());

    // The flush exhausts its retry budget against the dead disk, degrades
    // to a volatile record, and still acknowledges the close — honestly.
    let (id, durable) = run_one_session(&svc, 2);
    assert_eq!(id, Some(12), "the judgment still trains future sessions");
    assert!(!durable, "a failing disk must not be called durable");

    // Past the shed watermark, new sessions are refused with a typed error.
    match svc.handle(Request::Open {
        query: 1,
        scheme: SchemeKind::RfSvm,
    }) {
        Response::Error {
            error: ServiceError::Overloaded { spilled_sessions },
        } => assert_eq!(spilled_sessions, 1),
        other => panic!("expected Overloaded while degraded, got {other:?}"),
    }

    // Reconcile: SyncLog compacts once the outage lifts. Each failed
    // attempt consumes fault-plan ops, so loop until healed.
    let mut reconciled = false;
    for _ in 0..40 {
        match svc.handle(Request::SyncLog) {
            Response::Synced {
                spilled, compacted, ..
            } => {
                assert_eq!(spilled, 0, "a successful sync leaves nothing unsynced");
                assert!(compacted, "sync is a compaction");
                reconciled = true;
                break;
            }
            Response::Error {
                error: ServiceError::Degraded { .. },
            } => continue, // still inside the outage window
            other => panic!("unexpected sync response: {other:?}"),
        }
    }
    assert!(reconciled, "the outage window must end within the loop");

    // Admission reopens and flushes are durable again.
    let (_, durable) = run_one_session(&svc, 3);
    assert!(durable);

    // The volatile session is in the compaction's snapshot: it survives a
    // cut.
    drop(svc);
    mem.crash();
    let svc = durable_service(mem.clone());
    assert_eq!(
        log_sessions(&svc),
        14,
        "12 seeded + 1 volatile-then-compacted + 1 durable close"
    );
}

/// Composed-outage schedules per run. CI's chaos matrix sets
/// `CHAOS_SEED_BASE` per leg, so the legs run disjoint seeds.
const OUTAGE_SCHEDULES: u64 = 6;

#[test]
fn seeded_outages_recover_exactly_the_compacted_sessions() {
    let base = std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let construction_ops = construction_ops();
    for seed in base..base + OUTAGE_SCHEDULES {
        run_outage_schedule(seed, construction_ops);
    }
}

/// One seeded schedule: up to three outage windows over the storage ops
/// after construction, then sixteen steps, each a judged session (open,
/// four marks, close) or a `SyncLog`, then a power cut and recovery.
///
/// The test keeps its own books. A close acked `durable: true` is on disk;
/// one acked `durable: false` is unsynced until a compaction commits,
/// which puts every session recorded before it on disk. Recovery must
/// return exactly the on-disk sessions, in id order, each once.
fn run_outage_schedule(seed: u64, construction_ops: u64) {
    let mut rng = seed;
    let mut plan = FaultPlan::new();
    let mut at = construction_ops;
    for _ in 0..1 + splitmix64(&mut rng) % 3 {
        at += splitmix64(&mut rng) % 24;
        let len = 1 + splitmix64(&mut rng) % 12;
        for op in at..at + len {
            plan = plan.with_fault(op, FaultKind::Error);
        }
        at += len;
    }
    let shed_watermark = 2;
    let policy = DurabilityConfig {
        shed_watermark,
        ..policy()
    };
    let mem = MemIo::handle();
    let svc = service_with(FaultIo::handle(mem.clone(), plan), policy);
    let n_images = svc.db().len();
    let seeded = log_sessions(&svc);

    let mut on_disk: Vec<LogSession> = Vec::new();
    let mut unsynced: Vec<LogSession> = Vec::new();
    let mut compactions = 0;
    for step in 0..16u64 {
        if splitmix64(&mut rng).is_multiple_of(4) {
            match svc.handle(Request::SyncLog) {
                Response::Synced {
                    spilled, compacted, ..
                } => assert!(spilled == 0 && compacted, "seed {seed}"),
                Response::Error {
                    error: ServiceError::Degraded { .. },
                } => {}
                other => panic!("seed {seed}: unexpected sync response: {other:?}"),
            }
        } else {
            let query = ((seed + 7 * step) % n_images as u64) as usize;
            match svc.handle(Request::Open {
                query,
                scheme: SchemeKind::RfSvm,
            }) {
                Response::Opened { session, screen } => {
                    assert!(
                        unsynced.len() < shed_watermark,
                        "seed {seed}: opened with {} unsynced",
                        unsynced.len()
                    );
                    let mut judgments = Vec::new();
                    for &image in screen.iter().take(4) {
                        let relevant = svc.db().same_category(image, query);
                        svc.handle(Request::Mark {
                            session,
                            image,
                            relevant,
                        });
                        judgments.push((image, Relevance::from_bool(relevant)));
                    }
                    let Response::Closed {
                        log_session: Some(id),
                        durable,
                        ..
                    } = svc.handle(Request::Close { session })
                    else {
                        panic!("seed {seed}: close failed")
                    };
                    assert_eq!(id, seeded + on_disk.len() + unsynced.len(), "seed {seed}");
                    let recorded = LogSession::new(judgments);
                    if durable {
                        assert!(unsynced.is_empty(), "seed {seed}: durable while degraded");
                        on_disk.push(recorded);
                    } else {
                        unsynced.push(recorded);
                    }
                }
                Response::Error {
                    error: ServiceError::Overloaded { spilled_sessions },
                } => {
                    assert!(spilled_sessions >= shed_watermark, "seed {seed}");
                    assert_eq!(spilled_sessions, unsynced.len(), "seed {seed}");
                }
                other => panic!("seed {seed}: unexpected open response: {other:?}"),
            }
        }
        // A committed compaction — `SyncLog`'s or the close path's own —
        // snapshots every session recorded so far.
        let snap = svc.metrics_snapshot();
        let now = snap.counter(names::WAL_COMPACTIONS).unwrap();
        if now > compactions {
            compactions = now;
            on_disk.append(&mut unsynced);
        }
        assert_eq!(
            snap.gauge(names::WAL_UNSYNCED_SESSIONS),
            Some(unsynced.len() as u64),
            "seed {seed}"
        );
    }
    assert_eq!(
        log_sessions(&svc),
        seeded + on_disk.len() + unsynced.len(),
        "seed {seed}: memory holds every flushed session"
    );

    drop(svc);
    mem.crash();
    let opts = WalOptions {
        segment_bytes: policy.segment_bytes,
    };
    let (store, _) = DurableLogStore::open(mem, Path::new(WAL_DIR), n_images, opts)
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let store = store.into_store();
    assert_eq!(store.n_sessions(), seeded + on_disk.len(), "seed {seed}");
    let recovered: Vec<&LogSession> = store.sessions().skip(seeded).collect();
    assert!(
        recovered.iter().copied().eq(on_disk.iter()),
        "seed {seed}: recovered sessions differ from the on-disk books"
    );
}

#[test]
fn recovery_counters_surface_through_metrics_endpoint() {
    let mem = MemIo::handle();
    let svc = durable_service(mem.clone());
    run_one_session(&svc, 2);
    drop(svc);
    mem.crash();

    // Rebuild with explicit metrics so the recovery counters are visible.
    let (db, seed) = corpus();
    let index = Box::new(build_flat_index(&db));
    let metrics = ServiceMetrics::with_clock(ManualClock::shared());
    let io: IoRef = mem.clone();
    let (svc, recovery) = Service::with_durability_metrics(
        db,
        index,
        io,
        Path::new(WAL_DIR),
        seed,
        config(),
        policy(),
        metrics,
    )
    .expect("recovery must succeed");
    assert!(!recovery.seeded);
    assert_eq!(recovery.recovered_sessions, 13);
    assert_eq!(recovery.replayed_sessions, 1);

    let Response::Metrics { snapshot } = svc.handle(Request::Metrics) else {
        panic!("metrics endpoint failed")
    };
    assert_eq!(snapshot.counter("recovery_sessions_total"), Some(13));
    assert_eq!(
        snapshot.counter("recovery_truncated_records_total"),
        Some(0)
    );
}
