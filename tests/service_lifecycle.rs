//! Service lifecycle integration: concurrent multi-session serving against
//! the serial single-session reference, eviction/TTL behavior through the
//! public API, and the log-closure loop (sessions → log → future queries).

use corelog::cbir::{
    build_flat_index, collect_log, rank_with_index_stats, CorelDataset, CorelSpec, ImageDatabase,
};
use corelog::core::{FeedbackLoop, LrfConfig, PooledRetrieval, QueryContext, SchemeKind};
use corelog::logdb::{LogStore, SimulationConfig};
use corelog::service::{
    DurabilityConfig, Request, Response, Service, ServiceConfig, ServiceError, ServiceMetrics,
};
use corelog::storage::MemIo;
use std::path::Path;
use std::sync::Barrier;

fn corpus() -> (ImageDatabase, LogStore) {
    let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
    let log = collect_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 24,
            judged_per_session: 10,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 23,
        },
    );
    (ds.db, log)
}

/// A durable service on an in-memory disk with the default policy, seeded
/// from `log`.
fn durable(db: ImageDatabase, log: LogStore, config: ServiceConfig) -> Service {
    let index = Box::new(build_flat_index(&db));
    Service::with_durability_metrics(
        db,
        index,
        MemIo::handle(),
        Path::new("/srv/feedback-wal"),
        log,
        config,
        DurabilityConfig::default(),
        ServiceMetrics::new(),
    )
    .expect("an empty in-memory disk opens")
    .0
}

fn config() -> ServiceConfig {
    ServiceConfig {
        max_sessions: 32,
        ttl_requests: 0,
        screen_size: 8,
        pool_size: 30,
        lrf: LrfConfig {
            n_unlabeled: 8,
            ..LrfConfig::default()
        },
    }
}

/// Drives one complete two-round feedback loop and returns the full
/// ranking after each rerank. `sync` is waited on between the last page
/// read and the close, so concurrent drivers all retrain against the
/// *initial* log before any of them flushes into it.
fn drive_session(
    svc: &Service,
    query: usize,
    scheme: SchemeKind,
    sync: Option<&Barrier>,
) -> Vec<Vec<usize>> {
    let n = svc.db().len();
    let Response::Opened { session, screen } = svc.handle(Request::Open { query, scheme }) else {
        panic!("open failed")
    };
    let mut rankings = Vec::new();
    for round in 0..2usize {
        let to_judge: Vec<usize> = if round == 0 {
            screen.clone()
        } else {
            // Judge the still-unjudged head of the refined ranking.
            let Response::Page { ids, .. } = svc.handle(Request::Page {
                session,
                offset: 0,
                count: 2 * screen.len(),
            }) else {
                panic!("page failed")
            };
            ids
        };
        for &id in &to_judge {
            // Round 2 re-pages over judged images; duplicates are expected
            // and rejected with a typed error, which we ignore.
            let _ = svc.handle(Request::Mark {
                session,
                image: id,
                relevant: svc.db().same_category(id, query),
            });
        }
        let Response::Reranked { .. } = svc.handle(Request::Rerank { session }) else {
            panic!("rerank failed")
        };
        let Response::Page { ids, .. } = svc.handle(Request::Page {
            session,
            offset: 0,
            count: n,
        }) else {
            panic!("page failed")
        };
        assert_eq!(ids.len(), n, "ranking must cover the database");
        rankings.push(ids);
    }
    if let Some(barrier) = sync {
        barrier.wait();
    }
    let Response::Closed { .. } = svc.handle(Request::Close { session }) else {
        panic!("close failed")
    };
    rankings
}

/// The acceptance bar for the serving plane: N concurrent sessions on
/// distinct threads, against one shared service, produce rankings
/// bit-identical to running each session alone on its own service. The
/// barrier holds every close (log flush) until all reranks are done, so
/// each concurrent session trains on the same initial log that each serial
/// session sees.
#[test]
fn concurrent_sessions_match_serial_single_session_rankings() {
    let (db, log) = corpus();
    let queries = [3usize, 17, 29, 41];
    let scheme = SchemeKind::LrfCsvm;

    // Serial reference: one fresh service per query, session runs alone.
    let serial: Vec<Vec<Vec<usize>>> = queries
        .iter()
        .map(|&q| {
            let svc = Service::new(db.clone(), log.clone(), config());
            drive_session(&svc, q, scheme, None)
        })
        .collect();

    // Concurrent: all four sessions share one service, one thread each.
    let svc = Service::new(db.clone(), log.clone(), config());
    let barrier = Barrier::new(queries.len());
    let concurrent: Vec<Vec<Vec<usize>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .map(|&q| {
                let svc = &svc;
                let barrier = &barrier;
                scope.spawn(move || drive_session(svc, q, scheme, Some(barrier)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });

    assert!(queries.len() >= 2, "the acceptance bar needs >= 2 sessions");
    for ((q, serial_rounds), concurrent_rounds) in queries.iter().zip(&serial).zip(&concurrent) {
        assert_eq!(
            serial_rounds, concurrent_rounds,
            "query {q}: concurrent rankings diverged from the serial path"
        );
        // And they are genuine full-database permutations.
        for ranking in serial_rounds {
            let mut sorted = ranking.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..db.len()).collect::<Vec<_>>());
        }
    }

    // All four sessions closed after the barrier: their judgments flushed.
    assert_eq!(svc.log_sessions(), log.n_sessions() + queries.len());
}

/// Session residency policies observed through the public API: LRU
/// capacity eviction and idle TTL both expire sessions at an `Open`, with
/// a typed error on next touch — never a panic — and salvage judgments
/// into the log.
#[test]
fn eviction_and_ttl_yield_typed_errors_and_flush_the_log() {
    let (db, log) = corpus();
    let logged = log.n_sessions();

    // Capacity 1: opening B evicts A (which had a judgment to flush).
    let svc = Service::new(
        db.clone(),
        log.clone(),
        ServiceConfig {
            max_sessions: 1,
            ..config()
        },
    );
    let Response::Opened { session: a, .. } = svc.handle(Request::Open {
        query: 0,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    svc.handle(Request::Mark {
        session: a,
        image: 0,
        relevant: true,
    });
    let Response::Opened { session: b, .. } = svc.handle(Request::Open {
        query: 1,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    assert_eq!(
        svc.handle(Request::Rerank { session: a }),
        Response::Error {
            error: ServiceError::SessionExpired { session: a }
        }
    );
    assert_eq!(svc.log_sessions(), logged + 1, "evicted judgments flushed");
    // A session id that was never issued is distinguished from an evicted
    // one.
    assert_eq!(
        svc.handle(Request::Close { session: 10_000 }),
        Response::Error {
            error: ServiceError::UnknownSession { session: 10_000 }
        }
    );
    let _ = b;

    // Idle TTL: a session idle for more than `ttl_requests` session-table
    // operations is expired, and its judgment flushed, by the next `Open`.
    let svc = Service::new(
        db,
        log,
        ServiceConfig {
            ttl_requests: 2,
            ..config()
        },
    );
    let Response::Opened { session: idle, .. } = svc.handle(Request::Open {
        query: 2,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    svc.handle(Request::Mark {
        session: idle,
        image: 2,
        relevant: true,
    });
    let Response::Opened { session: busy, .. } = svc.handle(Request::Open {
        query: 3,
        scheme: SchemeKind::Euclidean,
    }) else {
        panic!("open failed")
    };
    for _ in 0..2 {
        let paged = svc.handle(Request::Page {
            session: busy,
            offset: 0,
            count: 1,
        });
        assert!(matches!(paged, Response::Page { .. }), "{paged:?}");
    }
    assert_eq!(svc.log_sessions(), logged, "only an Open expires");
    let Response::Opened { .. } = svc.handle(Request::Open {
        query: 4,
        scheme: SchemeKind::Euclidean,
    }) else {
        panic!("open failed")
    };
    assert_eq!(svc.log_sessions(), logged + 1, "expired judgment flushed");
    assert_eq!(
        svc.handle(Request::Page {
            session: idle,
            offset: 0,
            count: 1
        }),
        Response::Error {
            error: ServiceError::SessionExpired { session: idle }
        }
    );
    assert!(matches!(
        svc.handle(Request::Page {
            session: busy,
            offset: 0,
            count: 1
        }),
        Response::Page { .. }
    ));
}

/// Requests that touch no session — `Ping`, `Metrics`, `Stats`, `SyncLog`
/// — do not age one: however many arrive, an idle session outlives its
/// TTL until the next `Open`.
#[test]
fn requests_that_touch_no_session_do_not_age_it() {
    let (db, log) = corpus();
    let svc = Service::new(
        db,
        log,
        ServiceConfig {
            ttl_requests: 2,
            ..config()
        },
    );
    let Response::Opened { session, .. } = svc.handle(Request::Open {
        query: 2,
        scheme: SchemeKind::Euclidean,
    }) else {
        panic!("open failed")
    };
    let untouching = [
        Request::Ping,
        Request::Metrics,
        Request::Stats,
        Request::SyncLog,
    ];
    for request in untouching.into_iter().cycle().take(10) {
        assert!(!matches!(svc.handle(request), Response::Error { .. }));
    }
    let paged = svc.handle(Request::Page {
        session,
        offset: 0,
        count: 1,
    });
    assert!(matches!(paged, Response::Page { .. }), "{paged:?}");
}

/// The `Page` windows the pins below read: every offset from three before
/// the pool's end to three past it, each at counts 1, 7 and "the rest",
/// and the last two positions of the database.
fn page_windows(n: usize, pool_size: usize) -> Vec<(usize, usize)> {
    let offsets = (pool_size - 3..=pool_size + 3).chain([n - 2]);
    offsets
        .flat_map(|offset| [1, 7, usize::MAX].map(|count| (offset, count)))
        .collect()
}

fn page(svc: &Service, session: u64, offset: usize, count: usize) -> Vec<usize> {
    match svc.handle(Request::Page {
        session,
        offset,
        count,
    }) {
        Response::Page { ids, .. } => ids,
        other => panic!("page {offset}+{count} failed: {other:?}"),
    }
}

/// `Page` is a window on one ranking, on the one-shard, the sharded and
/// the durable service alike. Before any rerank that ranking is the query's full
/// distance order, `rank_with_index_stats`. After one it is the re-ranked
/// candidate pool — the same round replayed on a standalone
/// `FeedbackLoop` over `PooledRetrieval`'s pool — followed by every id
/// outside the pool, ascending.
#[test]
fn pages_are_windows_on_the_distance_order_then_on_the_reranked_pool() {
    let (db, log) = corpus();
    let n = db.len();
    let cfg = config();
    let query = 9;
    let flat = build_flat_index(&db);
    let distance_order = rank_with_index_stats(&db, &flat, db.feature(query)).0;

    // The reference rerank: judge the opening screen, re-rank the pool.
    let mut fb = FeedbackLoop::new(SchemeKind::LrfCsvm, cfg.lrf, query, n);
    for &id in &distance_order[..cfg.screen_size] {
        fb.mark(id, db.same_category(id, query))
            .expect("fresh judgment");
    }
    let example = fb.example();
    let ctx = QueryContext {
        db: &db,
        log: &log,
        example: &example,
    };
    let pool = PooledRetrieval::new(&flat, cfg.pool_size).pool(&ctx);
    let ranked = fb.rerank_scattered(&db, &log, &pool, |scorer, ids| {
        scorer.score_ids(&db, &log, ids)
    });
    let mut reranked = ranked[..pool.len()].to_vec();
    reranked.extend((0..n).filter(|id| !pool.contains(id)));

    let window = |ranking: &[usize], offset: usize, count: usize| -> Vec<usize> {
        let start = offset.min(n);
        ranking[start..offset.saturating_add(count).min(n)].to_vec()
    };
    let services = [
        ("1 shard", Service::new(db.clone(), log.clone(), cfg)),
        (
            "3 shards",
            Service::sharded_with_metrics(db.clone(), log.clone(), 3, cfg, ServiceMetrics::new()),
        ),
        ("durable", durable(db.clone(), log.clone(), cfg)),
    ];
    for (plane, svc) in &services {
        let Response::Opened { session, screen } = svc.handle(Request::Open {
            query,
            scheme: SchemeKind::LrfCsvm,
        }) else {
            panic!("{plane}: open failed")
        };
        assert_eq!(
            screen,
            window(&distance_order, 0, cfg.screen_size),
            "{plane}"
        );
        for (offset, count) in page_windows(n, cfg.pool_size) {
            assert_eq!(
                page(svc, session, offset, count),
                window(&distance_order, offset, count),
                "{plane}: page {offset}+{count} before any rerank"
            );
        }
        for &id in &screen {
            let marked = svc.handle(Request::Mark {
                session,
                image: id,
                relevant: db.same_category(id, query),
            });
            assert!(matches!(marked, Response::Marked { .. }), "{marked:?}");
        }
        let Response::Reranked { page: head, .. } = svc.handle(Request::Rerank { session }) else {
            panic!("{plane}: rerank failed")
        };
        assert_eq!(head, window(&reranked, 0, cfg.screen_size), "{plane}");
        for (offset, count) in page_windows(n, cfg.pool_size) {
            assert_eq!(
                page(svc, session, offset, count),
                window(&reranked, offset, count),
                "{plane}: page {offset}+{count} after a rerank"
            );
        }
    }
}

/// A rerank re-ranks the neighbours `Open` already searched and scores
/// them on the session's thread: it adds no distance evaluation and sends
/// no shard any job, on every plane.
#[test]
fn a_rerank_searches_nothing() {
    let (db, log) = corpus();
    let n_shards = 3;
    let services = [
        ("1 shard", Service::new(db.clone(), log.clone(), config())),
        (
            "3 shards",
            Service::sharded_with_metrics(
                db.clone(),
                log.clone(),
                n_shards,
                config(),
                ServiceMetrics::new(),
            ),
        ),
        ("durable", durable(db, log, config())),
    ];
    for (plane, svc) in &services {
        let Response::Opened { session, screen } = svc.handle(Request::Open {
            query: 17,
            scheme: SchemeKind::LrfCsvm,
        }) else {
            panic!("open failed")
        };
        for &id in &screen {
            svc.handle(Request::Mark {
                session,
                image: id,
                relevant: svc.db().same_category(id, 17),
            });
        }
        let searches = || {
            let snapshot = svc.metrics_snapshot();
            let shard_searches: Vec<Option<u64>> = (0..n_shards)
                .map(|i| {
                    let name = format!("shard{i}_search_ns");
                    snapshot.histogram(&name).map(|h| h.count)
                })
                .collect();
            (snapshot.counter("ann_distance_evals_total"), shard_searches)
        };
        let jobs = || svc.metrics_snapshot().counter("shard_jobs_total");
        let before = searches();
        let jobs_before = jobs().unwrap_or_else(|| panic!("{plane}: no shard job counter"));
        assert!(before.0 > Some(0), "{plane}: open searched");
        let reranked = svc.handle(Request::Rerank { session });
        assert!(
            matches!(reranked, Response::Reranked { .. }),
            "{plane}: {reranked:?}"
        );
        assert_eq!(searches(), before, "{plane}");
        assert_eq!(
            jobs(),
            Some(jobs_before),
            "{plane}: the rerank sent a shard job"
        );
    }
}

/// A client walking twenty pages past the pool before any rerank pays for
/// the deepening searches geometrically — at most ⌈log2(N / pool)⌉ + 1 full
/// scans in all, not one per page — and still reads the distance order.
#[test]
fn deep_pages_before_a_rerank_cost_logarithmically_many_scans() {
    let (n, dim) = (3200, 8);
    // A splitmix-style hash: deterministic features without a corpus build.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let features: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
    let db = ImageDatabase::from_features(features, (0..n).map(|i| i % 10).collect());
    let cfg = ServiceConfig::default();
    let distance_order = rank_with_index_stats(&db, &build_flat_index(&db), db.feature(0)).0;
    let svc = Service::new(db, LogStore::new(n), cfg);
    let Response::Opened { session, .. } = svc.handle(Request::Open {
        query: 0,
        scheme: SchemeKind::RfSvm,
    }) else {
        panic!("open failed")
    };
    let evals = || {
        svc.metrics_snapshot()
            .counter("ann_distance_evals_total")
            .expect("search counter")
    };
    let opened = evals();
    assert_eq!(opened, n as u64, "open is one scan");
    for i in 0..20 {
        let offset = cfg.pool_size + 20 * i;
        assert_eq!(
            page(&svc, session, offset, 20),
            distance_order[offset..offset + 20],
            "page at {offset}"
        );
    }
    let scans = (evals() - opened) / n as u64;
    let bound = (n as f64 / cfg.pool_size as f64).log2().ceil() as u64 + 1;
    assert!(scans <= bound, "{scans} scans for 20 pages, bound {bound}");
}

/// The paper's loop, end to end through the service: sessions flushed into
/// the log become new log-vector dimensions that later coupled-SVM
/// sessions actually train on.
#[test]
fn flushed_sessions_feed_future_coupled_queries() {
    let (db, log) = corpus();
    let initial_log_sessions = log.n_sessions();
    let svc = Service::new(db.clone(), log, config());

    for q in [5usize, 13, 22] {
        let rounds = drive_session(&svc, q, SchemeKind::LrfCsvm, None);
        assert_eq!(rounds.len(), 2);
    }
    assert_eq!(svc.log_sessions(), initial_log_sessions + 3);

    // Shutdown persists the grown log; a fresh service over it serves a
    // session that sees the larger relevance matrix.
    let grown = svc.into_log();
    assert_eq!(grown.n_sessions(), initial_log_sessions + 3);
    let svc2 = Service::new(db, grown, config());
    let rounds = drive_session(&svc2, 7, SchemeKind::LrfCsvm, None);
    assert_eq!(rounds.len(), 2);
    assert_eq!(svc2.log_sessions(), initial_log_sessions + 4);
}
