//! The system under test — the **only** file of the benchmark that names
//! the repo's APIs. A simplicity PR that collapses constructors or
//! training entry points edits this file and nothing else of the harness.
//!
//! What the benchmark pins, and the layer metric each call feeds:
//!
//! | call                                                        | feeds |
//! |-------------------------------------------------------------|-------|
//! | `ImageDatabase::from_features`                              | `cbir.db_build_s`, `setup_s` |
//! | `LogSession::new`, `LogStore::new/record/nnz`               | `setup_s`, `logdb.store_nnz` |
//! | `Service::sharded_with_metrics`                             | every end-to-end metric (volatile workloads) |
//! | `Service::with_durability_metrics` + `build_flat_index` + `StdIo` + `DurabilityConfig::default()` | every end-to-end metric (`flush_churn`) |
//! | `Service::new` (1 shard, flat)                              | shard-equivalence check |
//! | `ServiceMetrics::disabled` / `with_clock(MonotonicClock)`   | timed runs / `obs.trace_overhead_pct`, `service.sessions.lookup_p50_ns` |
//! | `NetServer::serve/addr/service/shutdown`, `NetConfig`       | all client-side timings, `service.net.ping_p50_us` |
//! | `Request`/`Response` serde, `PROTO_VERSION`                 | the `{v,id,body}` frames the client sends and parses |
//! | `wire::parse_request`, `wire::render_response`, `FrameMode` | `service.wire.parse_p50_us`, `service.wire.render_p50_us` |
//! | `Service::handle`                                           | `service.handle.*` |
//! | `Service::metrics_snapshot` + `metrics::names::*`           | `obs.snapshot_p50_us`, `svm.smo_iterations_per_round`, `svm.kernel_cache_hit_ratio`, `svm.nonconverged_rate`, `logdb.cow_clone_ratio`, `storage.compactions`, `service.shard.jobs_per_session`, `index.distance_evals_per_query` |
//! | `ShardedEngine::new/search_with_stats/scatter_scores`       | `service.shard.search_p50_us`, `service.shard.scatter_p50_us` |
//! | `rank_with_index_stats` (k = N, flat)                       | `index.rank_full_p50_us` |
//! | `AnnIndex::search_with_stats` (k = pool, `FlatIndex`)       | `index.search_pool_p50_us` |
//! | `FlatShard::search_d2` + `merge_top_k_d2`                   | `index.merge_p50_us` |
//! | `PooledRetrieval::pool_with_stats`                          | the pool every core/logdb probe works on |
//! | `FeedbackLoop::new/mark/example/rerank_scattered` (trains through `RelevanceFeedback::fit_warm`) | `core.rerank_p50_us`; up to the scorer hand-over: `core.fit_p50_us`, `core.fit_p95_us` |
//! | `PoolScorer::score_ids` on the handed-over `ScorerRef`       | `core.score_p50_us` |
//! | `lrf_svm::train` + `RbfKernel` on the content-side labels   | `svm.train_p50_us` |
//! | `SharedLogStore::from_store/snapshot/record`                | `logdb.snapshot_p50_ns`, `logdb.record_idle_p50_us`, `logdb.record_cow_p50_us` |
//! | `LogStore::log_vector`, `SparseVector::nnz/dot`             | `logdb.gather_p50_us`, `logdb.pool_nnz_mean`, `logdb.sparse_dot_p50_ns` |
//! | `DurableLogStore::open_with_seed/record_durable/compact/open/into_store`, `WalOptions` | `storage.*`, WAL-recovery check |

use crate::client::{Op, Reply};
use crate::gen::{Corpus, Scheme};
use crate::stats::Spans;
use lrf_cbir::{build_flat_index, rank_with_index_stats, ImageDatabase};
use lrf_core::{FeedbackLoop, LrfConfig, PooledRetrieval, QueryContext, SchemeKind, ScorerRef};
use lrf_index::{merge_top_k_d2, AnnIndex, FlatIndex, FlatShard};
use lrf_logdb::{DurableLogStore, LogSession, LogStore, Relevance, SharedLogStore};
use lrf_obs::{MonotonicClock, RegistrySnapshot};
use lrf_service::metrics::names;
use lrf_service::wire::{self, FrameMode};
use lrf_service::{
    DurabilityConfig, NetConfig, NetServer, Request, Response, Service, ServiceConfig,
    ServiceMetrics, ShardedEngine, PROTO_VERSION,
};
use lrf_storage::{StdIo, WalOptions};
use lrf_svm::RbfKernel;
use serde::{Deserialize, Value};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Images per screen (the paper's `N_l`).
pub const SCREEN_SIZE: usize = 20;
/// Candidate-pool size of a rerank.
pub const POOL_SIZE: usize = 200;
/// Responses kept for the render probe.
const STASH_CAP: usize = 2000;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        screen_size: SCREEN_SIZE,
        pool_size: POOL_SIZE,
        max_sessions: 1024,
        ttl_requests: 0,
        lrf: LrfConfig::default(),
    }
}

fn scheme_kind(scheme: Scheme) -> SchemeKind {
    match scheme {
        Scheme::Euclidean => SchemeKind::Euclidean,
        Scheme::RfSvm => SchemeKind::RfSvm,
        Scheme::Lrf2Svms => SchemeKind::Lrf2Svms,
        Scheme::LrfCsvm => SchemeKind::LrfCsvm,
    }
}

fn to_request(op: &Op) -> Request {
    match *op {
        Op::Open { query, scheme } => Request::Open {
            query,
            scheme: scheme_kind(scheme),
        },
        Op::Mark {
            session,
            image,
            relevant,
        } => Request::Mark {
            session,
            image,
            relevant,
        },
        Op::Rerank { session } => Request::Rerank { session },
        Op::Page {
            session,
            offset,
            count,
        } => Request::Page {
            session,
            offset,
            count,
        },
        Op::Close { session } => Request::Close { session },
        Op::Ping => Request::Ping,
    }
}

fn to_reply(response: Response) -> Reply {
    match response {
        Response::Opened { session, screen } => Reply::Opened { session, screen },
        Response::Marked { n_judged, .. } => Reply::Marked { n_judged },
        Response::Reranked { page, .. } => Reply::Reranked { page },
        Response::Page { ids, .. } => Reply::Page { ids },
        Response::Closed {
            log_session,
            durable,
            ..
        } => Reply::Closed {
            flushed: log_session.is_some(),
            durable,
        },
        Response::Pong { .. } => Reply::Pong,
        Response::Error { error } => Reply::Other(format!("error {}: {error}", error.code())),
        other => Reply::Other(format!("{other:?}")),
    }
}

/// The `{v,id,body}` request frame for `op`.
pub fn encode_frame(op: &Op, id: u64) -> String {
    let body = serde_json::to_string(&to_request(op)).expect("requests always serialize");
    format!("{{\"v\":{PROTO_VERSION},\"id\":{id},\"body\":{body}}}")
}

/// Parses a `{v,id,code,body}` response frame into the echoed id and the
/// reply.
pub fn decode_frame(raw: &str) -> Result<(u64, Reply), String> {
    let frame: Value = serde_json::from_str(raw).map_err(|e| format!("bad frame: {e}"))?;
    let id = frame
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("frame without an id")?;
    let body = frame.get("body").ok_or("frame without a body")?;
    let response = Response::from_value(body).map_err(|e| format!("bad body: {}", e.0))?;
    Ok((id, to_reply(response)))
}

fn to_session(judgments: &[(usize, bool)]) -> LogSession {
    LogSession::new(
        judgments
            .iter()
            .map(|&(id, relevant)| (id, Relevance::from_bool(relevant)))
            .collect(),
    )
}

fn build_log(n_images: usize, sessions: &[Vec<(usize, bool)>]) -> LogStore {
    let mut log = LogStore::new(n_images);
    for s in sessions {
        log.record(to_session(s));
    }
    log
}

fn build_db(corpus: Corpus) -> ImageDatabase {
    ImageDatabase::from_features(corpus.features, corpus.categories)
}

/// Whether the service's stage timers run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// `ServiceMetrics::disabled()` — every end-to-end number.
    Off,
    /// `ServiceMetrics::with_clock(MonotonicClock)` — the traced run.
    On,
}

/// How to build the service.
pub struct BootSpec<'a> {
    pub shards: usize,
    pub workers: usize,
    pub timing: Timing,
    /// `Some(dir)`: durable service (flat index, `StdIo` WAL in `dir`,
    /// default `DurabilityConfig`). `None`: volatile sharded service.
    pub wal_dir: Option<&'a Path>,
}

/// Registry counters the ledger reads, as a point-in-time copy.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub smo_iterations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub nonconverged: u64,
    pub distance_evals: u64,
    pub log_appends: u64,
    pub log_cow_clones: u64,
    pub wal_compactions: u64,
    pub shard_jobs: u64,
    /// p50 of `stage_session_lookup_ns`; 0 when stage timers are off.
    pub lookup_p50_ns: u64,
}

impl Counters {
    fn read(snapshot: &RegistrySnapshot) -> Self {
        let c = |name| snapshot.counter(name).unwrap_or(0);
        Self {
            smo_iterations: c(names::SMO_ITERATIONS),
            cache_hits: c(names::KERNEL_CACHE_HITS),
            cache_misses: c(names::KERNEL_CACHE_MISSES),
            nonconverged: c(names::NONCONVERGED_RETRAINS),
            distance_evals: c(names::ANN_DISTANCE_EVALS),
            log_appends: c(names::LOG_APPENDS),
            log_cow_clones: c(names::LOG_COW_CLONES),
            wal_compactions: c(names::WAL_COMPACTIONS),
            shard_jobs: c(names::SHARD_JOBS),
            lookup_p50_ns: snapshot
                .histogram(names::STAGE_SESSION_LOOKUP)
                .map_or(0, |h| h.p50()),
        }
    }

    /// Counter growth since `earlier` (the histogram quantile is kept).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            smo_iterations: self.smo_iterations - earlier.smo_iterations,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            nonconverged: self.nonconverged - earlier.nonconverged,
            distance_evals: self.distance_evals - earlier.distance_evals,
            log_appends: self.log_appends - earlier.log_appends,
            log_cow_clones: self.log_cow_clones - earlier.log_cow_clones,
            wal_compactions: self.wal_compactions - earlier.wal_compactions,
            shard_jobs: self.shard_jobs - earlier.shard_jobs,
            lookup_p50_ns: self.lookup_p50_ns,
        }
    }
}

/// The feedback log a service handed back at shutdown or a WAL recovered.
#[derive(PartialEq)]
pub struct DrainedLog(LogStore);

impl DrainedLog {
    pub fn n_sessions(&self) -> usize {
        self.0.n_sessions()
    }
}

/// The real `NetServer`, booted in-process on an ephemeral loopback port.
pub struct Server {
    net: NetServer,
    stash: Mutex<Vec<Response>>,
}

/// Builds database, log and service from generated inputs and starts
/// serving.
pub fn boot(
    corpus: Corpus,
    log_sessions: &[Vec<(usize, bool)>],
    spec: &BootSpec<'_>,
) -> Result<Server, String> {
    let db = build_db(corpus);
    let log = build_log(db.len(), log_sessions);
    let metrics = match spec.timing {
        Timing::Off => ServiceMetrics::disabled(),
        Timing::On => ServiceMetrics::with_clock(MonotonicClock::shared()),
    };
    let service = match spec.wal_dir {
        None => Service::sharded_with_metrics(db, log, spec.shards, service_config(), metrics),
        Some(dir) => {
            let index = Box::new(build_flat_index(&db));
            Service::with_durability_metrics(
                db,
                index,
                StdIo::handle(),
                dir,
                log,
                service_config(),
                DurabilityConfig::default(),
                metrics,
            )
            .map_err(|e| format!("durable boot: {e}"))?
            .0
        }
    };
    let net = NetServer::serve(
        service,
        NetConfig {
            workers: spec.workers,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    Ok(Server {
        net,
        stash: Mutex::new(Vec::new()),
    })
}

impl Server {
    pub fn addr(&self) -> SocketAddr {
        self.net.addr()
    }

    pub fn counters(&self) -> Counters {
        Counters::read(&self.net.service().metrics_snapshot())
    }

    /// `Service::handle` in-process, bypassing the transport. The first
    /// responses are kept for [`render_probe`](Self::render_probe).
    pub fn handle(&self, op: &Op) -> Reply {
        let response = self.net.service().handle(to_request(op));
        let mut stash = self.stash.lock().expect("stash lock is never poisoned");
        if stash.len() < STASH_CAP {
            stash.push(response.clone());
        }
        to_reply(response)
    }

    /// `wire::render_response` (ns) over the responses `handle` produced.
    pub fn render_probe(&self) -> Vec<f64> {
        let stash = self.stash.lock().expect("stash lock is never poisoned");
        stash
            .iter()
            .enumerate()
            .map(|(id, response)| {
                let mode = FrameMode::Envelope { id: id as u64 };
                let start = Instant::now();
                black_box(wire::render_response(mode, black_box(response)));
                start.elapsed().as_nanos() as f64
            })
            .collect()
    }

    /// `Service::metrics_snapshot` (ns), `n` times.
    pub fn snapshot_probe(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let start = Instant::now();
                black_box(self.net.service().metrics_snapshot());
                start.elapsed().as_nanos() as f64
            })
            .collect()
    }

    /// Graceful shutdown: joins the server's threads and drains resident
    /// sessions into the log.
    pub fn shutdown(self) -> Result<DrainedLog, String> {
        self.net
            .shutdown()
            .map(DrainedLog)
            .ok_or_else(|| "server kept a second handle to its service".to_string())
    }
}

/// `wire::parse_request` (ns) over request frames.
pub fn parse_probe(frames: &[String]) -> Vec<f64> {
    frames
        .iter()
        .map(|frame| {
            let start = Instant::now();
            black_box(wire::parse_request(black_box(frame)).is_ok());
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

/// The single-shard flat `Service::new` over the same inputs: what the
/// sharded service's pages must equal.
pub struct Reference(Service);

pub fn reference(corpus: Corpus, log_sessions: &[Vec<(usize, bool)>]) -> Reference {
    let db = build_db(corpus);
    let log = build_log(db.len(), log_sessions);
    Reference(Service::new(db, log, service_config()))
}

impl crate::client::Transport for Reference {
    fn call(&mut self, op: &Op) -> Result<Reply, String> {
        Ok(to_reply(self.0.handle(to_request(op))))
    }
}

fn wal_options() -> WalOptions {
    WalOptions {
        segment_bytes: DurabilityConfig::default().segment_bytes,
    }
}

/// Reopens the WAL in `dir` the way a restarted service would; returns
/// the recovered log and the seconds recovery took.
pub fn recover(dir: &Path, n_images: usize) -> Result<(DrainedLog, f64), String> {
    let start = Instant::now();
    let (store, _) = DurableLogStore::open(StdIo::handle(), dir, n_images, wal_options())
        .map_err(|e| format!("WAL recovery: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    Ok((DrainedLog(store.into_store()), secs))
}

/// The harness's own copies of the layers beneath `Service::handle`, so
/// the traced replay can time each public call the request path makes
/// (the service exposes no spans of its own yet).
pub struct Shadow {
    db: lrf_sync::Arc<ImageDatabase>,
    flat: FlatIndex,
    shards: Vec<FlatShard>,
    engine: ShardedEngine,
    log: SharedLogStore,
    config: LrfConfig,
    /// Seconds `ImageDatabase::from_features` took.
    pub db_build_s: f64,
}

/// One replayed session's mirror of the service-side state.
pub struct Mirror {
    fb: FeedbackLoop,
}

/// What one shadow round saw.
pub struct RoundFacts {
    pub pool: Vec<usize>,
    pub pool_nnz: usize,
}

/// What the storage probe measured.
pub struct StorageFacts {
    pub append_ns: Vec<f64>,
    pub bytes_per_session: f64,
    pub compact_ns: Vec<f64>,
    pub recovery_s: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Shadow {
    pub fn new(corpus: Corpus, log_sessions: &[Vec<(usize, bool)>], shards: usize) -> Self {
        let start = Instant::now();
        let db = build_db(corpus);
        let db_build_s = start.elapsed().as_secs_f64();
        let log = build_log(db.len(), log_sessions);
        let db = lrf_sync::Arc::new(db);
        let registry = lrf_obs::Registry::new();
        Self {
            flat: build_flat_index(&db),
            shards: FlatShard::split_shared(db.features_shared(), db.dim(), shards),
            engine: ShardedEngine::new(lrf_sync::Arc::clone(&db), shards, &registry, None),
            log: SharedLogStore::from_store(log),
            config: LrfConfig::default(),
            db,
            db_build_s,
        }
    }

    pub fn store_nnz(&self) -> usize {
        self.log.snapshot().nnz()
    }

    /// The index-side work of an `Open`, one span per public call.
    pub fn open(&self, query: usize, scheme: Scheme, request: u64, spans: &mut Spans) -> Mirror {
        let q = self.db.feature(query);
        spans.time("index.rank_full", request, |_| {
            black_box(rank_with_index_stats(&self.db, &self.flat, q));
        });
        spans.time("service.shard.search", request, |_| {
            black_box(self.engine.search_with_stats(q, POOL_SIZE));
        });
        let partials: Vec<Vec<(usize, f64)>> = self
            .shards
            .iter()
            .map(|s| s.search_d2(q, POOL_SIZE).0)
            .collect();
        spans.time("index.merge", request, |_| {
            black_box(merge_top_k_d2(&partials, POOL_SIZE));
        });
        Mirror {
            fb: FeedbackLoop::new(scheme_kind(scheme), self.config, query, self.db.len()),
        }
    }

    pub fn mark(&self, mirror: &mut Mirror, image: usize, relevant: bool) {
        // The service already accepted this judgment; the mirror follows.
        let _ = mirror.fb.mark(image, relevant);
    }

    /// The work of a `Rerank`, one span per public call, on the mirror's
    /// accumulated judgments.
    pub fn round(&self, mirror: &mut Mirror, request: u64, spans: &mut Spans) -> RoundFacts {
        let example = mirror.fb.example();
        let q = self.db.feature(example.query);
        spans.time("index.search_pool", request, |_| {
            black_box(self.flat.search_with_stats(q, POOL_SIZE));
        });
        let snapshot = spans.time("logdb.snapshot", request, |_| self.log.snapshot());
        let ctx = QueryContext {
            db: &self.db,
            log: &snapshot,
            example: &example,
        };
        let pool = PooledRetrieval::new(&self.flat, POOL_SIZE)
            .pool_with_stats(&ctx)
            .0;
        let pool_nnz = spans.time("logdb.gather", request, |_| {
            pool.iter().map(|&id| snapshot.log_vector(id).nnz()).sum()
        });
        // One pass through the coordinator half of a scattered rerank:
        // everything before the scorer is handed over is the fit, the
        // hand-over itself is the scoring, the whole call is the rerank.
        let mut scorer = None;
        spans.time("core.rerank", request, |spans| {
            let fit_start = spans.now_ns();
            let ranking = mirror
                .fb
                .rerank_scattered(&self.db, &snapshot, &pool, |fitted, ids| {
                    spans.record("core.fit", request, fit_start, spans.now_ns());
                    scorer = Some(ScorerRef::clone(fitted));
                    spans.time("core.score", request, |_| {
                        fitted.score_ids(&self.db, &snapshot, ids)
                    })
                });
            black_box(ranking);
        });
        if let Some(scorer) = &scorer {
            spans.time("service.shard.scatter", request, |_| {
                black_box(self.engine.scatter_scores(scorer, &snapshot, &pool));
            });
            let samples: Vec<&[f64]> = example
                .labeled
                .iter()
                .map(|&(id, _)| self.db.feature(id))
                .collect();
            let labels: Vec<f64> = example.labeled.iter().map(|&(_, y)| y).collect();
            let bounds = vec![self.config.coupled.c_content; samples.len()];
            let kernel = RbfKernel::new(self.config.gamma_content.unwrap_or(1.0));
            spans.time("svm.train", request, |_| {
                black_box(
                    lrf_svm::train(&samples, &labels, &bounds, kernel, &self.config.coupled.smo)
                        .is_ok(),
                );
            });
        }
        RoundFacts { pool, pool_nnz }
    }

    /// `SharedLogStore::snapshot` (ns per call, timed in batches of 64 —
    /// one call is below the clock's resolution).
    pub fn snapshot_probe(&self, batches: usize) -> Vec<f64> {
        (0..batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..64 {
                    black_box(self.log.snapshot());
                }
                start.elapsed().as_nanos() as f64 / 64.0
            })
            .collect()
    }

    /// `SparseVector::dot` (ns) on pairs of pool images.
    pub fn dot_probe(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        let snapshot = self.log.snapshot();
        pairs
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (snapshot.log_vector(a), snapshot.log_vector(b));
                let start = Instant::now();
                black_box(black_box(x).dot(black_box(y)));
                start.elapsed().as_nanos() as f64
            })
            .collect()
    }

    /// `SharedLogStore::record` (ns) on a private copy of the log: first
    /// with no snapshot outstanding (in-place append), then with one held
    /// (whole-store copy-on-write).
    pub fn record_probe(
        &self,
        idle: &[Vec<(usize, bool)>],
        cow: &[Vec<(usize, bool)>],
    ) -> (Vec<f64>, Vec<f64>) {
        let store = SharedLogStore::from_store((*self.log.snapshot()).clone());
        let timed = |s: &Vec<(usize, bool)>| {
            let session = to_session(s);
            let start = Instant::now();
            black_box(store.record(session));
            start.elapsed().as_nanos() as f64
        };
        let idle_ns = idle.iter().map(timed).collect();
        let cow_ns = cow
            .iter()
            .map(|s| {
                let held = store.snapshot();
                let ns = timed(s);
                drop(held);
                ns
            })
            .collect();
        (idle_ns, cow_ns)
    }

    /// `DurableLogStore` on `StdIo` in `dir`, seeded with the workload's
    /// log: durable appends, compactions, then a cold reopen. The fsync
    /// latencies are this sandbox's, not a storage device's.
    pub fn storage_probe(
        &self,
        dir: &Path,
        appends: &[Vec<(usize, bool)>],
        compactions: usize,
    ) -> Result<StorageFacts, String> {
        let seed = (*self.log.snapshot()).clone();
        let n_images = seed.n_images();
        let (store, _) = DurableLogStore::open_with_seed(StdIo::handle(), dir, seed, wal_options())
            .map_err(|e| format!("storage probe open: {e}"))?;
        let before = dir_bytes(dir);
        let mut append_ns = Vec::with_capacity(appends.len());
        for s in appends {
            let session = to_session(s);
            let start = Instant::now();
            store
                .record_durable(session)
                .map_err(|e| format!("storage probe append: {e}"))?;
            append_ns.push(start.elapsed().as_nanos() as f64);
        }
        let written = dir_bytes(dir).saturating_sub(before);
        let mut compact_ns = Vec::with_capacity(compactions);
        for _ in 0..compactions {
            let start = Instant::now();
            store
                .compact()
                .map_err(|e| format!("storage probe compact: {e}"))?;
            compact_ns.push(start.elapsed().as_nanos() as f64);
        }
        drop(store);
        let (_, recovery_s) = recover(dir, n_images)?;
        Ok(StorageFacts {
            append_ns,
            bytes_per_session: written as f64 / appends.len().max(1) as f64,
            compact_ns,
            recovery_s,
        })
    }
}
