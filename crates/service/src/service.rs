//! The serving engine: one shared database + shard engine + log, many
//! sessions.
//!
//! ## Concurrency architecture
//!
//! ```text
//!                  ┌────────────────────────────────────────────┐
//!                  │ Service (Sync — share &Service across      │
//!                  │          threads / a thread pool)          │
//!                  │                                            │
//!   Request ──────▶│  Mutex<SessionManager>   (table ops only:  │
//!                  │        │                  O(1) lookup,     │
//!                  │        │                  Open evicts)     │
//!                  │        ▼                                   │
//!                  │  Arc<Mutex<SessionState>> (per session:    │
//!                  │        │                   O(pool) ids;    │
//!                  │        │                   retrain runs    │
//!                  │        │                   here, parallel  │
//!                  │        ▼                   across sessions)│
//!                  │  Arc<ImageDatabase> ── Arc-shared flat     │
//!                  │  ShardedEngine      ── matrix (one copy),  │
//!                  │                        scanned by 1..N     │
//!                  │                        shard workers       │
//!                  │                                            │
//!                  │  SharedLogStore     ── snapshot reads,     │
//!                  │                        base+tail appends,  │
//!                  │                        WAL-first flushes   │
//!                  └────────────────────────────────────────────┘
//! ```
//!
//! The global lock covers only the session table; all learning runs under
//! per-session locks against an immutable database and a frozen log
//! snapshot, so N sessions retrain genuinely in parallel. Every service
//! searches through its engine's shard workers — one shard for
//! [`Service::new`] and durable services. The database is searched once
//! per session, at `Open`, as deep as the candidate pool; every rerank
//! re-ranks those neighbours, scoring them on the session's own thread,
//! and no session holds an N-long ranking.
//! Closing (or evicting) a session appends it to the shared log: in place,
//! or, while queries in flight hold a snapshot, to a new version that
//! shares the log's base and copies only its tail, so those queries keep
//! their snapshot and are never stalled. That is how today's sessions
//! become the log vectors tomorrow's coupled-SVM queries train on.

use crate::api::{Request, Response, ServiceError};
use crate::durability::DurabilityConfig;
use crate::flush::Flushable;
use crate::manager::{SessionGone, SessionManager};
use crate::metrics::{names, ServiceMetrics};
use crate::shard::ShardedEngine;
use crate::wire;
use lrf_cbir::{ranking_window, ImageDatabase};
use lrf_core::{FeedbackLoop, LrfConfig, SchemeKind};
use lrf_index::AnnIndex;
use lrf_logdb::{DurableRecovery, LogSession, LogStore, SharedLogStore, WalError};
use lrf_obs::RegistrySnapshot;
use lrf_storage::wal::WalOptions;
use lrf_storage::IoRef;
use lrf_sync::{Arc, Mutex, MutexExt};
use std::path::Path;
use std::time::Duration;

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Maximum resident sessions; the least-recently-used session is
    /// evicted (and flushed) beyond this.
    pub max_sessions: usize,
    /// Idle TTL in session-table operations (opens, closes and session
    /// lookups; `Ping`, `Metrics`, `Stats` and `SyncLog` are none): a
    /// session idle for more than this many is expired by the next `Open`,
    /// which flushes its judgments; a touch before then revives it. `0`
    /// disables the TTL.
    pub ttl_requests: u64,
    /// Images per screen/page (the paper's `N_l`, 20 in its protocol).
    pub screen_size: usize,
    /// Candidate-pool size for the rerank step (see
    /// [`lrf_core::PooledRetrieval`]), and so also `Open`'s search depth
    /// (with `screen_size`, if that is larger): the one search a
    /// session makes, unless it pages past the pool before its first
    /// rerank.
    pub pool_size: usize,
    /// Learning configuration shared by every session's scheme.
    pub lrf: LrfConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_sessions: 1024,
            ttl_requests: 4096,
            screen_size: 20,
            pool_size: 200,
            lrf: LrfConfig::default(),
        }
    }
}

/// One resident session: the resumable feedback loop plus the head of the
/// ranking its pages are served from — O(`pool_size` + judged) ids, never
/// an N-long ranking. Past the head, the ranking is the ids the head lacks
/// in ascending order, derived per page ([`ranking_window`]). Always held
/// as a [`Flushable`], whose tombstone
/// (set under the state's lock when the session is flushed on close or
/// eviction) makes every interleaving consistent: a request that looked
/// the session up *before* it was removed from the manager either fully
/// precedes the flush (its judgments are flushed) or observes
/// `SessionExpired` — never a mutation of a detached session.
struct SessionState {
    fb: FeedbackLoop,
    /// The query's nearest neighbours in distance order, searched at `Open`
    /// at depth `pool_size.max(screen_size)`: the first `pool_size` are
    /// every rerank's candidate pool, since the query never changes. They
    /// are the ranking's head until the first rerank. A `Page` past them
    /// before then deepens the search, at least doubling it; the first
    /// rerank trims them back to the pool.
    neighbors: Vec<usize>,
    /// The last rerank's re-ranked pool, the ranking's head from then on.
    reranked: Option<Vec<usize>>,
}

/// The thread-safe multi-session feedback service.
///
/// Each session's ranking starts from one search at `Open`, scattered over
/// the engine's shards, of depth `pool_size.max(screen_size)`. The search
/// is exact, so the screen and every page before a rerank are windows on
/// the full distance order, bit for bit.
pub struct Service {
    db: Arc<ImageDatabase>,
    /// Every search runs on these shard workers.
    engine: ShardedEngine,
    log: SharedLogStore,
    sessions: Mutex<SessionManager<Flushable<SessionState>>>,
    metrics: ServiceMetrics,
    config: ServiceConfig,
    /// The retry and shedding policy of a WAL-backed service; `None`
    /// means flushes are in-memory only (the pre-durability behaviour).
    durability: Option<DurabilityConfig>,
}

impl Service {
    /// Builds a service over `db` with one shard worker (a view over the
    /// database's feature allocation — no copy) and fresh metrics.
    ///
    /// # Panics
    /// Panics if the log does not cover `db`, or on nonsensical config
    /// (zero screen/pool size or session capacity, or a `config.lrf` that
    /// [`LrfConfig::validate`] rejects).
    pub fn new(db: ImageDatabase, log: LogStore, config: ServiceConfig) -> Self {
        Self::build(
            Arc::new(db),
            1,
            SharedLogStore::from_store(log),
            config,
            ServiceMetrics::new(),
            None,
        )
    }

    /// Builds a sharded service: the database is split into `n_shards`
    /// contiguous-id flat shards (views over the one shared feature
    /// matrix — no rows are copied), each pinned to a worker thread. The
    /// initial screen scatter-gathers the search across the shards,
    /// bit-identical to the one-shard service by construction (merge on
    /// squared distances); reranks score on the session's thread and
    /// send the shards nothing. Per-shard stage
    /// histograms and the queue-depth gauge register in the same
    /// `metrics` registry the request path records to.
    ///
    /// # Panics
    /// As [`Service::new`], and if `n_shards == 0`.
    pub fn sharded_with_metrics(
        db: ImageDatabase,
        log: LogStore,
        n_shards: usize,
        config: ServiceConfig,
        metrics: ServiceMetrics,
    ) -> Self {
        Self::build(
            Arc::new(db),
            n_shards,
            SharedLogStore::from_store(log),
            config,
            metrics,
            None,
        )
    }

    /// Builds a crash-safe service with one shard worker: the feedback log
    /// lives behind a checksummed WAL at `dir` on `io`, recovered (or
    /// seeded from `seed` when the directory is empty) before serving
    /// starts. Every flush is fsynced into the WAL before the close is
    /// acknowledged; `policy` governs retries and load shedding when
    /// storage fails. Recovery counters (sessions recovered, torn
    /// tails truncated, stale files swept) land in the `metrics` registry
    /// before the first request.
    ///
    /// `index` is checked against `db` — it must cover every image at the
    /// database's dimension — and then dropped: the service searches
    /// through its engine like every other. The parameter stays only
    /// because `benchmark/` passes one; it goes when the benchmark stops
    /// replaying the service through its adapter (ROADMAP items 5 and 6).
    ///
    /// # Panics
    /// As [`Service::new`], and if `index` does not cover `db` or its
    /// dimension differs from the database's.
    #[allow(clippy::too_many_arguments)]
    pub fn with_durability_metrics(
        db: ImageDatabase,
        index: Box<dyn AnnIndex>,
        io: IoRef,
        dir: &Path,
        seed: LogStore,
        config: ServiceConfig,
        policy: DurabilityConfig,
        metrics: ServiceMetrics,
    ) -> Result<(Self, DurableRecovery), WalError> {
        assert_eq!(index.len(), db.len(), "index does not cover the database");
        assert_eq!(
            index.dim(),
            db.dim(),
            "index dimension does not match the database"
        );
        drop(index);
        let opts = WalOptions {
            segment_bytes: policy.segment_bytes,
        };
        let (log, recovery) = SharedLogStore::open_with_seed(io, dir, seed, opts)?;
        metrics.count_recovery(&recovery);
        let svc = Self::build(Arc::new(db), 1, log, config, metrics, Some(policy));
        Ok((svc, recovery))
    }

    /// Checks the log and config against `db`, then spawns the engine's
    /// `n_shards` workers — a rejected service starts no thread.
    fn build(
        db: Arc<ImageDatabase>,
        n_shards: usize,
        log: SharedLogStore,
        config: ServiceConfig,
        metrics: ServiceMetrics,
        durability: Option<DurabilityConfig>,
    ) -> Self {
        assert_eq!(
            log.n_images(),
            db.len(),
            "log store does not cover the database"
        );
        assert!(config.screen_size > 0, "screen size must be positive");
        assert!(config.pool_size > 0, "pool size must be positive");
        // Every `Open` builds its scheme from this config; reject a bad one
        // here rather than panic a request thread per session.
        config.lrf.validate();
        let sessions = Mutex::new(SessionManager::new(
            config.max_sessions,
            config.ttl_requests,
        ));
        let engine = ShardedEngine::new(
            Arc::clone(&db),
            n_shards,
            metrics.registry(),
            metrics.clock_ref(),
        );
        // The store counts its own events; adopting the handles makes them
        // part of this service's snapshots.
        let log_counters = log.counters();
        for (name, counter) in [
            (names::LOG_SNAPSHOTS, log_counters.snapshots),
            (names::LOG_APPENDS, log_counters.appends),
            (names::LOG_COW_CLONES, log_counters.cow_clones),
        ] {
            metrics.registry().adopt_counter(name, counter);
        }
        Self {
            db,
            engine,
            log,
            sessions,
            metrics,
            config,
            durability,
        }
    }

    /// The shared database.
    pub fn db(&self) -> &ImageDatabase {
        &self.db
    }

    /// Sessions accumulated in the feedback log so far.
    pub fn log_sessions(&self) -> usize {
        self.log.n_sessions()
    }

    /// This instance's observability layer (registry + clock + handles).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Freezes every instrument — what `Request::Metrics` returns.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.metrics.snapshot()
    }

    /// The metrics page in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        lrf_obs::prometheus::render(&self.metrics.snapshot())
    }

    /// Shuts the service down, returning the accumulated log for
    /// persistence. Resident sessions are flushed first (in id order, so
    /// the resulting log is deterministic). On a durable service a final
    /// compaction is attempted, so the on-disk state matches the returned
    /// store whenever storage allows.
    pub fn into_log(self) -> LogStore {
        let drained = self.sessions.lock_recover().drain();
        for (_, payload) in drained {
            let _ = self.flush(&payload);
        }
        // Best-effort: a still-failing disk must not block shutdown.
        let _ = self.compact();
        self.log.into_store()
    }

    /// Handles one request. Thread-safe: call from any number of threads.
    pub fn handle(&self, request: Request) -> Response {
        // The span records end-to-end latency when it drops — after the
        // response (including a Metrics snapshot) is fully built.
        let _request_span = self.metrics.time(&self.metrics.request_latency);
        self.metrics.requests_total.inc();
        match request {
            Request::Open { query, scheme } => self.open(query, scheme),
            Request::Mark {
                session,
                image,
                relevant,
            } => self.mark(session, image, relevant),
            Request::Rerank { session } => self.rerank(session),
            Request::Page {
                session,
                offset,
                count,
            } => self.page(session, offset, count),
            Request::Close { session } => self.close(session),
            Request::SyncLog => self.sync_log(),
            Request::Stats => self.stats(),
            Request::Metrics => Response::Metrics {
                snapshot: self.metrics.snapshot(),
            },
            Request::Ping => Response::Pong {
                proto_version: wire::PROTO_VERSION,
            },
        }
    }

    /// Wire transport: parses one `{v, id, body}` frame (see
    /// [`crate::wire`]), handles it, and returns the rendered reply frame
    /// plus the HTTP status it maps to — the whole surface a network
    /// transport needs.
    pub(crate) fn handle_wire(&self, request_json: &str) -> (String, u16) {
        let (mode, response) = match wire::parse_request(request_json) {
            Ok(parsed) => (parsed.mode, self.handle(parsed.body)),
            Err(err) => (err.mode, Response::err(err.error)),
        };
        let status = wire::http_status(&response);
        (wire::render_response(mode, &response), status)
    }

    fn open(&self, query: usize, scheme: SchemeKind) -> Response {
        // Admission control: while the unsynced backlog is past its
        // watermark, refuse new sessions — every judgment they produce
        // would join the feedback we cannot make crash-safe.
        if let Some(policy) = &self.durability {
            let unsynced = self.log.unsynced();
            if policy.sheds(unsynced) {
                self.metrics.shed_requests.inc();
                return Response::err(ServiceError::Overloaded {
                    spilled_sessions: unsynced,
                });
            }
        }
        if query >= self.db.len() {
            return Response::err(ServiceError::UnknownQuery {
                query,
                n_images: self.db.len(),
            });
        }
        let fb = FeedbackLoop::new(scheme, self.config.lrf, query, self.db.len());
        // The initial ranking is the content-based index ranking — exactly
        // what the paper's users judged first — searched as deep as the
        // pool every rerank re-ranks, and no deeper.
        let neighbors = self.search(query, self.config.pool_size.max(self.config.screen_size));
        let screen = ranking_window(&neighbors, self.db.len(), 0, self.config.screen_size);
        let state = SessionState {
            fb,
            neighbors,
            reranked: None,
        };
        let (session, evicted) = {
            let _lookup = self.metrics.time(&self.metrics.stage_session_lookup);
            let mut sessions = self.sessions.lock_recover();
            let inserted = sessions.insert(Flushable::new(state));
            self.metrics.active_sessions.set(sessions.len() as u64);
            inserted
        };
        // The only place sessions are evicted (over capacity or idle past
        // the TTL): their judgments are salvaged into the log.
        for payload in evicted {
            let _ = self.flush(&payload);
        }
        Response::Opened { session, screen }
    }

    fn mark(&self, session: u64, image: usize, relevant: bool) -> Response {
        let payload = match self.lookup(session) {
            Ok(payload) => payload,
            Err(e) => return Response::err(e),
        };
        let mut guard = payload.lock_recover();
        let Some(state) = guard.get_mut() else {
            return Response::err(ServiceError::SessionExpired { session });
        };
        match state.fb.mark(image, relevant) {
            Ok(()) => Response::Marked {
                session,
                n_judged: state.fb.n_judged(),
            },
            Err(e) => Response::err(e.into()),
        }
    }

    fn rerank(&self, session: u64) -> Response {
        let payload = match self.lookup(session) {
            Ok(payload) => payload,
            Err(e) => return Response::err(e),
        };
        // The global lock is already released: the retrain below runs
        // under this session's lock only, concurrently with other
        // sessions' retrains.
        let mut guard = payload.lock_recover();
        let Some(state) = guard.get_mut() else {
            return Response::err(ServiceError::SessionExpired { session });
        };
        let snapshot = self.log.snapshot();
        // The query never changes, so the neighbours `Open` searched are
        // the pool a fresh search would return: no search here.
        let neighbors = &state.neighbors[..self.config.pool_size.min(state.neighbors.len())];
        let reranked = {
            let _retrain = self.metrics.time(&self.metrics.stage_retrain);
            // Train once and score the pool here, on the session's thread:
            // the shard workers serve searches only, so an `Open`'s scan
            // never queues behind another session's pool scoring. The fit
            // scores the pool itself, from the session's row blocks (step
            // 1 and the final score share their rows); the closure only
            // reads those scores back.
            state
                .fb
                .rerank_scattered(&self.db, &snapshot, neighbors, |scorer, ids| {
                    scorer.score_ids(&self.db, &snapshot, ids)
                })
        };
        state.neighbors.truncate(self.config.pool_size);
        state.neighbors.shrink_to_fit();
        let page = ranking_window(&reranked, self.db.len(), 0, self.config.screen_size);
        state.reranked = Some(reranked);
        // Surface solver health: a max_iter-capped round must not pass as
        // a silently exact one (schemes that never train report converged).
        // `count_round` also lifts the round's SMO iteration,
        // kernel-cache and row-block totals into the registry.
        let diagnostics = state.fb.last_diagnostics();
        if let Some(d) = &diagnostics {
            self.metrics.count_round(d);
        }
        Response::Reranked {
            session,
            round: state.fb.rounds(),
            page,
            converged: diagnostics.is_none_or(|d| d.converged),
        }
    }

    fn page(&self, session: u64, offset: usize, count: usize) -> Response {
        let payload = match self.lookup(session) {
            Ok(payload) => payload,
            Err(e) => return Response::err(e),
        };
        let mut guard = payload.lock_recover();
        let Some(state) = guard.get_mut() else {
            return Response::err(ServiceError::SessionExpired { session });
        };
        let end = offset.saturating_add(count).min(self.db.len());
        if state.reranked.is_none() && offset < end && end > state.neighbors.len() {
            // Before the first rerank the head is the distance order only
            // as deep as it was searched: continue it, at least doubling
            // the depth, so a client walking the pages pays O(log N) scans.
            let depth = end.max(2 * state.neighbors.len());
            state.neighbors = self.search(state.fb.example().query, depth);
        }
        let head = state.reranked.as_deref().unwrap_or(&state.neighbors);
        Response::Page {
            session,
            ids: ranking_window(head, self.db.len(), offset, count),
        }
    }

    /// The query's `depth` nearest ids in distance order (`depth` clamped
    /// to the database).
    fn search(&self, query: usize, depth: usize) -> Vec<usize> {
        let _scoring = self.metrics.time(&self.metrics.stage_scoring);
        let depth = depth.min(self.db.len());
        let (neighbors, stats) = self.engine.search_with_stats(self.db.feature(query), depth);
        self.metrics.count_search(stats);
        neighbors.into_iter().map(|(id, _)| id).collect()
    }

    fn close(&self, session: u64) -> Response {
        let removed = {
            let _lookup = self.metrics.time(&self.metrics.stage_session_lookup);
            let mut sessions = self.sessions.lock_recover();
            let removed = sessions.remove(session);
            self.metrics.active_sessions.set(sessions.len() as u64);
            removed
        };
        match removed {
            Ok(payload) => {
                // An empty session has nothing to lose, so it is
                // (vacuously) durable.
                let (log_session, durable) = match self.flush(&payload) {
                    Some((id, durable)) => (Some(id), durable),
                    None => (None, true),
                };
                Response::Closed {
                    session,
                    log_session,
                    durable,
                }
            }
            Err(gone) => Response::err(Self::gone_error(session, gone)),
        }
    }

    /// Compacts: one snapshot makes every unsynced session durable. A
    /// storage error changes nothing, and a later `SyncLog` tries again.
    fn sync_log(&self) -> Response {
        if self.durability.is_none() {
            return Response::Synced {
                spilled: 0,
                wal_segments: 0,
                compacted: false,
            };
        }
        if let Err(e) = self.compact() {
            return Response::err(ServiceError::Degraded {
                reason: e.to_string(),
            });
        }
        Response::Synced {
            spilled: self.log.unsynced(),
            wal_segments: self.log.wal_segments(),
            compacted: true,
        }
    }

    fn stats(&self) -> Response {
        Response::Stats {
            active_sessions: self.sessions.lock_recover().len(),
            log_sessions: self.log.n_sessions(),
            n_images: self.db.len(),
            flushed_sessions: self.metrics.flushed_sessions.get() as usize,
            nonconverged_retrains: self.metrics.nonconverged_retrains.get() as usize,
        }
    }

    fn lookup(&self, session: u64) -> Result<Arc<Mutex<Flushable<SessionState>>>, ServiceError> {
        let _lookup = self.metrics.time(&self.metrics.stage_session_lookup);
        self.sessions
            .lock_recover()
            .get(session)
            .map_err(|gone| Self::gone_error(session, gone))
    }

    fn gone_error(session: u64, gone: SessionGone) -> ServiceError {
        match gone {
            SessionGone::Expired => ServiceError::SessionExpired { session },
            SessionGone::NeverExisted => ServiceError::UnknownSession { session },
        }
    }

    /// Flushes one session's judgments into the shared log and tombstones
    /// the state; returns the new log-session id and whether it reached
    /// durable storage (empty sessions flush nothing). Idempotent:
    /// [`Flushable::close`] yields the state at most once, and a request
    /// that raced the removal and is still holding the `Arc` observes the
    /// tombstone instead of mutating a detached session.
    fn flush(&self, payload: &Arc<Mutex<Flushable<SessionState>>>) -> Option<(usize, bool)> {
        let _flush_span = self.metrics.time(&self.metrics.stage_flush);
        let mut guard = payload.lock_recover();
        let state = guard.close()?;
        let session = state.fb.to_log_session();
        if session.is_empty() {
            return None;
        }
        let recorded = self.record_session(session);
        self.metrics.flushed_sessions.inc();
        Some(recorded)
    }

    /// Records one completed session through the durability policy:
    /// WAL-first with retry + bounded backoff + clock deadline, recording
    /// volatile when the budget is exhausted. Returns the log session id
    /// and whether it is crash-safe.
    fn record_session(&self, session: LogSession) -> (usize, bool) {
        let Some(cfg) = &self.durability else {
            // WAL-less service: the in-memory record is all there is.
            return (self.log.record(session), false);
        };
        let _span = self.metrics.time(&self.metrics.stage_durable_flush);
        // While any session is unsynced, skip the retry budget entirely:
        // the WAL refuses appends behind an unsynced session (replay order
        // must match session-id order), and paying a backoff ladder per
        // flush during a known outage only adds latency. Compaction is the
        // one path back.
        if self.log.unsynced() == 0 {
            let start = self.metrics.clock().now_ns();
            /// Ceiling of the doubling backoff: 100 ms.
            const MAX_BACKOFF_NS: u64 = 100_000_000;
            let mut backoff = cfg.backoff_ns;
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                match self.log.record_durable(session.clone()) {
                    Ok(id) => {
                        self.metrics.wal_appends.inc();
                        self.maybe_compact(cfg);
                        return (id, true);
                    }
                    Err(_) => {
                        let within_deadline = cfg.deadline_ns == 0
                            || self.metrics.clock().now_ns().saturating_sub(start)
                                < cfg.deadline_ns;
                        if attempt >= cfg.max_attempts.max(1) || !within_deadline {
                            break;
                        }
                        self.metrics.wal_retries.inc();
                        if backoff > 0 {
                            std::thread::sleep(Duration::from_nanos(backoff));
                            backoff = backoff.saturating_mul(2).min(MAX_BACKOFF_NS);
                        }
                    }
                }
            }
            self.metrics.wal_append_failures.inc();
        }
        // Degraded path: the judgment still lands in memory (future
        // queries train on it) and waits for a compaction; the caller
        // learns the truth via `durable: false`.
        let id = self.log.record(session);
        self.publish_unsynced();
        (id, false)
    }

    /// Opportunistic compaction on the durable fast path: once enough
    /// segments accumulated, fold the WAL into a fresh snapshot.
    fn maybe_compact(&self, cfg: &DurabilityConfig) {
        if cfg.compact_segments > 0 && self.log.wal_segments() >= cfg.compact_segments {
            let _ = self.compact();
        }
    }

    /// The one repair after an outage and the WAL's fold: snapshot the
    /// whole log (see [`SharedLogStore::compact`]). A no-op on a WAL-less
    /// service.
    fn compact(&self) -> Result<(), WalError> {
        if self.durability.is_none() {
            return Ok(());
        }
        self.log.compact()?;
        self.metrics.wal_compactions.inc();
        self.publish_unsynced();
        Ok(())
    }

    /// Mirrors the log's unsynced count into the durability gauges.
    fn publish_unsynced(&self) {
        let unsynced = self.log.unsynced() as u64;
        self.metrics.wal_unsynced_sessions.set(unsynced);
        self.metrics.storage_degraded.set(u64::from(unsynced > 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::{build_flat_index, collect_log, CorelDataset, CorelSpec};
    use lrf_logdb::SimulationConfig;

    fn dataset() -> (CorelDataset, LogStore) {
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
        (ds, log)
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            max_sessions: 8,
            ttl_requests: 0,
            screen_size: 6,
            pool_size: 24,
            lrf: LrfConfig {
                n_unlabeled: 8,
                ..LrfConfig::default()
            },
        }
    }

    fn service() -> Service {
        let (ds, log) = dataset();
        Service::new(ds.db, log, config())
    }

    #[test]
    fn full_session_lifecycle() {
        let svc = service();
        let logged_before = svc.log_sessions();
        let Response::Opened { session, screen } = svc.handle(Request::Open {
            query: 5,
            scheme: SchemeKind::LrfCsvm,
        }) else {
            panic!("open failed")
        };
        assert_eq!(screen.len(), 6);
        assert_eq!(screen[0], 5, "query ranks first in its own screen");

        // Judge the whole screen by ground truth.
        for &id in &screen {
            let resp = svc.handle(Request::Mark {
                session,
                image: id,
                relevant: svc.db().same_category(id, 5),
            });
            assert!(matches!(resp, Response::Marked { .. }), "{resp:?}");
        }

        let Response::Reranked { round, page, .. } = svc.handle(Request::Rerank { session }) else {
            panic!("rerank failed")
        };
        assert_eq!(round, 1);
        assert_eq!(page.len(), 6);

        // Pages are slices of one consistent ranking.
        let Response::Page { ids, .. } = svc.handle(Request::Page {
            session,
            offset: 0,
            count: 6,
        }) else {
            panic!("page failed")
        };
        assert_eq!(ids, page);

        let Response::Closed {
            log_session: Some(id),
            ..
        } = svc.handle(Request::Close { session })
        else {
            panic!("close failed")
        };
        assert_eq!(id, logged_before);
        assert_eq!(svc.log_sessions(), logged_before + 1);

        // The session is gone now — typed error, not a panic.
        let resp = svc.handle(Request::Rerank { session });
        assert_eq!(
            resp,
            Response::err(ServiceError::SessionExpired { session })
        );
    }

    #[test]
    fn rerank_before_any_mark_answers_the_opening_screen() {
        let svc = service();
        for scheme in SchemeKind::all() {
            let Response::Opened { session, screen } =
                svc.handle(Request::Open { query: 5, scheme })
            else {
                panic!("open failed")
            };
            let before = svc.metrics.smo_iterations.get();
            assert_eq!(
                svc.handle(Request::Rerank { session }),
                Response::Reranked {
                    session,
                    round: 1,
                    page: screen.clone(),
                    converged: true,
                },
                "{scheme:?}"
            );
            // Nothing was fitted; the session is intact and a judged
            // round trains as usual.
            let solved = svc.metrics.smo_iterations.get();
            assert_eq!(solved, before, "{scheme:?}");
            for &id in &screen {
                let relevant = svc.db().same_category(id, 5);
                let marked = svc.handle(Request::Mark {
                    session,
                    image: id,
                    relevant,
                });
                assert!(matches!(marked, Response::Marked { .. }), "{marked:?}");
            }
            let Response::Reranked { round, page, .. } = svc.handle(Request::Rerank { session })
            else {
                panic!("{scheme:?}: judged rerank failed")
            };
            assert_eq!((round, page.len()), (2, 6), "{scheme:?}");
            assert_eq!(
                svc.metrics.smo_iterations.get() > solved,
                scheme != SchemeKind::Euclidean,
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn page_clamps_to_the_ranking_tail() {
        let svc = service();
        let Response::Opened { session, .. } = svc.handle(Request::Open {
            query: 0,
            scheme: SchemeKind::Euclidean,
        }) else {
            panic!("open failed")
        };
        let n = svc.db().len();
        let Response::Page { ids, .. } = svc.handle(Request::Page {
            session,
            offset: n - 2,
            count: 100,
        }) else {
            panic!("page failed")
        };
        assert_eq!(ids.len(), 2);
        let Response::Page { ids, .. } = svc.handle(Request::Page {
            session,
            offset: n + 50,
            count: 3,
        }) else {
            panic!("page failed")
        };
        assert!(ids.is_empty());
    }

    #[test]
    fn errors_are_typed_for_every_failure_mode() {
        let svc = service();
        let n = svc.db().len();
        // Unknown query.
        assert_eq!(
            svc.handle(Request::Open {
                query: n,
                scheme: SchemeKind::RfSvm
            }),
            Response::err(ServiceError::UnknownQuery {
                query: n,
                n_images: n
            })
        );
        // Never-issued session id.
        assert_eq!(
            svc.handle(Request::Mark {
                session: 99,
                image: 0,
                relevant: true
            }),
            Response::err(ServiceError::UnknownSession { session: 99 })
        );
        // Bad judgments on a live session.
        let Response::Opened { session, .. } = svc.handle(Request::Open {
            query: 1,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        svc.handle(Request::Mark {
            session,
            image: 4,
            relevant: true,
        });
        assert_eq!(
            svc.handle(Request::Mark {
                session,
                image: 4,
                relevant: false
            }),
            Response::err(ServiceError::DuplicateJudgment { image: 4 })
        );
        assert_eq!(
            svc.handle(Request::Mark {
                session,
                image: n + 7,
                relevant: true
            }),
            Response::err(ServiceError::UnknownImage {
                image: n + 7,
                n_images: n
            })
        );
    }

    #[test]
    fn lru_eviction_flushes_judged_sessions_into_the_log() {
        let (ds, log) = dataset();
        let logged_before = log.n_sessions();
        let svc = Service::new(
            ds.db,
            log,
            ServiceConfig {
                max_sessions: 2,
                ..config()
            },
        );
        // Open session A and give it one judgment.
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
        // Fill capacity and push A out (B, C newer).
        let Response::Opened { session: b, .. } = svc.handle(Request::Open {
            query: 1,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        let Response::Opened { session: c, .. } = svc.handle(Request::Open {
            query: 2,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        assert_ne!(a, b);
        assert_ne!(b, c);
        // A is gone and its judgment landed in the log.
        assert_eq!(
            svc.handle(Request::Rerank { session: a }),
            Response::err(ServiceError::SessionExpired { session: a })
        );
        assert_eq!(svc.log_sessions(), logged_before + 1);
        // B never judged anything: when evicted, nothing is flushed.
        let Response::Opened { .. } = svc.handle(Request::Open {
            query: 3,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        assert_eq!(svc.log_sessions(), logged_before + 1);
    }

    #[test]
    fn ttl_expires_idle_sessions() {
        let (ds, log) = dataset();
        let logged_before = log.n_sessions();
        let svc = Service::new(
            ds.db,
            log,
            ServiceConfig {
                ttl_requests: 3,
                ..config()
            },
        );
        let Response::Opened { session: idle, .. } = svc.handle(Request::Open {
            query: 0,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        svc.handle(Request::Mark {
            session: idle,
            image: 0,
            relevant: true,
        });
        let Response::Opened { session: busy, .. } = svc.handle(Request::Open {
            query: 1,
            scheme: SchemeKind::Euclidean,
        }) else {
            panic!("open failed")
        };
        // Keep `busy` alive past the TTL; `idle` never gets touched.
        for _ in 0..5 {
            let resp = svc.handle(Request::Page {
                session: busy,
                offset: 0,
                count: 1,
            });
            assert!(matches!(resp, Response::Page { .. }), "{resp:?}");
        }
        // Idle past the TTL, but only an `Open` expires it.
        assert_eq!(svc.log_sessions(), logged_before);
        let Response::Opened { .. } = svc.handle(Request::Open {
            query: 2,
            scheme: SchemeKind::Euclidean,
        }) else {
            panic!("open failed")
        };
        assert_eq!(svc.log_sessions(), logged_before + 1, "judgment flushed");
        assert_eq!(
            svc.handle(Request::Page {
                session: idle,
                offset: 0,
                count: 1
            }),
            Response::err(ServiceError::SessionExpired { session: idle })
        );
        // The busy one survived the Open that expired the idle one.
        assert!(matches!(
            svc.handle(Request::Page {
                session: busy,
                offset: 0,
                count: 1
            }),
            Response::Page { .. }
        ));
    }

    /// The body of a `{v, id, code, body}` reply frame.
    fn frame_body(frame: &str) -> Response {
        use serde::Deserialize;
        let value: serde::Value = serde_json::from_str(frame).unwrap();
        Response::from_value(value.get("body").unwrap()).unwrap()
    }

    #[test]
    fn json_transport_roundtrips_and_rejects_garbage() {
        let svc = service();
        let (resp, _) = svc
            .handle_wire(r#"{"v": 1, "id": 1, "body": {"Open": {"query": 2, "scheme": "RfSvm"}}}"#);
        let parsed = frame_body(&resp);
        assert!(matches!(parsed, Response::Opened { .. }), "{resp}");
        let (resp, _) = svc.handle_wire("not json at all");
        let parsed = frame_body(&resp);
        assert!(
            matches!(
                parsed,
                Response::Error {
                    error: ServiceError::BadRequest { .. }
                }
            ),
            "{resp}"
        );
    }

    #[test]
    fn deeply_nested_json_is_a_bad_request_not_an_abort() {
        // A parser that recursed once per `[` would overflow this thread's
        // stack — an abort, not a panic — taking the whole server down.
        let svc = service();
        let (body, status) = svc.handle_wire(&"[".repeat(100_000));
        assert_eq!(status, 400);
        let parsed = frame_body(&body);
        assert!(
            matches!(
                parsed,
                Response::Error {
                    error: ServiceError::BadRequest { .. }
                }
            ),
            "{body}"
        );
        // And the service still answers.
        assert_eq!(
            svc.handle(Request::Ping),
            Response::Pong {
                proto_version: wire::PROTO_VERSION
            }
        );
    }

    #[test]
    fn into_log_drains_resident_sessions() {
        let svc = service();
        let logged_before = svc.log_sessions();
        let Response::Opened { session, .. } = svc.handle(Request::Open {
            query: 2,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        svc.handle(Request::Mark {
            session,
            image: 2,
            relevant: true,
        });
        let log = svc.into_log();
        assert_eq!(log.n_sessions(), logged_before + 1);
    }

    #[test]
    fn requests_racing_a_close_observe_the_tombstone() {
        // A request thread can hold a session's Arc (from lookup) while
        // another thread closes the session and flushes it. The flush
        // tombstones the state under its lock, so the racer must see
        // SessionExpired instead of mutating a detached session whose
        // judgment would silently miss the log.
        let svc = service();
        let Response::Opened { session, .. } = svc.handle(Request::Open {
            query: 3,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        svc.handle(Request::Mark {
            session,
            image: 3,
            relevant: true,
        });
        // Simulate the in-flight request: resolve the payload before the
        // close removes it from the manager.
        let payload = svc.lookup(session).expect("session is live");
        let Response::Closed {
            log_session: Some(_),
            ..
        } = svc.handle(Request::Close { session })
        else {
            panic!("close failed")
        };
        assert!(
            payload.lock().unwrap().get_mut().is_none(),
            "flush must tombstone"
        );
        // Re-flushing the detached payload is a no-op (no double log
        // entry), which is what makes racing evict/close paths safe.
        let logged = svc.log_sessions();
        assert_eq!(svc.flush(&payload), None);
        assert_eq!(svc.log_sessions(), logged);
    }

    #[test]
    fn stats_report_counters() {
        let svc = service();
        let Response::Stats {
            active_sessions,
            log_sessions,
            n_images,
            flushed_sessions,
            nonconverged_retrains,
        } = svc.handle(Request::Stats)
        else {
            panic!("stats failed")
        };
        assert_eq!(active_sessions, 0);
        assert_eq!(log_sessions, 20);
        assert_eq!(n_images, svc.db().len());
        assert_eq!(flushed_sessions, 0);
        assert_eq!(nonconverged_retrains, 0);
    }

    #[test]
    fn metrics_endpoint_reports_stage_work() {
        let svc = service();
        let Response::Opened { session, screen } = svc.handle(Request::Open {
            query: 5,
            scheme: SchemeKind::LrfCsvm,
        }) else {
            panic!("open failed")
        };
        for &id in &screen {
            svc.handle(Request::Mark {
                session,
                image: id,
                relevant: svc.db().same_category(id, 5),
            });
        }
        svc.handle(Request::Rerank { session });
        svc.handle(Request::Close { session });

        let Response::Metrics { snapshot } = svc.handle(Request::Metrics) else {
            panic!("metrics failed")
        };
        // 1 open + 6 marks + 1 rerank + 1 close + this Metrics request
        // (counted before its own snapshot is taken).
        assert_eq!(snapshot.counter("requests_total"), Some(10));
        assert_eq!(snapshot.histogram("request_latency_ns").unwrap().count, 9);
        // Every stage saw work: the table was touched by marks/rerank/open/
        // close, scoring (the index search) ran on open, the retrain once,
        // the flush once (close; empty-eviction flushes also record).
        assert_eq!(
            snapshot.histogram("stage_session_lookup_ns").unwrap().count,
            9
        );
        // 1, not 2: the rerank re-ranks the pool open searched, no search.
        assert_eq!(snapshot.histogram("stage_scoring_ns").unwrap().count, 1);
        assert_eq!(snapshot.histogram("stage_retrain_ns").unwrap().count, 1);
        assert_eq!(snapshot.histogram("stage_flush_ns").unwrap().count, 1);
        // The solver, index and log totals flowed through.
        assert!(snapshot.counter("smo_iterations_total").unwrap() > 0);
        assert!(snapshot.counter("kernel_cache_misses_total").unwrap() > 0);
        assert!(snapshot.counter("ann_distance_evals_total").unwrap() > 0);
        assert_eq!(snapshot.counter("flushed_sessions_total"), Some(1));
        assert_eq!(snapshot.counter("log_appends_total"), Some(1));
        assert_eq!(snapshot.gauge("active_sessions"), Some(0));
        // The same snapshot round-trips through the JSON transport and
        // renders as well-formed Prometheus text.
        let (json, _) = svc.handle_wire(r#"{"v": 1, "id": 2, "body": "Metrics"}"#);
        assert!(
            matches!(frame_body(&json), Response::Metrics { .. }),
            "{json}"
        );
        let page = svc.metrics_prometheus();
        assert!(page.contains("# TYPE request_latency_ns histogram"));
        assert!(page.contains("request_latency_ns_count"));
        // 10 requests above + the JSON-transport Metrics request.
        assert!(page.contains("requests_total 11"), "{page}");
    }

    #[test]
    fn deterministic_latencies_under_an_injected_clock() {
        // Clock injection: a manual clock never advances during a request,
        // so every recorded duration is exactly zero while counts still
        // accumulate — the histogram contents are fully deterministic.
        let (ds, log) = dataset();
        let svc = Service::build(
            Arc::new(ds.db),
            1,
            SharedLogStore::from_store(log),
            config(),
            ServiceMetrics::with_clock(lrf_obs::ManualClock::shared()),
            None,
        );
        svc.handle(Request::Open {
            query: 1,
            scheme: SchemeKind::Euclidean,
        });
        let h = svc.metrics_snapshot();
        let lat = h.histogram("request_latency_ns").unwrap();
        assert_eq!((lat.count, lat.sum, lat.max), (1, 0, 0));
    }

    /// A durability policy with no sleeps: fault-injection runs stay
    /// instant and fully deterministic.
    fn durable_policy() -> DurabilityConfig {
        DurabilityConfig {
            max_attempts: 2,
            backoff_ns: 0,
            deadline_ns: 0,
            shed_watermark: 1,
            ..DurabilityConfig::default()
        }
    }

    fn wal_dir() -> &'static std::path::Path {
        std::path::Path::new("/srv/feedback-wal")
    }

    fn durable_service(io: lrf_storage::IoRef) -> (Service, lrf_logdb::DurableRecovery) {
        let (ds, log) = dataset();
        let index: Box<dyn AnnIndex> = Box::new(build_flat_index(&ds.db));
        Service::with_durability_metrics(
            ds.db,
            index,
            io,
            wal_dir(),
            log,
            config(),
            durable_policy(),
            ServiceMetrics::with_clock(lrf_obs::ManualClock::shared()),
        )
        .unwrap()
    }

    /// Runs one judged session through the service and closes it,
    /// returning the close response.
    fn run_one_session(svc: &Service, query: usize) -> Response {
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
        svc.handle(Request::Close { session })
    }

    #[test]
    fn volatile_service_reports_nondurable_flushes() {
        // The pre-durability constructors keep working unchanged, but a
        // close must not claim crash-safety it doesn't have.
        let svc = service();
        let resp = run_one_session(&svc, 5);
        let Response::Closed {
            log_session: Some(_),
            durable,
            ..
        } = resp
        else {
            panic!("close failed: {resp:?}")
        };
        assert!(!durable, "a WAL-less flush is not durable");
        // SyncLog on a WAL-less service is a trivial no-op.
        assert_eq!(
            svc.handle(Request::SyncLog),
            Response::Synced {
                spilled: 0,
                wal_segments: 0,
                compacted: false
            }
        );
    }

    #[test]
    fn durable_close_survives_crash_and_recovery() {
        let mem = lrf_storage::MemIo::handle();
        let (svc, rec) = durable_service(mem.clone());
        assert!(rec.seeded, "empty disk adopts the simulated seed log");
        let seed_sessions = svc.log_sessions();
        assert_eq!(seed_sessions, 20);

        let resp = run_one_session(&svc, 5);
        let Response::Closed {
            log_session: Some(id),
            durable,
            ..
        } = resp
        else {
            panic!("close failed: {resp:?}")
        };
        assert!(durable, "healthy storage must ack durably");
        assert_eq!(id, seed_sessions);
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.counter(names::WAL_APPENDS), Some(1));
        assert_eq!(snap.counter(names::WAL_RETRIES), Some(0));
        // Manual clock: the durable-flush stage recorded one zero-length
        // span — deterministic proof the stage timer is wired.
        let h = snap.histogram(names::STAGE_DURABLE_FLUSH).unwrap();
        assert_eq!((h.count, h.sum), (1, 0));
        assert_eq!(snap.counter(names::RECOVERY_SESSIONS), Some(0));
        drop(svc);
        mem.crash();

        // Power loss: the acknowledged close must come back, with the
        // recovery surfaced through the metrics registry.
        let (svc, rec) = durable_service(mem.clone());
        assert!(!rec.seeded, "disk state wins over the seed");
        assert_eq!(rec.recovered_sessions, 21);
        assert_eq!(rec.replayed_sessions, 1, "the close replays from the WAL");
        assert_eq!(svc.log_sessions(), 21);
        assert_eq!(
            svc.metrics_snapshot().counter(names::RECOVERY_SESSIONS),
            Some(21)
        );
    }

    #[test]
    fn outage_degrades_then_sync_log_reconciles() {
        // Calibrate: service construction is the only storage traffic
        // before the first flush (open/mark never touch disk), so a dry
        // run pins the op index where the outage window must start.
        let construction_ops = {
            let mem = lrf_storage::MemIo::handle();
            let fault = lrf_storage::FaultIo::handle(mem, lrf_storage::FaultPlan::new());
            let (_svc, _) = durable_service(fault.clone());
            fault.ops()
        };

        let mem = lrf_storage::MemIo::handle();
        let fault = lrf_storage::FaultIo::handle(
            mem.clone(),
            lrf_storage::FaultPlan::outage(construction_ops, construction_ops + 30),
        );
        let (svc, _) = durable_service(fault.clone());

        // Flush during the outage: acknowledged, honestly non-durable.
        let resp = run_one_session(&svc, 5);
        let Response::Closed {
            log_session: Some(_),
            durable,
            ..
        } = resp
        else {
            panic!("close failed: {resp:?}")
        };
        assert!(!durable, "flush during an outage must not claim durability");
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.counter(names::WAL_APPEND_FAILURES), Some(1));
        assert_eq!(snap.counter(names::WAL_RETRIES), Some(1), "max_attempts=2");
        assert_eq!(snap.gauge(names::WAL_UNSYNCED_SESSIONS), Some(1));
        assert_eq!(snap.gauge(names::STORAGE_DEGRADED), Some(1));
        // The judgment still trains future queries (recorded volatile).
        assert_eq!(svc.log_sessions(), 21);

        // Admission control: 1 unsynced ≥ watermark 1 sheds new Opens.
        let resp = svc.handle(Request::Open {
            query: 0,
            scheme: SchemeKind::Euclidean,
        });
        assert_eq!(
            resp,
            Response::err(ServiceError::Overloaded {
                spilled_sessions: 1
            })
        );
        assert_eq!(
            svc.metrics_snapshot().counter(names::SHED_REQUESTS),
            Some(1)
        );

        // While the outage holds, SyncLog reports Degraded and the session
        // stays unsynced. Each failed attempt consumes op indices, so the
        // window eventually ends and a later SyncLog's compaction lands.
        let mut synced = None;
        for attempt in 0..40 {
            match svc.handle(Request::SyncLog) {
                Response::Synced {
                    spilled, compacted, ..
                } => {
                    synced = Some((attempt, spilled, compacted));
                    break;
                }
                Response::Error {
                    error: ServiceError::Degraded { .. },
                } => continue,
                other => panic!("unexpected SyncLog response: {other:?}"),
            }
        }
        let (attempt, spilled, compacted) = synced.expect("outage window must end");
        assert!(attempt > 0, "the first SyncLog lands inside the outage");
        assert_eq!(spilled, 0);
        assert!(compacted);
        let snap = svc.metrics_snapshot();
        assert_eq!(snap.gauge(names::WAL_UNSYNCED_SESSIONS), Some(0));
        assert_eq!(snap.gauge(names::STORAGE_DEGRADED), Some(0));
        // The repair is the compaction alone: nothing was appended.
        assert_eq!(snap.counter(names::WAL_APPENDS), Some(0));
        assert!(snap.counter(names::WAL_COMPACTIONS).unwrap() >= 1);

        // Admission reopens once reconciled.
        assert!(matches!(
            svc.handle(Request::Open {
                query: 0,
                scheme: SchemeKind::Euclidean,
            }),
            Response::Opened { .. }
        ));

        // And the compacted session is now genuinely crash-safe.
        drop(svc);
        mem.crash();
        let (svc, rec) = durable_service(mem.clone());
        assert_eq!(rec.recovered_sessions, 21, "the snapshot holds it once");
        assert_eq!(rec.replayed_sessions, 0);
        assert_eq!(svc.log_sessions(), 21);
    }

    #[test]
    fn nonconverged_retrains_are_observable() {
        // Starve the solver: one SMO iteration cannot reach the KKT
        // tolerance, and the client plus the service counters must both
        // see it rather than an apparently exact ranking.
        let (ds, log) = dataset();
        let mut cfg = config();
        cfg.lrf.coupled.smo.max_iter = 1;
        let svc = Service::new(ds.db, log, cfg);
        let Response::Opened { session, screen } = svc.handle(Request::Open {
            query: 5,
            scheme: SchemeKind::RfSvm,
        }) else {
            panic!("open failed")
        };
        for &id in &screen {
            svc.handle(Request::Mark {
                session,
                image: id,
                relevant: svc.db().same_category(id, 5),
            });
        }
        let Response::Reranked { converged, .. } = svc.handle(Request::Rerank { session }) else {
            panic!("rerank failed")
        };
        assert!(!converged, "max_iter=1 must be reported as non-converged");
        let Response::Stats {
            nonconverged_retrains,
            ..
        } = svc.handle(Request::Stats)
        else {
            panic!("stats failed")
        };
        assert_eq!(nonconverged_retrains, 1);
        // A scheme that never trains always reports converged.
        let Response::Opened { session: eu, .. } = svc.handle(Request::Open {
            query: 0,
            scheme: SchemeKind::Euclidean,
        }) else {
            panic!("open failed")
        };
        let Response::Reranked { converged, .. } = svc.handle(Request::Rerank { session: eu })
        else {
            panic!("rerank failed")
        };
        assert!(converged);
    }

    #[test]
    #[should_panic(expected = "rho_init")]
    fn invalid_lrf_config_is_rejected_at_construction() {
        let (ds, log) = dataset();
        let mut cfg = config();
        cfg.lrf.coupled.rho_init = 2.0;
        let _ = Service::new(ds.db, log, cfg);
    }

    #[test]
    #[should_panic(expected = "index dimension")]
    fn index_of_the_wrong_dimension_is_rejected_at_construction() {
        // An index covering every image in 2-D over a 36-D database used to
        // construct fine and then panic a request thread on every `Open`.
        let (ds, log) = dataset();
        let index: Box<dyn AnnIndex> =
            Box::new(lrf_index::FlatIndex::build(&vec![0.0; ds.db.len() * 2], 2));
        let _ = Service::with_durability_metrics(
            ds.db,
            index,
            lrf_storage::MemIo::handle(),
            wal_dir(),
            log,
            config(),
            durable_policy(),
            ServiceMetrics::new(),
        );
    }
}
