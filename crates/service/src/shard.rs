//! The sharded scatter-gather engine: N shard workers over one database.
//!
//! At serving scale the two data-plane passes of every feedback round —
//! the ANN screen and the pool scoring — are embarrassingly parallel over
//! disjoint id ranges. This module slices the database into contiguous-id
//! [`FlatShard`]s (all views over the *one* `Arc`-shared feature matrix —
//! sharding copies no rows) and pins each to a dedicated worker thread fed
//! over a channel:
//!
//! ```text
//!                        ┌────────────────────────────────┐
//!   search(q, k) ───────▶│ coordinator (request thread)   │
//!   scatter_scores(...)  │   │ one job per shard          │
//!                        │   ▼                            │
//!                        │ mpsc ──▶ shard worker 0..N     │
//!                        │            FlatShard::search_d2│
//!                        │            scorer.score_ids    │
//!                        │   ◀── reply channel ──┘        │
//!                        │   ▼                            │
//!                        │ k-way merge (d², then √) /     │
//!                        │ stitch scores in pool order    │
//!                        └────────────────────────────────┘
//! ```
//!
//! **Bit-identity is the contract, not an aspiration.** Search merges
//! shard partials on *squared* distances with `(total_cmp(d²), id)`
//! ordering ([`lrf_index::merge_top_k`]), the same key the single-shard
//! [`lrf_index::FlatIndex`] uses internally, so the merged ranking is
//! bit-identical to the unsharded one — including duplicate-distance
//! tie-breaks that a post-`sqrt` merge would corrupt. Scoring relies on
//! the [`lrf_core::PoolScorer`] partition-invariance contract: stitching
//! per-shard score slices back in pool order equals scoring the pool in
//! one call. Both identities are asserted by tests and the E2E suite.

use crate::metrics::names;
use lrf_cbir::{build_flat_shards, ImageDatabase};
use lrf_core::ScorerRef;
use lrf_index::{merge_top_k, FlatShard, Neighbor, SearchStats};
use lrf_logdb::LogStore;
use lrf_obs::{ClockRef, Counter, Gauge, Histogram, Registry, SpanTimer};
use lrf_sync::{mpsc, Arc};

/// A shareable frozen feedback log — what shard workers score against
/// (the coordinator's per-round [`lrf_logdb::DurableLogStore::snapshot`]).
pub(crate) type LogRef = Arc<LogStore>;

/// One shard's search reply: `(shard index, top-k partial on squared
/// distances, scan stats)`.
type SearchReply = (usize, Vec<Neighbor>, SearchStats);

/// One unit of shard work. Every job carries its own reply sender, so
/// concurrent requests interleave freely on the same workers without any
/// response routing state.
enum ShardJob {
    /// Scan this shard for the query's top-k (squared distances).
    Search {
        query: Vec<f64>,
        k: usize,
        reply: mpsc::Sender<SearchReply>,
    },
    /// Score these global ids (all within the shard's range) under a
    /// trained scorer against a frozen log snapshot.
    Score {
        scorer: ScorerRef,
        log: LogRef,
        ids: Vec<usize>,
        reply: mpsc::Sender<(usize, Vec<f64>)>,
    },
}

/// The scatter-gather engine: shard worker threads plus the coordinator
/// operations that fan work out and merge it back. Every
/// [`crate::Service`] owns one (one shard unless built sharded) and runs
/// each search ([`search_with_stats`](Self::search_with_stats)) and each
/// rerank's pool scoring ([`scatter_scores`](Self::scatter_scores))
/// through it.
pub struct ShardedEngine {
    n: usize,
    dim: usize,
    /// Rows per shard (every shard but possibly the last) — the id→shard
    /// map is `id / chunk` because shard ranges are equal contiguous
    /// chunks partitioning `0..n`.
    chunk: usize,
    n_shards: usize,
    /// Per-shard job feeds, shared by every request thread without a lock
    /// (`mpsc::Sender` is `Sync`).
    senders: Vec<mpsc::Sender<ShardJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    queue_depth: Arc<Gauge>,
    jobs_total: Arc<Counter>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("n", &self.n)
            .field("n_shards", &self.n_shards)
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Spawns `n_shards` workers over `db` (clamped to the database
    /// size). Per-shard stage histograms (`shard{i}_search_ns`,
    /// `shard{i}_score_ns`), the shared queue-depth gauge and the job
    /// counter are registered in `registry`; `clock` of `None` disables
    /// the stage timers (counters stay live), mirroring
    /// [`crate::ServiceMetrics::disabled`].
    ///
    /// # Panics
    /// Panics if `db` is empty or `n_shards` is zero.
    pub fn new(
        db: Arc<ImageDatabase>,
        n_shards: usize,
        registry: &Registry,
        clock: Option<ClockRef>,
    ) -> Self {
        assert!(n_shards > 0, "shard count must be positive");
        assert!(!db.is_empty(), "cannot shard an empty database");
        let shards = build_flat_shards(&db, n_shards);
        let n_shards = shards.len();
        let chunk = shards[0].len();
        let queue_depth = registry.gauge(names::SHARD_QUEUE_DEPTH);
        let jobs_total = registry.counter(names::SHARD_JOBS);
        let mut senders = Vec::with_capacity(n_shards);
        let mut workers = Vec::with_capacity(n_shards);
        for (i, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let search_ns = registry.histogram(&names::shard_search_ns(i));
            let score_ns = registry.histogram(&names::shard_score_ns(i));
            let worker_db = Arc::clone(&db);
            let worker_depth = Arc::clone(&queue_depth);
            let worker_clock = clock.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(
                    shard,
                    i,
                    worker_db,
                    rx,
                    search_ns,
                    score_ns,
                    worker_depth,
                    worker_clock,
                );
            }));
        }
        Self {
            n: db.len(),
            dim: db.dim(),
            chunk,
            n_shards,
            senders,
            workers,
            queue_depth,
            jobs_total,
        }
    }

    /// The shard whose contiguous range holds `id`.
    fn shard_of(&self, id: usize) -> usize {
        debug_assert!(id < self.n, "id {id} out of range");
        id / self.chunk
    }

    fn dispatch(&self, shard: usize, job: ShardJob) {
        self.queue_depth.inc();
        self.jobs_total.inc();
        let sent = self.senders[shard].send(job);
        // A send can only fail if the worker thread is gone, which means
        // it panicked — an infrastructure failure the request cannot
        // recover from or route around.
        assert!(sent.is_ok(), "shard {shard} worker is gone");
    }

    /// The `k` nearest neighbors of `query` with work counters: one
    /// search job per shard, merged on squared distances — bit-identical
    /// to [`lrf_index::FlatIndex`]'s scan, in `(d², id)` order.
    ///
    /// # Panics
    /// Panics if `query.len()` is not the database's dimension or a worker
    /// died.
    pub fn search_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let (tx, rx) = mpsc::channel();
        for s in 0..self.n_shards {
            self.dispatch(
                s,
                ShardJob::Search {
                    query: query.to_vec(),
                    k,
                    reply: tx.clone(),
                },
            );
        }
        drop(tx);
        let mut partials: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n_shards];
        let mut stats = SearchStats::default();
        let mut received = 0usize;
        while let Ok((shard, partial, shard_stats)) = rx.recv() {
            partials[shard] = partial;
            stats.distance_evals += shard_stats.distance_evals;
            received += 1;
        }
        assert_eq!(received, self.n_shards, "a shard worker died mid-search");
        (merge_top_k(&partials, k), stats)
    }

    /// Scatter-gather pool scoring: partitions `pool` by shard range,
    /// ships `(scorer, snapshot, ids)` to each involved worker, and
    /// stitches the per-shard score slices back **in pool order**. By the
    /// scorer's partition-invariance contract the result is bit-identical
    /// to `scorer.score_ids(db, log, pool)` on one thread.
    ///
    /// # Panics
    /// Panics if `pool` holds an out-of-range id or a worker died.
    pub fn scatter_scores(&self, scorer: &ScorerRef, log: &LogRef, pool: &[usize]) -> Vec<f64> {
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.n_shards];
        let mut shard_ids: Vec<Vec<usize>> = vec![Vec::new(); self.n_shards];
        for (pos, &id) in pool.iter().enumerate() {
            assert!(id < self.n, "pool id {id} out of range");
            let s = self.shard_of(id);
            positions[s].push(pos);
            shard_ids[s].push(id);
        }
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for (s, ids) in shard_ids.into_iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            expected += 1;
            self.dispatch(
                s,
                ShardJob::Score {
                    scorer: ScorerRef::clone(scorer),
                    log: LogRef::clone(log),
                    ids,
                    reply: tx.clone(),
                },
            );
        }
        drop(tx);
        let mut scores = vec![0.0; pool.len()];
        let mut received = 0usize;
        while let Ok((shard, slice)) = rx.recv() {
            assert_eq!(
                slice.len(),
                positions[shard].len(),
                "shard {shard} returned a misaligned score slice"
            );
            for (&pos, &score) in positions[shard].iter().zip(&slice) {
                scores[pos] = score;
            }
            received += 1;
        }
        assert_eq!(received, expected, "a shard worker died mid-scatter");
        scores
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Hang up every job feed first — workers exit their recv loop —
        // then join so no worker outlives the engine (and the shared
        // feature matrix it scans).
        self.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One shard worker: drains its job feed until every sender is dropped
/// (engine drop), timing each stage when a clock is injected.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    shard: FlatShard,
    shard_idx: usize,
    db: Arc<ImageDatabase>,
    jobs: mpsc::Receiver<ShardJob>,
    search_ns: Arc<Histogram>,
    score_ns: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    clock: Option<ClockRef>,
) {
    while let Ok(job) = jobs.recv() {
        match job {
            ShardJob::Search { query, k, reply } => {
                let timer = clock
                    .as_ref()
                    .map(|c| SpanTimer::start(c.as_ref(), &search_ns));
                let (partial, stats) = shard.search_d2(&query, k);
                drop(timer);
                // Dec before replying: once the coordinator has every
                // reply, the queue gauge already reads drained.
                queue_depth.dec();
                let _ = reply.send((shard_idx, partial, stats));
            }
            ShardJob::Score {
                scorer,
                log,
                ids,
                reply,
            } => {
                let timer = clock
                    .as_ref()
                    .map(|c| SpanTimer::start(c.as_ref(), &score_ns));
                let scores = scorer.score_ids(&db, &log, &ids);
                drop(timer);
                queue_depth.dec();
                let _ = reply.send((shard_idx, scores));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::{build_flat_index, collect_log, CorelDataset, CorelSpec};
    use lrf_core::{LrfConfig, QueryContext, RelevanceFeedback, WarmState};
    use lrf_index::AnnIndex;
    use lrf_logdb::SimulationConfig;

    fn dataset() -> (CorelDataset, LogStore) {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: 16,
                judged_per_session: 8,
                rounds_per_query: 2,
                noise: 0.1,
                seed: 23,
            },
        );
        (ds, log)
    }

    fn engine(db: &Arc<ImageDatabase>, n_shards: usize) -> ShardedEngine {
        ShardedEngine::new(
            Arc::clone(db),
            n_shards,
            &Registry::new(),
            Some(lrf_obs::ManualClock::shared()),
        )
    }

    #[test]
    fn sharded_search_is_bit_identical_to_flat() {
        let (ds, _) = dataset();
        let flat = build_flat_index(&ds.db);
        let db = Arc::new(ds.db);
        for n_shards in [1usize, 2, 5] {
            let eng = engine(&db, n_shards);
            for q in [0usize, 7, 23, db.len() - 1] {
                for k in [1usize, 10, db.len()] {
                    let got = eng.search_with_stats(db.feature(q), k).0;
                    let want = flat.search(db.feature(q), k);
                    assert_eq!(got, want, "shards={n_shards} q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn sharded_stats_account_every_row_once() {
        let (ds, _) = dataset();
        let db = Arc::new(ds.db);
        let eng = engine(&db, 3);
        // Each of the 3 shards scans its own rows, whatever `k` asks for.
        for k in [1, 5, db.len()] {
            let (_, stats) = eng.search_with_stats(db.feature(0), k);
            assert_eq!(stats.distance_evals, db.len(), "k={k}");
        }
    }

    #[test]
    fn scatter_scores_match_single_threaded_scoring() {
        let (ds, log) = dataset();
        let db = Arc::new(ds.db);
        let log = Arc::new(log);
        // Train a real scorer exactly like the service does.
        let scheme = lrf_core::LrfCsvm::new(LrfConfig {
            n_unlabeled: 8,
            ..LrfConfig::default()
        });
        let example = lrf_cbir::FeedbackExample {
            query: 5,
            labeled: vec![(5, 1.0), (6, 1.0), (7, 1.0), (30, -1.0), (31, -1.0)],
        };
        let ctx = QueryContext {
            db: &db,
            log: &log,
            example: &example,
        };
        let pool: Vec<usize> = (0..db.len()).step_by(3).collect();
        let mut warm = WarmState::default();
        let scorer = scheme
            .fit_warm(&ctx, &pool, &mut warm)
            .expect("LRF-CSVM trains a scorer");
        let direct = scorer.score_ids(&db, &log, &pool);
        for n_shards in [1usize, 2, 5] {
            let eng = engine(&db, n_shards);
            let scattered = eng.scatter_scores(&scorer, &log, &pool);
            assert_eq!(scattered, direct, "shards={n_shards}");
        }
    }

    #[test]
    fn shard_instruments_record_work_and_queue_drains() {
        let (ds, _) = dataset();
        let db = Arc::new(ds.db);
        let registry = Registry::new();
        let eng = ShardedEngine::new(
            Arc::clone(&db),
            2,
            &registry,
            Some(lrf_obs::ManualClock::shared()),
        );
        eng.search_with_stats(db.feature(0), 4);
        eng.search_with_stats(db.feature(1), 4);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::SHARD_JOBS), Some(4));
        assert_eq!(snap.gauge(names::SHARD_QUEUE_DEPTH), Some(0));
        for i in 0..2 {
            let h = snap.histogram(&names::shard_search_ns(i)).unwrap();
            assert_eq!(h.count, 2, "shard {i} search histogram");
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let (ds, _) = dataset();
        let db = Arc::new(ds.db);
        let eng = engine(&db, 4);
        eng.search_with_stats(db.feature(2), 3);
        drop(eng);
        // The database (and its shared matrix) is still usable afterwards.
        assert!(!db.is_empty());
    }
}
