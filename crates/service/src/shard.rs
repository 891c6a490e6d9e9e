//! The sharded scatter-gather engine: N shard workers over one database.
//!
//! At serving scale the ANN screen of every `Open` is embarrassingly
//! parallel over disjoint id ranges. This module slices the database into
//! contiguous-id [`FlatShard`]s (all views over the *one* `Arc`-shared
//! feature matrix — sharding copies no rows) and pins each to a dedicated
//! worker thread fed over a channel:
//!
//! ```text
//!                        ┌────────────────────────────────┐
//!   search(q, k) ───────▶│ coordinator (request thread)   │
//!                        │   │ one job per shard          │
//!                        │   ▼                            │
//!                        │ mpsc ──▶ shard worker 0..N     │
//!                        │            FlatShard::search_d2│
//!                        │   ◀── reply channel ──┘        │
//!                        │   ▼                            │
//!                        │ k-way merge (d², then √)       │
//!                        └────────────────────────────────┘
//! ```
//!
//! A rerank sends the workers nothing: the service scores its few-hundred
//! id pool on the session's own thread, so searches never queue behind
//! pool scoring. The workers only search.
//!
//! **Bit-identity is the contract, not an aspiration.** Search merges
//! shard partials on *squared* distances with `(total_cmp(d²), id)`
//! ordering ([`lrf_index::merge_top_k`]), the same key the single-shard
//! [`lrf_index::FlatIndex`] uses internally, so the merged ranking is
//! bit-identical to the unsharded one — including duplicate-distance
//! tie-breaks that a post-`sqrt` merge would corrupt. Tests and the E2E
//! suite assert it.

use crate::metrics::names;
use lrf_cbir::{build_flat_shards, ImageDatabase};
use lrf_core::ScorerRef;
use lrf_index::{merge_top_k, FlatShard, Neighbor, SearchStats};
use lrf_logdb::LogStore;
use lrf_obs::{ClockRef, Counter, Gauge, Histogram, Registry, SpanTimer};
use lrf_sync::{mpsc, Arc};

/// One shard's search reply: `(shard index, top-k partial on squared
/// distances, scan stats)`.
type SearchReply = (usize, Vec<Neighbor>, SearchStats);

/// One unit of shard work: scan this shard for the query's top-k (squared
/// distances). Every job carries its own reply sender, so concurrent
/// requests interleave freely on the same workers without any response
/// routing state.
struct SearchJob {
    query: Vec<f64>,
    k: usize,
    reply: mpsc::Sender<SearchReply>,
}

/// The scatter-gather search engine: shard worker threads plus the
/// coordinator that fans a search out and merges it back. Every
/// [`crate::Service`] owns one (one shard unless built sharded) and runs
/// each search ([`search_with_stats`](Self::search_with_stats)) through
/// it.
pub struct ShardedEngine {
    db: Arc<ImageDatabase>,
    /// Per-shard job feeds, shared by every request thread without a lock
    /// (`mpsc::Sender` is `Sync`).
    senders: Vec<mpsc::Sender<SearchJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    queue_depth: Arc<Gauge>,
    jobs_total: Arc<Counter>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("n", &self.db.len())
            .field("n_shards", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Spawns `n_shards` workers over `db` (clamped to the database
    /// size). Per-shard search histograms (`shard{i}_search_ns`), the
    /// shared queue-depth gauge and the job counter are registered in
    /// `registry`; `clock` of `None` disables the stage timers (counters
    /// stay live), mirroring [`crate::ServiceMetrics::disabled`].
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
        let queue_depth = registry.gauge(names::SHARD_QUEUE_DEPTH);
        let jobs_total = registry.counter(names::SHARD_JOBS);
        let mut senders = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        for (i, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let search_ns = registry.histogram(&names::shard_search_ns(i));
            let worker_depth = Arc::clone(&queue_depth);
            let worker_clock = clock.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(shard, i, rx, search_ns, worker_depth, worker_clock);
            }));
        }
        Self {
            db,
            senders,
            workers,
            queue_depth,
            jobs_total,
        }
    }

    /// The `k` nearest neighbors of `query` with work counters: one
    /// search job per shard, merged on squared distances — bit-identical
    /// to [`lrf_index::FlatIndex`]'s scan, in `(d², id)` order.
    ///
    /// # Panics
    /// Panics if `query.len()` is not the database's dimension or a worker
    /// died.
    pub fn search_with_stats(&self, query: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.db.dim(), "query dimension mismatch");
        let n_shards = self.senders.len();
        let (tx, rx) = mpsc::channel();
        for (shard, sender) in self.senders.iter().enumerate() {
            self.queue_depth.inc();
            self.jobs_total.inc();
            let sent = sender.send(SearchJob {
                query: query.to_vec(),
                k,
                reply: tx.clone(),
            });
            // A send can only fail if the worker thread is gone, which
            // means it panicked — an infrastructure failure the request
            // cannot recover from or route around.
            assert!(sent.is_ok(), "shard {shard} worker is gone");
        }
        drop(tx);
        let mut partials: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_shards];
        let mut stats = SearchStats::default();
        let mut received = 0usize;
        while let Ok((shard, partial, shard_stats)) = rx.recv() {
            partials[shard] = partial;
            stats.distance_evals += shard_stats.distance_evals;
            received += 1;
        }
        assert_eq!(received, n_shards, "a shard worker died mid-search");
        (merge_top_k(&partials, k), stats)
    }

    /// `scorer.score_ids(db, log, pool)` on the caller's thread. Kept only
    /// for the benchmark's adapter (`benchmark/src/sut.rs`), which still
    /// names it; it goes with that adapter (ROADMAP items 5 and 6).
    pub fn scatter_scores(&self, scorer: &ScorerRef, log: &LogStore, pool: &[usize]) -> Vec<f64> {
        scorer.score_ids(&self.db, log, pool)
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
/// (engine drop), timing each search when a clock is injected.
fn worker_loop(
    shard: FlatShard,
    shard_idx: usize,
    jobs: mpsc::Receiver<SearchJob>,
    search_ns: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    clock: Option<ClockRef>,
) {
    while let Ok(SearchJob { query, k, reply }) = jobs.recv() {
        let timer = clock
            .as_ref()
            .map(|c| SpanTimer::start(c.as_ref(), &search_ns));
        let (partial, stats) = shard.search_d2(&query, k);
        drop(timer);
        // Dec before replying: once the coordinator has every reply, the
        // queue gauge already reads drained.
        queue_depth.dec();
        let _ = reply.send((shard_idx, partial, stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::{build_flat_index, CorelDataset, CorelSpec};
    use lrf_index::AnnIndex;

    fn dataset() -> CorelDataset {
        CorelDataset::build(CorelSpec::tiny(4, 12, 19))
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
        let ds = dataset();
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
        let ds = dataset();
        let db = Arc::new(ds.db);
        let eng = engine(&db, 3);
        // Each of the 3 shards scans its own rows, whatever `k` asks for.
        for k in [1, 5, db.len()] {
            let (_, stats) = eng.search_with_stats(db.feature(0), k);
            assert_eq!(stats.distance_evals, db.len(), "k={k}");
        }
    }

    #[test]
    fn shard_instruments_record_work_and_queue_drains() {
        let ds = dataset();
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
        let ds = dataset();
        let db = Arc::new(ds.db);
        let eng = engine(&db, 4);
        eng.search_with_stats(db.feature(2), 3);
        drop(eng);
        // The database (and its shared matrix) is still usable afterwards.
        assert!(!db.is_empty());
    }
}
