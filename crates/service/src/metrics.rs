//! Per-service observability: the registry, the clock, and the retained
//! instrument handles the request path records through.
//!
//! Each [`crate::Service`] owns one [`ServiceMetrics`] (registries are
//! per-instance, never global, so tests can assert exact counts under
//! parallel test threads). Handles are resolved once here; the request
//! path then records through lock-free atomics and never touches the
//! registry's name table.
//!
//! Stage timers read the injected [`Clock`]: a [`MonotonicClock`] in
//! production, a [`lrf_obs::ManualClock`] in tests (deterministic
//! latencies), or no clock at all in the [`ServiceMetrics::disabled`]
//! build — the baseline `benchmark/` measures `obs.trace_overhead_pct`
//! against, and which `tests/golden_gates.rs` holds to zero latency
//! samples. Event counters are *always* live: they back the public
//! `Stats` endpoint, and a handful of relaxed atomic increments is noise
//! next to a single kernel evaluation.

use lrf_obs::{
    Clock, ClockRef, Counter, Gauge, Histogram, MonotonicClock, Registry, RegistrySnapshot,
    SpanTimer,
};
use lrf_sync::Arc;

/// Instrument names the service registers (one source of truth for the
/// endpoint's consumers; see the crate README's Observability section).
pub mod names {
    /// Requests handled, any kind, any outcome.
    pub const REQUESTS_TOTAL: &str = "requests_total";
    /// End-to-end `handle()` latency.
    pub const REQUEST_LATENCY: &str = "request_latency_ns";
    /// Session-table work per request (lookup / insert / remove).
    pub const STAGE_SESSION_LOOKUP: &str = "stage_session_lookup_ns";
    /// Coupled-SVM retrain + re-rank per `Rerank` request.
    pub const STAGE_RETRAIN: &str = "stage_retrain_ns";
    /// Candidate generation: `Open`'s pool-deep index search, and a
    /// `Page`'s continuation of it (a rerank reuses the pool, unsearched).
    pub const STAGE_SCORING: &str = "stage_scoring_ns";
    /// Log flush per close / eviction that had judgments.
    pub const STAGE_FLUSH: &str = "stage_flush_ns";
    /// Sessions currently resident.
    pub const ACTIVE_SESSIONS: &str = "active_sessions";
    /// Sessions flushed into the log (closes + evictions with judgments).
    pub const FLUSHED_SESSIONS: &str = "flushed_sessions_total";
    /// Rerank rounds whose solver hit `max_iter`.
    pub const NONCONVERGED_RETRAINS: &str = "nonconverged_retrains_total";
    /// SMO iterations across all retrains.
    pub const SMO_ITERATIONS: &str = "smo_iterations_total";
    /// Kernel-row cache hits across all retrains.
    pub const KERNEL_CACHE_HITS: &str = "kernel_cache_hits_total";
    /// Kernel-row cache misses across all retrains.
    pub const KERNEL_CACHE_MISSES: &str = "kernel_cache_misses_total";
    /// Rows the retrains computed into their sessions' row blocks.
    pub(crate) const BLOCK_ROWS_COMPUTED: &str = "block_rows_computed_total";
    /// Rows the retrains' row stores and scores found already in their
    /// sessions' blocks.
    pub(crate) const BLOCK_ROWS_CARRIED: &str = "block_rows_carried_total";
    /// Content-view kernel values the retrains evaluated (row fills and
    /// column patches of the sessions' blocks, which serve the row stores).
    pub(crate) const CONTENT_EVALS: &str = "content_kernel_evals_total";
    /// Log-view kernel values the retrains evaluated, as above.
    pub(crate) const LOG_EVALS: &str = "log_kernel_evals_total";
    /// Index distance evaluations across all index queries.
    pub const ANN_DISTANCE_EVALS: &str = "ann_distance_evals_total";
    /// Log-store snapshots taken, one per retrieval round (adopted from
    /// the shared store; its size reads take none).
    pub const LOG_SNAPSHOTS: &str = "log_snapshots_total";
    /// Log-store session appends (adopted from the shared store).
    pub const LOG_APPENDS: &str = "log_appends_total";
    /// Appends that published a new version (a copy of the tail, not the
    /// log) because snapshots were outstanding.
    pub const LOG_COW_CLONES: &str = "log_cow_clones_total";
    /// Sessions durably appended to the judgment WAL (fsynced before ack).
    pub const WAL_APPENDS: &str = "wal_appends_total";
    /// WAL append attempts retried after a storage failure.
    pub const WAL_RETRIES: &str = "wal_retries_total";
    /// Flushes whose WAL append exhausted its retry/deadline budget and
    /// fell back to the volatile path.
    pub const WAL_APPEND_FAILURES: &str = "wal_append_failures_total";
    /// Requests shed by durability admission control.
    pub const SHED_REQUESTS: &str = "shed_requests_total";
    /// WAL snapshot compactions that committed.
    pub const WAL_COMPACTIONS: &str = "wal_compactions_total";
    /// Durable-flush stage latency: WAL append (with retries/backoff)
    /// plus the in-memory record, per flushed session.
    pub const STAGE_DURABLE_FLUSH: &str = "stage_durable_flush_ns";
    /// Sessions recorded volatile and not yet compacted: in memory, lost
    /// on a crash (see [`lrf_logdb::SharedLogStore::unsynced`]).
    pub const WAL_UNSYNCED_SESSIONS: &str = "wal_unsynced_sessions";
    /// 1 while any session is unsynced (flushes bypassing the WAL).
    pub const STORAGE_DEGRADED: &str = "storage_degraded";
    /// Sessions recovered from disk at startup (snapshot + WAL replay).
    pub const RECOVERY_SESSIONS: &str = "recovery_sessions_total";
    /// Torn/corrupt WAL frame runs truncated during startup recovery.
    pub const RECOVERY_TRUNCATED_RECORDS: &str = "recovery_truncated_records_total";
    /// Bytes dropped with those truncated runs.
    pub const RECOVERY_TRUNCATED_BYTES: &str = "recovery_truncated_bytes_total";
    /// Transient read faults healed by re-reading a segment at startup.
    pub const RECOVERY_REREAD_RECOVERIES: &str = "recovery_reread_recoveries_total";
    /// Stale files (older epochs, leftover temp files) swept at startup.
    pub const RECOVERY_STALE_FILES: &str = "recovery_stale_files_removed_total";
    /// Jobs submitted to shard workers but not yet completed (fan-out
    /// depth across all shards).
    pub const SHARD_QUEUE_DEPTH: &str = "shard_queue_depth";
    /// Search jobs dispatched to shard workers: one per shard for every
    /// index search (an `Open`, or a `Page` past the pool).
    pub const SHARD_JOBS: &str = "shard_jobs_total";
    /// TCP connections the network listener accepted.
    pub const NET_CONNECTIONS: &str = "net_connections_total";
    /// HTTP requests the network listener served (any route, any status).
    pub const NET_REQUESTS: &str = "net_requests_total";
    /// HTTP requests rejected before dispatch (malformed head, unknown
    /// route, oversized body).
    pub const NET_BAD_REQUESTS: &str = "net_bad_requests_total";

    /// Per-shard search-stage latency histogram name (`shard{i}_search_ns`).
    pub(crate) fn shard_search_ns(shard: usize) -> String {
        format!("shard{shard}_search_ns")
    }
}

/// A service instance's registry plus the handles its hot path records
/// through.
pub struct ServiceMetrics {
    registry: Registry,
    clock: ClockRef,
    /// Stage timers record only when true; counters always do.
    timed: bool,
    pub(crate) requests_total: Arc<Counter>,
    pub(crate) request_latency: Arc<Histogram>,
    pub(crate) stage_session_lookup: Arc<Histogram>,
    pub(crate) stage_retrain: Arc<Histogram>,
    pub(crate) stage_scoring: Arc<Histogram>,
    pub(crate) stage_flush: Arc<Histogram>,
    pub(crate) active_sessions: Arc<Gauge>,
    pub(crate) flushed_sessions: Arc<Counter>,
    pub(crate) nonconverged_retrains: Arc<Counter>,
    pub(crate) smo_iterations: Arc<Counter>,
    pub(crate) kernel_cache_hits: Arc<Counter>,
    pub(crate) kernel_cache_misses: Arc<Counter>,
    pub(crate) block_rows_computed: Arc<Counter>,
    pub(crate) block_rows_carried: Arc<Counter>,
    /// `[content, log]` kernel evaluations.
    pub(crate) kernel_evals: [Arc<Counter>; 2],
    pub(crate) ann_distance_evals: Arc<Counter>,
    pub(crate) wal_appends: Arc<Counter>,
    pub(crate) wal_retries: Arc<Counter>,
    pub(crate) wal_append_failures: Arc<Counter>,
    pub(crate) shed_requests: Arc<Counter>,
    pub(crate) wal_compactions: Arc<Counter>,
    pub(crate) stage_durable_flush: Arc<Histogram>,
    pub(crate) wal_unsynced_sessions: Arc<Gauge>,
    pub(crate) storage_degraded: Arc<Gauge>,
}

impl std::fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceMetrics")
            .field("timed", &self.timed)
            .field("requests_total", &self.requests_total.get())
            .finish_non_exhaustive()
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Full instrumentation under the monotonic clock — what
    /// [`crate::Service::new`] installs.
    pub fn new() -> Self {
        Self::build(MonotonicClock::shared(), true)
    }

    /// Full instrumentation under an injected clock (a
    /// [`lrf_obs::ManualClock`] makes recorded latencies deterministic in
    /// tests).
    pub fn with_clock(clock: ClockRef) -> Self {
        Self::build(clock, true)
    }

    /// Event counters only — no clock reads, no latency histograms. The
    /// baseline build for the tracing-overhead benchmark.
    pub fn disabled() -> Self {
        // The clock is never read when untimed; Manual avoids even the
        // monotonic clock's startup read.
        Self::build(lrf_obs::ManualClock::shared(), false)
    }

    fn build(clock: ClockRef, timed: bool) -> Self {
        let registry = Registry::new();
        Self {
            clock,
            timed,
            requests_total: registry.counter(names::REQUESTS_TOTAL),
            request_latency: registry.histogram(names::REQUEST_LATENCY),
            stage_session_lookup: registry.histogram(names::STAGE_SESSION_LOOKUP),
            stage_retrain: registry.histogram(names::STAGE_RETRAIN),
            stage_scoring: registry.histogram(names::STAGE_SCORING),
            stage_flush: registry.histogram(names::STAGE_FLUSH),
            active_sessions: registry.gauge(names::ACTIVE_SESSIONS),
            flushed_sessions: registry.counter(names::FLUSHED_SESSIONS),
            nonconverged_retrains: registry.counter(names::NONCONVERGED_RETRAINS),
            smo_iterations: registry.counter(names::SMO_ITERATIONS),
            kernel_cache_hits: registry.counter(names::KERNEL_CACHE_HITS),
            kernel_cache_misses: registry.counter(names::KERNEL_CACHE_MISSES),
            block_rows_computed: registry.counter(names::BLOCK_ROWS_COMPUTED),
            block_rows_carried: registry.counter(names::BLOCK_ROWS_CARRIED),
            kernel_evals: [names::CONTENT_EVALS, names::LOG_EVALS].map(|n| registry.counter(n)),
            ann_distance_evals: registry.counter(names::ANN_DISTANCE_EVALS),
            wal_appends: registry.counter(names::WAL_APPENDS),
            wal_retries: registry.counter(names::WAL_RETRIES),
            wal_append_failures: registry.counter(names::WAL_APPEND_FAILURES),
            shed_requests: registry.counter(names::SHED_REQUESTS),
            wal_compactions: registry.counter(names::WAL_COMPACTIONS),
            stage_durable_flush: registry.histogram(names::STAGE_DURABLE_FLUSH),
            wal_unsynced_sessions: registry.gauge(names::WAL_UNSYNCED_SESSIONS),
            storage_degraded: registry.gauge(names::STORAGE_DEGRADED),
            registry,
        }
    }

    /// The underlying registry (e.g. to adopt a component's counters).
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Freezes every instrument into a serializable snapshot.
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The injected clock.
    pub(crate) fn clock(&self) -> &dyn Clock {
        &*self.clock
    }

    /// A shareable handle to the injected clock, for components that time
    /// work on their own threads (shard workers) — `None` when untimed,
    /// so those components skip their stage timers exactly like the
    /// request path does.
    pub fn clock_ref(&self) -> Option<ClockRef> {
        self.timed.then(|| ClockRef::clone(&self.clock))
    }

    /// Starts a stage timer over `histogram`, or `None` when untimed
    /// (dropping `None` is free, so call sites stay branchless).
    pub(crate) fn time<'a>(&'a self, histogram: &'a Histogram) -> Option<SpanTimer<'a>> {
        self.timed
            .then(|| SpanTimer::start(&*self.clock, histogram))
    }

    /// Accounts one index query's [`lrf_index::SearchStats`].
    pub(crate) fn count_search(&self, stats: lrf_index::SearchStats) {
        self.ann_distance_evals.add(stats.distance_evals as u64);
    }

    /// Accounts a startup recovery's [`lrf_logdb::DurableRecovery`] —
    /// registered on demand, so WAL-less services don't carry recovery
    /// instruments they can never move.
    pub(crate) fn count_recovery(&self, r: &lrf_logdb::DurableRecovery) {
        for (name, n) in [
            (names::RECOVERY_SESSIONS, r.recovered_sessions),
            (names::RECOVERY_TRUNCATED_RECORDS, r.truncated_records),
            (names::RECOVERY_TRUNCATED_BYTES, r.truncated_bytes),
            (names::RECOVERY_REREAD_RECOVERIES, r.reread_recoveries),
            (names::RECOVERY_STALE_FILES, r.stale_files_removed),
        ] {
            self.registry.counter(name).add(n);
        }
    }

    /// Accounts one retrain round's [`lrf_core::RoundDiagnostics`].
    pub(crate) fn count_round(&self, d: &lrf_core::RoundDiagnostics) {
        self.smo_iterations.add(d.iterations as u64);
        self.kernel_cache_hits.add(d.cache_hits);
        self.kernel_cache_misses.add(d.cache_misses);
        self.block_rows_computed.add(d.block_rows.0);
        self.block_rows_carried.add(d.block_rows.1);
        self.kernel_evals[0].add(d.kernel_evals[0]);
        self.kernel_evals[1].add(d.kernel_evals[1]);
        if !d.converged {
            self.nonconverged_retrains.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_obs::ManualClock;

    #[test]
    fn timed_metrics_record_spans_and_counts() {
        let clock = ManualClock::shared();
        let m = ServiceMetrics::with_clock(clock.clone());
        assert!(m.timed);
        {
            let _span = m.time(&m.request_latency);
            clock.advance(500);
        }
        m.requests_total.inc();
        let s = m.snapshot();
        assert_eq!(s.counter(names::REQUESTS_TOTAL), Some(1));
        let h = s.histogram(names::REQUEST_LATENCY).unwrap();
        assert_eq!((h.count, h.sum), (1, 500));
    }

    #[test]
    fn disabled_metrics_skip_timers_but_keep_counters() {
        let m = ServiceMetrics::disabled();
        assert!(!m.timed);
        assert!(m.time(&m.request_latency).is_none());
        m.flushed_sessions.inc();
        let s = m.snapshot();
        assert_eq!(s.histogram(names::REQUEST_LATENCY).unwrap().count, 0);
        assert_eq!(s.counter(names::FLUSHED_SESSIONS), Some(1));
    }

    #[test]
    fn recovery_accounting_registers_on_demand() {
        let m = ServiceMetrics::disabled();
        assert_eq!(m.snapshot().counter(names::RECOVERY_SESSIONS), None);
        m.count_recovery(&lrf_logdb::DurableRecovery {
            recovered_sessions: 5,
            truncated_records: 1,
            truncated_bytes: 3,
            ..Default::default()
        });
        let s = m.snapshot();
        assert_eq!(s.counter(names::RECOVERY_SESSIONS), Some(5));
        assert_eq!(s.counter(names::RECOVERY_TRUNCATED_RECORDS), Some(1));
        assert_eq!(s.counter(names::RECOVERY_TRUNCATED_BYTES), Some(3));
        assert_eq!(s.counter(names::RECOVERY_STALE_FILES), Some(0));
    }

    #[test]
    fn search_and_round_accounting_reach_the_registry() {
        let m = ServiceMetrics::disabled();
        m.count_search(lrf_index::SearchStats { distance_evals: 10 });
        m.count_search(lrf_index::SearchStats { distance_evals: 7 });
        m.count_round(&lrf_core::RoundDiagnostics {
            converged: false,
            iterations: 42,
            cache_hits: 5,
            cache_misses: 3,
            block_rows: (9, 4),
            kernel_evals: [120, 80],
        });
        let s = m.snapshot();
        assert_eq!(s.counter(names::ANN_DISTANCE_EVALS), Some(17));
        assert_eq!(s.counter(names::SMO_ITERATIONS), Some(42));
        assert_eq!(s.counter(names::KERNEL_CACHE_HITS), Some(5));
        assert_eq!(s.counter(names::KERNEL_CACHE_MISSES), Some(3));
        assert_eq!(s.counter(names::BLOCK_ROWS_COMPUTED), Some(9));
        assert_eq!(s.counter(names::BLOCK_ROWS_CARRIED), Some(4));
        assert_eq!(s.counter(names::CONTENT_EVALS), Some(120));
        assert_eq!(s.counter(names::LOG_EVALS), Some(80));
        assert_eq!(s.counter(names::NONCONVERGED_RETRAINS), Some(1));
    }
}
