//! The service's durability policy: retry budgets, the spill queue, and
//! load-shedding admission control.
//!
//! The mechanisms live below this crate — `lrf-storage` owns the
//! checksummed WAL, `lrf-logdb` owns [`lrf_logdb::DurableLogStore`]'s
//! WAL-first recording. What the *service* decides is what to do when
//! storage misbehaves at flush time, and that policy is all here:
//!
//! 1. **Retry with bounded backoff.** A failed WAL append is retried up
//!    to [`DurabilityConfig::max_attempts`] times, sleeping a doubling
//!    backoff between attempts, bounded by a per-flush deadline read
//!    from the injected clock (so tests under a `ManualClock` never
//!    depend on wall time).
//! 2. **Graceful degradation.** When the budget is exhausted the session
//!    is recorded *volatile* (queries keep working, the judgment still
//!    trains future sessions) and parked in a bounded spill queue; the
//!    close is acknowledged with `durable: false` — never an error, and
//!    never a lie.
//! 3. **Load shedding.** Once the spill queue is past its watermark, new
//!    `Open`s are refused with a typed `Overloaded` error: accepting
//!    more feedback that cannot be made crash-safe only deepens the hole.
//! 4. **Reconciliation.** `Request::SyncLog` (or shutdown) drains the
//!    spill queue back into the WAL in record order and compacts, after
//!    which the degraded flag clears and admission reopens.

use std::collections::VecDeque;

use lrf_logdb::LogSession;
use lrf_sync::atomic::{AtomicBool, Ordering};
use lrf_sync::{Mutex, MutexExt};

/// Tuning knobs for the durable flush path. The defaults suit a real
/// deployment; tests shrink them (`backoff_ns: 0`, small attempt counts)
/// to keep fault-injection runs instant and deterministic.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// WAL segment rotation threshold (see
    /// [`lrf_storage::wal::WalOptions::segment_bytes`]).
    pub segment_bytes: u64,
    /// Compact once this many segments have started in the current epoch
    /// (and the spill queue is empty). `0` disables auto-compaction;
    /// `SyncLog` still compacts explicitly.
    pub compact_segments: u64,
    /// WAL append attempts per flush (at least 1).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per retry up to a 100 ms
    /// ceiling.
    pub backoff_ns: u64,
    /// Give up retrying once this much clock time has passed since the
    /// flush started. `0` means no deadline (the attempt count is the
    /// only budget).
    pub deadline_ns: u64,
    /// Spill-queue capacity: sessions held in memory awaiting WAL
    /// backfill. Beyond this, failed flushes are volatile-only (counted,
    /// not queued).
    pub spill_capacity: usize,
    /// Shed new `Open`s once the spill queue reaches this depth.
    /// `0` disables shedding.
    pub shed_watermark: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            compact_segments: 8,
            max_attempts: 3,
            backoff_ns: 1_000_000,      // 1 ms
            deadline_ns: 1_000_000_000, // 1 s per flush
            spill_capacity: 1024,
            shed_watermark: 256,
        }
    }
}

/// Runtime durability state: the spill queue plus the degraded flag.
/// One per durable service; WAL-less services have none.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) config: DurabilityConfig,
    spill: Mutex<VecDeque<LogSession>>,
    degraded: AtomicBool,
}

impl Durability {
    pub(crate) fn new(config: DurabilityConfig) -> Self {
        Self {
            config,
            spill: Mutex::new(VecDeque::new()),
            degraded: AtomicBool::new(false),
        }
    }

    /// Sessions currently awaiting WAL backfill.
    pub(crate) fn spill_depth(&self) -> usize {
        self.spill.lock_recover().len()
    }

    /// Parks a session for later backfill; `false` if the queue is full
    /// (the session stays volatile-only).
    pub(crate) fn push_spill(&self, session: LogSession) -> bool {
        let mut spill = self.spill.lock_recover();
        if spill.len() >= self.config.spill_capacity {
            return false;
        }
        spill.push_back(session);
        true
    }

    /// Takes the oldest spilled session for draining.
    pub(crate) fn pop_spill(&self) -> Option<LogSession> {
        self.spill.lock_recover().pop_front()
    }

    /// Puts a session back at the front after a failed drain attempt
    /// (record order must be preserved).
    pub(crate) fn unpop_spill(&self, session: LogSession) {
        self.spill.lock_recover().push_front(session);
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    pub(crate) fn set_degraded(&self, on: bool) {
        self.degraded.store(on, Ordering::Relaxed);
    }

    /// Whether admission control should refuse new sessions right now.
    pub(crate) fn should_shed(&self) -> bool {
        self.config.shed_watermark > 0 && self.spill_depth() >= self.config.shed_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_logdb::Relevance;

    fn session(id: usize) -> LogSession {
        LogSession::new(vec![(id, Relevance::from_bool(true))])
    }

    #[test]
    fn spill_queue_is_bounded_and_fifo() {
        let d = Durability::new(DurabilityConfig {
            spill_capacity: 2,
            ..DurabilityConfig::default()
        });
        assert!(d.push_spill(session(0)));
        assert!(d.push_spill(session(1)));
        assert!(
            !d.push_spill(session(2)),
            "capacity 2 must reject the third"
        );
        assert_eq!(d.spill_depth(), 2);
        let first = d.pop_spill().unwrap();
        assert!(first.iter().any(|(id, _)| id == 0));
        // A failed drain pushes back to the front, preserving order.
        d.unpop_spill(first);
        assert!(d.pop_spill().unwrap().iter().any(|(id, _)| id == 0));
    }

    #[test]
    fn shedding_follows_the_watermark() {
        let d = Durability::new(DurabilityConfig {
            spill_capacity: 8,
            shed_watermark: 2,
            ..DurabilityConfig::default()
        });
        assert!(!d.should_shed());
        d.push_spill(session(0));
        assert!(!d.should_shed());
        d.push_spill(session(1));
        assert!(d.should_shed());
        d.pop_spill();
        assert!(!d.should_shed());
        // Watermark 0 disables shedding outright.
        let never = Durability::new(DurabilityConfig {
            shed_watermark: 0,
            ..DurabilityConfig::default()
        });
        never.push_spill(session(0));
        assert!(!never.should_shed());
    }

    #[test]
    fn degraded_flag_toggles() {
        let d = Durability::new(DurabilityConfig::default());
        assert!(!d.is_degraded());
        d.set_degraded(true);
        assert!(d.is_degraded());
        d.set_degraded(false);
        assert!(!d.is_degraded());
    }
}
