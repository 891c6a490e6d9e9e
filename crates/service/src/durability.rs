//! The service's durability policy: retry budgets, volatile recording,
//! load-shedding admission control and compaction.
//!
//! The mechanisms live below this crate — `lrf-storage` owns the
//! checksummed WAL, `lrf-logdb` owns [`lrf_logdb::SharedLogStore`]'s
//! WAL-first recording and its count of unsynced sessions. What the
//! *service* decides is what to do when storage misbehaves at flush time,
//! and that policy is all here:
//!
//! 1. **Retry with bounded backoff.** A failed WAL append is retried up
//!    to [`DurabilityConfig::max_attempts`] times, sleeping a doubling
//!    backoff between attempts, bounded by a per-flush deadline read
//!    from the injected clock (so tests under a `ManualClock` never
//!    depend on wall time).
//! 2. **Volatile recording.** When the budget is exhausted the session
//!    is recorded *volatile* (queries keep working, the judgment still
//!    trains future sessions) and counts as unsynced; the close is
//!    acknowledged with `durable: false` — never an error, and never a
//!    lie. While any session is unsynced the service is degraded: later
//!    closes skip the retry ladder and record volatile too.
//! 3. **Load shedding.** Once the unsynced count reaches
//!    [`DurabilityConfig::shed_watermark`], new `Open`s are refused with a
//!    typed `Overloaded` error: accepting more feedback that cannot be
//!    made crash-safe only deepens the hole.
//! 4. **Compaction.** `Request::SyncLog` (or shutdown) compacts: one
//!    snapshot of the whole in-memory store makes every unsynced session
//!    durable at once, after which admission reopens. Nothing is ever
//!    replayed into the WAL, so no session can reach the disk twice.

/// Tuning knobs for the durable flush path. The defaults suit a real
/// deployment; tests shrink them (`backoff_ns: 0`, small attempt counts)
/// to keep fault-injection runs instant and deterministic.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// WAL segment rotation threshold (see
    /// [`lrf_storage::wal::WalOptions::segment_bytes`]).
    pub segment_bytes: u64,
    /// Compact once this many segments have started in the current epoch.
    /// `0` disables auto-compaction; `SyncLog` still compacts explicitly.
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
    /// Shed new `Open`s once this many sessions are unsynced (recorded
    /// volatile, not yet compacted). `0` disables shedding.
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
            shed_watermark: 256,
        }
    }
}

impl DurabilityConfig {
    /// Whether admission control should refuse new sessions while
    /// `unsynced` sessions await compaction.
    pub(crate) fn sheds(&self, unsynced: usize) -> bool {
        self.shed_watermark > 0 && unsynced >= self.shed_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shedding_follows_the_watermark() {
        let cfg = DurabilityConfig {
            shed_watermark: 2,
            ..DurabilityConfig::default()
        };
        assert!(!cfg.sheds(0));
        assert!(!cfg.sheds(1));
        assert!(cfg.sheds(2));
        assert!(cfg.sheds(3));
        // Watermark 0 disables shedding outright.
        let never = DurabilityConfig {
            shed_watermark: 0,
            ..DurabilityConfig::default()
        };
        assert!(!never.sheds(0));
        assert!(!never.sheds(usize::MAX));
    }
}
