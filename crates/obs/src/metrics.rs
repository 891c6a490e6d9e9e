//! Lock-free metric instruments: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three are plain atomics from the `lrf-sync` facade, so recording
//! never takes a lock and the loom model checker can explore every
//! interleaving of concurrent `record`/`snapshot` pairs (see
//! `tests/model_metrics.rs`).
//!
//! ## Histogram layout and error bound
//!
//! [`Histogram`] buckets values (u64, typically nanoseconds) on a
//! **log-linear** grid: values below [`SUB_BUCKETS`] get one bucket each
//! (exact), and every power-of-two octave above is split into
//! [`SUB_BUCKETS`] equal-width sub-buckets. A quantile estimate returns
//! the midpoint of the bucket holding the target rank, so its relative
//! error is bounded by half a bucket width over the bucket's lower bound:
//!
//! ```text
//! |estimate − exact| ≤ width/2 ≤ lo / (2·SUB_BUCKETS) = exact / 64
//! ```
//!
//! i.e. **≤ 1/64 ≈ 1.6 % relative error** (exact below [`SUB_BUCKETS`],
//! and `quantile(1.0)` returns the separately tracked maximum, which is
//! exact). The property tests in this module verify the bound against
//! sorted-sample quantiles.
//!
//! ## Tear-free snapshots
//!
//! `record` publishes `sum` and `max` (release) *before* the bucket
//! count; `snapshot` reads bucket counts (acquire) *before* `max` and
//! `sum`. Every record visible in a snapshot's `count` therefore has its
//! value already included in that snapshot's `sum` and bounded by its
//! `max` — a concurrent snapshot can run behind, never torn. The loom
//! model test proves this exhaustively.

use lrf_sync::atomic::{AtomicU64, Ordering};
use serde::{Deserialize, Serialize};

/// Sub-buckets per power-of-two octave (and the size of the exact linear
/// region). Higher means finer quantiles and more memory; 32 gives the
/// documented 1/64 relative-error bound in ~15 KiB per histogram.
pub(crate) const SUB_BUCKETS: usize = 32;
const LOG2_SUB: u32 = SUB_BUCKETS.trailing_zeros();

/// The bucket index for a value. Exact (identity) below [`SUB_BUCKETS`];
/// log-linear above.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let exponent = 63 - value.leading_zeros();
        let shift = exponent - LOG2_SUB;
        (shift as usize + 1) * SUB_BUCKETS + ((value >> shift) as usize - SUB_BUCKETS)
    }
}

/// The inclusive `(low, high)` value range of a bucket.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_BUCKETS {
        (index as u64, index as u64)
    } else {
        let octave = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        let shift = (octave - 1) as u32;
        let lo = (SUB_BUCKETS as u64 + sub) << shift;
        let width = 1u64 << shift;
        (lo, lo + (width - 1))
    }
}

/// The representative (midpoint) value reported for a bucket.
fn bucket_mid(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A value that goes up and down (resident sessions, queue depth).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub(crate) fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increments the gauge (e.g. a job entering a queue).
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the gauge, saturating at zero — a decrement racing a
    /// reset must not wrap a depth gauge to 2⁶⁴.
    pub fn dec(&self) {
        let mut cur = self.value.load(Ordering::Relaxed);
        while let Err(seen) = self.value.compare_exchange(
            cur,
            cur.saturating_sub(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            cur = seen;
        }
    }

    /// The current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// A lock-free log-linear histogram of `u64` samples (see the module docs
/// for the bucket layout and quantile error bound).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
    /// Records above this are clamped into the top bucket.
    limit: u64,
}

impl Histogram {
    /// A histogram covering the full `u64` range (1920 buckets, ~15 KiB).
    pub(crate) fn new() -> Self {
        Self::with_max_value(u64::MAX)
    }

    /// A histogram whose trackable range is capped at `max_value`
    /// (records above it are clamped). Allocates only the buckets the
    /// range needs — useful where footprint or (in model tests) the
    /// number of atomics matters.
    pub fn with_max_value(max_value: u64) -> Self {
        let n = bucket_index(max_value) + 1;
        Self {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            limit: max_value,
        }
    }

    /// Records one sample. Lock-free: one `fetch_add` on `sum`, a
    /// compare-exchange loop on `max` (uncontended in the common case),
    /// one `fetch_add` on the bucket. The ordering protocol (sum/max
    /// release-before-bucket) is what makes concurrent snapshots
    /// tear-free; see the module docs.
    pub fn record(&self, value: u64) {
        let v = value.min(self.limit);
        self.sum.fetch_add(v, Ordering::Release);
        let mut cur = self.max.load(Ordering::Relaxed);
        while v > cur {
            match self
                .max
                .compare_exchange(cur, v, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Release);
    }

    /// A consistent point-in-time view (see the module docs for the
    /// guarantee under concurrent `record`s).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (index, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Acquire);
            if c > 0 {
                count += c;
                buckets.push(BucketCount { index, count: c });
            }
        }
        let max = self.max.load(Ordering::Acquire);
        let sum = self.sum.load(Ordering::Acquire);
        HistogramSnapshot {
            count,
            sum,
            max: if count == 0 { 0 } else { max },
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One occupied histogram bucket (sparse representation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index on the log-linear grid (see the module docs).
    pub index: usize,
    /// Samples recorded into the bucket.
    pub count: u64,
}

/// An immutable view of a [`Histogram`]. Integer-only, so it
/// derives `Eq` and round-trips exactly through serde.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (clamped samples contribute their clamped
    /// value).
    pub sum: u64,
    /// Largest sample (exact, not bucketed). Zero when empty.
    pub max: u64,
    /// Occupied buckets in ascending index order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The `q`-quantile estimate (`q` clamped to `[0, 1]`): the midpoint
    /// of the bucket holding rank `ceil(q·count)`, within the documented
    /// 1/64 relative-error bound of the exact sorted-sample quantile.
    /// `quantile(1.0)` returns [`max`](Self::max) exactly; an empty
    /// snapshot returns 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= target {
                return bucket_mid(b.index);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Buckets needed to cover the full `u64` range.
    const NUM_BUCKETS: usize = (64 - LOG2_SUB as usize) * SUB_BUCKETS + SUB_BUCKETS;

    #[test]
    fn gauge_inc_dec_saturates_at_zero() {
        let g = Gauge::new();
        g.dec();
        assert_eq!(g.get(), 0, "decrementing an empty gauge must not wrap");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(7);
        g.dec();
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_invert_it() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            4096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
            if let Some(prev) = last {
                assert!(i >= prev, "index must be monotone in the value");
            }
            last = Some(i);
        }
        // Exhaustive inversion over the first octaves.
        for v in 0u64..4096 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_tracks_count_sum_max_exactly() {
        let h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1000, 123_456_789] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 123_457_853);
        assert_eq!(s.max, 123_456_789);
        assert_eq!(s.quantile(1.0), 123_456_789, "p100 is the exact max");
    }

    #[test]
    fn values_below_the_linear_region_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (rank, v) in (1..=SUB_BUCKETS as u64).zip(0..) {
            let q = rank as f64 / SUB_BUCKETS as f64;
            assert_eq!(s.quantile(q - 1e-9), v, "rank {rank}");
        }
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn with_max_value_clamps_records() {
        let h = Histogram::with_max_value(31);
        h.record(5);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 36, "the huge record clamps to the limit");
        assert_eq!(s.max, 31);
    }

    #[test]
    fn snapshots_roundtrip_through_serde() {
        let h = Histogram::new();
        for v in [3u64, 77, 500_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    /// The exact sorted-sample quantile matching `quantile`'s rank rule.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as f64;
        let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest! {
        /// The headline guarantee: every quantile estimate is within the
        /// documented 1/64 relative error of the exact sorted-sample
        /// quantile, across the linear region, octave boundaries, and
        /// values up to 2^40.
        #[test]
        fn quantiles_within_documented_bound(
            values in proptest::collection::vec(0u64..(1 << 40), 1..300),
            qs in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.max, *sorted.last().unwrap());
            for &q in qs.iter().chain([0.5, 0.9, 0.99, 1.0].iter()) {
                let exact = exact_quantile(&sorted, q);
                let est = s.quantile(q);
                let bound = exact / 64; // exact/2^LOG2_SUB·2 — see module docs
                prop_assert!(
                    est.abs_diff(exact) <= bound,
                    "q={} est={} exact={} bound={}", q, est, exact, bound
                );
            }
        }
    }
}
