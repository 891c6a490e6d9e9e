//! # lrf-obs — the workspace observability layer
//!
//! One small crate answers "what is the serving tier doing right now":
//!
//! * **Instruments** ([`Counter`], [`Gauge`], [`Histogram`]): lock-free
//!   atomics from the `lrf-sync` facade, so the loom model checker can
//!   prove concurrent recording lossless and snapshots tear-free (see
//!   `tests/model_metrics.rs`). Histograms are log-linear with a
//!   documented ≤ 1/64 (≈ 1.6 %) relative error on quantile estimates
//!   and exact `count`/`sum`/`max`.
//! * **Registry** ([`Registry`] → [`RegistrySnapshot`]): named handles
//!   resolved once at startup; the hot path records through retained
//!   `Arc`s and never touches the registry lock. Snapshots are
//!   integer-only serde values — comparable with `==` in tests,
//!   servable as JSON.
//! * **Tracing** ([`SpanTimer`]): scope guards that time a stage into a
//!   histogram via an injectable [`Clock`] — [`MonotonicClock`] in
//!   production (the single sanctioned wall-clock read, enforced by
//!   `tools/lint`'s `wall-clock` rule), [`ManualClock`] in tests.
//! * **Export** ([`prometheus::render`]): the standard text exposition
//!   format, cumulative `_bucket`/`_sum`/`_count` series included, ready
//!   for a `/metrics` endpoint.
//!
//! ## Example
//!
//! ```
//! use lrf_obs::{ManualClock, Registry, SpanTimer};
//!
//! let registry = Registry::new();
//! let latency = registry.histogram("request_latency_ns");
//! let requests = registry.counter("requests_total");
//! let clock = ManualClock::new();
//!
//! for _ in 0..3 {
//!     let _span = SpanTimer::start(&clock, &latency);
//!     clock.advance(1_000);
//!     requests.inc();
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("requests_total"), Some(3));
//! let p50 = snap.histogram("request_latency_ns").unwrap().p50();
//! assert!(p50.abs_diff(1_000) <= 1_000 / 64); // documented quantile error bound
//! let page = lrf_obs::prometheus::render(&snap);
//! assert!(page.contains("request_latency_ns_count 3"));
//! ```

mod clock;
mod metrics;
pub mod prometheus;
mod registry;
mod trace;

pub use clock::{Clock, ClockRef, ManualClock, MonotonicClock};
pub use metrics::{BucketCount, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{CounterSnapshot, GaugeSnapshot, HistogramEntry, Registry, RegistrySnapshot};
pub use trace::SpanTimer;
