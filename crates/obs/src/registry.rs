//! The metrics registry: named instruments, shared handles, frozen
//! snapshots.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a short mutex on a
//! name table and hands back an `Arc` handle; callers retain the handle,
//! so the **hot path never touches the registry** — recording is the
//! instrument's own lock-free atomics. Registries are per-instance (a
//! `Service` owns one), not global: tests can assert exact counts without
//! cross-talk from parallel test threads.
//!
//! [`Registry::snapshot`] freezes every instrument into a
//! [`RegistrySnapshot`] — integer-only, `Eq`, serde-serializable (the
//! `Request::Metrics` payload) and renderable as Prometheus text
//! ([`crate::prometheus::render`]).

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use lrf_sync::{Arc, Mutex, MutexExt};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A named collection of instruments. Cheap to share behind an `Arc`.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock_recover()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Registers an externally owned counter under `name`, so counts
    /// maintained inside another component (e.g. a store's internal
    /// counters) appear in this registry's snapshots. If the name is
    /// already registered the existing instrument wins; the returned
    /// handle is whichever the registry now holds.
    pub fn adopt_counter(&self, name: &str, counter: Arc<Counter>) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock_recover()
                .entry(name.to_string())
                .or_insert(counter),
        )
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock_recover()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use (full `u64`
    /// range).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock_recover()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Freezes every instrument, names sorted, into one serializable
    /// snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock_recover()
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .lock_recover()
            .iter()
            .map(|(name, g)| GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock_recover()
            .iter()
            .map(|(name, h)| HistogramEntry {
                name: name.clone(),
                histogram: h.snapshot(),
            })
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter's frozen value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// One gauge's frozen value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram's frozen distribution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Instrument name.
    pub name: String,
    /// The frozen distribution.
    pub histogram: HistogramSnapshot,
}

/// A frozen registry: every instrument by name, sorted. Integer-only so
/// it derives `Eq` and round-trips exactly through serde; quantiles are
/// computed on demand from the bucket counts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, name-sorted.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramEntry>,
}

impl RegistrySnapshot {
    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram's distribution, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("requests_total");
        let b = r.counter("requests_total");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("requests_total").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn adopt_exposes_an_external_counter() {
        let r = Registry::new();
        let external = Arc::new(Counter::new());
        external.add(5);
        r.adopt_counter("log_appends_total", Arc::clone(&external));
        external.add(2);
        assert_eq!(r.snapshot().counter("log_appends_total"), Some(7));
        // An existing registration wins over a later adoption.
        let other = Arc::new(Counter::new());
        let kept = r.adopt_counter("log_appends_total", other);
        assert!(Arc::ptr_eq(&kept, &external));
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("zeta").add(1);
        r.counter("alpha").add(2);
        r.gauge("active").set(4);
        r.histogram("latency_ns").record(99);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(s.counter("alpha"), Some(2));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("active"), Some(4));
        assert_eq!(s.histogram("latency_ns").unwrap().count, 1);
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.gauge("g").set(1);
        let h = r.histogram("h");
        h.record(10);
        h.record(2_000_000);
        let s = r.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
