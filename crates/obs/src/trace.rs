//! The tracing facade: scope guards that record stage durations into
//! histograms.
//!
//! No background collector, no thread-locals, no allocation: a
//! [`SpanTimer`] reads the injected [`Clock`] twice and does one lock-free
//! [`Histogram::record`] on drop. That keeps per-span overhead in the
//! tens of nanoseconds — small enough to leave enabled on the hottest
//! request path (`benchmark/` reports it as `obs.trace_overhead_pct` against
//! a 5 % budget; `tests/golden_gates.rs` pins the reads per request).

use crate::clock::Clock;
use crate::metrics::Histogram;

/// Times a scope into a histogram: starts on construction, records the
/// elapsed nanoseconds when dropped.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct SpanTimer<'a> {
    clock: &'a dyn Clock,
    histogram: &'a Histogram,
    started_ns: u64,
}

impl<'a> SpanTimer<'a> {
    /// Starts the span.
    pub fn start(clock: &'a dyn Clock, histogram: &'a Histogram) -> Self {
        Self {
            clock,
            histogram,
            started_ns: clock.now_ns(),
        }
    }

    /// Nanoseconds since the span started.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.started_ns)
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.histogram.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn span_records_elapsed_on_drop() {
        let clock = ManualClock::new();
        let h = Histogram::new();
        {
            let span = SpanTimer::start(&clock, &h);
            clock.advance(120);
            assert_eq!(span.elapsed_ns(), 120);
            clock.advance(30);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.sum), (1, 150));
    }
}
