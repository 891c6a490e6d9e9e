//! Quantiles that know their sample count, and the in-memory span recorder
//! of the traced run.

use std::time::Instant;

/// Samples required beyond a quantile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of `sorted` (ascending), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a p95 of 100 samples is five
/// numbers' worth of evidence and does not repeat between runs.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// A reported quantile: the value, the quantile actually used, and the
/// sample count behind it.
#[derive(Clone, Copy, Debug)]
pub struct Reported {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// The `q`-quantile when the sample supports it, otherwise the highest
/// supported one of p90/p75/p50, otherwise the plain median with `n`
/// telling the reader how little stands behind it. Every metric must be a
/// number, so the fallback is visible in `q` rather than a missing value.
pub fn report(samples: &[f64], q: f64) -> Reported {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    for candidate in [q, 0.90, 0.75, 0.50] {
        if candidate <= q {
            if let Some(value) = quantile(&sorted, candidate) {
                return Reported {
                    value,
                    q: candidate,
                    n,
                };
            }
        }
    }
    Reported {
        value: sorted.get(n / 2).copied().unwrap_or(0.0),
        q: 0.50,
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

/// Spans kept in memory for the whole traced run and written out at its
/// end. Single-threaded by design: the traced replay is.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span measured by the caller (for an interval
    /// that is not one call), child of the innermost span still open.
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Runs `f` inside a span named `name`, child of the innermost span
    /// still open.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total self time per span name: each span's duration minus the part
    /// its direct children cover. Sorted by name.
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (s, ns) in self.spans.iter().zip(own) {
            *totals.entry(s.name).or_default() += ns;
        }
        totals.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_refuses_without_ten_samples_beyond() {
        let s: Vec<f64> = (0..201).map(f64::from).collect();
        assert_eq!(quantile(&s[..190], 0.95), None, "only 9 samples beyond");
        assert_eq!(quantile(&s, 0.95), Some(190.0));
        assert_eq!(quantile(&s, 0.99), None);
        assert_eq!(quantile(&s, 0.50), Some(100.0));
        assert_eq!(quantile(&s[..20], 0.50), None);
        assert_eq!(quantile(&s[..21], 0.50), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn report_falls_back_to_the_highest_supported_quantile() {
        let s: Vec<f64> = (0..120).map(f64::from).collect();
        let r = report(&s, 0.95);
        assert_eq!((r.q, r.n), (0.90, 120));
        assert_eq!(r.value, 107.0);
        let r = report(&s[..5], 0.95);
        assert_eq!((r.q, r.n, r.value), (0.50, 5, 2.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        spans.time("outer", 1, |s| {
            s.time("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let all = spans.all();
        assert_eq!(all[1].parent, Some(0));
        let own = spans.self_time_ns();
        let get = |n: &str| own.iter().find(|(name, _)| *name == n).unwrap().1;
        let outer_total = all[0].end_ns - all[0].start_ns;
        assert_eq!(get("outer") + get("inner"), outer_total);
        assert!(get("inner") >= 2_000_000);
    }
}
