//! Output: the metric table a person reads, the one-line JSON object the
//! driver reads, and the result files under `benchmark/results/`.

use crate::stats::report;
use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, quantile actually used, or other context.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }

    /// A latency quantile named `<what>_p<NN>_<ns|us|ms>`: the quantile
    /// and the unit are read from the name, so the two cannot disagree.
    /// The note carries the sample count, and says so when the sample was
    /// too small for the quantile the name promises.
    pub fn timing(name: &str, samples_ns: &[f64]) -> Self {
        let parsed = name.rsplit_once('_').and_then(|(rest, unit)| {
            let percent: f64 = rest.rsplit_once("_p")?.1.parse().ok()?;
            let (unit, scale) = match unit {
                "ns" => ("ns", 1.0),
                "us" => ("us", 1e3),
                "ms" => ("ms", 1e6),
                _ => return None,
            };
            Some((percent / 100.0, unit, scale))
        });
        let (q, unit, scale) = parsed.expect("timing metrics are named <what>_p<NN>_<ns|us|ms>");
        let r = report(samples_ns, q);
        Self::new(name, r.value / scale, unit).note(format!("n={} q={:.2}", r.n, r.q))
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn metrics_object(metrics: &[Metric], separator: &str) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(separator))
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics, ", ")
    )
}

pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.4} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
}

/// Where and on what a result was measured.
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Environment {
    pub fn capture(rustc: &str, commit: &str) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel,
            rustc: rustc.to_string(),
            commit: commit.to_string(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.kernel),
            escape(&self.rustc),
            escape(&self.commit)
        )
    }
}

/// One result set, as written to `benchmark/results/<workload>-<kind>.json`.
pub struct ResultFile<'a> {
    pub workload: &'a str,
    pub kind: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub env: &'a Environment,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: &'a [String],
    pub timed_wall_s: f64,
    /// `(request kind, timed samples)`.
    pub op_counts: &'a [(&'a str, usize)],
    pub metrics: &'a [Metric],
}

impl ResultFile<'_> {
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        let ops: Vec<String> = self
            .op_counts
            .iter()
            .map(|(kind, n)| format!("\"{kind}\": {n}"))
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect();
        let notes: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.note.is_empty())
            .map(|m| format!("\"{}\": \"{}\"", escape(&m.name), escape(&m.note)))
            .collect();
        let body = format!(
            "{{\n  \"workload\": \"{}\",\n  \"kind\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \"environment\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"timed_wall_s\": {},\n  \"op_counts\": {{{}}},\n  \"metrics\": {},\n  \"notes\": {{{}}}\n}}\n",
            self.workload,
            self.kind,
            self.seed,
            self.seconds,
            self.smoke,
            self.env.json(),
            self.correct,
            self.attempted,
            self.failed,
            problems.join(", "),
            self.timed_wall_s,
            ops.join(", "),
            metrics_object(self.metrics, ",\n    "),
            notes.join(", "),
        );
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}.json", self.workload, self.kind));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn timing_reads_quantile_and_unit_from_the_name() {
        let ns: Vec<f64> = (0..=1000).map(|i| f64::from(i) * 1e3).collect();
        let m = Metric::timing("core.fit_p95_us", &ns);
        assert_eq!((m.value, m.unit), (950.0, "us"));
        assert_eq!(m.note, "n=1001 q=0.95");
        let m = Metric::timing("open_p50_ms", &ns);
        assert_eq!((m.value, m.unit), (0.5, "ms"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
