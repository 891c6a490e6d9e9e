//! Result formatting: the paper's table layout and figure series.

use crate::experiment::ExperimentResult;
use lrf_cbir::CUTOFFS;
use lrf_core::SchemeKind;
use std::fmt::Write as _;

/// Whether the curve `name` is a log-based scheme's: its columns carry the
/// relative improvement over RF-SVM.
fn log_based(name: &str) -> bool {
    name == SchemeKind::Lrf2Svms.name() || name == SchemeKind::LrfCsvm.name()
}

/// Renders an [`ExperimentResult`] in the layout of the paper's Tables 1–2:
/// one row per cutoff plus the MAP row; log-based schemes annotated with
/// their relative improvement over RF-SVM.
pub fn paper_table(title: &str, result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "(averaged over {} queries)", result.n_queries);

    let baseline = result.curve(SchemeKind::RfSvm.name());
    let mut header = format!("{:>6}", "#TOP");
    for (name, _) in &result.curves {
        let wide = log_based(name);
        let _ = write!(
            header,
            "  {:>width$}",
            name,
            width = if wide { 17 } else { 9 }
        );
    }
    let _ = writeln!(out, "{header}");

    let row = |out: &mut String, label: &str, idx: Option<usize>| {
        let _ = write!(out, "{label:>6}");
        for (name, curve) in &result.curves {
            let v = match idx {
                Some(i) => curve.values[i],
                None => curve.map(),
            };
            let annotated = log_based(name);
            match (annotated, baseline) {
                (true, Some(base)) => {
                    let b = match idx {
                        Some(i) => base.values[i],
                        None => base.map(),
                    };
                    let imp = if b > 0.0 { (v - b) / b * 100.0 } else { 0.0 };
                    let _ = write!(out, "  {:>8.3} ({:>+5.1}%)", v, imp);
                }
                (true, None) => {
                    let _ = write!(out, "  {v:>17.3}");
                }
                (false, _) => {
                    let _ = write!(out, "  {v:>9.3}");
                }
            }
        }
        let _ = writeln!(out);
    };

    for (i, &k) in CUTOFFS.iter().enumerate() {
        row(&mut out, &k.to_string(), Some(i));
    }
    row(&mut out, "MAP", None);
    out
}

/// Renders the figure series (Fig. 3 / Fig. 4): one line per cutoff with
/// every scheme's average precision — directly plottable columns.
pub fn figure_series(title: &str, result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{:>18}", "returned");
    for (name, _) in &result.curves {
        let _ = write!(header, "  {name:>10}");
    }
    let _ = writeln!(out, "{header}");
    for (i, &k) in CUTOFFS.iter().enumerate() {
        let _ = write!(out, "{k:>18}");
        for (_, curve) in &result.curves {
            let _ = write!(out, "  {:>10.4}", curve.values[i]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a GitHub-flavored markdown table (printed by
/// `reproduce table1|table2`).
pub fn markdown_table(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = write!(out, "| #TOP |");
    for (name, _) in &result.curves {
        let _ = write!(out, " {name} |");
    }
    let _ = writeln!(out);
    let _ = write!(out, "|---|");
    for _ in &result.curves {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out);
    let baseline = result.curve(SchemeKind::RfSvm.name()).cloned();
    for (i, &k) in CUTOFFS.iter().enumerate() {
        let _ = write!(out, "| {k} |");
        for (name, curve) in &result.curves {
            let v = curve.values[i];
            if let (true, Some(base)) = (log_based(name), baseline.as_ref()) {
                let b = base.values[i];
                let imp = if b > 0.0 { (v - b) / b * 100.0 } else { 0.0 };
                let _ = write!(out, " {v:.3} ({imp:+.1}%) |");
            } else {
                let _ = write!(out, " {v:.3} |");
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "| MAP |");
    for (name, curve) in &result.curves {
        let v = curve.map();
        if let (true, Some(base)) = (log_based(name), baseline.as_ref()) {
            let b = base.map();
            let imp = if b > 0.0 { (v - b) / b * 100.0 } else { 0.0 };
            let _ = write!(out, " {v:.3} ({imp:+.1}%) |");
        } else {
            let _ = write!(out, " {v:.3} |");
        }
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_cbir::PrecisionCurve;

    fn fake_result() -> ExperimentResult {
        let mk = |base: f64| PrecisionCurve {
            values: (0..9).map(|i| base - i as f64 * 0.01).collect(),
            n_queries: 10,
        };
        ExperimentResult {
            curves: vec![
                ("Euclidean".into(), mk(0.4)),
                ("RF-SVM".into(), mk(0.5)),
                ("LRF-2SVMs".into(), mk(0.6)),
                ("LRF-CSVM".into(), mk(0.7)),
            ],
            eval_seconds: 1.0,
            n_queries: 10,
        }
    }

    #[test]
    fn paper_table_contains_all_rows_and_improvements() {
        let table = paper_table("Table 1", &fake_result());
        assert!(table.contains("Table 1"));
        for k in [20, 30, 40, 50, 60, 70, 80, 90, 100] {
            assert!(table.contains(&format!("\n{k:>6}")), "missing row {k}");
        }
        assert!(table.contains("MAP"));
        // 0.6 vs 0.5 at top-20 → +20%
        assert!(table.contains("(+20.0%)"), "table:\n{table}");
        assert!(table.contains("(+40.0%)"));
    }

    #[test]
    fn figure_series_has_nine_rows() {
        let series = figure_series("Fig 3", &fake_result());
        let data_rows = series
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert_eq!(data_rows, 9, "series:\n{series}");
    }

    #[test]
    fn markdown_table_is_well_formed() {
        let md = markdown_table(&fake_result());
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 2 + 9 + 1); // header + sep + cutoffs + MAP
        assert!(lines[0].starts_with("| #TOP |"));
        assert!(lines.iter().all(|l| l.starts_with('|') && l.ends_with('|')));
    }
}
