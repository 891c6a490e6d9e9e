//! The §6.4 experiment runner.

use lrf_cbir::{CorelDataset, CorelSpec, PrecisionCurve, QueryProtocol};
use lrf_core::{LrfConfig, LrfCsvm, QueryContext, RelevanceFeedback, RfSvm, SchemeKind};
use lrf_logdb::{LogStore, SimulationConfig};
use lrf_obs::{Clock, MonotonicClock};
use serde::Serialize;

/// Which schemes an experiment evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeChoice {
    /// All four curves of the paper's figures.
    All,
    /// Only LRF-CSVM (used by parameter ablations).
    CsvmOnly,
    /// LRF-CSVM plus the RF-SVM baseline (ablation reference).
    CsvmAndRf,
}

/// A complete experiment specification.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Dataset to build (the paper's 20- or 50-category setups).
    pub dataset: CorelSpec,
    /// Feedback-log collection parameters (the paper: 150 sessions, top-20
    /// judged, "more or less noise").
    pub log: SimulationConfig,
    /// Query protocol (the paper: 200 random queries, 20 labeled).
    pub protocol: QueryProtocol,
    /// Algorithm configuration shared by all SVM-based schemes.
    pub lrf: LrfConfig,
    /// Scheme subset to run.
    pub schemes: SchemeChoice,
}

impl ExperimentSpec {
    /// The paper's 20-Category experiment (Table 1 / Fig. 3).
    pub fn table1(seed: u64) -> Self {
        Self {
            dataset: CorelSpec::twenty_category(seed),
            log: SimulationConfig {
                seed: seed ^ 0x10f0,
                ..Default::default()
            },
            protocol: QueryProtocol {
                seed: seed ^ 0x20f0,
                ..Default::default()
            },
            lrf: LrfConfig::default(),
            schemes: SchemeChoice::All,
        }
    }

    /// The paper's 50-Category experiment (Table 2 / Fig. 4).
    pub fn table2(seed: u64) -> Self {
        Self {
            dataset: CorelSpec::fifty_category(seed),
            ..Self::table1(seed)
        }
    }

    /// A down-scaled spec for smoke tests and quick iterations.
    pub fn smoke(n_categories: usize, per_category: usize, seed: u64) -> Self {
        Self {
            dataset: CorelSpec::tiny(n_categories, per_category, seed),
            log: SimulationConfig {
                n_sessions: 30,
                judged_per_session: 10,
                rounds_per_query: 2,
                noise: 0.1,
                seed: seed ^ 1,
            },
            protocol: QueryProtocol {
                n_queries: 10,
                n_labeled: 10,
                seed: seed ^ 2,
            },
            lrf: LrfConfig {
                n_unlabeled: 10,
                ..Default::default()
            },
            schemes: SchemeChoice::All,
        }
    }
}

/// Result of one experiment: a named precision curve per scheme, in the
/// paper's column order — what `reproduce --json` writes.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentResult {
    /// `(scheme name, averaged curve)` in evaluation order.
    pub curves: Vec<(String, PrecisionCurve)>,
    /// Wall-clock seconds spent evaluating queries (excludes dataset build).
    pub eval_seconds: f64,
    /// Number of queries evaluated.
    pub n_queries: usize,
}

impl ExperimentResult {
    /// Looks up a scheme's curve by name.
    pub fn curve(&self, name: &str) -> Option<&PrecisionCurve> {
        self.curves.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }
}

/// Builds the dataset + log and evaluates the configured schemes.
///
/// The log is collected with the paper's protocol — multi-round RF-SVM
/// refined screens ([`lrf_core::collect_feedback_log`]), not plain content
/// ranking.
///
/// Queries are sharded across threads with `std::thread::scope`; results are
/// deterministic regardless of thread count because every query's work is
/// self-contained and accumulation is order-independent up to float
/// summation over a fixed per-scheme order (shards are merged in shard
/// order).
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    let dataset = CorelDataset::build(spec.dataset.clone());
    let log = lrf_core::collect_feedback_log(&dataset.db, &spec.log, &spec.lrf);
    run_on_prepared(spec, &dataset, &log)
}

/// As [`run_experiment`] but over an already built dataset/log (reused by
/// ablations that sweep only algorithm parameters).
pub fn run_on_prepared(
    spec: &ExperimentSpec,
    dataset: &CorelDataset,
    log: &LogStore,
) -> ExperimentResult {
    let max_cutoff = *lrf_cbir::CUTOFFS.last().expect("cutoffs nonempty");
    assert!(
        dataset.db.len() >= max_cutoff,
        "database of {} images cannot be evaluated at the paper's top-{max_cutoff} cutoff",
        dataset.db.len()
    );
    let schemes = build_schemes(spec);
    let protocol = spec.protocol;
    let queries = protocol.sample_queries(&dataset.db);

    let clock = MonotonicClock::new();
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let chunk = queries.len().div_ceil(n_threads).max(1);

    // Each shard accumulates one PrecisionCurve per scheme; shards merge in
    // order afterwards.
    let shard_results: Vec<Vec<PrecisionCurve>> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|shard| {
                let schemes = &schemes;
                let db = &dataset.db;
                scope.spawn(move || {
                    let mut curves: Vec<PrecisionCurve> =
                        schemes.iter().map(|_| PrecisionCurve::new()).collect();
                    for &q in shard {
                        let example = protocol.feedback_example(db, q);
                        let ctx = QueryContext {
                            db,
                            log,
                            example: &example,
                        };
                        for (scheme, curve) in schemes.iter().zip(&mut curves) {
                            let ranked = scheme.rank(&ctx);
                            curve.add(&ranked, |id| db.same_category(id, q));
                        }
                    }
                    curves
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation shard panicked"))
            .collect()
    });

    // Merge shards.
    let mut merged: Vec<PrecisionCurve> = schemes.iter().map(|_| PrecisionCurve::new()).collect();
    for shard in shard_results {
        for (m, s) in merged.iter_mut().zip(shard) {
            for (mv, sv) in m.values.iter_mut().zip(&s.values) {
                *mv += sv;
            }
            m.n_queries += s.n_queries;
        }
    }
    let curves = schemes
        .iter()
        .zip(merged)
        .map(|(s, c)| (s.name().to_string(), c.finish()))
        .collect();

    ExperimentResult {
        curves,
        eval_seconds: clock.now_ns() as f64 / 1e9,
        n_queries: queries.len(),
    }
}

fn build_schemes(spec: &ExperimentSpec) -> Vec<Box<dyn RelevanceFeedback + Send + Sync>> {
    match spec.schemes {
        SchemeChoice::All => SchemeKind::all().map(|kind| kind.build(spec.lrf)).into(),
        SchemeChoice::CsvmOnly => vec![Box::new(LrfCsvm::new(spec.lrf))],
        SchemeChoice::CsvmAndRf => {
            vec![
                Box::new(RfSvm::new(spec.lrf)),
                Box::new(LrfCsvm::new(spec.lrf)),
            ]
        }
    }
}

/// Multi-round feedback evaluation: the paper's motivating metric ("achieve
/// satisfactory results within as few feedback cycles as possible").
///
/// For each query, every scheme starts from the same auto-judged Euclidean
/// top-`n_labeled` round; after each ranking, the next round's screen is
/// chosen by `selection` over the scheme's own scores-implied ranking (we
/// use rank order as the score surrogate, which is what presentation
/// policies act on), judged by ground truth, and appended to the labeled
/// set. Returns, per scheme, the mean P@20 after each round.
pub fn run_rounds_experiment(
    spec: &ExperimentSpec,
    dataset: &CorelDataset,
    log: &LogStore,
    n_rounds: usize,
    screen_size: usize,
    selection: lrf_core::RoundSelection,
) -> Vec<(String, Vec<f64>)> {
    let schemes = build_schemes(spec);
    let protocol = spec.protocol;
    let queries = protocol.sample_queries(&dataset.db);
    let db = &dataset.db;

    let mut per_scheme: Vec<Vec<f64>> = schemes.iter().map(|_| vec![0.0; n_rounds]).collect();
    for &q in &queries {
        for (s_idx, scheme) in schemes.iter().enumerate() {
            let mut example = protocol.feedback_example(db, q);
            #[allow(clippy::needless_range_loop)] // round drives both the
            // accumulator slot and the feedback-refresh below
            for round in 0..n_rounds {
                let ctx = QueryContext {
                    db,
                    log,
                    example: &example,
                };
                // Real decision scores where the scheme has them (needed by
                // uncertainty-based presentation); rank-derived surrogate
                // otherwise (Euclidean).
                let (ranked, scores) = match scheme.scores(&ctx) {
                    Some(scores) => (lrf_core::rank_by_scores(&scores), scores),
                    None => {
                        let ranked = scheme.rank(&ctx);
                        let mut surrogate = vec![0.0f64; db.len()];
                        for (pos, &id) in ranked.iter().enumerate() {
                            surrogate[id] = -(pos as f64);
                        }
                        (ranked, surrogate)
                    }
                };
                per_scheme[s_idx][round] +=
                    lrf_cbir::precision_at(&ranked, |id| db.same_category(id, q), 20);
                let judged: std::collections::HashSet<usize> =
                    example.labeled.iter().map(|&(id, _)| id).collect();
                let screen = selection.select(&scores, &judged, screen_size);
                for id in screen {
                    let y = if db.same_category(id, q) { 1.0 } else { -1.0 };
                    example.labeled.push((id, y));
                }
            }
        }
    }
    schemes
        .iter()
        .zip(per_scheme)
        .map(|(s, totals)| {
            (
                s.name().to_string(),
                totals
                    .into_iter()
                    .map(|t| t / queries.len() as f64)
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_produces_all_curves() {
        let spec = ExperimentSpec::smoke(5, 25, 5);
        let result = run_experiment(&spec);
        assert_eq!(result.curves.len(), 4);
        assert_eq!(result.curves[0].0, "Euclidean");
        assert_eq!(result.curves[3].0, "LRF-CSVM");
        for (name, curve) in &result.curves {
            assert_eq!(curve.n_queries, 10, "{name}");
            assert!(
                curve.values.iter().all(|&v| (0.0..=1.0).contains(&v)),
                "{name}"
            );
        }
    }

    #[test]
    fn smoke_experiment_is_deterministic() {
        let spec = ExperimentSpec::smoke(4, 30, 9);
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        for ((na, ca), (nb, cb)) in a.curves.iter().zip(&b.curves) {
            assert_eq!(na, nb);
            assert_eq!(ca.values, cb.values);
        }
    }

    #[test]
    fn csvm_only_runs_one_scheme() {
        let spec = ExperimentSpec {
            schemes: SchemeChoice::CsvmOnly,
            ..ExperimentSpec::smoke(4, 30, 3)
        };
        let result = run_experiment(&spec);
        assert_eq!(result.curves.len(), 1);
        assert_eq!(result.curves[0].0, "LRF-CSVM");
    }

    #[test]
    fn named_specs_match_paper_scale() {
        let t1 = ExperimentSpec::table1(0);
        assert_eq!(t1.dataset.n_categories, 20);
        assert_eq!(t1.log.n_sessions, 150);
        assert_eq!(t1.protocol.n_queries, 200);
        assert_eq!(t1.protocol.n_labeled, 20);
        let t2 = ExperimentSpec::table2(0);
        assert_eq!(t2.dataset.n_categories, 50);
    }
}
