//! The practical LRF-CSVM algorithm — a line-by-line implementation of the
//! paper's Fig. 1.
//!
//! ```text
//! 1. Selecting N' unlabeled samples:
//!      train SVM on labeled content, SVM on labeled log vectors;
//!      dist(z_i) = SVM_Dist(x_i, w, b_w) + SVM_Dist(r_i, u, b_u);
//!      S' = N'/2 samples with max dist ∪ N'/2 with min dist.
//! 2. Training the coupled SVM:
//!      ρ* = 10⁻⁴; anneal (×2) up to ρ with Δ-gated label correction.
//! 3. Retrieving:
//!      dist(z_i) = CSVM_Dist(x_i, r_i, w, b_w, u, b_u);
//!      return the N_r images with max dist.
//! ```
//!
//! §6.5 motivates step 1's max/min strategy: "choose unlabeled images
//! closest to the positive labeled images for half the samples, and those
//! closest to the negative labeled images for the other half"; the
//! active-learning alternative (samples nearest the boundary) "did not
//! achieve promising improvements" and is kept here as
//! [`UnlabeledSelection::ClosestToBoundary`] to reproduce that finding.

use crate::block::Round;
use crate::config::{LrfConfig, UnlabeledSelection};
use crate::coupled::{train_coupled, CoupledOutcome, TrainReport};
use crate::feedback::{cmp_scores_desc, rank_by_scores, QueryContext, WarmState};

/// Output of [`fit_on`] — the coupled round's scores over its universe
/// (the pool, then the judged ids it lacks) plus the diagnostics
/// [`run_lrf_csvm`] folds into its outcome.
pub(crate) struct CsvmFit {
    pub(crate) scores: Vec<f64>,
    pub(crate) unlabeled_ids: Vec<usize>,
    pub(crate) outcome: CoupledOutcome,
}

/// Everything one LRF-CSVM query produces beyond the ranking — exposed for
/// diagnostics, tests, and the ablation benches.
#[derive(Clone, Debug)]
pub struct LrfCsvmOutcome {
    /// The final ranking (most relevant first).
    pub ranking: Vec<usize>,
    /// Image ids chosen as the unlabeled pool `S'`.
    pub unlabeled_ids: Vec<usize>,
    /// Coupled-training diagnostics.
    pub report: TrainReport,
}

/// Runs Fig. 1 under `config` over the whole database, returning the
/// ranking and its diagnostics: the same fit → score → sort as
/// [`crate::Scheme::rank`] for [`crate::SchemeKind::LrfCsvm`], keeping what
/// the scorer drops (unlabeled pool, training report).
///
/// # Panics
/// Panics if `config` fails [`LrfConfig::validate`].
pub fn run_lrf_csvm(config: &LrfConfig, ctx: &QueryContext<'_>) -> LrfCsvmOutcome {
    config.validate();
    let universe: Vec<usize> = (0..ctx.db.len()).collect();
    let fit = fit_on(config, ctx, &universe, &mut WarmState::default());
    LrfCsvmOutcome {
        ranking: rank_by_scores(&fit.scores),
        unlabeled_ids: fit.unlabeled_ids,
        report: fit.outcome.report,
    }
}

/// Fig. 1 over a candidate `pool` (the whole database, or an index's
/// pool) and the judged ids it lacks: unlabeled selection, coupled
/// training, and the `CSVM_Dist` of every member of that universe, in
/// universe order (the pool first). Every kernel value of the fit is read
/// from the session's row blocks in `warm`: step 1's stores are served the
/// labeled images' rows, the anneal's those and the pool's, and the final
/// score finds every row resident.
pub(crate) fn fit_on(
    cfg: &LrfConfig,
    ctx: &QueryContext<'_>,
    pool: &[usize],
    warm: &mut WarmState,
) -> CsvmFit {
    let y = ctx.labels();

    // ---- Step 1: initial per-modality SVMs on the labeled round, one row
    // store per view, seeded from the previous round: the labeled prefix
    // of the last coupled solution is bounded by the same `C` as a
    // labeled-only solve, so it prefix-maps directly.
    let (labeled, r) = (&ctx.example.labeled, Round::new(cfg, ctx));
    let universe = warm.blocks.align(&r, pool);
    let (content0, log0) = (r.content.fit(&r, warm), r.log.fit(&r, warm));
    let step1 = [Some(&content0), Some(&log0)];
    let dist = warm.blocks.scores(&r, labeled, step1);
    let judged: std::collections::HashSet<usize> = labeled.iter().map(|&(id, _)| id).collect();
    let scored = universe.iter().copied().zip(dist);
    let scored: Vec<(usize, f64)> = scored.filter(|(id, _)| !judged.contains(id)).collect();

    let (unlabeled_ids, y_init) = select_unlabeled_in(cfg, ctx, scored);

    // ---- Step 2: coupled training in a row store per view over the
    // labeled images and the pool, served every row: the samples are
    // borrowed (row views of the database's flat matrix, references into
    // the log store).
    let pool = unlabeled_ids.iter().copied();
    let ids: Vec<usize> = labeled.iter().map(|l| l.0).chain(pool).collect();
    let content = r.content.store(&r, &mut warm.blocks, &ids);
    let log = r.log.store(&r, &mut warm.blocks, &ids);
    let outcome = train_coupled(content, log, &y, &y_init, &cfg.coupled)
        // lrf-lint: allow(service-panic): the round is non-empty (the two
        // step-1 fits above ran on it), its labels and the pseudo-labels
        // are ±1, both stores hold the labeled images then the pool, and
        // `LrfConfig::validate` made every bound positive
        .expect("coupled training cannot fail on validated feedback rounds");

    // ---- Step 3: CSVM_Dist over the universe, from the same blocks.
    let finals = outcome.report.final_labels.iter().copied();
    let pseudo = unlabeled_ids.iter().copied().zip(finals);
    let samples: Vec<(usize, f64)> = labeled.iter().copied().chain(pseudo).collect();
    let duals = [Some(&outcome.content), Some(&outcome.log)];
    let scores = warm.blocks.scores(&r, &samples, duals);

    warm.finish(outcome.solves, [step1, duals], y.len());
    CsvmFit {
        scores,
        unlabeled_ids,
        outcome,
    }
}

/// Step 1's selection over explicit `(id, combined distance)` candidates:
/// returns `(ids, initial pseudo-labels)`.
fn select_unlabeled_in(
    cfg: &LrfConfig,
    ctx: &QueryContext<'_>,
    mut scored: Vec<(usize, f64)>,
) -> (Vec<usize>, Vec<f64>) {
    // Candidates sorted by descending combined distance, ties by id (total
    // order: a NaN distance sorts last, never panics the sort).
    scored.sort_by(|a, b| cmp_scores_desc(a.1, b.1).then(a.0.cmp(&b.0)));

    let n = cfg.n_unlabeled.min(scored.len());
    if n == 0 {
        return (Vec::new(), Vec::new());
    }

    let n_top = n / 2;
    let chosen: Vec<(usize, f64)> = match cfg.selection {
        UnlabeledSelection::MaxMinCombinedDistance => {
            let mut chosen: Vec<(usize, f64)> = scored[..n_top].to_vec();
            chosen.extend_from_slice(&scored[scored.len() - (n - n_top)..]);
            chosen
        }
        UnlabeledSelection::ClosestToBoundary => {
            let mut by_abs = scored.clone();
            by_abs.sort_by(|a, b| a.1.abs().total_cmp(&b.1.abs()).then(a.0.cmp(&b.0)));
            by_abs.truncate(n);
            by_abs
        }
        UnlabeledSelection::Random => {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            /// Seed of the ablation control's draw, mixed with the query
            /// id.
            const RANDOM_SELECTION_SEED: u64 = 0x1f2e3d4c;
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(RANDOM_SELECTION_SEED ^ ctx.example.query as u64);
            // Shuffle in id order so the draw is independent of the
            // caller's candidate ordering.
            let mut shuffled = scored.clone();
            shuffled.sort_by_key(|&(id, _)| id);
            shuffled.shuffle(&mut rng);
            shuffled.truncate(n);
            shuffled
        }
    };

    // The max/min split labels by selection side (§6.5); the other
    // selections have no sides: the sign of the distance.
    let positive = |i: usize, d: f64| match cfg.selection {
        UnlabeledSelection::MaxMinCombinedDistance => i < n_top,
        _ => d >= 0.0,
    };
    let y_init = chosen.iter().enumerate();
    let y_init = y_init.map(|(i, &(_, d))| if positive(i, d) { 1.0 } else { -1.0 });
    (chosen.iter().map(|&(id, _)| id).collect(), y_init.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::content_fit;
    use crate::kernels::LogRbfKernel;
    use crate::{Scheme, SchemeKind};
    use lrf_cbir::{collect_log, precision_at, CorelDataset, CorelSpec, QueryProtocol};
    use lrf_logdb::{LogStore, SimulationConfig, SparseVector};
    use lrf_svm::{Dual, KernelCache};

    /// Step 1's log SVM with no row blocks: a store over the labeled
    /// images' log vectors that computes its own rows.
    fn log_fit<'a>(
        cfg: &LrfConfig,
        log: &'a LogStore,
        labeled: &[(usize, f64)],
    ) -> (KernelCache<'a, SparseVector, LogRbfKernel>, Dual) {
        let samples = labeled.iter().map(|&(id, _)| log.log_vector(id)).collect();
        let mut store = KernelCache::new(cfg.log_kernel, samples);
        let labels: Vec<f64> = labeled.iter().map(|&(_, y)| y).collect();
        let bounds = vec![cfg.coupled.c_log; labels.len()];
        let dual = store
            .solve(&labels, &bounds, &cfg.coupled.smo, None)
            .unwrap();
        (store, dual)
    }

    /// Step 1's selection over the full database (exercised directly by
    /// the selection-invariant tests): `dist[id]` is the combined SVM
    /// distance of image `id`.
    fn select_unlabeled(
        cfg: &LrfConfig,
        ctx: &QueryContext<'_>,
        dist: &[f64],
    ) -> (Vec<usize>, Vec<f64>) {
        let labeled: std::collections::HashSet<usize> =
            ctx.example.labeled.iter().map(|&(id, _)| id).collect();
        let scored: Vec<(usize, f64)> = dist
            .iter()
            .enumerate()
            .filter(|(id, _)| !labeled.contains(id))
            .map(|(id, &d)| (id, d))
            .collect();
        select_unlabeled_in(cfg, ctx, scored)
    }

    fn setup(noise: f64, sessions: usize) -> (CorelDataset, LogStore) {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: sessions,
                judged_per_session: 10,
                rounds_per_query: 2,
                noise,
                seed: 23,
            },
        );
        (ds, log)
    }

    fn small_config() -> LrfConfig {
        // Shrink the pool + annealing for test speed; rho stays at the
        // calibrated scale so transduction cannot dominate the tiny corpus.
        LrfConfig {
            n_unlabeled: 8,
            coupled: crate::config::CoupledConfig {
                rho_init: 0.01,
                rho: 0.05,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn rank_is_a_permutation_with_diagnostics() {
        let (ds, log) = setup(0.1, 20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 7);
        let cfg = small_config();
        let out = run_lrf_csvm(
            &cfg,
            &QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            },
        );
        let mut sorted = out.ranking.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ds.db.len()).collect::<Vec<_>>());
        assert_eq!(out.unlabeled_ids.len(), 8);
        assert!(out.report.retrains >= out.report.rho_steps);
        assert_eq!(
            Scheme::new(SchemeKind::LrfCsvm, cfg).kind().name(),
            "LRF-CSVM"
        );
    }

    #[test]
    fn unlabeled_pool_excludes_labeled_images() {
        let (ds, log) = setup(0.0, 20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 10,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 3);
        let out = run_lrf_csvm(
            &small_config(),
            &QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            },
        );
        for &(id, _) in &example.labeled {
            assert!(
                !out.unlabeled_ids.contains(&id),
                "labeled id {id} leaked into pool"
            );
        }
        // no duplicates
        let mut ids = out.unlabeled_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.unlabeled_ids.len());
    }

    #[test]
    fn selection_strategies_differ() {
        let (ds, log) = setup(0.0, 20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 5);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let maxmin = run_lrf_csvm(&small_config(), &ctx).unlabeled_ids;
        let boundary = run_lrf_csvm(
            &LrfConfig {
                selection: UnlabeledSelection::ClosestToBoundary,
                ..small_config()
            },
            &ctx,
        )
        .unlabeled_ids;
        assert_ne!(maxmin, boundary, "strategies should pick different pools");
    }

    #[test]
    fn selection_side_init_labels_match_pool_order() {
        let (ds, log) = setup(0.0, 20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 5);
        let cfg = small_config();
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };

        // Reproduce step 1 manually to check the split.
        let (content, content0) = content_fit(&cfg, &ds.db, &example.labeled);
        let (logside, log0) = log_fit(&cfg, &log, &example.labeled);
        let y = ctx.labels();
        let rows: Vec<&[f64]> = (0..ds.db.len()).map(|id| ds.db.feature(id)).collect();
        let log_rows: Vec<_> = (0..ds.db.len()).map(|id| log.log_vector(id)).collect();
        let f_w = content.machine(content0, &y).model.decision_batch(&rows);
        let f_u = logside.machine(log0, &y).model.decision_batch(&log_rows);
        let dist: Vec<f64> = f_w.iter().zip(&f_u).map(|(c, l)| c + l).collect();
        let (ids, init) = select_unlabeled(&cfg, &ctx, &dist);
        let n_top = ids.len() / 2;
        for (i, y0) in init.iter().enumerate() {
            assert_eq!(*y0, if i < n_top { 1.0 } else { -1.0 });
        }
        // Top half really does have larger dist than bottom half.
        let top_min = ids[..n_top]
            .iter()
            .map(|&id| dist[id])
            .fold(f64::INFINITY, f64::min);
        let bottom_max = ids[n_top..]
            .iter()
            .map(|&id| dist[id])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(top_min >= bottom_max);
    }

    #[test]
    fn sideless_selections_init_labels_by_distance_sign() {
        let (ds, log) = setup(0.0, 20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 5);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        // Both signs occur, so neither selection can pass by constancy.
        let dist: Vec<f64> = (0..ds.db.len()).map(|id| id as f64 - 20.5).collect();
        for selection in [
            UnlabeledSelection::ClosestToBoundary,
            UnlabeledSelection::Random,
        ] {
            let cfg = LrfConfig {
                selection,
                ..LrfConfig::default()
            };
            let (ids, init) = select_unlabeled(&cfg, &ctx, &dist);
            assert_eq!(ids.len(), 10, "{selection:?}");
            let want: Vec<f64> = ids
                .iter()
                .map(|&id| if dist[id] >= 0.0 { 1.0 } else { -1.0 })
                .collect();
            assert_eq!(init, want, "{selection:?}");
            assert!(want.contains(&1.0) && want.contains(&-1.0), "{selection:?}");
        }
    }

    #[test]
    fn beats_or_matches_rf_svm_with_clean_log() {
        let (ds, log) = setup(0.0, 60);
        let proto = QueryProtocol {
            n_queries: 8,
            n_labeled: 10,
            seed: 13,
        };
        let lrf = Scheme::new(SchemeKind::LrfCsvm, small_config());
        let rf = Scheme::new(SchemeKind::RfSvm, LrfConfig::default());
        let mut p_lrf = 0.0;
        let mut p_rf = 0.0;
        let queries = proto.sample_queries(&ds.db);
        for &q in &queries {
            let example = proto.feedback_example(&ds.db, q);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let rel = |id: usize| ds.db.same_category(id, q);
            p_lrf += precision_at(&lrf.rank(&ctx), rel, 12);
            p_rf += precision_at(&rf.rank(&ctx), rel, 12);
        }
        assert!(
            p_lrf >= p_rf,
            "coupled SVM should not lose to content-only: {p_lrf} vs {p_rf}"
        );
    }

    #[test]
    fn empty_log_still_produces_valid_ranking() {
        let ds = CorelDataset::build(CorelSpec::tiny(3, 6, 4));
        let log = LogStore::new(ds.db.len());
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 6,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 1);
        let ranked = Scheme::new(SchemeKind::LrfCsvm, small_config()).rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        });
        assert_eq!(ranked.len(), ds.db.len());
    }

    #[test]
    fn tiny_database_clamps_pool() {
        // Database smaller than n_unlabeled + labeled: pool must clamp.
        let ds = CorelDataset::build(CorelSpec::tiny(2, 5, 6));
        let log = LogStore::new(ds.db.len());
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 6,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 0);
        let cfg = LrfConfig {
            n_unlabeled: 100,
            ..small_config()
        };
        let out = run_lrf_csvm(
            &cfg,
            &QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            },
        );
        assert_eq!(out.unlabeled_ids.len(), ds.db.len() - 6);
    }

    #[test]
    fn a_capped_anneal_solve_marks_the_round_nonconverged() {
        // At a cap of 20 SMO iterations both step-1 solves converge, but
        // a solve inside the anneal does not: the round must say so.
        let (ds, log) = setup(0.1, 20);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 7);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let universe: Vec<usize> = (0..ds.db.len()).collect();
        for (max_iter, converged) in [(20, false), (100_000, true)] {
            let mut cfg = small_config();
            cfg.coupled.smo.max_iter = max_iter;
            let (_, content0) = content_fit(&cfg, &ds.db, &example.labeled);
            let (_, log0) = log_fit(&cfg, &log, &example.labeled);
            assert!(content0.stats.converged && log0.stats.converged);
            let mut warm = WarmState::default();
            let fit = fit_on(&cfg, &ctx, &universe, &mut warm);
            let diag = warm.last.expect("the fit records its diagnostics");
            assert_eq!(diag.converged, converged, "max_iter {max_iter}");
            // Every solve is counted: two step-1 solves and two per retrain.
            assert!(
                diag.iterations > 2 * fit.outcome.report.retrains,
                "{diag:?}"
            );
        }
    }

    #[test]
    fn random_selection_is_deterministic_per_query() {
        let (ds, log) = setup(0.0, 10);
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let example = proto.feedback_example(&ds.db, 2);
        let cfg = LrfConfig {
            selection: UnlabeledSelection::Random,
            ..small_config()
        };
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        let a = run_lrf_csvm(&cfg, &ctx).unlabeled_ids;
        let b = run_lrf_csvm(&cfg, &ctx).unlabeled_ids;
        assert_eq!(a, b);
    }
}
