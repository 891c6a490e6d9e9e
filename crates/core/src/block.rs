//! A session's kernel rows over its universe: one block per view, and
//! the one place a served fit evaluates a kernel value.
//!
//! Fig. 1 trains on the round's labeled images and `N'` pool and scores
//! the round's universe — the pool plus every judged id it lacks — twice
//! per view: step 1's labeled-only machines pick the unlabeled pool, and
//! the coupled machines rank. Every training image is a universe member,
//! so each view keeps, for every image id `x` a fit has needed, the row
//! `K(x, u)` over every `u` of the universe, in universe order:
//!
//! * **Training.** Each view's SMO row store is built with its rows
//!   ([`lrf_svm::KernelCache::served`]): step 1's with the labeled
//!   images' rows restricted to the training columns, LRF-CSVM's anneal
//!   store with the labeled images' and the `N'` pool's. A served store
//!   evaluates no kernel, so no Gram value is evaluated once for the
//!   solver and again for the score.
//! * **Scoring.** A score reads the bias plus `coef · row` per support
//!   vector, in support order: the additions
//!   [`lrf_svm::SvmModel::decision_batch`] makes, over the values
//!   [`lrf_svm::Kernel::block`] gives, so every score is that model's bit
//!   for bit, and no model is built to get it. The support vectors are
//!   training images, so the final score finds every row resident.
//!
//! Every value is one [`Kernel::block`] gives, which has the bits of
//! [`Kernel::compute`]; every kernel here is symmetric at the IEEE level,
//! so a row served as `K(x_i, ·)` is the row the store would compute.
//!
//! The rows outlive the round in the session's [`crate::WarmState`]:
//!
//! * content rows never go stale (the database does not change);
//! * log rows are computed at one snapshot of the log, tagged with its
//!   [`lrf_logdb::LogStore::n_sessions`]. When that count grows, the
//!   sessions recorded since judged a few images: only their log vectors
//!   changed, and `‖r_a − r_b‖²` depends on nothing but `nnz_a`, `nnz_b`
//!   and `r_a·r_b`. Their rows are dropped and their columns recomputed in
//!   the other rows, in one block call. A count that moves backward (a
//!   different log) drops every log row;
//! * when a mark adds an id to the universe, resident rows gain its
//!   column, each value `K(row image, new image)`; any other change of the
//!   universe drops every row.
//!
//! Rows missing from a view are computed in one [`Kernel::block`] call,
//! so the log kernel makes one session-major overlap pass over them. Each
//! view counts the kernel values it evaluates (row fills and column
//! patches) for [`RoundDiagnostics::kernel_evals`].

use crate::config::LrfConfig;
use crate::feedback::{pool_scores, QueryContext, RoundDiagnostics, ScorerRef, WarmState};
use crate::kernels::LogRbfKernel;
use crate::pooled::candidate_pool;
use lrf_logdb::SparseVector;
use lrf_svm::{Dual, Kernel, KernelCache, RbfKernel};
use std::collections::{BTreeMap, BTreeSet};

/// A round's duals per view, `[content, log]` (the log one absent for
/// RF-SVM).
pub(crate) type Duals<'d> = [Option<&'d Dual>; 2];

/// One view of a round, `(v, kernel, C, sample)`: its place in
/// `[content, log]`, its kernel, its bound `C`, and the sample of an image
/// id (the paper's `x_i` or `r_i`). The view's blocks and its row stores
/// both read them here, so a store is served the rows of its own kernel.
pub(crate) struct View<'a, S: ?Sized, K>(usize, K, f64, fn(&QueryContext<'a>, usize) -> &'a S);

impl<'a, S: ?Sized + ToOwned, K: Kernel<S> + Copy> View<'a, S, K> {
    fn samples(&self, ctx: &QueryContext<'a>, ids: &[usize]) -> Vec<&'a S> {
        ids.iter().map(|&id| (self.3)(ctx, id)).collect()
    }

    /// The block `K(rows[i], cols[j])` over image ids, row-major, from
    /// one [`Kernel::block`] call.
    fn block(&self, ctx: &QueryContext<'a>, rows: &[usize], cols: &[usize]) -> Vec<f64> {
        Kernel::block(&self.1, &self.samples(ctx, rows), &self.samples(ctx, cols))
    }

    /// Step 1's SVM over the round's labeled images (borrowed; no sample
    /// is cloned): solved in a store the blocks serve, seeded with the
    /// last round's alphas (the labeled set grows by appending, so the
    /// seed prefix-maps onto this round's samples).
    pub(crate) fn fit(&self, r: &Round<'a>, warm: &mut WarmState) -> Dual {
        let ids: Vec<usize> = r.ctx.example.labeled.iter().map(|&(id, _)| id).collect();
        let (bounds, seed) = (vec![self.2; ids.len()], warm.seeds[self.0].as_deref());
        (self.store(r, &mut warm.blocks, &ids))
            .solve(&r.ctx.labels(), &bounds, &r.cfg.coupled.smo, seed)
            // lrf-lint: allow(service-panic): a request's fit comes through
            // `rank_candidates`, which skips an empty round, for a `Scheme`
            // whose `new` ran `LrfConfig::validate` (positive bounds and
            // kernel widths); the labels are ±1, one per sample; database
            // features are finite and log entries ±1
            .expect("SVM training cannot fail on validated feedback rounds")
    }

    /// A row store over the images `ids` (universe members), served
    /// every row from `blocks`: each image's row at the universe
    /// positions of `ids`, the rows missing computed first.
    pub(crate) fn store(
        &self,
        r: &Round<'a>,
        blocks: &mut Blocks,
        ids: &[usize],
    ) -> KernelCache<'a, S, K> {
        blocks.ensure(r, self.0, ids.iter().copied());
        let at = |id| blocks.universe.iter().position(|u| u == id);
        let at: Option<Vec<usize>> = ids.iter().map(at).collect();
        // lrf-lint: allow(service-panic): every training image is a
        // universe member: `Blocks::align` takes the pool plus the judged
        // ids it lacks, and LRF-CSVM draws its `N'` pool from it
        let at = at.expect("every training image in the universe");
        let rows = ids.iter().map(|id| &blocks.views[self.0].rows[id]);
        let rows = rows.map(|row| at.iter().map(|&p| row[p]).collect());
        KernelCache::new(self.1, self.samples(&r.ctx, ids)).served(rows.collect())
    }
}

/// What one round's fit reads: the configuration, the round's context,
/// and its two views.
pub(crate) struct Round<'a> {
    pub(crate) cfg: &'a LrfConfig,
    pub(crate) ctx: QueryContext<'a>,
    pub(crate) content: View<'a, [f64], RbfKernel>,
    pub(crate) log: View<'a, SparseVector, LogRbfKernel>,
}

impl<'a> Round<'a> {
    pub(crate) fn new(cfg: &'a LrfConfig, ctx: &QueryContext<'a>) -> Self {
        let (ctx, c, kernel) = (*ctx, &cfg.coupled, cfg.content_kernel());
        Self {
            cfg,
            ctx,
            content: View(0, kernel, c.c_content, |x, id| x.db.feature(id)),
            log: View(1, cfg.log_kernel, c.c_log, |x, id| x.log.log_vector(id)),
        }
    }
}

/// One view's rows, keyed by image id (ordered, so a block over the
/// resident rows is built the same way every run), and its round's work.
#[derive(Clone, Debug, Default)]
struct Rows {
    rows: BTreeMap<usize, Vec<f64>>,
    /// Since the round began: rows computed, rows found resident, and
    /// kernel values evaluated (rows and column patches).
    tally: [u64; 3],
}

/// Both views' rows over a session's universe, carried between rounds.
#[derive(Clone, Debug, Default)]
pub(crate) struct Blocks {
    universe: Vec<usize>,
    /// `[content, log]`.
    views: [Rows; 2],
    /// [`lrf_logdb::LogStore::n_sessions`] of the snapshot the log rows
    /// were computed at.
    log_epoch: usize,
}

impl Blocks {
    /// Begins an SVM scheme's round over `pool` at the log snapshot of
    /// `r`, and returns its universe: the pool plus the judged ids it
    /// lacks, so every training image is a universe member (the pool
    /// stays the prefix; a scorer keeps the pool's scores). Brings the log
    /// rows up to the snapshot (see the module docs), gives every resident
    /// row the columns of ids appended to the universe (or drops every row
    /// when the universe changed otherwise), and zeroes the round's counts.
    pub(crate) fn align(&mut self, r: &Round<'_>, pool: &[usize]) -> Vec<usize> {
        let universe = candidate_pool(pool.to_vec(), &r.ctx.example.labeled);
        let (log, old) = (r.ctx.log, self.universe.len());
        // Only what the log rows need: a fresh session has none to keep.
        let recorded = self.log_epoch..log.n_sessions();
        let recorded = recorded.filter(|_| !self.views[1].rows.is_empty());
        let judged = recorded.flat_map(|s| log.session(s).iter());
        let judged: BTreeSet<usize> = judged.map(|(id, _)| id).collect();
        let stale = (0..old).filter(|&p| judged.contains(&self.universe[p]));
        let stale: Vec<usize> = stale.collect();
        if !universe.starts_with(&self.universe) {
            self.views = Default::default();
        } else if log.n_sessions() < self.log_epoch {
            self.views[1] = Rows::default();
        }
        self.views.iter_mut().for_each(|rows| rows.tally = [0; 3]);
        self.views[1].rows.retain(|id, _| !judged.contains(id));
        let tail: Vec<usize> = (old..universe.len()).collect();
        (self.universe, self.log_epoch) = (universe, log.n_sessions());
        for (v, at) in [(1, &stale), (0, &tail), (1, &tail)] {
            let ids: Vec<usize> = self.views[v].rows.keys().copied().collect();
            self.fill(r, v, &ids, at);
        }
        self.universe.clone()
    }

    /// Sets `K(x, u)` at each universe position `p` of `at` (`u` the id
    /// there) in view `v`'s row of each `x` of `ids` (a new row starts
    /// empty), from one block call.
    fn fill(&mut self, r: &Round<'_>, v: usize, ids: &[usize], at: &[usize]) {
        if ids.is_empty() || at.is_empty() {
            return;
        }
        let cols: Vec<usize> = at.iter().map(|&p| self.universe[p]).collect();
        let block = match v {
            0 => r.content.block(&r.ctx, ids, &cols),
            _ => r.log.block(&r.ctx, ids, &cols),
        };
        let len = self.universe.len();
        self.views[v].tally[2] += block.len() as u64;
        for (&id, values) in ids.iter().zip(block.chunks_exact(at.len())) {
            let row = self.views[v].rows.entry(id).or_default();
            row.resize(len, 0.0);
            at.iter().zip(values).for_each(|(&p, &k)| row[p] = k);
        }
    }

    /// Computes the rows of `ids` view `v` lacks over the universe, in one
    /// block call, and counts them and the rows found.
    fn ensure(&mut self, r: &Round<'_>, v: usize, ids: impl Iterator<Item = usize>) {
        let rows = &mut self.views[v];
        let (found, missing): (Vec<_>, Vec<_>) = ids.partition(|id| rows.rows.contains_key(id));
        rows.tally[0] += missing.len() as u64;
        rows.tally[1] += found.len() as u64;
        let all: Vec<usize> = (0..self.universe.len()).collect();
        self.fill(r, v, &missing, &all);
    }

    /// The decision values over the universe of the content machine of
    /// `duals[0]`, plus the log machine of `duals[1]` when there is one
    /// (the paper's `f_w + f_u`); both were solved over the images of
    /// `samples`, with their labels, in that order. Per view: the bias
    /// plus `coef · row` per support vector, in support order, the rows
    /// missing computed first.
    pub(crate) fn scores(&mut self, r: &Round, samples: &[(usize, f64)], duals: Duals) -> Vec<f64> {
        let labels: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let mut read = |v: usize, dual: &Dual| -> Vec<f64> {
            let (bias, support) = dual.expansion(&labels);
            self.ensure(r, v, support.iter().map(|&(i, _)| samples[i].0));
            let mut out = vec![bias; self.universe.len()];
            for (i, coef) in support {
                let row = &self.views[v].rows[&samples[i].0];
                out.iter_mut().zip(row).for_each(|(f, &k)| *f += coef * k);
            }
            out
        };
        let f = (0..2).filter_map(|v| Some(read(v, duals[v]?)));
        let sum = |f_w: Vec<f64>, f_u: Vec<f64>| f_w.iter().zip(&f_u).map(|(c, l)| c + l).collect();
        f.reduce(sum).unwrap_or_default()
    }

    /// `(rows computed, rows found resident)` since the round began, both
    /// views, and the kernel values each view evaluated, `[content, log]`.
    fn tally(&self) -> ((u64, u64), [u64; 2]) {
        let [c, l] = [self.views[0].tally, self.views[1].tally];
        ((c[0] + l[0], c[1] + l[1]), [c[2], l[2]])
    }
}

impl WarmState {
    /// Ends the round: `d` (its solves) with step 1's solves and the
    /// blocks' counts becomes the round's diagnostics, and the final
    /// duals' alphas over the `n` labeled images the next round's seeds.
    pub(crate) fn finish(&mut self, mut d: RoundDiagnostics, [step1, duals]: [Duals; 2], n: usize) {
        step1
            .iter()
            .flatten()
            .for_each(|dual| d.absorb(&dual.stats));
        (d.block_rows, d.kernel_evals) = self.blocks.tally();
        self.seeds = duals.map(|dual| dual.map(|dual| dual.alpha[..n].to_vec()));
        self.last = Some(d);
    }

    /// The round of a scheme that ranks by step 1's machines: RF-SVM's
    /// content SVM, plus LRF-2SVMs' log SVM when `log` (the sum
    /// `f_w + f_u`), scored over the pool.
    pub(crate) fn summed_round(&mut self, r: &Round<'_>, pool: &[usize], log: bool) -> ScorerRef {
        let labeled = &r.ctx.example.labeled;
        self.blocks.align(r, pool);
        let content = r.content.fit(r, self);
        let log = log.then(|| r.log.fit(r, self));
        let duals = [Some(&content), log.as_ref()];
        let scores = self.blocks.scores(r, labeled, duals);
        self.finish(RoundDiagnostics::all_converged(), [duals; 2], labeled.len());
        pool_scores(pool, scores)
    }
}

/// Step 1's content SVM with no row blocks: a store over the `labeled`
/// images' features that computes its own rows, and the dual solved in
/// it, cold. The tests hold the served fits to it.
#[cfg(test)]
pub(crate) fn content_fit<'a>(
    cfg: &LrfConfig,
    db: &'a lrf_cbir::ImageDatabase,
    labeled: &[(usize, f64)],
) -> (KernelCache<'a, [f64], RbfKernel>, Dual) {
    let samples = labeled.iter().map(|&(id, _)| db.feature(id)).collect();
    let mut store = KernelCache::new(cfg.content_kernel(), samples);
    let labels: Vec<f64> = labeled.iter().map(|&(_, y)| y).collect();
    let bounds = vec![cfg.coupled.c_content; labels.len()];
    let dual = store
        .solve(&labels, &bounds, &cfg.coupled.smo, None)
        .unwrap();
    (store, dual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoupledConfig;
    use crate::coupled::CoupledOutcome;
    use crate::feedback::WarmState;
    use crate::lrf_csvm::fit_on;
    use crate::pooled::candidate_pool;
    use lrf_cbir::{FeedbackExample, ImageDatabase};
    use lrf_logdb::{LogSession, LogStore, Relevance};
    use lrf_svm::KernelCache;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A random two-view problem over `n` images: 4-D features, and a log
    /// of `sessions` random screens.
    fn problem(rng: &mut StdRng, n: usize, sessions: usize) -> (ImageDatabase, LogStore) {
        let features = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let db = ImageDatabase::from_features(features, vec![0; n]);
        let mut log = LogStore::new(n);
        for _ in 0..sessions {
            log.record(screen(rng, n));
        }
        (db, log)
    }

    /// One random session: six distinct images, each judged either way.
    fn screen(rng: &mut StdRng, n: usize) -> LogSession {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        let judged = ids[..6].iter().map(|&id| {
            let relevance = Relevance::from_bool(rng.gen_bool(0.5));
            (id, relevance)
        });
        LogSession::new(judged.collect())
    }

    /// `f_w + f_u` over `universe` from the final machines of `outcome`,
    /// built as models over `samples` and scored by `decision_batch`.
    fn model_scores(
        cfg: &LrfConfig,
        ctx: &QueryContext<'_>,
        samples: &[(usize, f64)],
        outcome: &CoupledOutcome,
        universe: &[usize],
    ) -> Vec<f64> {
        let labels: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
        let features = |ids: &mut dyn Iterator<Item = usize>| -> Vec<&[f64]> {
            ids.map(|id| ctx.db.feature(id)).collect()
        };
        let vectors = |ids: &mut dyn Iterator<Item = usize>| -> Vec<_> {
            ids.map(|id| ctx.log.log_vector(id)).collect()
        };
        let content = KernelCache::new(
            cfg.content_kernel(),
            features(&mut samples.iter().map(|s| s.0)),
        )
        .machine(outcome.content.clone(), &labels)
        .model;
        let log = KernelCache::new(cfg.log_kernel, vectors(&mut samples.iter().map(|s| s.0)))
            .machine(outcome.log.clone(), &labels)
            .model;
        let f_w = content.decision_batch(&features(&mut universe.iter().copied()));
        let f_u = log.decision_batch(&vectors(&mut universe.iter().copied()));
        f_w.iter().zip(&f_u).map(|(c, l)| c + l).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn config() -> LrfConfig {
        LrfConfig {
            n_unlabeled: 6,
            coupled: CoupledConfig {
                rho_init: 0.01,
                ..CoupledConfig::default()
            },
            ..LrfConfig::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Several LRF-CSVM rounds in one session's blocks — marks
        /// appended, some from outside the pool (the universe grows), the
        /// log recording a session between some rounds (its epoch moves)
        /// — score exactly what the final machines' `decision_batch`
        /// scores, every round. A round computes only the rows its blocks
        /// lack: content rows are never recomputed, and after an epoch
        /// move only the log rows of the images the new session judged
        /// are. Each view's kernel values are exactly those rows over the
        /// universe plus the columns patched into the rows it kept.
        #[test]
        fn block_scores_are_the_final_models_scores_every_round(
            seed in 0u64..10_000,
            rounds in 2usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 40;
            let (db, mut log) = problem(&mut rng, n, 30);
            let cfg = config();
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let pool = order[..24].to_vec();
            order.shuffle(&mut rng);
            let mut marks = order.into_iter();
            let mut labeled = Vec::new();
            let mut warm = WarmState::default();
            for round in 0..rounds {
                for id in marks.by_ref().take(3) {
                    labeled.push((id, if labeled.len() % 2 == 0 { 1.0 } else { -1.0 }));
                }
                let moved = round > 0 && rng.gen_bool(0.5);
                let mut touched = BTreeSet::new();
                if moved {
                    let session = screen(&mut rng, n);
                    touched.extend(session.iter().map(|(id, _)| id));
                    log.record(session);
                }
                let example = FeedbackExample { query: pool[0], labeled: labeled.clone() };
                let ctx = QueryContext { db: &db, log: &log, example: &example };
                let universe = candidate_pool(pool.clone(), &labeled);
                let before = warm.blocks.clone();
                let fit = fit_on(&cfg, &ctx, &universe, &mut warm);

                let pseudo = fit.unlabeled_ids.iter().copied();
                let finals = fit.outcome.report.final_labels.iter().copied();
                let samples: Vec<(usize, f64)> =
                    labeled.iter().copied().chain(pseudo.zip(finals)).collect();
                let want = model_scores(&cfg, &ctx, &samples, &fit.outcome, &universe);
                prop_assert_eq!(bits(&fit.scores), bits(&want), "round {}", round);

                // Per view: the rows kept from the last round, the rows
                // computed now (new ones, and the log rows the new session
                // invalidated), and the universe positions patched.
                let (u, tail) = (universe.len(), universe.len() - before.universe.len());
                let stale = before.universe.iter().filter(|id| touched.contains(id)).count();
                for (was, now, stale) in [
                    (&before.views[0], &warm.blocks.views[0], 0),
                    (&before.views[1], &warm.blocks.views[1], stale),
                ] {
                    let drop = |id: &&usize| stale > 0 && touched.contains(*id);
                    let kept: Vec<&usize> = was.rows.keys().filter(|id| !drop(id)).collect();
                    let all_kept = kept.iter().all(|id| now.rows.contains_key(*id));
                    prop_assert!(all_kept, "round {} dropped a valid row", round);
                    let fresh = now.rows.keys().filter(|id| !was.rows.contains_key(*id) || drop(id));
                    let fresh = fresh.count() as u64;
                    prop_assert_eq!(now.tally[0], fresh, "round {}", round);
                    let evals = fresh * u as u64 + (kept.len() * (stale + tail)) as u64;
                    prop_assert_eq!(now.tally[2], evals, "round {}", round);
                }
                let diag = warm.last.expect("the fit records its diagnostics");
                prop_assert_eq!((diag.block_rows, diag.kernel_evals), warm.blocks.tally());
            }
        }
    }

    /// Each view's step-1 fit, solved in a store the blocks serve, is the
    /// solve of a store over the same images that computes its own rows,
    /// in every bit: the blocks serve each store its own kernel's rows.
    #[test]
    fn served_fits_solve_like_stores_that_compute_their_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        let (db, log) = problem(&mut rng, 30, 20);
        let cfg = config();
        let labeled: Vec<(usize, f64)> = (0..8).map(|i| (3 * i, [1.0, -1.0][i % 2])).collect();
        let example = FeedbackExample {
            query: 0,
            labeled: labeled.clone(),
        };
        let ctx = QueryContext {
            db: &db,
            log: &log,
            example: &example,
        };
        let (r, mut warm) = (Round::new(&cfg, &ctx), WarmState::default());
        let pool: Vec<usize> = (0..30).rev().collect();
        warm.blocks.align(&r, &pool);
        let got = [r.content.fit(&r, &mut warm), r.log.fit(&r, &mut warm)];

        let (y, smo, c) = (ctx.labels(), &cfg.coupled.smo, cfg.coupled);
        let ids = labeled.iter().map(|l| l.0);
        let features = ids.clone().map(|id| db.feature(id)).collect();
        let mut content = KernelCache::new(cfg.content_kernel(), features);
        let vectors = ids.map(|id| log.log_vector(id)).collect();
        let mut logs = KernelCache::new(cfg.log_kernel, vectors);
        let want = [
            content.solve(&y, &vec![c.c_content; y.len()], smo, None),
            logs.solve(&y, &vec![c.c_log; y.len()], smo, None),
        ];
        for (got, want) in got.iter().zip(want) {
            let want = want.unwrap();
            assert_eq!(bits(&got.alpha), bits(&want.alpha));
            let (bias, support) = got.expansion(&y);
            let (want_bias, want_support) = want.expansion(&y);
            assert_eq!(bias.to_bits(), want_bias.to_bits());
            assert_eq!(support.len(), want_support.len());
            assert_eq!(got.stats.iterations, want.stats.iterations);
            assert_eq!(got.stats.cache_misses, 0);
        }
    }

    /// A universe that is not the last one plus appended ids drops every
    /// row: the rebuilt block scores what the first one did.
    #[test]
    fn a_reordered_universe_rebuilds_the_blocks() {
        let mut rng = StdRng::seed_from_u64(7);
        let (db, log) = problem(&mut rng, 20, 10);
        let cfg = config();
        let labeled = [(3, 1.0), (8, -1.0), (11, 1.0), (15, -1.0)];
        let example = FeedbackExample {
            query: 3,
            labeled: labeled.to_vec(),
        };
        let ctx = QueryContext {
            db: &db,
            log: &log,
            example: &example,
        };
        let dual = content_fit(&cfg, &db, &labeled).1;
        let universe: Vec<usize> = (0..20).collect();
        let (mut blocks, r) = (Blocks::default(), Round::new(&cfg, &ctx));
        blocks.align(&r, &universe);
        let first = blocks.scores(&r, &labeled, [Some(&dual), None]);
        let rows = blocks.views[0].rows.len() as u64;
        assert!(rows > 0);
        assert_eq!(blocks.tally().0, (rows, 0));
        let reversed: Vec<usize> = universe.iter().rev().copied().collect();
        blocks.align(&r, &reversed);
        assert!(blocks.views[0].rows.is_empty() && blocks.views[1].rows.is_empty());
        let again = blocks.scores(&r, &labeled, [Some(&dual), None]);
        assert_eq!(blocks.tally().0, (rows, 0));
        let back: Vec<f64> = again.iter().rev().copied().collect();
        assert_eq!(bits(&back), bits(&first));
        // The same universe again: every row is carried.
        blocks.align(&r, &reversed);
        assert_eq!(
            bits(&blocks.scores(&r, &labeled, [Some(&dual), None])),
            bits(&again)
        );
        assert_eq!(blocks.tally().0, (0, rows));
    }
}
