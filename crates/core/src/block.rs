//! A session's kernel rows over its universe: one block per view.
//!
//! Fig. 1 scores the round's universe — the pool plus every judged id it
//! lacks — twice per view: step 1's labeled-only machines pick the
//! unlabeled pool, and the coupled machines rank. Both are kernel
//! expansions over support vectors, and the coupled machines' support
//! vectors are the labeled images plus the `N'` pool. So each view keeps,
//! for every image id `x` a score has needed as a support vector, the row
//! `K(x, u)` over every `u` of the universe, in universe order. A score
//! reads it as the bias plus `coef · row` per support vector, in support
//! order: the additions [`lrf_svm::SvmModel::decision_batch`] makes, over
//! the values [`lrf_svm::Kernel::block`] gives, so every score is that
//! model's bit for bit, and no model is built to get it.
//!
//! The rows outlive the round in the session's [`crate::WarmState`]:
//!
//! * content rows never go stale (the database does not change);
//! * log rows are computed at one snapshot of the log, tagged with its
//!   [`lrf_logdb::LogStore::n_sessions`], and dropped when that count
//!   moves (the log only grows by recording sessions);
//! * when a mark adds an id to the universe, resident rows gain its column
//!   (as [`lrf_svm::KernelCache::extend`] does); any other change of the
//!   universe drops every row.
//!
//! Rows missing from a view are computed in one [`lrf_svm::Kernel::block`]
//! call, so the log kernel makes one session-major overlap pass over them.

use crate::config::LrfConfig;
use crate::feedback::QueryContext;
use lrf_svm::{Dual, Kernel};
use std::collections::BTreeMap;

/// One view's rows, keyed by image id (ordered, so a block over the
/// resident rows is built the same way every run).
#[derive(Clone, Debug, Default)]
struct Rows(BTreeMap<usize, Vec<f64>>);

/// Both views' rows over a session's universe, carried between rounds.
#[derive(Clone, Debug, Default)]
pub(crate) struct Blocks {
    universe: Vec<usize>,
    content: Rows,
    log: Rows,
    /// [`lrf_logdb::LogStore::n_sessions`] of the snapshot the log rows
    /// were computed at.
    log_epoch: usize,
    /// `(rows computed, rows a score found resident)` since the round
    /// began, both views.
    pub(crate) round: (u64, u64),
}

impl Blocks {
    /// Begins a round over `universe` at `ctx.log`'s snapshot: drops the
    /// log rows if the log has grown, gives every resident row the
    /// columns of ids appended to the universe (or drops every row when
    /// the universe changed otherwise), and zeroes the round's counts.
    pub(crate) fn align(&mut self, cfg: &LrfConfig, ctx: &QueryContext<'_>, universe: &[usize]) {
        if ctx.log.n_sessions() != self.log_epoch {
            self.log.0.clear();
            self.log_epoch = ctx.log.n_sessions();
        }
        match universe.strip_prefix(&self.universe[..]) {
            Some(tail) => {
                let (feature, vector) = (|id| ctx.db.feature(id), |id| ctx.log.log_vector(id));
                let ids = |rows: &Rows| -> Vec<usize> { rows.0.keys().copied().collect() };
                let (content, log) = (ids(&self.content), ids(&self.log));
                self.content
                    .fill(&cfg.content_kernel(), feature, &content, tail);
                self.log.fill(&cfg.log_kernel, vector, &log, tail);
            }
            None => {
                self.content.0.clear();
                self.log.0.clear();
            }
        }
        self.universe = universe.to_vec();
        self.round = (0, 0);
    }

    /// The decision values over the universe of the content machine of
    /// `content`, plus the log machine of `log` when there is one (the
    /// paper's `f_w + f_u`); both duals were solved over the images of
    /// `samples`, with their labels, in that order.
    pub(crate) fn scores(
        &mut self,
        cfg: &LrfConfig,
        ctx: &QueryContext<'_>,
        samples: &[(usize, f64)],
        (content, log): (&Dual, Option<&Dual>),
    ) -> Vec<f64> {
        let (feature, vector) = (|id| ctx.db.feature(id), |id| ctx.log.log_vector(id));
        let (u, r) = (&self.universe, &mut self.round);
        let f_w = self
            .content
            .read(r, &cfg.content_kernel(), feature, u, content, samples);
        let Some(log) = log else { return f_w };
        let f_u = self.log.read(r, &cfg.log_kernel, vector, u, log, samples);
        f_w.iter().zip(&f_u).map(|(c, l)| c + l).collect()
    }
}

impl Rows {
    /// Appends `K(x, c)` for every `c` of `cols` to the row of each `x` of
    /// `ids` (a new row starts empty), from one block call.
    fn fill<'s, S, K>(
        &mut self,
        kernel: &K,
        sample: impl Fn(usize) -> &'s S,
        ids: &[usize],
        cols: &[usize],
    ) where
        S: ?Sized + 's,
        K: Kernel<S>,
    {
        if ids.is_empty() || cols.is_empty() {
            return;
        }
        let samples = |ids: &[usize]| -> Vec<&S> { ids.iter().map(|&id| sample(id)).collect() };
        let block = kernel.block(&samples(ids), &samples(cols));
        for (&id, values) in ids.iter().zip(block.chunks_exact(cols.len())) {
            self.0.entry(id).or_default().extend_from_slice(values);
        }
    }

    /// `b + Σ coef · K(x, u)` for every `u` of `universe`, support vectors
    /// in order, for the machine of `dual` (solved over `samples`). The
    /// rows missing are computed first; `round` counts the rows computed
    /// and the rows found.
    fn read<'s, S, K>(
        &mut self,
        round: &mut (u64, u64),
        kernel: &K,
        sample: impl Fn(usize) -> &'s S,
        universe: &[usize],
        dual: &Dual,
        samples: &[(usize, f64)],
    ) -> Vec<f64>
    where
        S: ?Sized + 's,
        K: Kernel<S>,
    {
        let labels: Vec<f64> = samples.iter().map(|&(_, y)| y).collect();
        let (bias, support) = dual.expansion(&labels);
        let ids = support.iter().map(|&(i, _)| samples[i].0);
        let missing: Vec<usize> = ids.filter(|id| !self.0.contains_key(id)).collect();
        round.0 += missing.len() as u64;
        round.1 += (support.len() - missing.len()) as u64;
        self.fill(kernel, sample, &missing, universe);
        let mut out = vec![bias; universe.len()];
        for (i, coef) in support {
            let row = self.0.get(&samples[i].0).map_or(&[][..], Vec::as_slice);
            for (f, &k) in out.iter_mut().zip(row) {
                *f += coef * k;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoupledConfig;
    use crate::coupled::CoupledOutcome;
    use crate::feedback::WarmState;
    use crate::lrf_csvm::LrfCsvm;
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
        /// move every log row is.
        #[test]
        fn block_scores_are_the_final_models_scores_every_round(
            seed in 0u64..10_000,
            rounds in 2usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 40;
            let (db, mut log) = problem(&mut rng, n, 30);
            let cfg = config();
            let scheme = LrfCsvm::new(cfg);
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
                if moved {
                    log.record(screen(&mut rng, n));
                }
                let example = FeedbackExample { query: pool[0], labeled: labeled.clone() };
                let ctx = QueryContext { db: &db, log: &log, example: &example };
                let universe = candidate_pool(pool.clone(), &labeled);
                let before = warm.blocks.clone();
                let fit = scheme.fit_on(&ctx, &universe, &mut warm);

                let pseudo = fit.unlabeled_ids.iter().copied();
                let finals = fit.outcome.report.final_labels.iter().copied();
                let samples: Vec<(usize, f64)> =
                    labeled.iter().copied().chain(pseudo.zip(finals)).collect();
                let want = model_scores(&cfg, &ctx, &samples, &fit.outcome, &universe);
                prop_assert_eq!(bits(&fit.scores), bits(&want), "round {}", round);

                // Rows are only ever added, so a round's computed rows are
                // its new ones: no content row is recomputed, and after an
                // epoch move every log row is.
                let (content, logside) = (&warm.blocks.content, &warm.blocks.log);
                let kept = before.content.0.keys().all(|id| content.0.contains_key(id));
                prop_assert!(kept, "round {} dropped a content row", round);
                let fresh_log = if moved { 0 } else { before.log.0.len() };
                let fresh = content.0.len() - before.content.0.len() + logside.0.len() - fresh_log;
                prop_assert_eq!(warm.blocks.round.0 as usize, fresh, "round {}", round);
                let diag = warm.last.expect("the fit records its diagnostics");
                prop_assert_eq!((diag.rows_computed, diag.rows_carried), warm.blocks.round);
            }
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
        let dual = crate::rf_svm::content_fit(&cfg, &db, &labeled, None).1;
        let universe: Vec<usize> = (0..20).collect();
        let mut blocks = Blocks::default();
        blocks.align(&cfg, &ctx, &universe);
        let first = blocks.scores(&cfg, &ctx, &labeled, (&dual, None));
        let rows = blocks.content.0.len() as u64;
        assert!(rows > 0);
        assert_eq!(blocks.round, (rows, 0));
        let reversed: Vec<usize> = universe.iter().rev().copied().collect();
        blocks.align(&cfg, &ctx, &reversed);
        assert!(blocks.content.0.is_empty() && blocks.log.0.is_empty());
        let again = blocks.scores(&cfg, &ctx, &labeled, (&dual, None));
        assert_eq!(blocks.round, (rows, 0));
        let back: Vec<f64> = again.iter().rev().copied().collect();
        assert_eq!(bits(&back), bits(&first));
        // The same universe again: every row is carried.
        blocks.align(&cfg, &ctx, &reversed);
        assert_eq!(
            bits(&blocks.scores(&cfg, &ctx, &labeled, (&dual, None))),
            bits(&again)
        );
        assert_eq!(blocks.round, (0, rows));
    }
}
