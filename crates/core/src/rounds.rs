//! Resumable feedback rounds — the stateful API the serving plane drives.
//!
//! Every scheme in this crate is a pure function of one
//! [`QueryContext`]: hand it a feedback round, get a ranking. That is the
//! right shape for the evaluation protocol (build the round, rank, score)
//! but the wrong shape for a live session, where judgments arrive one at a
//! time over multiple rounds and each retrain must see *everything the user
//! has said so far*. [`FeedbackLoop`] is the bridge: it accumulates
//! judgments across rounds, validates them (typed errors, no panics — a
//! service must survive bad input), re-derives the scheme's
//! [`FeedbackExample`] on demand, and converts the finished session into a
//! [`LogSession`] for the feedback log — closing the loop the paper
//! describes, where today's sessions become tomorrow's log vectors.
//!
//! Determinism contract: a [`FeedbackLoop`]'s *first* rerank is
//! bit-identical to the one-shot path ([`crate::pooled::rank_candidates`]
//! on the equivalent [`FeedbackExample`]) — same function, empty
//! [`WarmState`] — and the multi-session service asserts exactly this
//! against its serial reference. Later rounds warm-start each retrain from
//! the previous round's dual solution ([`WarmState`]): the solver converges
//! to the same KKT tolerance from a much closer seed, so rankings agree
//! with the cold path up to score ties within `eps`, at a fraction of the
//! iterations.

use crate::config::LrfConfig;
use crate::feedback::{QueryContext, RoundDiagnostics, ScorerRef, WarmState};
use crate::pooled::{candidate_pool, rank_candidates};
use crate::scheme::{Scheme, SchemeKind};
use lrf_cbir::{FeedbackExample, ImageDatabase};
use lrf_logdb::{LogSession, LogStore, Relevance};

/// A rejected judgment — the session stays usable after any of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundError {
    /// The image id is outside the database.
    UnknownImage {
        /// The offending id.
        image: usize,
        /// Database size the session was opened over.
        n_images: usize,
    },
    /// The image was already judged in this session (a session is one
    /// user's screen history; re-judging indicates a client bug).
    DuplicateJudgment {
        /// The re-judged image id.
        image: usize,
    },
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::UnknownImage { image, n_images } => {
                write!(f, "image {image} outside database of {n_images}")
            }
            RoundError::DuplicateJudgment { image } => {
                write!(f, "image {image} already judged in this session")
            }
        }
    }
}

impl std::error::Error for RoundError {}

/// One user's resumable feedback session: accumulated judgments + the
/// scheme that re-ranks on each round.
pub struct FeedbackLoop {
    scheme: Scheme,
    query: usize,
    n_images: usize,
    /// `(image_id, ±1.0)` in mark order — the order the SMO solver sees,
    /// so replaying the same marks reproduces the same model bit-for-bit.
    labeled: Vec<(usize, f64)>,
    rounds: usize,
    /// The session's fit state: the previous round's dual solutions
    /// (marks only append, so the stored alphas prefix-map onto the next
    /// retrain's sample set) and both views' row blocks.
    warm: WarmState,
}

impl FeedbackLoop {
    /// Opens a session for `query` over a database of `n_images`, running
    /// the scheme `kind` under `config`.
    ///
    /// # Panics
    /// Panics if `query >= n_images` (the caller resolves queries against
    /// its own database; an unknown query is a caller bug, unlike the
    /// user-supplied judgments which get typed errors), or if `config`
    /// fails [`LrfConfig::validate`].
    pub fn new(kind: SchemeKind, config: LrfConfig, query: usize, n_images: usize) -> Self {
        assert!(
            query < n_images,
            "query {query} outside database of {n_images}"
        );
        Self {
            scheme: Scheme::new(kind, config),
            query,
            n_images,
            labeled: Vec::new(),
            rounds: 0,
            warm: WarmState::default(),
        }
    }

    /// Completed retrain/re-rank rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of accumulated judgments.
    pub fn n_judged(&self) -> usize {
        self.labeled.len()
    }

    /// The accumulated judgment for `image`, if any (`+1.0` / `−1.0`).
    pub(crate) fn judgment(&self, image: usize) -> Option<f64> {
        self.labeled
            .iter()
            .find(|&&(id, _)| id == image)
            .map(|&(_, y)| y)
    }

    /// Records one judgment. Rejects out-of-range ids and re-judgments with
    /// a typed error; the session state is unchanged on error.
    pub fn mark(&mut self, image: usize, relevant: bool) -> Result<(), RoundError> {
        if image >= self.n_images {
            return Err(RoundError::UnknownImage {
                image,
                n_images: self.n_images,
            });
        }
        if self.judgment(image).is_some() {
            return Err(RoundError::DuplicateJudgment { image });
        }
        self.labeled
            .push((image, if relevant { 1.0 } else { -1.0 }));
        Ok(())
    }

    /// The scheme input equivalent to everything marked so far.
    pub fn example(&self) -> FeedbackExample {
        FeedbackExample {
            query: self.query,
            labeled: self.labeled.clone(),
        }
    }

    /// Retrains on the accumulated judgments and re-ranks the round's
    /// candidate pool: `pool` (the query's nearest ids from the retrieval
    /// front-end, in index order) plus every judged id it lacks, appended
    /// in mark order — the pool [`crate::PooledRetrieval::pool_with_stats`]
    /// builds, through the same function. Returns that pool re-ranked, not
    /// a full-database permutation: the out-of-pool ids trail it in id
    /// order ([`lrf_cbir::ranking_window`]), for a caller that needs them. This
    /// is exactly `rank_candidates` on [`Self::example`] with the session's
    /// [`WarmState`] (the first round bit-identical to a cold one-shot;
    /// warm-started later rounds within the solver tolerance).
    ///
    /// The scheme trains exactly once, here, and its fit scores the pool
    /// from the session's row blocks. `scatter` receives the trained
    /// [`crate::feedback::PoolScorer`] plus the pool and returns decision
    /// scores aligned with the pool; every caller passes
    /// `scorer.score_ids(db, log, ids)`, which reads the fit's values
    /// back. The closure stays only because the benchmark's adapter times
    /// the scoring through it; it goes with that adapter (ROADMAP items 5
    /// and 6).
    ///
    /// Schemes with no trainable decision function (Euclidean) never call
    /// `scatter`; the pool keeps its order.
    ///
    /// # Panics
    /// Panics if `db`/`log` don't cover the session's `n_images`, `pool`
    /// holds an out-of-range id (infrastructure mismatch, not user input),
    /// or `scatter` returns a score vector not aligned with `pool`.
    pub fn rerank_scattered<F>(
        &mut self,
        db: &ImageDatabase,
        log: &LogStore,
        pool: &[usize],
        scatter: F,
    ) -> Vec<usize>
    where
        F: FnOnce(&ScorerRef, &[usize]) -> Vec<f64>,
    {
        assert_eq!(db.len(), self.n_images, "database changed under session");
        let example = self.example();
        let ctx = QueryContext {
            db,
            log,
            example: &example,
        };
        let pool = candidate_pool(pool.to_vec(), &example.labeled);
        let ranking = rank_candidates(&self.scheme, &ctx, &pool, &mut self.warm, scatter);
        self.rounds += 1;
        ranking
    }

    /// Solver diagnostics from the most recent
    /// [`rerank_scattered`](Self::rerank_scattered):
    /// `None` before the first round or for schemes that never train
    /// (Euclidean). A round whose diagnostics say `!converged` hit the
    /// solver's `max_iter` cap or a coupled correction loop's round guard
    /// somewhere — the ranking is still usable but approximate, and a
    /// service should surface it rather than stay silent.
    pub fn last_diagnostics(&self) -> Option<RoundDiagnostics> {
        self.warm.last
    }

    /// The finished session as a feedback-log unit (empty if the user
    /// judged nothing — callers typically skip flushing those).
    pub fn to_log_session(&self) -> LogSession {
        LogSession::new(
            self.labeled
                .iter()
                .map(|&(id, y)| (id, Relevance::from_bool(y > 0.0)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooled::PooledRetrieval;
    use lrf_cbir::{collect_log, CorelDataset, CorelSpec, QueryProtocol};
    use lrf_logdb::SimulationConfig;

    fn setup() -> (CorelDataset, LogStore) {
        let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
        let log = collect_log(
            &ds.db,
            &SimulationConfig {
                n_sessions: 24,
                judged_per_session: 10,
                rounds_per_query: 2,
                noise: 0.1,
                seed: 23,
            },
        );
        (ds, log)
    }

    fn small_config() -> LrfConfig {
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

    /// One round with the scoring done in place.
    fn rerank_in_place(
        fb: &mut FeedbackLoop,
        db: &ImageDatabase,
        log: &LogStore,
        pool: &[usize],
    ) -> Vec<usize> {
        fb.rerank_scattered(db, log, pool, |scorer, ids| scorer.score_ids(db, log, ids))
    }

    /// The stateless path: a cold fit on `ctx`, scored in place.
    fn rank_cold(scheme: &Scheme, ctx: &QueryContext<'_>, pool: &[usize]) -> Vec<usize> {
        rank_candidates(
            scheme,
            ctx,
            pool,
            &mut WarmState::default(),
            |scorer, ids| scorer.score_ids(ctx.db, ctx.log, ids),
        )
    }

    #[test]
    fn scheme_kinds_build_and_name() {
        for kind in SchemeKind::all() {
            let scheme = Scheme::new(kind, small_config());
            assert_eq!(scheme.kind().name(), kind.name());
        }
        assert_eq!(SchemeKind::default(), SchemeKind::LrfCsvm);
    }

    #[test]
    fn loop_reproduces_the_one_shot_path_bit_for_bit() {
        // The determinism contract: marking a protocol round's labels one
        // by one, then reranking, equals the stateless pooled rank on the
        // equivalent FeedbackExample.
        let (ds, log) = setup();
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 8,
            seed: 0,
        };
        let index = lrf_cbir::build_flat_index(&ds.db);
        let pooled = PooledRetrieval::new(&index, ds.db.len());
        for kind in [SchemeKind::RfSvm, SchemeKind::LrfCsvm] {
            let example = proto.feedback_example(&ds.db, 7);
            let mut fb = FeedbackLoop::new(kind, small_config(), 7, ds.db.len());
            for &(id, y) in &example.labeled {
                fb.mark(id, y > 0.0).unwrap();
            }
            assert_eq!(fb.example(), example);
            let ctx = QueryContext {
                db: &ds.db,
                log: &log,
                example: &example,
            };
            let pool = pooled.pool(&ctx);
            let stateful = rerank_in_place(&mut fb, &ds.db, &log, &pool);
            let scheme = Scheme::new(kind, small_config());
            let oneshot = rank_cold(&scheme, &ctx, &pool);
            assert_eq!(stateful, oneshot, "{}", kind.name());
            assert_eq!(fb.rounds(), 1);
        }
    }

    #[test]
    fn warm_rounds_rank_like_the_one_shot_path() {
        // Satellite of the warm-start work: drive multi-round sessions and
        // check every round's ranking against the stateless (cold) ranking
        // on the equivalent accumulated example. Warm starting changes the
        // solver's path to the optimum, not the optimum itself — both runs
        // stop at the same KKT tolerance, so decision values agree within
        // a small multiple of `eps` and the rankings may disagree only
        // where the cold scores are essentially tied.
        let (ds, log) = setup();
        let proto = QueryProtocol {
            n_queries: 1,
            n_labeled: 12,
            seed: 3,
        };
        let pool: Vec<usize> = (0..ds.db.len()).collect();
        for kind in [SchemeKind::RfSvm, SchemeKind::Lrf2Svms, SchemeKind::LrfCsvm] {
            let example = proto.feedback_example(&ds.db, 9);
            let mut fb = FeedbackLoop::new(kind, small_config(), 9, ds.db.len());
            // Three rounds of four marks each.
            for (round, chunk) in example.labeled.chunks(4).enumerate() {
                for &(id, y) in chunk {
                    fb.mark(id, y > 0.0).unwrap();
                }
                let stateful = rerank_in_place(&mut fb, &ds.db, &log, &pool);
                let sofar = fb.example();
                let ctx = QueryContext {
                    db: &ds.db,
                    log: &log,
                    example: &sofar,
                };
                let cold_scheme = Scheme::new(kind, small_config());
                let cold = rank_cold(&cold_scheme, &ctx, &pool);
                let cold_scores = cold_scheme
                    .fit(&ctx, &pool, &mut WarmState::default())
                    .expect("SVM schemes produce scores")
                    .score_ids(&ds.db, &log, &pool);
                let mut score_of = vec![0.0; ds.db.len()];
                for (k, &id) in pool.iter().enumerate() {
                    score_of[id] = cold_scores[k];
                }
                for (pos, (&w, &c)) in stateful.iter().zip(&cold).enumerate() {
                    if w != c {
                        let gap = (score_of[w] - score_of[c]).abs();
                        assert!(
                            gap < 5e-2,
                            "{} round {round} pos {pos}: warm put {w}, cold put {c}, \
                             but their cold scores differ by {gap}",
                            kind.name()
                        );
                    }
                }
            }
            let diag = fb.last_diagnostics().expect("SVM schemes report stats");
            assert!(diag.converged, "{} did not converge", kind.name());
            assert!(diag.iterations > 0);
        }
    }

    #[test]
    fn diagnostics_surface_iteration_capped_solves() {
        let (ds, log) = setup();
        let mut cfg = small_config();
        cfg.coupled.smo.max_iter = 1;
        let mut fb = FeedbackLoop::new(SchemeKind::RfSvm, cfg, 0, ds.db.len());
        assert_eq!(fb.last_diagnostics(), None, "no rounds yet");
        for id in 0..6 {
            fb.mark(id, id % 2 == 0).unwrap();
        }
        let pool: Vec<usize> = (0..ds.db.len()).collect();
        let _ = rerank_in_place(&mut fb, &ds.db, &log, &pool);
        let diag = fb.last_diagnostics().expect("trained round reports stats");
        assert!(!diag.converged, "max_iter=1 must be surfaced: {diag:?}");
        // Euclidean never trains: diagnostics stay empty.
        let mut eu = FeedbackLoop::new(SchemeKind::Euclidean, small_config(), 0, ds.db.len());
        eu.mark(0, true).unwrap();
        let _ = rerank_in_place(&mut eu, &ds.db, &log, &pool);
        assert_eq!(eu.last_diagnostics(), None);
    }

    #[test]
    fn a_round_with_no_marks_keeps_the_pool_order() {
        // Nothing judged yet means nothing to fit: every scheme answers
        // with the pool as the front-end ordered it and never asks for
        // scores.
        let (ds, log) = setup();
        let pool = vec![7usize, 3, 40, 0, 12];
        for kind in SchemeKind::all() {
            let mut fb = FeedbackLoop::new(kind, small_config(), 7, ds.db.len());
            let ranking = fb.rerank_scattered(&ds.db, &log, &pool, |_, _| {
                panic!("{}: scatter called with nothing fitted", kind.name())
            });
            assert_eq!(ranking, pool, "{}", kind.name());
            assert_eq!(fb.rounds(), 1);
            assert_eq!(fb.last_diagnostics(), None);
        }
    }

    #[test]
    fn judged_ids_the_pool_lacks_join_it_in_mark_order() {
        // A serving session hands over the neighbours it searched at open;
        // images judged from deeper pages still have to be ranked.
        let (ds, log) = setup();
        let pool = [7usize, 3, 40];
        let mut fb = FeedbackLoop::new(SchemeKind::RfSvm, small_config(), 7, ds.db.len());
        for (id, relevant) in [(11, true), (3, false), (25, false)] {
            fb.mark(id, relevant).unwrap();
        }
        let mut scored = Vec::new();
        let ranking = fb.rerank_scattered(&ds.db, &log, &pool, |scorer, ids| {
            scored = ids.to_vec();
            scorer.score_ids(&ds.db, &log, ids)
        });
        assert_eq!(scored, [7, 3, 40, 11, 25]);
        let mut ranked = ranking.clone();
        ranked.sort_unstable();
        assert_eq!(ranked, [3, 7, 11, 25, 40]);
    }

    #[test]
    fn judgments_accumulate_across_rounds() {
        let (ds, log) = setup();
        let mut fb = FeedbackLoop::new(SchemeKind::RfSvm, small_config(), 0, ds.db.len());
        fb.mark(0, true).unwrap();
        fb.mark(1, false).unwrap();
        let pool: Vec<usize> = (0..ds.db.len()).collect();
        let _ = rerank_in_place(&mut fb, &ds.db, &log, &pool);
        // Round 2 marks more; the example now holds all four judgments in
        // mark order.
        fb.mark(2, true).unwrap();
        fb.mark(3, false).unwrap();
        let _ = rerank_in_place(&mut fb, &ds.db, &log, &pool);
        assert_eq!(fb.rounds(), 2);
        assert_eq!(
            fb.example().labeled,
            vec![(0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)]
        );
    }

    #[test]
    fn invalid_judgments_get_typed_errors_and_leave_state_intact() {
        let (ds, _) = setup();
        let n = ds.db.len();
        let mut fb = FeedbackLoop::new(SchemeKind::LrfCsvm, small_config(), 1, n);
        fb.mark(4, true).unwrap();
        assert_eq!(
            fb.mark(n + 3, true),
            Err(RoundError::UnknownImage {
                image: n + 3,
                n_images: n
            })
        );
        assert_eq!(
            fb.mark(4, false),
            Err(RoundError::DuplicateJudgment { image: 4 })
        );
        assert_eq!(fb.n_judged(), 1);
        assert_eq!(fb.judgment(4), Some(1.0));
        // Errors render.
        assert!(RoundError::DuplicateJudgment { image: 4 }
            .to_string()
            .contains("already judged"));
    }

    #[test]
    fn finished_sessions_flush_as_log_sessions() {
        let (ds, _) = setup();
        let mut fb = FeedbackLoop::new(SchemeKind::RfSvm, small_config(), 2, ds.db.len());
        fb.mark(2, true).unwrap();
        fb.mark(9, false).unwrap();
        fb.mark(5, true).unwrap();
        let session = fb.to_log_session();
        assert_eq!(session.len(), 3);
        assert_eq!(session.judgment(2), Some(Relevance::Relevant));
        assert_eq!(session.judgment(9), Some(Relevance::Irrelevant));
        let relevant = session.iter().filter(|&(_, r)| r == Relevance::Relevant);
        assert_eq!(relevant.count(), 2);
        // Flushing closes the paper's loop: the session lands in a store
        // and becomes a new dimension of every judged image's log vector.
        let mut store = LogStore::new(ds.db.len());
        let sid = store.record(session);
        let mut column = store.log_vector(5).iter();
        let entry = column
            .find(|&(s, _)| s as usize == sid)
            .map_or(0.0, |(_, v)| v);
        assert_eq!(entry, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside database")]
    fn unknown_query_is_a_caller_bug() {
        let _ = FeedbackLoop::new(SchemeKind::Euclidean, small_config(), 10, 10);
    }
}
