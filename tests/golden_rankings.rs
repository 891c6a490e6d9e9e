//! Golden rankings: literal retrieval output of every scheme on one small
//! fixed corpus, through each ranking entry point. The precision-based
//! suites (`reproduction_smoke`, `paper_fidelity`) catch a refactor that
//! breaks the science; this one catches a refactor that moves a single id.
//!
//! The values were captured from the code as it stood before the
//! scheme-surface collapse (one `fit_warm`, one scorer, one rerank) and
//! must never be edited to make a refactor pass. A failing assertion prints
//! the observed value in the literal's own syntax.

use corelog::cbir::{build_flat_index, precision_at, CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::{
    collect_feedback_log, FeedbackLoop, LrfConfig, PooledRetrieval, QueryContext, SchemeKind,
};
use lrf_logdb::{LogStore, SimulationConfig};

const QUERY: usize = 37;
const POOL: usize = 50;
const TOP: usize = 20;

fn build() -> (CorelDataset, LogStore, LrfConfig) {
    let ds = CorelDataset::build(CorelSpec::tiny(5, 20, 1205));
    let lrf = LrfConfig {
        n_unlabeled: 12,
        ..LrfConfig::default()
    };
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 40,
            judged_per_session: 10,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 77,
        },
        &lrf,
    );
    (ds, log, lrf)
}

fn protocol() -> QueryProtocol {
    QueryProtocol {
        n_queries: 10,
        n_labeled: 10,
        seed: 11,
    }
}

/// Everything pinned for one scheme.
#[derive(Debug)]
struct Golden {
    /// Top of `scheme.rank(&ctx)`.
    full: [usize; TOP],
    /// Top of `PooledRetrieval::rank` at a pool of 50.
    pooled: [usize; TOP],
    /// Top of a `FeedbackLoop`'s first rerank (5 marks).
    round1: [usize; TOP],
    /// Top of its second rerank (5 more marks, warm-started).
    round2: [usize; TOP],
    /// Mean P@20 of `scheme.rank` over the 10 protocol queries.
    p_at_20: f64,
}

fn top(ranking: &[usize]) -> [usize; TOP] {
    ranking[..TOP].try_into().expect("ranking covers the top")
}

fn observe(kind: SchemeKind, ds: &CorelDataset, log: &LogStore, lrf: LrfConfig) -> Golden {
    let db = &ds.db;
    let scheme = kind.build(lrf);
    let proto = protocol();
    let example = proto.feedback_example(db, QUERY);
    let ctx = QueryContext {
        db,
        log,
        example: &example,
    };
    let index = build_flat_index(db);
    let pooled = PooledRetrieval::new(&index, POOL);

    let mut fb = FeedbackLoop::new(kind, lrf, QUERY, db.len());
    let mut rounds = example.labeled.chunks(5).map(|marks| {
        for &(id, y) in marks {
            fb.mark(id, y > 0.0).expect("protocol marks are valid");
        }
        let sofar = fb.example();
        let pool = pooled.pool(&QueryContext {
            db,
            log,
            example: &sofar,
        });
        top(&fb.rerank_scattered(db, log, &pool, |scorer, ids| scorer.score_ids(db, log, ids)))
    });
    let round1 = rounds.next().expect("first round");
    let round2 = rounds.next().expect("second round");

    let queries = proto.sample_queries(db);
    let total: f64 = queries
        .iter()
        .map(|&q| {
            let example = proto.feedback_example(db, q);
            let ranked = scheme.rank(&QueryContext {
                db,
                log,
                example: &example,
            });
            precision_at(&ranked, |id| db.same_category(id, q), TOP)
        })
        .sum();

    Golden {
        full: top(&scheme.rank(&ctx)),
        pooled: top(&pooled.rank(scheme.as_ref(), &ctx)),
        round1,
        round2,
        p_at_20: total / queries.len() as f64,
    }
}

fn check(kind: SchemeKind, want: Golden) {
    let (ds, log, lrf) = build();
    let got = observe(kind, &ds, &log, lrf);
    let same = got.full == want.full
        && got.pooled == want.pooled
        && got.round1 == want.round1
        && got.round2 == want.round2
        && (got.p_at_20 - want.p_at_20).abs() < 1e-12;
    assert!(same, "{} moved:\n got {got:?}\nwant {want:?}", kind.name());
}

#[test]
fn euclidean_rankings_are_pinned() {
    check(
        SchemeKind::Euclidean,
        Golden {
            full: [
                37, 34, 46, 58, 49, 56, 25, 29, 80, 83, 77, 73, 95, 43, 65, 52, 12, 5, 14, 74,
            ],
            pooled: [
                37, 34, 46, 58, 49, 56, 25, 29, 80, 83, 77, 73, 95, 43, 65, 52, 12, 5, 14, 74,
            ],
            round1: [
                37, 34, 46, 58, 49, 56, 25, 29, 80, 83, 77, 73, 95, 43, 65, 52, 12, 5, 14, 74,
            ],
            round2: [
                37, 34, 46, 58, 49, 56, 25, 29, 80, 83, 77, 73, 95, 43, 65, 52, 12, 5, 14, 74,
            ],
            p_at_20: 0.315,
        },
    );
}

#[test]
fn rf_svm_rankings_are_pinned() {
    check(
        SchemeKind::RfSvm,
        Golden {
            full: [
                34, 29, 25, 37, 27, 52, 12, 95, 22, 94, 4, 41, 99, 28, 45, 30, 10, 5, 32, 47,
            ],
            pooled: [
                34, 29, 25, 37, 27, 52, 12, 95, 22, 94, 4, 41, 28, 30, 10, 5, 32, 47, 66, 3,
            ],
            round1: [
                37, 34, 27, 29, 52, 25, 95, 12, 94, 22, 43, 4, 5, 47, 41, 30, 3, 72, 82, 32,
            ],
            round2: [
                34, 29, 25, 37, 27, 52, 12, 95, 22, 94, 4, 41, 28, 30, 10, 5, 32, 47, 66, 3,
            ],
            p_at_20: 0.42,
        },
    );
}

#[test]
fn lrf_2svms_rankings_are_pinned() {
    check(
        SchemeKind::Lrf2Svms,
        Golden {
            full: [
                34, 37, 29, 25, 27, 22, 95, 4, 32, 65, 30, 38, 74, 39, 73, 52, 28, 41, 98, 68,
            ],
            pooled: [
                34, 37, 29, 25, 27, 22, 95, 4, 32, 65, 30, 74, 73, 52, 28, 41, 98, 68, 62, 5,
            ],
            round1: [
                34, 37, 27, 25, 29, 74, 95, 32, 5, 62, 52, 73, 80, 41, 65, 82, 22, 30, 85, 98,
            ],
            round2: [
                34, 37, 29, 25, 27, 22, 95, 4, 32, 65, 30, 74, 73, 52, 28, 41, 98, 68, 62, 5,
            ],
            p_at_20: 0.53,
        },
    );
}

#[test]
fn lrf_csvm_rankings_are_pinned() {
    check(
        SchemeKind::LrfCsvm,
        Golden {
            full: [
                34, 37, 29, 25, 27, 22, 95, 4, 65, 32, 30, 38, 74, 73, 28, 52, 41, 39, 62, 68,
            ],
            pooled: [
                34, 37, 29, 25, 27, 22, 95, 4, 32, 65, 30, 74, 73, 52, 28, 41, 5, 98, 82, 68,
            ],
            round1: [
                34, 37, 27, 25, 29, 74, 95, 32, 5, 62, 73, 52, 80, 22, 30, 82, 65, 41, 85, 98,
            ],
            round2: [
                34, 37, 29, 25, 27, 22, 95, 4, 32, 65, 30, 74, 73, 52, 28, 41, 5, 98, 82, 68,
            ],
            p_at_20: 0.54,
        },
    );
}
