//! Criterion bench: per-round retraining latency — the cost the paper
//! defers ("the computation cost problem when applying the algorithm to
//! large scale applications") and the target of the warm-start + lazy
//! kernel-row work.
//!
//! Groups:
//!
//! * `svm_train/round` — one feedback round's solve, cold (zero alphas)
//!   vs. warm (seeded with the previous round's solution on a slightly
//!   smaller labeled set, the session steady state).
//! * `svm_train/smo` — solver cost vs. problem size and the coupled
//!   bound structure (the original scaling benches).
//! * `svm_train/session` — full multi-round session sequences through
//!   [`FeedbackLoop`] at feedback-log sizes {0, 1k, 10k}: steady-state
//!   warm rerank vs. the stateless cold ranking.
//!
//! Set `BENCH_QUICK=1` for the CI smoke subset (`round` at N=120 only) —
//! `tools/bench_check.sh` gates warm-vs-cold on those names.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lrf_cbir::{collect_log, CorelDataset, CorelSpec, QueryProtocol};
use lrf_core::{
    rank_candidates, FeedbackLoop, LrfConfig, QueryContext, SchemeKind, ScorerRef, WarmState,
};
use lrf_logdb::{LogStore, SimulationConfig};
use lrf_svm::{train, train_warm, RbfKernel, SmoParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok()
}

fn gaussian_problem(n: usize, dims: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let center = y * 0.5;
        samples.push(
            (0..dims)
                .map(|_| center + rng.gen_range(-1.0..1.0))
                .collect(),
        );
        labels.push(y);
    }
    (samples, labels)
}

/// Cold vs. warm retrain of one round: the warm seed is the dual solution
/// of the *previous* round (8 fewer judgments), exactly the prefix the
/// session API threads between reranks.
fn bench_round_latency(c: &mut Criterion) {
    let sizes: &[usize] = if quick() { &[120] } else { &[60, 120, 240] };
    let mut group = c.benchmark_group("svm_train/round");
    group.sample_size(20);
    for &n in sizes {
        let (samples, labels) = gaussian_problem(n, 36, 7);
        let bounds = vec![10.0; n];
        let params = SmoParams::default();
        let kernel = RbfKernel::new(1.0 / 36.0);
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let svm = train(
                    black_box(&samples),
                    black_box(&labels),
                    &bounds,
                    kernel,
                    &params,
                )
                .unwrap();
                black_box(svm.stats.iterations)
            })
        });
        // Previous round: the same session before its last 8 marks.
        let prev = train(
            &samples[..n - 8],
            &labels[..n - 8],
            &bounds[..n - 8],
            kernel,
            &params,
        )
        .unwrap();
        let seed = prev.alpha;
        group.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            b.iter(|| {
                let svm = train_warm(
                    black_box(&samples),
                    black_box(&labels),
                    &bounds,
                    kernel,
                    &params,
                    Some(black_box(&seed)),
                )
                .unwrap();
                black_box(svm.stats.iterations)
            })
        });
    }
    group.finish();
}

fn bench_smo_sizes(c: &mut Criterion) {
    if quick() {
        return;
    }
    let mut group = c.benchmark_group("smo_train");
    group.sample_size(30);
    for &n in &[20usize, 60, 120, 240] {
        let (samples, labels) = gaussian_problem(n, 36, 7);
        let bounds = vec![10.0; n];
        group.bench_with_input(BenchmarkId::new("uniform_c", n), &n, |b, _| {
            b.iter(|| {
                let svm = train(
                    black_box(&samples),
                    black_box(&labels),
                    black_box(&bounds),
                    RbfKernel::new(1.0 / 36.0),
                    &SmoParams::default(),
                )
                .unwrap();
                black_box(svm.stats.iterations)
            })
        });
    }
    group.finish();
}

fn bench_smo_mixed_bounds(c: &mut Criterion) {
    if quick() {
        return;
    }
    // The coupled-SVM shape: 20 labeled at C plus 40 unlabeled at ρ*C.
    let (samples, labels) = gaussian_problem(60, 36, 11);
    let mut bounds = vec![10.0; 20];
    bounds.extend(vec![0.005; 40]);
    c.bench_function("smo_train/coupled_shape_20l_40u", |b| {
        b.iter(|| {
            let svm = train(
                black_box(&samples),
                black_box(&labels),
                black_box(&bounds),
                RbfKernel::new(1.0 / 36.0),
                &SmoParams::default(),
            )
            .unwrap();
            black_box(svm.stats.iterations)
        })
    });
}

/// Multi-round sessions through the serving-plane API at growing log
/// sizes: warm steady-state rerank (the session's persistent WarmState
/// seeds every retrain) vs. the stateless cold ranking of the same
/// accumulated example.
fn bench_session_rounds(c: &mut Criterion) {
    if quick() {
        return;
    }
    let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
    let proto = QueryProtocol {
        n_queries: 1,
        n_labeled: 12,
        seed: 3,
    };
    let example = proto.feedback_example(&ds.db, 9);
    let pool: Vec<usize> = (0..ds.db.len()).collect();
    let cfg = LrfConfig::default();

    let mut group = c.benchmark_group("svm_train/session");
    group.sample_size(10);
    for &n_log in &[0usize, 1_000, 10_000] {
        let log = if n_log == 0 {
            LogStore::new(ds.db.len())
        } else {
            collect_log(
                &ds.db,
                &SimulationConfig {
                    n_sessions: n_log,
                    judged_per_session: 8,
                    rounds_per_query: 1,
                    noise: 0.1,
                    seed: 23,
                },
            )
        };
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        // Steady state: the session has already trained once; every
        // subsequent rerank re-solves warm from the deposited alphas.
        let mut fb = FeedbackLoop::new(SchemeKind::Lrf2Svms, cfg, 9, ds.db.len());
        for &(id, y) in &example.labeled {
            fb.mark(id, y > 0.0).unwrap();
        }
        let score = |scorer: &ScorerRef, ids: &[usize]| scorer.score_ids(&ds.db, &log, ids);
        let _ = fb.rerank_scattered(&ds.db, &log, &pool, score);
        group.bench_with_input(BenchmarkId::new("warm", n_log), &n_log, |b, _| {
            b.iter(|| {
                let ranking = fb.rerank_scattered(&ds.db, &log, &pool, score);
                black_box(ranking.len())
            })
        });
        let scheme = SchemeKind::Lrf2Svms.build(cfg);
        group.bench_with_input(BenchmarkId::new("cold", n_log), &n_log, |b, _| {
            b.iter(|| {
                let ranking = rank_candidates(
                    scheme.as_ref(),
                    &ctx,
                    &pool,
                    &mut WarmState::default(),
                    score,
                );
                black_box(ranking.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_latency,
    bench_smo_sizes,
    bench_smo_mixed_bounds,
    bench_session_rounds
);
criterion_main!(benches);
