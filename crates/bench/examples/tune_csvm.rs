//! Diagnostic: pseudo-label pool precision + final candidate configs.
use lrf_bench::experiment::{run_on_prepared, ExperimentSpec};
use lrf_cbir::{CorelDataset, QueryProtocol};
use lrf_core::{run_lrf_csvm, CoupledConfig, LrfConfig, QueryContext, SchemeKind};

fn main() {
    let mut spec = ExperimentSpec::table1(42);
    spec.protocol = QueryProtocol {
        n_queries: 100,
        ..spec.protocol
    };
    eprintln!("building dataset ...");
    let ds = CorelDataset::build(spec.dataset.clone());
    let log = lrf_core::collect_feedback_log(&ds.db, &spec.log, &spec.lrf);

    // Diagnostic: precision of the max-dist (pseudo-positive) half of the
    // unlabeled pool, per pool size.
    let protocol = spec.protocol;
    let queries = protocol.sample_queries(&ds.db);
    for n_unl in [10usize, 20, 40] {
        let config = LrfConfig {
            n_unlabeled: n_unl,
            ..spec.lrf
        };
        let mut prec = 0.0;
        for &q in &queries {
            let example = protocol.feedback_example(&ds.db, q);
            let out = run_lrf_csvm(
                &config,
                &QueryContext {
                    db: &ds.db,
                    log: &log,
                    example: &example,
                },
            );
            let half = out.unlabeled_ids.len() / 2;
            let hits = out.unlabeled_ids[..half]
                .iter()
                .filter(|&&id| ds.db.same_category(id, q))
                .count();
            prec += hits as f64 / half.max(1) as f64;
        }
        println!(
            "N'={n_unl:<3} pseudo-positive precision = {:.3}",
            prec / queries.len() as f64
        );
    }

    let base = ExperimentSpec {
        schemes: SchemeKind::all().to_vec(),
        ..spec.clone()
    };
    let r = run_on_prepared(&base, &ds, &log);
    for (name, curve) in &r.curves {
        println!(
            "{name:<10} P@20={:.3} P@100={:.3} MAP={:.3}",
            curve.at(20),
            curve.at(100),
            curve.map()
        );
    }
    for (rho, n_unl, delta) in [(0.05, 10usize, 0.5), (0.05, 16, 0.5), (0.03, 20, 0.5)] {
        let s = ExperimentSpec {
            lrf: LrfConfig {
                n_unlabeled: n_unl,
                coupled: CoupledConfig {
                    rho,
                    delta,
                    ..spec.lrf.coupled
                },
                ..spec.lrf
            },
            schemes: vec![SchemeKind::LrfCsvm],
            ..spec.clone()
        };
        let r = run_on_prepared(&s, &ds, &log);
        let c = &r.curves[0].1;
        println!(
            "rho={rho:<5} N'={n_unl:<3} delta={delta:<5} LRF-CSVM P@20={:.3} P@100={:.3} MAP={:.3}",
            c.at(20),
            c.at(100),
            c.map()
        );
    }
}
