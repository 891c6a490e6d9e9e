//! Scratch tuning harness: grid-search RF-SVM kernel parameters.
use lrf_bench::experiment::{run_on_prepared, ExperimentSpec};
use lrf_cbir::{CorelDataset, QueryProtocol};
use lrf_core::{LrfConfig, SchemeKind};

fn main() {
    let mut spec = ExperimentSpec::table1(42);
    spec.protocol = QueryProtocol {
        n_queries: 30,
        ..spec.protocol
    };
    spec.schemes = vec![SchemeKind::RfSvm, SchemeKind::LrfCsvm];
    eprintln!("building dataset ...");
    let ds = CorelDataset::build(spec.dataset.clone());
    let log = lrf_core::collect_feedback_log(&ds.db, &spec.log, &spec.lrf);
    for gamma in [1.0 / 36.0, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0] {
        for c in [1.0, 10.0, 100.0] {
            let s = ExperimentSpec {
                lrf: LrfConfig {
                    gamma_content: Some(gamma),
                    coupled: lrf_core::CoupledConfig {
                        c_content: c,
                        ..spec.lrf.coupled
                    },
                    ..spec.lrf
                },
                schemes: vec![SchemeKind::RfSvm, SchemeKind::LrfCsvm],
                ..spec.clone()
            };
            let r = run_on_prepared(&s, &ds, &log);
            let rf = r.curve("RF-SVM").unwrap();
            println!(
                "gamma={gamma:.3} C={c:<5} RF-SVM P@20={:.3} MAP={:.3}",
                rf.at(20),
                rf.map()
            );
        }
    }
}
