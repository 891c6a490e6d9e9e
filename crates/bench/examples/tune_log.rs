//! Scratch tuning harness: log collection depth and log-kernel choice.
use lrf_bench::experiment::ExperimentSpec;
use lrf_cbir::CorelDataset;
use lrf_cbir::{precision_at, QueryProtocol};
use lrf_core::{LogKernel, Lrf2Svms, LrfConfig, QueryContext, RelevanceFeedback, RfSvm};

fn main() {
    let mut spec = ExperimentSpec::table1(42);
    spec.protocol = QueryProtocol {
        n_queries: 30,
        ..spec.protocol
    };
    eprintln!("building dataset ...");
    let ds = CorelDataset::build(spec.dataset.clone());
    let protocol = spec.protocol;
    let queries = protocol.sample_queries(&ds.db);

    let rf = RfSvm::new(spec.lrf);
    let empty_log = lrf_logdb::LogStore::new(ds.db.len());
    let mut p_rf = 0.0;
    for &q in &queries {
        let example = protocol.feedback_example(&ds.db, q);
        let ctx = QueryContext {
            db: &ds.db,
            log: &empty_log,
            example: &example,
        };
        p_rf += precision_at(&rf.rank(&ctx), |id| ds.db.same_category(id, q), 20);
    }
    println!("RF-SVM reference P@20 = {:.3}", p_rf / queries.len() as f64);

    let kernels = [
        ("rbf g=0.1", LogKernel::Rbf { gamma: 0.1 }),
        ("cos g=0.5", LogKernel::CosineRbf { gamma: 0.5 }),
        ("cos g=1.0", LogKernel::CosineRbf { gamma: 1.0 }),
        ("cos g=2.0", LogKernel::CosineRbf { gamma: 2.0 }),
        ("linear   ", LogKernel::Linear),
    ];
    for rounds in [3usize, 4] {
        let mut log_cfg = spec.log;
        log_cfg.rounds_per_query = rounds;
        let log = lrf_core::collect_feedback_log(&ds.db, &log_cfg, &spec.lrf);
        for (name, k) in kernels {
            let lrf = LrfConfig {
                log_kernel: k,
                ..spec.lrf
            };
            let two = Lrf2Svms::new(lrf);
            let mut p2 = 0.0;
            let mut p_log = 0.0;
            for &q in &queries {
                let example = protocol.feedback_example(&ds.db, q);
                let ctx = QueryContext {
                    db: &ds.db,
                    log: &log,
                    example: &example,
                };
                p2 += precision_at(&two.rank(&ctx), |id| ds.db.same_category(id, q), 20);
                let log_svm = two.train_log_svm(&ctx, None);
                let columns: Vec<_> = (0..log.n_images()).map(|i| log.log_vector(i)).collect();
                let scores = log_svm.model.decision_batch(&columns);
                let ranked = lrf_core::feedback::rank_by_scores(&scores);
                p_log += precision_at(&ranked, |id| ds.db.same_category(id, q), 20);
            }
            println!(
                "rounds={rounds} kernel={name} LRF-2SVMs P@20={:.3}  log-only P@20={:.3}",
                p2 / queries.len() as f64,
                p_log / queries.len() as f64
            );
        }
    }
}
