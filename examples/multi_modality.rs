//! The paper's future-work generalization in action: a coupled machine
//! over *three* modalities.
//!
//! "Instead of two types of information, our model can be easily
//! generalized to learn the data with multiple types of information."
//! Here the third modality is the edge-histogram slice of the visual
//! descriptor treated as its own information source, next to the
//! color+texture slice and a dense projection of the feedback log.
//!
//! ```sh
//! cargo run --release --example multi_modality
//! ```

use corelog::cbir::{CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::multi::{train_multi_coupled, DenseKernel, ModalityData};
use corelog::core::{collect_feedback_log, CoupledConfig, LrfConfig};
use lrf_logdb::SimulationConfig;

fn main() {
    println!("building dataset (6 categories × 30 images) ...");
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 6,
        per_category: 30,
        image_size: 64,
        seed: 77,
        ..CorelSpec::twenty_category(77)
    });
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 40,
            judged_per_session: 12,
            rounds_per_query: 3,
            noise: 0.1,
            seed: 4,
        },
        &LrfConfig::default(),
    );

    // One feedback round.
    let protocol = QueryProtocol {
        n_queries: 1,
        n_labeled: 12,
        seed: 8,
    };
    let query = protocol.sample_queries(&ds.db)[0];
    let example = protocol.feedback_example(&ds.db, query);
    println!("query image {} (category {})", query, ds.db.category(query));

    // Three views per image: color+texture (18-D), edges (18-D), and the
    // log column densified over the collected sessions.
    let color_texture = |id: usize| -> Vec<f64> {
        let f = ds.db.feature(id);
        let mut v = f[..9].to_vec(); // color moments
        v.extend_from_slice(&f[27..]); // wavelet entropies
        v
    };
    let edges = |id: usize| -> Vec<f64> { ds.db.feature(id)[9..27].to_vec() };
    let log_view = |id: usize| -> Vec<f64> { log.log_vector(id).to_dense(log.n_sessions()) };

    let labeled_ids: Vec<usize> = example.labeled.iter().map(|&(id, _)| id).collect();
    let y: Vec<f64> = example.labeled.iter().map(|&(_, l)| l).collect();
    // A small unlabeled pool: the first 8 ids outside the labeled set.
    let pool: Vec<usize> = (0..ds.db.len())
        .filter(|id| !labeled_ids.contains(id))
        .take(8)
        .collect();
    let y_init: Vec<f64> = (0..pool.len())
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();

    let modality = |view: &dyn Fn(usize) -> Vec<f64>, kernel, c| ModalityData {
        labeled: labeled_ids.iter().map(|&id| view(id)).collect(),
        unlabeled: pool.iter().map(|&id| view(id)).collect(),
        kernel,
        c,
    };
    let modalities = vec![
        modality(&color_texture, DenseKernel::Rbf { gamma: 1.0 }, 1.0),
        modality(&edges, DenseKernel::Rbf { gamma: 1.0 }, 1.0),
        modality(&log_view, DenseKernel::Rbf { gamma: 0.1 }, 0.5),
    ];

    // Per-view C is on each ModalityData; the schedule is a CoupledConfig.
    let cfg = CoupledConfig {
        rho: 0.05,
        delta: 2.0,
        ..Default::default()
    };
    let out = train_multi_coupled(&modalities, &y, &y_init, &cfg).expect("training");
    println!(
        "trained {} coupled machines: {} annealing steps, {} retrains, {} label flips",
        out.machines.len(),
        out.report.rho_steps,
        out.report.retrains,
        out.report.flips
    );

    // Rank the database by the summed decision of all three machines.
    let mut scored: Vec<(usize, f64)> = (0..ds.db.len())
        .map(|id| {
            let views = vec![color_texture(id), edges(id), log_view(id)];
            (id, out.coupled_score(&views))
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    let p20 = scored[..20]
        .iter()
        .filter(|&&(id, _)| ds.db.same_category(id, query))
        .count() as f64
        / 20.0;
    println!("3-modality coupled ranking P@20 = {p20:.2}");
    let cats: Vec<String> = scored[..10]
        .iter()
        .map(|&(id, _)| ds.db.category(id).to_string())
        .collect();
    println!("top-10 categories: [{}]", cats.join(" "));
}
