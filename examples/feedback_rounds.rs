//! Iterative relevance feedback: how precision improves round by round,
//! with and without the feedback log.
//!
//! The paper's motivation: "it is advantageous for the retrieval task ...
//! to achieve satisfactory results within as few feedback cycles as
//! possible." This example simulates a user running several feedback
//! rounds for one query and prints the per-round precision of RF-SVM
//! (content only) next to LRF-CSVM (log-based), showing the log shaving
//! off rounds.
//!
//! ```sh
//! cargo run --release --example feedback_rounds
//! ```

use corelog::cbir::{precision_at, CorelDataset, CorelSpec, FeedbackExample, QueryProtocol};
use corelog::core::{collect_feedback_log, LrfConfig, QueryContext, Scheme, SchemeKind};
use lrf_logdb::SimulationConfig;

/// Simulates one user feedback round: judge the scheme's top-k unjudged
/// results by ground truth and add them to the labeled set.
fn judge_round(ds: &CorelDataset, ranked: &[usize], example: &mut FeedbackExample, k: usize) {
    let seen: std::collections::HashSet<usize> =
        example.labeled.iter().map(|&(id, _)| id).collect();
    let fresh: Vec<usize> = ranked
        .iter()
        .copied()
        .filter(|id| !seen.contains(id))
        .take(k)
        .collect();
    for id in fresh {
        let y = if ds.db.same_category(id, example.query) {
            1.0
        } else {
            -1.0
        };
        example.labeled.push((id, y));
    }
}

fn main() {
    println!("building dataset (10 categories × 40 images) ...");
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 10,
        per_category: 40,
        image_size: 64,
        seed: 33,
    });
    let lrf = LrfConfig::default();
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 90,
            judged_per_session: 15,
            rounds_per_query: 3,
            noise: 0.1,
            seed: 2,
        },
        &lrf,
    );

    let query = 57; // a fixed query for a reproducible walkthrough
    println!(
        "query image {} (category {})\n",
        query,
        ds.db.category(query)
    );
    println!("{:>5}  {:>10}  {:>10}", "round", "RF-SVM", "LRF-CSVM");

    let rf = Scheme::new(SchemeKind::RfSvm, lrf);
    let csvm = Scheme::new(SchemeKind::LrfCsvm, lrf);

    // Each scheme gets its own interaction state (its rounds depend on its
    // own refined rankings), starting from the judged Euclidean top-15.
    let first_screen = QueryProtocol {
        n_queries: 1,
        n_labeled: 15,
        seed: 0,
    };
    let mut rf_example = first_screen.feedback_example(&ds.db, query);
    let mut csvm_example = rf_example.clone();
    let relevant = |id: usize| ds.db.same_category(id, query);

    for round in 1..=4 {
        let rf_ranked = rf.rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &rf_example,
        });
        let csvm_ranked = csvm.rank(&QueryContext {
            db: &ds.db,
            log: &log,
            example: &csvm_example,
        });
        println!(
            "{:>5}  {:>10.3}  {:>10.3}",
            round,
            precision_at(&rf_ranked, relevant, 20),
            precision_at(&csvm_ranked, relevant, 20)
        );
        judge_round(&ds, &rf_ranked, &mut rf_example, 15);
        judge_round(&ds, &csvm_ranked, &mut csvm_example, 15);
    }

    println!(
        "\nafter 4 rounds: RF-SVM judged {} images, LRF-CSVM judged {}",
        rf_example.labeled.len(),
        csvm_example.labeled.len()
    );
}
