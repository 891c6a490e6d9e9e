//! Feedback-log collection walkthrough: the relevance matrix of §2, its
//! sparsity structure, and persistence through the log's WAL directory.
//!
//! ```sh
//! cargo run --release --example log_collection
//! ```

use corelog::cbir::{collect_log, CorelDataset, CorelSpec};
use corelog::core::{collect_feedback_log, LrfConfig};
use corelog::storage::{StdIo, WalOptions};
use lrf_logdb::{LogStore, SharedLogStore, SimulationConfig};

fn describe(label: &str, log: &LogStore, categories: &[usize]) {
    println!("\n== {label} ==");
    println!("sessions (rows M)        : {}", log.n_sessions());
    println!("images   (columns N)     : {}", log.n_images());
    println!("judgments (nonzeros)     : {}", log.nnz());
    println!("distinct judged images   : {}", log.n_judged_images());

    // How well does the log separate categories? Average signed agreement
    // between log vectors of same- vs cross-category image pairs.
    let mut same = (0.0, 0usize);
    let mut cross = (0.0, 0usize);
    for a in 0..log.n_images() {
        if log.log_vector(a).is_empty() {
            continue;
        }
        for b in (a + 1)..log.n_images() {
            if log.log_vector(b).is_empty() {
                continue;
            }
            let d = log.log_vector(a).dot(log.log_vector(b)) as f64;
            if categories[a] == categories[b] {
                same = (same.0 + d, same.1 + 1);
            } else {
                cross = (cross.0 + d, cross.1 + 1);
            }
        }
    }
    println!(
        "mean co-judgment affinity: same-category {:+.4}, cross-category {:+.4}",
        same.0 / same.1.max(1) as f64,
        cross.0 / cross.1.max(1) as f64
    );
}

fn main() {
    println!("building dataset (6 categories × 30 images) ...");
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 6,
        per_category: 30,
        image_size: 64,
        seed: 21,
    });

    let cfg = SimulationConfig {
        n_sessions: 45,
        judged_per_session: 12,
        rounds_per_query: 3,
        noise: 0.1,
        seed: 5,
    };

    // Content-only screens (the ablation control) vs. the paper's protocol
    // (RF-refined screens): the latter produces a better-connected matrix.
    let content_only = collect_log(&ds.db, &cfg);
    describe(
        "content-only collection (control)",
        &content_only,
        ds.db.categories(),
    );

    let refined = collect_feedback_log(&ds.db, &cfg, &LrfConfig::default());
    describe(
        "RF-refined collection (paper §6.3)",
        &refined,
        ds.db.categories(),
    );

    // Persistence: the log database outlives the process. Its WAL
    // directory is the one on-disk form: seeding an empty one writes the
    // log as its snapshot, and opening it again recovers the log. A seed
    // never overwrites what a directory already holds, so start empty.
    let dir = std::path::Path::new("target/log_collection");
    let _ = std::fs::remove_dir_all(dir);
    SharedLogStore::open_with_seed(StdIo::handle(), dir, refined.clone(), WalOptions::default())
        .expect("seed the log's WAL directory");
    let (reopened, recovery) =
        SharedLogStore::open(StdIo::handle(), dir, ds.db.len(), WalOptions::default())
            .expect("reopen the log's WAL directory");
    assert_eq!(*reopened.snapshot(), refined);
    println!(
        "\nlog store round-tripped through {} ({} sessions recovered)",
        dir.display(),
        recovery.recovered_sessions
    );
}
