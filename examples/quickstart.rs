//! Quickstart: build a miniature CBIR system, collect a feedback log, and
//! run one log-based relevance-feedback query with every scheme.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Also writes a handful of synthetic sample images (PPM) to
//! `target/quickstart/` so you can eyeball the corpus (cf. the paper's
//! Fig. 2, "some images selected from COREL image CDs").

use corelog::cbir::{precision_at, CorelDataset, CorelSpec, QueryProtocol};
use corelog::core::{collect_feedback_log, LrfConfig, QueryContext, SchemeKind};
use lrf_logdb::SimulationConfig;

fn main() {
    // 1. A small synthetic COREL-like dataset: 8 categories × 40 images.
    println!("building dataset (8 categories × 40 images) ...");
    let spec = CorelSpec {
        n_categories: 8,
        per_category: 40,
        image_size: 64,
        seed: 7,
    };
    let ds = CorelDataset::build(spec);
    println!(
        "  {} images, {} features each",
        ds.db.len(),
        ds.db.feature(0).len()
    );

    // Dump a few rendered samples for inspection.
    let out_dir = std::path::Path::new("target/quickstart");
    std::fs::create_dir_all(out_dir).expect("create output dir");
    for cat in 0..4 {
        for idx in 0..2 {
            let img = ds.generator.generate(cat, idx);
            let path = out_dir.join(format!("cat{cat}_img{idx}.ppm"));
            std::fs::write(&path, img.to_ppm()).expect("write sample image");
        }
    }
    println!("  sample images written to {}", out_dir.display());

    // 2. Collect a feedback log with the paper's protocol: simulated users
    //    run multi-round relevance feedback; every round becomes a session.
    let lrf = LrfConfig::default();
    let log_cfg = SimulationConfig {
        n_sessions: 60,
        judged_per_session: 15,
        rounds_per_query: 3,
        noise: 0.1,
        seed: 11,
    };
    let log = collect_feedback_log(&ds.db, &log_cfg, &lrf);
    println!(
        "collected log: {} sessions, {} judgments over {} distinct images",
        log.n_sessions(),
        log.nnz(),
        log.n_judged_images()
    );

    // 3. One query: take a random image, auto-judge its Euclidean top-15
    //    (the simulated user's feedback round), and rank with each scheme.
    let protocol = QueryProtocol {
        n_queries: 1,
        n_labeled: 15,
        seed: 3,
    };
    let query = protocol.sample_queries(&ds.db)[0];
    let example = protocol.feedback_example(&ds.db, query);
    let ctx = QueryContext {
        db: &ds.db,
        log: &log,
        example: &example,
    };
    println!(
        "\nquery image {} (category {}), {} labeled ({} relevant)",
        query,
        ds.db.category(query),
        example.labeled.len(),
        example.labeled.iter().filter(|&&(_, y)| y > 0.0).count()
    );

    let schemes = SchemeKind::all().map(|kind| kind.build(lrf));
    println!("\n{:<10} {:>6}  top-10 result categories", "scheme", "P@20");
    for scheme in &schemes {
        let ranked = scheme.rank(&ctx);
        let p20 = precision_at(&ranked, |id| ds.db.same_category(id, query), 20);
        let cats: Vec<String> = ranked[..10]
            .iter()
            .map(|&id| ds.db.category(id).to_string())
            .collect();
        println!("{:<10} {:>6.2}  [{}]", scheme.name(), p20, cats.join(" "));
    }
}
