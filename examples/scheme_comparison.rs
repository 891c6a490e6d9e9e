//! Scheme comparison at a reduced scale — a fast, self-contained version of
//! the paper's Table 1 evaluation (the full version lives in the
//! `reproduce` binary of `lrf-bench`).
//!
//! ```sh
//! cargo run --release --example scheme_comparison
//! ```

use corelog::cbir::{CorelDataset, CorelSpec, PrecisionCurve, QueryProtocol, CUTOFFS};
use corelog::core::{collect_feedback_log, LrfConfig, QueryContext, Scheme, SchemeKind};
use lrf_logdb::SimulationConfig;

fn main() {
    println!("building dataset (10 categories × 50 images) ...");
    let ds = CorelDataset::build(CorelSpec {
        n_categories: 10,
        per_category: 50,
        image_size: 64,
        seed: 42,
    });
    let lrf = LrfConfig::default();
    let log = collect_feedback_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 80,
            judged_per_session: 20,
            rounds_per_query: 3,
            noise: 0.1,
            seed: 9,
        },
        &lrf,
    );

    let protocol = QueryProtocol {
        n_queries: 40,
        n_labeled: 20,
        seed: 17,
    };
    let schemes = SchemeKind::all().map(|kind| Scheme::new(kind, lrf));

    let queries = protocol.sample_queries(&ds.db);
    let mut curves: Vec<PrecisionCurve> = schemes.iter().map(|_| PrecisionCurve::new()).collect();
    for &q in &queries {
        let example = protocol.feedback_example(&ds.db, q);
        let ctx = QueryContext {
            db: &ds.db,
            log: &log,
            example: &example,
        };
        for (scheme, curve) in schemes.iter().zip(&mut curves) {
            let ranked = scheme.rank(&ctx);
            curve.add(&ranked, |id| ds.db.same_category(id, q));
        }
    }
    let curves: Vec<PrecisionCurve> = curves.into_iter().map(|c| c.finish()).collect();

    print!("{:>6}", "#TOP");
    for kind in SchemeKind::all() {
        print!("  {:>10}", kind.name());
    }
    println!();
    for (i, &k) in CUTOFFS.iter().enumerate() {
        print!("{k:>6}");
        for c in &curves {
            print!("  {:>10.3}", c.values[i]);
        }
        println!();
    }
    print!("{:>6}", "MAP");
    for c in &curves {
        print!("  {:>10.3}", c.map());
    }
    println!();
    println!("\n({} queries; see `cargo run -p lrf-bench --release --bin reproduce -- table1` for the paper-scale run)", queries.len());
}
