//! Observability endpoint integration: drive the service through the
//! paper's feedback loop, then read the telemetry back out three ways —
//! the typed `Request::Metrics` endpoint, the JSON transport, and the
//! Prometheus text page — and check they agree and are well-formed.

use corelog::cbir::{collect_log, CorelDataset, CorelSpec, ImageDatabase};
use corelog::core::{LrfConfig, SchemeKind};
use corelog::logdb::{LogStore, SimulationConfig};
use corelog::obs::RegistrySnapshot;
use corelog::service::{Request, Response, Service, ServiceConfig};
use std::collections::HashMap;

fn corpus() -> (ImageDatabase, LogStore) {
    let ds = CorelDataset::build(CorelSpec::tiny(4, 12, 19));
    let log = collect_log(
        &ds.db,
        &SimulationConfig {
            n_sessions: 24,
            judged_per_session: 10,
            rounds_per_query: 2,
            noise: 0.1,
            seed: 23,
        },
    );
    (ds.db, log)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        max_sessions: 32,
        ttl_requests: 0,
        screen_size: 8,
        pool_size: 30,
        lrf: LrfConfig {
            n_unlabeled: 8,
            ..LrfConfig::default()
        },
    }
}

/// One complete two-round feedback loop: open → judge the screen →
/// retrain/rerank → judge the refined page → retrain/rerank → close.
fn drive_session(svc: &Service, query: usize) {
    let Response::Opened { session, screen } = svc.handle(Request::Open {
        query,
        scheme: SchemeKind::LrfCsvm,
    }) else {
        panic!("open failed")
    };
    for &id in &screen {
        svc.handle(Request::Mark {
            session,
            image: id,
            relevant: svc.db().same_category(id, query),
        });
    }
    let Response::Reranked { page, .. } = svc.handle(Request::Rerank { session }) else {
        panic!("rerank failed")
    };
    for &id in &page {
        let _ = svc.handle(Request::Mark {
            session,
            image: id,
            relevant: svc.db().same_category(id, query),
        });
    }
    let Response::Reranked { .. } = svc.handle(Request::Rerank { session }) else {
        panic!("rerank failed")
    };
    let Response::Closed { .. } = svc.handle(Request::Close { session }) else {
        panic!("close failed")
    };
}

fn driven_service() -> Service {
    let (db, log) = corpus();
    let svc = Service::new(db, log, config());
    for query in [3usize, 17] {
        drive_session(&svc, query);
    }
    svc
}

/// After a real feedback loop, every pipeline stage histogram has
/// recorded work and every subsystem counter has moved: the endpoint
/// reports the whole request path, not just the outer latency.
#[test]
fn metrics_endpoint_covers_every_stage_of_the_feedback_loop() {
    let svc = driven_service();
    let Response::Metrics { snapshot } = svc.handle(Request::Metrics) else {
        panic!("metrics endpoint failed")
    };

    for stage in [
        "request_latency_ns",
        "stage_session_lookup_ns",
        "stage_scoring_ns",
        "stage_retrain_ns",
        "stage_flush_ns",
    ] {
        let h = snapshot
            .histogram(stage)
            .unwrap_or_else(|| panic!("{stage} not registered"));
        assert!(h.count > 0, "{stage} recorded no samples");
        // Quantiles are monotone, and exceed the tracked exact max by at
        // most the histogram's documented 1/64 bucket-midpoint error.
        let (p50, p90, p99) = (h.p50(), h.quantile(0.9), h.p99());
        assert!(p50 <= p90 && p90 <= p99, "{stage} quantiles not monotone");
        assert!(p99 <= h.max + h.max / 64 + 1, "{stage} p99 above max+bound");
        assert_eq!(h.quantile(1.0), h.max, "{stage} q=1.0 must be exact");
    }
    // Two full retrains per session × two sessions drove the solver and
    // both views' row blocks (which serve the solver's row stores, so the
    // stores miss no row); scoring walked the index; closes flushed the
    // log.
    assert_eq!(snapshot.counter("kernel_cache_misses_total"), Some(0));
    for counter in [
        "requests_total",
        "smo_iterations_total",
        "content_kernel_evals_total",
        "log_kernel_evals_total",
        "ann_distance_evals_total",
        "flushed_sessions_total",
        "log_appends_total",
    ] {
        let v = snapshot.counter(counter);
        assert!(v.is_some_and(|v| v > 0), "{counter} did not move: {v:?}");
    }
    assert_eq!(
        snapshot.counter("flushed_sessions_total"),
        Some(2),
        "both closed sessions must have flushed"
    );
    // Both sessions closed: the gauge is back to zero (present but flat).
    assert_eq!(snapshot.gauge("active_sessions"), Some(0));
}

/// The JSON transport serves the same snapshot as the typed endpoint, and
/// the snapshot round-trips exactly (it is integer-only by design).
#[test]
fn metrics_snapshot_round_trips_through_the_json_transport() {
    let svc = driven_service();
    let body = serde_json::to_string(&svc.handle(Request::Metrics)).expect("response serializes");
    let parsed: Response = serde_json::from_str(&body).expect("transport returned invalid JSON");
    let Response::Metrics { snapshot } = parsed else {
        panic!("transport returned a non-Metrics response: {body}")
    };
    assert!(snapshot.histogram("request_latency_ns").is_some());

    let reencoded = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let back: RegistrySnapshot = serde_json::from_str(&reencoded).expect("snapshot deserializes");
    assert_eq!(back, snapshot, "snapshot must round-trip losslessly");
}

/// The Prometheus page is well-formed exposition text: every metric is
/// typed, histogram bucket series are cumulative and capped by `+Inf`,
/// and the `+Inf` bucket agrees with the `_count` sample.
#[test]
fn prometheus_page_is_well_formed_exposition_text() {
    let svc = driven_service();
    let page = svc.metrics_prometheus();
    assert!(page.ends_with('\n'), "page must end with a newline");

    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: HashMap<String, u64> = HashMap::new();
    let mut bucket_series: HashMap<String, Vec<u64>> = HashMap::new();
    let mut inf_bucket: HashMap<String, u64> = HashMap::new();

    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let (name, kind) = (it.next().unwrap(), it.next().unwrap());
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown type on line: {line}"
            );
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        let (name_part, value_part) = line.rsplit_once(' ').expect("sample line has a value");
        let value: u64 = value_part.parse().unwrap_or_else(|_| {
            panic!("non-integer sample value on line: {line}");
        });
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name outside the Prometheus alphabet: {line}"
        );
        if let Some(base) = name.strip_suffix("_bucket") {
            if name_part.contains("le=\"+Inf\"") {
                inf_bucket.insert(base.to_string(), value);
            } else {
                bucket_series
                    .entry(base.to_string())
                    .or_default()
                    .push(value);
            }
        } else {
            samples.insert(name.to_string(), value);
        }
    }

    // Every histogram the service registers shows up with a consistent
    // bucket series.
    for stage in ["request_latency_ns", "stage_retrain_ns"] {
        assert_eq!(types.get(stage).map(String::as_str), Some("histogram"));
        let series = &bucket_series[stage];
        assert!(
            series.windows(2).all(|w| w[0] <= w[1]),
            "{stage} bucket series must be cumulative"
        );
        let inf = inf_bucket[stage];
        assert!(*series.last().unwrap() <= inf);
        assert_eq!(
            samples[&format!("{stage}_count")],
            inf,
            "{stage}: +Inf bucket must equal _count"
        );
        assert!(samples.contains_key(&format!("{stage}_sum")));
    }
    assert_eq!(
        types.get("requests_total").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        types.get("active_sessions").map(String::as_str),
        Some("gauge")
    );
}
