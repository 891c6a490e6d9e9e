//! # lrf-service — the concurrent multi-session serving plane
//!
//! The paper's coupled-SVM scheme pays off when **many users** run feedback
//! sessions against **one shared database** and their sessions accumulate
//! into the log that future queries train on. This crate is that serving
//! plane, built on the zero-copy data plane underneath it:
//!
//! * one `Arc`-shared [`lrf_cbir::ImageDatabase`] searched and scored by
//!   a [`ShardedEngine`] whose shards are views over the database's
//!   feature allocation — the collection's features exist once in memory,
//!   no matter how many shards or sessions are live;
//! * a [`lrf_logdb::DurableLogStore`]: sessions train on frozen log
//!   snapshots while completed sessions append concurrently (copy-on-write
//!   — a flush can never stall a query). Built with
//!   [`Service::with_durability_metrics`], every flush is fsynced into a
//!   checksummed WAL before the close is acknowledged, with a typed
//!   degradation path (retry → volatile → shed → compact, see
//!   [`DurabilityConfig`]) when storage fails;
//! * a [`manager::SessionManager`]: each session is a resumable
//!   [`lrf_core::FeedbackLoop`] behind its own lock. LRU capacity eviction
//!   and an idle TTL, both deterministic against a logical clock, run in
//!   one loop at `Open`, the only request that grows the table;
//! * a synchronous [`Request`]/[`Response`] API ([`Service::handle`]),
//!   which [`NetServer`] serves over HTTP in the one `{v, id, body}` frame
//!   of [`wire`] without touching the engine.
//!
//! Every [`Service`] serves through its own [`ShardedEngine`], built by one
//! private `build` from a shard count: [`Service::new`] (one shard, fresh
//! metrics), [`Service::sharded_with_metrics`] (`n_shards`) and
//! [`Service::with_durability_metrics`] (WAL-backed log, one shard); the
//! last two take their [`ServiceMetrics`] explicitly.
//!
//! ## Session lifecycle
//!
//! ```text
//! Open ──▶ initial screen (one top-k search across the shards,
//!   │              pool-deep; the session keeps the neighbours, content
//!   │              only)
//!   │  Mark*      (judgments accumulate; typed errors, never panics)
//!   │  Rerank     (no search: retrain scheme once on all judgments, score
//!   │              the stored pool across the shard workers — one
//!   │              `rerank_scattered` call, bit-identical to the one-shot
//!   │              pooled path)
//!   │  Page*      (read slices of the current ranking: the stored head,
//!   │              then the ids it lacks ascending; before a rerank a
//!   │              page past the head deepens the search geometrically)
//!   ▼
//! Close / evict ──▶ judgments flush into the shared log
//!                    └──▶ future sessions' log vectors (the paper's loop)
//! ```
//!
//! ## Example
//!
//! ```
//! use lrf_cbir::{collect_log, CorelDataset, CorelSpec};
//! use lrf_core::SchemeKind;
//! use lrf_logdb::SimulationConfig;
//! use lrf_service::{Request, Response, Service, ServiceConfig};
//!
//! let ds = CorelDataset::build(CorelSpec::tiny(3, 8, 7));
//! let log = collect_log(&ds.db, &SimulationConfig {
//!     n_sessions: 10, judged_per_session: 6, rounds_per_query: 2, noise: 0.1, seed: 1,
//! });
//! let svc = Service::new(ds.db, log, ServiceConfig::default());
//!
//! let Response::Opened { session, screen } =
//!     svc.handle(Request::Open { query: 0, scheme: SchemeKind::LrfCsvm })
//! else { unreachable!() };
//! for &id in &screen[..4] {
//!     svc.handle(Request::Mark { session, image: id, relevant: svc.db().same_category(id, 0) });
//! }
//! let Response::Reranked { page, .. } = svc.handle(Request::Rerank { session })
//! else { unreachable!() };
//! assert!(!page.is_empty());
//! svc.handle(Request::Close { session });
//! ```

mod api;
mod durability;
mod flush;
pub mod manager;
pub mod metrics;
mod net;
mod service;
mod shard;
pub mod wire;

pub use api::{Request, Response, ServiceError};
pub use durability::DurabilityConfig;
pub use flush::Flushable;
pub use metrics::ServiceMetrics;
pub use net::{NetConfig, NetServer};
pub use service::{Service, ServiceConfig};
pub use shard::ShardedEngine;
pub use wire::PROTO_VERSION;
