//! The service API: requests, responses, and typed errors.
//!
//! The API is a plain enum pair handled by [`crate::Service::handle`]. On
//! the network these are the `body` of the one `{v, id, body}` frame
//! ([`crate::wire`]), so they are the wire's serde types. Every failure
//! mode is a [`ServiceError`] variant inside a normal [`Response::Error`];
//! the service never panics on client input.

use lrf_core::{RoundError, SchemeKind};
use lrf_obs::RegistrySnapshot;
use serde::{Deserialize, Serialize};

/// One client request to the feedback service.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Opens a feedback session: retrieve the initial content-based screen
    /// for `query` and start a session running `scheme`.
    Open {
        /// Query image id.
        query: usize,
        /// Relevance-feedback scheme the session retrains with.
        scheme: SchemeKind,
    },
    /// Records one relevance judgment in a session.
    Mark {
        /// Session id from [`Response::Opened`].
        session: u64,
        /// Judged image id.
        image: usize,
        /// The user's judgment.
        relevant: bool,
    },
    /// Retrains on everything marked so far and re-ranks the session's
    /// candidate pool.
    Rerank {
        /// Session id.
        session: u64,
    },
    /// Reads a page of the session's current ranking (initial screen order
    /// before the first rerank).
    Page {
        /// Session id.
        session: u64,
        /// Rank offset of the first id returned.
        offset: usize,
        /// Maximum ids returned (clamped to the ranking's tail).
        count: usize,
    },
    /// Ends a session, flushing its judgments into the feedback log.
    Close {
        /// Session id.
        session: u64,
    },
    /// Reconciles the durability backlog by compacting: one snapshot of
    /// the whole log makes every session recorded volatile during a
    /// storage outage durable. Appends nothing to the WAL. A no-op
    /// (immediately `Synced`) on a WAL-less service.
    SyncLog,
    /// Service-level counters.
    Stats,
    /// Full observability snapshot: every registered counter, gauge and
    /// per-stage latency histogram (see [`crate::metrics::names`]).
    Metrics,
    /// Health/readiness probe for load balancers: answered with
    /// [`Response::Pong`] carrying the protocol version, touching no
    /// session or storage state.
    Ping,
}

/// The service's answer to one [`Request`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Response {
    /// A session is open; `screen` is the initial content-based top-k the
    /// user judges first.
    Opened {
        /// The new session's id.
        session: u64,
        /// Initial screen (index-ranked nearest neighbors of the query).
        screen: Vec<usize>,
    },
    /// A judgment was recorded.
    Marked {
        /// Session id.
        session: u64,
        /// Judgments accumulated so far in this session.
        n_judged: usize,
    },
    /// The session retrained and re-ranked.
    Reranked {
        /// Session id.
        session: u64,
        /// Completed feedback rounds (1 after the first rerank).
        round: usize,
        /// The new top page (first `screen_size` ids of the ranking).
        page: Vec<usize>,
        /// Whether every solve of this round reached its KKT tolerance.
        /// `false` means some SVM hit its `max_iter` cap: the ranking is
        /// usable but approximate (schemes that never train always report
        /// `true`).
        converged: bool,
    },
    /// A page of the current ranking.
    Page {
        /// Session id.
        session: u64,
        /// The requested ranking slice.
        ids: Vec<usize>,
    },
    /// The session is closed.
    Closed {
        /// Session id.
        session: u64,
        /// Id of the flushed log session, or `None` if the user judged
        /// nothing (nothing to flush).
        log_session: Option<usize>,
        /// Whether the flushed judgments are crash-safe: `true` when the
        /// flush reached the fsynced WAL before this acknowledgement (or
        /// there was nothing to flush), `false` when storage was failing
        /// (or earlier sessions were still unsynced) and the session is
        /// held in memory until a compaction — [`Request::SyncLog`] or the
        /// close path's own — snapshots it.
        durable: bool,
    },
    /// The log was compacted (see [`Request::SyncLog`]).
    Synced {
        /// Sessions still unsynced after the compaction: 0 unless a
        /// degraded close recorded one after its snapshot.
        spilled: usize,
        /// WAL segments started in the current epoch.
        wal_segments: u64,
        /// Whether a snapshot compaction ran as part of this sync.
        compacted: bool,
    },
    /// Service counters.
    Stats {
        /// Sessions currently resident.
        active_sessions: usize,
        /// Sessions accumulated in the feedback log.
        log_sessions: usize,
        /// Database size.
        n_images: usize,
        /// Sessions flushed into the log by this service instance (closes
        /// and evictions with at least one judgment).
        flushed_sessions: usize,
        /// Rerank rounds whose solver failed to converge (hit `max_iter`)
        /// since this instance started — a rising counter means the
        /// iteration budget is too small for the workload.
        nonconverged_retrains: usize,
    },
    /// The observability snapshot. Integer-only and order-stable, so it
    /// round-trips exactly through JSON; render it as Prometheus text with
    /// [`lrf_obs::prometheus::render`].
    Metrics {
        /// Every registered instrument, frozen.
        snapshot: RegistrySnapshot,
    },
    /// The service is alive and ready (see [`Request::Ping`]).
    Pong {
        /// The wire-protocol version this service speaks
        /// ([`crate::wire::PROTO_VERSION`]) — lets a rolling-upgrade load
        /// balancer discover each backend's protocol without a probe
        /// request that could fail for unrelated reasons.
        proto_version: u32,
    },
    /// The request failed; the session (if any) is otherwise unaffected.
    Error {
        /// What went wrong.
        error: ServiceError,
    },
}

impl Response {
    /// Wraps an error.
    pub(crate) fn err(error: ServiceError) -> Self {
        Response::Error { error }
    }
}

/// Every way a request can fail.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The session id was never issued by this service.
    UnknownSession {
        /// The offending id.
        session: u64,
    },
    /// The session existed but was closed or evicted (LRU capacity or idle
    /// TTL) — the client must open a new one.
    SessionExpired {
        /// The expired id.
        session: u64,
    },
    /// The query image id is outside the database.
    UnknownQuery {
        /// The offending query id.
        query: usize,
        /// Database size.
        n_images: usize,
    },
    /// The judged image id is outside the database.
    UnknownImage {
        /// The offending image id.
        image: usize,
        /// Database size.
        n_images: usize,
    },
    /// The image was already judged in this session.
    DuplicateJudgment {
        /// The re-judged image id.
        image: usize,
    },
    /// The request frame could not be parsed (wire transport only).
    BadRequest {
        /// Parser message.
        reason: String,
    },
    /// Admission control shed this request: the unsynced sessions (recorded
    /// volatile, not yet compacted) reached the watermark, and accepting
    /// new sessions would grow the backlog of judgments that cannot
    /// currently be made crash-safe. Retry after storage recovers (a
    /// successful [`Request::SyncLog`]).
    Overloaded {
        /// Unsynced sessions when the request was shed.
        spilled_sessions: usize,
    },
    /// The operation needs healthy storage and storage is failing; state
    /// already acknowledged as durable is unaffected.
    Degraded {
        /// The underlying storage failure.
        reason: String,
    },
    /// The request frame declared a wire-protocol version this service
    /// does not speak (see [`crate::wire::PROTO_VERSION`]).
    UnsupportedVersion {
        /// The version the client asked for.
        requested: u32,
        /// The version this service speaks.
        supported: u32,
    },
}

impl ServiceError {
    /// The stable machine-readable code for this error — the string
    /// clients switch on. Codes are part of the wire contract: they never
    /// change once shipped (unlike `Display` text, which is for humans and
    /// may be reworded), and every code maps to one HTTP status. The
    /// full table lives in the README's
    /// "Networked serving" section.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownSession { .. } => "unknown_session",
            ServiceError::SessionExpired { .. } => "session_expired",
            ServiceError::UnknownQuery { .. } => "unknown_query",
            ServiceError::UnknownImage { .. } => "unknown_image",
            ServiceError::DuplicateJudgment { .. } => "duplicate_judgment",
            ServiceError::BadRequest { .. } => "bad_request",
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::Degraded { .. } => "degraded",
            ServiceError::UnsupportedVersion { .. } => "unsupported_version",
        }
    }

    /// The HTTP status the transport maps this error to. Chosen so stock
    /// client policy does the right thing: 404/410/409/400 are terminal
    /// (don't retry the same request), 503 is retryable after backoff
    /// (storage outage or load shedding).
    pub(crate) fn http_status(&self) -> u16 {
        match self {
            ServiceError::UnknownSession { .. } => 404,
            ServiceError::SessionExpired { .. } => 410,
            ServiceError::UnknownQuery { .. } => 404,
            ServiceError::UnknownImage { .. } => 404,
            ServiceError::DuplicateJudgment { .. } => 409,
            ServiceError::BadRequest { .. } => 400,
            ServiceError::Overloaded { .. } => 503,
            ServiceError::Degraded { .. } => 503,
            ServiceError::UnsupportedVersion { .. } => 400,
        }
    }
}

impl From<RoundError> for ServiceError {
    fn from(e: RoundError) -> Self {
        match e {
            RoundError::UnknownImage { image, n_images } => {
                ServiceError::UnknownImage { image, n_images }
            }
            RoundError::DuplicateJudgment { image } => ServiceError::DuplicateJudgment { image },
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServiceError::SessionExpired { session } => {
                write!(f, "session {session} was closed or evicted")
            }
            ServiceError::UnknownQuery { query, n_images } => {
                write!(f, "query {query} outside database of {n_images}")
            }
            ServiceError::UnknownImage { image, n_images } => {
                write!(f, "image {image} outside database of {n_images}")
            }
            ServiceError::DuplicateJudgment { image } => {
                write!(f, "image {image} already judged in this session")
            }
            ServiceError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServiceError::Overloaded { spilled_sessions } => write!(
                f,
                "overloaded: {spilled_sessions} session(s) await durable storage"
            ),
            ServiceError::Degraded { reason } => {
                write!(f, "storage degraded: {reason}")
            }
            ServiceError::UnsupportedVersion {
                requested,
                supported,
            } => {
                write!(
                    f,
                    "unsupported protocol version {requested} (this service speaks {supported})"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let reqs = vec![
            Request::Open {
                query: 3,
                scheme: SchemeKind::LrfCsvm,
            },
            Request::Mark {
                session: 7,
                image: 41,
                relevant: true,
            },
            Request::Rerank { session: 7 },
            Request::Page {
                session: 7,
                offset: 20,
                count: 10,
            },
            Request::Close { session: 7 },
            Request::SyncLog,
            Request::Stats,
            Request::Metrics,
            Request::Ping,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
    }

    #[test]
    fn responses_roundtrip_through_json() {
        let resps = vec![
            Response::Opened {
                session: 1,
                screen: vec![5, 2, 9],
            },
            Response::Closed {
                session: 1,
                log_session: Some(12),
                durable: true,
            },
            Response::Closed {
                session: 2,
                log_session: None,
                durable: false,
            },
            Response::Synced {
                spilled: 3,
                wal_segments: 2,
                compacted: true,
            },
            Response::err(ServiceError::SessionExpired { session: 4 }),
            Response::err(ServiceError::Overloaded {
                spilled_sessions: 17,
            }),
            Response::err(ServiceError::Degraded {
                reason: "injected fault: fsync error".into(),
            }),
            Response::err(ServiceError::UnsupportedVersion {
                requested: 9,
                supported: 1,
            }),
            Response::Pong { proto_version: 1 },
            Response::Reranked {
                session: 3,
                round: 2,
                page: vec![1, 0, 4],
                converged: false,
            },
            Response::Stats {
                active_sessions: 2,
                log_sessions: 150,
                n_images: 2000,
                flushed_sessions: 9,
                nonconverged_retrains: 1,
            },
            Response::Metrics {
                snapshot: {
                    let r = lrf_obs::Registry::new();
                    r.counter("requests_total").add(4);
                    r.gauge("active_sessions").set(2);
                    r.histogram("request_latency_ns").record(12_345);
                    r.snapshot()
                },
            },
        ];
        for resp in resps {
            let json = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, resp, "{json}");
        }
    }

    #[test]
    fn errors_display_and_convert() {
        let e: ServiceError = RoundError::DuplicateJudgment { image: 4 }.into();
        assert_eq!(e, ServiceError::DuplicateJudgment { image: 4 });
        assert!(e.to_string().contains("already judged"));
        let e: ServiceError = RoundError::UnknownImage {
            image: 99,
            n_images: 10,
        }
        .into();
        assert!(e.to_string().contains("outside database"));
        let e = ServiceError::Overloaded {
            spilled_sessions: 3,
        };
        assert!(e.to_string().contains("await durable storage"));
        let e = ServiceError::Degraded {
            reason: "fsync error".into(),
        };
        assert!(e.to_string().contains("storage degraded"));
        let e = ServiceError::UnsupportedVersion {
            requested: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("unsupported protocol version 9"));
    }

    #[test]
    fn error_codes_are_stable_and_status_mapped() {
        // The wire contract: one stable code + one HTTP status per variant.
        // Changing any existing pair is a protocol break — this test is the
        // tripwire.
        let table: Vec<(ServiceError, &str, u16)> = vec![
            (
                ServiceError::UnknownSession { session: 1 },
                "unknown_session",
                404,
            ),
            (
                ServiceError::SessionExpired { session: 1 },
                "session_expired",
                410,
            ),
            (
                ServiceError::UnknownQuery {
                    query: 1,
                    n_images: 2,
                },
                "unknown_query",
                404,
            ),
            (
                ServiceError::UnknownImage {
                    image: 1,
                    n_images: 2,
                },
                "unknown_image",
                404,
            ),
            (
                ServiceError::DuplicateJudgment { image: 1 },
                "duplicate_judgment",
                409,
            ),
            (
                ServiceError::BadRequest { reason: "x".into() },
                "bad_request",
                400,
            ),
            (
                ServiceError::Overloaded {
                    spilled_sessions: 1,
                },
                "overloaded",
                503,
            ),
            (
                ServiceError::Degraded { reason: "x".into() },
                "degraded",
                503,
            ),
            (
                ServiceError::UnsupportedVersion {
                    requested: 2,
                    supported: 1,
                },
                "unsupported_version",
                400,
            ),
        ];
        let mut codes = std::collections::HashSet::new();
        for (err, code, status) in table {
            assert_eq!(err.code(), code);
            assert_eq!(err.http_status(), status);
            assert!(codes.insert(code), "duplicate error code {code}");
        }
    }
}
