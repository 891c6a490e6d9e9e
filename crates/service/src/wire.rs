//! The versioned wire envelope — framing for networked transports.
//!
//! A transport exchange is one JSON document per direction. Two request
//! forms are accepted:
//!
//! * **Envelope** (preferred): `{"v": 1, "id": 7, "body": <Request>}`.
//!   `v` is the protocol version ([`PROTO_VERSION`]); `id` is an opaque
//!   client-chosen correlation id echoed back verbatim, so clients may
//!   pipeline requests over one connection and match responses by id.
//!   The reply is `{"v": 1, "id": 7, "code": "ok" | <error code>,
//!   "body": <Response>}` — `code` duplicates the error's stable
//!   [`ServiceError::code`] at the frame level so clients can branch
//!   without destructuring the body.
//! * **Legacy**: the bare [`Request`] enum JSON the in-process
//!   [`crate::Service::handle_json`] has always accepted. The reply is the
//!   bare [`Response`] enum, unchanged — existing clients keep working.
//!
//! The two forms cannot collide: every legacy request is either a JSON
//! string (`"Stats"`) or an object whose single key is a `Request` variant
//! name, and `"v"` is not a variant name. An envelope with an unknown
//! version is rejected with the typed
//! [`ServiceError::UnsupportedVersion`] — never silently parsed as
//! something else — so the protocol can evolve by bumping [`PROTO_VERSION`]
//! without old servers misreading new frames.

use crate::api::{Request, Response, ServiceError};
use serde::{Deserialize, Serialize, Value};

/// The wire-protocol version this build speaks. Bump on any change to the
/// frame layout or to the meaning of an existing field; adding new
/// `Request`/`Response` variants is backward-compatible and does not bump.
pub const PROTO_VERSION: u32 = 1;

/// How a request was framed — decides how its response must be framed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameMode {
    /// Bare `Request` enum JSON; reply with bare `Response` enum JSON.
    Legacy,
    /// `{v, id, body}` envelope; reply with a `{v, id, code, body}` frame
    /// echoing this correlation id.
    Envelope {
        /// The client's correlation id, echoed back verbatim.
        id: u64,
    },
}

/// A successfully parsed wire request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The framing the client used.
    pub mode: FrameMode,
    /// The request itself.
    pub body: Request,
}

/// A wire-level failure, carrying the best-known framing so the error
/// response can still be framed the way the client expects (an envelope
/// client gets an envelope error with its correlation id when the id was
/// readable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Framing to render the error response in.
    pub mode: FrameMode,
    /// The typed error.
    pub error: ServiceError,
}

/// Parses one wire request, auto-detecting envelope vs. legacy framing.
pub fn parse_request(raw: &str) -> Result<ParsedRequest, WireError> {
    let value: Value = match serde_json::from_str(raw) {
        Ok(v) => v,
        Err(e) => {
            return Err(WireError {
                mode: FrameMode::Legacy,
                error: ServiceError::BadRequest {
                    reason: e.to_string(),
                },
            })
        }
    };

    let is_envelope = matches!(&value, Value::Object(_)) && value.get("v").is_some();
    if !is_envelope {
        // Legacy bare-enum form.
        return match Request::from_value(&value) {
            Ok(body) => Ok(ParsedRequest {
                mode: FrameMode::Legacy,
                body,
            }),
            Err(e) => Err(WireError {
                mode: FrameMode::Legacy,
                error: ServiceError::BadRequest {
                    reason: e.to_string(),
                },
            }),
        };
    }

    // The correlation id is read before version validation so even an
    // unsupported-version error can be correlated by the client.
    let id = value.get("id").and_then(Value::as_u64);
    let mode = FrameMode::Envelope {
        id: id.unwrap_or(0),
    };

    let Some(v) = value.get("v").and_then(Value::as_u64) else {
        return Err(WireError {
            mode,
            error: ServiceError::BadRequest {
                reason: "envelope field \"v\" must be a non-negative integer".into(),
            },
        });
    };
    if v != u64::from(PROTO_VERSION) {
        return Err(WireError {
            mode,
            error: ServiceError::UnsupportedVersion {
                requested: u32::try_from(v).unwrap_or(u32::MAX),
                supported: PROTO_VERSION,
            },
        });
    }
    if id.is_none() {
        return Err(WireError {
            mode,
            error: ServiceError::BadRequest {
                reason: "envelope field \"id\" must be a non-negative integer".into(),
            },
        });
    }
    let Some(body) = value.get("body") else {
        return Err(WireError {
            mode,
            error: ServiceError::BadRequest {
                reason: "envelope is missing the \"body\" field".into(),
            },
        });
    };
    match Request::from_value(body) {
        Ok(body) => Ok(ParsedRequest { mode, body }),
        Err(e) => Err(WireError {
            mode,
            error: ServiceError::BadRequest {
                reason: e.to_string(),
            },
        }),
    }
}

/// Renders a response in the framing the request used: the bare enum for
/// legacy requests (byte-identical to what `handle_json` always returned),
/// or a `{v, id, code, body}` frame for envelope requests.
pub fn render_response(mode: FrameMode, response: &Response) -> String {
    let value = match mode {
        FrameMode::Legacy => response.to_value(),
        FrameMode::Envelope { id } => {
            let code = match response {
                Response::Error { error } => error.code(),
                _ => "ok",
            };
            Value::Object(vec![
                ("v".into(), Value::U64(u64::from(PROTO_VERSION))),
                ("id".into(), Value::U64(id)),
                ("code".into(), Value::Str(code.into())),
                ("body".into(), response.to_value()),
            ])
        }
    };
    // lrf-lint: allow(service-panic): serializing an owned value tree is
    // infallible; a failure here is a serializer bug, not client input.
    serde_json::to_string(&value).expect("response serialization is infallible")
}

/// The HTTP status a transport maps `response` to: errors carry their
/// per-code status ([`ServiceError::http_status`]); everything else is 200.
pub(crate) fn http_status(response: &Response) -> u16 {
    match response {
        Response::Error { error } => error.http_status(),
        _ => 200,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrf_core::SchemeKind;

    #[test]
    fn legacy_requests_parse_unchanged() {
        let parsed = parse_request(r#"{"Open": {"query": 9, "scheme": "RfSvm"}}"#).unwrap();
        assert_eq!(parsed.mode, FrameMode::Legacy);
        assert_eq!(
            parsed.body,
            Request::Open {
                query: 9,
                scheme: SchemeKind::RfSvm
            }
        );
        let parsed = parse_request("\"Stats\"").unwrap();
        assert_eq!(parsed.mode, FrameMode::Legacy);
        assert_eq!(parsed.body, Request::Stats);
    }

    #[test]
    fn legacy_responses_render_as_the_bare_enum() {
        let resp = Response::Pong {
            proto_version: PROTO_VERSION,
        };
        let legacy = render_response(FrameMode::Legacy, &resp);
        assert_eq!(legacy, serde_json::to_string(&resp).unwrap());
    }

    #[test]
    fn envelope_roundtrips_with_correlation_id() {
        let raw = r#"{"v": 1, "id": 42, "body": {"Rerank": {"session": 3}}}"#;
        let parsed = parse_request(raw).unwrap();
        assert_eq!(parsed.mode, FrameMode::Envelope { id: 42 });
        assert_eq!(parsed.body, Request::Rerank { session: 3 });

        let rendered = render_response(
            parsed.mode,
            &Response::Pong {
                proto_version: PROTO_VERSION,
            },
        );
        let frame: Value = serde_json::from_str(&rendered).unwrap();
        assert_eq!(frame.get("v").and_then(Value::as_u64), Some(1));
        assert_eq!(frame.get("id").and_then(Value::as_u64), Some(42));
        assert_eq!(frame.get("code"), Some(&Value::Str("ok".into())));
        let body: Response = Response::from_value(frame.get("body").unwrap()).unwrap();
        assert_eq!(
            body,
            Response::Pong {
                proto_version: PROTO_VERSION
            }
        );
    }

    #[test]
    fn unknown_version_is_a_typed_rejection_with_the_client_id() {
        let err = parse_request(r#"{"v": 9, "id": 7, "body": "Stats"}"#).unwrap_err();
        assert_eq!(err.mode, FrameMode::Envelope { id: 7 });
        assert_eq!(
            err.error,
            ServiceError::UnsupportedVersion {
                requested: 9,
                supported: PROTO_VERSION
            }
        );
        // The rendered error frame carries the stable code.
        let rendered = render_response(err.mode, &Response::err(err.error));
        let frame: Value = serde_json::from_str(&rendered).unwrap();
        assert_eq!(
            frame.get("code"),
            Some(&Value::Str("unsupported_version".into()))
        );
        assert_eq!(frame.get("id").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn malformed_envelopes_are_bad_requests() {
        for raw in [
            r#"{"v": "one", "id": 1, "body": "Stats"}"#,
            r#"{"v": 1, "body": "Stats"}"#,
            r#"{"v": 1, "id": 1}"#,
            r#"{"v": 1, "id": 1, "body": {"Nope": null}}"#,
        ] {
            let err = parse_request(raw).unwrap_err();
            assert!(
                matches!(err.error, ServiceError::BadRequest { .. }),
                "{raw} -> {:?}",
                err.error
            );
        }
        // Garbage that is not JSON at all stays a legacy-framed bad request.
        let err = parse_request("definitely not json").unwrap_err();
        assert_eq!(err.mode, FrameMode::Legacy);
        assert!(matches!(err.error, ServiceError::BadRequest { .. }));
    }

    #[test]
    fn status_mapping_follows_the_error_table() {
        assert_eq!(http_status(&Response::Pong { proto_version: 1 }), 200);
        assert_eq!(
            http_status(&Response::err(ServiceError::UnknownSession { session: 1 })),
            404
        );
        assert_eq!(
            http_status(&Response::err(ServiceError::Overloaded {
                spilled_sessions: 2
            })),
            503
        );
    }
}
