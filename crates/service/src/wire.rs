//! The versioned wire envelope — framing for networked transports.
//!
//! A transport exchange is one JSON document per direction, and there is
//! one frame: the request `{"v": 1, "id": 7, "body": <Request>}` is
//! answered by `{"v": 1, "id": 7, "code": "ok" | <error code>, "body":
//! <Response>}`. `v` is the protocol version ([`PROTO_VERSION`]); `id` is
//! an opaque client-chosen correlation id echoed back verbatim, so clients
//! may pipeline requests over one connection and match responses by id;
//! `code` duplicates the error's stable [`ServiceError::code`] at the frame
//! level so clients can branch without destructuring the body.
//!
//! Anything else — a bare [`Request`] enum, an envelope whose `v` is not a
//! non-negative integer, text that is not JSON — is a typed
//! [`ServiceError::BadRequest`], framed on the request's `id` when that is
//! readable and on `0` otherwise. An envelope with an unknown version is
//! rejected with the typed [`ServiceError::UnsupportedVersion`] — never
//! silently parsed as something else — so the protocol can evolve by
//! bumping [`PROTO_VERSION`] without old servers misreading new frames.

use crate::api::{Request, Response, ServiceError};
use serde::{Deserialize, Serialize, Value};

/// The wire-protocol version this build speaks. Bump on any change to the
/// frame layout or to the meaning of an existing field; adding new
/// `Request`/`Response` variants is backward-compatible and does not bump.
pub const PROTO_VERSION: u32 = 1;

/// How a request was framed — decides how its response must be framed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameMode {
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

/// A wire-level failure, carrying the framing its error response is
/// rendered in (the client's correlation id when it was readable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Framing to render the error response in.
    pub mode: FrameMode,
    /// The typed error.
    pub error: ServiceError,
}

/// Parses one `{v, id, body}` request frame.
pub fn parse_request(raw: &str) -> Result<ParsedRequest, WireError> {
    let bad_request = |mode, reason: String| WireError {
        mode,
        error: ServiceError::BadRequest { reason },
    };
    let value: Value = match serde_json::from_str(raw) {
        Ok(v) => v,
        Err(e) => return Err(bad_request(FrameMode::Envelope { id: 0 }, e.to_string())),
    };

    // The correlation id is read before version validation so even an
    // unsupported-version error can be correlated by the client.
    let id = value.get("id").and_then(Value::as_u64);
    let mode = FrameMode::Envelope {
        id: id.unwrap_or(0),
    };

    let Some(v) = value.get("v").and_then(Value::as_u64) else {
        return Err(bad_request(
            mode,
            "envelope field \"v\" must be a non-negative integer".into(),
        ));
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
        return Err(bad_request(
            mode,
            "envelope field \"id\" must be a non-negative integer".into(),
        ));
    }
    let Some(body) = value.get("body") else {
        return Err(bad_request(
            mode,
            "envelope is missing the \"body\" field".into(),
        ));
    };
    match Request::from_value(body) {
        Ok(body) => Ok(ParsedRequest { mode, body }),
        Err(e) => Err(bad_request(mode, e.to_string())),
    }
}

/// Renders a response as the `{v, id, code, body}` frame answering `mode`.
pub fn render_response(mode: FrameMode, response: &Response) -> String {
    let FrameMode::Envelope { id } = mode;
    let code = match response {
        Response::Error { error } => error.code(),
        _ => "ok",
    };
    let value = Value::Object(vec![
        ("v".into(), Value::U64(u64::from(PROTO_VERSION))),
        ("id".into(), Value::U64(id)),
        ("code".into(), Value::Str(code.into())),
        ("body".into(), response.to_value()),
    ]);
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
    fn envelope_roundtrips_with_correlation_id() {
        for (id, request) in [
            Request::Open {
                query: 9,
                scheme: SchemeKind::RfSvm,
            },
            Request::Mark {
                session: 7,
                image: 41,
                relevant: true,
            },
            Request::Rerank { session: 3 },
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
        ]
        .into_iter()
        .enumerate()
        {
            let id = 40 + id as u64;
            let body = serde_json::to_string(&request).unwrap();
            let raw = format!(r#"{{"v": 1, "id": {id}, "body": {body}}}"#);
            let parsed = parse_request(&raw).unwrap();
            assert_eq!(parsed.mode, FrameMode::Envelope { id }, "{raw}");
            assert_eq!(parsed.body, request, "{raw}");
        }

        let rendered = render_response(
            FrameMode::Envelope { id: 42 },
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
    fn bare_enum_requests_are_bad_requests() {
        for raw in ["\"Stats\"", r#"{"Open": {"query": 9, "scheme": "RfSvm"}}"#] {
            let err = parse_request(raw).unwrap_err();
            assert_eq!(err.mode, FrameMode::Envelope { id: 0 }, "{raw}");
            assert!(
                matches!(err.error, ServiceError::BadRequest { .. }),
                "{raw} -> {:?}",
                err.error
            );
        }
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
        // Garbage that is not JSON at all is a bad request on id 0.
        let err = parse_request("definitely not json").unwrap_err();
        assert_eq!(err.mode, FrameMode::Envelope { id: 0 });
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
