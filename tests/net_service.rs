//! Networked serving tier E2E: a real TCP client drives multi-session
//! feedback loops against the **sharded** [`NetServer`] and every ranking
//! is asserted bit-identical to an in-process single-shard [`Service`]
//! over the same corpus — the serving topology (shard count, transport,
//! framing) must be invisible in the results.
//!
//! Also covered here: a zero-mark `Rerank` leaving the worker pool whole,
//! a bare (unframed) request enum answered as a 400 over TCP, envelope
//! version rejection with HTTP status mapping, `Ping`/`Pong`, the `/metrics`
//! Prometheus page including the per-shard stage histograms, graceful
//! shutdown draining an unclosed session through the durable-flush path,
//! the bounded request head (`431` for an endless line or a 65th header,
//! with the server still serving afterwards), and the bounded body (`413`
//! on a `Content-Length` over 1 MiB, answered from the head alone).

use corelog::cbir::{collect_log, CorelDataset, CorelSpec, ImageDatabase};
use corelog::core::{LrfConfig, SchemeKind};
use corelog::logdb::{LogStore, SimulationConfig};
use corelog::service::{
    NetConfig, NetServer, Request, Response, Service, ServiceConfig, ServiceMetrics, PROTO_VERSION,
};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

const N_SHARDS: usize = 3;

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

fn sharded_server() -> NetServer {
    let (db, log) = corpus();
    let service = Service::sharded_with_metrics(db, log, N_SHARDS, config(), ServiceMetrics::new());
    NetServer::serve(
        service,
        NetConfig {
            workers: 2,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// A keep-alive HTTP/1.1 client over one real TCP connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to server");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Self {
            writer,
            reader,
            next_id: 0,
        }
    }

    /// One HTTP request/response exchange; returns `(status, body)`.
    fn http(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(message.as_bytes())
            .expect("write request");
        self.writer.flush().expect("flush request");

        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("read status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code present")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("read header");
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("numeric content-length");
                }
            }
        }
        let mut raw = vec![0u8; content_length];
        self.reader.read_exact(&mut raw).expect("read body");
        (status, String::from_utf8(raw).expect("utf-8 body"))
    }

    /// Sends `request` in a versioned envelope and returns
    /// `(status, frame code, decoded body)` after checking the echoed
    /// correlation id.
    fn api(&mut self, request: &Request) -> (u16, String, Response) {
        let id = self.next_id;
        self.next_id += 1;
        let body = serde_json::to_string(request).expect("serialize request");
        let frame = format!("{{\"v\":{PROTO_VERSION},\"id\":{id},\"body\":{body}}}");
        let (status, reply) = self.http("POST", "/api", &frame);
        let value: Value = serde_json::from_str(&reply).expect("JSON reply");
        assert_eq!(
            value.get("id").and_then(Value::as_u64),
            Some(id),
            "correlation id must echo back"
        );
        let code = match value.get("code") {
            Some(Value::Str(code)) => code.clone(),
            other => panic!("frame without a code field: {other:?}"),
        };
        let body =
            serde_json::to_string(value.get("body").expect("frame body")).expect("re-encode");
        let response: Response = serde_json::from_str(&body).expect("decode response body");
        (status, code, response)
    }

    /// Envelope request that must succeed with `code == "ok"`.
    fn ok(&mut self, request: &Request) -> Response {
        let (status, code, response) = self.api(request);
        assert_eq!((status, code.as_str()), (200, "ok"), "request {request:?}");
        response
    }
}

/// One feedback step against either transport: the test driver below runs
/// the reference service in-process and the sharded service over TCP and
/// compares rankings after every rerank.
fn open(handle: &mut dyn FnMut(Request) -> Response, query: usize) -> (u64, Vec<usize>) {
    match handle(Request::Open {
        query,
        scheme: SchemeKind::LrfCsvm,
    }) {
        Response::Opened { session, screen } => (session, screen),
        other => panic!("open failed: {other:?}"),
    }
}

fn feedback_round(
    handle: &mut dyn FnMut(Request) -> Response,
    db: &ImageDatabase,
    session: u64,
    query: usize,
    to_judge: &[usize],
) -> Vec<usize> {
    for &id in to_judge {
        // Later rounds re-page over judged images; the duplicate-judgment
        // rejection is typed and deliberately ignored here.
        let _ = handle(Request::Mark {
            session,
            image: id,
            relevant: db.same_category(id, query),
        });
    }
    match handle(Request::Rerank { session }) {
        Response::Reranked { .. } => {}
        other => panic!("rerank failed: {other:?}"),
    }
    match handle(Request::Page {
        session,
        offset: 0,
        count: usize::MAX,
    }) {
        Response::Page { ids, .. } => ids,
        other => panic!("page failed: {other:?}"),
    }
}

/// The tentpole assertion: interleaved multi-session feedback loops driven
/// over real TCP against the 3-shard server produce rankings bit-identical
/// to the in-process single-shard reference, round after round, and both
/// deployments flush the same number of sessions into the log.
#[test]
fn sharded_tcp_rankings_bit_identical_to_in_process_flat_reference() {
    let (db, log) = corpus();
    let reference = Service::new(db, log, config());
    let server = sharded_server();
    let mut client = Client::connect(server.addr());

    let queries = [3usize, 17, 30];
    let mut via_ref = |req: Request| reference.handle(req);
    let mut opened_ref = Vec::new();
    let mut opened_net = Vec::new();
    // Interleaved opens: all sessions coexist on both deployments.
    for &q in &queries {
        opened_ref.push(open(&mut via_ref, q));
        let mut via_net = |req: Request| client.ok(&req);
        opened_net.push(open(&mut via_net, q));
    }
    for (a, b) in opened_ref.iter().zip(&opened_net) {
        assert_eq!(a.1, b.1, "initial screens must match");
    }

    // Two feedback rounds per session, interleaved across sessions.
    let mut judge_ref: Vec<Vec<usize>> = opened_ref.iter().map(|o| o.1.clone()).collect();
    let mut judge_net = judge_ref.clone();
    for round in 0..2usize {
        for (i, &q) in queries.iter().enumerate() {
            let ranking_ref = feedback_round(
                &mut via_ref,
                reference.db(),
                opened_ref[i].0,
                q,
                &judge_ref[i],
            );
            // `api`, not `ok`: duplicate re-judgments answer a typed 409
            // that the round helper deliberately ignores on both sides.
            let mut via_net = |req: Request| client.api(&req).2;
            let ranking_net = feedback_round(
                &mut via_net,
                reference.db(),
                opened_net[i].0,
                q,
                &judge_net[i],
            );
            assert_eq!(
                ranking_ref, ranking_net,
                "round {round}, query {q}: sharded TCP ranking diverged"
            );
            // Next round judges the refined head the paper's loop would.
            judge_ref[i] = ranking_ref[..8].to_vec();
            judge_net[i] = ranking_net[..8].to_vec();
        }
    }

    // Close two of three sessions on each side; the third stays open to
    // exercise the shutdown drain path.
    for i in 0..2 {
        match via_ref(Request::Close {
            session: opened_ref[i].0,
        }) {
            Response::Closed { .. } => {}
            other => panic!("reference close failed: {other:?}"),
        }
        let session = opened_net[i].0;
        match client.ok(&Request::Close { session }) {
            Response::Closed { .. } => {}
            other => panic!("net close failed: {other:?}"),
        }
    }

    // Graceful shutdown drains the still-open session through the
    // durable-flush path: both logs grew by all three sessions.
    let log_ref = reference.into_log();
    let log_net = server.shutdown().expect("sole owner after shutdown");
    assert_eq!(log_ref.n_sessions(), 24 + 3);
    assert_eq!(log_net.n_sessions(), 24 + 3);
}

/// A bare request enum is a typed 400 over TCP, envelope version
/// mismatches map to a typed 400, and unknown routes are 404s.
#[test]
fn wire_framing_and_status_mapping_over_tcp() {
    let server = sharded_server();
    let mut client = Client::connect(server.addr());

    // No envelope, no request: a bare enum is a bad request on id 0, and
    // the keep-alive connection still serves.
    let (status, body) = client.http("POST", "/api", "\"Ping\"");
    assert_eq!(status, 400);
    let value: Value = serde_json::from_str(&body).expect("error frame");
    assert_eq!(value.get("code"), Some(&Value::Str("bad_request".into())));
    assert_eq!(value.get("id").and_then(Value::as_u64), Some(0));

    // Envelope framing: Ping reports the protocol version.
    let response = client.ok(&Request::Ping);
    assert_eq!(
        response,
        Response::Pong {
            proto_version: PROTO_VERSION
        }
    );

    // A future protocol version is rejected, typed, with this client's id.
    let (status, body) = client.http("POST", "/api", "{\"v\":9,\"id\":5,\"body\":\"Ping\"}");
    assert_eq!(status, 400);
    let value: Value = serde_json::from_str(&body).expect("error frame");
    assert_eq!(
        value.get("code"),
        Some(&Value::Str("unsupported_version".into()))
    );
    assert_eq!(value.get("id").and_then(Value::as_u64), Some(5));

    // Unknown session maps to its stable status through the transport.
    let (status, code, _) = client.api(&Request::Rerank { session: 999 });
    assert_eq!((status, code.as_str()), (404, "unknown_session"));

    // Unknown routes 404 without breaking the connection.
    let (status, _) = client.http("GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = client.http("POST", "/api", "{\"v\":1,\"id\":6,\"body\":\"Stats\"}");
    assert_eq!(status, 200, "connection survives the 404");
}

/// A `Rerank` before any `Mark` is a round with nothing to fit: it is
/// answered with the opening screen, and the pool's only worker is still
/// there for the next connection.
#[test]
fn rerank_before_any_mark_is_answered_and_the_worker_survives() {
    let (db, log) = corpus();
    let service = Service::sharded_with_metrics(db, log, N_SHARDS, config(), ServiceMetrics::new());
    let server = NetServer::serve(
        service,
        NetConfig {
            workers: 1,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral port");
    {
        let mut client = Client::connect(server.addr());
        let (session, screen) = open(&mut |request| client.ok(&request), 5);
        assert_eq!(
            client.ok(&Request::Rerank { session }),
            Response::Reranked {
                session,
                round: 1,
                page: screen,
                converged: true,
            }
        );
    }
    let mut client = Client::connect(server.addr());
    assert_eq!(
        client.ok(&Request::Ping),
        Response::Pong {
            proto_version: PROTO_VERSION
        }
    );
}

/// `GET /metrics` serves the Prometheus page, including the per-shard
/// serving-plane instruments and the transport counters.
#[test]
fn metrics_route_exposes_shard_and_transport_instruments() {
    let server = sharded_server();
    let mut client = Client::connect(server.addr());

    // Drive one search-bearing request so shard histograms have samples.
    let (session, _) = {
        let mut via_net = |req: Request| client.ok(&req);
        open(&mut via_net, 7)
    };
    client.ok(&Request::Close { session });

    let (status, page) = client.http("GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE shard0_search_ns histogram",
        "# TYPE shard2_search_ns histogram",
        "# TYPE shard_jobs_total counter",
        "# TYPE shard_queue_depth gauge",
        "# TYPE net_requests_total counter",
        "# TYPE net_connections_total counter",
        "request_latency_ns_count",
    ] {
        assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
    }
    // Opening a session searched every shard exactly once.
    for shard in 0..N_SHARDS {
        let count_line = page
            .lines()
            .find(|l| l.starts_with(&format!("shard{shard}_search_ns_count")))
            .unwrap_or_else(|| panic!("no count sample for shard {shard}"));
        let count: u64 = count_line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("numeric count");
        assert!(count >= 1, "shard {shard} recorded no searches");
    }
}

/// Writes `head` on a fresh connection and returns the status of whatever
/// comes back. The write may be cut short by the server hanging up, and a
/// server that never answers fails the read instead of hanging the suite.
fn status_of_raw_head(addr: SocketAddr, head: Vec<u8>) -> u16 {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&head);
    });
    let mut status_line = String::new();
    BufReader::new(&stream)
        .read_line(&mut status_line)
        .expect("the server answers an oversized head instead of buffering it");
    sender.join().expect("sender thread");
    status_line
        .split_whitespace()
        .nth(1)
        .expect("status code present")
        .parse()
        .expect("numeric status")
}

/// After an oversized head the server must have counted it and still be
/// serving: `Ping` on a new connection, one bad request on the books.
fn assert_rejected_and_still_serving(server: &NetServer) {
    let mut client = Client::connect(server.addr());
    assert_eq!(
        client.ok(&Request::Ping),
        Response::Pong {
            proto_version: PROTO_VERSION
        }
    );
    let (_, page) = client.http("GET", "/metrics", "");
    let bad = page
        .lines()
        .find_map(|l| l.strip_prefix("net_bad_requests_total "))
        .expect("bad-request counter on the metrics page");
    assert_eq!(bad.trim(), "1", "the oversized head is counted");
}

/// A line that never ends is answered `431` after 8 KiB and hung up on,
/// not buffered until the process dies.
#[test]
fn endless_request_line_gets_431_and_the_server_survives() {
    let server = sharded_server();
    assert_eq!(status_of_raw_head(server.addr(), vec![b'A'; 1 << 20]), 431);
    assert_rejected_and_still_serving(&server);
}

/// A head may carry 64 headers; the 65th is answered `431`.
#[test]
fn sixty_five_headers_get_431_and_the_server_survives() {
    let server = sharded_server();
    let ping_with_fillers = |fillers: usize| {
        let mut head = b"POST /api HTTP/1.1\r\n".to_vec();
        for i in 0..fillers {
            head.extend_from_slice(format!("X-Filler-{i}: 0\r\n").as_bytes());
        }
        head.extend_from_slice(b"Content-Length: 28\r\n\r\n{\"v\":1,\"id\":0,\"body\":\"Ping\"}");
        head
    };
    assert_eq!(
        status_of_raw_head(server.addr(), ping_with_fillers(63)),
        200
    );
    assert_eq!(
        status_of_raw_head(server.addr(), ping_with_fillers(64)),
        431
    );
    assert_rejected_and_still_serving(&server);
}

/// A head announcing a body one byte over the 1 MiB cap is answered `413`
/// on the head alone — no body is sent, so a server that waited for it
/// would time this read out — and hung up on.
#[test]
fn oversized_content_length_gets_413_without_waiting_for_the_body() {
    let server = sharded_server();
    let head = b"POST /api HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n".to_vec();
    assert_eq!(status_of_raw_head(server.addr(), head), 413);
    assert_rejected_and_still_serving(&server);
}

/// A head that is not UTF-8 is malformed like any other: answered `400`
/// and counted, not hung up on without a word.
#[test]
fn non_utf8_request_head_gets_400_and_the_server_survives() {
    let server = sharded_server();
    let head = b"GET /\xff HTTP/1.1\r\n\r\n".to_vec();
    assert_eq!(status_of_raw_head(server.addr(), head), 400);
    assert_rejected_and_still_serving(&server);
}

/// The cap is inclusive: a body of exactly 1 MiB is read and routed.
#[test]
fn body_of_exactly_one_mib_is_read_and_routed() {
    let server = sharded_server();
    // An enveloped `Ping`, padded to the cap with JSON whitespace.
    let frame = "{\"v\":1,\"id\":0,\"body\":\"Ping\"}";
    let body = format!("{frame}{}", " ".repeat((1 << 20) - frame.len()));
    assert_eq!(body.len(), 1 << 20);
    let (status, reply) = Client::connect(server.addr()).http("POST", "/api", &body);
    assert_eq!(status, 200, "{reply}");
    let value: Value = serde_json::from_str(&reply).expect("reply frame");
    let body = serde_json::to_string(value.get("body").expect("frame body")).expect("re-encode");
    let response: Response = serde_json::from_str(&body).expect("decode reply body");
    assert_eq!(
        response,
        Response::Pong {
            proto_version: PROTO_VERSION
        }
    );
}
