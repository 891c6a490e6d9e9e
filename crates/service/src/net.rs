//! The networked serving tier: a vendored, dependency-free HTTP/1.1
//! transport over [`std::net::TcpListener`].
//!
//! One acceptor thread feeds accepted connections to a fixed worker pool
//! over a channel; each worker runs a keep-alive request loop against the
//! shared [`Service`]:
//!
//! ```text
//!  clients ──TCP──▶ acceptor ──mpsc──▶ worker pool (N threads)
//!                                         │  POST /api      → Service::handle_wire
//!                                         │  GET  /metrics  → Prometheus text
//!                                         ▼
//!                                      Arc<Service> (sharded or flat)
//! ```
//!
//! The transport is deliberately minimal — request line + headers +
//! `Content-Length` body, keep-alive by default, `Connection: close`
//! honored — because the protocol surface lives one layer down in
//! [`crate::wire`] (versioned envelope, stable error codes, HTTP status
//! mapping). [`NetServer::shutdown`] is graceful: the listener stops,
//! workers finish their in-flight requests, and the service drains every
//! resident session through the durable-flush path
//! ([`Service::into_log`]) before the log store is handed back.

use crate::metrics::names;
use crate::service::Service;
use lrf_logdb::LogStore;
use lrf_obs::Counter;
use lrf_sync::atomic::{AtomicBool, Ordering};
use lrf_sync::{mpsc, Arc, Mutex, MutexExt};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Transport tuning knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`NetServer::addr`]).
    pub addr: String,
    /// Worker threads handling connections (min 1).
    pub workers: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
        }
    }
}

/// A running network server over one [`Service`].
pub struct NetServer {
    /// `Some` until [`shutdown`](Self::shutdown) consumes it.
    service: Option<Arc<Service>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// Transport counters, resolved once at boot.
struct NetCounters {
    requests: Arc<Counter>,
    bad_requests: Arc<Counter>,
}

impl NetServer {
    /// Binds `config.addr`, spawns the acceptor and worker pool, and
    /// starts serving `service`.
    ///
    /// # Errors
    /// Propagates the bind failure (address in use, permission).
    pub fn serve(service: Service, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let stop = Arc::new(AtomicBool::new(false));
        let registry = service.metrics().registry();
        let connections = registry.counter(names::NET_CONNECTIONS);
        let counters = || NetCounters {
            requests: registry.counter(names::NET_REQUESTS),
            bad_requests: registry.counter(names::NET_BAD_REQUESTS),
        };

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let svc = Arc::clone(&service);
            let worker_stop = Arc::clone(&stop);
            let net = counters();
            workers.push(std::thread::spawn(move || loop {
                let stream = rx.lock_recover().recv();
                match stream {
                    Ok(stream) => handle_connection(&svc, stream, &worker_stop, &net),
                    // Channel hung up: the acceptor exited, we're done.
                    Err(_) => break,
                }
            }));
        }

        let acceptor_stop = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if acceptor_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    connections.inc();
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // conn_tx drops here; workers drain the backlog and exit.
        });

        Ok(Self {
            service: Some(service),
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the listener (e.g. for metric assertions).
    pub fn service(&self) -> &Service {
        // lrf-lint: allow(service-panic): the field is `Some` for every
        // `&self` — only `shutdown(self)` takes it, consuming the server.
        self.service.as_deref().expect("server is running")
    }

    /// Graceful shutdown: stops accepting, lets workers finish their
    /// in-flight requests, then drains every resident session through
    /// the durable-flush path and returns the accumulated log store.
    /// `None` only if an outstanding [`Arc`] clone of the service exists
    /// (this module never hands one out).
    pub fn shutdown(mut self) -> Option<LogStore> {
        self.stop_threads();
        let service = self.service.take()?;
        Arc::try_unwrap(service).ok().map(Service::into_log)
    }

    /// Signals shutdown, wakes the blocked acceptor with a self-connect,
    /// and joins every thread. Idempotent.
    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = TcpStream::connect(self.addr);
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    /// The client asked for `Connection: close`.
    close: bool,
}

/// Longest request line or header line accepted, terminator included.
const MAX_LINE_BYTES: usize = 8 << 10;
/// Most header lines accepted in one request head.
const MAX_HEADERS: usize = 64;
/// Largest request body accepted, as announced by `Content-Length`.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Why reading a request ended without one.
enum ReadEnd {
    /// Peer closed (or shutdown hit an idle connection): hang up quietly.
    Closed,
    /// Malformed head or a body that is not UTF-8: answer 400 and hang up.
    Malformed,
    /// `Content-Length` over [`MAX_BODY_BYTES`]: answer 413 and hang up
    /// without reading the body.
    BodyTooLarge,
    /// A line over [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`]
    /// headers: answer 431 and hang up.
    HeadTooLarge,
}

/// Serves one connection's keep-alive request loop.
fn handle_connection(service: &Service, stream: TcpStream, stop: &AtomicBool, net: &NetCounters) {
    // A finite read timeout keeps idle keep-alive connections from
    // pinning workers across shutdown; the read loop retries on timeout
    // until data arrives or shutdown is signalled.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    // Responses are single writes; Nagle would only add delayed-ACK
    // stalls to the request-per-round-trip workload.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    loop {
        match read_request(&mut reader, stop) {
            Ok(request) => {
                net.requests.inc();
                let (status, content_type, body) = route(service, &request, net);
                if write_response(&stream, status, content_type, &body, request.close).is_err() {
                    return;
                }
                if request.close {
                    return;
                }
            }
            Err(end) => {
                let (status, body) = match end {
                    ReadEnd::Closed => return,
                    ReadEnd::Malformed => (400, "{\"error\":\"malformed_http_request\"}"),
                    ReadEnd::BodyTooLarge => (413, "{\"error\":\"payload_too_large\"}"),
                    ReadEnd::HeadTooLarge => {
                        (431, "{\"error\":\"request_header_fields_too_large\"}")
                    }
                };
                net.bad_requests.inc();
                let _ = write_response(&stream, status, "application/json", body, true);
                return;
            }
        }
    }
}

/// Dispatches one request to its route.
fn route(
    service: &Service,
    request: &HttpRequest,
    net: &NetCounters,
) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/api") => {
            let (body, status) = service.handle_wire(&request.body);
            (status, "application/json", body)
        }
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4",
            service.metrics_prometheus(),
        ),
        _ => {
            net.bad_requests.inc();
            (
                404,
                "application/json",
                "{\"error\":\"not_found\"}".to_string(),
            )
        }
    }
}

/// Reads one full request (head + body) off the connection.
fn read_request(
    reader: &mut BufReader<&TcpStream>,
    stop: &AtomicBool,
) -> Result<HttpRequest, ReadEnd> {
    // Request line — skipping stray blank lines between pipelined
    // requests.
    let mut line = String::new();
    loop {
        read_head_line(reader, stop, &mut line)?;
        if line.is_empty() {
            return Err(ReadEnd::Closed);
        }
        if !line.trim().is_empty() {
            break;
        }
        line.clear();
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(ReadEnd::Malformed);
    };
    let (method, path) = (method.to_string(), path.to_string());

    // Headers until the blank line.
    let mut content_length = 0usize;
    let mut close = false;
    for n_headers in 0.. {
        let mut header = String::new();
        read_head_line(reader, stop, &mut header)?;
        if header.is_empty() {
            return Err(ReadEnd::Malformed);
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if n_headers == MAX_HEADERS {
            return Err(ReadEnd::HeadTooLarge);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadEnd::Malformed);
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| ReadEnd::Malformed)?;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadEnd::BodyTooLarge);
    }

    // Body: exactly Content-Length bytes, riding out read timeouts.
    let mut raw = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        match reader.read(&mut raw[filled..]) {
            Ok(0) => return Err(ReadEnd::Closed),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return Err(ReadEnd::Closed);
                }
            }
            Err(_) => return Err(ReadEnd::Closed),
        }
    }
    let body = String::from_utf8(raw).map_err(|_| ReadEnd::Malformed)?;
    Ok(HttpRequest {
        method,
        path,
        body,
        close,
    })
}

/// Appends one line of the request head to `line`, waiting out idle
/// keep-alive timeouts. The line is left empty at end of stream. Never
/// buffers more than [`MAX_LINE_BYTES`]: a peer that streams bytes without
/// a newline gets [`ReadEnd::HeadTooLarge`], not an ever-growing `String`.
fn read_head_line(
    reader: &mut BufReader<&TcpStream>,
    stop: &AtomicBool,
    line: &mut String,
) -> Result<(), ReadEnd> {
    loop {
        // A timed-out read keeps what it already appended, so the budget
        // is what is left of the cap, not the cap.
        let room = MAX_LINE_BYTES.saturating_sub(line.len()) as u64;
        match reader.by_ref().take(room).read_line(line) {
            Ok(_) if line.ends_with('\n') => return Ok(()),
            Ok(_) if line.len() >= MAX_LINE_BYTES => return Err(ReadEnd::HeadTooLarge),
            // End of stream, possibly mid-line.
            Ok(_) => return Ok(()),
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return Err(ReadEnd::Closed);
                }
            }
            // `read_line` found bytes that are not UTF-8.
            Err(e) if e.kind() == ErrorKind::InvalidData => return Err(ReadEnd::Malformed),
            Err(_) => return Err(ReadEnd::Closed),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Writes one response frame.
fn write_response(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let connection = if close { "close" } else { "keep-alive" };
    // One write per response: head + body in a single segment, so the
    // reply never straddles a delayed ACK.
    let frame = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}
