//! The simulated user: a keep-alive HTTP/1.1 client speaking the
//! `{v,id,body}` envelope, and the closed-loop session driver that judges
//! pages by ground truth. Every reply is checked as it arrives.

use crate::gen::{category_of, Rng, Scheme, SessionPlan, LABEL_NOISE};
use crate::sut::{self, SCREEN_SIZE};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Ids requested beyond those already judged, so a page always holds a
/// full round of unjudged images.
pub const PAGE_HEADROOM: usize = 20;

/// One request, in the harness's own vocabulary (`sut.rs` maps it onto
/// the service's wire types).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Open {
        query: usize,
        scheme: Scheme,
    },
    Mark {
        session: u64,
        image: usize,
        relevant: bool,
    },
    Rerank {
        session: u64,
    },
    Page {
        session: u64,
        offset: usize,
        count: usize,
    },
    Close {
        session: u64,
    },
    Ping,
}

/// One reply. Anything the driver does not expect (typed errors included)
/// lands in `Other` and fails the operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    Opened { session: u64, screen: Vec<usize> },
    Marked { n_judged: usize },
    Reranked { page: Vec<usize> },
    Page { ids: Vec<usize> },
    Closed { flushed: bool, durable: bool },
    Pong,
    Other(String),
}

/// The timed request kinds, in ledger order.
pub const KINDS: [&str; 5] = ["open", "mark", "rerank", "page", "close"];
const OPEN: usize = 0;
const MARK: usize = 1;
const RERANK: usize = 2;
const PAGE: usize = 3;
const CLOSE: usize = 4;

/// Something that answers one request at a time.
pub trait Transport {
    fn call(&mut self, op: &Op) -> Result<Reply, String>;
}

/// How long a client polls for a reply before it blocks.
const POLL_WINDOW: std::time::Duration = std::time::Duration::from_micros(200);

/// One keep-alive connection.
pub struct TcpConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl TcpConn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self {
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Polls for the reply for up to [`POLL_WINDOW`] before the blocking
    /// read. A sleeping client is woken tens of microseconds late on an
    /// idle virtual CPU, by an amount the host decides; polling keeps the
    /// generator's own wake-up out of the cheapest requests' latency. A
    /// reply that takes longer than the window is awaited blocked, as a
    /// real caller would.
    fn poll_briefly(&mut self) -> std::io::Result<()> {
        if !self.reader.buffer().is_empty() {
            return Ok(());
        }
        let stream = self.reader.get_ref();
        stream.set_nonblocking(true)?;
        let start = Instant::now();
        let mut probe = [0u8; 1];
        let outcome = loop {
            match stream.peek(&mut probe) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if start.elapsed() >= POLL_WINDOW {
                        break Ok(());
                    }
                    std::hint::spin_loop();
                }
                Err(e) => break Err(e),
                Ok(_) => break Ok(()),
            }
        };
        stream.set_nonblocking(false)?;
        outcome
    }

    fn exchange(&mut self, frame: &str) -> std::io::Result<(u16, String)> {
        let message = format!(
            "POST /api HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{frame}",
            frame.len()
        );
        self.writer.write_all(message.as_bytes())?;
        self.poll_briefly()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        // The server's own cap is 1 MiB; a larger claim is a framing bug.
        if content_length > 1 << 20 {
            return Err(std::io::Error::other("oversized response body"));
        }
        let mut raw = vec![0u8; content_length];
        self.reader.read_exact(&mut raw)?;
        String::from_utf8(raw)
            .map(|body| (status, body))
            .map_err(std::io::Error::other)
    }
}

impl Transport for TcpConn {
    fn call(&mut self, op: &Op) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let (status, body) = self
            .exchange(&sut::encode_frame(op, id))
            .map_err(|e| format!("i/o: {e}"))?;
        if status != 200 {
            return Err(format!("HTTP {status}: {body}"));
        }
        let (echoed, reply) = sut::decode_frame(&body)?;
        if echoed != id {
            return Err(format!("envelope id {echoed}, sent {id}"));
        }
        Ok(reply)
    }
}

/// Everything one client observed.
#[derive(Default)]
pub struct Tally {
    /// Latencies in ns, indexed like [`KINDS`].
    pub samples: [Vec<f64>; 5],
    pub attempted: u64,
    pub failed: u64,
    /// Sessions closed.
    pub sessions: u64,
    /// Sessions in which at least one `Mark` was accepted.
    pub judged_sessions: u64,
    /// Closes that reported a flushed log session.
    pub flushed: u64,
    /// Flushed closes acknowledged `durable: true`.
    pub durable: u64,
    /// Σ precision@20 of final pages, and how many pages.
    pub precision_sum: f64,
    pub precision_n: u64,
    /// First few failure messages, for the operator.
    pub errors: Vec<String>,
    /// Wall time this client spent driving sessions.
    pub elapsed_s: f64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sessions += other.sessions;
        self.judged_sessions += other.judged_sessions;
        self.flushed += other.flushed;
        self.durable += other.durable;
        self.precision_sum += other.precision_sum;
        self.precision_n += other.precision_n;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// One timed exchange; `None` (and a counted failure) on any error.
    fn timed<T: Transport>(&mut self, t: &mut T, kind: usize, op: &Op) -> Option<Reply> {
        self.attempted += 1;
        let start = Instant::now();
        let reply = t.call(op);
        let ns = start.elapsed().as_nanos() as f64;
        match reply {
            Ok(Reply::Other(what)) => {
                self.fail(format!("{op:?} answered {what}"));
                None
            }
            Ok(reply) => {
                self.samples[kind].push(ns);
                Some(reply)
            }
            Err(e) => {
                self.fail(format!("{op:?}: {e}"));
                None
            }
        }
    }
}

/// A page must be duplicate-free, in range and no longer than asked.
fn page_is_sound(ids: &[usize], max_len: usize, n_images: usize) -> bool {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    ids.len() <= max_len
        && sorted.windows(2).all(|w| w[0] != w[1])
        && sorted.last().is_none_or(|&id| id < n_images)
}

/// Runs one session to its close. Returns the page fetched after the
/// first rerank (what the shard-equivalence check compares), or `None`
/// for a write-only or failed session. A failed step abandons the
/// session; the failure is already counted in `tally`.
pub fn drive_session<T: Transport>(
    t: &mut T,
    plan: &SessionPlan,
    n_images: usize,
    tally: &mut Tally,
) -> Option<Vec<usize>> {
    let open = Op::Open {
        query: plan.query,
        scheme: plan.scheme,
    };
    let Reply::Opened { session, screen } = tally.timed(t, OPEN, &open)? else {
        tally.fail(format!("{open:?}: wrong reply variant"));
        return None;
    };
    if !page_is_sound(&screen, SCREEN_SIZE, n_images) {
        tally.fail(format!("unsound screen for query {}", plan.query));
        return None;
    }
    let query_category = category_of(plan.query);
    let mut noise = Rng::new(plan.noise_seed);
    let mut judged: Vec<usize> = Vec::new();
    let mut view = screen;
    let mut first_page = None;
    // A write-only session still judges once, from the opening screen.
    for round in 0..plan.rounds.max(1) {
        let fresh: Vec<usize> = view
            .iter()
            .copied()
            .filter(|id| !judged.contains(id))
            .take(plan.marks)
            .collect();
        for image in fresh {
            let relevant =
                (category_of(image) == query_category) != (noise.uniform() < LABEL_NOISE);
            let mark = Op::Mark {
                session,
                image,
                relevant,
            };
            judged.push(image);
            match tally.timed(t, MARK, &mark)? {
                Reply::Marked { n_judged } if n_judged == judged.len() => {}
                other => {
                    tally.fail(format!("{mark:?}: unexpected {other:?}"));
                    return None;
                }
            }
        }
        if plan.rounds == 0 {
            break;
        }
        let Reply::Reranked { page } = tally.timed(t, RERANK, &Op::Rerank { session })? else {
            tally.fail(format!("rerank of session {session}: wrong reply variant"));
            return None;
        };
        let count = judged.len() + PAGE_HEADROOM;
        let fetch = Op::Page {
            session,
            offset: 0,
            count,
        };
        let Reply::Page { ids } = tally.timed(t, PAGE, &fetch)? else {
            tally.fail(format!("{fetch:?}: wrong reply variant"));
            return None;
        };
        if !page_is_sound(&page, SCREEN_SIZE, n_images)
            || !page_is_sound(&ids, count, n_images)
            || !ids.starts_with(&page)
        {
            tally.fail(format!("unsound page in session {session} round {round}"));
            return None;
        }
        if round == 0 {
            first_page = Some(ids.clone());
        }
        view = ids;
    }
    if plan.rounds > 0 {
        let top = &view[..view.len().min(SCREEN_SIZE)];
        let hits = top
            .iter()
            .filter(|&&id| category_of(id) == query_category)
            .count();
        tally.precision_sum += hits as f64 / SCREEN_SIZE as f64;
        tally.precision_n += 1;
    }
    let Reply::Closed { flushed, durable } = tally.timed(t, CLOSE, &Op::Close { session })? else {
        tally.fail(format!("close of session {session}: wrong reply variant"));
        return None;
    };
    tally.sessions += 1;
    tally.judged_sessions += u64::from(!judged.is_empty());
    tally.flushed += u64::from(flushed);
    tally.durable += u64::from(flushed && durable);
    first_page
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted service: ranks ids ascending from the query, accepts
    /// every first judgment and rejects a repeat like the real one does.
    struct Fake {
        judged: Vec<usize>,
        query: usize,
    }

    impl Transport for Fake {
        fn call(&mut self, op: &Op) -> Result<Reply, String> {
            Ok(match op {
                Op::Open { query, .. } => {
                    self.query = *query;
                    Reply::Opened {
                        session: 1,
                        screen: (*query..*query + 20).collect(),
                    }
                }
                Op::Mark { image, .. } => {
                    if self.judged.contains(image) {
                        Reply::Other("duplicate_judgment".into())
                    } else {
                        self.judged.push(*image);
                        Reply::Marked {
                            n_judged: self.judged.len(),
                        }
                    }
                }
                Op::Rerank { .. } => Reply::Reranked {
                    page: (self.query..self.query + 20).collect(),
                },
                Op::Page { count, .. } => Reply::Page {
                    ids: (self.query..self.query + count).collect(),
                },
                Op::Close { .. } => Reply::Closed {
                    flushed: !self.judged.is_empty(),
                    durable: false,
                },
                Op::Ping => Reply::Pong,
            })
        }
    }

    fn plan(rounds: usize, marks: usize) -> SessionPlan {
        SessionPlan {
            query: 200,
            scheme: Scheme::LrfCsvm,
            rounds,
            marks,
            noise_seed: 3,
        }
    }

    #[test]
    fn marks_never_repeat_an_image_across_rounds() {
        // The fake keeps serving the same top ids after every rerank, the
        // worst case for re-marking; FeedbackLoop::mark rejects a repeat.
        let mut fake = Fake {
            judged: Vec::new(),
            query: 0,
        };
        let mut tally = Tally::default();
        let first = drive_session(&mut fake, &plan(3, 20), 10_000, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        assert_eq!(fake.judged.len(), 60);
        assert_eq!(first.map(|p| p.len()), Some(40));
        assert_eq!(
            tally.samples.each_ref().map(Vec::len),
            [1, 60, 3, 3, 1],
            "open, marks, reranks, pages, close"
        );
        assert_eq!(
            (tally.sessions, tally.flushed, tally.precision_n),
            (1, 1, 1)
        );
    }

    #[test]
    fn write_only_session_marks_and_closes_without_a_rerank() {
        let mut fake = Fake {
            judged: Vec::new(),
            query: 0,
        };
        let mut tally = Tally::default();
        assert!(drive_session(&mut fake, &plan(0, 8), 10_000, &mut tally).is_none());
        assert_eq!(tally.samples.each_ref().map(Vec::len), [1, 8, 0, 0, 1]);
        assert_eq!((tally.failed, tally.precision_n), (0, 0));
    }

    #[test]
    fn out_of_range_page_fails_the_session() {
        let mut fake = Fake {
            judged: Vec::new(),
            query: 0,
        };
        let mut tally = Tally::default();
        drive_session(&mut fake, &plan(2, 20), 230, &mut tally);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.sessions, 0);
    }

    #[test]
    fn page_soundness() {
        assert!(page_is_sound(&[3, 1, 2], 3, 4));
        assert!(!page_is_sound(&[3, 1, 3], 3, 4), "duplicate");
        assert!(!page_is_sound(&[3, 1, 4], 3, 4), "out of range");
        assert!(!page_is_sound(&[3, 1, 2], 2, 4), "longer than asked");
        assert!(page_is_sound(&[], 2, 4));
    }
}
