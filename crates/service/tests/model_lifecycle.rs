//! Model-checked session-lifecycle invariants.
//!
//! These tests drive the service's real concurrency building blocks — the
//! [`SessionManager`] table, the [`Flushable`] tombstone, and the
//! copy-on-write [`lrf_logdb::SharedLogStore`] — through the vendored
//! loom-style checker, which explores every interleaving of their lock and
//! `Arc` operations within a bounded-preemption schedule space. The
//! harness reproduces `Service`'s exact flush protocol (lock payload →
//! `close()` → record to log) without the learning stack, so each explored
//! execution costs microseconds instead of a retrain.
//!
//! Invariants covered (the other one, snapshot tearing, lives in
//! `lrf-logdb`'s model tests):
//!
//! * **(a) exactly-once flush**: a judged session's judgments reach the
//!   log exactly once under a close racing `Open`-time eviction (capacity
//!   or TTL).
//! * **(b) expired visibility**: a request racing an eviction observes
//!   `SessionExpired` (here: `Err`), never a mutation of a detached
//!   session — equivalently, the flushed log session contains exactly the
//!   acknowledged judgments.
//!
//! The `seeded_bug_*` test proves the checker has teeth: built with
//! `RUSTFLAGS="--cfg lrf_seeded_bug"` (which compiles out the tombstone
//! guard in `Flushable::close`), it asserts the checker **does** find the
//! double flush; built normally, it asserts the protocol is clean.

use lrf_logdb::{LogSession, Relevance, SharedLogStore};
use lrf_service::manager::{SessionGone, SessionManager};
use lrf_service::Flushable;
use lrf_sync::{Arc, Mutex, MutexExt};

/// `Service` in miniature: same table, same tombstone, same log protocol;
/// the payload is just the count of acknowledged marks.
struct Harness {
    sessions: Mutex<SessionManager<Flushable<usize>>>,
    log: SharedLogStore,
}

type Payload = Arc<Mutex<Flushable<usize>>>;

impl Harness {
    fn new(capacity: usize, ttl: u64) -> Self {
        Self {
            sessions: Mutex::new(SessionManager::new(capacity, ttl)),
            log: SharedLogStore::new(8),
        }
    }

    /// `Service::open`: insert, then flush whatever the insert evicted
    /// (capacity or TTL).
    fn open(&self) -> u64 {
        let (id, evicted) = self.sessions.lock_recover().insert(Flushable::new(0));
        for e in evicted {
            self.flush(&e);
        }
        id
    }

    /// `Service::mark`: resolve the payload under the global lock, then
    /// judge under the session lock — `Err` if the session is gone or
    /// tombstoned. The harness also asserts the failure is *expiry*: a
    /// session the manager issued must never read as never-existing.
    fn mark(&self, id: u64) -> Result<(), ()> {
        let payload: Payload = match self.sessions.lock_recover().get(id) {
            Ok(p) => p,
            Err(gone) => {
                assert_eq!(gone, SessionGone::Expired, "issued id misreported");
                return Err(());
            }
        };
        let mut guard = payload.lock_recover();
        match guard.get_mut() {
            Some(count) => {
                *count += 1;
                Ok(())
            }
            None => Err(()),
        }
    }

    /// `Service::close`: remove from the table, flush the payload.
    fn close(&self, id: u64) {
        let removed = self.sessions.lock_recover().remove(id);
        if let Ok(payload) = removed {
            self.flush(&payload);
        }
    }

    /// `Service::flush` verbatim: tombstone under the payload lock, then
    /// record the acknowledged judgments; empty sessions flush nothing.
    fn flush(&self, payload: &Payload) -> Option<usize> {
        let mut guard = payload.lock_recover();
        let count = *guard.close()?;
        if count == 0 {
            return None;
        }
        let session = LogSession::new(
            (0..count)
                .map(|i| (i, Relevance::from_bool(true)))
                .collect(),
        );
        Some(self.log.record(session))
    }

    fn log_sessions(&self) -> usize {
        self.log.n_sessions()
    }

    /// Judgments in the single flushed log session.
    fn flushed_judgments(&self) -> usize {
        let snap = self.log.snapshot();
        assert_eq!(snap.n_sessions(), 1, "expected exactly one flushed session");
        snap.session(0).len()
    }
}

/// Invariant (a): one judged session, two concurrent ways out — explicit
/// close, and eviction by the opens racing it (capacity 1, TTL 1: the first
/// open to run evicts it unless the close removed it first). Whatever
/// interleaving wins, the judgments land in the log exactly once.
#[test]
fn close_evict_and_ttl_expiry_flush_exactly_once() {
    loom::explore(|| {
        let h = Arc::new(Harness::new(1, 1));
        let s = h.open();
        h.mark(s).expect("fresh session accepts judgments");
        let closer = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || h.close(s))
        };
        let opener = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || {
                h.open();
                h.open();
            })
        };
        // A third racing open: eviction from two threads at once.
        let _s2 = h.open();
        closer.join().unwrap();
        opener.join().unwrap();
        assert_eq!(h.log_sessions(), 1, "flushed not-exactly-once");
        assert_eq!(h.flushed_judgments(), 1);
    })
    .expect("racing close and Open-time eviction must flush exactly once");
}

/// Invariant (b): a mark racing the close either lands before the flush
/// (and is in the flushed log session) or observes expiry (and is not) —
/// never a mutation of the detached state. The flushed judgment count
/// equaling the acknowledged count is exactly that dichotomy.
#[test]
fn racing_mark_is_acknowledged_iff_flushed() {
    loom::explore(|| {
        let h = Arc::new(Harness::new(4, 0));
        let s = h.open();
        h.mark(s).expect("fresh session accepts judgments");
        let racer = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || h.mark(s).is_ok())
        };
        h.close(s);
        let acked = 1 + usize::from(racer.join().unwrap());
        assert_eq!(h.log_sessions(), 1);
        assert_eq!(
            h.flushed_judgments(),
            acked,
            "acknowledged judgments and flushed judgments diverged"
        );
    })
    .expect("a racing mark must be acknowledged iff its judgment is flushed");
}

/// Checker teeth. The scenario is the one documented on
/// `Service::flush`: an eviction in flight holds the payload `Arc` while
/// a close races it, and both flush — `Flushable::close`'s tombstone
/// guard makes the second flush a no-op.
///
/// Built normally, the protocol is clean and the exploration must pass.
/// Built with `--cfg lrf_seeded_bug` (CI's teeth job), the guard is
/// compiled out and this test instead asserts the checker *catches* the
/// double flush — proving a green model run means something.
#[test]
fn seeded_bug_double_flush_is_caught_by_the_checker() {
    let result = loom::explore(|| {
        let h = Arc::new(Harness::new(4, 0));
        let s = h.open();
        h.mark(s).expect("fresh session accepts judgments");
        // An eviction path that already pulled the payload out of the
        // table races the close path below.
        let payload: Payload = h.sessions.lock_recover().get(s).unwrap();
        let evictor = {
            let h = Arc::clone(&h);
            loom::thread::spawn(move || {
                h.flush(&payload);
            })
        };
        h.close(s);
        evictor.join().unwrap();
        assert_eq!(h.log_sessions(), 1, "judgments flushed more than once");
    });
    #[cfg(not(lrf_seeded_bug))]
    {
        result.expect("with the tombstone guard, racing flushes are exactly-once");
    }
    #[cfg(lrf_seeded_bug)]
    {
        let violation =
            result.expect_err("the checker must catch the double flush once the guard is gone");
        assert!(
            violation.message.contains("flushed more than once"),
            "checker caught the wrong violation: {violation}"
        );
    }
}
