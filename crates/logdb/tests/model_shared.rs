//! Model-checked invariants of [`SharedLogStore`]'s versioned cell: each
//! version shares one base of sessions and columns and owns a short tail.
//!
//! Each test runs its closure under the vendored loom-style checker, which
//! explores every interleaving of the instrumented lock/`Arc` operations
//! within a bounded-preemption schedule space (see `crates/vendor/loom`).
//! The third workspace concurrency invariant lives here: **snapshot
//! readers never observe torn log state** — a snapshot is one consistent
//! store, frozen at acquisition, no matter how appends race it.

use lrf_logdb::{LogSession, LogStore, Relevance, SharedLogStore};
use lrf_sync::Arc;

/// The matrix element `r_{image, session}` (`+1`, `−1`, or `0`), read from
/// the image's log vector.
fn entry(log: &LogStore, image: usize, session: usize) -> f64 {
    let mut column = log.log_vector(image).iter();
    column
        .find(|&(s, _)| s as usize == session)
        .map_or(0.0, |(_, v)| v)
}

fn session(pairs: &[(usize, bool)]) -> LogSession {
    LogSession::new(
        pairs
            .iter()
            .map(|&(id, r)| (id, Relevance::from_bool(r)))
            .collect(),
    )
}

/// A snapshot acquired while an appender races is internally consistent:
/// its session count and its matrix agree, and neither moves while the
/// snapshot is held — even as the live store advances underneath.
#[test]
fn snapshots_are_never_torn_by_racing_appends() {
    let report = loom::explore(|| {
        let shared = Arc::new(SharedLogStore::new(4));
        shared.record(session(&[(0, true)]));
        let appender = {
            let shared = Arc::clone(&shared);
            loom::thread::spawn(move || {
                shared.record(session(&[(1, true), (2, false)]));
            })
        };
        // Reader: the snapshot must be exactly the 1-session store or
        // exactly the 2-session store — nothing in between or mixed.
        let snap = shared.snapshot();
        let n = snap.n_sessions();
        assert!(n == 1 || n == 2, "torn session count: {n}");
        assert_eq!(entry(&snap, 0, 0), 1.0, "prefix session lost");
        if n == 2 {
            assert_eq!(entry(&snap, 1, 1), 1.0, "appended session half-visible");
            assert_eq!(entry(&snap, 2, 1), -1.0, "appended session half-visible");
        } else {
            assert!(snap.log_vector(1).is_empty());
        }
        // Frozen: the held snapshot must not advance when the append
        // lands after it was taken.
        appender.join().unwrap();
        assert_eq!(snap.n_sessions(), n, "snapshot advanced while held");
        assert_eq!(shared.snapshot().n_sessions(), 2);
    })
    .expect("log snapshots must never tear");
    assert!(report.executions > 1);
}

/// Two appenders racing each other: the writer lock must serialize the
/// clone-and-swap so neither session is lost, whether either append went
/// in-place or through the copy path.
#[test]
fn racing_appends_lose_no_session() {
    loom::explore(|| {
        let shared = Arc::new(SharedLogStore::new(4));
        // Holding a snapshot forces at least one append onto the
        // new-version path, which records outside the reader-facing lock:
        // the protocol's delicate half.
        let held = shared.snapshot();
        let appender = {
            let shared = Arc::clone(&shared);
            loom::thread::spawn(move || shared.record(session(&[(1, true)])))
        };
        shared.record(session(&[(2, false)]));
        appender.join().unwrap();
        drop(held);
        assert_eq!(shared.n_sessions(), 2, "an append was lost");
        // Both sessions' judgments are present regardless of arrival
        // order.
        let snap = shared.snapshot();
        assert_eq!(snap.log_vector(1).nnz(), 1);
        assert_eq!(snap.log_vector(2).nnz(), 1);
    })
    .expect("the writer lock must serialize clone-and-swap appends");
}

/// A session recorded under a held snapshot lands in the live version's
/// tail; then the snapshot drops while another append races it. That
/// append either folds the tail into the base in place (the snapshot was
/// gone, so the base was unique) or extends the tail (it was still held).
/// Either way no snapshot tears or advances and no session is lost.
#[test]
fn a_racing_append_folds_the_tail_only_once_the_snapshot_is_gone() {
    let report = loom::explore(|| {
        let shared = Arc::new(SharedLogStore::new(4));
        shared.record(session(&[(0, true), (1, false)]));
        let held = shared.snapshot();
        shared.record(session(&[(1, true)])); // into the tail: `held` shares the base
        let appender = {
            let shared = Arc::clone(&shared);
            loom::thread::spawn(move || shared.record(session(&[(1, false), (2, true)])))
        };
        assert_eq!((held.n_sessions(), held.log_vector(1).nnz()), (1, 1));
        drop(held);
        let mid = shared.snapshot();
        let n = mid.n_sessions();
        assert!(n == 2 || n == 3, "torn session count: {n}");
        assert_eq!(
            mid.log_vector(1).nnz(),
            n,
            "column 1 disagrees with {n} sessions"
        );
        assert_eq!(appender.join().unwrap(), 2);
        assert_eq!(mid.n_sessions(), n, "snapshot advanced while held");
        let last = shared.snapshot();
        assert_eq!(last.n_sessions(), 3, "an append was lost");
        let column: Vec<f64> = (0..3).map(|sid| entry(&last, 1, sid)).collect();
        assert_eq!(column, [-1.0, 1.0, -1.0]);
        assert_eq!(entry(&last, 2, 2), 1.0);
    })
    .expect("a tail folds only into a base no snapshot shares");
    assert!(report.executions > 1);
}
