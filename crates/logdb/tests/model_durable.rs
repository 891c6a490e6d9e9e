//! Model-checked invariants of a WAL-backed [`SharedLogStore`]: its one
//! writer lock and its one repair path.
//!
//! A session recorded in memory while storage fails becomes durable
//! through the next compaction, and through nothing else. Each test races
//! the real store over `MemIo` under the vendored loom-style checker (its
//! writer lock and versioned cell come from `lrf_sync`, so every lock
//! the protocol takes is a schedule point), then cuts power and recovers.
//! The invariants: **a volatile session is recovered exactly once when a
//! compaction ran after it, and not at all otherwise — `unsynced()` is 0
//! exactly when the last compaction covered every volatile session — and
//! replay order is always the order the store assigned ids in.**

use std::path::Path;
// Plain std atomics: outcome tallies across executions, outside the model.
use std::sync::atomic::{AtomicUsize, Ordering};

use lrf_logdb::{LogSession, LogStore, Relevance, SharedLogStore};
use lrf_storage::{MemIo, WalOptions};
use lrf_sync::Arc;

fn session(image: usize, relevant: bool) -> LogSession {
    LogSession::new(vec![(image, Relevance::from_bool(relevant))])
}

fn dir() -> &'static Path {
    Path::new("/log/model")
}

/// A store over 4 images on a fresh in-memory disk.
fn open(mem: &std::sync::Arc<MemIo>) -> SharedLogStore {
    SharedLogStore::open(mem.clone(), dir(), 4, WalOptions::default())
        .unwrap()
        .0
}

/// Cuts power and returns what recovery rebuilds from the disk.
fn recover(mem: &std::sync::Arc<MemIo>) -> LogStore {
    mem.crash();
    open(mem).into_store()
}

/// One degraded close racing one `SyncLog`: whichever runs first, the
/// session is on disk once (the compaction's snapshot holds it) or not at
/// all (the snapshot predates it and the count still says so).
#[test]
fn a_compaction_racing_a_volatile_record_covers_it_once_or_not_at_all() {
    static COVERED: AtomicUsize = AtomicUsize::new(0);
    static MISSED: AtomicUsize = AtomicUsize::new(0);
    let report = loom::explore(|| {
        let mem = MemIo::handle();
        let db = Arc::new(open(&mem));
        let closer = {
            let db = Arc::clone(&db);
            loom::thread::spawn(move || db.record(session(0, true)))
        };
        db.compact().unwrap();
        assert_eq!(closer.join().unwrap(), 0);
        let covered = db.unsynced() == 0;
        let recovered = recover(&mem);
        if covered {
            assert_eq!(
                recovered.n_sessions(),
                1,
                "covered session not recovered once"
            );
            assert_eq!(recovered.session(0), &session(0, true));
            COVERED.fetch_add(1, Ordering::Relaxed);
        } else {
            assert_eq!(db.unsynced(), 1);
            assert_eq!(recovered.n_sessions(), 0, "uncovered session resurrected");
            MISSED.fetch_add(1, Ordering::Relaxed);
        }
    })
    .expect("compaction must cover a volatile session once or not at all");
    assert!(report.executions > 1);
    assert!(COVERED.load(Ordering::Relaxed) > 0 && MISSED.load(Ordering::Relaxed) > 0);
}

/// A degraded close, a healthy close and a `SyncLog`, all racing: the
/// disk is always a prefix of memory, each session on it once, the lost
/// suffix is exactly the unsynced count, and an acknowledged durable
/// record always survives.
#[test]
fn disk_stays_a_prefix_of_memory_under_racing_records_and_compaction() {
    loom::explore(|| {
        let mem = MemIo::handle();
        let db = Arc::new(open(&mem));
        let degraded = {
            let db = Arc::clone(&db);
            loom::thread::spawn(move || db.record(session(0, true)))
        };
        let sync = {
            let db = Arc::clone(&db);
            loom::thread::spawn(move || db.compact().unwrap())
        };
        let durable = db.record_durable(session(1, false)).is_ok();
        degraded.join().unwrap();
        sync.join().unwrap();

        let memory: Vec<LogSession> = db.snapshot().sessions().cloned().collect();
        assert_eq!(memory.len(), 1 + usize::from(durable));
        let unsynced = db.unsynced();
        let recovered = recover(&mem);
        let on_disk = recovered.n_sessions();
        assert!(
            recovered.sessions().eq(memory[..on_disk].iter()),
            "disk is not a prefix of memory"
        );
        assert_eq!(memory.len() - on_disk, unsynced, "lost suffix != unsynced");
        if durable {
            assert!(recovered.sessions().any(|s| *s == session(1, false)));
        }
    })
    .expect("disk must stay a prefix of memory");
}

/// Two healthy closes racing while a reader holds a snapshot, so the
/// appends take the copy-and-swap path: each id a close is acknowledged
/// with is that session's place in memory and in replay — the WAL append
/// and the in-memory append happen under the same writer lock.
#[test]
fn wal_order_is_store_order_under_racing_durable_appends() {
    let report = loom::explore(|| {
        let mem = MemIo::handle();
        let db = Arc::new(open(&mem));
        let held = db.snapshot();
        let other = {
            let db = Arc::clone(&db);
            loom::thread::spawn(move || db.record_durable(session(2, true)).unwrap())
        };
        let mine = db.record_durable(session(3, false)).unwrap();
        let theirs = other.join().unwrap();
        drop(held);

        let memory: Vec<LogSession> = db.snapshot().sessions().cloned().collect();
        assert_eq!(memory[mine], session(3, false), "id is not memory order");
        assert_eq!(memory[theirs], session(2, true), "id is not memory order");
        let recovered = recover(&mem);
        assert!(
            recovered.sessions().eq(memory.iter()),
            "replay order differs from store order"
        );
    })
    .expect("WAL order must be store order");
    assert!(report.executions > 1);
}
