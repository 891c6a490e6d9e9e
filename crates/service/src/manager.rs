//! Session residency: id allocation, LRU capacity eviction, idle TTL.
//!
//! The manager is the only structure the service locks globally, so it
//! does little under that lock: a `HashMap` of `Arc<Mutex<T>>` payloads
//! plus a **logical clock** that advances once per touch (insert or get).
//! Lookups are O(1); [`SessionManager::sweep`] and the LRU scan on an
//! over-capacity insert are O(resident sessions), bounded by the capacity
//! — cheap next to a single retrain, but not free; shard the manager if a
//! deployment ever raises the capacity by orders of magnitude. Both
//! eviction policies are defined against the logical clock, which makes
//! them deterministic — a property the lifecycle tests and the
//! bit-identical concurrency tests rely on. A wall-clock TTL, if a
//! deployment wants one, belongs in the transport layer where real time
//! lives.
//!
//! Payloads are handed out as `Arc<Mutex<T>>` so callers can release the
//! manager lock before doing session work: the expensive operations
//! (retraining a coupled SVM) run under the *session's* lock only, and
//! distinct sessions proceed in parallel.
//!
//! Evicted payloads are returned to the caller, never dropped silently —
//! the service flushes their judgments into the feedback log, so even an
//! abandoned session contributes its log vector (the paper's log grows
//! with every session, not just the politely closed ones).

use lrf_sync::{Arc, Mutex};
use std::collections::HashMap;

/// Why a session left the manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// The manager was at capacity and this was the least-recently-used
    /// session.
    Capacity,
    /// The session sat idle longer than the TTL.
    Idle,
}

/// A session pushed out by an eviction policy, with its payload so the
/// caller can salvage it (flush judgments to the log).
#[derive(Debug)]
pub struct Evicted<T> {
    /// The evicted session's id.
    pub id: u64,
    /// The session payload.
    pub payload: Arc<Mutex<T>>,
    /// Which policy evicted it.
    pub reason: EvictReason,
}

/// Why a lookup failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionGone {
    /// The id was issued earlier but the session was closed or evicted.
    Expired,
    /// The id was never issued.
    NeverExisted,
}

struct Entry<T> {
    payload: Arc<Mutex<T>>,
    /// Clock value of the last touch; unique per entry (the clock advances
    /// on every touch), so LRU order is total.
    last_used: u64,
}

/// Bounded, TTL-expiring session table keyed by monotonically increasing
/// session ids.
pub struct SessionManager<T> {
    entries: HashMap<u64, Entry<T>>,
    next_id: u64,
    clock: u64,
    capacity: usize,
    ttl: u64,
}

impl<T> SessionManager<T> {
    /// Creates a manager holding at most `capacity` sessions; a session
    /// idle for more than `ttl` touches (of any session) is expired by
    /// [`Self::sweep`]. `ttl == 0` disables the TTL.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, ttl: u64) -> Self {
        assert!(capacity > 0, "session capacity must be positive");
        Self {
            entries: HashMap::new(),
            next_id: 0,
            clock: 0,
            capacity,
            ttl,
        }
    }

    /// Number of resident sessions.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Inserts a new session and returns its id, plus any sessions the
    /// capacity policy pushed out (oldest `last_used` first).
    pub fn insert(&mut self, payload: T) -> (u64, Vec<Evicted<T>>) {
        let now = self.tick();
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(
            id,
            Entry {
                payload: Arc::new(Mutex::new(payload)),
                last_used: now,
            },
        );
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id)
                // lrf-lint: allow(service-panic): the loop condition just
                // proved len() > capacity >= 1, so the map is nonempty
                .expect("over-capacity map is nonempty");
            let entry = self
                .entries
                .remove(&lru)
                // lrf-lint: allow(service-panic): `lru` was produced by the
                // min scan over this map one statement ago, under &mut self
                .expect("lru id just found");
            evicted.push(Evicted {
                id: lru,
                payload: entry.payload,
                reason: EvictReason::Capacity,
            });
        }
        (id, evicted)
    }

    /// Looks a session up, refreshing its LRU position.
    pub fn get(&mut self, id: u64) -> Result<Arc<Mutex<T>>, SessionGone> {
        let now = self.tick();
        match self.entries.get_mut(&id) {
            Some(entry) => {
                entry.last_used = now;
                Ok(Arc::clone(&entry.payload))
            }
            None => Err(self.gone(id)),
        }
    }

    /// Removes a session (the close path — not an eviction).
    pub fn remove(&mut self, id: u64) -> Result<Arc<Mutex<T>>, SessionGone> {
        self.tick();
        match self.entries.remove(&id) {
            Some(entry) => Ok(entry.payload),
            None => Err(self.gone(id)),
        }
    }

    /// Expires every session idle for more than the TTL, returning them in
    /// ascending id order. A sweep advances the clock, so a caller that
    /// sweeps once per request gets "idle for N requests" TTL semantics
    /// even when the requests themselves touch no session.
    pub fn sweep(&mut self) -> Vec<Evicted<T>> {
        if self.ttl == 0 {
            return Vec::new();
        }
        let now = self.tick();
        let deadline = now.saturating_sub(self.ttl);
        let mut stale: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.last_used < deadline)
            .map(|(&id, _)| id)
            .collect();
        stale.sort_unstable();
        stale
            .into_iter()
            .map(|id| {
                let entry = self
                    .entries
                    .remove(&id)
                    // lrf-lint: allow(service-panic): `stale` ids were
                    // collected from this map above, under &mut self
                    .expect("stale id just found");
                Evicted {
                    id,
                    payload: entry.payload,
                    reason: EvictReason::Idle,
                }
            })
            .collect()
    }

    /// Removes every resident session in ascending id order (service
    /// shutdown: flush everything).
    pub(crate) fn drain(&mut self) -> Vec<(u64, Arc<Mutex<T>>)> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let entry = self
                    .entries
                    .remove(&id)
                    // lrf-lint: allow(service-panic): `ids` is the key set
                    // of this map, collected above under &mut self
                    .expect("id just listed");
                (id, entry.payload)
            })
            .collect()
    }

    /// Distinguishes "closed/evicted" from "never issued": ids are
    /// allocated monotonically, so any absent id below `next_id` was
    /// resident once.
    fn gone(&self, id: u64) -> SessionGone {
        if id < self.next_id {
            SessionGone::Expired
        } else {
            SessionGone::NeverExisted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic_and_lookup_works() {
        let mut mgr: SessionManager<&'static str> = SessionManager::new(8, 0);
        let (a, ev) = mgr.insert("a");
        assert!(ev.is_empty());
        let (b, _) = mgr.insert("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(*mgr.get(a).unwrap().lock().unwrap(), "a");
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut mgr: SessionManager<u32> = SessionManager::new(2, 0);
        let (a, _) = mgr.insert(10);
        let (b, _) = mgr.insert(20);
        // Touch a so b becomes LRU.
        mgr.get(a).unwrap();
        let (c, evicted) = mgr.insert(30);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, b);
        assert_eq!(evicted[0].reason, EvictReason::Capacity);
        assert_eq!(*evicted[0].payload.lock().unwrap(), 20);
        assert!(mgr.get(a).is_ok());
        assert!(mgr.get(c).is_ok());
        assert!(matches!(mgr.get(b), Err(SessionGone::Expired)));
    }

    #[test]
    fn ttl_sweep_expires_idle_sessions_only() {
        let mut mgr: SessionManager<u32> = SessionManager::new(8, 3);
        let (a, _) = mgr.insert(1); // touched at clock 1
        let (b, _) = mgr.insert(2); // touched at clock 2
        for _ in 0..4 {
            mgr.get(b).unwrap(); // clock 3..6, keeps b fresh
        }
        let evicted = mgr.sweep(); // ticks to 7; deadline 4: a (1) < 4 ≤ b (6)
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, a);
        assert_eq!(evicted[0].reason, EvictReason::Idle);
        assert!(mgr.get(b).is_ok());
        assert!(matches!(mgr.get(a), Err(SessionGone::Expired)));
    }

    #[test]
    fn zero_ttl_disables_sweeping() {
        let mut mgr: SessionManager<u32> = SessionManager::new(4, 0);
        let (a, _) = mgr.insert(1);
        for _ in 0..100 {
            mgr.insert(2);
        }
        // Way over any plausible deadline, but TTL is off — and capacity
        // already bounded residency.
        assert!(mgr.sweep().is_empty());
        let _ = a;
    }

    #[test]
    fn gone_distinguishes_expired_from_never_issued() {
        let mut mgr: SessionManager<u32> = SessionManager::new(2, 0);
        let (a, _) = mgr.insert(1);
        mgr.remove(a).unwrap();
        assert!(matches!(mgr.get(a), Err(SessionGone::Expired)));
        assert!(matches!(mgr.get(999), Err(SessionGone::NeverExisted)));
        assert!(matches!(mgr.remove(999), Err(SessionGone::NeverExisted)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _: SessionManager<u32> = SessionManager::new(0, 0);
    }
}
