//! Session residency: id allocation, LRU capacity eviction, idle TTL.
//!
//! The manager is the only structure the service locks globally, so it
//! does little under that lock: a `HashMap` of `Arc<Mutex<T>>` payloads
//! plus a **logical clock** that advances once per table operation
//! (insert, get or remove). Lookups are O(1). Sessions leave the table
//! only where it grows: [`SessionManager::insert`] evicts from the
//! least-recently-used end while the table is over capacity or its
//! oldest session is idle past the TTL — one scan of O(resident
//! sessions), bounded by the capacity, per eviction. That is cheap next
//! to a single retrain, but not free; shard the manager if a deployment
//! ever raises the capacity by orders of magnitude. A session idle past
//! the TTL therefore stays resident until the next insert, and a touch
//! before then revives it. Both policies are defined against the logical
//! clock, which makes them deterministic — a property the lifecycle tests
//! and the bit-identical concurrency tests rely on. A wall-clock TTL, if
//! a deployment wants one, belongs in the transport layer where real time
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
    /// idle for more than `ttl` table operations (on any session) is
    /// expired by the next [`Self::insert`]. `ttl == 0` disables the TTL.
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

    /// Inserts a new session and returns its id, plus the payloads of the
    /// sessions it pushed out, least recently used first: every session
    /// idle for more than the TTL, then more while the table is over
    /// capacity. Both policies evict from the least-recently-used end (an
    /// idle session is older than every fresh one), so one loop serves
    /// both, and the session just inserted is never among them.
    pub fn insert(&mut self, payload: T) -> (u64, Vec<Arc<Mutex<T>>>) {
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
        // Every touch is at clock ≥ 1, so a deadline of 0 expires nothing.
        let deadline = if self.ttl == 0 {
            0
        } else {
            now.saturating_sub(self.ttl)
        };
        let mut evicted = Vec::new();
        while let Some((&lru, oldest)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
            if self.entries.len() <= self.capacity && oldest.last_used >= deadline {
                break;
            }
            evicted.extend(self.entries.remove(&lru).map(|e| e.payload));
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
        let b_handle = mgr.get(b).unwrap();
        // Touch a so b becomes LRU.
        mgr.get(a).unwrap();
        let (c, evicted) = mgr.insert(30);
        assert_eq!(evicted.len(), 1);
        assert!(Arc::ptr_eq(&evicted[0], &b_handle));
        assert_eq!(*evicted[0].lock().unwrap(), 20);
        assert!(mgr.get(a).is_ok());
        assert!(mgr.get(c).is_ok());
        assert_eq!(mgr.get(b).err(), Some(SessionGone::Expired));
    }

    #[test]
    fn insert_expires_idle_sessions_only() {
        let mut mgr: SessionManager<u32> = SessionManager::new(8, 3);
        let (a, _) = mgr.insert(1); // touched at clock 1
        let (b, _) = mgr.insert(2); // touched at clock 2
        let a_handle = mgr.get(a).unwrap(); // clock 3
        for _ in 0..4 {
            mgr.get(b).unwrap(); // clock 4..7, keeps b fresh
        }
        // Idle past the TTL, but nothing has grown the table yet.
        assert_eq!(mgr.len(), 2);
        let (c, evicted) = mgr.insert(3); // clock 8; deadline 5: a (3) < 5 ≤ b (7)
        assert_eq!(evicted.len(), 1);
        assert!(Arc::ptr_eq(&evicted[0], &a_handle));
        assert!(mgr.get(b).is_ok());
        assert!(mgr.get(c).is_ok());
        assert_eq!(mgr.get(a).err(), Some(SessionGone::Expired));
    }

    #[test]
    fn a_touch_before_the_next_insert_revives_an_idle_session() {
        let mut mgr: SessionManager<u32> = SessionManager::new(8, 1);
        let (a, _) = mgr.insert(1); // clock 1
        let (b, _) = mgr.insert(2); // clock 2
        mgr.get(b).unwrap(); // clock 3: a is idle past the TTL
        mgr.get(a).unwrap(); // clock 4: revived
        let (_, evicted) = mgr.insert(3); // clock 5; deadline 4: b (3) goes
        assert_eq!(evicted.len(), 1);
        assert_eq!(*evicted[0].lock().unwrap(), 2);
        assert!(mgr.get(a).is_ok());
    }

    #[test]
    fn zero_ttl_disables_expiry() {
        let mut mgr: SessionManager<u32> = SessionManager::new(4, 0);
        let (a, _) = mgr.insert(1);
        let (b, _) = mgr.insert(2);
        for _ in 0..100 {
            mgr.get(b).unwrap();
        }
        // Way over any plausible deadline, but TTL is off — and the table
        // is under capacity.
        let (_, evicted) = mgr.insert(3);
        assert!(evicted.is_empty());
        assert!(mgr.get(a).is_ok());
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

    /// The two policies written separately, the naive way: at each insert,
    /// first drop every entry idle more than the TTL, then drop least
    /// recently used entries while over capacity.
    struct Reference {
        last_used: BTreeMap<u64, u64>,
        clock: u64,
        next_id: u64,
        capacity: usize,
        ttl: u64,
    }

    impl Reference {
        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn insert(&mut self) -> (u64, BTreeSet<u64>) {
            let now = self.tick();
            let id = self.next_id;
            self.next_id += 1;
            let mut evicted = BTreeSet::new();
            if self.ttl > 0 {
                self.last_used.retain(|&id, &mut last| {
                    let idle = now - last > self.ttl;
                    if idle {
                        evicted.insert(id);
                    }
                    !idle
                });
            }
            self.last_used.insert(id, now);
            while self.last_used.len() > self.capacity {
                let (&lru, _) = self.last_used.iter().min_by_key(|(_, &t)| t).unwrap();
                self.last_used.remove(&lru);
                evicted.insert(lru);
            }
            (id, evicted)
        }

        fn get(&mut self, id: u64) -> bool {
            let now = self.tick();
            self.last_used.get_mut(&id).map(|t| *t = now).is_some()
        }

        fn remove(&mut self, id: u64) -> bool {
            self.tick();
            self.last_used.remove(&id).is_some()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_eviction_loop_matches_both_policies(
            capacity in 1usize..=4,
            ttl in 0u64..=5,
            // Each op: `op % 3` picks insert / get / remove, `op / 3` the
            // target id (up to one past the last issued: never issued).
            ops in proptest::collection::vec(0u64..60, 0..80),
        ) {
            let mut mgr: SessionManager<u64> = SessionManager::new(capacity, ttl);
            let mut reference = Reference {
                last_used: BTreeMap::new(),
                clock: 0,
                next_id: 0,
                capacity,
                ttl,
            };
            for op in ops {
                let target = op / 3 % (reference.next_id + 1);
                match op % 3 {
                    0 => {
                        let (id, evicted) = mgr.insert(reference.next_id);
                        let (want_id, want_evicted) = reference.insert();
                        prop_assert_eq!(id, want_id);
                        let evicted: BTreeSet<u64> =
                            evicted.iter().map(|p| *p.lock().unwrap()).collect();
                        prop_assert_eq!(evicted, want_evicted);
                        prop_assert!(mgr.len() <= capacity);
                    }
                    1 => prop_assert_eq!(mgr.get(target).is_ok(), reference.get(target)),
                    _ => prop_assert_eq!(mgr.remove(target).is_ok(), reference.remove(target)),
                }
                let resident: BTreeSet<u64> = mgr.entries.keys().copied().collect();
                let want: BTreeSet<u64> = reference.last_used.keys().copied().collect();
                prop_assert_eq!(resident, want);
            }
        }
    }
}
