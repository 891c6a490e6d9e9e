//! Deterministic fault injection for [`StorageIo`] backends.
//!
//! [`FaultIo`] wraps any backend and consults a [`FaultPlan`] — a map from
//! *operation index* (every trait call increments a counter) to the fault
//! to inject there, plus an optional crash point after which every call
//! fails. Plans are either built explicitly (`with_fault`, `outage`) or
//! derived from a seed ([`FaultPlan::seeded`]) via an inline SplitMix64
//! generator, so a chaos run is reproducible from a single `u64`.
//!
//! Faults are adapted to the operation they land on:
//!
//! * append/write — [`FaultKind::Torn`] lands a strict prefix then errors
//!   (the torn write); [`FaultKind::NoSpace`] errors with nothing written.
//! * read — [`FaultKind::BitFlip`] and [`FaultKind::ShortRead`] corrupt
//!   only the returned buffer (*transient* faults: the backing store is
//!   untouched, a re-read sees clean data — how a flaky bus behaves).
//! * sync — errors without promoting durability.
//! * everything else — a generic IO error with no effect.
//!
//! The distinction between torn (durable damage) and transient (read-path)
//! faults matters for the exactness invariant: recovery must survive both,
//! but only the former may cost it the un-acknowledged tail.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
// Plain std atomics on purpose: the op counter is bookkeeping, not a
// concurrency protocol for loom to explore, and this crate sits below
// the lrf-sync facade in the dependency order.
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::io::{IoRef, StorageIo};

/// A single injectable fault. See the module docs for how each kind is
/// adapted to the operation it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Torn write: a strict prefix (`frac`/256 of the payload) reaches the
    /// backend, then the call errors.
    Torn { frac: u8 },
    /// Out of space: the call errors with `ErrorKind::StorageFull`,
    /// nothing written.
    NoSpace,
    /// Fsync failure: the call errors, durability is not promoted.
    SyncFail,
    /// Transient single-bit corruption in a read's returned buffer.
    BitFlip,
    /// Transient short read: the returned buffer is truncated.
    ShortRead,
    /// Generic IO error with no side effect.
    Error,
}

/// Deterministic schedule of faults keyed by operation index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: HashMap<u64, FaultKind>,
    /// Every op in `[start, end)` fails (storage outage window).
    outage: Option<(u64, u64)>,
    /// From this op index on, every call fails with a crash error.
    pub crash_at: Option<u64>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inject `kind` at operation index `op`.
    pub fn with_fault(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.insert(op, kind);
        self
    }

    /// Simulate a full storage outage for ops in `[start, end)`.
    pub fn outage(start: u64, end: u64) -> Self {
        Self {
            outage: Some((start, end)),
            ..Self::default()
        }
    }

    /// Crash (permanently fail) from operation index `op` onward.
    pub fn with_crash_at(mut self, op: u64) -> Self {
        self.crash_at = Some(op);
        self
    }

    /// Derive a reproducible schedule from `seed`: roughly 8% of the first
    /// `horizon` operations get a random fault, and a crash point lands
    /// somewhere in the middle-to-late portion of the horizon.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut state = seed;
        let mut faults = HashMap::new();
        for op in 0..horizon {
            if splitmix64(&mut state) % 100 < 8 {
                let kind = match splitmix64(&mut state) % 6 {
                    0 => FaultKind::Torn {
                        frac: (splitmix64(&mut state) % 256) as u8,
                    },
                    1 => FaultKind::NoSpace,
                    2 => FaultKind::SyncFail,
                    3 => FaultKind::BitFlip,
                    4 => FaultKind::ShortRead,
                    _ => FaultKind::Error,
                };
                faults.insert(op, kind);
            }
        }
        let lo = horizon / 4;
        let span = (horizon - lo).max(1);
        let crash_at = lo + splitmix64(&mut state) % span;
        Self {
            faults,
            outage: None,
            crash_at: Some(crash_at),
        }
    }

    fn fault_for(&self, op: u64) -> Option<FaultKind> {
        if let Some((start, end)) = self.outage {
            if op >= start && op < end {
                return Some(FaultKind::Error);
            }
        }
        self.faults.get(&op).copied()
    }
}

/// SplitMix64 — tiny, seedable, and good enough for fault schedules.
/// Inlined (and exported for test harnesses) so the storage layer stays
/// dependency-free.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fault-injecting wrapper around another [`StorageIo`].
pub struct FaultIo {
    inner: IoRef,
    plan: FaultPlan,
    op: AtomicU64,
    crashed: AtomicBool,
}

impl FaultIo {
    pub fn new(inner: IoRef, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            op: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }
    }

    pub fn handle(inner: IoRef, plan: FaultPlan) -> std::sync::Arc<FaultIo> {
        std::sync::Arc::new(Self::new(inner, plan))
    }

    /// Operations attempted so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    /// Whether the crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    fn crash_error() -> io::Error {
        io::Error::other("simulated crash: storage is gone")
    }

    fn eio(what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }

    /// Claim the next op index; returns the fault scheduled for it, or an
    /// error if the crash point has been reached.
    fn next_op(&self) -> io::Result<Option<FaultKind>> {
        let op = self.op.fetch_add(1, Ordering::Relaxed);
        if let Some(crash) = self.plan.crash_at {
            if op >= crash {
                self.crashed.store(true, Ordering::Relaxed);
                return Err(Self::crash_error());
            }
        }
        Ok(self.plan.fault_for(op))
    }

    /// An operation that only fails or succeeds: any scheduled fault
    /// fails it with `"injected fault: {what} error"` without running it.
    fn plain<T>(&self, what: &str, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        match self.next_op()? {
            None => op(),
            Some(_) => Err(Self::eio(&format!("{what} error"))),
        }
    }

    /// A write or an append (`what`) of `data` through `write`: a torn
    /// fault writes a prefix of it and fails, a no-space fault fails with
    /// [`io::ErrorKind::StorageFull`], any other fails without writing.
    fn put(
        &self,
        what: &str,
        data: &[u8],
        write: impl FnOnce(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.next_op()? {
            None => write(data),
            Some(FaultKind::Torn { frac }) => {
                write(&data[..data.len() * frac as usize / 256])?;
                Err(Self::eio(&format!("torn {what}")))
            }
            Some(FaultKind::NoSpace) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected fault: no space left on device",
            )),
            Some(_) => Err(Self::eio(&format!("{what} error"))),
        }
    }
}

impl StorageIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.next_op()? {
            None => self.inner.read(path),
            Some(FaultKind::BitFlip) => {
                let mut data = self.inner.read(path)?;
                if !data.is_empty() {
                    // Deterministic position derived from the op index.
                    let pos = (self.ops() as usize).wrapping_mul(31) % data.len();
                    data[pos] ^= 0x40;
                }
                Ok(data)
            }
            Some(FaultKind::ShortRead) => {
                let mut data = self.inner.read(path)?;
                data.truncate(data.len() / 2);
                Ok(data)
            }
            Some(_) => Err(Self::eio("read error")),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.put("write", data, |data| self.inner.write(path, data))
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.put("append", data, |data| self.inner.append(path, data))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.plain("truncate", || self.inner.truncate(path, len))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.plain("fsync", || self.inner.sync(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.plain("rename", || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.plain("remove", || self.inner.remove(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.plain("list", || self.inner.list(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.plain("mkdir", || self.inner.create_dir_all(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemIo;

    #[test]
    fn torn_append_lands_a_strict_prefix() {
        let mem = MemIo::handle();
        let io = FaultIo::new(
            mem.clone(),
            FaultPlan::new().with_fault(0, FaultKind::Torn { frac: 128 }),
        );
        let p = Path::new("/w/a.log");
        let err = io.append(p, b"12345678").unwrap_err();
        assert!(err.to_string().contains("torn"));
        assert_eq!(mem.read(p).unwrap(), b"1234");
    }

    #[test]
    fn sync_fault_blocks_durability() {
        let mem = MemIo::handle();
        let io = FaultIo::new(
            mem.clone(),
            FaultPlan::new().with_fault(1, FaultKind::SyncFail),
        );
        let p = Path::new("/w/a.log");
        io.append(p, b"data").unwrap(); // op 0: clean
        assert!(io.sync(p).is_err()); // op 1: fsync fails
        mem.crash();
        assert!(mem.read(p).is_err(), "never-synced file must vanish");
    }

    #[test]
    fn bit_flip_is_transient() {
        let mem = MemIo::handle();
        let io = FaultIo::new(
            mem.clone(),
            FaultPlan::new().with_fault(2, FaultKind::BitFlip),
        );
        let p = Path::new("/w/a.log");
        io.write(p, b"clean payload").unwrap(); // op 0
        io.sync(p).unwrap(); // op 1
        let flipped = io.read(p).unwrap(); // op 2: corrupted in flight
        assert_ne!(flipped, b"clean payload");
        let again = io.read(p).unwrap(); // op 3: clean again
        assert_eq!(again, b"clean payload");
    }

    #[test]
    fn crash_point_fails_everything_after() {
        let mem = MemIo::handle();
        let io = FaultIo::new(mem.clone(), FaultPlan::new().with_crash_at(2));
        let p = Path::new("/w/a.log");
        io.write(p, b"x").unwrap();
        io.sync(p).unwrap();
        assert!(io.read(p).is_err());
        assert!(io.crashed());
        assert!(io.write(p, b"y").is_err(), "crash is permanent");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_distinct() {
        let a = FaultPlan::seeded(42, 200);
        let b = FaultPlan::seeded(42, 200);
        let c = FaultPlan::seeded(43, 200);
        assert_eq!(a.crash_at, b.crash_at);
        for op in 0..200 {
            assert_eq!(a.fault_for(op), b.fault_for(op));
        }
        let differs =
            a.crash_at != c.crash_at || (0..200).any(|op| a.fault_for(op) != c.fault_for(op));
        assert!(differs, "different seeds should give different schedules");
    }

    #[test]
    fn outage_window_fails_every_op_inside_it() {
        let mem = MemIo::handle();
        let io = FaultIo::new(mem.clone(), FaultPlan::outage(1, 3));
        let p = Path::new("/w/a.log");
        io.write(p, b"x").unwrap(); // op 0: fine
        assert!(io.sync(p).is_err()); // op 1: outage
        assert!(io.sync(p).is_err()); // op 2: outage
        io.sync(p).unwrap(); // op 3: recovered
    }
}
