//! # lrf-storage — the crash-safe storage layer
//!
//! Everything in the workspace that touches a file does it through this
//! crate (the `raw-fs` lint rule in `tools/lint` enforces it). The point
//! is not abstraction for its own sake: file IO is the one dependency the
//! test suite cannot otherwise control, and crash safety is exactly the
//! property that only shows up when writes tear, fsyncs fail, and the
//! process dies between two of them. Routing every byte through an
//! injectable [`StorageIo`] makes those failures schedulable:
//!
//! * [`StdIo`] — the production backend over `std::fs`.
//! * [`MemIo`] — an in-memory filesystem with a **durable/volatile
//!   split**: writes land in the volatile layer, [`StorageIo::sync`]
//!   promotes them to the durable layer, and [`MemIo::crash`] discards
//!   everything volatile — the precise semantics a power loss has on a
//!   real disk, minus the disk.
//! * [`FaultIo`] — wraps any backend and injects faults on a seeded,
//!   deterministic schedule: torn writes (a strict prefix lands, the call
//!   errors), fsync failures (no durability, the call errors), ENOSPC,
//!   transient bit flips and short reads on the read path, and a crash
//!   point after which every operation fails.
//!
//! On top of the IO trait sits [`Wal`], a checksummed append-only write-
//! ahead log: CRC32-framed records, size-based segment rotation, epoch-
//! numbered atomic compaction into an opaque snapshot (temp file + fsync +
//! rename, see [`atomic_write`]), and recovery that replays intact records
//! and truncates a torn tail — reporting exactly what it dropped.
//!
//! The crate's contract, enforced by the chaos suite in
//! `tests/chaos_wal.rs` across hundreds of seeded fault schedules:
//! **after a crash, recovery returns exactly the acknowledged records** —
//! an append that returned `Ok` is never lost, an append that returned
//! `Err` is never resurrected.

mod atomic;
mod crc;
pub mod fault;
mod io;
mod mem;
pub mod wal;

pub use atomic::atomic_write;
pub use fault::{FaultIo, FaultKind, FaultPlan};
pub use io::{IoRef, StdIo, StorageIo};
pub use mem::MemIo;
pub use wal::{Wal, WalOptions};
