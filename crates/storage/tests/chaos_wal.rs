//! Chaos property suite for the WAL: seeded fault schedules + injected
//! crashes, asserting the exactness invariant end to end.
//!
//! Each schedule runs one writer against a [`FaultIo`] whose faults and
//! crash point derive from a single seed, over a [`MemIo`] that models
//! the fsync barrier. The writer appends records (one retry per record),
//! periodically compacts the acknowledged prefix into a snapshot, and
//! stops when the injected crash point kills the storage. The crash then
//! fires with *strictly partial* writeback of any un-fsynced tail —
//! modeling kernel writeback racing the power loss, which is how torn
//! tails appear on real disks — and recovery runs over clean IO.
//!
//! Invariant, checked exactly per schedule:
//!
//! > snapshot ⧺ replayed records == the acknowledged records, in order.
//!
//! No acknowledged record lost, no unacknowledged record resurrected.
//!
//! Scope note on "strictly partial": if the kernel flushed an in-flight
//! frame *completely* before the crash, the record would replay even
//! though the writer never got its `Ok` — the inherent ambiguity of any
//! single-fsync WAL (the write happened; the acknowledgement didn't).
//! Callers that need idempotence across that window must dedup at a
//! higher layer. Everything short of that window is covered here.
//!
//! Env knobs (used by the CI chaos matrix):
//!   CHAOS_SEED_BASE  — offsets the seed range (default 0)
//!   CHAOS_SCHEDULES  — number of schedules (default 120, min 100 in CI)

use std::path::Path;

use lrf_storage::fault::splitmix64;
use lrf_storage::{FaultIo, FaultKind, FaultPlan, IoRef, MemIo, Wal, WalOptions};

/// Fault-schedule horizon in ops; the crash point lands in [H/4, H).
const HORIZON: u64 = 200;
/// Records the writer attempts per schedule — sized so the workload
/// usually reaches past the crash point (mid-run crash), but not always.
const RECORDS: usize = 80;
/// Compact every N acknowledged records.
const COMPACT_EVERY: usize = 17;
const SEGMENT_BYTES: u64 = 256;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Harness-level snapshot encoding: length-prefixed record list. The WAL
/// treats snapshot bytes as opaque; this stands in for the JSON store
/// snapshot the logdb layer uses.
fn encode_snapshot(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

fn decode_snapshot(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while bytes.len() >= 4 {
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        assert!(bytes.len() >= 4 + len, "snapshot must never be torn");
        out.push(bytes[4..4 + len].to_vec());
        bytes = &bytes[4 + len..];
    }
    assert!(bytes.is_empty(), "snapshot must never be torn");
    out
}

#[derive(Debug, Default)]
struct Outcome {
    acked: usize,
    crashed_mid_run: bool,
    truncated_records: u64,
    reread_recoveries: u64,
}

fn run_schedule(seed: u64) -> Outcome {
    let mem = MemIo::handle();
    let dir = Path::new("/chaos/wal");
    let opts = WalOptions {
        segment_bytes: SEGMENT_BYTES,
    };

    let plan = FaultPlan::seeded(seed, HORIZON);
    let fault = FaultIo::handle(mem.clone(), plan);
    let io: IoRef = fault.clone();

    let mut acked: Vec<Vec<u8>> = Vec::new();
    let mut crashed = false;

    // Opening an empty dir can itself be faulted; a couple of retries
    // mirror how a real writer would come up. If it never opens, the
    // schedule degenerates to "crashed before anything was acked".
    let mut wal = None;
    for _ in 0..3 {
        match Wal::open(io.clone(), dir, opts) {
            Ok((w, _)) => {
                wal = Some(w);
                break;
            }
            Err(_) => {
                if fault.crashed() {
                    crashed = true;
                    break;
                }
            }
        }
    }

    if let Some(mut wal) = wal {
        for i in 0..RECORDS {
            let payload = format!("seed{seed:016x}-rec{i:03}").into_bytes();
            let mut ok = false;
            for _attempt in 0..2 {
                match wal.append(&payload) {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err(_) => {
                        if fault.crashed() {
                            crashed = true;
                            break;
                        }
                    }
                }
            }
            if crashed {
                break;
            }
            if ok {
                acked.push(payload);
            }
            // An append that failed both attempts is simply unacknowledged;
            // the writer moves on (the service layer records such a session
            // volatile until a compaction — here we only care about the
            // invariant).

            if acked.len().is_multiple_of(COMPACT_EVERY) && !acked.is_empty() {
                // Compaction failure is fine: the epoch is unchanged and
                // the segments still hold everything since the last
                // successful snapshot.
                let _ = wal.compact(&encode_snapshot(&acked));
                if fault.crashed() {
                    crashed = true;
                    break;
                }
            }
        }
    }

    // Power loss, with kernel writeback racing it: each un-fsynced tail
    // gets a strictly partial flush (keep < tail_len — see module docs).
    let mut wb_state = seed ^ 0xD6E8_FEB8_6659_FD93;
    mem.crash_with_writeback(|_, tail_len| splitmix64(&mut wb_state) as usize % tail_len);

    // Recovery over clean IO (the machine rebooted; the disk is fine).
    let (_, recovery) =
        Wal::open(mem.clone(), dir, opts).expect("recovery over clean IO must succeed");

    let mut recovered = recovery
        .snapshot
        .as_deref()
        .map(decode_snapshot)
        .unwrap_or_default();
    recovered.extend(recovery.records.iter().cloned());

    assert_eq!(
        recovered,
        acked,
        "seed {seed}: recovered log must contain exactly the acknowledged \
         records ({} recovered vs {} acked, crashed_mid_run={})",
        recovered.len(),
        acked.len(),
        crashed
    );

    Outcome {
        acked: acked.len(),
        crashed_mid_run: crashed,
        truncated_records: recovery.truncated_records,
        reread_recoveries: recovery.reread_recoveries,
    }
}

#[test]
fn chaos_exactness_across_seeded_fault_schedules() {
    let base = env_u64("CHAOS_SEED_BASE", 0);
    let schedules = env_u64("CHAOS_SCHEDULES", 120);

    let mut crashes = 0u64;
    let mut truncations = 0u64;
    let mut rereads = 0u64;
    let mut total_acked = 0u64;
    for s in 0..schedules {
        let outcome = run_schedule(base.wrapping_mul(1_000_003).wrapping_add(s));
        crashes += outcome.crashed_mid_run as u64;
        truncations += outcome.truncated_records;
        rereads += outcome.reread_recoveries;
        total_acked += outcome.acked as u64;
    }

    println!(
        "chaos: {schedules} schedules (base {base}), {crashes} mid-run crashes, \
         {total_acked} records acked, {truncations} torn tails truncated, \
         {rereads} re-read recoveries"
    );

    // The suite must actually exercise what it claims to: most schedules
    // crash mid-run, and torn tails both occur and are reported.
    assert!(
        crashes >= schedules / 4,
        "too few mid-run crashes ({crashes}/{schedules}) — fault horizon mistuned"
    );
    assert!(
        truncations > 0,
        "no torn-tail truncation was ever reported across {schedules} schedules"
    );
}

/// Directed companion to the seeded sweep: a torn tail is *guaranteed*
/// here, so the recovery-metrics reporting path cannot silently rot even
/// if the seeded schedules drift.
#[test]
fn torn_tail_reporting_is_guaranteed() {
    let mem = MemIo::handle();
    let dir = Path::new("/chaos/directed");
    let opts = WalOptions::default();
    // Ops: mkdir(0), list(1); acked append(2)+sync(3); in-flight
    // append(4) lands, its sync(5) fails, and the repair truncate(6)
    // fails too — the segment is sealed with a full un-fsynced frame
    // sitting in the page cache.
    let plan = FaultPlan::new()
        .with_fault(5, FaultKind::SyncFail)
        .with_fault(6, FaultKind::Error);
    let io: IoRef = FaultIo::handle(mem.clone(), plan);
    let (mut wal, _) = Wal::open(io, dir, opts).unwrap();
    wal.append(b"acked").unwrap();
    assert!(wal.append(b"in-flight").is_err());
    drop(wal);
    // Power loss; writeback flushed exactly 3 bytes of the torn tail.
    mem.crash_with_writeback(|_, tail| tail.min(3));

    let (_, recovery) = Wal::open(mem.clone(), dir, opts).unwrap();
    assert_eq!(recovery.records, vec![b"acked".to_vec()]);
    assert_eq!(recovery.truncated_records, 1);
    assert_eq!(recovery.truncated_bytes, 3);
}
