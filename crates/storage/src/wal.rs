//! Checksummed append-only write-ahead log with segment rotation and
//! atomic snapshot compaction.
//!
//! ## On-disk layout
//!
//! A WAL directory holds at most one *snapshot* plus a run of *segments*,
//! all tagged with an **epoch** number:
//!
//! ```text
//! snapshot-000003.json      # opaque snapshot bytes, published atomically
//! wal-000003-000000.log     # segments of the same epoch, replayed in
//! wal-000003-000001.log     # sequence order on top of the snapshot
//! ```
//!
//! Each segment is a run of CRC-framed records:
//! `[len: u32 LE][crc32(payload): u32 LE][payload]`. Appends are synced
//! before they return — an `Ok` from [`Wal::append`] means the record is
//! durable.
//!
//! ## Compaction
//!
//! [`Wal::compact`] publishes caller-provided snapshot bytes under the
//! *next* epoch via [`atomic_write`] (temp + fsync + rename). The rename
//! is the commit point: recovery keys everything off the highest complete
//! snapshot, so a crash anywhere during compaction leaves either the old
//! epoch fully intact or the new one fully committed. Superseded files
//! are deleted best-effort afterwards; leftovers are recognised as stale
//! by the next open and removed then.
//!
//! ## Recovery
//!
//! [`Wal::open`] loads the highest-epoch snapshot, replays that epoch's
//! segments in order, and truncates a torn tail: the first frame that is
//! incomplete or fails its checksum ends the segment, and everything from
//! there on is dropped and reported in [`WalRecovery`]. Because every
//! acknowledged append was synced past that point, and every failed
//! append was truncated back out of the volatile image before any later
//! sync (see [`Wal::append`]'s repair path), the replayed records are
//! exactly the acknowledged ones.
//!
//! Each segment is read twice during recovery: transient read faults (bit
//! flips, short reads) make the two reads disagree, in which case the
//! parse that recovers more records wins. Durable corruption reads the
//! same both times and is truncated honestly.

use std::io;
use std::path::{Path, PathBuf};

use crate::atomic::{atomic_write, TMP_SUFFIX};
use crate::crc::crc32;
use crate::io::{IoRef, StorageIo};

/// Frame header: 4 bytes length + 4 bytes CRC32.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single record; anything larger in a length field is
/// treated as corruption rather than an allocation request.
pub(crate) const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Rotate to a new segment once the active one exceeds this size.
    /// A single record larger than this still gets written (alone, in a
    /// fresh segment); rotation is a soft bound.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
        }
    }
}

/// What [`Wal::open`] found and did. The `records` are exactly the
/// acknowledged appends since the snapshot, in append order.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Snapshot bytes of the current epoch, if a compaction ever ran.
    pub snapshot: Option<Vec<u8>>,
    /// Replayed record payloads, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Segments of the current epoch that were replayed.
    pub segments_replayed: u64,
    /// Torn/corrupt frame runs dropped (at most one per segment).
    pub truncated_records: u64,
    /// Total bytes dropped by tail truncation.
    pub truncated_bytes: u64,
    /// Segments whose two recovery reads disagreed and where the re-read
    /// recovered more than the first attempt (transient fault healed).
    pub reread_recoveries: u64,
    /// Stale files (older epochs, leftover temp files) removed.
    pub stale_files_removed: u64,
}

#[derive(Debug)]
struct ActiveSegment {
    path: PathBuf,
    /// Known-good length: every byte below this is a synced, intact frame.
    len: u64,
}

/// Append-only checksummed log over an injectable [`StorageIo`].
pub struct Wal {
    io: IoRef,
    dir: PathBuf,
    opts: WalOptions,
    epoch: u64,
    next_seq: u64,
    /// `None` means the next append starts a fresh segment — either
    /// nothing has been written this epoch, or the last segment was
    /// sealed because its repair truncate failed.
    active: Option<ActiveSegment>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("next_seq", &self.next_seq)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

fn segment_name(epoch: u64, seq: u64) -> String {
    format!("wal-{epoch:06}-{seq:06}.log")
}

fn snapshot_name(epoch: u64) -> String {
    format!("snapshot-{epoch:06}.json")
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (epoch, seq) = rest.split_once('-')?;
    Some((epoch.parse().ok()?, seq.parse().ok()?))
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

fn file_name(path: &Path) -> Option<&str> {
    path.file_name().and_then(|n| n.to_str())
}

fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

#[derive(Debug)]
struct SegmentParse {
    records: Vec<Vec<u8>>,
    /// Byte offset of the first non-intact frame (== data len when clean).
    good_len: u64,
    dropped_bytes: u64,
}

impl SegmentParse {
    fn clean(&self) -> bool {
        self.dropped_bytes == 0
    }
}

/// Walk frames until the data ends or a frame fails validation; the
/// remainder past the first bad frame is unreachable and counted dropped.
fn parse_frames(data: &[u8]) -> SegmentParse {
    let mut pos = 0usize;
    let mut records = Vec::new();
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < FRAME_HEADER {
            break; // torn mid-header
        }
        let len =
            u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]) as usize;
        if len > MAX_RECORD_BYTES || pos + FRAME_HEADER + len > data.len() {
            break; // corrupt length or torn mid-payload
        }
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        let payload = &data[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            break; // bit rot or torn payload that still parsed a length
        }
        records.push(payload.to_vec());
        pos += FRAME_HEADER + len;
    }
    SegmentParse {
        records,
        good_len: pos as u64,
        dropped_bytes: (data.len() - pos) as u64,
    }
}

/// Read a segment twice and reconcile (see module docs). Returns the
/// winning parse and whether the re-read beat a transiently-corrupt first
/// read. Read errors are retried once per attempt before giving up.
fn read_and_parse(io: &dyn StorageIo, path: &Path) -> io::Result<(SegmentParse, bool)> {
    let first = io.read(path).or_else(|_| io.read(path))?;
    let second = match io.read(path).or_else(|_| io.read(path)) {
        Ok(bytes) => bytes,
        // If the confirmation read is impossible, the first read stands.
        Err(_) => return Ok((parse_frames(&first), false)),
    };
    if first == second {
        return Ok((parse_frames(&first), false));
    }
    let p1 = parse_frames(&first);
    let p2 = parse_frames(&second);
    if p2.records.len() > p1.records.len() {
        Ok((p2, true))
    } else if p1.records.len() > p2.records.len() {
        Ok((p1, true))
    } else if p2.clean() && !p1.clean() {
        Ok((p2, true))
    } else {
        Ok((p1, false))
    }
}

impl Wal {
    /// Open (or create) the WAL at `dir`, running full recovery.
    pub fn open(io: IoRef, dir: &Path, opts: WalOptions) -> io::Result<(Self, WalRecovery)> {
        io.create_dir_all(dir)?;
        let files = io.list(dir)?;

        let epoch = files
            .iter()
            .filter_map(|p| file_name(p).and_then(parse_snapshot_name))
            .max()
            .unwrap_or(0);

        let mut recovery = WalRecovery::default();

        if epoch > 0 {
            let snap_path = dir.join(snapshot_name(epoch));
            let bytes = io.read(&snap_path).or_else(|_| io.read(&snap_path))?;
            recovery.snapshot = Some(bytes);
        }

        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for path in &files {
            let Some(name) = file_name(path) else {
                continue;
            };
            if let Some((seg_epoch, seq)) = parse_segment_name(name) {
                if seg_epoch > epoch {
                    // Segments can only be created after their epoch's
                    // snapshot is durable; a future-epoch orphan means the
                    // directory was tampered with. Refuse to guess.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("wal segment {name} from epoch {seg_epoch} has no snapshot"),
                    ));
                }
                if seg_epoch == epoch {
                    segments.push((seq, path.clone()));
                }
            }
        }
        segments.sort_by_key(|(seq, _)| *seq);

        let mut active = None;
        let mut next_seq = 0;
        for (idx, (seq, path)) in segments.iter().enumerate() {
            let (parse, reread) = read_and_parse(io.as_ref(), path)?;
            recovery.segments_replayed += 1;
            if reread {
                recovery.reread_recoveries += 1;
            }
            if !parse.clean() {
                recovery.truncated_records += 1;
                recovery.truncated_bytes += parse.dropped_bytes;
            }
            let is_last = idx + 1 == segments.len();
            if is_last {
                next_seq = seq + 1;
                if parse.clean() {
                    active = Some(ActiveSegment {
                        path: path.clone(),
                        len: parse.good_len,
                    });
                } else {
                    // Repair the torn tail so future appends extend a
                    // clean file; if the repair cannot be made durable,
                    // seal the segment instead of trusting it.
                    let repaired =
                        io.truncate(path, parse.good_len).is_ok() && io.sync(path).is_ok();
                    if repaired {
                        active = Some(ActiveSegment {
                            path: path.clone(),
                            len: parse.good_len,
                        });
                    }
                }
            }
            recovery.records.extend(parse.records);
        }

        // Sweep leftovers from interrupted compactions: older-epoch
        // snapshots and segments, and orphaned temp files.
        for path in &files {
            let Some(name) = file_name(path) else {
                continue;
            };
            let stale = name.ends_with(TMP_SUFFIX)
                || file_name(path)
                    .and_then(parse_snapshot_name)
                    .is_some_and(|e| e < epoch)
                || file_name(path)
                    .and_then(parse_segment_name)
                    .is_some_and(|(e, _)| e < epoch);
            if stale && io.remove(path).is_ok() {
                recovery.stale_files_removed += 1;
            }
        }

        Ok((
            Self {
                io,
                dir: dir.to_path_buf(),
                opts,
                epoch,
                next_seq,
                active,
            },
            recovery,
        ))
    }

    /// Durably append one record. `Ok` means the record (and everything
    /// before it) survives a crash; `Err` means it is as if the call
    /// never happened — a torn prefix is truncated back out of the
    /// volatile file, or the segment is sealed if even that fails.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds MAX_RECORD_BYTES",
            ));
        }
        let frame = encode_frame(payload);
        let rotate = match &self.active {
            None => true,
            Some(a) => a.len > 0 && a.len + frame.len() as u64 > self.opts.segment_bytes,
        };
        if rotate {
            // Lazy rotation: no IO here — the first append creates the
            // file, and a crash before its first sync leaves nothing.
            let path = self.dir.join(segment_name(self.epoch, self.next_seq));
            self.next_seq += 1;
            self.active = Some(ActiveSegment { path, len: 0 });
        }
        let (path, good_len) = {
            let a = self
                .active
                .as_ref()
                .expect("rotation always sets an active segment");
            (a.path.clone(), a.len)
        };
        if let Err(e) = self.io.append(&path, &frame) {
            self.repair(&path, good_len);
            return Err(e);
        }
        if let Err(e) = self.io.sync(&path) {
            self.repair(&path, good_len);
            return Err(e);
        }
        if let Some(a) = self.active.as_mut() {
            a.len = good_len + frame.len() as u64;
        }
        Ok(())
    }

    /// After a failed append or sync the file may hold a torn,
    /// never-durable tail. Cut the volatile image back to the known-good
    /// length so no later successful sync can promote the torn bytes. If
    /// the cut itself fails, seal the segment: nothing will sync it
    /// again, so its durable image stays at the last acknowledged state
    /// and recovery drops whatever volatile tail a crash discards anyway.
    fn repair(&mut self, path: &Path, good_len: u64) {
        if self.io.truncate(path, good_len).is_err() {
            self.active = None;
        }
    }

    /// Publish `snapshot` as the new epoch and retire every current
    /// segment. The atomic snapshot rename is the commit point; file
    /// deletion afterwards is best-effort (recovery sweeps leftovers).
    pub fn compact(&mut self, snapshot: &[u8]) -> io::Result<()> {
        let new_epoch = self.epoch + 1;
        let snap_path = self.dir.join(snapshot_name(new_epoch));
        atomic_write(self.io.as_ref(), &snap_path, snapshot)?;
        // Commit point passed — everything below is cleanup.
        let old_epoch = self.epoch;
        self.epoch = new_epoch;
        self.next_seq = 0;
        self.active = None;
        if let Ok(files) = self.io.list(&self.dir) {
            for path in files {
                let Some(name) = file_name(&path) else {
                    continue;
                };
                let stale = parse_segment_name(name).is_some_and(|(e, _)| e <= old_epoch)
                    || parse_snapshot_name(name).is_some_and(|e| e <= old_epoch);
                if stale {
                    let _ = self.io.remove(&path);
                }
            }
        }
        Ok(())
    }

    /// Segments started this epoch (rotations + the initial one).
    pub fn segments_started(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultIo, FaultKind, FaultPlan};
    use crate::mem::MemIo;

    fn dir() -> PathBuf {
        PathBuf::from("/wal")
    }

    fn recs(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i:04}").into_bytes())
            .collect()
    }

    #[test]
    fn roundtrip_over_crash_is_exact() {
        let mem = MemIo::handle();
        let (mut wal, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert!(rec.records.is_empty());
        let payloads = recs(5);
        for p in &payloads {
            wal.append(p).unwrap();
        }
        drop(wal);
        mem.crash();
        let (_, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.records, payloads);
        assert_eq!(rec.truncated_records, 0);
    }

    #[test]
    fn rotation_splits_segments_and_preserves_order() {
        let mem = MemIo::handle();
        let opts = WalOptions { segment_bytes: 40 };
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), opts).unwrap();
        let payloads = recs(10); // 11-byte payloads + 8-byte headers → rotations
        for p in &payloads {
            wal.append(p).unwrap();
        }
        assert!(wal.segments_started() > 1, "expected at least one rotation");
        drop(wal);
        mem.crash();
        let (_, rec) = Wal::open(mem.clone(), &dir(), opts).unwrap();
        assert_eq!(rec.records, payloads);
        assert!(rec.segments_replayed > 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        let payloads = recs(3);
        for p in &payloads {
            wal.append(p).unwrap();
        }
        // Simulate a torn append that somehow reached the durable image:
        // half a frame straight onto the segment file, synced.
        let seg = dir().join(segment_name(0, 0));
        let clean_len = mem.durable_len(&seg);
        let torn = &encode_frame(b"never-acknowledged")[..10];
        mem.append(&seg, torn).unwrap();
        mem.sync(&seg).unwrap();
        mem.crash();

        let (wal2, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.records, payloads, "acked records exact, torn tail gone");
        assert_eq!(rec.truncated_records, 1);
        assert_eq!(rec.truncated_bytes, torn.len() as u64);
        // The tail was repaired: the active segment is clean again, at the
        // length it had before the torn bytes landed.
        assert_eq!(wal2.active.as_ref().map(|a| a.len), mem.durable_len(&seg));
        assert_eq!(mem.durable_len(&seg), clean_len);
    }

    #[test]
    fn failed_append_is_never_resurrected() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        wal.append(b"acked-1").unwrap();

        // Re-open through a faulty IO that tears the next append mid-frame.
        // Faulty ops: mkdir(0), list(1), segment read(2), re-read(3),
        // then the torn append lands on op 4.
        let faulty = FaultIo::handle(
            mem.clone(),
            FaultPlan::new().with_fault(4, FaultKind::Torn { frac: 200 }),
        );
        let (mut wal_faulty, rec) = Wal::open(faulty, &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.records, vec![b"acked-1".to_vec()]);
        assert!(wal_faulty.append(b"torn-loser").is_err());
        wal_faulty.append(b"acked-2").unwrap();
        drop(wal_faulty);
        mem.crash();

        let (_, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.records, vec![b"acked-1".to_vec(), b"acked-2".to_vec()]);
    }

    #[test]
    fn failed_sync_is_never_resurrected() {
        let mem = MemIo::handle();
        // Open cleanly first so the open's own ops don't consume indexes.
        let (wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        drop(wal);
        // Faulty ops: open = mkdir(0) + list(1); first append = append(2)
        // + sync(3); the loser append = append(4) + sync(5) — fail that
        // sync, then let the repair truncate (6) succeed.
        let faulty = FaultIo::handle(
            mem.clone(),
            FaultPlan::new().with_fault(5, FaultKind::SyncFail),
        );
        let (mut wal, _) = Wal::open(faulty, &dir(), WalOptions::default()).unwrap();
        wal.append(b"acked-1").unwrap();
        assert!(wal.append(b"sync-loser").is_err());
        wal.append(b"acked-2").unwrap();
        drop(wal);
        mem.crash();
        let (_, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.records, vec![b"acked-1".to_vec(), b"acked-2".to_vec()]);
    }

    #[test]
    fn compaction_commits_snapshot_and_retires_segments() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        wal.append(b"old-1").unwrap();
        wal.append(b"old-2").unwrap();
        wal.compact(b"{\"snapshot\":true}").unwrap();
        assert_eq!(wal.epoch, 1);
        wal.append(b"new-1").unwrap();
        drop(wal);
        mem.crash();

        let (_, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"{\"snapshot\":true}"[..]));
        assert_eq!(rec.records, vec![b"new-1".to_vec()]);
    }

    #[test]
    fn interrupted_compaction_cleanup_is_swept_at_open() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        wal.append(b"old-1").unwrap();

        // Compact through an IO that crashes right after the commit-point
        // rename: the new snapshot is durable, old files never deleted.
        // Ops: open is clean; compact = write tmp(0), sync tmp(1),
        // rename(2), then list(3)+removes — crash at the list.
        let faulty = FaultIo::handle(mem.clone(), FaultPlan::new().with_crash_at(3));
        let (mut wal_faulty, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        wal_faulty.io = faulty;
        wal_faulty.compact(b"snap-v1").unwrap(); // cleanup failure is swallowed
        drop(wal_faulty);
        drop(wal);
        mem.crash();

        let (_, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"snap-v1"[..]));
        assert!(rec.records.is_empty(), "old epoch segments must not replay");
        assert!(
            rec.stale_files_removed > 0,
            "leftover old-epoch files swept"
        );
    }

    #[test]
    fn transient_bit_flip_during_recovery_is_healed_by_reread() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        let payloads = recs(4);
        for p in &payloads {
            wal.append(p).unwrap();
        }
        drop(wal);
        mem.crash();

        // Recovery ops: mkdir(0), list(1), seg read(2), seg re-read(3).
        // Flip a bit in the first read only.
        let faulty = FaultIo::handle(
            mem.clone(),
            FaultPlan::new().with_fault(2, FaultKind::BitFlip),
        );
        let (_, rec) = Wal::open(faulty, &dir(), WalOptions::default()).unwrap();
        assert_eq!(rec.records, payloads, "re-read must recover every record");
        assert_eq!(rec.reread_recoveries, 1);
        assert_eq!(rec.truncated_records, 0);
    }

    #[test]
    fn durable_corruption_is_detected_and_truncated() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        let payloads = recs(3);
        for p in &payloads {
            wal.append(p).unwrap();
        }
        drop(wal);
        // Flip one durable bit inside the *last* record's payload.
        let seg = dir().join(segment_name(0, 0));
        let len = mem.durable_len(&seg).unwrap();
        mem.corrupt_durable(&seg, len as usize - 2, 0x04).unwrap();
        mem.crash();

        let (_, rec) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        assert_eq!(
            rec.records,
            payloads[..2].to_vec(),
            "corrupt record must not replay"
        );
        assert_eq!(rec.truncated_records, 1);
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn oversized_record_is_rejected_up_front() {
        let mem = MemIo::handle();
        let (mut wal, _) = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap();
        let huge = vec![0u8; MAX_RECORD_BYTES + 1];
        assert_eq!(
            wal.append(&huge).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn future_epoch_orphan_segment_is_an_error() {
        let mem = MemIo::handle();
        mem.create_dir_all(&dir()).unwrap();
        let orphan = dir().join(segment_name(7, 0));
        mem.write(&orphan, &encode_frame(b"x")).unwrap();
        mem.sync(&orphan).unwrap();
        let err = Wal::open(mem.clone(), &dir(), WalOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
