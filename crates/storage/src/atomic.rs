//! Crash-safe whole-file publication.
//!
//! The only safe way to replace a file whose previous contents must
//! survive a crash mid-write: write a sibling temp file, fsync it, then
//! atomically rename over the destination. At no point does the
//! destination name refer to partial data — a crash leaves either the old
//! file or the new one, never a torn hybrid.

use std::io;
use std::path::{Path, PathBuf};

use crate::io::StorageIo;

/// Suffix used for in-flight temp files. Recovery code treats `*.tmp`
/// files as garbage from an interrupted publish and removes them.
pub(crate) const TMP_SUFFIX: &str = ".tmp";

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Atomically replace `path` with `data`: temp file + fsync + rename.
///
/// On any failure the destination is untouched (the previous content, if
/// any, is still there) and the temp file is removed best-effort.
pub fn atomic_write(io: &dyn StorageIo, path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    if let Err(e) = io.write(&tmp, data) {
        let _ = io.remove(&tmp);
        return Err(e);
    }
    if let Err(e) = io.sync(&tmp) {
        let _ = io.remove(&tmp);
        return Err(e);
    }
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove(&tmp);
        return Err(e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultIo, FaultKind, FaultPlan};
    use crate::mem::MemIo;

    #[test]
    fn publishes_atomically_and_survives_crash() {
        let mem = MemIo::handle();
        let p = Path::new("/d/snap.json");
        atomic_write(mem.as_ref(), p, b"v1").unwrap();
        mem.crash();
        assert_eq!(mem.read(p).unwrap(), b"v1");

        atomic_write(mem.as_ref(), p, b"v2").unwrap();
        mem.crash();
        assert_eq!(mem.read(p).unwrap(), b"v2");
    }

    #[test]
    fn failed_sync_leaves_old_content_intact() {
        let mem = MemIo::handle();
        let p = Path::new("/d/snap.json");
        atomic_write(mem.as_ref(), p, b"old").unwrap();

        // Ops per atomic_write through this FaultIo: write(0) sync(1)
        // rename(2). Fault the sync.
        let io = FaultIo::new(
            mem.clone(),
            FaultPlan::new().with_fault(1, FaultKind::SyncFail),
        );
        assert!(atomic_write(&io, p, b"new").is_err());
        assert_eq!(mem.read(p).unwrap(), b"old");
        assert_eq!(mem.file_count(), 1, "temp file cleaned up");
    }

    #[test]
    fn crash_between_sync_and_rename_preserves_old_content() {
        let mem = MemIo::handle();
        let p = Path::new("/d/snap.json");
        atomic_write(mem.as_ref(), p, b"old").unwrap();

        // Second publish: write(0) sync(1) rename(2) — crash at the rename.
        let io = FaultIo::new(mem.clone(), FaultPlan::new().with_crash_at(2));
        assert!(atomic_write(&io, p, b"new").is_err());
        mem.crash();
        assert_eq!(mem.read(p).unwrap(), b"old");
    }
}
