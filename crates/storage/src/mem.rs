//! In-memory storage backend with crash semantics.
//!
//! [`MemIo`] models the one property of real disks that matters for
//! durability testing: **writes are not durable until synced**. Every file
//! carries two images — the *volatile* content (what reads observe, i.e.
//! the page cache) and the *durable* content (what survives a crash, i.e.
//! the platters). Mutating operations touch only the volatile image;
//! [`StorageIo::sync`] copies volatile → durable; [`MemIo::crash`] throws
//! away every volatile image, snapping the filesystem back to its durable
//! state. A file that was never synced disappears entirely.
//!
//! Simplification, stated so nobody mistakes it for an accident: `rename`
//! here is atomic *and* durable in one step, matching the post-
//! "rename + fsync(dir)" state that [`StdIo`](crate::StdIo) produces. We
//! do not model the window where a rename itself is torn, because the
//! callers in this workspace only rename after syncing the source (see
//! [`atomic_write`](crate::atomic_write)).

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use lrf_sync::{Mutex, MutexExt};

use crate::io::{IoRef, StorageIo};

#[derive(Debug, Clone)]
struct FileState {
    /// What reads see right now (page cache).
    volatile: Vec<u8>,
    /// What a crash preserves; `None` until the first successful sync.
    durable: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Fs {
    files: BTreeMap<PathBuf, FileState>,
    dirs: BTreeSet<PathBuf>,
}

/// In-memory [`StorageIo`] backend with a durable/volatile split.
#[derive(Debug, Default)]
pub struct MemIo {
    fs: Mutex<Fs>,
}

impl MemIo {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Concrete shared handle; coerces to [`IoRef`] where needed.
    pub fn handle() -> std::sync::Arc<MemIo> {
        std::sync::Arc::new(MemIo::new())
    }

    /// Shared handle pre-coerced to the trait object.
    pub fn io_ref() -> IoRef {
        std::sync::Arc::new(MemIo::new())
    }

    /// Simulate a power loss: every file reverts to its durable image;
    /// never-synced files vanish. Directories persist (directory creation
    /// is metadata we treat as durable — the WAL re-creates its directory
    /// on open anyway).
    pub fn crash(&self) {
        self.crash_with_writeback(|_, _| 0);
    }

    /// Crash, but first let background writeback race the power loss:
    /// for each file whose volatile image extends its durable one,
    /// `decide(path, tail_len)` says how many extra tail bytes reached
    /// the platters before the lights went out (clamped to `tail_len`).
    ///
    /// This models the reality that an un-fsynced append is not
    /// guaranteed *lost* — the kernel may have flushed part of it — which
    /// is exactly how torn tails appear on real disks. Chaos tests use a
    /// *strictly partial* writeback (`keep < tail_len`) because a full
    /// flush of an in-flight frame is the single-fsync WAL ambiguity no
    /// recovery scheme can resolve (the record was written but the writer
    /// was never told); see the chaos suite for the precise contract.
    ///
    /// Files whose volatile image is not a pure extension of the durable
    /// one (e.g. a rewritten temp file) keep their durable image as-is —
    /// writeback of non-append modifications is not modeled.
    pub fn crash_with_writeback(&self, mut decide: impl FnMut(&Path, usize) -> usize) {
        let mut fs = self.fs.lock_recover();
        let mut gone = Vec::new();
        for (path, state) in fs.files.iter_mut() {
            let durable_len = state.durable.as_ref().map_or(0, |d| d.len());
            let is_extension = state.volatile.len() >= durable_len
                && state
                    .durable
                    .as_ref()
                    .is_none_or(|d| state.volatile[..durable_len] == d[..]);
            if !is_extension {
                // Rewritten (not appended) content: writeback of it is
                // not modeled — revert to the durable image untouched.
                match &state.durable {
                    Some(d) => state.volatile = d.clone(),
                    None => gone.push(path.clone()),
                }
                continue;
            }
            let tail_len = state.volatile.len() - durable_len;
            let keep = if tail_len == 0 {
                0
            } else {
                decide(path, tail_len).min(tail_len)
            };
            let survives = durable_len + keep;
            if state.durable.is_none() && survives == 0 {
                gone.push(path.clone());
                continue;
            }
            let image = state.volatile[..survives].to_vec();
            state.durable = Some(image.clone());
            state.volatile = image;
        }
        for path in gone {
            fs.files.remove(&path);
        }
    }

    fn not_found() -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, "no such file")
    }
}

impl StorageIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fs = self.fs.lock_recover();
        fs.files
            .get(path)
            .map(|s| s.volatile.clone())
            .ok_or_else(Self::not_found)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        match fs.files.get_mut(path) {
            Some(state) => state.volatile = data.to_vec(),
            None => {
                fs.files.insert(
                    path.to_path_buf(),
                    FileState {
                        volatile: data.to_vec(),
                        durable: None,
                    },
                );
            }
        }
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        match fs.files.get_mut(path) {
            Some(state) => state.volatile.extend_from_slice(data),
            None => {
                fs.files.insert(
                    path.to_path_buf(),
                    FileState {
                        volatile: data.to_vec(),
                        durable: None,
                    },
                );
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        let state = fs.files.get_mut(path).ok_or_else(Self::not_found)?;
        // Match std's set_len: shrink or zero-extend.
        state.volatile.resize(len as usize, 0);
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        let state = fs.files.get_mut(path).ok_or_else(Self::not_found)?;
        state.durable = Some(state.volatile.clone());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        let state = fs.files.remove(from).ok_or_else(Self::not_found)?;
        // Durable in one step — see module docs for why.
        fs.files.insert(to.to_path_buf(), state);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        fs.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(Self::not_found)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let fs = self.fs.lock_recover();
        if !fs.dirs.contains(dir) && !fs.files.keys().any(|p| p.parent() == Some(dir)) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "no such directory"));
        }
        Ok(fs
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut fs = self.fs.lock_recover();
        let mut cur = Some(dir);
        while let Some(d) = cur {
            fs.dirs.insert(d.to_path_buf());
            cur = d.parent();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemIo {
        /// Flip one bit in the *durable* image of `path` (silent media
        /// corruption, as opposed to a torn write). Test hook for checksum
        /// coverage; errors if the file or offset does not exist.
        pub(crate) fn corrupt_durable(
            &self,
            path: &Path,
            offset: usize,
            mask: u8,
        ) -> io::Result<()> {
            let mut fs = self.fs.lock_recover();
            let state = fs
                .files
                .get_mut(path)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
            let durable = state
                .durable
                .as_mut()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "file never synced"))?;
            if offset >= durable.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "corrupt offset past end of durable image",
                ));
            }
            durable[offset] ^= mask;
            // The page cache would still hold the clean copy in reality, but
            // tests corrupt-then-crash, so mirroring keeps behaviour obvious.
            state.volatile = durable.clone();
            Ok(())
        }

        /// Length of the durable image, if the file has ever been synced.
        pub(crate) fn durable_len(&self, path: &Path) -> Option<u64> {
            let fs = self.fs.lock_recover();
            fs.files
                .get(path)
                .and_then(|s| s.durable.as_ref())
                .map(|d| d.len() as u64)
        }

        /// Number of files currently visible (volatile view).
        pub(crate) fn file_count(&self) -> usize {
            self.fs.lock_recover().files.len()
        }
    }

    #[test]
    fn unsynced_writes_vanish_on_crash() {
        let mem = MemIo::new();
        let p = Path::new("/wal/a.log");
        mem.write(p, b"acked").unwrap();
        mem.sync(p).unwrap();
        mem.append(p, b" not-yet-synced").unwrap();
        assert_eq!(mem.read(p).unwrap(), b"acked not-yet-synced");

        mem.crash();
        assert_eq!(mem.read(p).unwrap(), b"acked");
    }

    #[test]
    fn never_synced_file_disappears_entirely() {
        let mem = MemIo::new();
        let p = Path::new("/wal/ghost.log");
        mem.write(p, b"ephemeral").unwrap();
        mem.crash();
        assert!(mem.read(p).is_err());
    }

    #[test]
    fn rename_is_durable() {
        let mem = MemIo::new();
        let tmp = Path::new("/d/x.tmp");
        let fin = Path::new("/d/x.json");
        mem.write(tmp, b"snapshot").unwrap();
        mem.sync(tmp).unwrap();
        mem.rename(tmp, fin).unwrap();
        mem.crash();
        assert_eq!(mem.read(fin).unwrap(), b"snapshot");
        assert!(mem.read(tmp).is_err());
    }

    #[test]
    fn truncate_shrinks_volatile_only_until_sync() {
        let mem = MemIo::new();
        let p = Path::new("/wal/t.log");
        mem.write(p, b"0123456789").unwrap();
        mem.sync(p).unwrap();
        mem.truncate(p, 4).unwrap();
        assert_eq!(mem.read(p).unwrap(), b"0123");
        mem.crash();
        assert_eq!(mem.read(p).unwrap(), b"0123456789");

        mem.truncate(p, 4).unwrap();
        mem.sync(p).unwrap();
        mem.crash();
        assert_eq!(mem.read(p).unwrap(), b"0123");
    }

    #[test]
    fn list_scopes_to_directory_and_sorts() {
        let mem = MemIo::new();
        mem.create_dir_all(Path::new("/wal")).unwrap();
        mem.write(Path::new("/wal/b.log"), b"").unwrap();
        mem.write(Path::new("/wal/a.log"), b"").unwrap();
        mem.write(Path::new("/other/c.log"), b"").unwrap();
        let listed = mem.list(Path::new("/wal")).unwrap();
        assert_eq!(
            listed,
            vec![PathBuf::from("/wal/a.log"), PathBuf::from("/wal/b.log")]
        );
        assert!(mem.list(Path::new("/nope")).is_err());
    }

    #[test]
    fn corrupt_durable_flips_exactly_one_bit() {
        let mem = MemIo::new();
        let p = Path::new("/wal/c.log");
        mem.write(p, b"payload").unwrap();
        mem.sync(p).unwrap();
        mem.corrupt_durable(p, 0, 0x01).unwrap();
        mem.crash();
        let got = mem.read(p).unwrap();
        assert_eq!(got[0], b'p' ^ 0x01);
        assert_eq!(&got[1..], b"ayload");
    }
}
