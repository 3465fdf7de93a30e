//! Durable-medium abstraction behind the WAL and snapshot store.
//!
//! The log formats never touch the medium directly; they go through
//! [`Storage`], so the same recovery code runs against an in-memory
//! "disk" in the deterministic simulator and against a real file on a
//! production node.

use crate::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An append-and-truncate byte medium. Deliberately minimal: the WAL
/// appends, recovery truncates back to a clean prefix, a checkpoint
/// replaces the snapshot slot whole and then truncates the log to nothing.
///
/// # Durability policy
///
/// `append` and `truncate` hand bytes to the medium; only [`Storage::sync`]
/// and [`Storage::replace`] promise they survive a host crash. The journal
/// syncs every `Begin` record before `begin` returns — the side effect it
/// announces must never outlive its intent — and every snapshot replace.
/// `Done` records ride on the next sync: a lost `Done` leaves the intent
/// pending, which the exactly-once nonce check resolves on restart.
pub trait Storage {
    /// Current medium length in bytes.
    fn len(&self) -> u64;

    /// True when the medium holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the entire medium. Both media are bounded — a checkpoint
    /// truncates the log to nothing and the snapshot is a single slot — so
    /// whole-medium reads are the simple, safe choice.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium cannot be read.
    fn read_all(&self) -> Result<Vec<u8>, StoreError>;

    /// Appends bytes at the end of the medium.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write does not complete.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Truncates the medium to `len` bytes (no-op if already shorter).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the truncation fails.
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;

    /// Atomically replaces the whole medium with `bytes`, durably: after a
    /// crash at any point the medium holds either the old bytes or the new
    /// ones, never a mixture and never nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the replacement fails (the old bytes stay).
    fn replace(&mut self, bytes: Vec<u8>) -> Result<(), StoreError>;

    /// Makes every byte appended so far survive a host crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium cannot confirm durability.
    fn sync(&mut self) -> Result<(), StoreError>;
}

/// An in-memory durable medium: a byte vector behind a shared handle.
///
/// Cloning a `MemStorage` clones the *handle*, not the bytes — exactly the
/// semantics of a disk that survives a process crash: the simulated node
/// drops all volatile state, but a clone of the handle re-opens the same
/// bytes. Fully deterministic; no I/O can fail, and `sync` only counts.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    bytes: Arc<Mutex<Vec<u8>>>,
    syncs: Arc<AtomicU64>,
}

impl MemStorage {
    /// A fresh, empty medium.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// A medium pre-loaded with `bytes` (tests and corruption injection).
    pub fn from_bytes(bytes: Vec<u8>) -> MemStorage {
        MemStorage {
            bytes: Arc::new(Mutex::new(bytes)),
            syncs: Arc::default(),
        }
    }

    /// A copy of the raw media bytes (corruption tests, digests).
    pub fn bytes(&self) -> Vec<u8> {
        self.bytes.lock().expect("storage lock").clone()
    }

    /// Syncs requested on this medium, through any handle.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

impl Storage for MemStorage {
    fn len(&self) -> u64 {
        self.bytes.lock().expect("storage lock").len() as u64
    }

    fn read_all(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.bytes())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes
            .lock()
            .expect("storage lock")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        let mut bytes = self.bytes.lock().expect("storage lock");
        if (len as usize) < bytes.len() {
            bytes.truncate(len as usize);
        }
        Ok(())
    }

    fn replace(&mut self, bytes: Vec<u8>) -> Result<(), StoreError> {
        *self.bytes.lock().expect("storage lock") = bytes;
        self.sync()
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A real file as durable medium. Appends reach the kernel before
/// returning, so they survive a process crash; `sync` (`sync_data`) and
/// `replace` (temp file, `sync_all`, rename, directory sync) make them
/// survive a host crash.
#[derive(Debug)]
pub struct FileStorage {
    path: PathBuf,
    file: File,
    len: u64,
}

impl FileStorage {
    /// Opens (or creates) the file at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file cannot be opened.
    pub fn open(path: &Path) -> Result<FileStorage, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| StoreError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::Io(format!("stat {}: {e}", path.display())))?
            .len();
        Ok(FileStorage {
            path: path.to_path_buf(),
            file,
            len,
        })
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn io_err(&self, what: &str, e: std::io::Error) -> StoreError {
        StoreError::Io(format!("{what} {}: {e}", self.path.display()))
    }
}

impl Storage for FileStorage {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_all(&self) -> Result<Vec<u8>, StoreError> {
        let mut file = File::open(&self.path).map_err(|e| self.io_err("open", e))?;
        let mut bytes = Vec::with_capacity(self.len as usize);
        file.read_to_end(&mut bytes)
            .map_err(|e| self.io_err("read", e))?;
        Ok(bytes)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .and_then(|()| self.file.flush())
            .map_err(|e| self.io_err("append", e))?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        if len >= self.len {
            return Ok(());
        }
        self.file
            .set_len(len)
            .map_err(|e| self.io_err("truncate", e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| self.io_err("seek", e))?;
        self.len = len;
        Ok(())
    }

    fn replace(&mut self, bytes: Vec<u8>) -> Result<(), StoreError> {
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let tmp_path = PathBuf::from(tmp_path);
        let mut tmp = File::create(&tmp_path).map_err(|e| self.io_err("create temp for", e))?;
        tmp.write_all(&bytes)
            .and_then(|()| tmp.sync_all())
            .map_err(|e| self.io_err("write temp for", e))?;
        std::fs::rename(&tmp_path, &self.path).map_err(|e| self.io_err("rename over", e))?;
        // The rename is durable once its directory entry is.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| self.io_err("sync directory of", e))?;
        // The old handle still names the unlinked file.
        *self = FileStorage::open(&self.path)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data().map_err(|e| self.io_err("sync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_handles_share_one_medium() {
        let mut a = MemStorage::new();
        let b = a.clone();
        a.append(b"hello").unwrap();
        assert_eq!(b.bytes(), b"hello");
        assert_eq!(b.len(), 5);
        a.truncate(2).unwrap();
        assert_eq!(b.bytes(), b"he");
        // Truncating longer than the medium is a no-op, not an error.
        a.truncate(100).unwrap();
        assert_eq!(b.len(), 2);
        // Replace swaps the bytes for every handle and counts as a sync.
        a.replace(b"whole".to_vec()).unwrap();
        assert_eq!(b.bytes(), b"whole");
        a.sync().unwrap();
        assert_eq!(b.syncs(), 2);
    }

    #[test]
    fn file_storage_round_trips_and_truncates() {
        let path = std::env::temp_dir().join(format!(
            "btcfast-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut storage = FileStorage::open(&path).unwrap();
            storage.append(b"abcdef").unwrap();
            assert_eq!(storage.len(), 6);
            storage.truncate(3).unwrap();
            assert_eq!(storage.read_all().unwrap(), b"abc");
            // Appending after a truncation lands at the new tail.
            storage.append(b"Z").unwrap();
            storage.sync().unwrap();
            assert_eq!(storage.read_all().unwrap(), b"abcZ");
            // Replace swaps the file under the handle; appends follow it.
            storage.replace(b"new".to_vec()).unwrap();
            assert_eq!(storage.len(), 3);
            storage.append(b"!").unwrap();
            assert_eq!(storage.read_all().unwrap(), b"new!");
        }
        // Re-open sees the persisted bytes, and no temp file is left.
        let storage = FileStorage::open(&path).unwrap();
        assert_eq!(storage.len(), 4);
        assert_eq!(storage.read_all().unwrap(), b"new!");
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        let _ = std::fs::remove_file(&path);
    }
}
