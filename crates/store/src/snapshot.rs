//! Single-slot state checkpoints.
//!
//! A snapshot is an encoded state blob plus the WAL sequence number it
//! covers: recovery loads the snapshot, then replays only WAL records
//! with `seq >= wal_seq`. One slot is enough — a newer checkpoint always
//! supersedes an older one — and `save` is one [`Storage::replace`] of its
//! own medium: after a crash the slot is the old checkpoint or the new
//! one. That atomicity carries the whole store, because the log is
//! truncated once the slot covers it — the slot *is* the history.
//!
//! # Slot format
//!
//! ```text
//! magic: "BFSN" | len: u32 LE | crc: u32 LE | wal_seq: u64 LE | state: [u8; len]
//! ```
//!
//! `crc` is CRC-32 over `wal_seq_le || state`. A slot that fails any
//! check loads as *absent* on the lenient path — the caller decides
//! whether its log still holds the history to replay instead — or as a
//! typed [`StoreError::Corrupt`] on the strict path.

use crate::storage::Storage;
use crate::wal::Corruption;
use crate::{crc32, StoreError};

/// Slot magic: identifies the medium as a btcfast snapshot slot.
pub const MAGIC: [u8; 4] = *b"BFSN";

/// Hard cap on an encoded state blob; larger length prefixes are
/// corruption, not allocation requests.
pub const MAX_STATE: usize = 16 << 20;

/// Fixed bytes ahead of the state blob: magic + len + crc + wal_seq.
pub const HEADER_BYTES: usize = 20;

/// A decoded checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// First WAL sequence number *not* covered by this snapshot: replay
    /// resumes from records with `seq >= wal_seq`.
    pub wal_seq: u64,
    /// The encoded state blob.
    pub state: Vec<u8>,
}

/// The single-slot checkpoint store. See the module docs for the format
/// and the corrupt-slot fallback contract.
#[derive(Debug)]
pub struct SnapshotStore<S: Storage> {
    storage: S,
}

/// Validates a whole slot and turns its buffer into the snapshot: the
/// state is checked and kept in place, never copied.
fn decode(mut bytes: Vec<u8>) -> Result<Option<Snapshot>, Corruption> {
    if bytes.is_empty() {
        return Ok(None);
    }
    if bytes.len() < HEADER_BYTES || bytes[0..4] != MAGIC {
        return Err(Corruption::TornTail { offset: 0 });
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("sized slice")) as usize;
    if len > MAX_STATE {
        return Err(Corruption::LengthOverCap {
            offset: 4,
            len: len as u64,
        });
    }
    if bytes.len() != HEADER_BYTES + len {
        return Err(Corruption::TornTail {
            offset: bytes.len().min(HEADER_BYTES + len) as u64,
        });
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("sized slice"));
    if crc32(&bytes[12..]) != crc {
        return Err(Corruption::BadChecksum { offset: 0 });
    }
    let wal_seq = u64::from_le_bytes(bytes[12..HEADER_BYTES].try_into().expect("sized slice"));
    bytes.drain(..HEADER_BYTES);
    Ok(Some(Snapshot {
        wal_seq,
        state: bytes,
    }))
}

impl<S: Storage> SnapshotStore<S> {
    /// Wraps `storage` as a snapshot slot. No validation happens until
    /// [`SnapshotStore::load`].
    pub fn new(storage: S) -> SnapshotStore<S> {
        SnapshotStore { storage }
    }

    /// Atomically and durably replaces the slot with a checkpoint of
    /// `state` covering every WAL record below `wal_seq`.
    ///
    /// # Errors
    ///
    /// [`StoreError::RecordTooLarge`] over [`MAX_STATE`];
    /// [`StoreError::Io`] when the medium rejects the write.
    pub fn save(&mut self, wal_seq: u64, state: &[u8]) -> Result<(), StoreError> {
        if state.len() > MAX_STATE {
            return Err(StoreError::RecordTooLarge {
                len: state.len(),
                max: MAX_STATE,
            });
        }
        let mut slot = Vec::with_capacity(HEADER_BYTES + state.len());
        slot.extend_from_slice(&MAGIC);
        slot.extend_from_slice(&(state.len() as u32).to_le_bytes());
        slot.extend_from_slice(&[0; 4]); // crc, patched once the body is in place
        slot.extend_from_slice(&wal_seq.to_le_bytes());
        slot.extend_from_slice(state);
        let crc = crc32(&slot[12..]);
        slot[8..12].copy_from_slice(&crc.to_le_bytes());
        self.storage.replace(slot)
    }

    /// Loads the checkpoint, treating a damaged slot as *absent*: the
    /// caller replays the whole log if it still starts at the beginning,
    /// and must refuse to start if it does not.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] only — corruption is the `Ok(None)` fallback on
    /// this path.
    pub fn load(&self) -> Result<Option<Snapshot>, StoreError> {
        Ok(decode(self.storage.read_all()?).unwrap_or(None))
    }

    /// Loads the checkpoint, surfacing a damaged slot as a typed error.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a damaged slot; [`StoreError::Io`]
    /// when the medium cannot be read.
    pub fn load_strict(&self) -> Result<Option<Snapshot>, StoreError> {
        decode(self.storage.read_all()?).map_err(StoreError::Corrupt)
    }

    /// The underlying medium (inspection, digests).
    pub fn storage(&self) -> &S {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    #[test]
    fn empty_slot_loads_as_absent() {
        let store = SnapshotStore::new(MemStorage::new());
        assert_eq!(store.load().unwrap(), None);
        assert_eq!(store.load_strict().unwrap(), None);
    }

    #[test]
    fn save_then_load_round_trips_and_supersedes() {
        let mut store = SnapshotStore::new(MemStorage::new());
        store.save(7, b"state-v1").unwrap();
        store.save(42, b"state-v2-longer").unwrap();
        let snap = store.load().unwrap().unwrap();
        assert_eq!(snap.wal_seq, 42);
        assert_eq!(snap.state, b"state-v2-longer");
        // One replace per save, each synced: a crash leaves v1 or v2.
        assert_eq!(store.storage().syncs(), 2);
    }

    #[test]
    fn corrupt_slot_is_absent_leniently_and_typed_strictly() {
        let mut medium = MemStorage::new();
        let mut store = SnapshotStore::new(medium.clone());
        store.save(3, b"precious").unwrap();
        let mut bytes = medium.bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        medium.replace(bytes).unwrap();

        assert_eq!(store.load().unwrap(), None);
        assert!(matches!(
            store.load_strict(),
            Err(StoreError::Corrupt(Corruption::BadChecksum { .. }))
        ));
    }

    #[test]
    fn torn_save_is_absent_not_a_panic() {
        let mut medium = MemStorage::new();
        let mut store = SnapshotStore::new(medium.clone());
        store.save(9, b"half-written").unwrap();
        let mut bytes = medium.bytes();
        bytes.truncate(bytes.len() - 5);
        medium.replace(bytes).unwrap();
        assert_eq!(store.load().unwrap(), None);
        assert!(matches!(
            store.load_strict(),
            Err(StoreError::Corrupt(Corruption::TornTail { .. }))
        ));
    }

    #[test]
    fn hostile_length_prefix_is_corruption() {
        let mut slot = MAGIC.to_vec();
        slot.extend_from_slice(&u32::MAX.to_le_bytes());
        slot.extend_from_slice(&[0u8; 12]);
        let store = SnapshotStore::new(MemStorage::from_bytes(slot));
        assert_eq!(store.load().unwrap(), None);
        assert!(matches!(
            store.load_strict(),
            Err(StoreError::Corrupt(Corruption::LengthOverCap { .. }))
        ));
    }

    #[test]
    fn oversized_state_is_a_typed_error() {
        let mut store = SnapshotStore::new(MemStorage::new());
        let huge = vec![0u8; MAX_STATE + 1];
        assert!(matches!(
            store.save(0, &huge),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }
}
