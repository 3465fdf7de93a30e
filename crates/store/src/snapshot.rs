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
//! check loads as *absent* — the caller decides whether its log still
//! holds the history to replay instead.

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

/// A validated checkpoint: the slot it was read from, kept whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// First WAL sequence number *not* covered by this snapshot: replay
    /// resumes from records with `seq >= wal_seq`.
    pub wal_seq: u64,
    /// The whole slot, header included, as `decode` validated it.
    slot: Vec<u8>,
}

impl Snapshot {
    /// The encoded state blob: the slot past its header.
    pub fn state(&self) -> &[u8] {
        &self.slot[HEADER_BYTES..]
    }

    /// The whole slot, header included, for a caller that keeps the state
    /// where it lies: it starts at [`HEADER_BYTES`].
    pub fn into_slot(self) -> Vec<u8> {
        self.slot
    }
}

/// The single-slot checkpoint store. See the module docs for the format
/// and the corrupt-slot fallback contract.
#[derive(Debug)]
pub struct SnapshotStore<S: Storage> {
    storage: S,
}

/// The slot header `(magic, len, crc, wal_seq)`, or `None` for a slot
/// shorter than a header. The last three are one little-endian `u128`.
fn header(slot: &[u8]) -> Option<([u8; 4], u32, u32, u64)> {
    let (magic, rest) = slot.split_first_chunk::<4>()?;
    let fields = u128::from_le_bytes(*rest.first_chunk::<16>()?);
    Some((
        *magic,
        fields as u32,
        (fields >> 32) as u32,
        (fields >> 64) as u64,
    ))
}

/// Validates a whole slot and keeps its buffer as the snapshot: the state
/// is checked where it lies, never moved or copied.
fn decode(slot: Vec<u8>) -> Result<Option<Snapshot>, Corruption> {
    if slot.is_empty() {
        return Ok(None);
    }
    let Some((MAGIC, len, crc, wal_seq)) = header(&slot) else {
        return Err(Corruption::TornTail { offset: 0 });
    };
    let len = len as usize;
    if len > MAX_STATE {
        return Err(Corruption::LengthOverCap {
            offset: 4,
            len: len as u64,
        });
    }
    if slot.len() != HEADER_BYTES + len {
        return Err(Corruption::TornTail {
            offset: slot.len().min(HEADER_BYTES + len) as u64,
        });
    }
    if crc32(&slot[12..]) != crc {
        return Err(Corruption::BadChecksum { offset: 0 });
    }
    Ok(Some(Snapshot { wal_seq, slot }))
}

impl<S: Storage> SnapshotStore<S> {
    /// Wraps `storage` as a snapshot slot. No validation happens until
    /// [`SnapshotStore::load`].
    pub fn new(storage: S) -> SnapshotStore<S> {
        SnapshotStore { storage }
    }

    /// Atomically and durably replaces the slot with a checkpoint covering
    /// every WAL record below `wal_seq`. `encode` appends the state to the
    /// buffer it is handed, which already holds the slot's header; the
    /// header's length and checksum are filled in afterwards, so the state
    /// is written once, where it lies in the slot.
    ///
    /// # Errors
    ///
    /// [`StoreError::RecordTooLarge`] over [`MAX_STATE`];
    /// [`StoreError::Io`] when the medium rejects the write.
    pub fn save(
        &mut self,
        wal_seq: u64,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let mut slot = Vec::with_capacity(HEADER_BYTES);
        slot.extend_from_slice(&MAGIC);
        slot.extend_from_slice(&[0; 8]); // len and crc, filled in below
        slot.extend_from_slice(&wal_seq.to_le_bytes());
        encode(&mut slot);
        let len = slot.len() - HEADER_BYTES;
        if len > MAX_STATE {
            return Err(StoreError::RecordTooLarge {
                len,
                max: MAX_STATE,
            });
        }
        slot[4..8].copy_from_slice(&(len as u32).to_le_bytes());
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
        assert_eq!(decode(Vec::new()), Ok(None));
    }

    #[test]
    fn save_then_load_round_trips_and_supersedes() {
        let mut store = SnapshotStore::new(MemStorage::new());
        store
            .save(7, |out| out.extend_from_slice(b"state-v1"))
            .unwrap();
        store
            .save(42, |out| out.extend_from_slice(b"state-v2-longer"))
            .unwrap();
        let snap = store.load().unwrap().unwrap();
        assert_eq!(snap.wal_seq, 42);
        assert_eq!(snap.state(), b"state-v2-longer");
        // One replace per save, each synced: a crash leaves v1 or v2.
        assert_eq!(store.storage().syncs(), 2);
    }

    #[test]
    fn corrupt_slot_is_absent_leniently_and_typed_strictly() {
        let mut medium = MemStorage::new();
        let mut store = SnapshotStore::new(medium.clone());
        store
            .save(3, |out| out.extend_from_slice(b"precious"))
            .unwrap();
        let mut bytes = medium.bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        medium.replace(bytes).unwrap();

        assert_eq!(store.load().unwrap(), None);
        assert!(matches!(
            decode(medium.bytes()),
            Err(Corruption::BadChecksum { .. })
        ));
    }

    #[test]
    fn torn_save_is_absent_not_a_panic() {
        let mut medium = MemStorage::new();
        let mut store = SnapshotStore::new(medium.clone());
        store
            .save(9, |out| out.extend_from_slice(b"half-written"))
            .unwrap();
        let mut bytes = medium.bytes();
        bytes.truncate(bytes.len() - 5);
        medium.replace(bytes).unwrap();
        assert_eq!(store.load().unwrap(), None);
        assert!(matches!(
            decode(medium.bytes()),
            Err(Corruption::TornTail { .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_is_corruption() {
        let mut slot = MAGIC.to_vec();
        slot.extend_from_slice(&u32::MAX.to_le_bytes());
        slot.extend_from_slice(&[0u8; 12]);
        let store = SnapshotStore::new(MemStorage::from_bytes(slot.clone()));
        assert_eq!(store.load().unwrap(), None);
        assert!(matches!(
            decode(slot),
            Err(Corruption::LengthOverCap { .. })
        ));
    }

    #[test]
    fn oversized_state_is_a_typed_error() {
        let mut store = SnapshotStore::new(MemStorage::new());
        assert!(matches!(
            store.save(0, |out| out.resize(out.len() + MAX_STATE + 1, 0)),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }
}
