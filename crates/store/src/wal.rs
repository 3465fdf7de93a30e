//! The append-only write-ahead log.
//!
//! # Record format
//!
//! Every record is framed on the medium as
//!
//! ```text
//! len: u32 LE | crc: u32 LE | seq: u64 LE | payload: [u8; len]
//! ```
//!
//! where `crc` is CRC-32 (IEEE) over `seq_le || payload` and `seq` is the
//! appender-assigned, strictly increasing record sequence number. All
//! integers are little-endian, lengths are prefixed, and hostile length
//! prefixes are capped — the workspace codec idiom.
//!
//! # Recovery contract
//!
//! [`Wal::open`] scans the medium front to back and accepts the longest
//! clean prefix of records:
//!
//! * a **torn tail** (crash mid-append: fewer bytes than the frame
//!   promises) stops the scan; the tail is truncated away;
//! * a **flipped bit** (CRC mismatch) stops the scan at that record; the
//!   rest is truncated away — bytes after a corrupt frame have no trusted
//!   framing, so they are unrecoverable by construction;
//! * a **hostile length prefix** (over [`MAX_RECORD`]) is corruption, not
//!   an allocation request;
//! * a **duplicate record** (a seq already applied — the at-least-once
//!   journaling case) is skipped, counted, and scanning continues.
//!
//! The scan never panics, whatever the bytes. It reports what it repaired
//! as a typed [`Corruption`] in [`RecoveredLog::corruption`], so a caller
//! can tell a clean restart from media damage.
//!
//! # Truncation
//!
//! The log does not keep history. Once a snapshot covering every record
//! is durable, [`Wal::reset`] truncates the medium to zero bytes;
//! sequence numbers continue (see [`Wal::open_with`]), so the log holds
//! only the tail since the last checkpoint and recovery time is bounded
//! by the checkpoint interval, not by the age of the ledger.

use crate::storage::Storage;
use crate::{crc32, StoreError};

/// Hard cap on a record payload. Anything larger in a length prefix is
/// corruption (or hostility), not a real record.
pub const MAX_RECORD: usize = 1 << 20;

/// Frame header bytes ahead of each payload: len + crc + seq.
pub const HEADER_BYTES: usize = 16;

/// What exactly was wrong with the medium at a given byte offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// The medium ends before the frame (header or payload) is complete —
    /// the signature of a crash mid-append.
    TornTail {
        /// Byte offset of the incomplete frame.
        offset: u64,
    },
    /// A length prefix exceeds [`MAX_RECORD`].
    LengthOverCap {
        /// Byte offset of the frame.
        offset: u64,
        /// The length the prefix claimed.
        len: u64,
    },
    /// The payload checksum does not match — a flipped bit somewhere in
    /// the frame.
    BadChecksum {
        /// Byte offset of the frame.
        offset: u64,
    },
}

/// The outcome of scanning a medium: the clean record prefix plus what,
/// if anything, was repaired away.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveredLog {
    /// The accepted records, in sequence order: `(seq, payload)`. Left
    /// empty by the visiting forms ([`scan_with`], [`Wal::open_with`]),
    /// which hand each record to the caller instead of collecting it.
    pub records: Vec<(u64, Vec<u8>)>,
    /// One past the last accepted sequence number (0 on an empty log).
    pub next_seq: u64,
    /// Byte length of the accepted clean prefix.
    pub valid_len: u64,
    /// Bytes discarded past the clean prefix (0 on a clean medium).
    pub truncated_bytes: u64,
    /// The corruption that ended the scan, when the medium was not clean.
    pub corruption: Option<Corruption>,
    /// CRC-valid records skipped because their seq was already applied.
    pub duplicates_skipped: u64,
}

/// Cheap counters for the telemetry layer (scraped as gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended through this handle.
    pub appends: u64,
    /// Bytes appended through this handle (frames included).
    pub bytes_appended: u64,
    /// Recovery scans performed (1 per open).
    pub recoveries: u64,
    /// Records accepted by recovery scans.
    pub records_recovered: u64,
    /// Bytes truncated away by recovery repairs.
    pub truncated_bytes: u64,
    /// Duplicate records skipped by recovery scans.
    pub duplicates_skipped: u64,
    /// Syncs this handle asked of the medium.
    pub syncs: u64,
    /// Current length of the medium, in bytes.
    pub medium_bytes: u64,
}

/// Scans `bytes` and returns the longest clean record prefix. Pure
/// function of the bytes; never panics.
pub fn scan(bytes: &[u8]) -> RecoveredLog {
    let mut records = Vec::new();
    let mut recovered = scan_with(bytes, |seq, payload| records.push((seq, payload.to_vec())));
    recovered.records = records;
    recovered
}

/// The scan itself, in one pass and without allocating: every record of
/// the clean prefix is handed to `visit` as `(seq, payload)`, the payload
/// borrowed from `bytes`, and [`RecoveredLog::records`] stays empty.
pub fn scan_with(bytes: &[u8], mut visit: impl FnMut(u64, &[u8])) -> RecoveredLog {
    let mut recovered = RecoveredLog::default();
    let mut offset = 0usize;
    let mut last_seq: Option<u64> = None;
    while offset < bytes.len() {
        let remaining = &bytes[offset..];
        // `len | crc | seq` is one little-endian `u128`.
        let Some(header) = remaining.first_chunk::<HEADER_BYTES>() else {
            recovered.corruption = Some(Corruption::TornTail {
                offset: offset as u64,
            });
            break;
        };
        let header = u128::from_le_bytes(*header);
        let (len, crc, seq) = (
            header as u32 as usize,
            (header >> 32) as u32,
            (header >> 64) as u64,
        );
        if len > MAX_RECORD {
            recovered.corruption = Some(Corruption::LengthOverCap {
                offset: offset as u64,
                len: len as u64,
            });
            break;
        }
        if remaining.len() < HEADER_BYTES + len {
            recovered.corruption = Some(Corruption::TornTail {
                offset: offset as u64,
            });
            break;
        }
        let body = &remaining[8..HEADER_BYTES + len];
        if crc32(body) != crc {
            recovered.corruption = Some(Corruption::BadChecksum {
                offset: offset as u64,
            });
            break;
        }
        offset += HEADER_BYTES + len;
        if last_seq.is_some_and(|last| seq <= last) {
            // A re-journaled record (at-least-once append) — already
            // applied, so skip it but keep its bytes in the clean prefix.
            recovered.duplicates_skipped += 1;
        } else {
            visit(seq, &body[8..]);
            last_seq = Some(seq);
            recovered.next_seq = seq.saturating_add(1);
        }
        recovered.valid_len = offset as u64;
    }
    recovered.truncated_bytes = bytes.len() as u64 - recovered.valid_len;
    recovered
}

/// An open write-ahead log. See the module docs for format and recovery
/// semantics.
#[derive(Debug)]
pub struct Wal<S: Storage> {
    storage: S,
    next_seq: u64,
    stats: WalStats,
    /// The frame being appended, kept so appends do not allocate.
    frame: Vec<u8>,
}

impl<S: Storage> Wal<S> {
    /// Opens the log on `storage`, repairing any damaged tail by clean
    /// prefix truncation. Returns the log positioned for appending plus
    /// everything the scan recovered.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium cannot be read or repaired.
    /// Corruption is *not* an error on this path — it is repaired and
    /// reported inside [`RecoveredLog`].
    pub fn open(storage: S) -> Result<(Wal<S>, RecoveredLog), StoreError> {
        let mut records = Vec::new();
        let (wal, mut recovered) = Wal::open_with(storage, 0, |seq, payload| {
            records.push((seq, payload.to_vec()));
        })?;
        recovered.records = records;
        Ok((wal, recovered))
    }

    /// [`Wal::open`] in one pass: each recovered record goes to `visit`
    /// (see [`scan_with`]) instead of into [`RecoveredLog::records`].
    /// `first_seq` is the sequence number the caller's snapshot says the
    /// log resumes from: the appender continues at whichever is larger,
    /// that or one past the last record found, so a record written after
    /// a truncation (or after a repair that cut into covered records)
    /// never sorts below the snapshot that precedes it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium cannot be read or repaired.
    pub fn open_with(
        mut storage: S,
        first_seq: u64,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<(Wal<S>, RecoveredLog), StoreError> {
        let mut records_recovered = 0;
        let recovered = scan_with(&storage.read_all()?, |seq, payload| {
            records_recovered += 1;
            visit(seq, payload);
        });
        if recovered.truncated_bytes > 0 {
            storage.truncate(recovered.valid_len)?;
        }
        let stats = WalStats {
            recoveries: 1,
            records_recovered,
            truncated_bytes: recovered.truncated_bytes,
            duplicates_skipped: recovered.duplicates_skipped,
            ..WalStats::default()
        };
        Ok((
            Wal {
                storage,
                next_seq: recovered.next_seq.max(first_seq),
                stats,
                frame: Vec::new(),
            },
            recovered,
        ))
    }

    /// Appends a record and returns its sequence number. The record is
    /// with the medium when this returns and survives a host crash after
    /// the next [`Wal::sync`] (see the policy on [`Storage`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::RecordTooLarge`] over [`MAX_RECORD`];
    /// [`StoreError::Io`] when the medium rejects the write.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if payload.len() > MAX_RECORD {
            return Err(StoreError::RecordTooLarge {
                len: payload.len(),
                max: MAX_RECORD,
            });
        }
        let seq = self.next_seq;
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&[0; 4]); // crc, patched once the body is in place
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.storage.append(frame)?;
        self.next_seq += 1;
        self.stats.appends += 1;
        self.stats.bytes_appended += frame.len() as u64;
        Ok(seq)
    }

    /// Makes every record appended so far survive a host crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the medium cannot confirm durability.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.storage.sync()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Truncates the medium to zero bytes; sequence numbers continue.
    /// Call only once a snapshot covering every record is durable — from
    /// then on that snapshot is the only copy of the history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the truncation fails (the records stay,
    /// and stay covered).
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.storage.truncate(0)
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current log length on the medium, in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.storage.len()
    }

    /// Counters for the telemetry layer.
    pub fn stats(&self) -> WalStats {
        WalStats {
            medium_bytes: self.storage.len(),
            ..self.stats
        }
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

    fn filled_wal(payloads: &[&[u8]]) -> (Wal<MemStorage>, MemStorage) {
        let medium = MemStorage::new();
        let (mut wal, recovered) = Wal::open(medium.clone()).unwrap();
        assert!(recovered.records.is_empty());
        for p in payloads {
            wal.append(p).unwrap();
        }
        (wal, medium)
    }

    #[test]
    fn append_then_reopen_round_trips() {
        let (_wal, medium) = filled_wal(&[b"alpha", b"", b"gamma-longer-payload"]);
        let (wal, recovered) = Wal::open(medium).unwrap();
        assert_eq!(recovered.corruption, None);
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(
            recovered.records,
            vec![
                (0, b"alpha".to_vec()),
                (1, Vec::new()),
                (2, b"gamma-longer-payload".to_vec()),
            ]
        );
        assert_eq!(wal.next_seq(), 3);
    }

    #[test]
    fn torn_tail_is_repaired_by_truncation() {
        let (wal, mut medium) = filled_wal(&[b"one", b"two"]);
        let full = wal.len_bytes();
        // Tear the last record: keep its header but lose payload bytes.
        let mut bytes = medium.bytes();
        bytes.truncate(bytes.len() - 2);
        medium.replace(bytes).unwrap();

        let (wal, recovered) = Wal::open(medium.clone()).unwrap();
        assert_eq!(recovered.records, vec![(0, b"one".to_vec())]);
        assert!(matches!(
            recovered.corruption,
            Some(Corruption::TornTail { .. })
        ));
        assert!(recovered.truncated_bytes > 0);
        // The medium was repaired: the torn bytes are gone and the next
        // append lands on a clean boundary.
        assert!(medium.len() < full);
        let mut wal = wal;
        wal.append(b"three").unwrap();
        let (_, again) = Wal::open(medium).unwrap();
        assert_eq!(
            again.records,
            vec![(0, b"one".to_vec()), (1, b"three".to_vec())]
        );
        assert_eq!(again.corruption, None);
    }

    /// The repair is typed: the scan names the damaged frame.
    #[test]
    fn flipped_bit_stops_the_scan_and_strict_mode_types_it() {
        let (_wal, mut medium) = filled_wal(&[b"first", b"second", b"third"]);
        let mut bytes = medium.bytes();
        // Flip one bit inside the second record's payload.
        let second_frame = HEADER_BYTES + 5;
        bytes[second_frame + HEADER_BYTES + 2] ^= 0x40;
        medium.replace(bytes).unwrap();

        let (_, recovered) = Wal::open(medium).unwrap();
        assert_eq!(recovered.records, vec![(0, b"first".to_vec())]);
        assert_eq!(
            recovered.corruption,
            Some(Corruption::BadChecksum {
                offset: second_frame as u64
            })
        );
    }

    #[test]
    fn hostile_length_prefix_is_corruption_not_allocation() {
        let mut medium = MemStorage::new();
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 12]);
        medium.replace(frame).unwrap();
        let (_, recovered) = Wal::open(medium).unwrap();
        assert!(recovered.records.is_empty());
        assert!(matches!(
            recovered.corruption,
            Some(Corruption::LengthOverCap { len, .. }) if len == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn duplicate_records_are_skipped_exactly_once() {
        let (_wal, mut medium) = filled_wal(&[b"aa", b"bb"]);
        let mut bytes = medium.bytes();
        // Duplicate the second frame wholesale (at-least-once journaling).
        let second = bytes[HEADER_BYTES + 2..].to_vec();
        bytes.extend_from_slice(&second);
        medium.replace(bytes).unwrap();
        let (wal, recovered) = Wal::open(medium).unwrap();
        assert_eq!(
            recovered.records,
            vec![(0, b"aa".to_vec()), (1, b"bb".to_vec())]
        );
        assert_eq!(recovered.duplicates_skipped, 1);
        assert_eq!(recovered.corruption, None);
        // The appender resumes past the duplicate, not on top of it.
        assert_eq!(wal.next_seq(), 2);
    }

    #[test]
    fn scan_never_panics_on_arbitrary_bytes() {
        for seed in 0u8..=255 {
            let bytes: Vec<u8> = (0..97)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            let recovered = scan(&bytes);
            assert!(recovered.valid_len <= bytes.len() as u64);
        }
    }

    #[test]
    fn oversized_append_is_a_typed_error() {
        let (mut wal, _) = filled_wal(&[]);
        let huge = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            wal.append(&huge),
            Err(StoreError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn reset_empties_the_medium_and_the_sequence_continues() {
        let (mut wal, medium) = filled_wal(&[b"one", b"two"]);
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(medium.is_empty());
        assert_eq!((wal.stats().syncs, wal.stats().medium_bytes), (1, 0));
        assert_eq!(wal.append(b"three").unwrap(), 2);
        // A re-open told where the snapshot left off resumes past it even
        // though the medium is empty; the visitor borrows each payload.
        wal.reset().unwrap();
        let mut visited = 0;
        let (mut wal, recovered) = Wal::open_with(medium.clone(), 3, |_, _| visited += 1).unwrap();
        assert_eq!((visited, recovered.next_seq), (0, 0));
        assert_eq!(wal.append(b"four").unwrap(), 3);
        let (_, recovered) = Wal::open(medium).unwrap();
        assert_eq!(recovered.records, vec![(3, b"four".to_vec())]);
    }

    #[test]
    fn stats_track_appends_and_recoveries() {
        let (wal, mut medium) = filled_wal(&[b"x", b"y"]);
        assert_eq!(wal.stats().appends, 2);
        assert!(wal.stats().bytes_appended > 2 * HEADER_BYTES as u64);
        let mut bytes = medium.bytes();
        bytes.push(0xAB); // torn byte
        medium.replace(bytes).unwrap();
        let (wal, _) = Wal::open(medium).unwrap();
        assert_eq!(wal.stats().recoveries, 1);
        assert_eq!(wal.stats().records_recovered, 2);
        assert_eq!(wal.stats().truncated_bytes, 1);
    }
}
