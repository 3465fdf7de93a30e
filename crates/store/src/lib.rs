//! `btcfast-store`: crash-safe durable state for protocol participants.
//!
//! Production nodes restart. The paper's fast-payment guarantee survives a
//! restart only if every side-effecting protocol step — escrow opens,
//! offers, acceptances, broadcasts, dispute evidence, verdicts — is on
//! durable media *before* it executes, so the node can re-hydrate and
//! resume exactly where it died. This crate is the durable half of that
//! story:
//!
//! * [`wal::Wal`] — an append-only write-ahead log of length-prefixed,
//!   CRC-checksummed, sequence-numbered records. Torn tails (a crash mid
//!   `append`) and flipped bits are *detected*, never trusted: recovery
//!   either repairs the log by clean prefix truncation or reports a typed
//!   [`StoreError`] — it never panics on hostile bytes.
//! * [`snapshot::SnapshotStore`] — a single-slot checkpoint of encoded
//!   state plus the WAL sequence it covers, so recovery replays only the
//!   tail of the log.
//! * [`storage::Storage`] — the durable-medium abstraction:
//!   [`storage::MemStorage`] (a handle-shared byte vector modelling a disk
//!   that survives simulated process crashes, fully deterministic) and
//!   [`storage::FileStorage`] (a real file, for processes that actually
//!   restart).
//!
//! The encoding follows the workspace codec idiom: little-endian
//! fixed-width integers and length-prefixed byte strings, with hard caps
//! on hostile length prefixes. Everything is deterministic: the same
//! append sequence produces byte-identical media, and recovery of
//! identical media produces identical state — the property the audit
//! crate's `store` engine checks at every possible crash offset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;
pub mod storage;
pub mod wal;

pub use snapshot::SnapshotStore;
pub use storage::{FileStorage, MemStorage, Storage};
pub use wal::{Corruption, RecoveredLog, Wal, WalStats};

use std::error::Error;
use std::fmt;

/// Why a store operation failed. Corruption of durable media is a
/// *condition to handle* (usually by truncating to the last clean prefix),
/// never a reason to panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying medium failed (I/O error, detached handle).
    Io(String),
    /// A record or snapshot failed validation and strict mode was asked
    /// to surface it rather than repair it.
    Corrupt(Corruption),
    /// A record payload exceeds the hard encoding cap.
    RecordTooLarge {
        /// The payload length requested.
        len: usize,
        /// The maximum the format accepts.
        max: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "storage I/O failure: {msg}"),
            StoreError::Corrupt(c) => write!(f, "corrupt store: {c}"),
            StoreError::RecordTooLarge { len, max } => {
                write!(f, "record payload {len} bytes exceeds cap {max}")
            }
        }
    }
}

impl Error for StoreError {}

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic bytewise table,
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
/// Computed at compile time so the crate stays dependency-free.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), the WAL record and snapshot
/// slot checksum. Slicing-by-8: eight bytes per step through eight tables,
/// with a bytewise tail — the snapshot slot is megabytes, and checksumming
/// it is on both the checkpoint and the recovery path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop: the oracle the sliced `crc32` must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x000C_4C32);
        let mut buffer = vec![0u8; 4096 + 8];
        for _ in 0..512 {
            rng.fill_bytes(&mut buffer);
            // Unaligned starts and every tail length class.
            let start = rng.gen_range(0..8usize);
            let len = rng.gen_range(0..=4096usize);
            let slice = &buffer[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start {start} len {len}"
            );
        }
        for len in 0..64 {
            assert_eq!(
                crc32(&buffer[1..1 + len]),
                crc32_bytewise(&buffer[1..1 + len])
            );
        }
    }

    #[test]
    fn errors_render_with_context() {
        let e = StoreError::RecordTooLarge { len: 9, max: 4 };
        assert!(e.to_string().contains('9'));
        let e = StoreError::Io("disk gone".into());
        assert!(e.to_string().contains("disk gone"));
    }
}
