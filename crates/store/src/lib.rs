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
//!   repairs the log by clean prefix truncation and reports what it cut
//!   as a typed [`Corruption`] — it never panics on hostile bytes.
//! * [`snapshot::SnapshotStore`] — a single-slot checkpoint of encoded
//!   state plus the WAL sequence it covers, so recovery replays only the
//!   tail of the log. The state is encoded into the slot buffer and
//!   validated where it lies on load, and a caller can take the validated
//!   buffer over whole; it is never copied.
//! * [`storage::Storage`] — the durable-medium abstraction:
//!   [`storage::MemStorage`] (a handle-shared byte vector modelling a disk
//!   that survives simulated process crashes, fully deterministic) and
//!   [`storage::FileStorage`] (a real file, for processes that actually
//!   restart).
//!
//! Both formats checksum with [`crc32`]: carry-less multiply where the CPU
//! has it — the crate's one `unsafe` call, in the `clmul` module — and
//! slicing-by-8 otherwise, with identical results.
//!
//! The frames follow the workspace codec's conventions — little-endian
//! fixed-width integers, length prefixes with hard caps against hostile
//! ones — and the payloads they carry are opaque here: `core::recovery`
//! encodes its journal records and slot state with the codec itself
//! (`btcfast_pscsim::codec`). Everything is deterministic: the same
//! append sequence produces byte-identical media, and recovery of
//! identical media produces identical state — the property the audit
//! crate's `store` engine checks at every possible crash offset.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;
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
/// slot checksum. Inputs of 128 bytes or more — the snapshot slot, which is
/// megabytes and checksummed on both the checkpoint and the recovery path —
/// fold on carry-less multiply where the running CPU has it (`clmul`);
/// shorter ones, and every input on other CPUs, run slicing-by-8. Both
/// compute the same function, so the media do not depend on the host.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (crc, rest) = fold_wide(!0, bytes);
    !update_sliced(crc, rest)
}

/// The carry-less-multiply kernel over as much of `bytes` as it takes on
/// this CPU: the advanced register and the bytes it left, or `bytes`
/// untouched where it takes none.
fn fold_wide(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(folded) = clmul::update(crc, bytes) {
        return folded;
    }
    (crc, bytes)
}

/// Slicing-by-8 on the CRC register: eight bytes per step through eight
/// tables, with a bytewise tail.
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<8>();
    for chunk in chunks {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = *chunk;
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][b4 as usize]
            ^ TABLES[2][b5 as usize]
            ^ TABLES[1][b6 as usize]
            ^ TABLES[0][b7 as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop: the oracle every implementation must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    type Crc = fn(&[u8]) -> u32;

    fn sliced(bytes: &[u8]) -> u32 {
        !update_sliced(!0, bytes)
    }

    /// The kernel by name, past the dispatcher (callers checked the CPU has
    /// it), with slicing-by-8 on whatever it leaves.
    #[cfg(target_arch = "x86_64")]
    fn clmul(bytes: &[u8]) -> u32 {
        let (crc, rest) = match clmul::update(!0, bytes) {
            Some(folded) => folded,
            None => {
                assert!(bytes.len() < clmul::MIN_LEN, "no carry-less multiply");
                (!0, bytes)
            }
        };
        !update_sliced(crc, rest)
    }

    /// Every implementation this host can run, by name: slicing-by-8
    /// always — a CLMUL host takes it only below 128 bytes, so only tests
    /// keep it honest there — the kernel where the CPU has it, and the
    /// dispatcher the crate calls.
    fn implementations() -> Vec<(&'static str, Crc)> {
        let mut all: Vec<(&'static str, Crc)> = vec![("slicing-by-8", sliced), ("crc32", crc32)];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            all.push(("clmul", clmul));
        }
        if all.len() == 2 {
            println!("note: no carry-less multiply on this host; the clmul kernel is not tested");
        }
        all
    }

    fn check(bytes: &[u8], what: &str) {
        let expected = crc32_bytewise(bytes);
        for (name, crc) in implementations() {
            assert_eq!(crc(bytes), expected, "{name}, {what}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        check(b"123456789", "check value");
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn every_crc32_implementation_equals_the_bytewise_reference() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x000C_4C32);
        let mut buffer = vec![0u8; (5 << 20) + 16];
        rng.fill_bytes(&mut buffer);
        // Unaligned starts, every tail length class, whole folds and not.
        for _ in 0..256 {
            let start = rng.gen_range(0..16usize);
            let len = rng.gen_range(0..=64usize << 10);
            check(
                &buffer[start..start + len],
                &format!("start {start} len {len}"),
            );
        }
        // Around the kernel's threshold and across its 64-byte fold loop
        // and its 16-byte single folds.
        for len in 0..=272 {
            check(&buffer[1..1 + len], &format!("len {len}"));
        }
        // A snapshot slot's size.
        check(&buffer[3..3 + (5 << 20)], "5 MiB");
    }

    /// A dispatch bug must not leave the portable loop in place: on a CPU
    /// that reports the instructions, `crc32`'s first step leaves at most
    /// a part block to slicing-by-8 from 128 bytes on, and everything below.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_takes_the_kernel_where_the_cpu_has_it() {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            println!("note: no carry-less multiply on this host; nothing to dispatch to");
            return;
        }
        let bytes = vec![0x5Au8; (1 << 20) + 15];
        for len in [128, 129, 143, 144, 1000, bytes.len()] {
            let (_, rest) = fold_wide(!0, &bytes[..len]);
            assert_eq!(rest.len(), len % 16, "{len} bytes");
        }
        let (_, rest) = fold_wide(!0, &bytes[..127]);
        assert_eq!(rest.len(), 127, "short inputs stay on slicing-by-8");
    }

    #[test]
    fn errors_render_with_context() {
        let e = StoreError::RecordTooLarge { len: 9, max: 4 };
        assert!(e.to_string().contains('9'));
        let e = StoreError::Io("disk gone".into());
        assert!(e.to_string().contains("disk gone"));
    }
}
