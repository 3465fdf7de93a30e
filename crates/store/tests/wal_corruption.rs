//! Property suite for WAL corruption handling: every class of media
//! damage the recovery contract names — torn tails, truncated length
//! prefixes, flipped checksum bytes, duplicate records — plus the
//! crash-at-random-offset equivalence at the heart of the durability
//! story: opening a log cut at *any* byte offset recovers exactly the
//! records the pure scanner salvages from that prefix, and appending
//! afterwards leaves a clean log. The same equivalence is checked across
//! checkpoints, where the log is truncated and the snapshot slot carries
//! the history: every byte cut of every tail and the three crash points
//! of every checkpoint.

use btcfast_store::wal::{scan, scan_with, Corruption, HEADER_BYTES};
use btcfast_store::{MemStorage, SnapshotStore, Storage, Wal};
use proptest::prelude::*;
use proptest::sample::Index;

/// Builds a WAL over `payloads` and returns the medium plus the byte
/// offset where each frame starts (with the total length appended, so
/// `frames[i]..frames[i + 1]` brackets frame `i`).
fn build_wal(payloads: &[Vec<u8>]) -> (MemStorage, Vec<usize>) {
    let medium = MemStorage::new();
    let (mut wal, _) = Wal::open(medium.clone()).expect("open fresh medium");
    let mut frames = vec![0usize];
    for p in payloads {
        wal.append(p).expect("append");
        frames.push(wal.len_bytes() as usize);
    }
    (medium, frames)
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..8)
}

/// The smallest state machine over the store: the state is the list of
/// payloads appended so far, a snapshot is that list length-prefixed.
fn encode_state(state: &[Vec<u8>], out: &mut Vec<u8>) {
    for payload in state {
        out.push(payload.len() as u8);
        out.extend_from_slice(payload);
    }
}

/// Recovery as a user of the store does it: snapshot, then the records
/// the snapshot does not cover, with the appender resuming past both.
fn recover(wal: &MemStorage, slot: &MemStorage) -> (Wal<MemStorage>, Vec<Vec<u8>>) {
    let mut state = Vec::new();
    let mut covered = 0;
    if let Some(snap) = SnapshotStore::new(slot.clone()).load().expect("load") {
        covered = snap.wal_seq;
        let mut rest = snap.state();
        while let Some((&len, tail)) = rest.split_first() {
            let (payload, tail) = tail.split_at(len as usize);
            state.push(payload.to_vec());
            rest = tail;
        }
    }
    let (wal, _) = Wal::open_with(wal.clone(), covered, |seq, payload| {
        if seq >= covered {
            state.push(payload.to_vec());
        }
    })
    .expect("open");
    (wal, state)
}

/// Recovers copies of the media, requires exactly `expected`, then
/// requires a record appended after the recovery to survive the next one.
fn check_crash(wal: &[u8], slot: &[u8], expected: &[Vec<u8>]) {
    let wal = MemStorage::from_bytes(wal.to_vec());
    let slot = MemStorage::from_bytes(slot.to_vec());
    let (mut log, state) = recover(&wal, &slot);
    assert_eq!(&state[..], expected);
    log.append(b"post-crash").expect("append after recovery");
    let (_, state) = recover(&wal, &slot);
    assert_eq!(&state[..expected.len()], expected);
    assert_eq!(&state[expected.len()..], &[b"post-crash".to_vec()][..]);
}

proptest! {
    /// Crash-at-random-offset equivalence: cutting the medium at any
    /// byte offset and re-opening recovers exactly the records whose
    /// frames fit wholly inside the cut — the longest clean prefix — and
    /// a mid-frame cut is reported as a torn tail, never a panic or a
    /// phantom record.
    #[test]
    fn crash_at_any_offset_recovers_the_clean_prefix(
        payloads in payloads(),
        cut_sel in any::<Index>(),
    ) {
        let (medium, frames) = build_wal(&payloads);
        let full = medium.bytes();
        let cut = cut_sel.index(full.len() + 1);
        let torn = MemStorage::from_bytes(full[..cut].to_vec());

        let (mut wal, recovered) = Wal::open(torn.clone()).expect("open torn medium");
        let survivors = frames.iter().skip(1).filter(|&&end| end <= cut).count();
        prop_assert_eq!(recovered.records.len(), survivors);
        for (i, (seq, payload)) in recovered.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(payload, &payloads[i]);
        }
        prop_assert_eq!(recovered.valid_len, frames[survivors] as u64);
        if cut == frames[survivors] {
            prop_assert_eq!(recovered.corruption, None);
        } else {
            prop_assert!(matches!(
                recovered.corruption,
                Some(Corruption::TornTail { offset }) if offset == frames[survivors] as u64
            ));
        }

        // Equivalence with the pure scanner, and repair is durable: the
        // torn bytes are gone from the medium itself.
        prop_assert_eq!(&scan(&full[..cut]), &recovered);
        prop_assert_eq!(torn.len(), recovered.valid_len);

        // Appending after repair resumes the sequence on a clean log.
        wal.append(b"post-crash").expect("append after repair");
        let after = scan(&torn.bytes());
        prop_assert_eq!(after.corruption, None);
        prop_assert_eq!(after.records.len(), survivors + 1);
        prop_assert_eq!(&after.records[survivors].1, &b"post-crash".to_vec());
    }

    /// The same equivalence across checkpoints. Each segment's records
    /// are appended, every byte cut of that tail is crashed over the
    /// current slot, then the slot is replaced and the log truncated —
    /// crashing before the replace, between replace and truncate (at
    /// every cut of the covered tail, too) and after the truncate.
    #[test]
    fn crash_at_any_offset_and_checkpoint_step_recovers_the_prefix(
        segments in proptest::collection::vec(payloads(), 4..6),
    ) {
        let (wal_medium, slot_medium) = (MemStorage::new(), MemStorage::new());
        let (mut wal, _) = Wal::open(wal_medium.clone()).expect("open fresh medium");
        let mut snapshots = SnapshotStore::new(slot_medium.clone());
        let mut history: Vec<Vec<u8>> = Vec::new();
        let last = segments.len() - 1;
        for (index, segment) in segments.iter().enumerate() {
            let covered = history.len();
            let mut frame_ends = Vec::new();
            for payload in segment {
                wal.append(payload).expect("append");
                history.push(payload.clone());
                frame_ends.push(wal.len_bytes() as usize);
            }
            let (tail, slot) = (wal_medium.bytes(), slot_medium.bytes());
            for cut in 0..=tail.len() {
                let survivors = frame_ends.iter().filter(|&&end| end <= cut).count();
                check_crash(&tail[..cut], &slot, &history[..covered + survivors]);
            }
            if index == last {
                break; // the last segment stays a tail
            }
            snapshots
                .save(wal.next_seq(), |out| encode_state(&history, out))
                .expect("save");
            let new_slot = slot_medium.bytes();
            for cut in 0..=tail.len() {
                check_crash(&tail[..cut], &new_slot, &history);
            }
            wal.reset().expect("truncate");
            prop_assert!(wal_medium.is_empty());
            check_crash(&[], &new_slot, &history);
        }
    }

    /// The visiting scan hands out exactly the records the collecting
    /// scan returns, with the same summary, on hostile bytes: a real log
    /// with a run of bytes overwritten, then cut anywhere.
    #[test]
    fn scan_with_visits_exactly_the_scanned_records(
        payloads in payloads(),
        garbage in proptest::collection::vec(any::<u8>(), 0..24),
        at_sel in any::<Index>(),
        cut_sel in any::<Index>(),
    ) {
        let (medium, _) = build_wal(&payloads);
        let mut bytes = medium.bytes();
        let at = at_sel.index(bytes.len());
        for (slot, byte) in bytes[at..].iter_mut().zip(&garbage) {
            *slot = *byte;
        }
        bytes.truncate(cut_sel.index(bytes.len() + 1));

        let mut visited = Vec::new();
        let mut summary = scan_with(&bytes, |seq, payload| visited.push((seq, payload.to_vec())));
        prop_assert!(summary.records.is_empty());
        summary.records = visited;
        prop_assert_eq!(&summary, &scan(&bytes));
    }

    /// A cut inside a frame *header* (the truncated-length-prefix case)
    /// is a torn tail at that frame: everything before survives.
    #[test]
    fn truncated_length_prefix_is_a_torn_tail(
        payloads in payloads(),
        frame_sel in any::<Index>(),
        header_cut in 1usize..HEADER_BYTES,
    ) {
        let (medium, frames) = build_wal(&payloads);
        let frame = frame_sel.index(payloads.len());
        let cut = frames[frame] + header_cut;
        let bytes = medium.bytes()[..cut].to_vec();

        let log = scan(&bytes);
        prop_assert_eq!(log.records.len(), frame);
        prop_assert!(matches!(
            log.corruption,
            Some(Corruption::TornTail { offset }) if offset == frames[frame] as u64
        ));
        prop_assert_eq!(log.truncated_bytes, header_cut as u64);
    }

    /// Flipping any bit of a frame's checksum field kills exactly that
    /// record: the scan accepts every earlier record, stops at the
    /// damaged frame, and names the checksum mismatch.
    #[test]
    fn flipped_checksum_byte_stops_the_scan_at_that_frame(
        payloads in payloads(),
        frame_sel in any::<Index>(),
        crc_byte in 0usize..4,
        bit in 0u8..8,
    ) {
        let (medium, frames) = build_wal(&payloads);
        let frame = frame_sel.index(payloads.len());
        let mut bytes = medium.bytes();
        bytes[frames[frame] + 4 + crc_byte] ^= 1 << bit;

        let log = scan(&bytes);
        prop_assert_eq!(log.records.len(), frame);
        for (i, (seq, payload)) in log.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(payload, &payloads[i]);
        }
        prop_assert!(matches!(
            log.corruption,
            Some(Corruption::BadChecksum { offset }) if offset == frames[frame] as u64
        ));
        prop_assert_eq!(log.valid_len, frames[frame] as u64);
    }

    /// Flipping any single byte anywhere in the medium never panics the
    /// scanner, and every record *before* the damaged frame survives
    /// intact (bytes ahead of the flip are untouched, so the sequential
    /// scan must accept them).
    #[test]
    fn any_single_byte_flip_preserves_the_untouched_prefix(
        payloads in payloads(),
        pos_sel in any::<Index>(),
        flip in 1u8..=255,
    ) {
        let (medium, frames) = build_wal(&payloads);
        let mut bytes = medium.bytes();
        let pos = pos_sel.index(bytes.len());
        bytes[pos] ^= flip;

        let log = scan(&bytes);
        prop_assert_eq!(log.valid_len + log.truncated_bytes, bytes.len() as u64);
        let untouched = frames.iter().skip(1).filter(|&&end| end <= pos).count();
        prop_assert!(log.records.len() >= untouched);
        for (i, (seq, payload)) in log.records.iter().take(untouched).enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(payload, &payloads[i]);
        }
    }

    /// Re-appending an already-applied frame (at-least-once journaling)
    /// is skipped, counted, and leaves the log clean: recovery is
    /// idempotent under duplicate records.
    #[test]
    fn duplicate_records_are_skipped_not_reapplied(
        payloads in payloads(),
        frame_sel in any::<Index>(),
    ) {
        let (medium, frames) = build_wal(&payloads);
        let frame = frame_sel.index(payloads.len());
        let mut bytes = medium.bytes();
        let dup = bytes[frames[frame]..frames[frame + 1]].to_vec();
        bytes.extend_from_slice(&dup);

        let log = scan(&bytes);
        prop_assert_eq!(log.corruption, None);
        prop_assert_eq!(log.duplicates_skipped, 1);
        prop_assert_eq!(log.records.len(), payloads.len());
        prop_assert_eq!(log.valid_len, bytes.len() as u64);

        // The appender resumes past the duplicate with a fresh sequence.
        let (wal, _) = Wal::open(MemStorage::from_bytes(bytes)).expect("open with duplicate");
        prop_assert_eq!(wal.next_seq(), payloads.len() as u64);
    }
}
