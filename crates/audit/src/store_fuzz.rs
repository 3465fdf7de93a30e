//! Durable-store fuzz targets: hostile WAL/snapshot media and the
//! crash-at-every-byte-offset recovery differential.
//!
//! Three properties, all driven by the case's bytes:
//!
//! * hostile WAL media never panic the scanner, and the valid prefix it
//!   reports re-scans clean (truncation repair is a fixed point);
//! * hostile snapshot media never panic the loader — a corrupt slot is
//!   `Ok(None)`, never garbage state — and recovery over such a slot is a
//!   full replay while the log still reaches sequence 0, a typed error
//!   once it does not, and a fresh ledger only on two byte-empty media;
//! * for a journal built from a fuzzed step schedule with several
//!   checkpoints, crashing at **every** byte offset of the log tail and at
//!   each of the three crash points of every checkpoint, then re-opening,
//!   recovers exactly the state after the records that survived. The
//!   oracle is a shadow fold of the journaled steps, not the log: a
//!   checkpoint truncates the log, so the log keeps no history to replay.

use crate::source::ByteSource;
use btcfast::recovery::{Outcome, RecoveryError, RecoveryManager, Step};
use btcfast_crypto::Hash256;
use btcfast_store::{MemStorage, SnapshotStore, Storage, Wal};

/// Hostile bytes as a WAL medium: the scanner must not panic, must
/// report a consistent valid prefix, and repairing by truncation must be
/// a fixed point (the prefix re-scans with no corruption and the same
/// records).
pub fn fuzz_wal_scan(bytes: &[u8]) -> Result<(), String> {
    let log = btcfast_store::wal::scan(bytes);
    let valid_len = usize::try_from(log.valid_len).map_err(|_| "valid_len overflow".to_string())?;
    if valid_len > bytes.len() {
        return Err(format!(
            "valid_len {valid_len} exceeds medium length {}",
            bytes.len()
        ));
    }
    if log.valid_len + log.truncated_bytes != bytes.len() as u64 {
        return Err(format!(
            "prefix {} + truncated {} != medium {}",
            log.valid_len,
            log.truncated_bytes,
            bytes.len()
        ));
    }
    let repaired = btcfast_store::wal::scan(&bytes[..valid_len]);
    if repaired.corruption.is_some() || repaired.truncated_bytes != 0 {
        return Err(format!(
            "repaired prefix is not clean: {:?}",
            repaired.corruption
        ));
    }
    if repaired.records != log.records {
        return Err("repaired prefix changed the recovered records".into());
    }
    // Opening a Wal over the hostile medium must repair, not panic, and
    // appending afterwards must leave a clean log.
    let (mut wal, _) =
        Wal::open(MemStorage::from_bytes(bytes.to_vec())).map_err(|e| format!("open: {e}"))?;
    wal.append(b"post-repair probe")
        .map_err(|e| format!("append after repair: {e}"))?;
    let reread = btcfast_store::wal::scan(&wal.storage().bytes());
    if reread.corruption.is_some() {
        return Err("append after repair left a corrupt log".into());
    }
    Ok(())
}

/// One pending intent journaled on fresh media, behind a checkpoint when
/// `truncated` (so the log no longer reaches sequence 0): the log bytes
/// and the digest a full replay of them must reach.
fn probe_journal(truncated: bool) -> Result<(Vec<u8>, Hash256), RecoveryError> {
    let wal = MemStorage::new();
    let (mut manager, _) = RecoveryManager::open(wal.clone(), MemStorage::new())?;
    let step = Step::EscrowOpen {
        deposit_units: 1,
        psc_nonce: 0,
    };
    if truncated {
        manager.begin(step.clone())?;
        manager.checkpoint()?;
    }
    manager.begin(step)?;
    Ok((wal.bytes(), manager.digest()))
}

/// Hostile bytes as a snapshot slot: loading must never panic and a
/// corrupt slot must read as absent; recovery over it follows the
/// contract in the module docs; and a fresh save round-trips.
pub fn fuzz_snapshot_slot(bytes: &[u8]) -> Result<(), String> {
    let mut store = SnapshotStore::new(MemStorage::from_bytes(bytes.to_vec()));
    // Lenient load: anything unparseable is None, never an error/panic.
    let loaded = store.load().map_err(|e| format!("lenient load: {e}"))?;

    let probe = |truncated| probe_journal(truncated).map_err(|e| format!("probe journal: {e}"));
    let ((whole_log, whole_digest), (tail_log, _)) = (probe(false)?, probe(true)?);
    let reopen = |wal: &[u8]| {
        RecoveryManager::open(
            MemStorage::from_bytes(wal.to_vec()),
            MemStorage::from_bytes(bytes.to_vec()),
        )
        .map(|(manager, report)| (manager, report.snapshot_used))
    };
    let lost = |wal: &[u8]| matches!(reopen(wal), Err(RecoveryError::HistoryLost { .. }));
    if let Some(snap) = &loaded {
        // A slot the loader accepts may still hold a state blob recovery
        // rejects; either way it must not panic.
        let _ = (reopen(&whole_log), reopen(&tail_log));
        // Whatever parsed must survive a save/load round-trip unchanged.
        store
            .save(snap.wal_seq, |out| out.extend_from_slice(snap.state()))
            .map_err(|e| format!("re-save: {e}"))?;
    } else {
        let full_replay =
            matches!(reopen(&whole_log), Ok((m, false)) if m.digest() == whole_digest);
        let empty_log = if bytes.is_empty() {
            matches!(reopen(&[]), Ok((m, false)) if m.ledger().payments.is_empty())
        } else {
            lost(&[])
        };
        if !(full_replay && lost(&tail_log) && empty_log) {
            return Err(format!(
                "unusable slot: full replay of a whole log {full_replay}, \
                 empty log handled {empty_log}, truncated log must be HistoryLost"
            ));
        }
    }
    store
        .save(7, |out| out.extend_from_slice(b"probe-state"))
        .map_err(|e| format!("save over hostile slot: {e}"))?;
    let reloaded = store
        .load()
        .map_err(|e| format!("load after save: {e}"))?
        .ok_or("saved snapshot did not load back")?;
    if reloaded.wal_seq != 7 || reloaded.state() != b"probe-state" {
        return Err("snapshot round-trip mutated the state".into());
    }
    Ok(())
}

/// Builds a deterministic journal workload from the case bytes: a short
/// schedule of protocol steps journaled begin→done, some deliberately
/// left pending (crash between intent and completion).
fn journal_workload(src: &mut ByteSource<'_>) -> Vec<(Step, Option<Outcome>)> {
    let mut txid_byte = 0u8;
    let mut txid = || {
        txid_byte = txid_byte.wrapping_add(1);
        Hash256([txid_byte; 32])
    };
    let steps = 1 + src.choice(7);
    let mut out = Vec::new();
    out.push((
        Step::EscrowOpen {
            deposit_units: u128::from(src.u32()) + 1,
            psc_nonce: 0,
        },
        Some(Outcome::Applied),
    ));
    for i in 0..steps {
        let payment_id = (i as u64) + 1;
        let t = txid();
        out.push((
            Step::OpenPayment {
                txid: t,
                amount_sats: u64::from(src.u16()) + 1,
                collateral: u128::from(src.u16()),
                psc_nonce: payment_id,
            },
            Some(Outcome::PaymentRegistered { payment_id }),
        ));
        out.push((
            Step::OfferSend {
                payment_id,
                txid: t,
            },
            Some(Outcome::Applied),
        ));
        let accepted = src.bool();
        let acceptance_outcome = if src.choice(5) == 0 {
            None // crash before the Done record lands
        } else if accepted {
            Some(Outcome::Applied)
        } else {
            Some(Outcome::Rejected)
        };
        out.push((
            Step::AcceptanceSend {
                payment_id,
                accepted,
            },
            acceptance_outcome,
        ));
        if accepted && src.bool() {
            out.push((
                Step::Broadcast {
                    payment_id,
                    txid: t,
                },
                src.bool().then_some(Outcome::Applied),
            ));
        }
    }
    out
}

/// Re-opens copies of the given media and requires the recovered digest
/// to be `expected` — and, when `then_journal`, the recovered manager to
/// be a working journal: an intent it accepts next must survive the next
/// re-open.
fn check_recovery(
    wal: &[u8],
    snapshot: &[u8],
    expected: Hash256,
    then_journal: bool,
    crash: impl Fn() -> String,
) -> Result<(), String> {
    let wal = MemStorage::from_bytes(wal.to_vec());
    let snapshot = MemStorage::from_bytes(snapshot.to_vec());
    let reopen = || {
        RecoveryManager::open(wal.clone(), snapshot.clone())
            .map_err(|e| format!("{}: re-open: {e}", crash()))
    };
    let (mut recovered, report) = reopen()?;
    if recovered.digest() != expected {
        return Err(format!(
            "{}: recovery diverged from the fold of the surviving records \
             (replayed {}, snapshot_used {})",
            crash(),
            report.replayed_records,
            report.snapshot_used
        ));
    }
    if !then_journal {
        return Ok(());
    }
    recovered
        .begin(Step::JudgeCall {
            payment_id: 0,
            psc_nonce: 0,
        })
        .map_err(|e| format!("{}: journal after recovery: {e}", crash()))?;
    if reopen()?.0.digest() != recovered.digest() {
        return Err(format!(
            "{}: an intent journaled after recovery did not survive the next one",
            crash()
        ));
    }
    Ok(())
}

/// The crash-at-every-offset differential. See the module docs.
pub fn diff_store_crash_every_offset(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let workload = journal_workload(&mut src);
    // At least three checkpoints per schedule, at a fuzzed stride.
    let stride = 1 + src.choice(workload.len() / 3);

    let wal_medium = MemStorage::new();
    let snap_medium = MemStorage::new();
    let open = |wal, snap| RecoveryManager::open(wal, snap).map_err(|e| format!("fresh open: {e}"));
    let (mut manager, _) = open(wal_medium.clone(), snap_medium.clone())?;
    // The oracle: the same steps folded by a manager that is never
    // checkpointed, crashed or re-opened. `digests[k]` is its digest after
    // the first `k` records, so it is what any crash that leaves exactly
    // those records durable must recover to.
    let (mut shadow, _) = open(MemStorage::new(), MemStorage::new())?;
    let mut digests = vec![shadow.digest()];
    // Records the snapshot slot covers, and where each later frame ends
    // in the tail that is on the WAL medium now.
    let mut covered = 0usize;
    let mut frame_ends: Vec<usize> = Vec::new();

    for (i, (step, outcome)) in workload.iter().enumerate() {
        let mut intent = 0;
        for m in [&mut manager, &mut shadow] {
            intent = m.begin(step.clone()).map_err(|e| format!("begin: {e}"))?;
        }
        digests.push(shadow.digest());
        frame_ends.push(wal_medium.len() as usize);
        if let Some(outcome) = outcome {
            for m in [&mut manager, &mut shadow] {
                m.complete(intent, *outcome)
                    .map_err(|e| format!("complete: {e}"))?;
            }
            digests.push(shadow.digest());
            frame_ends.push(wal_medium.len() as usize);
        }
        let checkpoint = (i + 1) % stride == 0;
        if !checkpoint && i + 1 != workload.len() {
            continue;
        }

        // Every byte cut of the tail, over a slot covering `slot_covers`
        // records: what is durable is whichever reaches further. Cuts
        // inside one frame repair to the same log, so journaling on is
        // tried once per distinct log.
        let tail = wal_medium.bytes();
        let sweep = |slot: &[u8], slot_covers: usize, crash: &str| {
            (0..=tail.len()).try_for_each(|cut| {
                let in_log = covered + frame_ends.iter().filter(|&&end| end <= cut).count();
                let durable = digests[in_log.max(slot_covers)];
                let clean = cut == 0 || frame_ends.contains(&cut);
                check_recovery(&tail[..cut], slot, durable, clean, || {
                    format!("step {i}, {crash}, log cut at {cut}")
                })
            })
        };
        // The full cut is the crash that loses nothing — also the state
        // a crash just before the slot replace leaves.
        sweep(&snap_medium.bytes(), covered, "slot not yet replaced")?;
        if !checkpoint {
            break;
        }
        manager
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        if !wal_medium.is_empty() {
            return Err(format!("checkpoint at step {i} left bytes in the log"));
        }
        // Between replace and truncate the new slot covers the whole
        // tail, however much of it a repair cuts away; after the
        // truncate the slot stands alone.
        let (slot, all) = (snap_medium.bytes(), covered + frame_ends.len());
        sweep(&slot, all, "slot replaced, log not yet truncated")?;
        check_recovery(&[], &slot, digests[all], true, || {
            format!("step {i}, checkpoint complete")
        })?;
        covered = all;
        frame_ends.clear();
    }
    if manager.digest() != shadow.digest() {
        return Err("the live manager diverged from its shadow".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_accept_arbitrary_seeds() {
        crate::tests::assert_clean_at_depth(crate::Engine::Store);
    }

    #[test]
    fn empty_case_is_boring_but_valid() {
        fuzz_wal_scan(&[]).unwrap();
        fuzz_snapshot_slot(&[]).unwrap();
        diff_store_crash_every_offset(&[]).unwrap();
    }

    #[test]
    fn structured_cases_pass_on_the_fixed_tree() {
        let mut bytes = Vec::new();
        for i in 0..192u32 {
            bytes.push((i.wrapping_mul(2_654_435_761) >> 13) as u8);
        }
        fuzz_wal_scan(&bytes).unwrap();
        fuzz_snapshot_slot(&bytes).unwrap();
        diff_store_crash_every_offset(&bytes).unwrap();
    }

    #[test]
    fn a_real_wal_prefix_is_accepted_whole() {
        let (mut wal, _) = Wal::open(MemStorage::new()).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta").unwrap();
        let medium = wal.storage().bytes();
        fuzz_wal_scan(&medium).unwrap();
        // Torn tails of a real log are also clean truncations.
        for cut in 0..medium.len() {
            fuzz_wal_scan(&medium[..cut]).unwrap();
        }
    }
}
