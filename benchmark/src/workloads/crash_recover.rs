//! `crash_recover`: time out of service after a crash, with writes beside
//! reads. Only `store` and `core::recovery` work here.
//!
//! Every slice starts from a ledger freshly opened (untimed) on a copy of
//! the same media — 100 000 payment lifecycles with a snapshot at their end
//! — so slices do equal work at a fixed history depth however many of them
//! a run gets through. A slice journals 2 000 more lifecycles, checkpoints
//! on even slices, drops the manager and re-opens from the media: snapshot
//! plus a 12 000-record tail on odd slices, a fresh snapshot on even ones.
//! The whole log is scanned either way.

use super::{SliceOutcome, Workload, AMOUNT_SATS};
use crate::spans::Recorder;
use btcfast::recovery::{Outcome, RecoveryError, RecoveryManager, Step};
use btcfast_crypto::Hash256;
use btcfast_store::MemStorage;

/// Payment lifecycles on the media before a slice starts.
pub const HISTORY: u64 = 100_000;
/// Lifecycles each slice journals before the crash.
pub const JOURNALED: u64 = 2_000;

/// Journals one payment's durable lifecycle: the six records the engine
/// writes per accepted payment (open, accept, broadcast; begin + done).
pub fn journal_lifecycle(
    manager: &mut RecoveryManager<MemStorage>,
    payment_id: u64,
) -> Result<(), RecoveryError> {
    let mut txid = [0u8; 32];
    txid[..8].copy_from_slice(&payment_id.to_le_bytes());
    let txid = Hash256(txid);
    let intent = manager.begin(Step::OpenPayment {
        txid,
        amount_sats: AMOUNT_SATS,
        collateral: u128::from(AMOUNT_SATS) * 6 / 5,
        psc_nonce: payment_id,
    })?;
    manager.complete(intent, Outcome::PaymentRegistered { payment_id })?;
    let intent = manager.begin(Step::AcceptanceSend {
        payment_id,
        accepted: true,
    })?;
    manager.complete(intent, Outcome::Applied)?;
    let intent = manager.begin(Step::Broadcast { payment_id, txid })?;
    manager.complete(intent, Outcome::Applied)
}

/// Media holding `payments` journaled lifecycles and a snapshot covering
/// all of them, as `(wal bytes, snapshot bytes)`.
pub fn prefilled_media(first_id: u64, payments: u64) -> (Vec<u8>, Vec<u8>) {
    let wal = MemStorage::new();
    let snapshots = MemStorage::new();
    let (mut manager, _) =
        RecoveryManager::open(wal.clone(), snapshots.clone()).expect("fresh media open");
    for id in first_id..first_id + payments {
        journal_lifecycle(&mut manager, id).expect("in-memory journal accepts appends");
    }
    manager.checkpoint().expect("in-memory snapshot saves");
    (wal.bytes(), snapshots.bytes())
}

/// The crash-recovery workload.
pub struct CrashRecover {
    /// Payment ids start here, so the media depend on the seed.
    first_id: u64,
    base_wal: Vec<u8>,
    base_snapshot: Vec<u8>,
    /// The ledger a slice writes to and crashes: opened on a fresh copy of
    /// the base media by `prepare`.
    live: Option<RecoveryManager<MemStorage>>,
}

impl CrashRecover {
    /// Pre-fills the ledger (the dominant part of set-up).
    pub fn new(seed: u64) -> CrashRecover {
        let first_id = seed << 24;
        let (base_wal, base_snapshot) = prefilled_media(first_id, HISTORY);
        CrashRecover {
            first_id,
            base_wal,
            base_snapshot,
            live: None,
        }
    }

    fn open_on(&mut self, wal: Vec<u8>, snapshot: Vec<u8>) {
        let opened = RecoveryManager::open(
            MemStorage::from_bytes(wal),
            MemStorage::from_bytes(snapshot),
        );
        self.live = opened.ok().map(|(manager, _)| manager);
    }

    fn round(&mut self, index: u64, journaled: u64, rec: &mut Recorder) -> SliceOutcome {
        let mut out = SliceOutcome {
            ops: 1,
            ..SliceOutcome::default()
        };
        rec.set_op(index);
        let Some(mut manager) = self.live.take() else {
            out.failed += 1;
            eprintln!("recovery round has no open ledger");
            return out;
        };
        let first_id = self.first_id + HISTORY + index * JOURNALED;
        let result = (|| -> Result<(), RecoveryError> {
            let span = rec.enter("core.journal");
            for id in first_id..first_id + journaled {
                journal_lifecycle(&mut manager, id)?;
            }
            rec.exit(span);
            // Even rounds checkpoint, so recovery alternates between "the
            // snapshot covers everything" and "snapshot plus a tail".
            if index.is_multiple_of(2) {
                let span = rec.enter("core.checkpoint");
                manager.checkpoint()?;
                rec.exit(span);
            }
            let span = rec.enter("core.digest");
            let digest = manager.digest();
            rec.exit(span);
            let wal_bytes = manager.wal_stats().bytes_appended;
            let (wal, snapshots) = (
                manager.wal_medium().clone(),
                manager.snapshot_medium().clone(),
            );

            // The crash: volatile state is gone, the media survive.
            let span = rec.enter("core.recovery_drop");
            drop(manager);
            rec.exit(span);
            let span = rec.enter("core.recovery_reopen");
            let (recovered, report) = RecoveryManager::open(wal, snapshots)?;
            rec.exit(span);
            let span = rec.enter("core.digest");
            let recovered_to = recovered.digest();
            rec.exit(span);
            out.check(
                recovered_to == digest,
                "crash recover: the re-opened ledger has the pre-crash digest",
            );
            out.counts.add("payments", journaled as f64);
            out.counts.add("wal_bytes", wal_bytes as f64);
            out.counts.add("recoveries_sampled", 1.0);
            out.counts
                .add("records_replayed", report.replayed_records as f64);
            Ok(())
        })();
        if let Err(e) = result {
            out.failed += 1;
            eprintln!("recovery round failed: {e}");
        }
        out
    }
}

impl Workload for CrashRecover {
    fn prepare(&mut self, _index: u64) {
        self.open_on(self.base_wal.clone(), self.base_snapshot.clone());
    }

    fn run_slice(&mut self, index: u64, rec: &mut Recorder) -> SliceOutcome {
        self.round(index, JOURNALED, rec)
    }

    fn warm_up(&mut self) {
        // The store builds nothing lazily, so a shallow ledger is enough to
        // touch every code path without paying deep re-opens in set-up.
        let (wal, snapshot) = prefilled_media(self.first_id, 64);
        self.open_on(wal, snapshot);
        self.round(0, 16, &mut Recorder::disabled());
    }
}
