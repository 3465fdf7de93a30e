//! Durable intent journaling and crash recovery for protocol participants.
//!
//! The paper's guarantee — any in-flight payment can be settled from
//! recorded evidence — dies with the process if offers, acceptances, and
//! dispute steps live only in memory. This module makes every
//! side-effecting protocol step durable *before* it executes:
//!
//! 1. the caller journals `Begin(step)` to the WAL (an **intent**),
//! 2. performs the side effect (PSC call, message send, broadcast),
//! 3. journals `Done(intent, outcome)`.
//!
//! A crash between 1 and 3 leaves a *pending* intent on durable media.
//! [`RecoveryManager::checkpoint`] replaces the snapshot slot atomically
//! and then truncates the WAL to nothing, so the media hold one snapshot
//! plus the tail journaled since — however old the ledger is.
//! On restart, [`RecoveryManager::open`] replays snapshot + WAL tail and
//! surfaces the pending set; the caller then resolves each intent
//! **exactly once**: every PSC-call step records the account nonce its
//! transaction would spend, so the recovering node compares the recorded
//! nonce against the chain's current nonce — if the chain consumed it,
//! the effect landed and the intent is completed without re-execution;
//! if not, the step is safe to re-run. Message sends and broadcasts are
//! idempotent at the receiver (transport dedup, mempool keyed by txid),
//! so re-sending is always safe.
//!
//! Everything here is deterministic: the journal encoding is canonical
//! (little-endian, length-prefixed — the workspace codec idiom), so the
//! same step sequence produces byte-identical media, and
//! [`RecoveryManager::digest`] over the re-hydrated state is
//! byte-identical to the digest of the uninterrupted run. The audit
//! crate's `store` engine checks exactly that at every crash offset.

use btcfast_crypto::sha256::{sha256, Sha256};
use btcfast_crypto::Hash256;
use btcfast_store::{SnapshotStore, Storage, StoreError, Wal};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A side-effecting protocol step, journaled as an intent before it runs.
/// PSC-call steps carry the account nonce their transaction spends — the
/// exactly-once token recovery checks against the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// The customer deposits escrow collateral (PSC call).
    EscrowOpen {
        /// Deposit size in PSC units.
        deposit_units: u128,
        /// The customer-account nonce the deposit tx spends.
        psc_nonce: u64,
    },
    /// The customer registers a payment against the escrow (PSC call).
    OpenPayment {
        /// The BTC payment txid being registered.
        txid: Hash256,
        /// Payment size in satoshis.
        amount_sats: u64,
        /// Collateral locked for this payment, in PSC units.
        collateral: u128,
        /// The customer-account nonce the registration tx spends.
        psc_nonce: u64,
    },
    /// The customer's offer travels to the merchant.
    OfferSend {
        /// The registered escrow payment id.
        payment_id: u64,
        /// The BTC payment txid offered.
        txid: Hash256,
    },
    /// The merchant's acceptance (or refusal) travels back.
    AcceptanceSend {
        /// The escrow payment id.
        payment_id: u64,
        /// Whether the merchant accepted.
        accepted: bool,
    },
    /// The accepted payment enters the public mempool.
    Broadcast {
        /// The escrow payment id.
        payment_id: u64,
        /// The BTC txid broadcast.
        txid: Hash256,
    },
    /// The merchant opens a dispute (PSC call).
    DisputeOpen {
        /// The escrow payment id.
        payment_id: u64,
        /// The merchant-account nonce the dispute tx spends.
        psc_nonce: u64,
    },
    /// A party submits SPV evidence (PSC call).
    EvidenceSubmit {
        /// The escrow payment id.
        payment_id: u64,
        /// The txid the evidence proves (in or out of the chain).
        txid: Hash256,
        /// The submitter-account nonce the evidence tx spends.
        psc_nonce: u64,
    },
    /// The judgment call after the window closes (PSC call).
    JudgeCall {
        /// The escrow payment id.
        payment_id: u64,
        /// The caller-account nonce the judge tx spends.
        psc_nonce: u64,
    },
    /// The verdict observed on chain (a fact, recorded for the ledger).
    Verdict {
        /// The escrow payment id.
        payment_id: u64,
        /// Did the judgment pay the merchant from collateral?
        merchant_wins: bool,
    },
}

impl Step {
    /// The escrow payment id this step concerns, when assigned yet.
    pub fn payment_id(&self) -> Option<u64> {
        match self {
            Step::EscrowOpen { .. } | Step::OpenPayment { .. } => None,
            Step::OfferSend { payment_id, .. }
            | Step::AcceptanceSend { payment_id, .. }
            | Step::Broadcast { payment_id, .. }
            | Step::DisputeOpen { payment_id, .. }
            | Step::EvidenceSubmit { payment_id, .. }
            | Step::JudgeCall { payment_id, .. }
            | Step::Verdict { payment_id, .. } => Some(*payment_id),
        }
    }

    /// The PSC account nonce this step's transaction spends — the
    /// exactly-once token — when the step is a chain call.
    pub fn psc_nonce(&self) -> Option<u64> {
        match self {
            Step::EscrowOpen { psc_nonce, .. }
            | Step::OpenPayment { psc_nonce, .. }
            | Step::DisputeOpen { psc_nonce, .. }
            | Step::EvidenceSubmit { psc_nonce, .. }
            | Step::JudgeCall { psc_nonce, .. } => Some(*psc_nonce),
            Step::OfferSend { .. }
            | Step::AcceptanceSend { .. }
            | Step::Broadcast { .. }
            | Step::Verdict { .. } => None,
        }
    }
}

/// How a journaled intent resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The side effect landed.
    Applied,
    /// The registration landed and the contract assigned this payment id.
    PaymentRegistered {
        /// The assigned escrow payment id.
        payment_id: u64,
    },
    /// The step executed but the effect was refused (reverted call,
    /// merchant rejection).
    Rejected,
    /// The caller gave up on the step (degraded to a fallback path).
    Abandoned,
}

/// Everything the ledger knows about one registered payment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaymentState {
    /// The BTC payment txid.
    pub txid: Hash256,
    /// Payment size in satoshis.
    pub amount_sats: u64,
    /// Offer delivered to the merchant.
    pub offered: bool,
    /// Merchant accepted.
    pub accepted: bool,
    /// Payment broadcast to the public mempool.
    pub broadcast: bool,
    /// Dispute opened.
    pub disputed: bool,
    /// Evidence submitted.
    pub evidence_submitted: bool,
    /// Judgment ran.
    pub judged: bool,
    /// The verdict, when judged.
    pub merchant_wins: Option<bool>,
}

/// The durable view of a participant's protocol state, rebuilt
/// deterministically from the journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaymentLedger {
    /// Has the escrow deposit landed?
    pub escrow_opened: bool,
    /// Registered payments by escrow payment id.
    pub payments: BTreeMap<u64, PaymentState>,
    /// Total satoshis across accepted payments.
    pub value_accepted_sats: u64,
}

/// What a restart recovered from durable media.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Was a snapshot used (vs. a full WAL replay)?
    pub snapshot_used: bool,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Intents found begun-but-not-done — the exactly-once resume set.
    pub pending_resumed: usize,
    /// Bytes of damaged WAL tail repaired away.
    pub truncated_bytes: u64,
    /// Duplicate journal records skipped.
    pub duplicates_skipped: u64,
}

/// Counters for the telemetry layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Restores performed (1 per open).
    pub recoveries: u64,
    /// WAL records replayed across restores.
    pub replayed_records: u64,
    /// Pending intents resumed across restores.
    pub pending_resumed: u64,
    /// Journal appends (Begin + Done records).
    pub journal_appends: u64,
    /// Snapshots written.
    pub checkpoints: u64,
}

/// Why journaling or recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The durable medium failed or was corrupt in strict mode.
    Store(StoreError),
    /// A CRC-valid record failed to decode — an encoding-version bug, not
    /// media damage.
    Malformed(String),
    /// The caller referenced an intent the journal does not know.
    UnknownIntent {
        /// The intent id the caller passed.
        intent: u64,
    },
    /// The snapshot slot is unusable and the log no longer reaches back to
    /// sequence 0: the history the slot covered was truncated away, so
    /// there is nothing to rebuild the ledger from. Starting empty would
    /// silently forget payments, so recovery refuses instead.
    HistoryLost {
        /// Sequence number of the first surviving log record, if any.
        log_starts_at: Option<u64>,
    },
    /// A restart re-opened the media to a state whose digest is not the
    /// live manager's: recovery would lose or invent history.
    Diverged,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Store(e) => write!(f, "durable store: {e}"),
            RecoveryError::Malformed(msg) => write!(f, "malformed journal record: {msg}"),
            RecoveryError::UnknownIntent { intent } => {
                write!(f, "unknown journal intent {intent}")
            }
            RecoveryError::HistoryLost { log_starts_at } => write!(
                f,
                "snapshot slot unusable and the log (first record: {log_starts_at:?}) \
                 no longer holds the history it covered"
            ),
            RecoveryError::Diverged => {
                f.write_str("recovered state diverged from the pre-crash state")
            }
        }
    }
}

impl Error for RecoveryError {}

impl From<StoreError> for RecoveryError {
    fn from(e: StoreError) -> Self {
        RecoveryError::Store(e)
    }
}

// --- Canonical journal encoding (workspace codec idiom). ----------------

fn put_hash(out: &mut Vec<u8>, h: &Hash256) {
    out.extend_from_slice(h.as_bytes());
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], RecoveryError> {
    if bytes.len() < n {
        return Err(RecoveryError::Malformed("unexpected end".into()));
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

fn take_u8(bytes: &mut &[u8]) -> Result<u8, RecoveryError> {
    Ok(take(bytes, 1)?[0])
}

fn take_u64(bytes: &mut &[u8]) -> Result<u64, RecoveryError> {
    Ok(u64::from_le_bytes(
        take(bytes, 8)?.try_into().expect("sized slice"),
    ))
}

fn take_u128(bytes: &mut &[u8]) -> Result<u128, RecoveryError> {
    Ok(u128::from_le_bytes(
        take(bytes, 16)?.try_into().expect("sized slice"),
    ))
}

fn take_hash(bytes: &mut &[u8]) -> Result<Hash256, RecoveryError> {
    Ok(Hash256(take(bytes, 32)?.try_into().expect("sized slice")))
}

fn take_bool(bytes: &mut &[u8]) -> Result<bool, RecoveryError> {
    match take_u8(bytes)? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(RecoveryError::Malformed(format!("bad bool byte {b}"))),
    }
}

/// A `u32` count and that many `(u64 id, value)` entries, as a map: a plain
/// loop into a `Vec` reserved for what `bytes` can hold, then one bulk build
/// (ids are written ascending; a hostile slot's unsorted or repeated ids
/// decode as sequential inserts would, last entry winning). Collecting a
/// `Result` iterator grows a doubling `Vec` behind an adapter whose inlining
/// moved `crash_recover` by 17 % between otherwise equal builds.
fn take_map<V>(
    bytes: &mut &[u8],
    min_entry_bytes: usize,
    decode: impl Fn(&mut &[u8]) -> Result<V, RecoveryError>,
) -> Result<BTreeMap<u64, V>, RecoveryError> {
    let count = u32::from_le_bytes(take(bytes, 4)?.try_into().expect("sized slice")) as usize;
    let mut entries = Vec::with_capacity(count.min(bytes.len() / min_entry_bytes));
    for _ in 0..count {
        entries.push((take_u64(bytes)?, decode(bytes)?));
    }
    Ok(BTreeMap::from_iter(entries))
}

impl Step {
    /// The longest encoding of any step (`OpenPayment`): sizes a buffer.
    const MAX_ENCODED_BYTES: usize = 1 + 32 + 8 + 16 + 8;
    /// The shortest (`AcceptanceSend`, `Verdict`): bounds a count read from a slot.
    const MIN_ENCODED_BYTES: usize = 1 + 8 + 1;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Step::EscrowOpen {
                deposit_units,
                psc_nonce,
            } => {
                out.push(1);
                out.extend_from_slice(&deposit_units.to_le_bytes());
                out.extend_from_slice(&psc_nonce.to_le_bytes());
            }
            Step::OpenPayment {
                txid,
                amount_sats,
                collateral,
                psc_nonce,
            } => {
                out.push(2);
                put_hash(out, txid);
                out.extend_from_slice(&amount_sats.to_le_bytes());
                out.extend_from_slice(&collateral.to_le_bytes());
                out.extend_from_slice(&psc_nonce.to_le_bytes());
            }
            Step::OfferSend { payment_id, txid } => {
                out.push(3);
                out.extend_from_slice(&payment_id.to_le_bytes());
                put_hash(out, txid);
            }
            Step::AcceptanceSend {
                payment_id,
                accepted,
            } => {
                out.push(4);
                out.extend_from_slice(&payment_id.to_le_bytes());
                out.push(u8::from(*accepted));
            }
            Step::Broadcast { payment_id, txid } => {
                out.push(5);
                out.extend_from_slice(&payment_id.to_le_bytes());
                put_hash(out, txid);
            }
            Step::DisputeOpen {
                payment_id,
                psc_nonce,
            } => {
                out.push(6);
                out.extend_from_slice(&payment_id.to_le_bytes());
                out.extend_from_slice(&psc_nonce.to_le_bytes());
            }
            Step::EvidenceSubmit {
                payment_id,
                txid,
                psc_nonce,
            } => {
                out.push(7);
                out.extend_from_slice(&payment_id.to_le_bytes());
                put_hash(out, txid);
                out.extend_from_slice(&psc_nonce.to_le_bytes());
            }
            Step::JudgeCall {
                payment_id,
                psc_nonce,
            } => {
                out.push(8);
                out.extend_from_slice(&payment_id.to_le_bytes());
                out.extend_from_slice(&psc_nonce.to_le_bytes());
            }
            Step::Verdict {
                payment_id,
                merchant_wins,
            } => {
                out.push(9);
                out.extend_from_slice(&payment_id.to_le_bytes());
                out.push(u8::from(*merchant_wins));
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> Result<Step, RecoveryError> {
        match take_u8(bytes)? {
            1 => Ok(Step::EscrowOpen {
                deposit_units: take_u128(bytes)?,
                psc_nonce: take_u64(bytes)?,
            }),
            2 => Ok(Step::OpenPayment {
                txid: take_hash(bytes)?,
                amount_sats: take_u64(bytes)?,
                collateral: take_u128(bytes)?,
                psc_nonce: take_u64(bytes)?,
            }),
            3 => Ok(Step::OfferSend {
                payment_id: take_u64(bytes)?,
                txid: take_hash(bytes)?,
            }),
            4 => Ok(Step::AcceptanceSend {
                payment_id: take_u64(bytes)?,
                accepted: take_bool(bytes)?,
            }),
            5 => Ok(Step::Broadcast {
                payment_id: take_u64(bytes)?,
                txid: take_hash(bytes)?,
            }),
            6 => Ok(Step::DisputeOpen {
                payment_id: take_u64(bytes)?,
                psc_nonce: take_u64(bytes)?,
            }),
            7 => Ok(Step::EvidenceSubmit {
                payment_id: take_u64(bytes)?,
                txid: take_hash(bytes)?,
                psc_nonce: take_u64(bytes)?,
            }),
            8 => Ok(Step::JudgeCall {
                payment_id: take_u64(bytes)?,
                psc_nonce: take_u64(bytes)?,
            }),
            9 => Ok(Step::Verdict {
                payment_id: take_u64(bytes)?,
                merchant_wins: take_bool(bytes)?,
            }),
            t => Err(RecoveryError::Malformed(format!("bad step tag {t}"))),
        }
    }
}

impl Outcome {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Outcome::Applied => out.push(1),
            Outcome::PaymentRegistered { payment_id } => {
                out.push(2);
                out.extend_from_slice(&payment_id.to_le_bytes());
            }
            Outcome::Rejected => out.push(3),
            Outcome::Abandoned => out.push(4),
        }
    }

    fn decode(bytes: &mut &[u8]) -> Result<Outcome, RecoveryError> {
        match take_u8(bytes)? {
            1 => Ok(Outcome::Applied),
            2 => Ok(Outcome::PaymentRegistered {
                payment_id: take_u64(bytes)?,
            }),
            3 => Ok(Outcome::Rejected),
            4 => Ok(Outcome::Abandoned),
            t => Err(RecoveryError::Malformed(format!("bad outcome tag {t}"))),
        }
    }
}

enum JournalRecord {
    Begin { step: Step },
    Done { intent: u64, outcome: Outcome },
}

impl JournalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            JournalRecord::Begin { step } => {
                out.push(1);
                step.encode(out);
            }
            JournalRecord::Done { intent, outcome } => {
                out.push(2);
                out.extend_from_slice(&intent.to_le_bytes());
                outcome.encode(out);
            }
        }
    }

    fn decode(mut bytes: &[u8]) -> Result<JournalRecord, RecoveryError> {
        let record = match take_u8(&mut bytes)? {
            1 => JournalRecord::Begin {
                step: Step::decode(&mut bytes)?,
            },
            2 => JournalRecord::Done {
                intent: take_u64(&mut bytes)?,
                outcome: Outcome::decode(&mut bytes)?,
            },
            t => return Err(RecoveryError::Malformed(format!("bad record tag {t}"))),
        };
        if !bytes.is_empty() {
            return Err(RecoveryError::Malformed("trailing bytes".into()));
        }
        Ok(record)
    }
}

impl PaymentState {
    fn encode(&self, out: &mut Vec<u8>) {
        put_hash(out, &self.txid);
        out.extend_from_slice(&self.amount_sats.to_le_bytes());
        let mut flags = 0u8;
        for (bit, set) in [
            self.offered,
            self.accepted,
            self.broadcast,
            self.disputed,
            self.evidence_submitted,
            self.judged,
        ]
        .into_iter()
        .enumerate()
        {
            if set {
                flags |= 1 << bit;
            }
        }
        out.push(flags);
        out.push(match self.merchant_wins {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    fn decode(bytes: &mut &[u8]) -> Result<PaymentState, RecoveryError> {
        let txid = take_hash(bytes)?;
        let amount_sats = take_u64(bytes)?;
        let flags = take_u8(bytes)?;
        let merchant_wins = match take_u8(bytes)? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            b => return Err(RecoveryError::Malformed(format!("bad verdict byte {b}"))),
        };
        Ok(PaymentState {
            txid,
            amount_sats,
            offered: flags & 1 != 0,
            accepted: flags & 2 != 0,
            broadcast: flags & 4 != 0,
            disputed: flags & 8 != 0,
            evidence_submitted: flags & 16 != 0,
            judged: flags & 32 != 0,
            merchant_wins,
        })
    }
}

impl PaymentLedger {
    /// Encoded bytes per ledger payment: id, txid, amount, flags, verdict.
    const PAYMENT_BYTES: usize = 8 + 32 + 8 + 1 + 1;

    /// Canonical encoding (snapshot payload; digest input). `piece` is shown
    /// `out` after every payment, so a consumer that streams can drain it.
    fn encode(&self, out: &mut Vec<u8>, piece: &mut impl FnMut(&mut Vec<u8>)) {
        out.push(u8::from(self.escrow_opened));
        out.extend_from_slice(&(self.payments.len() as u32).to_le_bytes());
        for (id, state) in &self.payments {
            out.extend_from_slice(&id.to_le_bytes());
            state.encode(out);
            piece(out);
        }
        out.extend_from_slice(&self.value_accepted_sats.to_le_bytes());
    }

    fn decode(bytes: &mut &[u8]) -> Result<PaymentLedger, RecoveryError> {
        Ok(PaymentLedger {
            escrow_opened: take_bool(bytes)?,
            payments: take_map(bytes, Self::PAYMENT_BYTES, PaymentState::decode)?,
            value_accepted_sats: take_u64(bytes)?,
        })
    }

    fn apply(&mut self, step: &Step, outcome: Outcome) {
        if matches!(outcome, Outcome::Rejected | Outcome::Abandoned) {
            // The effect never landed; the ledger records nothing. (A
            // merchant refusal still marks the offer as delivered below.)
            if let Step::AcceptanceSend { payment_id, .. } = step {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.offered = true;
                }
            }
            return;
        }
        match (step, outcome) {
            (Step::EscrowOpen { .. }, _) => self.escrow_opened = true,
            (
                Step::OpenPayment {
                    txid, amount_sats, ..
                },
                Outcome::PaymentRegistered { payment_id },
            ) => {
                self.payments.insert(
                    payment_id,
                    PaymentState {
                        txid: *txid,
                        amount_sats: *amount_sats,
                        ..PaymentState::default()
                    },
                );
            }
            // An Applied without the contract-assigned id cannot place the
            // payment in the ledger; nothing to record.
            (Step::OpenPayment { .. }, _) => {}
            (Step::OfferSend { payment_id, .. }, _) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.offered = true;
                }
            }
            (
                Step::AcceptanceSend {
                    payment_id,
                    accepted,
                },
                _,
            ) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.offered = true;
                    if *accepted && !p.accepted {
                        p.accepted = true;
                        self.value_accepted_sats += p.amount_sats;
                    }
                }
            }
            (Step::Broadcast { payment_id, .. }, _) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.broadcast = true;
                }
            }
            (Step::DisputeOpen { payment_id, .. }, _) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.disputed = true;
                }
            }
            (Step::EvidenceSubmit { payment_id, .. }, _) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.evidence_submitted = true;
                }
            }
            (Step::JudgeCall { payment_id, .. }, _) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.judged = true;
                }
            }
            (
                Step::Verdict {
                    payment_id,
                    merchant_wins,
                },
                _,
            ) => {
                if let Some(p) = self.payments.get_mut(payment_id) {
                    p.judged = true;
                    p.merchant_wins = Some(*merchant_wins);
                }
            }
        }
    }
}

/// Journals intents to a WAL, checkpoints to a snapshot slot, and
/// re-hydrates a byte-identical [`PaymentLedger`] after a crash. See the
/// module docs for the exactly-once protocol.
pub struct RecoveryManager<S: Storage> {
    wal: Wal<S>,
    snapshots: SnapshotStore<S>,
    ledger: PaymentLedger,
    pending: BTreeMap<u64, Step>,
    stats: RecoveryStats,
    /// The journal record being appended, kept so journaling does not
    /// allocate per record.
    record: Vec<u8>,
}

impl<S: Storage> RecoveryManager<S> {
    /// Opens (or re-opens after a crash) the manager on its two durable
    /// media. Recovery order: load the snapshot, then fold every WAL
    /// record the snapshot does not cover into it, in one pass over the
    /// log. A damaged WAL tail is repaired by truncation — exactly the
    /// records whose side effects may not have executed, and the pending
    /// set re-drives those. New records continue the sequence past both
    /// the log and the snapshot.
    ///
    /// With no usable snapshot (absent or damaged slot) the log must be
    /// the whole history: it is replayed in full if it still starts at
    /// sequence 0, and two byte-empty media are a fresh ledger.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Store`] on medium failure;
    /// [`RecoveryError::Malformed`] when a CRC-valid record does not
    /// decode (version skew, not media damage);
    /// [`RecoveryError::HistoryLost`] when the slot is unusable and the
    /// history it covered has been truncated out of the log.
    pub fn open(
        wal_medium: S,
        snapshot_medium: S,
    ) -> Result<(RecoveryManager<S>, RecoveryReport), RecoveryError> {
        let snapshots = SnapshotStore::new(snapshot_medium);
        let mut ledger = PaymentLedger::default();
        let mut pending = BTreeMap::new();
        let mut replay_from = 0u64;
        let mut snapshot_used = false;
        if let Some(snap) = snapshots.load()? {
            if let Ok((l, p)) = decode_snapshot_state(&snap.state) {
                ledger = l;
                pending = p;
                replay_from = snap.wal_seq;
                snapshot_used = true;
            }
        }

        let mut replayed = 0u64;
        let mut log_starts_at = None;
        let mut malformed = None;
        let (wal, recovered) = Wal::open_with(wal_medium, replay_from, |seq, payload| {
            log_starts_at.get_or_insert(seq);
            if seq < replay_from || malformed.is_some() {
                return;
            }
            replayed += 1;
            match JournalRecord::decode(payload) {
                Ok(JournalRecord::Begin { step }) => {
                    pending.insert(seq, step);
                }
                Ok(JournalRecord::Done { intent, outcome }) => {
                    if let Some(step) = pending.remove(&intent) {
                        ledger.apply(&step, outcome);
                    }
                }
                Err(e) => malformed = Some(e),
            }
        })?;
        if let Some(e) = malformed {
            return Err(e);
        }
        let log_is_whole_history = match log_starts_at {
            Some(first) => first == 0,
            None => snapshots.storage().is_empty(),
        };
        if !snapshot_used && !log_is_whole_history {
            return Err(RecoveryError::HistoryLost { log_starts_at });
        }

        let report = RecoveryReport {
            snapshot_used,
            replayed_records: replayed,
            pending_resumed: pending.len(),
            truncated_bytes: recovered.truncated_bytes,
            duplicates_skipped: recovered.duplicates_skipped,
        };
        let stats = RecoveryStats {
            recoveries: 1,
            replayed_records: replayed,
            pending_resumed: pending.len() as u64,
            ..RecoveryStats::default()
        };
        Ok((
            RecoveryManager {
                wal,
                snapshots,
                ledger,
                pending,
                stats,
                record: Vec::new(),
            },
            report,
        ))
    }

    /// Journals the intent to perform `step` and syncs it. **Call before
    /// the side effect.** Returns the intent id to pass to
    /// [`RecoveryManager::complete`].
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Store`] when the journal write fails — in which
    /// case the side effect must not run.
    pub fn begin(&mut self, step: Step) -> Result<u64, RecoveryError> {
        JournalRecord::Begin { step: step.clone() }.encode(&mut self.record);
        let seq = self.wal.append(&self.record)?;
        self.wal.sync()?;
        self.pending.insert(seq, step);
        self.stats.journal_appends += 1;
        Ok(seq)
    }

    /// Journals that intent `intent` resolved with `outcome` and applies
    /// it to the ledger. **Call after the side effect.** Not synced: a
    /// `Done` lost to a host crash leaves the intent pending, which the
    /// exactly-once check resolves.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::UnknownIntent`] for an id never begun (or already
    /// completed); [`RecoveryError::Store`] when the journal write fails.
    pub fn complete(&mut self, intent: u64, outcome: Outcome) -> Result<(), RecoveryError> {
        if !self.pending.contains_key(&intent) {
            return Err(RecoveryError::UnknownIntent { intent });
        }
        JournalRecord::Done { intent, outcome }.encode(&mut self.record);
        self.wal.append(&self.record)?;
        let step = self.pending.remove(&intent).expect("checked above");
        self.ledger.apply(&step, outcome);
        self.stats.journal_appends += 1;
        Ok(())
    }

    /// The intents begun but not completed — what a restart must resolve
    /// exactly-once, in journal order.
    pub fn pending(&self) -> impl Iterator<Item = (u64, &Step)> + '_ {
        self.pending.iter().map(|(id, step)| (*id, step))
    }

    /// The re-hydrated durable state.
    pub fn ledger(&self) -> &PaymentLedger {
        &self.ledger
    }

    /// Appends the canonical encoding of ledger + pending intents to `out`,
    /// showing it to `piece` after every payment and intent.
    fn encode_state(&self, out: &mut Vec<u8>, mut piece: impl FnMut(&mut Vec<u8>)) {
        self.ledger.encode(out, &mut piece);
        out.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for (intent, step) in &self.pending {
            out.extend_from_slice(&intent.to_le_bytes());
            step.encode(out);
            piece(out);
        }
    }

    /// Canonical digest over ledger + pending intents: byte-identical
    /// across a crash/recover cycle iff the recovered state is. The double
    /// SHA-256 of the snapshot payload, hashed as it is produced through a
    /// few KiB rather than materialised.
    pub fn digest(&self) -> Hash256 {
        const DRAIN_AT: usize = 4096;
        let mut hasher = Sha256::new();
        let mut buffer = Vec::with_capacity(2 * DRAIN_AT);
        self.encode_state(&mut buffer, |buffer| {
            if buffer.len() >= DRAIN_AT {
                hasher.update(buffer);
                buffer.clear();
            }
        });
        hasher.update(&buffer);
        Hash256(sha256(&hasher.finalize()))
    }

    /// Checkpoints the current state and truncates the log: the snapshot
    /// slot is replaced atomically and durably, and only then is the WAL
    /// cut to zero bytes, so future recoveries read one snapshot plus the
    /// records journaled after this point. A crash before the replace
    /// leaves the old slot and the whole tail; between the two steps, the
    /// new slot and a tail it fully covers (skipped on replay); after
    /// both, the new slot and an empty log.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Store`] when the snapshot write fails (both media
    /// are untouched) or the truncation fails (the log stays, covered).
    pub fn checkpoint(&mut self) -> Result<(), RecoveryError> {
        // The snapshot payload, reserved up front.
        let ledger_bytes = 1 + 4 + self.ledger.payments.len() * PaymentLedger::PAYMENT_BYTES + 8;
        let pending_bytes = 4 + self.pending.len() * (8 + Step::MAX_ENCODED_BYTES);
        let mut payload = Vec::with_capacity(ledger_bytes + pending_bytes);
        self.encode_state(&mut payload, |_| {});
        self.snapshots.save(self.wal.next_seq(), &payload)?;
        self.wal.reset()?;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Counters for the telemetry layer (recoveries, replays, appends).
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// WAL counters (appends, recovered bytes) for the telemetry layer.
    pub fn wal_stats(&self) -> btcfast_store::WalStats {
        self.wal.stats()
    }

    /// The WAL medium, for crash-differential harnesses that copy media.
    pub fn wal_medium(&self) -> &S {
        self.wal.storage()
    }

    /// The snapshot medium, for crash-differential harnesses.
    pub fn snapshot_medium(&self) -> &S {
        self.snapshots.storage()
    }
}

impl<S: Storage + Clone> RecoveryManager<S> {
    /// A simulated crash and restart: re-opens a manager on (handles to)
    /// this one's media and swaps it in, losing all volatile state. The
    /// restart must be lossless, so the recovered digest must equal the
    /// live one.
    ///
    /// # Errors
    ///
    /// Whatever [`RecoveryManager::open`] returns, and
    /// [`RecoveryError::Diverged`] when the media re-open to another
    /// digest; either way `self` is left untouched.
    pub fn restart(&mut self) -> Result<RecoveryReport, RecoveryError> {
        let (restored, report) =
            RecoveryManager::open(self.wal_medium().clone(), self.snapshot_medium().clone())?;
        if restored.digest() != self.digest() {
            return Err(RecoveryError::Diverged);
        }
        *self = restored;
        Ok(report)
    }
}

fn decode_snapshot_state(
    bytes: &[u8],
) -> Result<(PaymentLedger, BTreeMap<u64, Step>), RecoveryError> {
    let mut bytes = bytes;
    let ledger = PaymentLedger::decode(&mut bytes)?;
    let pending = take_map(&mut bytes, 8 + Step::MIN_ENCODED_BYTES, Step::decode)?;
    if !bytes.is_empty() {
        return Err(RecoveryError::Malformed("trailing snapshot bytes".into()));
    }
    Ok((ledger, pending))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_store::MemStorage;

    fn txid(n: u8) -> Hash256 {
        Hash256([n; 32])
    }

    /// Drives one full protocol flow through a manager: returns the media.
    fn journal_flow(crash_after: Option<usize>) -> (MemStorage, MemStorage) {
        let wal_medium = MemStorage::new();
        let snap_medium = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal_medium.clone(), snap_medium.clone()).unwrap();
        let mut ops = 0usize;
        let mut op = |mgr: &mut RecoveryManager<MemStorage>, step: Step, outcome: Outcome| {
            if crash_after.is_some_and(|n| ops >= n) {
                return;
            }
            let id = mgr.begin(step).unwrap();
            ops += 1;
            if crash_after.is_some_and(|n| ops >= n) {
                return; // crashed between Begin and Done
            }
            mgr.complete(id, outcome).unwrap();
        };
        op(
            &mut mgr,
            Step::EscrowOpen {
                deposit_units: 5_000,
                psc_nonce: 0,
            },
            Outcome::Applied,
        );
        op(
            &mut mgr,
            Step::OpenPayment {
                txid: txid(1),
                amount_sats: 1_000_000,
                collateral: 1_200,
                psc_nonce: 1,
            },
            Outcome::PaymentRegistered { payment_id: 7 },
        );
        op(
            &mut mgr,
            Step::OfferSend {
                payment_id: 7,
                txid: txid(1),
            },
            Outcome::Applied,
        );
        op(
            &mut mgr,
            Step::AcceptanceSend {
                payment_id: 7,
                accepted: true,
            },
            Outcome::Applied,
        );
        op(
            &mut mgr,
            Step::Broadcast {
                payment_id: 7,
                txid: txid(1),
            },
            Outcome::Applied,
        );
        op(
            &mut mgr,
            Step::DisputeOpen {
                payment_id: 7,
                psc_nonce: 0,
            },
            Outcome::Applied,
        );
        op(
            &mut mgr,
            Step::Verdict {
                payment_id: 7,
                merchant_wins: true,
            },
            Outcome::Applied,
        );
        (wal_medium, snap_medium)
    }

    #[test]
    fn uninterrupted_flow_builds_the_expected_ledger() {
        let (wal, snap) = journal_flow(None);
        let (mgr, report) = RecoveryManager::open(wal, snap).unwrap();
        assert_eq!(report.pending_resumed, 0);
        assert_eq!(report.replayed_records, 14);
        let ledger = mgr.ledger();
        assert!(ledger.escrow_opened);
        let p = &ledger.payments[&7];
        assert!(p.offered && p.accepted && p.broadcast && p.disputed && p.judged);
        assert_eq!(p.merchant_wins, Some(true));
        assert_eq!(ledger.value_accepted_sats, 1_000_000);
    }

    #[test]
    fn crash_between_begin_and_done_resumes_the_intent() {
        // Crash right after journaling the OfferSend intent (op 3).
        let (wal, snap) = journal_flow(Some(3));
        let (mgr, report) = RecoveryManager::open(wal, snap).unwrap();
        assert_eq!(report.pending_resumed, 1);
        let pending: Vec<_> = mgr.pending().collect();
        assert!(matches!(
            pending[0].1,
            Step::OfferSend { payment_id: 7, .. }
        ));
        // Ledger reflects everything completed before the crash.
        assert!(mgr.ledger().escrow_opened);
        assert!(mgr.ledger().payments.contains_key(&7));
        assert!(!mgr.ledger().payments[&7].offered);
    }

    #[test]
    fn the_streamed_digest_is_the_double_hash_of_the_snapshot_payload() {
        // Sizes on both sides of the drain threshold, with intents left
        // pending so the second half of the encoding is streamed too.
        for payments in [0u64, 1, 81, 82, 500] {
            let (mut mgr, _) = RecoveryManager::open(MemStorage::new(), MemStorage::new()).unwrap();
            for n in 0..payments {
                let step = Step::OpenPayment {
                    txid: txid(n as u8),
                    amount_sats: 1_000 + n,
                    collateral: 1_200,
                    psc_nonce: n,
                };
                let id = mgr.begin(step).unwrap();
                if n % 3 != 0 {
                    let outcome = Outcome::PaymentRegistered { payment_id: n };
                    mgr.complete(id, outcome).unwrap();
                }
            }
            let mut payload = Vec::new();
            mgr.encode_state(&mut payload, |_| {});
            assert_eq!(
                mgr.digest(),
                btcfast_crypto::sha256::sha256d(&payload),
                "{payments} payments, {} bytes",
                payload.len()
            );
        }
    }

    #[test]
    fn recovery_digest_matches_uninterrupted_digest() {
        let (wal, snap) = journal_flow(None);
        let (reference, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        // Crash at EVERY byte offset of the WAL media; recovery must land
        // on a state identical to replaying the repaired clean prefix.
        let media = wal.bytes();
        for cut in 0..=media.len() {
            let torn = MemStorage::from_bytes(media[..cut].to_vec());
            let (recovered, _) = RecoveryManager::open(torn, snap.clone()).unwrap();
            // A full-length cut must equal the uninterrupted run exactly.
            if cut == media.len() {
                assert_eq!(recovered.digest(), reference.digest());
                assert_eq!(recovered.ledger(), reference.ledger());
            }
            // Every cut must be a *prefix* of the uninterrupted history:
            // accepted value can only be <= and payments a subset.
            assert!(
                recovered.ledger().value_accepted_sats <= reference.ledger().value_accepted_sats
            );
        }
    }

    #[test]
    fn restart_keeps_the_digest_or_is_a_typed_divergence() {
        use btcfast_store::Storage;

        let (wal, snap) = journal_flow(Some(3));
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap).unwrap();
        let digest = mgr.digest();
        let report = mgr.restart().unwrap();
        assert_eq!(report.pending_resumed, 1);
        assert_eq!(
            mgr.digest(),
            digest,
            "intact media restart to the same state"
        );

        // The log is lost behind the live manager: the media now re-open to
        // an empty ledger, and the manager keeps what it had.
        wal.clone().truncate(0).unwrap();
        assert!(matches!(mgr.restart(), Err(RecoveryError::Diverged)));
        assert_eq!(mgr.digest(), digest);
    }

    #[test]
    fn snapshot_shortens_replay_without_changing_state() {
        let wal = MemStorage::new();
        let snap = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        let id = mgr
            .begin(Step::EscrowOpen {
                deposit_units: 9,
                psc_nonce: 0,
            })
            .unwrap();
        mgr.complete(id, Outcome::Applied).unwrap();
        mgr.checkpoint().unwrap();
        let digest_before = mgr.digest();
        let id = mgr
            .begin(Step::OpenPayment {
                txid: txid(2),
                amount_sats: 42,
                collateral: 1,
                psc_nonce: 1,
            })
            .unwrap();
        mgr.complete(id, Outcome::PaymentRegistered { payment_id: 0 })
            .unwrap();
        let digest_after = mgr.digest();
        assert_ne!(digest_before, digest_after);

        let (restored, report) = RecoveryManager::open(wal, snap).unwrap();
        assert!(report.snapshot_used);
        assert_eq!(report.replayed_records, 2, "only the tail replays");
        assert_eq!(restored.digest(), digest_after);
    }

    /// Journals one registered payment (two records) under `payment_id`.
    fn journal_payment(mgr: &mut RecoveryManager<MemStorage>, payment_id: u64) {
        let id = mgr
            .begin(Step::OpenPayment {
                txid: txid(payment_id as u8),
                amount_sats: 42,
                collateral: 1,
                psc_nonce: payment_id,
            })
            .unwrap();
        mgr.complete(id, Outcome::PaymentRegistered { payment_id })
            .unwrap();
    }

    fn flip_last_byte(medium: &MemStorage) -> MemStorage {
        let mut bytes = medium.bytes();
        *bytes.last_mut().unwrap() ^= 0xFF;
        MemStorage::from_bytes(bytes)
    }

    #[test]
    fn checkpoint_truncates_the_log_and_sequence_numbers_continue() {
        let wal = MemStorage::new();
        let snap = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        journal_payment(&mut mgr, 1);
        mgr.checkpoint().unwrap();
        assert!(wal.bytes().is_empty(), "a checkpointed log is byte-empty");
        assert_eq!(mgr.wal_stats().medium_bytes, 0);
        let digest = mgr.digest();

        // Snapshot alone recovers everything; the next record continues
        // the sequence instead of restarting below the snapshot.
        let (mut restored, report) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        assert!(report.snapshot_used);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(restored.digest(), digest);
        journal_payment(&mut restored, 2);
        let digest = restored.digest();
        let (restored, report) = RecoveryManager::open(wal, snap).unwrap();
        assert_eq!(report.replayed_records, 2);
        assert_eq!(restored.digest(), digest);
        assert!(restored.ledger().payments.contains_key(&2));
    }

    #[test]
    fn every_checkpoint_crash_point_recovers_the_same_state() {
        let wal = MemStorage::new();
        let snap = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        journal_payment(&mut mgr, 1);
        mgr.checkpoint().unwrap();
        journal_payment(&mut mgr, 2);
        let (wal_before, snap_before) = (wal.bytes(), snap.bytes());
        mgr.checkpoint().unwrap();
        let (wal_after, snap_after) = (wal.bytes(), snap.bytes());
        let digest = mgr.digest();
        for (crash_point, wal, snap, replayed) in [
            ("before replace", &wal_before, &snap_before, 2),
            (
                "after replace, before truncate",
                &wal_before,
                &snap_after,
                0,
            ),
            ("after truncate", &wal_after, &snap_after, 0),
        ] {
            let (restored, report) = RecoveryManager::open(
                MemStorage::from_bytes(wal.clone()),
                MemStorage::from_bytes(snap.clone()),
            )
            .unwrap();
            assert_eq!(restored.digest(), digest, "{crash_point}");
            assert_eq!(report.replayed_records, replayed, "{crash_point}");
        }
    }

    #[test]
    fn records_journaled_after_a_repair_below_the_snapshot_survive() {
        // The slot was replaced but the log not yet truncated, and a bit
        // rots in an early, covered frame: the repair cuts the log below
        // the snapshot's sequence number.
        let wal = MemStorage::new();
        let snap = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        journal_payment(&mut mgr, 1);
        journal_payment(&mut mgr, 2);
        let mut covered_log = wal.bytes();
        mgr.checkpoint().unwrap();
        covered_log[20] ^= 0x01;
        let wal = MemStorage::from_bytes(covered_log);

        let (mut mgr, report) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        assert!(report.snapshot_used && report.truncated_bytes > 0);
        journal_payment(&mut mgr, 3);
        let digest = mgr.digest();
        let (restored, _) = RecoveryManager::open(wal, snap).unwrap();
        assert!(
            restored.ledger().payments.contains_key(&3),
            "a payment journaled after the repair must not be skipped as covered"
        );
        assert_eq!(restored.digest(), digest);
    }

    #[test]
    fn corrupt_snapshot_replays_a_whole_log_or_is_a_typed_error() {
        let wal = MemStorage::new();
        let snap = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        journal_payment(&mut mgr, 1);
        let whole_log = wal.bytes();
        mgr.checkpoint().unwrap();
        let digest = mgr.digest();
        let damaged = flip_last_byte(&snap);

        // The log still reaches back to sequence 0: full replay.
        let (restored, report) =
            RecoveryManager::open(MemStorage::from_bytes(whole_log), damaged.clone()).unwrap();
        assert!(!report.snapshot_used);
        assert_eq!(report.replayed_records, 2, "full WAL replay");
        assert_eq!(restored.digest(), digest);

        // The log was truncated: the slot was the only copy of the
        // history, so an empty ledger would be a lie. Typed error.
        assert!(matches!(
            RecoveryManager::open(wal.clone(), damaged.clone()),
            Err(RecoveryError::HistoryLost {
                log_starts_at: None
            })
        ));
        journal_payment(&mut mgr, 2);
        assert!(matches!(
            RecoveryManager::open(wal.clone(), damaged),
            Err(RecoveryError::HistoryLost {
                log_starts_at: Some(2)
            })
        ));
        // So is a slot that went missing altogether under a tail.
        assert!(matches!(
            RecoveryManager::open(wal, MemStorage::new()),
            Err(RecoveryError::HistoryLost { .. })
        ));

        // Two byte-empty media are a fresh ledger, not an error.
        let (fresh, report) = RecoveryManager::open(MemStorage::new(), MemStorage::new()).unwrap();
        assert!(!report.snapshot_used);
        assert_eq!(fresh.ledger(), &PaymentLedger::default());
    }

    #[test]
    fn begin_is_synced_done_rides_and_checkpoint_syncs_the_slot() {
        let wal = MemStorage::new();
        let snap = MemStorage::new();
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        let id = mgr
            .begin(Step::EscrowOpen {
                deposit_units: 9,
                psc_nonce: 0,
            })
            .unwrap();
        assert_eq!((wal.syncs(), mgr.wal_stats().syncs), (1, 1));
        mgr.complete(id, Outcome::Applied).unwrap();
        assert_eq!(wal.syncs(), 1, "a Done record waits for the next sync");
        mgr.checkpoint().unwrap();
        assert_eq!(snap.syncs(), 1);
    }

    /// The decoder the bulk-building one replaced: one insert per entry.
    fn decode_ledger_by_inserts(mut bytes: &[u8]) -> Result<PaymentLedger, RecoveryError> {
        let bytes = &mut bytes;
        let escrow_opened = take_bool(bytes)?;
        let count = u32::from_le_bytes(take(bytes, 4)?.try_into().unwrap());
        let mut payments = BTreeMap::new();
        for _ in 0..count {
            let id = take_u64(bytes)?;
            payments.insert(id, PaymentState::decode(bytes)?);
        }
        Ok(PaymentLedger {
            escrow_opened,
            payments,
            value_accepted_sats: take_u64(bytes)?,
        })
    }

    #[test]
    fn bulk_built_ledger_decode_equals_sequential_inserts() {
        // Hostile snapshots: ids unsorted and repeated, states differing
        // per entry so "which duplicate won" shows; also truncated input.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let count = next() % 40;
            let mut bytes = vec![1u8];
            bytes.extend_from_slice(&(count as u32).to_le_bytes());
            for entry in 0..count {
                let id = if case % 2 == 0 { entry } else { next() % 8 };
                bytes.extend_from_slice(&id.to_le_bytes());
                PaymentState {
                    txid: txid(entry as u8),
                    amount_sats: next(),
                    offered: next() % 2 == 0,
                    ..PaymentState::default()
                }
                .encode(&mut bytes);
            }
            bytes.extend_from_slice(&next().to_le_bytes());
            if case % 5 == 4 {
                bytes.truncate(bytes.len().saturating_sub((next() % 30) as usize + 1));
            }
            let bulk = PaymentLedger::decode(&mut &bytes[..]);
            let inserts = decode_ledger_by_inserts(&bytes);
            match (bulk, inserts) {
                (Ok(bulk), Ok(inserts)) => assert_eq!(bulk, inserts, "case {case}"),
                (Err(_), Err(_)) => {}
                (bulk, inserts) => panic!("case {case}: {bulk:?} vs {inserts:?}"),
            }
        }
    }

    #[test]
    fn a_crc_valid_record_that_does_not_decode_is_a_typed_error() {
        let wal = MemStorage::new();
        let (mut log, _) = Wal::open(wal.clone()).unwrap();
        log.append(&[0xEE, 1, 2, 3]).unwrap();
        assert!(matches!(
            RecoveryManager::open(wal, MemStorage::new()),
            Err(RecoveryError::Malformed(_))
        ));
    }

    #[test]
    fn completing_an_unknown_intent_is_a_typed_error() {
        let (mut mgr, _) = RecoveryManager::open(MemStorage::new(), MemStorage::new()).unwrap();
        assert!(matches!(
            mgr.complete(99, Outcome::Applied),
            Err(RecoveryError::UnknownIntent { intent: 99 })
        ));
    }

    #[test]
    fn steps_expose_their_exactly_once_tokens() {
        let step = Step::DisputeOpen {
            payment_id: 3,
            psc_nonce: 17,
        };
        assert_eq!(step.payment_id(), Some(3));
        assert_eq!(step.psc_nonce(), Some(17));
        let step = Step::OfferSend {
            payment_id: 3,
            txid: txid(1),
        };
        assert_eq!(step.psc_nonce(), None);
    }

    #[test]
    fn rejected_acceptance_still_marks_the_offer_delivered() {
        let (mut mgr, _) = RecoveryManager::open(MemStorage::new(), MemStorage::new()).unwrap();
        let id = mgr
            .begin(Step::OpenPayment {
                txid: txid(3),
                amount_sats: 10,
                collateral: 1,
                psc_nonce: 0,
            })
            .unwrap();
        mgr.complete(id, Outcome::PaymentRegistered { payment_id: 1 })
            .unwrap();
        let id = mgr
            .begin(Step::AcceptanceSend {
                payment_id: 1,
                accepted: false,
            })
            .unwrap();
        mgr.complete(id, Outcome::Rejected).unwrap();
        let p = &mgr.ledger().payments[&1];
        assert!(p.offered && !p.accepted);
        assert_eq!(mgr.ledger().value_accepted_sats, 0);
    }
}
