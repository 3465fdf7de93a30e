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
//! Everything here is deterministic: journal records and the snapshot
//! payload are encoded with the workspace codec
//! ([`btcfast_pscsim::codec`]), whose encoding is canonical, so the
//! same step sequence produces byte-identical media, and
//! [`RecoveryManager::digest`] over the re-hydrated state is
//! byte-identical to the digest of the uninterrupted run. The audit
//! crate's `store` engine checks exactly that at every crash offset.
//! The ledger's payments are held as the payload's entry region itself,
//! so digest, checkpoint and re-open are each one pass over those bytes.

use btcfast_crypto::sha256::{sha256, Sha256};
use btcfast_crypto::Hash256;
use btcfast_pscsim::codec::{tagged_codec, take, CodecError, Decode, Encode};
use btcfast_store::snapshot::HEADER_BYTES;
use btcfast_store::{SnapshotStore, Storage, StoreError, Wal};
use std::collections::btree_map::Entry;
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
    /// The longest encoding of any step (`OpenPayment`): sizes a buffer.
    const MAX_ENCODED_BYTES: usize = 1 + 32 + 8 + 16 + 8;

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

/// Bytes per ledger entry: `id ‖ txid ‖ amount ‖ flags ‖ verdict`.
const ENTRY_BYTES: usize = 8 + 32 + 8 + 1 + 1;

/// One ledger entry, as the snapshot slot holds it.
type LedgerEntry = [u8; ENTRY_BYTES];

/// Byte offsets inside a [`LedgerEntry`] (the id is at 0).
const TXID: usize = 8;
const AMOUNT: usize = 40;
const FLAGS: usize = 48;
const VERDICT: usize = 49;

/// Flag bits of an entry, one per `PaymentState` flag; bits 6-7 are unused.
const OFFERED: u8 = 1;
const ACCEPTED: u8 = 2;
const BROADCAST: u8 = 4;
const DISPUTED: u8 = 8;
const EVIDENCE_SUBMITTED: u8 = 16;
const JUDGED: u8 = 32;
const KNOWN_FLAGS: u8 = 0x3F;

fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

fn entry_id(entry: &LedgerEntry) -> u64 {
    le_u64(entry)
}

impl PaymentState {
    /// The state an entry holds. Every held verdict byte is 0, 1 or 2.
    fn from_entry(entry: &LedgerEntry) -> PaymentState {
        let flag = |bit: u8| entry[FLAGS] & bit != 0;
        let mut txid = [0; 32];
        txid.copy_from_slice(&entry[TXID..AMOUNT]);
        PaymentState {
            txid: Hash256(txid),
            amount_sats: le_u64(&entry[AMOUNT..]),
            offered: flag(OFFERED),
            accepted: flag(ACCEPTED),
            broadcast: flag(BROADCAST),
            disputed: flag(DISPUTED),
            evidence_submitted: flag(EVIDENCE_SUBMITTED),
            judged: flag(JUDGED),
            merchant_wins: match entry[VERDICT] {
                0 => None,
                1 => Some(false),
                _ => Some(true),
            },
        }
    }
}

/// Registered payments by escrow payment id, held as the snapshot slot
/// holds them: `ENTRY_BYTES`-byte entries in ascending id order. Re-open
/// adopts a slot's entry region as a fixed region, and payments registered
/// after it go to a growable tail of their own, so the adopted buffer is
/// never copied to make room. The contract assigns ids in ascending order,
/// so registering a payment is a push onto the tail; digest and checkpoint
/// read the two regions in order, as one entry sequence.
#[derive(Clone, Default, Eq)]
pub struct Payments {
    /// The adopted region is `slot[start..]`: the slot keeps its header
    /// and head in front rather than moving every entry to drop them.
    slot: Vec<u8>,
    start: usize,
    /// Entries whose ids are above every id of the adopted region.
    tail: Vec<u8>,
}

impl PartialEq for Payments {
    fn eq(&self, other: &Payments) -> bool {
        self.entries().eq(other.entries())
    }
}

impl fmt::Debug for Payments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Payments {
    /// The number of payments.
    pub fn len(&self) -> usize {
        self.regions().iter().map(|region| region.len()).sum()
    }

    /// Whether no payment is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payment with id `id`, if registered.
    pub fn get(&self, id: &u64) -> Option<PaymentState> {
        let (region, Ok(at)) = self.position(*id) else {
            return None;
        };
        Some(PaymentState::from_entry(&self.regions()[region][at]))
    }

    /// Whether a payment with id `id` is registered.
    pub fn contains_key(&self, id: &u64) -> bool {
        self.position(*id).1.is_ok()
    }

    /// Every payment, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, PaymentState)> + '_ {
        self.entries()
            .map(|entry| (entry_id(entry), PaymentState::from_entry(entry)))
    }

    /// The entries as the snapshot payload holds them: the adopted region,
    /// then the tail.
    fn bytes(&self) -> [&[u8]; 2] {
        [&self.slot[self.start..], &self.tail]
    }

    fn regions(&self) -> [&[LedgerEntry]; 2] {
        self.bytes().map(|bytes| bytes.as_chunks().0)
    }

    fn entries(&self) -> impl DoubleEndedIterator<Item = &LedgerEntry> + '_ {
        self.regions().into_iter().flatten()
    }

    /// The region (0 adopted, 1 tail) `id` belongs in, and where in it
    /// `id` is or would go. The newest payment — the one the next step of
    /// a lifecycle names — is checked before the binary search.
    fn position(&self, id: u64) -> (usize, Result<usize, usize>) {
        let [adopted, tail] = self.regions();
        let region = usize::from(adopted.last().is_none_or(|last| entry_id(last) < id));
        let entries = [adopted, tail][region];
        let at = match entries.last() {
            Some(last) if entry_id(last) == id => Ok(entries.len() - 1),
            _ => entries.binary_search_by_key(&id, entry_id),
        };
        (region, at)
    }

    /// The bytes of region `region` (0 adopted, 1 tail), to write.
    fn region_mut(&mut self, region: usize) -> &mut [u8] {
        match region {
            0 => &mut self.slot[self.start..],
            _ => &mut self.tail,
        }
    }

    /// Sets `flags` on payment `id` and returns its entry, if registered.
    fn mark(&mut self, id: &u64, flags: u8) -> Option<&mut LedgerEntry> {
        let (region, Ok(at)) = self.position(*id) else {
            return None;
        };
        let entry = &mut self.region_mut(region).as_chunks_mut().0[at];
        entry[FLAGS] |= flags;
        Some(entry)
    }

    /// Registers a fresh payment under `id`, replacing any payment already
    /// there. An id above every registered one — what the contract assigns
    /// — is a push onto the tail; any other id is a binary-search insert
    /// into the region it belongs in, correct but O(n).
    fn insert(&mut self, id: u64, txid: &Hash256, amount_sats: u64) {
        let mut entry = [0; ENTRY_BYTES];
        entry[..TXID].copy_from_slice(&id.to_le_bytes());
        entry[TXID..AMOUNT].copy_from_slice(txid.as_bytes());
        entry[AMOUNT..FLAGS].copy_from_slice(&amount_sats.to_le_bytes());
        let newest = self.entries().next_back().map(entry_id);
        if newest.is_none_or(|newest| newest < id) {
            self.tail.extend_from_slice(&entry);
            return;
        }
        match self.position(id) {
            (region, Ok(at)) => self.region_mut(region).as_chunks_mut().0[at] = entry,
            (0, Err(at)) => {
                let at = self.start + at * ENTRY_BYTES;
                self.slot.splice(at..at, entry);
            }
            (_, Err(at)) => {
                let at = at * ENTRY_BYTES;
                self.tail.splice(at..at, entry);
            }
        }
    }

    /// Adopts `buffer[start..]`, a whole number of entries read from a
    /// slot, exactly as decoding each entry would read it: a verdict byte
    /// outside {0, 1, 2} is an error, stray flag bits 6-7 are dropped, and
    /// unsorted or repeated ids are sorted as sequential inserts would
    /// leave them — last entry wins.
    fn adopt(mut buffer: Vec<u8>, start: usize) -> Result<Payments, CodecError> {
        let mut ascending = true;
        let mut previous = None;
        for entry in buffer[start..].as_chunks_mut::<ENTRY_BYTES>().0 {
            if entry[VERDICT] > 2 {
                return Err(CodecError::BadTag(entry[VERDICT]));
            }
            entry[FLAGS] &= KNOWN_FLAGS;
            let id = entry_id(entry);
            ascending &= previous.is_none_or(|previous| previous < id);
            previous = Some(id);
        }
        if !ascending {
            let mut entries = buffer[start..].as_chunks::<ENTRY_BYTES>().0.to_vec();
            entries.reverse();
            entries.sort_by_key(entry_id);
            entries.dedup_by_key(|entry| entry_id(entry));
            buffer.truncate(start);
            buffer.extend_from_slice(entries.as_flattened());
        }
        Ok(Payments {
            slot: buffer,
            start,
            tail: Vec::new(),
        })
    }
}

/// The durable view of a participant's protocol state, rebuilt
/// deterministically from the journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaymentLedger {
    /// Has the escrow deposit landed?
    pub escrow_opened: bool,
    /// Registered payments by escrow payment id.
    pub payments: Payments,
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
    /// The durable medium failed.
    Store(StoreError),
    /// A CRC-valid record failed to decode — an encoding-version bug, not
    /// media damage.
    Malformed(CodecError),
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
            RecoveryError::Malformed(e) => write!(f, "malformed journal record: {e}"),
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

// --- Canonical journal encoding: the workspace codec's tables. ----------

tagged_codec! {
    Step {
        1 => EscrowOpen { deposit_units, psc_nonce },
        2 => OpenPayment { txid, amount_sats, collateral, psc_nonce },
        3 => OfferSend { payment_id, txid },
        4 => AcceptanceSend { payment_id, accepted },
        5 => Broadcast { payment_id, txid },
        6 => DisputeOpen { payment_id, psc_nonce },
        7 => EvidenceSubmit { payment_id, txid, psc_nonce },
        8 => JudgeCall { payment_id, psc_nonce },
        9 => Verdict { payment_id, merchant_wins },
    }
}

tagged_codec! {
    Outcome {
        1 => Applied,
        2 => PaymentRegistered { payment_id },
        3 => Rejected,
        4 => Abandoned,
    }
}

/// One WAL record's payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// An intent: `step` is about to run. The record's WAL sequence number
    /// is the intent id.
    Begin {
        /// The step journaled before it runs.
        step: Step,
    },
    /// Intent `intent` resolved.
    Done {
        /// The intent id (its `Begin` record's sequence number).
        intent: u64,
        /// How it resolved.
        outcome: Outcome,
    },
}

tagged_codec! {
    JournalRecord {
        1 => Begin { step },
        2 => Done { intent, outcome },
    }
}

impl PaymentLedger {
    /// Bytes of the snapshot payload ahead of the entries.
    const HEAD_BYTES: usize = 1 + 4;

    /// The snapshot payload's head: `escrow_opened ‖ count`.
    fn head(&self) -> [u8; Self::HEAD_BYTES] {
        let mut head = [u8::from(self.escrow_opened); Self::HEAD_BYTES];
        head[1..].copy_from_slice(&(self.payments.len() as u32).to_le_bytes());
        head
    }

    fn apply(&mut self, step: &Step, outcome: Outcome) {
        if matches!(outcome, Outcome::Rejected | Outcome::Abandoned) {
            // The effect never landed; the ledger records nothing. (A
            // merchant refusal still marks the offer as delivered below.)
            if let Step::AcceptanceSend { payment_id, .. } = step {
                self.payments.mark(payment_id, OFFERED);
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
            ) => self.payments.insert(payment_id, txid, *amount_sats),
            // An Applied without the contract-assigned id cannot place the
            // payment in the ledger; nothing to record.
            (Step::OpenPayment { .. }, _) => {}
            (Step::OfferSend { payment_id, .. }, _) => {
                self.payments.mark(payment_id, OFFERED);
            }
            (
                Step::AcceptanceSend {
                    payment_id,
                    accepted,
                },
                _,
            ) => {
                if let Some(entry) = self.payments.mark(payment_id, OFFERED) {
                    if *accepted && entry[FLAGS] & ACCEPTED == 0 {
                        entry[FLAGS] |= ACCEPTED;
                        self.value_accepted_sats += le_u64(&entry[AMOUNT..]);
                    }
                }
            }
            (Step::Broadcast { payment_id, .. }, _) => {
                self.payments.mark(payment_id, BROADCAST);
            }
            (Step::DisputeOpen { payment_id, .. }, _) => {
                self.payments.mark(payment_id, DISPUTED);
            }
            (Step::EvidenceSubmit { payment_id, .. }, _) => {
                self.payments.mark(payment_id, EVIDENCE_SUBMITTED);
            }
            (Step::JudgeCall { payment_id, .. }, _) => {
                self.payments.mark(payment_id, JUDGED);
            }
            (
                Step::Verdict {
                    payment_id,
                    merchant_wins,
                },
                _,
            ) => {
                if let Some(entry) = self.payments.mark(payment_id, JUDGED) {
                    entry[VERDICT] = 1 + u8::from(*merchant_wins);
                }
            }
        }
    }

    /// Re-hydrates the ledger and the pending intents from a validated
    /// slot, adopting its buffer as the ledger's entries. A state the
    /// struct decoding would have refused is refused here too.
    fn adopt_slot(mut slot: Vec<u8>) -> Result<(PaymentLedger, Vec<(u64, Step)>), CodecError> {
        let mut input = &slot[HEADER_BYTES..];
        let escrow_opened = bool::decode_from(&mut input)?;
        let count = u32::decode_from(&mut input)? as usize;
        let entry_bytes = take(&mut input, count.saturating_mul(ENTRY_BYTES))?.len();
        let value_accepted_sats = u64::decode_from(&mut input)?;
        let pending = Vec::<(u64, Step)>::decode(input)?;
        let start = HEADER_BYTES + Self::HEAD_BYTES;
        slot.truncate(start + entry_bytes);
        let ledger = PaymentLedger {
            escrow_opened,
            payments: Payments::adopt(slot, start)?,
            value_accepted_sats,
        };
        Ok((ledger, pending))
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
            // The snapshot payload: the ledger, then the pending intents.
            let wal_seq = snap.wal_seq;
            if let Ok((l, p)) = PaymentLedger::adopt_slot(snap.into_slot()) {
                ledger = l;
                pending = BTreeMap::from_iter(p);
                replay_from = wal_seq;
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
            return Err(RecoveryError::Malformed(e));
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
        self.record.clear();
        JournalRecord::Begin { step: step.clone() }.encode_to(&mut self.record);
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
        let Entry::Occupied(pending) = self.pending.entry(intent) else {
            return Err(RecoveryError::UnknownIntent { intent });
        };
        self.record.clear();
        JournalRecord::Done { intent, outcome }.encode_to(&mut self.record);
        self.wal.append(&self.record)?;
        self.ledger.apply(&pending.remove(), outcome);
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

    /// Canonical digest over ledger + pending intents: byte-identical
    /// across a crash/recover cycle iff the recovered state is. The double
    /// SHA-256 of the snapshot payload, hashed in one pass over its head,
    /// the entries where they lie, and its tail.
    pub fn digest(&self) -> Hash256 {
        let mut tail = Vec::new();
        encode_tail(&self.ledger, &self.pending, &mut tail);
        let mut hasher = Sha256::new();
        hasher.update(&self.ledger.head());
        for entries in self.ledger.payments.bytes() {
            hasher.update(entries);
        }
        hasher.update(&tail);
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
        let (ledger, pending) = (&self.ledger, &self.pending);
        self.snapshots.save(self.wal.next_seq(), |out| {
            encode_state(ledger, pending, out)
        })?;
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

/// Appends the snapshot payload — head, entries, tail — to `out`, reserved
/// up front.
fn encode_state(ledger: &PaymentLedger, pending: &BTreeMap<u64, Step>, out: &mut Vec<u8>) {
    let [adopted, registered] = ledger.payments.bytes();
    let tail_bytes = 8 + 4 + pending.len() * (8 + Step::MAX_ENCODED_BYTES);
    out.reserve(PaymentLedger::HEAD_BYTES + adopted.len() + registered.len() + tail_bytes);
    out.extend_from_slice(&ledger.head());
    out.extend_from_slice(adopted);
    out.extend_from_slice(registered);
    encode_tail(ledger, pending, out);
}

/// Appends the snapshot payload past the entries to `out`: the accepted
/// value, then the pending intents.
fn encode_tail(ledger: &PaymentLedger, pending: &BTreeMap<u64, Step>, out: &mut Vec<u8>) {
    ledger.value_accepted_sats.encode_to(out);
    (pending.len() as u32).encode_to(out);
    for (intent, step) in pending {
        intent.encode_to(out);
        step.encode_to(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_store::snapshot::MAX_STATE;
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
        let p = ledger.payments.get(&7).unwrap();
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
        assert!(!mgr.ledger().payments.get(&7).unwrap().offered);
    }

    #[test]
    fn the_streamed_digest_is_the_double_hash_of_the_snapshot_payload() {
        fn register(mgr: &mut RecoveryManager<MemStorage>, id: u64, complete: bool) {
            let step = Step::OpenPayment {
                txid: txid(id as u8),
                amount_sats: 1_000 + id,
                collateral: 1_200,
                psc_nonce: id,
            };
            let intent = mgr.begin(step).unwrap();
            if complete {
                let outcome = Outcome::PaymentRegistered { payment_id: id };
                mgr.complete(intent, outcome).unwrap();
            }
        }
        /// Checkpoints, then holds the slot's payload to the struct
        /// encoding of `entries` and the digest to its double hash.
        fn check(mgr: &mut RecoveryManager<MemStorage>, entries: &[(u64, PaymentState)]) {
            mgr.checkpoint().unwrap();
            let slot = SnapshotStore::new(mgr.snapshot_medium().clone()).load();
            let payload = slot.unwrap().unwrap().state().to_vec();
            let pending = BTreeMap::from_iter(mgr.pending().map(|(i, s)| (i, s.clone())));
            let ledger = mgr.ledger();
            let (escrow, value) = (ledger.escrow_opened, ledger.value_accepted_sats);
            assert_eq!(ledger_entries(ledger), entries);
            assert_eq!(
                payload,
                struct_encode_state(escrow, entries, value, &pending)
            );
            assert_eq!(
                mgr.digest(),
                btcfast_crypto::sha256::sha256d(&payload),
                "{} payments, {} bytes",
                entries.len(),
                payload.len()
            );
        }
        // Sizes on both sides of the drain threshold, with intents left
        // pending so the second half of the encoding is streamed too.
        for payments in [0u64, 1, 81, 82, 500] {
            let (mut mgr, _) = RecoveryManager::open(MemStorage::new(), MemStorage::new()).unwrap();
            let mut model = BTreeMap::new();
            for n in 0..payments {
                register(&mut mgr, n, n % 3 != 0);
                if n % 3 != 0 {
                    let state = PaymentState {
                        txid: txid(n as u8),
                        amount_sats: 1_000 + n,
                        ..PaymentState::default()
                    };
                    model.insert(n, state);
                }
            }
            check(&mut mgr, &Vec::from_iter(model.clone()));
            // Re-open adopts the slot as the ledger's fixed region: ascending
            // ids go to the tail behind it, and id 3 (never registered: its
            // intent is pending) lands inside the adopted region.
            let media = (mgr.wal_medium().clone(), mgr.snapshot_medium().clone());
            let (mut mgr, _) = RecoveryManager::open(media.0, media.1).unwrap();
            for id in (payments + 10..payments + 15).chain([3]) {
                register(&mut mgr, id, true);
                let state = PaymentState {
                    txid: txid(id as u8),
                    amount_sats: 1_000 + id,
                    ..PaymentState::default()
                };
                model.insert(id, state);
            }
            check(&mut mgr, &Vec::from_iter(model));
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
        journal_payment(&mut mgr, 2);
        let tail_log = wal.bytes();
        // A slot whose CRC holds but whose state does not decode: the one
        // payment's verdict byte reads 3.
        let saved = SnapshotStore::new(snap.clone()).load().unwrap().unwrap();
        let mut state = saved.state().to_vec();
        state[5 + 49] = 3;
        let undecodable = MemStorage::new();
        SnapshotStore::new(undecodable.clone())
            .save(saved.wal_seq, |out| out.extend_from_slice(&state))
            .unwrap();

        for (slot, damaged) in [
            ("damaged", flip_last_byte(&snap)),
            ("undecodable", undecodable),
        ] {
            let open = |log: &[u8]| {
                RecoveryManager::open(MemStorage::from_bytes(log.to_vec()), damaged.clone())
            };
            // The log still reaches back to sequence 0: full replay.
            let (restored, report) = open(&whole_log).unwrap();
            assert!(!report.snapshot_used, "{slot}");
            assert_eq!(report.replayed_records, 2, "{slot}: full WAL replay");
            assert_eq!(restored.digest(), digest, "{slot}");

            // The log was truncated: the slot was the only copy of the
            // history, so an empty ledger would be a lie. Typed error.
            assert!(
                matches!(
                    open(&[]),
                    Err(RecoveryError::HistoryLost {
                        log_starts_at: None
                    })
                ),
                "{slot}"
            );
            assert!(
                matches!(
                    open(&tail_log),
                    Err(RecoveryError::HistoryLost {
                        log_starts_at: Some(2)
                    })
                ),
                "{slot}"
            );
        }
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

    /// The slot cap is [`MAX_STATE`]: at 50 bytes a payment, a ledger with
    /// nothing pending fits 335 543 of them. One more is a typed error
    /// that leaves both media alone, and journaling goes on.
    #[test]
    fn a_checkpoint_over_the_slot_cap_is_a_typed_error_that_keeps_the_media() {
        let entries = (MAX_STATE - 5 - 8 - 4) / 50;
        assert_eq!(entries, 335_543);
        let mut state = vec![1u8];
        state.extend_from_slice(&(entries as u32).to_le_bytes());
        for id in 0..entries as u64 {
            state.extend_from_slice(&id.to_le_bytes());
            state.extend_from_slice(txid(id as u8).as_bytes());
            state.extend_from_slice(&42u64.to_le_bytes());
            state.extend_from_slice(&[0b111, 0]);
        }
        state.extend_from_slice(&(42 * entries as u64).to_le_bytes());
        state.extend_from_slice(&0u32.to_le_bytes());
        let (wal, snap) = (MemStorage::new(), MemStorage::new());
        SnapshotStore::new(snap.clone())
            .save(0, |out| out.extend_from_slice(&state))
            .unwrap();
        let (mut mgr, report) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        assert!(report.snapshot_used);
        assert_eq!(mgr.ledger().payments.len(), entries);

        journal_payment(&mut mgr, entries as u64);
        let (ledger, digest) = (mgr.ledger().clone(), mgr.digest());
        let (wal_bytes, slot_bytes) = (wal.bytes(), snap.bytes());
        assert!(matches!(
            mgr.checkpoint(),
            Err(RecoveryError::Store(StoreError::RecordTooLarge { len, max: MAX_STATE }))
                if len == MAX_STATE + 1
        ));
        assert!(wal.bytes() == wal_bytes, "the log is not truncated");
        assert!(snap.bytes() == slot_bytes, "the slot is not replaced");
        let (reopened, report) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        assert_eq!(report.replayed_records, 2);
        assert!(reopened.ledger() == &ledger && reopened.digest() == digest);

        journal_payment(&mut mgr, entries as u64 + 1);
        let (reopened, report) = RecoveryManager::open(wal, snap).unwrap();
        assert_eq!(report.replayed_records, 4);
        assert!(reopened.ledger() == mgr.ledger() && reopened.digest() == mgr.digest());
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

    /// A slot state decoded into structs, as `(escrow_opened, payments,
    /// value_accepted_sats, pending)`.
    type StructState = (bool, Vec<(u64, PaymentState)>, u64, Vec<(u64, Step)>);

    /// The struct decoding the byte-held ledger replaced, kept as its
    /// oracle: one `PaymentState` per entry, then a sort only when a
    /// hostile slot's ids are unsorted or repeated (last entry wins).
    fn struct_decode_state(mut state: &[u8]) -> Result<StructState, CodecError> {
        let input = &mut state;
        let escrow_opened = bool::decode_from(input)?;
        let count = u32::decode_from(input)? as usize;
        let entries = take(input, count.saturating_mul(ENTRY_BYTES))?;
        let mut payments = Vec::with_capacity(count);
        for mut entry in entries.chunks(ENTRY_BYTES) {
            let id = u64::decode_from(&mut entry)?;
            payments.push((id, decode_payment_state(&mut entry)?));
        }
        if !payments.is_sorted_by(|(a, _), (b, _)| a < b) {
            payments.reverse();
            payments.sort_by_key(|(id, _)| *id);
            payments.dedup_by_key(|(id, _)| *id);
        }
        let value_accepted_sats = u64::decode_from(input)?;
        let pending = Vec::decode(state)?;
        Ok((escrow_opened, payments, value_accepted_sats, pending))
    }

    /// A ledger entry after its id, decoded field by field.
    fn decode_payment_state(input: &mut &[u8]) -> Result<PaymentState, CodecError> {
        let txid = Decode::decode_from(input)?;
        let amount_sats = Decode::decode_from(input)?;
        let flags = u8::decode_from(input)?;
        let merchant_wins = match u8::decode_from(input)? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            b => return Err(CodecError::BadTag(b)),
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

    /// The struct encoding of a snapshot payload, one entry per payment
    /// written field by field.
    fn struct_encode_state(
        escrow_opened: bool,
        payments: &[(u64, PaymentState)],
        value_accepted_sats: u64,
        pending: &BTreeMap<u64, Step>,
    ) -> Vec<u8> {
        let mut out = vec![u8::from(escrow_opened)];
        (payments.len() as u32).encode_to(&mut out);
        for (id, state) in payments {
            let mut flags = 0u8;
            for (bit, set) in [
                state.offered,
                state.accepted,
                state.broadcast,
                state.disputed,
                state.evidence_submitted,
                state.judged,
            ]
            .into_iter()
            .enumerate()
            {
                if set {
                    flags |= 1 << bit;
                }
            }
            id.encode_to(&mut out);
            state.txid.encode_to(&mut out);
            state.amount_sats.encode_to(&mut out);
            out.push(flags);
            out.push(match state.merchant_wins {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        }
        value_accepted_sats.encode_to(&mut out);
        (pending.len() as u32).encode_to(&mut out);
        for (intent, step) in pending {
            intent.encode_to(&mut out);
            step.encode_to(&mut out);
        }
        out
    }

    fn ledger_entries(ledger: &PaymentLedger) -> Vec<(u64, PaymentState)> {
        ledger.payments.iter().collect()
    }

    /// The decoder the bulk-building one replaced: one map insert per entry,
    /// as `(escrow_opened, payments, value_accepted_sats)`.
    fn decode_ledger_by_inserts(
        mut bytes: &[u8],
    ) -> Result<(bool, BTreeMap<u64, PaymentState>, u64), CodecError> {
        let bytes = &mut bytes;
        let escrow_opened = bool::decode_from(bytes)?;
        let count = u32::decode_from(bytes)?;
        let mut payments = BTreeMap::new();
        for _ in 0..count {
            let id = u64::decode_from(bytes)?;
            payments.insert(id, decode_payment_state(bytes)?);
        }
        Ok((escrow_opened, payments, u64::decode_from(bytes)?))
    }

    #[test]
    fn bulk_built_ledger_decode_equals_sequential_inserts() {
        // Hostile slots, each CRC-valid: ids unsorted and repeated, states
        // differing per entry so "which duplicate won" shows, stray flag
        // bits 6-7, verdict bytes 3 and 0xFF, a bad escrow byte, intents
        // left pending, trailing bytes, and truncated input. Re-open must
        // agree with the struct decode on the slot's fate, the ledger and
        // the digest; the struct decode agrees with one insert per entry.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut adopted = 0;
        for case in 0..240u64 {
            let count = next() % 40;
            let mut bytes = vec![if case % 11 == 10 { 2 } else { 1 }];
            bytes.extend_from_slice(&(count as u32).to_le_bytes());
            for entry in 0..count {
                let id = if case % 2 == 0 { entry } else { next() % 8 };
                bytes.extend_from_slice(&id.to_le_bytes());
                bytes.extend_from_slice(txid(entry as u8).as_bytes());
                bytes.extend_from_slice(&next().to_le_bytes());
                let stray = if case % 3 == 0 { 0xC0 } else { 0 };
                bytes.push(next() as u8 & 0x3F | next() as u8 & stray);
                bytes.push(match (case % 7, entry == count / 2) {
                    (5, true) => 3,
                    (6, true) => 0xFF,
                    _ => (next() % 3) as u8,
                });
            }
            bytes.extend_from_slice(&next().to_le_bytes());
            let pending = if case % 4 == 3 {
                vec![(
                    next() % 100,
                    Step::Verdict {
                        payment_id: 7,
                        merchant_wins: true,
                    },
                )]
            } else {
                Vec::new()
            };
            pending.encode_to(&mut bytes);
            if case % 13 == 12 {
                bytes.push(0);
            }
            if case % 5 == 4 {
                bytes.truncate(bytes.len().saturating_sub((next() % 30) as usize + 1));
            }

            let slot = MemStorage::new();
            SnapshotStore::new(slot.clone())
                .save(0, |out| out.extend_from_slice(&bytes))
                .unwrap();
            let expected = struct_decode_state(&bytes);
            if let Ok((escrow_opened, payments, value_accepted_sats, _)) = &expected {
                let inserts = decode_ledger_by_inserts(&bytes).unwrap();
                assert_eq!(inserts.0, *escrow_opened, "case {case}");
                assert!(inserts.1.into_iter().eq(payments.clone()), "case {case}");
                assert_eq!(inserts.2, *value_accepted_sats, "case {case}");
            }
            match (RecoveryManager::open(MemStorage::new(), slot), expected) {
                (
                    Ok((mgr, report)),
                    Ok((escrow_opened, payments, value_accepted_sats, pending)),
                ) => {
                    assert!(report.snapshot_used, "case {case}");
                    let ledger = mgr.ledger();
                    assert_eq!(ledger.escrow_opened, escrow_opened, "case {case}");
                    assert_eq!(ledger_entries(ledger), payments, "case {case}");
                    assert_eq!(
                        ledger.value_accepted_sats, value_accepted_sats,
                        "case {case}"
                    );
                    let pending = BTreeMap::from_iter(pending);
                    assert!(mgr.pending().eq(pending.iter().map(|(i, s)| (*i, s))));
                    let canonical = struct_encode_state(
                        escrow_opened,
                        &payments,
                        value_accepted_sats,
                        &pending,
                    );
                    assert_eq!(
                        mgr.digest(),
                        btcfast_crypto::sha256::sha256d(&canonical),
                        "case {case}"
                    );
                    adopted += 1;
                }
                (
                    Err(RecoveryError::HistoryLost {
                        log_starts_at: None,
                    }),
                    Err(_),
                ) => {}
                (opened, expected) => panic!(
                    "case {case}: re-open {:?} vs struct decode {expected:?}",
                    opened.map(|(_, report)| report)
                ),
            }
        }
        assert!(adopted > 60, "only {adopted} of 240 slots were usable");
    }

    /// `Payments` against the map it replaced. The model is a `BTreeMap`
    /// written the way the ledger once was: one map operation per write,
    /// and a field-by-field encoding.
    mod payments_model {
        use super::*;
        use proptest::prelude::*;

        fn encode_model(model: &BTreeMap<u64, PaymentState>) -> Vec<u8> {
            let mut out = vec![1];
            out.extend_from_slice(&(model.len() as u32).to_le_bytes());
            for (id, state) in model {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(state.txid.as_bytes());
                out.extend_from_slice(&state.amount_sats.to_le_bytes());
                out.push(u8::from(state.offered) | u8::from(state.accepted) << 1);
                out.push(match state.merchant_wins {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
            out.extend_from_slice(&7u64.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes()); // no pending intents
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Ids ascending (what the contract assigns), descending, or
            /// drawn from a handful so they repeat; each write registers a
            /// payment or updates one that may not exist.
            #[test]
            fn payments_behave_as_the_map_they_replace(
                shape in 0u8..3,
                writes in proptest::collection::vec((any::<bool>(), 0u64..12, any::<u64>()), 0..80),
            ) {
                let mut payments = Payments::default();
                let mut model = BTreeMap::new();
                let mut cursor = 1_000u64;
                for (register, step, value) in writes {
                    let id = match shape {
                        0 => { cursor += step; cursor }
                        1 => { cursor -= step; cursor }
                        _ => step % 5,
                    };
                    if register {
                        let state = PaymentState {
                            txid: txid(value as u8),
                            amount_sats: value,
                            ..PaymentState::default()
                        };
                        payments.insert(id, &state.txid, state.amount_sats);
                        model.insert(id, state);
                    } else {
                        let verdict = value % 3;
                        if let Some(entry) = payments.mark(&id, OFFERED) {
                            entry[FLAGS] ^= if value % 2 == 0 { ACCEPTED } else { 0 };
                            entry[VERDICT] = verdict as u8;
                        }
                        if let Some(state) = model.get_mut(&id) {
                            state.offered = true;
                            state.accepted ^= value % 2 == 0;
                            state.merchant_wins = [None, Some(false), Some(true)][verdict as usize];
                        }
                    }
                    prop_assert_eq!(payments.len(), model.len());
                    prop_assert_eq!(payments.get(&id), model.get(&id).cloned());
                    prop_assert_eq!(payments.contains_key(&(id + 1)), model.contains_key(&(id + 1)));
                }
                prop_assert!(payments.iter().eq(model.clone()));
                let ledger = PaymentLedger {
                    escrow_opened: true,
                    payments,
                    value_accepted_sats: 7,
                };
                let mut encoded = Vec::new();
                encode_state(&ledger, &BTreeMap::new(), &mut encoded);
                prop_assert_eq!(encoded, encode_model(&model));
            }
        }
    }

    /// The journal encoding is a durable format: a flow through every
    /// `Step` and every `Outcome`, with one intent left pending and a
    /// checkpoint mid-flow and at the end, writes these exact bytes.
    #[test]
    fn journal_media_bytes_are_pinned() {
        use Outcome::{Abandoned, Applied, PaymentRegistered, Rejected};
        let steps = [
            Step::EscrowOpen {
                deposit_units: u128::MAX - 5,
                psc_nonce: 0,
            },
            Step::OpenPayment {
                txid: txid(1),
                amount_sats: 250_000,
                collateral: 300_000,
                psc_nonce: 1,
            },
            Step::OfferSend {
                payment_id: 7,
                txid: txid(1),
            },
            Step::AcceptanceSend {
                payment_id: 7,
                accepted: true,
            },
            Step::Broadcast {
                payment_id: 7,
                txid: txid(1),
            },
            Step::OpenPayment {
                txid: txid(2),
                amount_sats: 9,
                collateral: 10,
                psc_nonce: 2,
            },
            Step::OpenPayment {
                txid: txid(3),
                amount_sats: 11,
                collateral: 12,
                psc_nonce: 2,
            },
            Step::DisputeOpen {
                payment_id: 7,
                psc_nonce: 3,
            },
            Step::EvidenceSubmit {
                payment_id: 7,
                txid: txid(1),
                psc_nonce: 4,
            },
            Step::JudgeCall {
                payment_id: 7,
                psc_nonce: 5,
            },
            Step::Verdict {
                payment_id: 7,
                merchant_wins: false,
            },
        ];
        let outcomes = [
            Applied,
            PaymentRegistered { payment_id: 7 },
            Applied,
            Applied,
            Applied,
            Rejected,
            PaymentRegistered { payment_id: 8 },
            Applied,
            Abandoned,
            Applied,
            Applied,
        ];
        let (wal, snap) = (MemStorage::new(), MemStorage::new());
        let (mut mgr, _) = RecoveryManager::open(wal.clone(), snap.clone()).unwrap();
        let (mut wal_bytes, mut slot_bytes) = (Vec::new(), Vec::new());
        let mut checkpoint = |mgr: &mut RecoveryManager<MemStorage>| {
            wal_bytes.extend(wal.bytes());
            mgr.checkpoint().unwrap();
            slot_bytes.extend(snap.bytes());
        };
        for (n, (step, outcome)) in steps.into_iter().zip(outcomes).enumerate() {
            if n == 3 {
                checkpoint(&mut mgr);
            }
            let intent = mgr.begin(step).unwrap();
            mgr.complete(intent, outcome).unwrap();
        }
        let pending = Step::AcceptanceSend {
            payment_id: 8,
            accepted: false,
        };
        mgr.begin(pending).unwrap();
        checkpoint(&mut mgr);

        let pin = |bytes: &[u8]| {
            let digest = btcfast_crypto::sha256::sha256d(bytes);
            (bytes.len(), btcfast_crypto::hex::encode(digest.as_bytes()))
        };
        assert_eq!(
            pin(&wal_bytes),
            (
                921,
                "274ec6be1bd096b3ae52883dc15143b97758e8ea416eef10fb5d5fda54be0ae6".into()
            ),
            "WAL"
        );
        assert_eq!(
            pin(&slot_bytes),
            (
                242,
                "1baa3077285b070cd5dd26a502446d7f80c836bddc790815ce87bf30c2bbd3fe".into()
            ),
            "slot"
        );
    }

    #[test]
    fn a_crc_valid_record_that_does_not_decode_is_a_typed_error() {
        let wal = MemStorage::new();
        let (mut log, _) = Wal::open(wal.clone()).unwrap();
        log.append(&[0xEE, 1, 2, 3]).unwrap();
        assert!(matches!(
            RecoveryManager::open(wal, MemStorage::new()),
            Err(RecoveryError::Malformed(CodecError::BadTag(0xEE)))
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
        let p = mgr.ledger().payments.get(&1).unwrap();
        assert!(p.offered && !p.accepted);
        assert_eq!(mgr.ledger().value_accepted_sats, 0);
    }
}
