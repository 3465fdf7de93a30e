//! PayJudger's persistent records and their storage codecs.

use btcfast_crypto::Hash256;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::{CodecError, Decode, Encode};

/// Contract-level configuration, fixed at deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JudgerConfig {
    /// The Bitcoin block hash both parties agree to anchor evidence at
    /// (the escrow-time checkpoint).
    pub checkpoint: Hash256,
    /// Compact-bits encoding of the easiest header target the judge
    /// accepts — fabricated low-difficulty headers are rejected.
    pub min_target_bits: u32,
    /// Seconds a merchant has to dispute an open payment, and a disputed
    /// payment's evidence-collection duration.
    pub challenge_window_secs: u64,
    /// Minimum headers a winning evidence segment must span (Δ): the
    /// judgment's security parameter, playing the role of the baseline's
    /// six confirmations.
    pub min_evidence_blocks: u64,
}

impl Encode for JudgerConfig {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.checkpoint.encode_to(out);
        self.min_target_bits.encode_to(out);
        self.challenge_window_secs.encode_to(out);
        self.min_evidence_blocks.encode_to(out);
    }
}

impl Decode for JudgerConfig {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(JudgerConfig {
            checkpoint: Hash256::decode_from(input)?,
            min_target_bits: u32::decode_from(input)?,
            challenge_window_secs: u64::decode_from(input)?,
            min_evidence_blocks: u64::decode_from(input)?,
        })
    }
}

/// A customer's escrow account inside the contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EscrowRecord {
    /// The owning customer.
    pub customer: AccountId,
    /// Total native value held for this escrow.
    pub balance: u128,
    /// Portion locked under open/disputed payments.
    pub locked: u128,
    /// Number of payments ever opened (next payment id).
    pub payment_count: u64,
}

impl EscrowRecord {
    /// Value withdrawable right now.
    pub fn available(&self) -> u128 {
        self.balance - self.locked
    }
}

impl Encode for EscrowRecord {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.customer.encode_to(out);
        self.balance.encode_to(out);
        self.locked.encode_to(out);
        self.payment_count.encode_to(out);
    }
}

impl Decode for EscrowRecord {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EscrowRecord {
            customer: AccountId::decode_from(input)?,
            balance: u128::decode_from(input)?,
            locked: u128::decode_from(input)?,
            payment_count: u64::decode_from(input)?,
        })
    }
}

/// Lifecycle state of a registered payment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaymentState {
    /// Registered; merchant may dispute within the window.
    Open,
    /// Merchant acknowledged receipt — closed in the customer's favor.
    Acked,
    /// Window passed without dispute — closed in the customer's favor.
    Closed,
    /// Under dispute, collecting evidence.
    Disputed,
    /// Judged for the merchant (collateral paid out).
    MerchantPaid,
    /// Judged for the customer (collateral unlocked).
    CustomerCleared,
}

impl Encode for PaymentState {
    fn encode_to(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            PaymentState::Open => 0,
            PaymentState::Acked => 1,
            PaymentState::Closed => 2,
            PaymentState::Disputed => 3,
            PaymentState::MerchantPaid => 4,
            PaymentState::CustomerCleared => 5,
        };
        tag.encode_to(out);
    }
}

impl Decode for PaymentState {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode_from(input)? {
            0 => Ok(PaymentState::Open),
            1 => Ok(PaymentState::Acked),
            2 => Ok(PaymentState::Closed),
            3 => Ok(PaymentState::Disputed),
            4 => Ok(PaymentState::MerchantPaid),
            5 => Ok(PaymentState::CustomerCleared),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// The outcome of a judgment (returned by the `judge` method).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisputeVerdict {
    /// The payment was abandoned by the heaviest chain: merchant
    /// compensated from collateral.
    MerchantWins,
    /// The payment is included in the heaviest valid evidence: dispute
    /// dismissed.
    CustomerWins,
}

impl Encode for DisputeVerdict {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (matches!(self, DisputeVerdict::CustomerWins) as u8).encode_to(out);
    }
}

impl Decode for DisputeVerdict {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode_from(input)? {
            0 => Ok(DisputeVerdict::MerchantWins),
            1 => Ok(DisputeVerdict::CustomerWins),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Best evidence summary stored per disputing side. Headers themselves are
/// verified on submission and only this digest is persisted (the storage
/// cost driver for the E4 gas table).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EvidenceSummary {
    /// Accumulated work, big-endian 32 bytes (zero = no evidence yet).
    pub work: [u8; 32],
    /// Number of headers the segment spanned.
    pub blocks: u64,
    /// Hash of the segment tip.
    pub tip: Hash256,
    /// Whether the disputed txid was proven included.
    pub includes_tx: bool,
    /// Burial depth of the proven tx: headers from its block to the
    /// segment tip inclusive (0 when not included). The judgment's Δ check
    /// runs against this, mirroring "z confirmations".
    pub tx_confirmations: u64,
}

impl Encode for EvidenceSummary {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.work.encode_to(out);
        self.blocks.encode_to(out);
        self.tip.encode_to(out);
        self.includes_tx.encode_to(out);
        self.tx_confirmations.encode_to(out);
    }
}

impl Decode for EvidenceSummary {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(EvidenceSummary {
            work: <[u8; 32]>::decode_from(input)?,
            blocks: u64::decode_from(input)?,
            tip: Hash256::decode_from(input)?,
            includes_tx: bool::decode_from(input)?,
            tx_confirmations: u64::decode_from(input)?,
        })
    }
}

/// The rolling evidence anchor (extension over the paper's fixed
/// checkpoint): any party may advance it by submitting a sufficiently
/// deep header segment, which bounds future evidence size the way
/// BTCRelay's stored-header window does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The current anchor block hash.
    pub hash: Hash256,
    /// Total headers ever accepted past the anchor (monotone counter).
    pub advanced_blocks: u64,
    /// PSC block time of the last advancement (0 = never advanced).
    pub advanced_at: u64,
}

impl Encode for CheckpointRecord {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.hash.encode_to(out);
        self.advanced_blocks.encode_to(out);
        self.advanced_at.encode_to(out);
    }
}

impl Decode for CheckpointRecord {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(CheckpointRecord {
            hash: Hash256::decode_from(input)?,
            advanced_blocks: u64::decode_from(input)?,
            advanced_at: u64::decode_from(input)?,
        })
    }
}

/// A registered payment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaymentRecord {
    /// The evidence anchor in force when the payment was opened; dispute
    /// evidence for this payment must anchor here.
    pub checkpoint: Hash256,
    /// The merchant being paid.
    pub merchant: AccountId,
    /// The committed Bitcoin transaction id.
    pub btc_txid: Hash256,
    /// The BTC amount, in satoshis (informational — judged off evidence).
    pub amount_sats: u64,
    /// Collateral locked for this payment, in PSC native units.
    pub collateral: u128,
    /// PSC block time the payment was opened.
    pub opened_at: u64,
    /// PSC block time a dispute was opened (0 when never disputed).
    pub disputed_at: u64,
    /// Lifecycle state.
    pub state: PaymentState,
    /// Merchant's best evidence so far.
    pub merchant_evidence: EvidenceSummary,
    /// Customer's best evidence so far.
    pub customer_evidence: EvidenceSummary,
}

impl Encode for PaymentRecord {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.checkpoint.encode_to(out);
        self.merchant.encode_to(out);
        self.btc_txid.encode_to(out);
        self.amount_sats.encode_to(out);
        self.collateral.encode_to(out);
        self.opened_at.encode_to(out);
        self.disputed_at.encode_to(out);
        self.state.encode_to(out);
        self.merchant_evidence.encode_to(out);
        self.customer_evidence.encode_to(out);
    }
}

impl Decode for PaymentRecord {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(PaymentRecord {
            checkpoint: Hash256::decode_from(input)?,
            merchant: AccountId::decode_from(input)?,
            btc_txid: Hash256::decode_from(input)?,
            amount_sats: u64::decode_from(input)?,
            collateral: u128::decode_from(input)?,
            opened_at: u64::decode_from(input)?,
            disputed_at: u64::decode_from(input)?,
            state: PaymentState::decode_from(input)?,
            merchant_evidence: EvidenceSummary::decode_from(input)?,
            customer_evidence: EvidenceSummary::decode_from(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_record_round_trip() {
        let record = CheckpointRecord {
            hash: Hash256([5; 32]),
            advanced_blocks: 17,
            advanced_at: 4_200,
        };
        assert_eq!(CheckpointRecord::decode(&record.encode()).unwrap(), record);
    }

    fn sample_payment() -> PaymentRecord {
        PaymentRecord {
            checkpoint: Hash256([0xCE; 32]),
            merchant: AccountId([1; 20]),
            btc_txid: Hash256([2; 32]),
            amount_sats: 123_456,
            collateral: 999_999,
            opened_at: 42,
            disputed_at: 0,
            state: PaymentState::Open,
            merchant_evidence: EvidenceSummary::default(),
            customer_evidence: EvidenceSummary {
                work: [3; 32],
                blocks: 6,
                tip: Hash256([4; 32]),
                includes_tx: true,
                tx_confirmations: 4,
            },
        }
    }

    #[test]
    fn config_round_trip() {
        let config = JudgerConfig {
            checkpoint: Hash256([7; 32]),
            min_target_bits: 0x1d00ffff,
            challenge_window_secs: 3600,
            min_evidence_blocks: 6,
        };
        assert_eq!(JudgerConfig::decode(&config.encode()).unwrap(), config);
    }

    #[test]
    fn escrow_round_trip_and_available() {
        let escrow = EscrowRecord {
            customer: AccountId([9; 20]),
            balance: 1000,
            locked: 300,
            payment_count: 4,
        };
        assert_eq!(escrow.available(), 700);
        assert_eq!(EscrowRecord::decode(&escrow.encode()).unwrap(), escrow);
    }

    #[test]
    fn payment_round_trip() {
        let payment = sample_payment();
        assert_eq!(PaymentRecord::decode(&payment.encode()).unwrap(), payment);
    }

    #[test]
    fn all_states_round_trip() {
        for state in [
            PaymentState::Open,
            PaymentState::Acked,
            PaymentState::Closed,
            PaymentState::Disputed,
            PaymentState::MerchantPaid,
            PaymentState::CustomerCleared,
        ] {
            assert_eq!(PaymentState::decode(&state.encode()).unwrap(), state);
        }
        assert!(PaymentState::decode(&[9]).is_err());
    }

    #[test]
    fn verdict_round_trip() {
        for v in [DisputeVerdict::MerchantWins, DisputeVerdict::CustomerWins] {
            assert_eq!(DisputeVerdict::decode(&v.encode()).unwrap(), v);
        }
    }

    #[test]
    fn evidence_summary_default_is_empty() {
        let summary = EvidenceSummary::default();
        assert_eq!(summary.work, [0; 32]);
        assert_eq!(summary.blocks, 0);
        assert!(!summary.includes_tx);
    }

    #[test]
    fn corrupted_payment_rejected() {
        let mut bytes = sample_payment().encode();
        bytes.truncate(bytes.len() - 5);
        assert!(PaymentRecord::decode(&bytes).is_err());
    }
}
