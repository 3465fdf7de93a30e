//! PayJudger's persistent records and their storage codecs.

use btcfast_crypto::Hash256;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::tagged_codec;

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

tagged_codec! {
    struct JudgerConfig { checkpoint, min_target_bits, challenge_window_secs, min_evidence_blocks }
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

tagged_codec! {
    struct EscrowRecord { customer, balance, locked, payment_count }
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

tagged_codec! {
    PaymentState {
        0 => Open,
        1 => Acked,
        2 => Closed,
        3 => Disputed,
        4 => MerchantPaid,
        5 => CustomerCleared,
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

tagged_codec! {
    DisputeVerdict {
        0 => MerchantWins,
        1 => CustomerWins,
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

tagged_codec! {
    struct EvidenceSummary { work, blocks, tip, includes_tx, tx_confirmations }
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

tagged_codec! {
    struct CheckpointRecord { hash, advanced_blocks, advanced_at }
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

tagged_codec! {
    struct PaymentRecord {
        checkpoint,
        merchant,
        btc_txid,
        amount_sats,
        collateral,
        opened_at,
        disputed_at,
        state,
        merchant_evidence,
        customer_evidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_pscsim::codec::{Decode, Encode};

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
