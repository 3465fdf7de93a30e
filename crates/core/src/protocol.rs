//! Phase artifacts exchanged between customer and merchant.

use btcfast_btcsim::transaction::Transaction;
use btcfast_crypto::Hash256;
use btcfast_pscsim::account::AccountId;
use std::error::Error;
use std::fmt;

/// A protocol party: who sends a message or a PSC call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Party {
    /// The paying customer.
    Customer,
    /// The payee merchant.
    Merchant,
}

/// What the customer hands the merchant at the point of sale: the signed
/// (but unconfirmed) BTC transaction plus a pointer to the escrow payment
/// registration backing it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaymentOffer {
    /// The signed Bitcoin transaction paying the merchant.
    pub tx: Transaction,
    /// The customer's escrow identity on the PSC chain.
    pub escrow_customer: AccountId,
    /// The payment registration id inside the escrow.
    pub payment_id: u64,
    /// The amount (satoshis) the customer claims to be paying.
    pub amount_sats: u64,
}

impl PaymentOffer {
    /// The BTC txid this offer commits to.
    pub fn txid(&self) -> Hash256 {
        self.tx.txid()
    }
}

/// The merchant's positive decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acceptance {
    /// The accepted txid.
    pub txid: Hash256,
    /// The collateral (PSC units) protecting the merchant.
    pub collateral: u128,
}

/// Why a merchant declines a 0-conf payment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The BTC transaction does not pay this merchant the stated amount.
    UnderPaid {
        /// Satoshis actually paid to the merchant's address.
        paid: u64,
        /// Satoshis the offer claimed.
        claimed: u64,
    },
    /// The BTC transaction is invalid against the current UTXO set.
    InvalidTransaction(String),
    /// A conflicting spend is already in the mempool — an attempted
    /// double spend visible at offer time.
    MempoolConflict {
        /// The conflicting transaction already seen.
        existing_txid: Hash256,
    },
    /// The escrow registration commits to a different BTC txid.
    TxidMismatch {
        /// The txid the escrow registered.
        registered: Hash256,
    },
    /// The escrow's payment record names a different merchant.
    WrongMerchant,
    /// The payment registration is not in the `Open` state.
    PaymentNotOpen,
    /// Locked collateral below policy.
    InsufficientCollateral {
        /// What is locked.
        locked: u128,
        /// What policy requires.
        required: u128,
    },
    /// The escrow's books don't balance.
    EscrowInsolvent,
    /// Payment exceeds the merchant's 0-conf cap.
    PaymentTooLarge {
        /// Offered size.
        sats: u64,
        /// Policy cap.
        cap: u64,
    },
    /// No escrow/payment record could be found on the PSC chain.
    EscrowNotFound(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnderPaid { paid, claimed } => {
                write!(f, "transaction pays {paid} sats, offer claims {claimed}")
            }
            RejectReason::InvalidTransaction(msg) => write!(f, "invalid transaction: {msg}"),
            RejectReason::MempoolConflict { existing_txid } => {
                write!(f, "double spend: coins already spent by {existing_txid}")
            }
            RejectReason::TxidMismatch { registered } => {
                write!(f, "escrow registered txid {registered}, offer differs")
            }
            RejectReason::WrongMerchant => write!(f, "escrow payment names another merchant"),
            RejectReason::PaymentNotOpen => write!(f, "escrow payment is not open"),
            RejectReason::InsufficientCollateral { locked, required } => {
                write!(f, "collateral {locked} below required {required}")
            }
            RejectReason::EscrowInsolvent => write!(f, "escrow balance below locked amount"),
            RejectReason::PaymentTooLarge { sats, cap } => {
                write!(f, "payment of {sats} sats exceeds 0-conf cap {cap}")
            }
            RejectReason::EscrowNotFound(msg) => write!(f, "escrow lookup failed: {msg}"),
        }
    }
}

impl Error for RejectReason {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_display() {
        let reasons = [
            RejectReason::UnderPaid {
                paid: 1,
                claimed: 2,
            },
            RejectReason::InvalidTransaction("x".into()),
            RejectReason::MempoolConflict {
                existing_txid: Hash256([1; 32]),
            },
            RejectReason::TxidMismatch {
                registered: Hash256([2; 32]),
            },
            RejectReason::WrongMerchant,
            RejectReason::PaymentNotOpen,
            RejectReason::InsufficientCollateral {
                locked: 1,
                required: 2,
            },
            RejectReason::EscrowInsolvent,
            RejectReason::PaymentTooLarge { sats: 9, cap: 5 },
            RejectReason::EscrowNotFound("gone".into()),
        ];
        for reason in reasons {
            assert!(!reason.to_string().is_empty());
        }
    }
}
