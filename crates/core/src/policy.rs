//! The merchant's acceptance policy: when is a 0-conf payment safe to take?

use crate::protocol::RejectReason;
use btcfast_payjudger::types::{EscrowRecord, PaymentRecord, PaymentState};
use btcfast_pscsim::account::AccountId;

/// Largest payment (satoshis) a merchant accepts at 0-conf, regardless of
/// collateral: 10 BTC.
pub(crate) const MAX_PAYMENT_SATS: u64 = 1_000_000_000;

/// Validates the escrow-side facts of a payment offer to the merchant
/// `me`: the payment is within the 0-conf cap, names `me`, is still open,
/// locks the collateral [`crate::config::COLLATERAL_RATIO`] demands, and
/// sits in a solvent escrow.
///
/// # Errors
///
/// Returns the specific [`RejectReason`].
pub fn check_escrow(
    me: AccountId,
    payment_sats: u64,
    escrow: &EscrowRecord,
    payment: &PaymentRecord,
) -> Result<(), RejectReason> {
    if payment_sats > MAX_PAYMENT_SATS {
        return Err(RejectReason::PaymentTooLarge {
            sats: payment_sats,
            cap: MAX_PAYMENT_SATS,
        });
    }
    if payment.merchant != me {
        return Err(RejectReason::WrongMerchant);
    }
    if payment.state != PaymentState::Open {
        return Err(RejectReason::PaymentNotOpen);
    }
    let required = crate::config::collateral_for(payment_sats);
    if payment.collateral < required {
        return Err(RejectReason::InsufficientCollateral {
            locked: payment.collateral,
            required,
        });
    }
    // The escrow must actually hold what it claims to have locked.
    if escrow.balance < escrow.locked {
        return Err(RejectReason::EscrowInsolvent);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_crypto::Hash256;
    use btcfast_payjudger::types::EvidenceSummary;

    fn me() -> AccountId {
        AccountId([7; 20])
    }

    fn escrow(balance: u128, locked: u128) -> EscrowRecord {
        EscrowRecord {
            customer: AccountId([1; 20]),
            balance,
            locked,
            payment_count: 1,
        }
    }

    fn payment(merchant: AccountId, collateral: u128, state: PaymentState) -> PaymentRecord {
        PaymentRecord {
            checkpoint: Hash256::ZERO,
            merchant,
            btc_txid: Hash256([2; 32]),
            amount_sats: 100_000,
            collateral,
            opened_at: 0,
            disputed_at: 0,
            state,
            merchant_evidence: EvidenceSummary::default(),
            customer_evidence: EvidenceSummary::default(),
        }
    }

    #[test]
    fn accepts_well_collateralized_open_payment() {
        let result = check_escrow(
            me(),
            100_000,
            &escrow(1_000_000, 120_000),
            &payment(me(), 120_000, PaymentState::Open),
        );
        assert!(result.is_ok());
    }

    #[test]
    fn rejects_undercollateralized() {
        // Fully covered, but not to the ratio's 1.2.
        let result = check_escrow(
            me(),
            100_000,
            &escrow(1_000_000, 100_000),
            &payment(me(), 100_000, PaymentState::Open),
        );
        assert_eq!(
            result,
            Err(RejectReason::InsufficientCollateral {
                locked: 100_000,
                required: 120_000
            })
        );
    }

    #[test]
    fn rejects_wrong_merchant() {
        let result = check_escrow(
            me(),
            100_000,
            &escrow(1_000_000, 120_000),
            &payment(AccountId([9; 20]), 120_000, PaymentState::Open),
        );
        assert_eq!(result, Err(RejectReason::WrongMerchant));
    }

    #[test]
    fn rejects_non_open_payment() {
        for state in [
            PaymentState::Acked,
            PaymentState::Closed,
            PaymentState::Disputed,
            PaymentState::MerchantPaid,
            PaymentState::CustomerCleared,
        ] {
            let result = check_escrow(
                me(),
                100_000,
                &escrow(1_000_000, 120_000),
                &payment(me(), 120_000, state),
            );
            assert_eq!(result, Err(RejectReason::PaymentNotOpen), "{state:?}");
        }
    }

    #[test]
    fn rejects_oversized_payment() {
        // 11 BTC against the 10 BTC cap, however well collateralised.
        let sats = 1_100_000_000;
        let result = check_escrow(
            me(),
            sats,
            &escrow(u128::MAX, 2 * sats as u128),
            &payment(me(), 2 * sats as u128, PaymentState::Open),
        );
        assert_eq!(
            result,
            Err(RejectReason::PaymentTooLarge {
                sats,
                cap: MAX_PAYMENT_SATS
            })
        );
    }

    #[test]
    fn rejects_insolvent_escrow() {
        let result = check_escrow(
            me(),
            100_000,
            &escrow(50_000, 120_000), // locked exceeds balance
            &payment(me(), 120_000, PaymentState::Open),
        );
        assert_eq!(result, Err(RejectReason::EscrowInsolvent));
    }
}
