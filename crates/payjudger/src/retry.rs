//! Retry-aware PSC submission.
//!
//! Dispute-path transactions (dispute, submitEvidence, judge) must land
//! before the challenge window closes; a transient `OutOfGas` (gas-price
//! spike, under-estimated limit) must not forfeit the merchant's claim.
//! [`submit_with_retry`] drives a rebuild-and-resubmit loop: each attempt
//! rebuilds the transaction (fresh nonce, current state) at a gas limit
//! that grows by `GAS_BUMP_FACTOR` after every `OutOfGas`, until the
//! call succeeds, the budget of `MAX_ATTEMPTS` runs out, or the caller
//! reports the challenge window closed.
//!
//! The loop is transport-agnostic: the caller's closure performs the
//! actual build/sign/submit (and its own clock accounting), so the same
//! helper serves the simulation harness and unit tests.

use crate::types::DisputeVerdict;
use btcfast_pscsim::tx::{Receipt, TxStatus};

/// Total attempts of one submission, the first included.
const MAX_ATTEMPTS: u32 = 4;
/// Gas-limit multiplier applied after each `OutOfGas`.
const GAS_BUMP_FACTOR: f64 = 1.5;

/// What one submission attempt produced, as reported by the caller.
#[derive(Clone, Debug)]
pub enum AttemptResult {
    /// The transaction executed (successfully or not) with this receipt.
    Executed(Receipt),
    /// The challenge window closed before this attempt could land.
    WindowClosed,
    /// The submission machinery itself failed before execution (node-side
    /// refusal, not a chain status) — non-retryable.
    Aborted(String),
}

/// Why the retry loop gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetryError {
    /// Every attempt ran out of gas.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Status of the final attempt.
        last_status: TxStatus,
    },
    /// The challenge window closed mid-loop.
    WindowClosed {
        /// Attempts made before the window closed.
        attempts: u32,
    },
    /// A non-retryable failure (revert or invalid transaction).
    Rejected {
        /// Attempts made, the rejected one included.
        attempts: u32,
        /// The rejecting status.
        status: TxStatus,
    },
    /// The submission machinery failed before execution.
    Aborted {
        /// Attempts made, the aborted one included.
        attempts: u32,
        /// The caller's reason.
        reason: String,
    },
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted {
                attempts,
                last_status,
            } => {
                write!(
                    f,
                    "gas budget exhausted after {attempts} attempts ({last_status:?})"
                )
            }
            RetryError::WindowClosed { attempts } => {
                write!(f, "challenge window closed after {attempts} attempts")
            }
            RetryError::Rejected { attempts, status } => {
                write!(f, "non-retryable failure on attempt {attempts}: {status:?}")
            }
            RetryError::Aborted { attempts, reason } => {
                write!(f, "submission aborted on attempt {attempts}: {reason}")
            }
        }
    }
}

impl std::error::Error for RetryError {}

/// A successful (possibly retried) submission.
#[derive(Clone, Debug)]
pub struct RetryReport {
    /// The succeeding receipt.
    pub receipt: Receipt,
    /// Attempts made, the succeeding one included.
    pub attempts: u32,
    /// Gas limit of the succeeding attempt.
    pub final_gas: u64,
    /// Fees paid across every executed attempt, failed ones included —
    /// `OutOfGas` attempts still burn gas.
    pub total_fees: u128,
}

impl RetryReport {
    /// Decodes the judgment verdict from the succeeding receipt, when the
    /// retried call was `judge`.
    pub fn verdict(&self) -> Option<DisputeVerdict> {
        crate::client::PayJudgerClient::verdict_from(&self.receipt)
    }
}

/// Runs the rebuild-and-resubmit loop. `attempt` is called with the gas
/// limit to use; it rebuilds the transaction at the current nonce, signs,
/// submits, and reports the receipt — or that the window closed.
///
/// # Errors
///
/// [`RetryError::Exhausted`] when the attempt budget runs out on
/// `OutOfGas`, [`RetryError::WindowClosed`] when the caller reports the
/// window shut, [`RetryError::Rejected`] on any revert/invalid status.
pub fn submit_with_retry(
    initial_gas: u64,
    mut attempt: impl FnMut(u64) -> AttemptResult,
) -> Result<RetryReport, RetryError> {
    let mut gas = initial_gas;
    let mut last_status = TxStatus::OutOfGas;
    let mut total_fees = 0u128;
    for n in 1..=MAX_ATTEMPTS {
        match attempt(gas) {
            AttemptResult::WindowClosed => {
                return Err(RetryError::WindowClosed { attempts: n - 1 });
            }
            AttemptResult::Aborted(reason) => {
                return Err(RetryError::Aborted {
                    attempts: n,
                    reason,
                });
            }
            AttemptResult::Executed(receipt) => match receipt.status {
                TxStatus::Succeeded => {
                    total_fees += receipt.fee_paid;
                    return Ok(RetryReport {
                        receipt,
                        attempts: n,
                        final_gas: gas,
                        total_fees,
                    });
                }
                TxStatus::OutOfGas => {
                    total_fees += receipt.fee_paid;
                    last_status = receipt.status;
                    gas = ((gas as f64) * GAS_BUMP_FACTOR).ceil() as u64;
                }
                status @ (TxStatus::Reverted(_) | TxStatus::Invalid(_)) => {
                    return Err(RetryError::Rejected {
                        attempts: n,
                        status,
                    });
                }
            },
        }
    }
    Err(RetryError::Exhausted {
        attempts: MAX_ATTEMPTS,
        last_status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_crypto::Hash256;

    fn receipt(status: TxStatus) -> Receipt {
        Receipt {
            tx_hash: Hash256::ZERO,
            status,
            gas_used: 21_000,
            fee_paid: 21_000,
            events: vec![],
            return_data: vec![],
            contract_address: None,
            block_number: 1,
        }
    }

    #[test]
    fn first_try_success_uses_initial_gas() {
        let mut gas_seen = vec![];
        let report = submit_with_retry(1_000, |gas| {
            gas_seen.push(gas);
            AttemptResult::Executed(receipt(TxStatus::Succeeded))
        })
        .unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.final_gas, 1_000);
        assert_eq!(gas_seen, vec![1_000]);
    }

    #[test]
    fn out_of_gas_bumps_until_success() {
        let mut gas_seen = vec![];
        let report = submit_with_retry(1_000, |gas| {
            gas_seen.push(gas);
            AttemptResult::Executed(receipt(if gas >= 2_000 {
                TxStatus::Succeeded
            } else {
                TxStatus::OutOfGas
            }))
        })
        .unwrap();
        assert_eq!(gas_seen, vec![1_000, 1_500, 2_250]);
        assert_eq!(report.attempts, 3);
        assert_eq!(report.final_gas, 2_250);
        assert_eq!(report.total_fees, 3 * 21_000, "failed attempts burn fees");
    }

    #[test]
    fn persistent_out_of_gas_exhausts_budget() {
        let err = submit_with_retry(1_000, |_| {
            AttemptResult::Executed(receipt(TxStatus::OutOfGas))
        })
        .unwrap_err();
        assert_eq!(
            err,
            RetryError::Exhausted {
                attempts: MAX_ATTEMPTS,
                last_status: TxStatus::OutOfGas
            }
        );
    }

    #[test]
    fn revert_is_not_retried() {
        let mut calls = 0;
        let err = submit_with_retry(1_000, |_| {
            calls += 1;
            AttemptResult::Executed(receipt(TxStatus::Reverted("window expired".into())))
        })
        .unwrap_err();
        assert_eq!(calls, 1, "reverts must not be resubmitted");
        assert!(matches!(err, RetryError::Rejected { attempts: 1, .. }));
    }

    #[test]
    fn aborted_submission_is_not_retried() {
        let mut calls = 0;
        let err = submit_with_retry(1_000, |_| {
            calls += 1;
            AttemptResult::Aborted("node refused the tx".into())
        })
        .unwrap_err();
        assert_eq!(calls, 1, "aborts must not be resubmitted");
        assert!(matches!(err, RetryError::Aborted { attempts: 1, .. }));
    }

    #[test]
    fn window_closing_stops_the_loop() {
        let mut calls = 0;
        let err = submit_with_retry(1_000, |_| {
            calls += 1;
            if calls < 3 {
                AttemptResult::Executed(receipt(TxStatus::OutOfGas))
            } else {
                AttemptResult::WindowClosed
            }
        })
        .unwrap_err();
        assert_eq!(err, RetryError::WindowClosed { attempts: 2 });
    }
}
