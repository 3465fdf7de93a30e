//! Typed failure surface and degradation policy for chaos runs.
//!
//! Under fault injection, protocol phases can fail in ways the happy-path
//! [`crate::session::SessionError`] never names: a message exhausts its
//! retransmission budget, a deadline lapses, the PSC chain stalls. This
//! module gives each of those a type, so callers (and the E10 harness)
//! can distinguish "payment failed" from "payment fell back" from
//! "protocol bug" — and defines the merchant's graceful-degradation
//! policy: when escrow protection cannot be established in time, the
//! merchant falls to the k-confirmation baseline rather than accepting an
//! unprotected 0-conf payment.

use btcfast_netsim::time::SimTime;
use btcfast_netsim::transport::TransportConfig;
use btcfast_payjudger::retry::RetryError;
use std::error::Error;
use std::fmt;

/// The protocol phases that traverse the network (and can therefore fail
/// under chaos).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolPhase {
    /// Customer registers the payment against the escrow (PSC call).
    OpenPayment,
    /// Customer's payment offer travels to the merchant.
    Offer,
    /// Merchant's acceptance travels back to the customer.
    Acceptance,
    /// Merchant opens a dispute (PSC call).
    DisputeOpen,
    /// A party submits SPV evidence (PSC call).
    EvidenceSubmission,
    /// The judgment call after the window closes (PSC call).
    JudgeCall,
}

impl fmt::Display for ProtocolPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolPhase::OpenPayment => "open-payment",
            ProtocolPhase::Offer => "offer",
            ProtocolPhase::Acceptance => "acceptance",
            ProtocolPhase::DisputeOpen => "dispute-open",
            ProtocolPhase::EvidenceSubmission => "evidence-submission",
            ProtocolPhase::JudgeCall => "judge-call",
        };
        f.write_str(name)
    }
}

/// Why a chaos-run phase failed.
#[derive(Debug)]
pub enum RobustnessError {
    /// The transport exhausted its retransmission budget.
    DeliveryFailed {
        /// The failing phase.
        phase: ProtocolPhase,
        /// Attempts the transport made.
        attempts: u32,
    },
    /// The phase did not resolve before its deadline.
    DeadlineExceeded {
        /// The failing phase.
        phase: ProtocolPhase,
        /// The absolute (transport-clock) deadline that lapsed.
        deadline: SimTime,
    },
    /// The PSC chain stayed unreachable (stalled or partitioned) past the
    /// reachability deadline.
    PscUnreachable {
        /// The phase that needed the chain.
        phase: ProtocolPhase,
        /// How long the caller waited before giving up.
        waited: SimTime,
    },
    /// A PSC resubmission loop gave up.
    Retry {
        /// The phase whose submission failed.
        phase: ProtocolPhase,
        /// The underlying retry failure.
        error: RetryError,
    },
    /// A non-network session failure (wallet, chain rules).
    Session(crate::session::SessionError),
}

impl RobustnessError {
    /// The protocol phase this failure occurred in, when it names one.
    pub fn phase(&self) -> Option<ProtocolPhase> {
        match self {
            RobustnessError::DeliveryFailed { phase, .. }
            | RobustnessError::DeadlineExceeded { phase, .. }
            | RobustnessError::PscUnreachable { phase, .. }
            | RobustnessError::Retry { phase, .. } => Some(*phase),
            RobustnessError::Session(_) => None,
        }
    }
}

impl fmt::Display for RobustnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustnessError::DeliveryFailed { phase, attempts } => {
                write!(f, "{phase}: delivery failed after {attempts} attempts")
            }
            RobustnessError::DeadlineExceeded { phase, deadline } => {
                write!(f, "{phase}: unresolved at deadline {deadline}")
            }
            RobustnessError::PscUnreachable { phase, waited } => {
                write!(f, "{phase}: PSC chain unreachable after waiting {waited}")
            }
            RobustnessError::Retry { phase, error } => {
                write!(f, "{phase}: {error}")
            }
            RobustnessError::Session(e) => write!(f, "session failure: {e}"),
        }
    }
}

impl Error for RobustnessError {}

impl From<crate::session::SessionError> for RobustnessError {
    fn from(e: crate::session::SessionError) -> Self {
        RobustnessError::Session(e)
    }
}

/// How the merchant degrades when escrow protection cannot be established
/// before the deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Refuse the sale: never accept without protection.
    RejectUnprotected,
    /// Fall back to the classic baseline: accept only after this many
    /// Bitcoin confirmations. Slow, but never *less* safe than the
    /// pre-BTCFast world.
    KConfirmations(u64),
}

/// What a chaos run varies. The default is what every experiment and test
/// runs: 12 transmissions inside a 60 s phase budget.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Reliable-transport policy (the attempt budget).
    pub transport: TransportConfig,
    /// Budget for one message phase to resolve (delivery + ack).
    pub phase_deadline: SimTime,
    /// The merchant's degradation policy. Every harness runs the
    /// six-confirmation fallback; it stays because
    /// `tests/chaos_transport.rs` reaches `RejectUnprotected` only by
    /// setting it.
    pub fallback: FallbackPolicy,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            transport: TransportConfig { max_attempts: 12 },
            phase_deadline: SimTime::from_secs(60),
            fallback: FallbackPolicy::KConfirmations(6),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_stable_names() {
        assert_eq!(ProtocolPhase::Offer.to_string(), "offer");
        assert_eq!(ProtocolPhase::JudgeCall.to_string(), "judge-call");
    }

    #[test]
    fn errors_render_with_context() {
        let e = RobustnessError::DeliveryFailed {
            phase: ProtocolPhase::EvidenceSubmission,
            attempts: 6,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("evidence-submission") && msg.contains('6'),
            "{msg}"
        );
    }

    #[test]
    fn default_chaos_config_is_coherent() {
        let c = ChaosConfig::default();
        assert!(c.phase_deadline < crate::chaos::PSC_DEADLINE);
        assert!(matches!(c.fallback, FallbackPolicy::KConfirmations(6)));
    }
}
