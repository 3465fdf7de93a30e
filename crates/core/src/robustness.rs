//! The protocol phases a hostile network can strike, and what a chaos run
//! varies.
//!
//! A phase that fails under fault injection — a message exhausts its
//! retransmission budget, a deadline lapses, the PSC chain stalls — is a
//! [`crate::session::SessionError`] naming its [`ProtocolPhase`].

use btcfast_netsim::time::SimTime;
use btcfast_netsim::transport::TransportConfig;
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

/// What a chaos run varies. The default is what every experiment and test
/// runs: 12 transmissions inside a 60 s phase budget.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Reliable-transport policy (the attempt budget).
    pub transport: TransportConfig,
    /// Budget for one message phase to resolve (delivery + ack).
    pub phase_deadline: SimTime,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            transport: TransportConfig { max_attempts: 12 },
            phase_deadline: SimTime::from_secs(60),
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
    fn default_chaos_config_is_coherent() {
        let c = ChaosConfig::default();
        assert!(c.phase_deadline < crate::chaos::PSC_DEADLINE);
    }
}
