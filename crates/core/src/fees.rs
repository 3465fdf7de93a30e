//! The cost model behind the abstract's "no extra operation fee" claim.
//!
//! BTCFast's honest path pays exactly the normal BTC transaction fee per
//! payment. The PSC-side costs — escrow deposit, payment registrations,
//! closes, and the eventual withdrawal — amortize over the escrow lifetime,
//! and on an EOS-like chain (`gas_price = 0`) vanish entirely; dispute costs
//! only arise under attack and are recovered from the loser's collateral in
//! a rational deployment.

use crate::config::SessionConfig;
use btcfast_pscsim::gas::Gas;

/// Per-operation gas usage measured from a live session (the E4 inputs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GasUsage {
    /// Contract deployment (once per judger, not per user).
    pub deploy: Gas,
    /// Escrow deposit (once per escrow).
    pub deposit: Gas,
    /// Payment registration (per payment).
    pub open_payment: Gas,
    /// Undisputed close (per payment, skippable when acked).
    pub close_payment: Gas,
    /// Merchant acknowledgment (the alternative early release).
    pub ack_payment: Gas,
    /// Dispute opening (per dispute).
    pub dispute: Gas,
    /// Evidence submission (per dispute, dominated by header count).
    pub submit_evidence: Gas,
    /// Judgment (per dispute).
    pub judge: Gas,
    /// Escrow withdrawal (once per escrow).
    pub withdraw: Gas,
}

/// A per-payment cost breakdown in comparable satoshi units.
#[derive(Clone, Debug, PartialEq)]
pub struct PaymentCost {
    /// The BTC network fee (paid under every scheme).
    pub btc_fee_sats: f64,
    /// Amortized PSC overhead per payment, in satoshi-equivalents.
    pub psc_overhead_sats: f64,
}

impl PaymentCost {
    /// Total per-payment cost.
    pub fn total_sats(&self) -> f64 {
        self.btc_fee_sats + self.psc_overhead_sats
    }

    /// The extra cost relative to the plain-BTC baseline.
    pub fn extra_vs_baseline_sats(&self) -> f64 {
        self.psc_overhead_sats
    }
}

/// Satoshis per PSC native unit when gas is priced: 2 × 10⁻⁶, E4's
/// exchange rate. It prices gas only: collateral is valued at one PSC unit
/// per satoshi, with the exchange rate expressed through ρ
/// ([`crate::config::COLLATERAL_RATIO`]).
pub const SATS_PER_PSC_UNIT: f64 = 0.000_002;

/// Honest-path cost per payment for a session run under `config` (its
/// BTC fee and its PSC's gas price) when the escrow serves `payments`
/// payments over its lifetime: every payment registers and closes, the
/// deposit and withdrawal amortize.
///
/// # Panics
///
/// Panics when `payments` is zero.
pub fn honest_cost_per_payment(
    config: &SessionConfig,
    usage: &GasUsage,
    payments: u64,
) -> PaymentCost {
    assert!(payments > 0, "amortization needs at least one payment");
    let per_payment_gas = (usage.open_payment + usage.close_payment) as f64;
    let amortized_gas = (usage.deposit + usage.withdraw) as f64 / payments as f64;
    let sats_per_gas = config.psc_params.gas_price as f64 * SATS_PER_PSC_UNIT;
    PaymentCost {
        btc_fee_sats: config.btc_fee_sats as f64,
        psc_overhead_sats: (per_payment_gas + amortized_gas) * sats_per_gas,
    }
}

/// The plain-BTC baseline's per-payment cost under `config`.
pub fn baseline_cost(config: &SessionConfig) -> PaymentCost {
    PaymentCost {
        btc_fee_sats: config.btc_fee_sats as f64,
        psc_overhead_sats: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> GasUsage {
        GasUsage {
            deploy: 120_000,
            deposit: 70_000,
            open_payment: 60_000,
            close_payment: 40_000,
            ack_payment: 40_000,
            dispute: 45_000,
            submit_evidence: 160_000,
            judge: 80_000,
            withdraw: 50_000,
        }
    }

    #[test]
    fn eos_like_overhead_is_zero() {
        let cost = honest_cost_per_payment(&SessionConfig::eos_flavored(), &usage(), 10);
        assert_eq!(cost.psc_overhead_sats, 0.0);
        assert_eq!(cost.total_sats(), 1_000.0);
        assert_eq!(cost.extra_vs_baseline_sats(), 0.0);
    }

    #[test]
    fn overhead_amortizes_with_volume() {
        let config = SessionConfig::default();
        let few = honest_cost_per_payment(&config, &usage(), 1);
        let many = honest_cost_per_payment(&config, &usage(), 1_000);
        assert!(few.psc_overhead_sats > many.psc_overhead_sats);
    }

    #[test]
    fn baseline_has_no_overhead() {
        let config = SessionConfig {
            btc_fee_sats: 500,
            ..SessionConfig::default()
        };
        assert_eq!(baseline_cost(&config).total_sats(), 500.0);
    }

    #[test]
    #[should_panic(expected = "at least one payment")]
    fn zero_payments_panics() {
        honest_cost_per_payment(&SessionConfig::default(), &usage(), 0);
    }
}
