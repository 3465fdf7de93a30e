//! Configuration surface for protocol sessions.
//!
//! A value is a field here only while two callers give it different
//! values or `benchmark/` reads it by name (DESIGN.md "Configuration
//! surface" has the table); everything else is a `const` beside the code
//! that reads it.

use btcfast_btcsim::params::ChainParams;
use btcfast_netsim::latency::LatencyModel;
use btcfast_pscsim::params::PscParams;

/// What the harnesses vary about an end-to-end BTCFast session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Bitcoin-side consensus parameters. Always `ChainParams::regtest()`;
    /// a field because `benchmark/` reads it from the session by name.
    pub btc_params: ChainParams,
    /// PSC-side parameters (block interval, finality, gas).
    pub psc_params: PscParams,
    /// Customer↔merchant and node↔node message latency.
    pub latency: LatencyModel,
    /// Challenge/evidence window of the PayJudger deployment, seconds.
    pub challenge_window_secs: u64,
    /// Minimum evidence depth Δ for a winning inclusion proof. Every
    /// caller runs the paper's 6 today; it stays a field as one of the four
    /// parameters the claims are stated over (Δ, the window, the ratio, the
    /// PSC interval) — it is deployed on-chain as
    /// `JudgerConfig::min_evidence_blocks`, which the contract tests vary.
    pub min_evidence_blocks: u64,
    /// Flat BTC transaction fee paid by customers, satoshis. Always 1 000;
    /// a field because `benchmark/` reads it from the session by name.
    pub btc_fee_sats: u64,
    /// Escrow size customers provision, in PSC native units.
    pub escrow_deposit: u128,
    /// Record per-phase spans and events on the session's sim-time
    /// tracer. On by default: the tracer is allocation-cheap (a `Vec`
    /// push per phase on a discrete-event clock) and the overhead gate
    /// in the bench suite holds the instrumented hot paths within 5% of
    /// the untraced ones.
    pub tracing: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            btc_params: ChainParams::regtest(),
            psc_params: PscParams::ethereum_like(),
            latency: LatencyModel::wan(),
            challenge_window_secs: 3600,
            min_evidence_blocks: 6,
            btc_fee_sats: 1_000,
            escrow_deposit: 500_000_000,
            tracing: true,
        }
    }
}

/// Collateral the customer locks and the merchant demands, as a multiple
/// of payment value: the paper's ρ. Collateral values one PSC unit at one
/// satoshi, so a different exchange rate is a different ratio; gas is
/// priced at its own rate, [`crate::fees::SATS_PER_PSC_UNIT`].
pub const COLLATERAL_RATIO: f64 = 1.2;

/// Collateral (PSC units) covering a payment of `sats` at
/// [`COLLATERAL_RATIO`]: the one formula behind the customer's lock and the
/// merchant's demand.
pub(crate) fn collateral_for(sats: u64) -> u128 {
    (sats as f64 * COLLATERAL_RATIO).ceil() as u128
}

impl SessionConfig {
    /// Required collateral (PSC units) for a payment of `sats`.
    pub fn required_collateral(&self, sats: u64) -> u128 {
        collateral_for(sats)
    }

    /// An EOS-flavored variant (0.5 s PSC blocks).
    pub fn eos_flavored() -> SessionConfig {
        SessionConfig {
            psc_params: PscParams::eos_like(),
            ..SessionConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_coherent() {
        let config = SessionConfig::default();
        assert!(config.required_collateral(1_000_000) >= 1_000_000);
    }

    #[test]
    fn collateral_scales_with_ratio() {
        let config = SessionConfig::default();
        assert_eq!(config.required_collateral(100), 120);
        assert_eq!(
            config.required_collateral(1_000_001),
            1_200_002,
            "rounds up"
        );
    }

    #[test]
    fn eos_flavor_swaps_psc_params() {
        let config = SessionConfig::eos_flavored();
        assert_eq!(config.psc_params.name, "eos-like");
    }
}
