//! Configuration surface for protocol sessions.

use btcfast_btcsim::params::ChainParams;
use btcfast_netsim::latency::LatencyModel;
use btcfast_pscsim::params::PscParams;

/// All knobs of an end-to-end BTCFast session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Bitcoin-side consensus parameters.
    pub btc_params: ChainParams,
    /// PSC-side parameters (block interval, finality, gas).
    pub psc_params: PscParams,
    /// Customer↔merchant and node↔node message latency.
    pub latency: LatencyModel,
    /// Merchant-side local verification time per payment, seconds
    /// (signature check + escrow lookup against the merchant's own PSC
    /// node; measured sub-millisecond in our µ-benches, budgeted at 10 ms
    /// to be conservative about wallet-software overhead).
    pub verify_secs: f64,
    /// Challenge/evidence window of the PayJudger deployment, seconds.
    pub challenge_window_secs: u64,
    /// Minimum evidence depth Δ for a winning inclusion proof.
    pub min_evidence_blocks: u64,
    /// Collateral the merchant requires, as a multiple of payment value.
    pub collateral_ratio: f64,
    /// Exchange rate: PSC native units per satoshi (for converting payment
    /// value into required collateral).
    pub psc_units_per_sat: f64,
    /// Flat BTC transaction fee paid by customers, satoshis.
    pub btc_fee_sats: u64,
    /// Escrow size customers provision, in PSC native units.
    pub escrow_deposit: u128,
    /// Record per-phase spans and events on the session's sim-time
    /// tracer. On by default: the tracer is allocation-cheap (a `Vec`
    /// push per phase on a discrete-event clock) and the overhead gate
    /// in the bench suite holds the instrumented hot paths within 5% of
    /// the untraced ones.
    pub tracing: bool,
    /// Upper bound on buffered trace events. At the bound the tracer
    /// drops its oldest half and counts the drops (exported through
    /// telemetry as `btcfast_trace_dropped_events`), so long load runs
    /// cannot grow memory without bound. The generous default holds
    /// every experiment in the repo with zero drops.
    pub trace_capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            btc_params: ChainParams::regtest(),
            psc_params: PscParams::ethereum_like(),
            latency: LatencyModel::wan(),
            verify_secs: 0.010,
            challenge_window_secs: 3600,
            min_evidence_blocks: 6,
            collateral_ratio: 1.2,
            psc_units_per_sat: 1.0,
            btc_fee_sats: 1_000,
            escrow_deposit: 500_000_000,
            tracing: true,
            trace_capacity: btcfast_obs::trace::DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl SessionConfig {
    /// Required collateral (PSC units) for a payment of `sats`.
    pub fn required_collateral(&self, sats: u64) -> u128 {
        (sats as f64 * self.psc_units_per_sat * self.collateral_ratio).ceil() as u128
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
        assert!(config.collateral_ratio >= 1.0);
        assert!(config.verify_secs < 1.0);
        assert!(config.required_collateral(1_000_000) >= 1_000_000);
    }

    #[test]
    fn collateral_scales_with_ratio() {
        let config = SessionConfig {
            collateral_ratio: 2.0,
            psc_units_per_sat: 1.0,
            ..SessionConfig::default()
        };
        assert_eq!(config.required_collateral(100), 200);
    }

    #[test]
    fn eos_flavor_swaps_psc_params() {
        let config = SessionConfig::eos_flavored();
        assert_eq!(config.psc_params.name, "eos-like");
    }
}
