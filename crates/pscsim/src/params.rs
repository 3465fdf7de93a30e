//! PSC chain parameters.

use crate::gas::GasSchedule;

/// Gas limit per transaction on both presets, and the limit PayJudger's
/// client signs every call with (generous; actual usage is metered and
/// refunded).
pub const TX_GAS_LIMIT: u64 = 8_000_000;

/// Parameters of the PSC chain.
#[derive(Clone, Debug, PartialEq)]
pub struct PscParams {
    /// Human-readable name.
    pub name: &'static str,
    /// Block interval in seconds (Ethereum ~15 s, EOS ~0.5 s).
    ///
    /// The paper positions BTCFast on either; dispute latency (E5) sweeps
    /// this.
    pub block_interval_secs: f64,
    /// Blocks after which a transaction is treated as final.
    pub finality_depth: u64,
    /// Gas limit per transaction.
    pub tx_gas_limit: u64,
    /// Gas price in the chain's native unit per gas.
    pub gas_price: u128,
    /// The gas cost schedule.
    pub schedule: GasSchedule,
}

impl PscParams {
    /// Ethereum-like parameters (15 s blocks, 12-block finality
    /// in the era the paper measured).
    pub fn ethereum_like() -> PscParams {
        PscParams {
            name: "ethereum-like",
            block_interval_secs: 15.0,
            finality_depth: 12,
            tx_gas_limit: TX_GAS_LIMIT,
            gas_price: 20, // ~20 gwei-shaped
            schedule: GasSchedule::evm_shaped(),
        }
    }

    /// EOS-like parameters (0.5 s blocks, fast finality).
    pub fn eos_like() -> PscParams {
        PscParams {
            name: "eos-like",
            block_interval_secs: 0.5,
            finality_depth: 2,
            tx_gas_limit: TX_GAS_LIMIT,
            gas_price: 0, // EOS bills via staked resources, not per-tx fees
            schedule: GasSchedule::evm_shaped(),
        }
    }

    /// Seconds until a transaction included "now" is final.
    pub fn finality_latency_secs(&self) -> f64 {
        self.block_interval_secs * self.finality_depth as f64
    }
}

impl Default for PscParams {
    fn default() -> Self {
        PscParams::ethereum_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let eth = PscParams::ethereum_like();
        let eos = PscParams::eos_like();
        assert!(eth.block_interval_secs > eos.block_interval_secs);
        assert!(eth.finality_latency_secs() > eos.finality_latency_secs());
        assert_eq!(PscParams::default(), eth);
    }
}
