//! Chain parameters: difficulty, block interval, subsidy.

use crate::pow::CompactBits;
use crate::u256::U256;

/// Consensus and simulation parameters for a Bitcoin-style chain.
///
/// The BTCFast evaluation uses Bitcoin mainnet timing (600 s expected block
/// interval, 6 confirmations ≈ 1 hour) but a *reduced* proof-of-work
/// difficulty so that blocks can actually be mined inside a test process.
/// Timing in the discrete-event simulation is driven by Poisson arrivals
/// parameterized by [`ChainParams::block_interval_secs`], not by how long
/// the reduced-difficulty solver takes on the host CPU, so the reduced
/// difficulty does not distort waiting-time results.
///
/// One preset exists and every session runs it; the fields stay named
/// because `Chain`, `Miner`, the SPV checks and the session read them as
/// consensus rules, and the retarget tests of `chain.rs` reach a
/// retarget boundary only by shortening `retarget_interval` to 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainParams {
    /// Human-readable network name.
    pub name: &'static str,
    /// Expected block interval in seconds (mainnet: 600).
    pub block_interval_secs: u64,
    /// Proof-of-work limit (easiest allowed target), compact-encoded.
    pub pow_limit_bits: CompactBits,
    /// Blocks between difficulty retargets (mainnet: 2016).
    pub retarget_interval: u64,
    /// Block subsidy in satoshis at height 0.
    pub initial_subsidy_sats: u64,
    /// Halving interval in blocks (mainnet: 210 000).
    pub halving_interval: u64,
    /// Coinbase maturity: blocks before a coinbase output is spendable.
    pub coinbase_maturity: u64,
    /// The number of confirmations conventionally treated as final
    /// (the paper's baseline: 6).
    pub finality_confirmations: u64,
}

impl ChainParams {
    /// Regtest-shaped parameters: near-trivial PoW, no coinbase maturity
    /// wait, small retarget window. Convenient for unit tests.
    pub fn regtest() -> ChainParams {
        ChainParams {
            name: "regtest",
            block_interval_secs: 600,
            pow_limit_bits: CompactBits(0x2000ffff),
            retarget_interval: 2016,
            initial_subsidy_sats: 50 * crate::amount::SATS_PER_BTC,
            halving_interval: 150,
            coinbase_maturity: 1,
            finality_confirmations: 6,
        }
    }

    /// The proof-of-work limit as a full 256-bit target.
    pub fn pow_limit(&self) -> U256 {
        // Cannot fire: `regtest()` is the only constructor, nothing assigns
        // the field, and its constant decodes (`presets_are_sane`).
        self.pow_limit_bits
            .to_target()
            .expect("pow limit constants are valid compact encodings")
    }

    /// Block subsidy at a given height, halving per the schedule.
    pub fn subsidy_at(&self, height: u64) -> u64 {
        let halvings = height / self.halving_interval;
        if halvings >= 64 {
            return 0;
        }
        self.initial_subsidy_sats >> halvings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let params = ChainParams::regtest();
        assert!(params.block_interval_secs > 0);
        assert!(params.retarget_interval > 0);
        assert!(!params.pow_limit().is_zero());
        assert_eq!(params.finality_confirmations, 6);
    }

    #[test]
    fn subsidy_halves() {
        let p = ChainParams::regtest();
        let s0 = p.subsidy_at(0);
        assert_eq!(p.subsidy_at(p.halving_interval - 1), s0);
        assert_eq!(p.subsidy_at(p.halving_interval), s0 / 2);
        assert_eq!(p.subsidy_at(p.halving_interval * 2), s0 / 4);
        assert_eq!(p.subsidy_at(p.halving_interval * 64), 0);
    }
}
