//! Chain parameters: difficulty, block interval, subsidy.

use crate::pow::CompactBits;
use crate::u256::U256;

/// Expected block interval in seconds (mainnet: 600).
///
/// The BTCFast evaluation uses Bitcoin mainnet timing (600 s expected block
/// interval, 6 confirmations ≈ 1 hour) but a *reduced* proof-of-work
/// difficulty so that blocks can actually be mined inside a test process.
/// Timing in the discrete-event simulation is driven by Poisson arrivals
/// at this interval, not by how long the reduced-difficulty solver takes
/// on the host CPU, so the reduced difficulty does not distort
/// waiting-time results.
pub const BLOCK_INTERVAL_SECS: u64 = 600;

/// Block subsidy in satoshis at height 0.
pub const INITIAL_SUBSIDY_SATS: u64 = 50 * crate::amount::SATS_PER_BTC;

/// Halving interval in blocks (mainnet: 210 000).
pub const HALVING_INTERVAL: u64 = 150;

/// Coinbase maturity: blocks before a coinbase output is spendable.
pub const COINBASE_MATURITY: u64 = 1;

/// The two consensus parameters of a Bitcoin-style chain that stay fields.
///
/// One preset exists and every session runs it. `pow_limit_bits` is read
/// by name through `SessionConfig::btc_params`, and the retarget tests of
/// `chain.rs` reach a retarget boundary only by shortening
/// `retarget_interval` to 4; everything else is a `const` above.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainParams {
    /// Proof-of-work limit (easiest allowed target), compact-encoded.
    pub pow_limit_bits: CompactBits,
    /// Blocks between difficulty retargets (mainnet: 2016).
    pub retarget_interval: u64,
}

impl ChainParams {
    /// Regtest-shaped parameters: near-trivial PoW and mainnet's
    /// 2016-block retarget window.
    pub fn regtest() -> ChainParams {
        ChainParams {
            pow_limit_bits: CompactBits(0x2000ffff),
            retarget_interval: 2016,
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

    /// Block subsidy at a given height, halving every
    /// [`HALVING_INTERVAL`] blocks.
    pub fn subsidy_at(&self, height: u64) -> u64 {
        let halvings = height / HALVING_INTERVAL;
        if halvings >= 64 {
            return 0;
        }
        INITIAL_SUBSIDY_SATS >> halvings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let params = ChainParams::regtest();
        assert!(params.retarget_interval > 0);
        assert!(!params.pow_limit().is_zero());
    }

    #[test]
    fn subsidy_halves() {
        let p = ChainParams::regtest();
        let s0 = p.subsidy_at(0);
        assert_eq!(p.subsidy_at(HALVING_INTERVAL - 1), s0);
        assert_eq!(p.subsidy_at(HALVING_INTERVAL), s0 / 2);
        assert_eq!(p.subsidy_at(HALVING_INTERVAL * 2), s0 / 4);
        assert_eq!(p.subsidy_at(HALVING_INTERVAL * 64), 0);
    }
}
