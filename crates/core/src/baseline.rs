//! The comparison schemes the paper evaluates BTCFast against.

use btcfast_analysis::rosenfeld;

/// A payment-acceptance scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scheme {
    /// BTCFast: 0-conf acceptance backed by escrow + PoW judgment with
    /// window Δ (in Bitcoin blocks' worth of evidence).
    BtcFast {
        /// Judgment evidence depth Δ.
        judgment_window: u64,
    },
    /// The conventional baseline: wait for `z` confirmations.
    NConfirmations {
        /// Confirmations required before releasing goods.
        z: u64,
    },
    /// Naive 0-conf: accept immediately with no protection.
    ZeroConfNaive,
}

impl Scheme {
    /// Probability an attacker with hashrate `q` takes the merchant's goods
    /// *and* money under this scheme.
    ///
    /// * `NConfirmations`: the double-spend race probability (Rosenfeld).
    /// * `ZeroConfNaive`: certain loss to any attacker able to mine or
    ///   relay a conflicting transaction first — modeled as 1.
    /// * `BtcFast`: the attacker must win the race against the judgment
    ///   window *and* the stolen value must exceed forfeited collateral;
    ///   with collateral ratio ≥ 1 the monetary loss is covered even when
    ///   the race is lost, so the residual risk is the probability the
    ///   race outruns the window and the dispute cannot run at all —
    ///   the same race probability at `z = judgment_window`.
    pub fn merchant_loss_probability(&self, q: f64) -> f64 {
        match self {
            Scheme::ZeroConfNaive => 1.0,
            Scheme::NConfirmations { z } => rosenfeld::attack_success(q, *z),
            Scheme::BtcFast { judgment_window } => rosenfeld::attack_success(q, *judgment_window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btcfast_matches_six_conf_security() {
        // The abstract's claim C2: with Δ = 6, BTCFast's residual loss
        // probability equals the 6-confirmation baseline's.
        for q in [0.05, 0.1, 0.25, 0.4] {
            let btcfast = Scheme::BtcFast { judgment_window: 6 };
            let baseline = Scheme::NConfirmations { z: 6 };
            assert_eq!(
                btcfast.merchant_loss_probability(q),
                baseline.merchant_loss_probability(q)
            );
        }
    }

    #[test]
    fn naive_zero_conf_is_always_vulnerable() {
        assert_eq!(Scheme::ZeroConfNaive.merchant_loss_probability(0.01), 1.0);
    }

    #[test]
    fn security_ordering() {
        let q = 0.2;
        let one = Scheme::NConfirmations { z: 1 }.merchant_loss_probability(q);
        let six = Scheme::NConfirmations { z: 6 }.merchant_loss_probability(q);
        assert!(one > six);
    }
}
