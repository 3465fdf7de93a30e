//! Double-spend attacks: the stochastic race model and a full-fidelity
//! private-fork attacker that produces real blocks.
//!
//! Two levels of fidelity:
//!
//! * [`race_probability_monte_carlo`] — the Nakamoto race as a pure
//!   stochastic process (block discovery only), cheap enough for millions
//!   of trials. Used for the E2 double-spend curves.
//! * [`PrivateForkAttacker`] — actually mines conflicting blocks on a secret
//!   branch of a [`Chain`], producing the reorg (and the SPV evidence trail)
//!   end to end. Used for E3/E9 and the integration tests.

use crate::chain::Chain;
use crate::miner::Miner;
use crate::params::ChainParams;
use crate::transaction::Transaction;
use btcfast_crypto::keys::Address;
use btcfast_crypto::Hash256;
use rand::Rng;

/// Blocks behind at which the race's attacker abandons. Nakamoto's
/// analysis races forever; a cutoff makes the simulation terminate, and 60
/// is far past the point where catch-up probability is negligible.
const GIVE_UP_DEFICIT: i64 = 60;

/// Lead (attacker − honest) at which the race is won once the merchant has
/// shipped. `0` reproduces the Nakamoto/Rosenfeld analytical convention
/// (catching up to a tie counts, because the attacker then wins the
/// broadcast race for the next block with the head start); the
/// full-machinery attacks in `btcfast::session` require the strict
/// chainwork overtake a real reorg needs, a lead of 1.
const REQUIRED_LEAD: i64 = 0;

/// Simulates one double-spend race and reports whether the attacker wins.
///
/// The attacker pre-mines nothing; at the moment the victim transaction is
/// broadcast, the attacker starts a private fork. Each new block belongs to
/// the attacker with probability `q`. The merchant ships after `z` honest
/// blocks; from then on the attacker keeps racing until they reach
/// [`REQUIRED_LEAD`] (success) or fall [`GIVE_UP_DEFICIT`] behind.
fn race_once<R: Rng + ?Sized>(q: f64, z: u64, rng: &mut R) -> bool {
    let mut honest = 0i64;
    let mut attacker = 0i64;
    loop {
        if rng.gen_bool(q) {
            attacker += 1;
        } else {
            honest += 1;
        }
        if honest >= z as i64 {
            if attacker - honest >= REQUIRED_LEAD {
                return true;
            }
            if honest - attacker >= GIVE_UP_DEFICIT {
                return false;
            }
        }
    }
}

/// Monte-Carlo estimate of the probability that an attacker with hashrate
/// share `q` double-spends a payment the merchant ships after `z`
/// confirmations.
///
/// # Panics
///
/// Panics unless `0 < q < 1`.
pub fn race_probability_monte_carlo<R: Rng + ?Sized>(
    q: f64,
    z: u64,
    trials: u64,
    rng: &mut R,
) -> f64 {
    assert!(q > 0.0 && q < 1.0, "attacker hashrate must be in (0,1)");
    let wins = (0..trials).filter(|_| race_once(q, z, rng)).count();
    wins as f64 / trials as f64
}

/// A full-fidelity double-spend attacker.
///
/// Holds a private copy of the chain on which it mines a secret branch: the
/// branch starts from the block *before* the victim payment, substitutes a
/// conflicting transaction (the double spend), and is published only once it
/// carries more work than the public chain.
#[derive(Debug)]
pub struct PrivateForkAttacker {
    miner: Miner,
    /// The attacker's private view: the public chain as of
    /// [`PrivateForkAttacker::start`] plus the secret branch.
    private_view: Chain,
    /// Hash of the secret branch tip (= the fork point while empty).
    secret_tip: Hash256,
    /// The blocks of the secret branch, in order.
    secret_blocks: Vec<crate::block::Block>,
    /// The double spend, placed in the first secret block once mined.
    conflicting_tx: Option<Transaction>,
}

impl PrivateForkAttacker {
    /// Prepares a private fork from `fork_point` (a block hash on `public`,
    /// or [`Hash256::ZERO`]). No block is mined yet — mining happens one
    /// block at a time through [`PrivateForkAttacker::extend`], so the
    /// caller's event clock (e.g. Poisson arrivals) fully controls the
    /// attacker's progress. The first extended block carries
    /// `conflicting_tx` — the double spend.
    ///
    /// # Panics
    ///
    /// Panics if `fork_point` is unknown to the public chain.
    pub fn start(
        params: ChainParams,
        public: &Chain,
        fork_point: Hash256,
        payout: Address,
        conflicting_tx: Option<Transaction>,
    ) -> PrivateForkAttacker {
        assert!(
            fork_point == Hash256::ZERO || public.block(&fork_point).is_some(),
            "fork point must exist on the public chain"
        );
        PrivateForkAttacker {
            miner: Miner::new(params, payout),
            private_view: public.clone(),
            secret_tip: fork_point,
            secret_blocks: Vec::new(),
            conflicting_tx,
        }
    }

    /// Extends the secret branch by one block (the first carries the
    /// conflicting transaction).
    pub fn extend(&mut self, time: u64) {
        let txs = self.conflicting_tx.take().into_iter().collect();
        let block = self
            .miner
            .mine_block_on(&self.private_view, self.secret_tip, txs, time);
        self.secret_tip = block.hash();
        self.private_view
            .submit_block(block.clone())
            .expect("extending own branch");
        self.secret_blocks.push(block);
    }

    /// Whether the secret branch carries more work than `public`'s tip.
    ///
    /// The private view holds `public` as it was at [`Self::start`] plus
    /// the secret branch, and a public chain's work only grows: the
    /// private tip outweighs `public`'s exactly when the secret branch
    /// does.
    pub fn can_overtake(&self, public: &Chain) -> bool {
        self.private_view.tip_work() > public.tip_work()
    }

    /// Publishes the secret branch to a target chain, triggering the reorg
    /// if the branch is heavier. Returns true if the target reorged onto the
    /// attacker branch.
    pub fn publish(&self, target: &mut Chain) -> bool {
        let mut reorged = false;
        for block in &self.secret_blocks {
            if let Ok(crate::chain::SubmitOutcome::Connected { reorged: r }) =
                target.submit_block(block.clone())
            {
                reorged = reorged || r;
            }
        }
        reorged && target.tip_hash() == self.secret_tip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Amount;
    use crate::transaction::{OutPoint, TxIn, TxOut};
    use btcfast_crypto::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn race_low_hashrate_low_success() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = race_probability_monte_carlo(0.1, 6, 20_000, &mut rng);
        // Rosenfeld's table: q=0.1, z=6 → ~0.0024 (race from broadcast).
        assert!(p < 0.02, "p = {p}");
    }

    #[test]
    fn race_more_confirmations_lower_success() {
        let mut rng = StdRng::seed_from_u64(11);
        let p1 = race_probability_monte_carlo(0.25, 1, 20_000, &mut rng);
        let p6 = race_probability_monte_carlo(0.25, 6, 20_000, &mut rng);
        assert!(p1 > p6, "p1={p1} p6={p6}");
    }

    #[test]
    fn race_outcome_reports_details() {
        // Near-even hashrate, one confirmation: some races reach the
        // winning lead and some fall the give-up deficit behind.
        let mut rng = StdRng::seed_from_u64(13);
        let wins = (0..500).filter(|_| race_once(0.45, 1, &mut rng)).count();
        assert!(wins > 0 && wins < 500, "wins = {wins}");
    }

    #[test]
    #[should_panic(expected = "hashrate")]
    fn race_rejects_bad_hashrate() {
        let mut rng = StdRng::seed_from_u64(1);
        race_probability_monte_carlo(1.5, 6, 1, &mut rng);
    }

    /// Full-machinery double spend: pay the merchant, fork secretly with a
    /// conflicting self-payment, overtake, publish, and verify the merchant
    /// payment vanished.
    #[test]
    fn private_fork_double_spend_end_to_end() {
        let params = ChainParams::regtest();
        let mut public = Chain::new(params.clone());
        let customer = KeyPair::from_seed(b"attacker customer");
        let mut honest_miner = Miner::new(params.clone(), KeyPair::from_seed(b"hm").address());

        // Fund the customer.
        let mut funder = Miner::new(params.clone(), customer.address());
        let b1 = funder.mine_block(&public, vec![], 600);
        public.submit_block(b1.clone()).unwrap();
        let b2 = honest_miner.mine_block(&public, vec![], 1200);
        public.submit_block(b2.clone()).unwrap();

        let coinbase = &b1.transactions[0];
        let outpoint = OutPoint {
            txid: coinbase.txid(),
            vout: 0,
        };
        let merchant = KeyPair::from_seed(b"victim merchant");
        let value = coinbase.outputs[0].value;

        // Honest payment to the merchant, confirmed in block 3.
        let mut pay = Transaction::new(
            vec![TxIn::spend(outpoint)],
            vec![TxOut::payment(
                value - Amount::from_sats(500).unwrap(),
                merchant.address(),
            )],
        );
        pay.sign_input(0, &customer, &coinbase.outputs[0].script_pubkey)
            .unwrap();
        let pay_txid = pay.txid();
        let b3 = honest_miner.mine_block(&public, vec![pay], 1800);
        public.submit_block(b3.clone()).unwrap();
        assert_eq!(public.confirmations(&pay_txid), Some(1));

        // Conflicting spend back to the attacker.
        let mut steal = Transaction::new(
            vec![TxIn::spend(outpoint)],
            vec![TxOut::payment(
                value - Amount::from_sats(500).unwrap(),
                customer.address(),
            )],
        );
        steal
            .sign_input(0, &customer, &coinbase.outputs[0].script_pubkey)
            .unwrap();

        // Secret fork from b2 (excluding the payment block).
        let mut attacker = PrivateForkAttacker::start(
            params,
            &public,
            b2.hash(),
            customer.address(),
            Some(steal.clone()),
        );
        assert!(!attacker.can_overtake(&public)); // nothing mined yet
        attacker.extend(2000);
        assert!(!attacker.can_overtake(&public)); // 1 vs 1 above the fork
        attacker.extend(2400);
        assert!(attacker.can_overtake(&public)); // 2 vs 1

        assert!(attacker.publish(&mut public));
        // The merchant payment fell out of the ledger; the double spend is in.
        assert_eq!(public.confirmations(&pay_txid), None);
        assert_eq!(public.confirmations(&steal.txid()), Some(2));
        assert_eq!(public.utxo().balance_of(&merchant.address()), Amount::ZERO);
    }

    #[test]
    fn observe_tracks_public_blocks() {
        let params = ChainParams::regtest();
        let mut public = Chain::new(params.clone());
        let mut honest = Miner::new(params.clone(), KeyPair::from_seed(b"h").address());
        let b1 = honest.mine_block(&public, vec![], 600);
        public.submit_block(b1.clone()).unwrap();

        let mut attacker = PrivateForkAttacker::start(
            params,
            &public,
            b1.hash(),
            KeyPair::from_seed(b"a").address(),
            None,
        );
        // Public mines one more; the attacker has mined nothing yet. It
        // tracks public blocks by reading the public tip's work.
        let b2 = honest.mine_block(&public, vec![], 1200);
        public.submit_block(b2).unwrap();
        assert!(!attacker.can_overtake(&public));
        attacker.extend(1300);
        // 1 secret vs 1 public above the fork: equal, not strictly more.
        assert!(!attacker.can_overtake(&public));
        attacker.extend(1400);
        // 2 secret vs 1 public above the fork: strictly more work.
        assert!(attacker.can_overtake(&public));
        assert_eq!(attacker.secret_blocks.len(), 2);
    }
}
