//! Block template assembly and proof-of-work solving.

use crate::amount::Amount;
use crate::block::{Block, BlockHeader};
use crate::chain::Chain;
use crate::params::ChainParams;
use crate::pow::hash_meets_target;
use crate::transaction::Transaction;
use btcfast_crypto::keys::Address;
use btcfast_crypto::sha256::{midstate, sha256d_resumed};
use btcfast_crypto::Hash256;

/// A miner: assembles block templates paying itself subsidy + fees, and
/// grinds nonces until the header meets the consensus target.
///
/// The simulator's difficulty is low enough that solving is fast on a host
/// CPU; block *timing* in experiments comes from the discrete-event
/// scheduler, not from solve latency.
#[derive(Clone, Debug)]
pub struct Miner {
    params: ChainParams,
    payout: Address,
    /// Monotonic tag mixed into coinbases so identical templates from the
    /// same miner at the same time still produce distinct txids.
    extra_nonce: u64,
}

impl Miner {
    /// Creates a miner paying rewards to `payout`.
    pub fn new(params: ChainParams, payout: Address) -> Miner {
        Miner {
            params,
            payout,
            extra_nonce: 0,
        }
    }

    /// The payout address.
    pub fn payout(&self) -> Address {
        self.payout
    }

    /// Mines a block on the current best tip of `chain` containing `txs`
    /// (validated against the tip's UTXO state; invalid ones are dropped).
    pub fn mine_block(&mut self, chain: &Chain, txs: Vec<Transaction>, time: u64) -> Block {
        self.mine_block_on(chain, chain.tip_hash(), txs, time)
    }

    /// Mines a block on an arbitrary known parent (or [`Hash256::ZERO`]).
    ///
    /// Used by attackers extending private forks. Transactions are validated
    /// against the active UTXO set only when the parent is the active tip;
    /// on side branches the caller is responsible for coherence (the chain
    /// re-validates on any reorg).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not known to `chain`.
    pub fn mine_block_on(
        &mut self,
        chain: &Chain,
        parent: Hash256,
        txs: Vec<Transaction>,
        time: u64,
    ) -> Block {
        let parent_height = if parent == Hash256::ZERO {
            0
        } else {
            // The documented panic: a caller bug, not an input.
            chain
                .block_height(&parent)
                .expect("mine_block_on requires a known parent")
        };
        let height = parent_height + 1;
        // Cannot fire: a subsidy is at most `INITIAL_SUBSIDY_SATS`, 50 BTC
        // (`Chain::connect` relies on the same).
        let subsidy =
            Amount::from_sats(self.params.subsidy_at(height)).expect("subsidy within money supply");

        let (included, fees) = if parent == chain.tip_hash() {
            chain.utxo().select_valid(txs, height)
        } else {
            (txs, Amount::ZERO)
        };

        // Cannot fire: fees are coins mined below `height`, so the sum is
        // part of the emission schedule, which totals at most `MAX_MONEY`.
        let reward = subsidy.checked_add(fees).expect("reward within supply");
        self.extra_nonce += 1;
        let coinbase =
            Transaction::coinbase(height, reward, self.payout, &self.extra_nonce.to_le_bytes());
        let mut transactions = vec![coinbase];
        transactions.extend(included);

        let bits = chain.expected_bits(&parent);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: parent,
            merkle_root: Block::compute_merkle_root(&transactions),
            time,
            bits,
            nonce: 0,
        };
        // Cannot fire: `expected_bits` returns the pow limit, a connected
        // parent's bits, or a retarget `from_target` just encoded.
        let target = header.target().expect("consensus bits are valid");
        // The nonce is the last field: compress the encoding's first
        // SHA-256 block and pad its second once, then per try rewrite the
        // eight nonce bytes and resume.
        let (state, mut last) = midstate(&header.encode());
        while !hash_meets_target(&sha256d_resumed(&state, &last), &target) {
            header.nonce += 1;
            last[16..24].copy_from_slice(&header.nonce.to_le_bytes());
        }
        debug_assert!(hash_meets_target(&header.hash(), &target));
        Block {
            header,
            transactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{OutPoint, TxIn, TxOut};
    use btcfast_crypto::keys::KeyPair;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    fn sats(v: u64) -> Amount {
        Amount::from_sats(v).unwrap()
    }

    #[test]
    fn mined_blocks_connect() {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let mut miner = Miner::new(params, KeyPair::from_seed(b"m").address());
        for i in 1..=3 {
            let block = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(block).unwrap();
        }
        assert_eq!(chain.height(), 3);
    }

    #[test]
    fn the_midstate_search_finds_the_first_nonce_a_full_rehash_finds() {
        // 64 templates that differ in parent, height, time and payout; the
        // reference is a loop over `BlockHeader::hash`, which shares nothing
        // with the grind but the encoding.
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let mut rng = StdRng::seed_from_u64(22);
        for template in 0..64u64 {
            let payout = KeyPair::from_seed(&rng.next_u64().to_le_bytes()).address();
            let mut miner = Miner::new(params.clone(), payout);
            let parent = [Hash256::ZERO, chain.tip_hash()][rng.gen_range(0..2usize)];
            let time = chain.tip_time() + rng.gen_range(1..=1200u64);
            let block = miner.mine_block_on(&chain, parent, vec![], time);
            let target = block.header.target().unwrap();
            let mut reference = block.header;
            reference.nonce = 0;
            while !hash_meets_target(&reference.hash(), &target) {
                reference.nonce += 1;
            }
            assert_eq!(block.header.nonce, reference.nonce, "template {template}");
            if parent == chain.tip_hash() {
                chain.submit_block(block).unwrap();
            }
        }
        assert!(chain.height() > 16, "templates sat on a growing chain");
    }

    #[test]
    fn coinbase_collects_fees() {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let key = KeyPair::from_seed(b"m");
        let mut miner = Miner::new(params.clone(), key.address());
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();

        // Spend the coinbase, paying a 700-sat fee.
        let coinbase = &b1.transactions[0];
        let mut tx = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: coinbase.txid(),
                vout: 0,
            })],
            vec![TxOut::payment(
                coinbase.outputs[0].value - sats(700),
                KeyPair::from_seed(b"dest").address(),
            )],
        );
        tx.sign_input(0, &key, &coinbase.outputs[0].script_pubkey)
            .unwrap();

        let b2 = miner.mine_block(&chain, vec![tx], 1200);
        let expected_reward = sats(chain.params().subsidy_at(2) + 700);
        assert_eq!(b2.transactions[0].outputs[0].value, expected_reward);
        chain.submit_block(b2).unwrap();
    }

    #[test]
    fn invalid_txs_dropped_from_template() {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let key = KeyPair::from_seed(b"m");
        let mut miner = Miner::new(params, key.address());
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1).unwrap();

        // A spend of a nonexistent coin.
        let mut ghost = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: Hash256([9; 32]),
                vout: 0,
            })],
            vec![TxOut::payment(sats(1), key.address())],
        );
        ghost
            .sign_input(0, &key, &crate::script::ScriptPubKey::P2pkh(key.address()))
            .unwrap();

        let b2 = miner.mine_block(&chain, vec![ghost], 1200);
        assert_eq!(b2.transactions.len(), 1); // coinbase only
        chain.submit_block(b2).unwrap();
    }

    #[test]
    fn coinbases_are_unique_across_blocks() {
        let params = ChainParams::regtest();
        let chain = Chain::new(params.clone());
        let mut miner = Miner::new(params, KeyPair::from_seed(b"m").address());
        let a = miner.mine_block_on(&chain, Hash256::ZERO, vec![], 600);
        let b = miner.mine_block_on(&chain, Hash256::ZERO, vec![], 600);
        assert_ne!(a.transactions[0].txid(), b.transactions[0].txid());
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    #[should_panic(expected = "known parent")]
    fn unknown_parent_panics() {
        let params = ChainParams::regtest();
        let chain = Chain::new(params.clone());
        let mut miner = Miner::new(params, KeyPair::from_seed(b"m").address());
        miner.mine_block_on(&chain, Hash256([1; 32]), vec![], 600);
    }
}
