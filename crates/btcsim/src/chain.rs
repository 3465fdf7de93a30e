//! The block tree: heaviest-chain selection, reorganizations, and the
//! confirmation counting that BTCFast's baseline (wait for 6) relies on.

use crate::amount::Amount;
use crate::block::{Block, BlockError};
use crate::params::{ChainParams, BLOCK_INTERVAL_SECS, COINBASE_MATURITY};
use crate::pow::{retarget, CompactBits};
use crate::u256::U256;
use crate::utxo::{UndoLog, UtxoError, UtxoSet};
use btcfast_crypto::Hash256;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A stored block with its tree metadata.
#[derive(Clone, Debug)]
struct StoredBlock {
    block: Block,
    height: u64,
    chainwork: U256,
}

/// Result of submitting a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The block extended or became the new best chain.
    Connected {
        /// True if connecting required disconnecting old best-chain blocks.
        reorged: bool,
    },
    /// Valid block on a side branch with less work than the active chain.
    SideChain,
    /// Already known.
    Duplicate,
}

/// Block rejection reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The parent block is unknown (orphan).
    UnknownParent(Hash256),
    /// Structural failure (PoW, merkle, coinbase, ...).
    Block(BlockError),
    /// The header's difficulty bits do not match consensus expectation.
    WrongDifficulty {
        /// What the header claimed.
        got: CompactBits,
        /// What the chain required at that height.
        expected: CompactBits,
    },
    /// Timestamp went backwards relative to the parent.
    TimeTooOld,
    /// The block was structurally fine but its transactions fail against
    /// the UTXO state of its branch (e.g. double spend in a reorg).
    Utxo(UtxoError),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownParent(h) => write!(f, "unknown parent block {h}"),
            ChainError::Block(e) => write!(f, "invalid block: {e}"),
            ChainError::WrongDifficulty { got, expected } => {
                write!(f, "wrong difficulty: got {got:?}, expected {expected:?}")
            }
            ChainError::TimeTooOld => {
                write!(f, "block timestamp is too old for its ancestry")
            }
            ChainError::Utxo(e) => write!(f, "contextual validation failed: {e}"),
        }
    }
}

impl Error for ChainError {}

impl From<BlockError> for ChainError {
    fn from(e: BlockError) -> ChainError {
        ChainError::Block(e)
    }
}

/// A Bitcoin-style chain: block tree + active-chain UTXO state.
///
/// The tree roots at a virtual genesis with hash [`Hash256::ZERO`] at
/// height 0; the first mined block has height 1.
#[derive(Clone, Debug)]
pub struct Chain {
    params: ChainParams,
    blocks: HashMap<Hash256, StoredBlock>,
    /// Active chain: `active[h-1]` is the block hash at height `h`.
    active: Vec<Hash256>,
    /// Undo logs for currently connected blocks.
    undo_logs: HashMap<Hash256, UndoLog>,
    /// txid → containing block hash, for the active chain only.
    tx_index: HashMap<Hash256, Hash256>,
    utxo: UtxoSet,
    /// Connection counters since construction.
    stats: ChainStats,
}

/// Block-connection counters (observability; saturating). Purely
/// descriptive: never consulted by consensus and excluded from every
/// replay fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Submitted blocks that became (part of) the best chain.
    pub blocks_connected: u64,
    /// Transactions inside those connected blocks (coinbases included).
    pub txs_connected: u64,
    /// Connections that disconnected at least one block first.
    pub reorgs: u64,
    /// Submitted blocks stored on a side branch.
    pub side_chain_blocks: u64,
}

impl Chain {
    /// Creates an empty chain.
    pub fn new(params: ChainParams) -> Chain {
        Chain {
            params,
            blocks: HashMap::new(),
            active: Vec::new(),
            undo_logs: HashMap::new(),
            tx_index: HashMap::new(),
            utxo: UtxoSet::new(COINBASE_MATURITY),
            stats: ChainStats::default(),
        }
    }

    /// Connection counters since construction.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// The chain parameters.
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// Current best height (0 = only virtual genesis).
    pub fn height(&self) -> u64 {
        self.active.len() as u64
    }

    /// Hash of the best block ([`Hash256::ZERO`] at height 0).
    pub fn tip_hash(&self) -> Hash256 {
        self.active.last().copied().unwrap_or(Hash256::ZERO)
    }

    /// Accumulated work of the best chain.
    pub fn tip_work(&self) -> U256 {
        self.active
            .last()
            .map(|h| self.blocks[h].chainwork)
            .unwrap_or(U256::ZERO)
    }

    /// Timestamp of the best block (0 at genesis).
    pub fn tip_time(&self) -> u64 {
        self.active
            .last()
            .map(|h| self.blocks[h].block.header.time)
            .unwrap_or(0)
    }

    /// The UTXO set of the active chain.
    pub fn utxo(&self) -> &UtxoSet {
        &self.utxo
    }

    /// Looks up any stored block (active or side branch).
    pub fn block(&self, hash: &Hash256) -> Option<&Block> {
        self.blocks.get(hash).map(|s| &s.block)
    }

    /// Height of any stored block.
    pub fn block_height(&self, hash: &Hash256) -> Option<u64> {
        self.blocks.get(hash).map(|s| s.height)
    }

    /// The active block at a height (1-based).
    pub fn block_at_height(&self, height: u64) -> Option<&Block> {
        if height == 0 || height > self.height() {
            return None;
        }
        let hash = self.active[(height - 1) as usize];
        Some(&self.blocks[&hash].block)
    }

    /// True if `hash` is on the active chain.
    pub fn is_active(&self, hash: &Hash256) -> bool {
        self.blocks
            .get(hash)
            .map(|s| self.active.get((s.height - 1) as usize) == Some(hash))
            .unwrap_or(*hash == Hash256::ZERO)
    }

    /// Confirmation count for a transaction on the active chain:
    /// 1 when in the tip block, 0/None when unconfirmed.
    pub fn confirmations(&self, txid: &Hash256) -> Option<u64> {
        let block_hash = self.tx_index.get(txid)?;
        let height = self.blocks[block_hash].height;
        Some(self.height() - height + 1)
    }

    /// The block hash containing a transaction on the active chain.
    pub fn containing_block(&self, txid: &Hash256) -> Option<Hash256> {
        self.tx_index.get(txid).copied()
    }

    /// The difficulty bits consensus requires for a child of `parent_hash`.
    ///
    /// Mirrors Bitcoin's retarget rule at `retarget_interval` boundaries and
    /// inherits the parent's bits otherwise.
    pub fn expected_bits(&self, parent_hash: &Hash256) -> CompactBits {
        if *parent_hash == Hash256::ZERO {
            return self.params.pow_limit_bits;
        }
        let parent = match self.blocks.get(parent_hash) {
            Some(p) => p,
            None => return self.params.pow_limit_bits,
        };
        let child_height = parent.height + 1;
        if child_height % self.params.retarget_interval != 0 {
            return parent.block.header.bits;
        }
        // Walk back one interval on the parent's branch.
        let mut cursor = parent;
        for _ in 0..(self.params.retarget_interval - 1) {
            match self.blocks.get(&cursor.block.header.prev_hash) {
                Some(prev) => cursor = prev,
                None => break, // interval reaches behind genesis
            }
        }
        let actual = parent
            .block
            .header
            .time
            .saturating_sub(cursor.block.header.time);
        let expected = self.params.retarget_interval * BLOCK_INTERVAL_SECS;
        let prev_target = parent
            .block
            .header
            .target()
            .expect("stored blocks have valid bits");
        let new_target = retarget(
            &prev_target,
            actual.max(1),
            expected,
            &self.params.pow_limit(),
        );
        CompactBits::from_target(&new_target)
    }

    /// Median-time-past over the last 11 blocks ending at `parent_hash`
    /// (Bitcoin's BIP113-era timestamp baseline). `None` when the parent
    /// is the virtual genesis, i.e. there is no ancestry to median over.
    pub fn median_time_past(&self, parent_hash: &Hash256) -> Option<u64> {
        let mut times = Vec::with_capacity(11);
        let mut cursor = *parent_hash;
        while times.len() < 11 {
            let entry = self.blocks.get(&cursor)?;
            times.push(entry.block.header.time);
            cursor = entry.block.header.prev_hash;
            if cursor == Hash256::ZERO {
                break;
            }
        }
        if times.is_empty() {
            return None;
        }
        times.sort_unstable();
        Some(times[times.len() / 2])
    }

    /// Submits a block to the tree, connecting or reorganizing as needed.
    ///
    /// # Errors
    ///
    /// See [`ChainError`]. A failed reorg leaves the previous best chain
    /// fully intact.
    pub fn submit_block(&mut self, block: Block) -> Result<SubmitOutcome, ChainError> {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Ok(SubmitOutcome::Duplicate);
        }
        block.check_structure()?;

        let parent_hash = block.header.prev_hash;
        let (parent_height, parent_work) = if parent_hash == Hash256::ZERO {
            (0u64, U256::ZERO)
        } else {
            let parent = self
                .blocks
                .get(&parent_hash)
                .ok_or(ChainError::UnknownParent(parent_hash))?;
            (parent.height, parent.chainwork)
        };

        // Bitcoin's rule: strictly above the median of the previous 11
        // blocks' timestamps.
        if let Some(mtp) = self.median_time_past(&parent_hash) {
            if block.header.time <= mtp {
                return Err(ChainError::TimeTooOld);
            }
        }
        let expected = self.expected_bits(&parent_hash);
        if block.header.bits != expected {
            return Err(ChainError::WrongDifficulty {
                got: block.header.bits,
                expected,
            });
        }

        let work = block
            .header
            .work()
            .expect("bits validated by check_structure");
        let chainwork = parent_work
            .checked_add(&work)
            .expect("chainwork cannot overflow 256 bits in practice");
        let height = parent_height + 1;

        let stored = StoredBlock {
            block,
            height,
            chainwork,
        };

        let tx_count = stored.block.transactions.len() as u64;
        if chainwork > self.tip_work() {
            // This branch becomes best: connect, possibly reorging.
            self.blocks.insert(hash, stored);
            match self.reorg_to(hash) {
                Ok(reorged) => {
                    self.stats.blocks_connected = self.stats.blocks_connected.saturating_add(1);
                    self.stats.txs_connected = self.stats.txs_connected.saturating_add(tx_count);
                    if reorged {
                        self.stats.reorgs = self.stats.reorgs.saturating_add(1);
                    }
                    Ok(SubmitOutcome::Connected { reorged })
                }
                Err(e) => {
                    // Invalid branch: drop the offending block entirely.
                    self.blocks.remove(&hash);
                    Err(e)
                }
            }
        } else {
            self.blocks.insert(hash, stored);
            self.stats.side_chain_blocks = self.stats.side_chain_blocks.saturating_add(1);
            Ok(SubmitOutcome::SideChain)
        }
    }

    /// Makes `new_tip` the active tip. Returns whether any blocks had to be
    /// disconnected. On error, restores the previous active chain exactly.
    fn reorg_to(&mut self, new_tip: Hash256) -> Result<bool, ChainError> {
        // Collect the new branch back to a block that is on the active chain.
        let mut branch: Vec<Hash256> = Vec::new();
        let mut cursor = new_tip;
        while cursor != Hash256::ZERO && !self.is_active(&cursor) {
            branch.push(cursor);
            cursor = self.blocks[&cursor].block.header.prev_hash;
        }
        branch.reverse();
        let fork_height = if cursor == Hash256::ZERO {
            0
        } else {
            self.blocks[&cursor].height as usize
        };

        let disconnected = self.disconnect_to(fork_height);
        for hash in &branch {
            if let Err(e) = self.connect(*hash) {
                // Undo what connected, then re-apply what was disconnected:
                // undo logs restore the fork-point set exactly, and a block
                // that was active on exactly that set applies to it again.
                self.disconnect_to(fork_height);
                for hash in &disconnected {
                    self.connect(*hash)
                        .expect("re-applying a block that was active on this exact set");
                }
                return Err(ChainError::Utxo(e));
            }
        }
        Ok(!disconnected.is_empty())
    }

    /// Disconnects the active blocks above `height`, tip first, and
    /// returns them in chain order.
    fn disconnect_to(&mut self, height: usize) -> Vec<Hash256> {
        let removed = self.active.split_off(height);
        for tip in removed.iter().rev() {
            let undo = self
                .undo_logs
                .remove(tip)
                .expect("active blocks have undo logs");
            self.utxo.undo_block(&undo);
            for tx in &self.blocks[tip].block.transactions {
                self.tx_index.remove(&tx.txid());
            }
        }
        removed
    }

    /// Applies the stored block `hash` on top of the active tip (its
    /// parent). On error nothing changed — `apply_block` stages.
    fn connect(&mut self, hash: Hash256) -> Result<(), UtxoError> {
        let stored = &self.blocks[&hash];
        let subsidy = Amount::from_sats(self.params.subsidy_at(stored.height))
            .expect("subsidy within money supply");
        let undo = self
            .utxo
            .apply_block(&stored.block, stored.height, subsidy)?;
        self.undo_logs.insert(hash, undo);
        for tx in &stored.block.transactions {
            self.tx_index.insert(tx.txid(), hash);
        }
        self.active.push(hash);
        Ok(())
    }

    /// Returns the active-chain headers for heights `[from, from+count)`
    /// (1-based), e.g. for building SPV evidence.
    pub fn headers_range(&self, from: u64, count: u64) -> Vec<crate::block::BlockHeader> {
        (from..from + count)
            .filter_map(|h| self.block_at_height(h).map(|b| b.header))
            .collect()
    }

    /// Iterates active block hashes from height 1 to the tip.
    pub fn active_hashes(&self) -> &[Hash256] {
        &self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Miner;
    use crate::transaction::{OutPoint, Transaction, TxIn, TxOut};
    use btcfast_crypto::keys::KeyPair;

    fn sats(v: u64) -> Amount {
        Amount::from_sats(v).unwrap()
    }

    fn setup() -> (Chain, Miner, KeyPair) {
        let params = ChainParams::regtest();
        let chain = Chain::new(params.clone());
        let miner_key = KeyPair::from_seed(b"miner");
        let miner = Miner::new(params, miner_key.address());
        (chain, miner, miner_key)
    }

    /// Signed spend of the coinbase of `block` paying `value` to `to`.
    fn spend_coinbase(
        block: &Block,
        owner: &KeyPair,
        to: &KeyPair,
        value: Amount,
        fee: Amount,
    ) -> Transaction {
        let coinbase = &block.transactions[0];
        let outpoint = OutPoint {
            txid: coinbase.txid(),
            vout: 0,
        };
        let change = coinbase.outputs[0].value - value - fee;
        let mut tx = Transaction::new(
            vec![TxIn::spend(outpoint)],
            vec![
                TxOut::payment(value, to.address()),
                TxOut::payment(change, owner.address()),
            ],
        );
        tx.sign_input(0, owner, &coinbase.outputs[0].script_pubkey)
            .unwrap();
        tx
    }

    #[test]
    fn genesis_state() {
        let (chain, _, _) = setup();
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.tip_hash(), Hash256::ZERO);
        assert_eq!(chain.tip_work(), U256::ZERO);
    }

    #[test]
    fn linear_growth() {
        let (mut chain, mut miner, _) = setup();
        for i in 1..=5 {
            let block = miner.mine_block(&chain, vec![], i * 600);
            assert_eq!(
                chain.submit_block(block).unwrap(),
                SubmitOutcome::Connected { reorged: false }
            );
            assert_eq!(chain.height(), i);
        }
        let work_5 = chain.tip_work();
        assert!(work_5 > U256::ZERO);
    }

    #[test]
    fn duplicate_detected() {
        let (mut chain, mut miner, _) = setup();
        let block = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(block.clone()).unwrap();
        assert_eq!(chain.submit_block(block).unwrap(), SubmitOutcome::Duplicate);
    }

    #[test]
    fn orphan_rejected() {
        let (mut chain, mut miner, _) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        let b2 = miner.mine_block(&chain, vec![], 1200);
        // Do not submit b2; build b3 on it via a throwaway chain.
        let mut other = Chain::new(ChainParams::regtest());
        other.submit_block(b1).unwrap();
        other.submit_block(b2.clone()).unwrap();
        let b3 = miner.mine_block(&other, vec![], 1800);
        assert_eq!(
            chain.submit_block(b3),
            Err(ChainError::UnknownParent(b2.hash()))
        );
    }

    #[test]
    fn time_too_old_rejected() {
        let (mut chain, mut miner, _) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1).unwrap();
        let b2 = miner.mine_block(&chain, vec![], 599);
        assert_eq!(chain.submit_block(b2), Err(ChainError::TimeTooOld));
    }

    #[test]
    fn mtp_branch_with_non_monotone_timestamps_connects() {
        // Bitcoin accepts a timestamp below the parent's as long as it
        // exceeds the median of the last 11 ancestors.
        let (mut chain, mut miner, _) = setup();
        for i in 1..=6 {
            let block = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(block).unwrap();
        }
        // Ancestor times are 600..=3600; median (6 entries, upper middle)
        // is 2400. A block at 2500 is below the 3600 tip but MTP-valid.
        let non_monotone = miner.mine_block(&chain, vec![], 2500);
        assert_eq!(
            chain.submit_block(non_monotone).unwrap(),
            SubmitOutcome::Connected { reorged: false }
        );

        // At or below the median is still too old.
        let at_median = miner.mine_block(&chain, vec![], 2400);
        assert_eq!(chain.submit_block(at_median), Err(ChainError::TimeTooOld));
    }

    #[test]
    fn confirmations_count_up() {
        let (mut chain, mut miner, key) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        let b2 = miner.mine_block(&chain, vec![], 1200);
        chain.submit_block(b2.clone()).unwrap();

        let customer = KeyPair::from_seed(b"cust");
        let pay = spend_coinbase(&b1, &key, &customer, sats(1_000_000), sats(500));
        let txid = pay.txid();
        assert_eq!(chain.confirmations(&txid), None);

        let b3 = miner.mine_block(&chain, vec![pay], 1800);
        chain.submit_block(b3).unwrap();
        assert_eq!(chain.confirmations(&txid), Some(1));

        for i in 4..=8 {
            let b = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(b).unwrap();
        }
        assert_eq!(chain.confirmations(&txid), Some(6));
    }

    #[test]
    fn side_chain_then_reorg() {
        let (mut chain, mut miner, _) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        let b2a = miner.mine_block(&chain, vec![], 1200);
        chain.submit_block(b2a.clone()).unwrap();
        assert_eq!(chain.height(), 2);
        let tip_a = chain.tip_hash();

        // Competing branch from b1 with equal height → side chain.
        let mut fork_view = Chain::new(ChainParams::regtest());
        fork_view.submit_block(b1.clone()).unwrap();
        let mut fork_miner = Miner::new(
            ChainParams::regtest(),
            KeyPair::from_seed(b"fork miner").address(),
        );
        let b2b = fork_miner.mine_block(&fork_view, vec![], 1201);
        fork_view.submit_block(b2b.clone()).unwrap();
        assert_eq!(
            chain.submit_block(b2b.clone()).unwrap(),
            SubmitOutcome::SideChain
        );
        assert_eq!(chain.tip_hash(), tip_a);

        // Extend the fork — more total work → reorg.
        let b3b = fork_miner.mine_block(&fork_view, vec![], 1800);
        assert_eq!(
            chain.submit_block(b3b.clone()).unwrap(),
            SubmitOutcome::Connected { reorged: true }
        );
        assert_eq!(chain.height(), 3);
        assert_eq!(chain.tip_hash(), b3b.hash());
        assert!(chain.is_active(&b2b.hash()));
        assert!(!chain.is_active(&b2a.hash()));
    }

    #[test]
    fn reorg_unconfirms_transactions_and_restores_utxo() {
        let (mut chain, mut miner, key) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();

        let merchant = KeyPair::from_seed(b"merchant");
        let pay = spend_coinbase(&b1, &key, &merchant, sats(5_000_000), sats(500));
        let txid = pay.txid();
        let b2a = miner.mine_block(&chain, vec![pay], 1200);
        chain.submit_block(b2a).unwrap();
        assert_eq!(chain.confirmations(&txid), Some(1));
        assert_eq!(
            chain.utxo().balance_of(&merchant.address()),
            sats(5_000_000)
        );

        // Attacker branch from b1 without the payment, two blocks long.
        let mut attacker_view = Chain::new(ChainParams::regtest());
        attacker_view.submit_block(b1).unwrap();
        let mut attacker = Miner::new(
            ChainParams::regtest(),
            KeyPair::from_seed(b"attacker").address(),
        );
        let a2 = attacker.mine_block(&attacker_view, vec![], 1201);
        attacker_view.submit_block(a2.clone()).unwrap();
        let a3 = attacker.mine_block(&attacker_view, vec![], 1801);
        chain.submit_block(a2).unwrap();
        chain.submit_block(a3).unwrap();

        // The payment fell out of the chain: the merchant's money is gone.
        assert_eq!(chain.height(), 3);
        assert_eq!(chain.confirmations(&txid), None);
        assert_eq!(chain.utxo().balance_of(&merchant.address()), Amount::ZERO);
    }

    #[test]
    fn reorg_rejects_branch_with_invalid_tx() {
        let (mut chain, mut miner, key) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        let b2 = miner.mine_block(&chain, vec![], 1200);
        chain.submit_block(b2).unwrap();
        let good_tip = chain.tip_hash();
        let good_utxo_len = chain.utxo().len();

        // Fork block at height 2 that double-spends the same coinbase twice
        // across two txs → contextual failure whenever it gets connected.
        // Mining on a non-tip parent skips template validation, so the
        // invalid pair stays in.
        let mut fork_miner =
            Miner::new(ChainParams::regtest(), KeyPair::from_seed(b"fm").address());
        let customer = KeyPair::from_seed(b"c");
        let spend1 = spend_coinbase(&b1, &key, &customer, sats(1_000), sats(100));
        let spend2 = spend_coinbase(&b1, &key, &customer, sats(2_000), sats(100));
        let f2 = fork_miner.mine_block_on(&chain, b1.hash(), vec![spend1, spend2], 1201);
        // f2 is at height 2 = equal work → side chain, accepted structurally
        // without contextual validation.
        assert_eq!(
            chain.submit_block(f2.clone()).unwrap(),
            SubmitOutcome::SideChain
        );

        // Extending the invalid branch makes it heaviest; the reorg attempt
        // must fail and leave the good chain untouched.
        let f3 = fork_miner.mine_block_on(&chain, f2.hash(), vec![], 1801);
        let err = chain.submit_block(f3);
        assert!(matches!(err, Err(ChainError::Utxo(_))));
        assert_eq!(chain.tip_hash(), good_tip);
        assert_eq!(chain.utxo().len(), good_utxo_len);
        assert_eq!(chain.height(), 2);
    }

    #[test]
    fn headers_range_returns_active_headers() {
        let (mut chain, mut miner, _) = setup();
        for i in 1..=4 {
            let b = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(b).unwrap();
        }
        let headers = chain.headers_range(2, 2);
        assert_eq!(headers.len(), 2);
        assert_eq!(headers[0], chain.block_at_height(2).unwrap().header);
        assert_eq!(headers[1], chain.block_at_height(3).unwrap().header);
        assert!(chain.headers_range(10, 5).is_empty());
    }

    #[test]
    fn difficulty_retargets_at_interval_boundary() {
        // A chain with a 4-block retarget interval whose blocks arrive
        // twice as fast as scheduled must halve its target at the boundary.
        let mut params = ChainParams::regtest();
        params.retarget_interval = 4;
        let mut chain = Chain::new(params.clone());
        let mut miner = Miner::new(params.clone(), KeyPair::from_seed(b"rt").address());

        // Heights 1..3 at 300 s spacing (expected 600 s).
        for i in 1..=3u64 {
            let block = miner.mine_block(&chain, vec![], i * 300);
            chain.submit_block(block).unwrap();
        }
        let pre_bits = chain.block_at_height(3).unwrap().header.bits;
        assert_eq!(pre_bits, params.pow_limit_bits);

        // Height 4 crosses the boundary: harder target expected.
        let expected = chain.expected_bits(&chain.tip_hash());
        assert_ne!(expected, params.pow_limit_bits);
        let new_target = expected.to_target().unwrap();
        assert!(new_target < params.pow_limit());

        let block = miner.mine_block(&chain, vec![], 4 * 300);
        assert_eq!(block.header.bits, expected);
        chain.submit_block(block).unwrap();
        assert_eq!(chain.height(), 4);

        // Post-boundary blocks inherit the retargeted bits.
        let block = miner.mine_block(&chain, vec![], 5 * 300);
        assert_eq!(block.header.bits, expected);
        chain.submit_block(block).unwrap();
    }

    #[test]
    fn retarget_never_exceeds_pow_limit() {
        // Slow blocks at the boundary push the target easier, but never
        // past the proof-of-work limit.
        let mut params = ChainParams::regtest();
        params.retarget_interval = 4;
        let mut chain = Chain::new(params.clone());
        let mut miner = Miner::new(params.clone(), KeyPair::from_seed(b"rt2").address());
        for i in 1..=3u64 {
            let block = miner.mine_block(&chain, vec![], i * 100_000);
            chain.submit_block(block).unwrap();
        }
        let expected = chain.expected_bits(&chain.tip_hash());
        assert_eq!(
            expected.to_target().unwrap(),
            params.pow_limit(),
            "clamped at the limit"
        );
    }

    #[test]
    fn deep_reorg_across_many_blocks() {
        // A 5-block reorg: every disconnected tx index entry must be gone
        // and the UTXO set must match a freshly replayed chain.
        let (mut chain, mut miner, _) = setup();
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        for i in 2..=5u64 {
            let block = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(block).unwrap();
        }
        assert_eq!(chain.height(), 5);

        // Fork from b1 with 6 blocks.
        let mut fork_miner = Miner::new(
            ChainParams::regtest(),
            KeyPair::from_seed(b"deep fork").address(),
        );
        let mut parent = b1.hash();
        let mut fork_blocks = Vec::new();
        for i in 0..6u64 {
            // Mine against a replay view that knows the branch.
            let block = fork_miner.mine_block_on(&chain, parent, vec![], 601 + i * 600);
            parent = block.hash();
            fork_blocks.push(block.clone());
            chain.submit_block(block).unwrap();
        }
        assert_eq!(chain.height(), 7);
        assert_eq!(chain.tip_hash(), fork_blocks.last().unwrap().hash());

        // Replay the winning branch on a fresh chain; UTXO must agree.
        let mut replay = Chain::new(ChainParams::regtest());
        replay.submit_block(b1).unwrap();
        for block in fork_blocks {
            replay.submit_block(block).unwrap();
        }
        assert_eq!(
            chain
                .utxo()
                .balance_of(&KeyPair::from_seed(b"deep fork").address()),
            replay
                .utxo()
                .balance_of(&KeyPair::from_seed(b"deep fork").address())
        );
        assert_eq!(chain.utxo().len(), replay.utxo().len());
    }

    #[test]
    fn wrong_difficulty_rejected() {
        let (mut chain, mut miner, _) = setup();
        let mut block = miner.mine_block(&chain, vec![], 600);
        // Claim an easier-but-valid target than consensus expects.
        block.header.bits = CompactBits(0x2100ffff);
        let target = block.header.target().unwrap();
        while !crate::pow::hash_meets_target(&block.header.hash(), &target) {
            block.header.nonce += 1;
        }
        assert!(matches!(
            chain.submit_block(block),
            Err(ChainError::WrongDifficulty { .. })
        ));
    }
}
