//! The mempool: unconfirmed transactions with double-spend conflict
//! detection.
//!
//! Conflict detection is the merchant's first line of defense in BTCFast's
//! fast-pay phase: a conflicting transaction appearing in the mempool (or in
//! a block) is exactly the observable event that triggers a dispute.

use crate::amount::Amount;
use crate::transaction::{OutPoint, Transaction};
use crate::utxo::{validate_against, Coin, CoinView, UtxoError, UtxoSet};
use btcfast_crypto::Hash256;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// An entry in the pool.
#[derive(Clone, Debug)]
pub struct MempoolEntry {
    /// The transaction.
    pub tx: Transaction,
    /// Fee it pays.
    pub fee: Amount,
    /// Serialized size (fee-rate denominator).
    pub size: usize,
    /// Sim time the pool first saw it.
    pub seen_at: u64,
}

impl MempoolEntry {
    /// Fee rate in satoshis per byte.
    pub fn fee_rate(&self) -> f64 {
        self.fee.to_sats() as f64 / self.size.max(1) as f64
    }
}

/// Why a transaction was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MempoolError {
    /// Already in the pool.
    Duplicate,
    /// Spends an outpoint another pooled transaction already spends —
    /// an attempted double spend.
    Conflict {
        /// The outpoint contested.
        outpoint: OutPoint,
        /// The transaction already holding it.
        existing_txid: Hash256,
    },
    /// Fails validation against the confirmed UTXO set.
    Invalid(UtxoError),
}

impl fmt::Display for MempoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MempoolError::Duplicate => write!(f, "transaction already in mempool"),
            MempoolError::Conflict {
                outpoint,
                existing_txid,
            } => write!(
                f,
                "double spend of {outpoint}: already spent by {existing_txid}"
            ),
            MempoolError::Invalid(e) => write!(f, "invalid transaction: {e}"),
        }
    }
}

impl Error for MempoolError {}

/// Admission-control counters (observability; saturating).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions accepted into the pool.
    pub admitted: u64,
    /// Insert attempts refused (duplicate, conflict, or invalid).
    pub rejected: u64,
    /// The subset of rejections that were double-spend conflicts — the
    /// observable that triggers a BTCFast dispute.
    pub conflicts: u64,
}

/// A pool of unconfirmed transactions.
///
/// Chained unconfirmed transactions (child spends parent's output while both
/// are pooled) are supported: validation runs against the confirmed UTXO set
/// *plus* pooled outputs.
#[derive(Clone, Debug, Default)]
pub struct Mempool {
    entries: HashMap<Hash256, MempoolEntry>,
    /// Outpoint → txid of the pooled spender (the conflict index).
    spends: HashMap<OutPoint, Hash256>,
    /// Spendable outputs created by pooled transactions, so chained
    /// unconfirmed spends validate against an overlay instead of cloning
    /// and replaying the whole confirmed set per insert.
    outputs: HashMap<OutPoint, Coin>,
    /// Fee-rate-descending selection index (ties broken by txid for
    /// determinism), maintained incrementally on insert/remove instead of
    /// being re-sorted on every `select_for_block` call.
    order: BTreeMap<(u64, Hash256), ()>,
    /// Admission counters since construction.
    stats: MempoolStats,
}

/// The confirmed set overlaid with pooled outputs, minus everything pooled
/// transactions already spend — the view an incoming transaction's inputs
/// must resolve against.
struct PoolView<'a> {
    base: &'a UtxoSet,
    pool: &'a Mempool,
}

impl CoinView for PoolView<'_> {
    fn view_coin(&self, outpoint: &OutPoint) -> Option<&Coin> {
        if self.pool.spends.contains_key(outpoint) {
            return None;
        }
        self.pool
            .outputs
            .get(outpoint)
            .or_else(|| self.base.coin(outpoint))
    }

    fn view_maturity(&self) -> u64 {
        self.base.view_maturity()
    }
}

/// The selection-index key: fee rate descending, then txid ascending.
fn priority_key(txid: Hash256, entry: &MempoolEntry) -> (u64, Hash256) {
    // Negate the (scaled) fee rate so BTreeMap ascending order gives
    // descending fee rate.
    (u64::MAX - (entry.fee_rate() * 1000.0) as u64, txid)
}

impl Mempool {
    /// Creates an empty pool.
    pub fn new() -> Mempool {
        Mempool::default()
    }

    /// Number of pooled transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry.
    pub fn get(&self, txid: &Hash256) -> Option<&MempoolEntry> {
        self.entries.get(txid)
    }

    /// True if the pool holds the transaction.
    pub fn contains(&self, txid: &Hash256) -> bool {
        self.entries.contains_key(txid)
    }

    /// Admission counters since construction.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// Returns the pooled transaction spending `outpoint`, if any — the
    /// double-spend observation primitive.
    pub fn spender_of(&self, outpoint: &OutPoint) -> Option<Hash256> {
        self.spends.get(outpoint).copied()
    }

    /// Checks whether `tx` conflicts with any pooled transaction, without
    /// inserting.
    pub fn find_conflict(&self, tx: &Transaction) -> Option<(OutPoint, Hash256)> {
        let txid = tx.txid();
        for input in &tx.inputs {
            if let Some(existing) = self.spends.get(&input.previous_output) {
                if *existing != txid {
                    return Some((input.previous_output, *existing));
                }
            }
        }
        None
    }

    /// Attempts to add `tx`, validating against `utxo` (confirmed set) at
    /// `height` while honoring outputs of already-pooled ancestors.
    ///
    /// # Errors
    ///
    /// See [`MempoolError`]; the pool is unchanged on error.
    pub fn insert(
        &mut self,
        tx: Transaction,
        utxo: &UtxoSet,
        height: u64,
        now: u64,
    ) -> Result<Hash256, MempoolError> {
        let txid = tx.txid();
        if self.entries.contains_key(&txid) {
            self.stats.rejected = self.stats.rejected.saturating_add(1);
            return Err(MempoolError::Duplicate);
        }
        if let Some((outpoint, existing_txid)) = self.find_conflict(&tx) {
            self.stats.rejected = self.stats.rejected.saturating_add(1);
            self.stats.conflicts = self.stats.conflicts.saturating_add(1);
            return Err(MempoolError::Conflict {
                outpoint,
                existing_txid,
            });
        }
        // Validate against the confirmed set overlaid with pooled outputs
        // (no clone-and-replay of the whole set).
        let view = PoolView {
            base: utxo,
            pool: self,
        };
        let fee = match validate_against(&view, &tx, height) {
            Ok(fee) => fee,
            Err(e) => {
                self.stats.rejected = self.stats.rejected.saturating_add(1);
                return Err(MempoolError::Invalid(e));
            }
        };

        let size = tx.size_bytes();
        for input in &tx.inputs {
            self.spends.insert(input.previous_output, txid);
        }
        for (vout, output) in tx.outputs.iter().enumerate() {
            if output.script_pubkey.is_unspendable() {
                continue;
            }
            self.outputs.insert(
                OutPoint {
                    txid,
                    vout: vout as u32,
                },
                Coin {
                    value: output.value,
                    script_pubkey: output.script_pubkey.clone(),
                    height,
                    is_coinbase: false,
                },
            );
        }
        let entry = MempoolEntry {
            tx,
            fee,
            size,
            seen_at: now,
        };
        self.order.insert(priority_key(txid, &entry), ());
        self.entries.insert(txid, entry);
        self.stats.admitted = self.stats.admitted.saturating_add(1);
        Ok(txid)
    }

    /// Removes a transaction (and its spend/output/selection-index
    /// entries).
    pub fn remove(&mut self, txid: &Hash256) -> Option<MempoolEntry> {
        let entry = self.entries.remove(txid)?;
        for input in &entry.tx.inputs {
            if self.spends.get(&input.previous_output) == Some(txid) {
                self.spends.remove(&input.previous_output);
            }
        }
        for vout in 0..entry.tx.outputs.len() {
            self.outputs.remove(&OutPoint {
                txid: *txid,
                vout: vout as u32,
            });
        }
        self.order.remove(&priority_key(*txid, &entry));
        Some(entry)
    }

    /// Purges transactions confirmed in (or conflicting with) a new block.
    pub fn purge_confirmed(&mut self, block_txs: &[Transaction]) {
        for tx in block_txs {
            let txid = tx.txid();
            self.remove(&txid);
            // Also drop pooled conflicts: anything spending the same coins.
            for input in &tx.inputs {
                if let Some(conflicting) = self.spends.get(&input.previous_output).copied() {
                    self.remove(&conflicting);
                }
            }
        }
    }

    /// Selects up to `max` transactions by descending fee rate for a block
    /// template, parents before children.
    pub fn select_for_block(&self, max: usize) -> Vec<Transaction> {
        // Walk the maintained fee-rate index; no per-call sort.
        let mut selected: Vec<Transaction> = Vec::new();
        let mut selected_ids: std::collections::HashSet<Hash256> = Default::default();
        for (_, txid) in self.order.keys() {
            if selected.len() >= max {
                break;
            }
            let Some(entry) = self.entries.get(txid) else {
                continue;
            };
            // Pull pooled parents first.
            self.push_with_ancestors(&entry.tx, &mut selected, &mut selected_ids, max);
        }
        selected
    }

    fn push_with_ancestors(
        &self,
        tx: &Transaction,
        selected: &mut Vec<Transaction>,
        selected_ids: &mut std::collections::HashSet<Hash256>,
        max: usize,
    ) {
        let txid = tx.txid();
        if selected_ids.contains(&txid) || selected.len() >= max {
            return;
        }
        for input in &tx.inputs {
            if let Some(parent) = self.entries.get(&input.previous_output.txid) {
                self.push_with_ancestors(&parent.tx, selected, selected_ids, max);
            }
        }
        if selected.len() < max && selected_ids.insert(txid) {
            selected.push(tx.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Chain;
    use crate::miner::Miner;
    use crate::params::ChainParams;
    use crate::script::ScriptPubKey;
    use crate::transaction::{TxIn, TxOut};
    use btcfast_crypto::keys::KeyPair;

    fn sats(v: u64) -> Amount {
        Amount::from_sats(v).unwrap()
    }

    /// Chain with one spendable coinbase owned by `key`.
    fn funded_chain(key: &KeyPair) -> (Chain, Transaction) {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let mut miner = Miner::new(params, key.address());
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        // One more block so the coinbase matures (maturity = 1).
        let b2 = miner.mine_block(&chain, vec![], 1200);
        chain.submit_block(b2).unwrap();
        (chain, b1.transactions[0].clone())
    }

    fn spend(
        coinbase: &Transaction,
        owner: &KeyPair,
        to: &KeyPair,
        value: Amount,
        fee: Amount,
    ) -> Transaction {
        let change = coinbase.outputs[0].value - value - fee;
        let mut tx = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: coinbase.txid(),
                vout: 0,
            })],
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
    fn insert_and_query() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let tx = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        let txid = pool
            .insert(tx.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        assert!(pool.contains(&txid));
        assert_eq!(pool.get(&txid).unwrap().fee, sats(200));
        assert_eq!(pool.spender_of(&tx.inputs[0].previous_output), Some(txid));
    }

    #[test]
    fn duplicate_rejected() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let tx = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        pool.insert(tx.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        assert_eq!(
            pool.insert(tx, chain.utxo(), chain.height() + 1, 0),
            Err(MempoolError::Duplicate)
        );
    }

    #[test]
    fn double_spend_detected() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let pay_merchant = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        let pay_self = spend(&coinbase, &key, &key, sats(1000), sats(500));
        let first_txid = pool
            .insert(pay_merchant.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        let err = pool
            .insert(pay_self, chain.utxo(), chain.height() + 1, 1)
            .unwrap_err();
        match err {
            MempoolError::Conflict {
                outpoint,
                existing_txid,
            } => {
                assert_eq!(outpoint, pay_merchant.inputs[0].previous_output);
                assert_eq!(existing_txid, first_txid);
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.conflicts), (1, 1, 1));
    }

    #[test]
    fn invalid_tx_rejected() {
        let key = KeyPair::from_seed(b"k");
        let (chain, _) = funded_chain(&key);
        let mut pool = Mempool::new();
        let mut ghost = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: Hash256([1; 32]),
                vout: 0,
            })],
            vec![TxOut::payment(sats(1), key.address())],
        );
        ghost
            .sign_input(0, &key, &ScriptPubKey::P2pkh(key.address()))
            .unwrap();
        assert!(matches!(
            pool.insert(ghost, chain.utxo(), chain.height() + 1, 0),
            Err(MempoolError::Invalid(_))
        ));
    }

    #[test]
    fn chained_unconfirmed_accepted() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let parent = spend(&coinbase, &key, &merchant, sats(100_000), sats(200));
        let parent_txid = pool
            .insert(parent.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        // Child spends the merchant's unconfirmed output.
        let mut child = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: parent_txid,
                vout: 0,
            })],
            vec![TxOut::payment(sats(99_000), key.address())],
        );
        child
            .sign_input(0, &merchant, &parent.outputs[0].script_pubkey)
            .unwrap();
        pool.insert(child, chain.utxo(), chain.height() + 1, 1)
            .unwrap();
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn purge_confirmed_removes_tx_and_conflicts() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let pay_merchant = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        pool.insert(pay_merchant.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        // A conflicting tx confirms (the double spend won the race).
        let pay_self = spend(&coinbase, &key, &key, sats(1000), sats(500));
        pool.purge_confirmed(&[pay_self]);
        assert!(pool.is_empty());
    }

    #[test]
    fn select_orders_by_fee_rate_with_ancestors_first() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let parent = spend(&coinbase, &key, &merchant, sats(100_000), sats(100)); // low fee
        let parent_txid = pool
            .insert(parent.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        let mut child = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: parent_txid,
                vout: 0,
            })],
            vec![TxOut::payment(sats(50_000), key.address())], // huge fee
        );
        child
            .sign_input(0, &merchant, &parent.outputs[0].script_pubkey)
            .unwrap();
        let child_txid = pool
            .insert(child, chain.utxo(), chain.height() + 1, 1)
            .unwrap();

        let selected = pool.select_for_block(10);
        let ids: Vec<Hash256> = selected.iter().map(|t| t.txid()).collect();
        let parent_pos = ids.iter().position(|h| *h == parent_txid).unwrap();
        let child_pos = ids.iter().position(|h| *h == child_txid).unwrap();
        assert!(parent_pos < child_pos, "parent must precede child");
    }

    #[test]
    fn select_respects_max() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let tx = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        pool.insert(tx, chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        assert!(pool.select_for_block(0).is_empty());
    }

    #[test]
    fn grandchild_chain_accepted_via_overlay() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let parent = spend(&coinbase, &key, &merchant, sats(100_000), sats(200));
        let parent_txid = pool
            .insert(parent.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        let mut child = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: parent_txid,
                vout: 0,
            })],
            vec![TxOut::payment(sats(99_000), key.address())],
        );
        child
            .sign_input(0, &merchant, &parent.outputs[0].script_pubkey)
            .unwrap();
        let child_txid = pool
            .insert(child.clone(), chain.utxo(), chain.height() + 1, 1)
            .unwrap();
        // Grandchild spends the child's unconfirmed output.
        let mut grandchild = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: child_txid,
                vout: 0,
            })],
            vec![TxOut::payment(sats(98_000), merchant.address())],
        );
        grandchild
            .sign_input(0, &key, &child.outputs[0].script_pubkey)
            .unwrap();
        pool.insert(grandchild, chain.utxo(), chain.height() + 1, 2)
            .unwrap();
        assert_eq!(pool.len(), 3);
        // The whole chain selects parents-first.
        let ids: Vec<Hash256> = pool.select_for_block(10).iter().map(|t| t.txid()).collect();
        let parent_pos = ids.iter().position(|h| *h == parent_txid).unwrap();
        let child_pos = ids.iter().position(|h| *h == child_txid).unwrap();
        assert!(parent_pos < child_pos);
    }

    #[test]
    fn selection_index_survives_remove_and_reinsert() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let tx = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        let txid = pool
            .insert(tx.clone(), chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        pool.remove(&txid);
        assert!(pool.select_for_block(10).is_empty());
        assert_eq!(pool.len(), 0);
        // Re-insert works: output/order indexes were fully cleared.
        pool.insert(tx, chain.utxo(), chain.height() + 1, 1)
            .unwrap();
        assert_eq!(pool.select_for_block(10).len(), 1);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn remove_clears_spend_index() {
        let key = KeyPair::from_seed(b"k");
        let merchant = KeyPair::from_seed(b"m");
        let (chain, coinbase) = funded_chain(&key);
        let mut pool = Mempool::new();
        let tx = spend(&coinbase, &key, &merchant, sats(1000), sats(200));
        let outpoint = tx.inputs[0].previous_output;
        let txid = pool
            .insert(tx, chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        pool.remove(&txid);
        assert_eq!(pool.spender_of(&outpoint), None);
        assert!(pool.is_empty());
    }
}
