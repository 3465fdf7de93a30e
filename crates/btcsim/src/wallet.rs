//! A simple deterministic wallet: coin selection, payment construction,
//! change handling.

use crate::amount::Amount;
use crate::chain::Chain;
use crate::transaction::{OutPoint, Transaction, TxIn, TxOut};
use crate::utxo::Coin;
use btcfast_crypto::keys::{Address, KeyPair};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Wallet failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalletError {
    /// Spendable balance cannot cover value + fee.
    InsufficientFunds {
        /// What was needed (value + fee).
        needed: Amount,
        /// What was spendable.
        available: Amount,
    },
}

impl fmt::Display for WalletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalletError::InsufficientFunds { needed, available } => {
                write!(f, "insufficient funds: need {needed}, have {available}")
            }
        }
    }
}

impl Error for WalletError {}

/// A single-key wallet over a [`Chain`]'s UTXO set.
///
/// ```
/// use btcfast_btcsim::wallet::Wallet;
///
/// let wallet = Wallet::from_seed(b"alice");
/// assert_eq!(wallet.address(), wallet.keys().address());
/// ```
#[derive(Clone, Debug)]
pub struct Wallet {
    keys: KeyPair,
}

impl Wallet {
    /// Creates a wallet from seed bytes.
    pub fn from_seed(seed: &[u8]) -> Wallet {
        Wallet {
            keys: KeyPair::from_seed(seed),
        }
    }

    /// The wallet's key pair.
    pub fn keys(&self) -> &KeyPair {
        &self.keys
    }

    /// The receiving address.
    pub fn address(&self) -> Address {
        self.keys.address()
    }

    /// Confirmed balance on the active chain.
    pub fn balance(&self, chain: &Chain) -> Amount {
        chain.utxo().balance_of(&self.address())
    }

    /// Spendable coins at the next block height (respects coinbase
    /// maturity), sorted deterministically.
    pub fn spendable(&self, chain: &Chain) -> Vec<(OutPoint, Coin)> {
        chain
            .utxo()
            .spendable_by(&self.address(), chain.height() + 1)
    }

    /// Builds and signs a payment of `value` to `to`, paying `fee`, with
    /// change back to this wallet. Coins are selected largest-first.
    ///
    /// An optional `memo` is attached as an `OP_RETURN` output — BTCFast
    /// uses this to bind the BTC transaction to an escrow payment id.
    ///
    /// # Errors
    ///
    /// Returns [`WalletError::InsufficientFunds`] when the spendable balance
    /// cannot cover `value + fee`.
    pub fn create_payment(
        &self,
        chain: &Chain,
        to: Address,
        value: Amount,
        fee: Amount,
        memo: Option<Vec<u8>>,
    ) -> Result<Transaction, WalletError> {
        self.create_payment_excluding(chain, to, value, fee, memo, &HashSet::new())
    }

    /// Like [`Wallet::create_payment`], but never selects a coin listed in
    /// `exclude`. Batch drivers use this to build several payments that
    /// spend *disjoint* confirmed coins — each one independently valid
    /// against the confirmed UTXO set, so a merchant validating offers
    /// against the chain (not the mempool) accepts all of them.
    ///
    /// # Errors
    ///
    /// Returns [`WalletError::InsufficientFunds`] when the spendable
    /// balance outside `exclude` cannot cover `value + fee`.
    pub fn create_payment_excluding(
        &self,
        chain: &Chain,
        to: Address,
        value: Amount,
        fee: Amount,
        memo: Option<Vec<u8>>,
        exclude: &HashSet<OutPoint>,
    ) -> Result<Transaction, WalletError> {
        let needed = value
            .checked_add(fee)
            .ok_or(WalletError::InsufficientFunds {
                needed: Amount::from_sats(crate::amount::MAX_MONEY).expect("max is valid"),
                available: self.balance(chain),
            })?;
        let mut coins = self.spendable(chain);
        coins.retain(|(outpoint, _)| !exclude.contains(outpoint));
        coins.sort_by_key(|c| std::cmp::Reverse(c.1.value)); // largest first

        let mut selected: Vec<(OutPoint, Coin)> = Vec::new();
        let mut total = Amount::ZERO;
        for (outpoint, coin) in coins {
            if total >= needed {
                break;
            }
            total = total
                .checked_add(coin.value)
                .expect("wallet balance within supply");
            selected.push((outpoint, coin));
        }
        if total < needed {
            return Err(WalletError::InsufficientFunds {
                needed,
                available: total,
            });
        }

        let mut outputs = vec![TxOut::payment(value, to)];
        let change = total - needed;
        if !change.is_zero() {
            outputs.push(TxOut::payment(change, self.address()));
        }
        if let Some(data) = memo {
            outputs.push(TxOut::data(data));
        }

        let inputs: Vec<TxIn> = selected
            .iter()
            .map(|(outpoint, _)| TxIn::spend(*outpoint))
            .collect();
        let mut tx = Transaction::new(inputs, outputs);
        for (index, (_, coin)) in selected.iter().enumerate() {
            tx.sign_input(index, &self.keys, &coin.script_pubkey)
                .expect("selected coins are P2PKH to our key");
        }
        Ok(tx)
    }

    /// Builds a *conflicting* transaction spending the same coins as `tx`
    /// back to this wallet — the double-spend counterpart used by attack
    /// simulations.
    ///
    /// # Panics
    ///
    /// Panics if any input of `tx` is not a coin owned by this wallet in
    /// `chain`'s UTXO set.
    pub fn create_conflicting_spend(
        &self,
        chain: &Chain,
        tx: &Transaction,
        fee: Amount,
    ) -> Transaction {
        let mut total = Amount::ZERO;
        let mut coins = Vec::new();
        for input in &tx.inputs {
            let coin = chain
                .utxo()
                .coin(&input.previous_output)
                .expect("conflicting spend requires live coins")
                .clone();
            total = total.checked_add(coin.value).expect("within supply");
            coins.push((input.previous_output, coin));
        }
        let value = total.saturating_sub(fee);
        let inputs: Vec<TxIn> = coins
            .iter()
            .map(|(outpoint, _)| TxIn::spend(*outpoint))
            .collect();
        let mut conflict = Transaction::new(inputs, vec![TxOut::payment(value, self.address())]);
        for (index, (_, coin)) in coins.iter().enumerate() {
            conflict
                .sign_input(index, &self.keys, &coin.script_pubkey)
                .expect("coins owned by this wallet");
        }
        conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::Miner;
    use crate::params::ChainParams;
    use crate::script::ScriptPubKey;

    fn sats(v: u64) -> Amount {
        Amount::from_sats(v).unwrap()
    }

    /// Chain where `wallet` owns two matured coinbases.
    fn funded(wallet: &Wallet) -> Chain {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let mut miner = Miner::new(params.clone(), wallet.address());
        for i in 1..=2 {
            let b = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(b).unwrap();
        }
        // One maturity block mined by someone else.
        let mut other = Miner::new(params, Wallet::from_seed(b"other").address());
        let b = other.mine_block(&chain, vec![], 3 * 600);
        chain.submit_block(b).unwrap();
        chain
    }

    #[test]
    fn balance_tracks_coinbases() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let subsidy = chain.params().subsidy_at(1);
        assert_eq!(wallet.balance(&chain), sats(subsidy * 2));
    }

    #[test]
    fn payment_with_change_validates() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let merchant = Wallet::from_seed(b"m");
        let tx = wallet
            .create_payment(&chain, merchant.address(), sats(1_000_000), sats(500), None)
            .unwrap();
        let fee = chain
            .utxo()
            .validate_transaction(&tx, chain.height() + 1)
            .unwrap();
        assert_eq!(fee, sats(500));
        assert_eq!(tx.outputs_to(&merchant.address()).len(), 1);
        assert_eq!(tx.outputs_to(&wallet.address()).len(), 1); // change
    }

    #[test]
    fn payment_with_memo_carries_op_return() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let merchant = Wallet::from_seed(b"m");
        let tx = wallet
            .create_payment(
                &chain,
                merchant.address(),
                sats(1_000),
                sats(100),
                Some(b"escrow:42".to_vec()),
            )
            .unwrap();
        assert!(tx
            .outputs
            .iter()
            .any(|o| matches!(&o.script_pubkey, ScriptPubKey::OpReturn(d) if d == b"escrow:42")));
        chain
            .utxo()
            .validate_transaction(&tx, chain.height() + 1)
            .unwrap();
    }

    #[test]
    fn insufficient_funds_reported() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let merchant = Wallet::from_seed(b"m");
        let huge = sats(crate::amount::MAX_MONEY / 2);
        let err = wallet
            .create_payment(&chain, merchant.address(), huge, sats(1), None)
            .unwrap_err();
        assert!(matches!(err, WalletError::InsufficientFunds { .. }));
    }

    #[test]
    fn multi_coin_selection() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let subsidy = chain.params().subsidy_at(1);
        let merchant = Wallet::from_seed(b"m");
        // More than one coinbase's worth forces 2-input selection.
        let tx = wallet
            .create_payment(
                &chain,
                merchant.address(),
                sats(subsidy + 1000),
                sats(500),
                None,
            )
            .unwrap();
        assert_eq!(tx.inputs.len(), 2);
        chain
            .utxo()
            .validate_transaction(&tx, chain.height() + 1)
            .unwrap();
    }

    #[test]
    fn exact_spend_has_no_change() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let subsidy = chain.params().subsidy_at(1);
        let merchant = Wallet::from_seed(b"m");
        let tx = wallet
            .create_payment(
                &chain,
                merchant.address(),
                sats(subsidy - 500),
                sats(500),
                None,
            )
            .unwrap();
        assert_eq!(tx.outputs.len(), 1);
    }

    #[test]
    fn excluded_coins_are_never_selected() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let merchant = Wallet::from_seed(b"m");

        let first = wallet
            .create_payment(&chain, merchant.address(), sats(1_000_000), sats(500), None)
            .unwrap();
        let exclude: HashSet<OutPoint> = first
            .inputs
            .iter()
            .map(|input| input.previous_output)
            .collect();
        let second = wallet
            .create_payment_excluding(
                &chain,
                merchant.address(),
                sats(1_000_000),
                sats(500),
                None,
                &exclude,
            )
            .unwrap();
        for input in &second.inputs {
            assert!(!exclude.contains(&input.previous_output));
        }
        // Both are valid against the same confirmed set (disjoint coins).
        chain
            .utxo()
            .validate_transaction(&first, chain.height() + 1)
            .unwrap();
        chain
            .utxo()
            .validate_transaction(&second, chain.height() + 1)
            .unwrap();

        // Excluding everything reports insufficient funds.
        let all: HashSet<OutPoint> = wallet
            .spendable(&chain)
            .into_iter()
            .map(|(outpoint, _)| outpoint)
            .collect();
        let err = wallet
            .create_payment_excluding(&chain, merchant.address(), sats(1_000), sats(1), None, &all)
            .unwrap_err();
        assert!(matches!(err, WalletError::InsufficientFunds { .. }));
    }

    #[test]
    fn conflicting_spend_conflicts() {
        let wallet = Wallet::from_seed(b"w");
        let chain = funded(&wallet);
        let merchant = Wallet::from_seed(b"m");
        let pay = wallet
            .create_payment(&chain, merchant.address(), sats(1_000_000), sats(500), None)
            .unwrap();
        let steal = wallet.create_conflicting_spend(&chain, &pay, sats(900));
        assert_eq!(
            steal.inputs[0].previous_output,
            pay.inputs[0].previous_output
        );
        assert_ne!(steal.txid(), pay.txid());
        // Both individually valid against the same UTXO set...
        chain
            .utxo()
            .validate_transaction(&pay, chain.height() + 1)
            .unwrap();
        chain
            .utxo()
            .validate_transaction(&steal, chain.height() + 1)
            .unwrap();
        // ...but a mempool refuses the second.
        let mut pool = crate::mempool::Mempool::new();
        pool.insert(pay, chain.utxo(), chain.height() + 1, 0)
            .unwrap();
        assert!(matches!(
            pool.insert(steal, chain.utxo(), chain.height() + 1, 1),
            Err(crate::mempool::MempoolError::Conflict { .. })
        ));
    }
}
