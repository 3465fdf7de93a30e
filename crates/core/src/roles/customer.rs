//! The customer role: BTC wallet + PSC identity + escrow management.

use crate::protocol::PaymentOffer;
use btcfast_btcsim::chain::Chain;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::transaction::Transaction;
use btcfast_btcsim::wallet::{Wallet, WalletError};
use btcfast_btcsim::Amount;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::Hash256;
use btcfast_payjudger::client::CALL_GAS_LIMIT;
use btcfast_payjudger::{Call, PayJudgerClient};
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::tx::PscTransaction;

/// A BTCFast customer: owns a BTC wallet and a PSC account holding escrow.
#[derive(Clone, Debug)]
pub struct Customer {
    btc_wallet: Wallet,
    psc_keys: KeyPair,
}

impl Customer {
    /// Derives a customer deterministically from a seed.
    pub fn from_seed(seed: &[u8]) -> Customer {
        let mut btc_seed = seed.to_vec();
        btc_seed.extend_from_slice(b"/btc");
        let mut psc_seed = seed.to_vec();
        psc_seed.extend_from_slice(b"/psc");
        Customer {
            btc_wallet: Wallet::from_seed(&btc_seed),
            psc_keys: KeyPair::from_seed(&psc_seed),
        }
    }

    /// The BTC wallet.
    pub fn btc_wallet(&self) -> &Wallet {
        &self.btc_wallet
    }

    /// The PSC signing keys.
    pub fn psc_keys(&self) -> &KeyPair {
        &self.psc_keys
    }

    /// The PSC account id.
    pub fn psc_account(&self) -> AccountId {
        self.psc_keys.address().into()
    }

    /// Builds the signed BTC payment transaction (FastPay phase, step 1).
    ///
    /// # Errors
    ///
    /// Propagates [`WalletError`] on insufficient funds.
    pub fn build_btc_payment(
        &self,
        btc: &Chain,
        merchant_btc: btcfast_crypto::keys::Address,
        amount: Amount,
        fee: Amount,
        payment_tag: Option<Vec<u8>>,
    ) -> Result<Transaction, WalletError> {
        self.btc_wallet
            .create_payment(btc, merchant_btc, amount, fee, payment_tag)
    }

    /// Like [`Customer::build_btc_payment`], but never spends a coin in
    /// `exclude` — the batch driver's tool for building several payments
    /// over disjoint confirmed coins.
    ///
    /// # Errors
    ///
    /// Propagates [`WalletError`] on insufficient funds.
    pub fn build_btc_payment_excluding(
        &self,
        btc: &Chain,
        merchant_btc: btcfast_crypto::keys::Address,
        amount: Amount,
        fee: Amount,
        payment_tag: Option<Vec<u8>>,
        exclude: &std::collections::HashSet<btcfast_btcsim::transaction::OutPoint>,
    ) -> Result<Transaction, WalletError> {
        self.btc_wallet.create_payment_excluding(
            btc,
            merchant_btc,
            amount,
            fee,
            payment_tag,
            exclude,
        )
    }

    /// Builds the escrow payment registration at an explicit nonce: batched
    /// registration builds K of them at `nonce_base..nonce_base + K`, all
    /// included in one PSC block, before any is mined.
    pub fn build_open_payment_at(
        &self,
        judger: &PayJudgerClient,
        nonce: u64,
        merchant: AccountId,
        btc_txid: Hash256,
        amount_sats: u64,
        collateral: u128,
    ) -> PscTransaction {
        let call = Call::OpenPayment(merchant, btc_txid, amount_sats, collateral);
        judger.tx(&self.psc_keys, nonce, CALL_GAS_LIMIT, &call)
    }

    /// Assembles the point-of-sale offer once the registration's payment id
    /// is known.
    pub fn make_offer(&self, tx: Transaction, payment_id: u64, amount_sats: u64) -> PaymentOffer {
        PaymentOffer {
            tx,
            escrow_customer: self.psc_account(),
            payment_id,
            amount_sats,
        }
    }

    /// Builds the customer's defense in a dispute: an inclusion proof of the
    /// payment on the heaviest chain the customer can see.
    ///
    /// Returns `None` when the payment is no longer on the active chain
    /// (an honest customer has nothing to submit then — or was themselves
    /// the victim of a reorg).
    pub fn build_inclusion_evidence(&self, btc: &Chain, txid: &Hash256) -> Option<SpvEvidence> {
        btc.confirmations(txid)?;
        let evidence = SpvEvidence::from_chain(btc, 1, btc.height(), Some(txid));
        evidence.inclusion.as_ref()?;
        Some(evidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct_keys() {
        let a = Customer::from_seed(b"alice");
        let b = Customer::from_seed(b"alice");
        let c = Customer::from_seed(b"carol");
        assert_eq!(a.psc_account(), b.psc_account());
        assert_ne!(a.psc_account(), c.psc_account());
        // BTC and PSC identities differ even for the same seed.
        assert_ne!(a.btc_wallet().address().0, a.psc_keys().address().0);
    }

    #[test]
    fn offer_carries_txid() {
        use btcfast_btcsim::transaction::{OutPoint, TxIn, TxOut};
        let customer = Customer::from_seed(b"alice");
        let tx = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: Hash256([1; 32]),
                vout: 0,
            })],
            vec![TxOut::payment(
                Amount::from_sats(5).unwrap(),
                customer.btc_wallet().address(),
            )],
        );
        let txid = tx.txid();
        let offer = customer.make_offer(tx, 3, 5);
        assert_eq!(offer.txid(), txid);
        assert_eq!(offer.payment_id, 3);
        assert_eq!(offer.escrow_customer, customer.psc_account());
    }
}
