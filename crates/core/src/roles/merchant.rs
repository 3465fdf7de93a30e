//! The merchant role: 0-conf acceptance checks, double-spend detection,
//! and dispute prosecution.

use crate::policy::check_escrow;
use crate::protocol::{Acceptance, PaymentOffer, RejectReason};
use btcfast_btcsim::chain::Chain;
use btcfast_btcsim::mempool::Mempool;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::wallet::Wallet;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::Hash256;
use btcfast_payjudger::PayJudgerClient;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::PscChain;

/// A BTCFast merchant: verifies offers against both chains before releasing
/// goods at 0 confirmations.
#[derive(Clone, Debug)]
pub struct Merchant {
    btc_wallet: Wallet,
    psc_keys: KeyPair,
}

impl Merchant {
    /// Derives a merchant deterministically from a seed.
    pub fn from_seed(seed: &[u8]) -> Merchant {
        let mut btc_seed = seed.to_vec();
        btc_seed.extend_from_slice(b"/btc");
        let mut psc_seed = seed.to_vec();
        psc_seed.extend_from_slice(b"/psc");
        Merchant {
            btc_wallet: Wallet::from_seed(&btc_seed),
            psc_keys: KeyPair::from_seed(&psc_seed),
        }
    }

    /// The BTC receiving wallet.
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

    /// The FastPay acceptance decision — the code path whose latency is the
    /// paper's headline number. Checks, in order:
    ///
    /// 1. the BTC transaction actually pays this merchant the claimed
    ///    amount;
    /// 2. it validates against the merchant's UTXO view;
    /// 3. no conflicting spend sits in the merchant's mempool;
    /// 4. the escrow registration matches (txid, merchant, state, amount)
    ///    and carries the collateral the ratio demands.
    ///
    /// # Errors
    ///
    /// Returns the specific [`RejectReason`].
    pub fn evaluate_offer(
        &self,
        offer: &PaymentOffer,
        btc: &Chain,
        mempool: &Mempool,
        psc: &PscChain,
        judger: &PayJudgerClient,
    ) -> Result<Acceptance, RejectReason> {
        // 1. Pays me?
        let paid: u64 = offer
            .tx
            .outputs_to(&self.btc_wallet.address())
            .iter()
            .map(|(_, amount)| amount.to_sats())
            .sum();
        if paid < offer.amount_sats {
            return Err(RejectReason::UnderPaid {
                paid,
                claimed: offer.amount_sats,
            });
        }

        // 2. Valid against my UTXO view?
        btc.utxo()
            .validate_transaction(&offer.tx, btc.height() + 1)
            .map_err(|e| RejectReason::InvalidTransaction(e.to_string()))?;

        // 3. Mempool conflict = double spend already visible.
        if let Some((_, existing_txid)) = mempool.find_conflict(&offer.tx) {
            return Err(RejectReason::MempoolConflict { existing_txid });
        }

        // 4. Escrow-side facts.
        let escrow = judger
            .escrow(psc, offer.escrow_customer)
            .map_err(|e| RejectReason::EscrowNotFound(e.to_string()))?;
        let payment = judger
            .payment(psc, offer.escrow_customer, offer.payment_id)
            .map_err(|e| RejectReason::EscrowNotFound(e.to_string()))?;
        if payment.btc_txid != offer.txid() {
            return Err(RejectReason::TxidMismatch {
                registered: payment.btc_txid,
            });
        }
        check_escrow(self.psc_account(), offer.amount_sats, &escrow, &payment)?;

        Ok(Acceptance {
            txid: offer.txid(),
            collateral: payment.collateral,
        })
    }

    /// Validate phase: has the accepted payment been double-spent away?
    ///
    /// True when the payment has no confirmations *and* the coins it spent
    /// are no longer spendable by it (a conflicting spend confirmed), or
    /// when a conflicting transaction is visible in the mempool.
    pub fn detect_double_spend(
        &self,
        accepted_tx: &btcfast_btcsim::transaction::Transaction,
        btc: &Chain,
        mempool: &Mempool,
    ) -> bool {
        let txid = accepted_tx.txid();
        if btc.confirmations(&txid).is_some() {
            return false; // still on the active chain
        }
        // Conflict confirmed: some input coin is gone from the UTXO set
        // without our tx being in the chain.
        let coins_gone = accepted_tx
            .inputs
            .iter()
            .any(|input| btc.utxo().coin(&input.previous_output).is_none());
        if coins_gone {
            return true;
        }
        // Conflict pending in the mempool.
        accepted_tx.inputs.iter().any(|input| {
            mempool
                .spender_of(&input.previous_output)
                .map(|spender| spender != txid)
                .unwrap_or(false)
        })
    }

    /// Builds the merchant's evidence: the heaviest chain the merchant
    /// sees, with an inclusion proof if the disputed tx happens to be on it
    /// (it won't be, if the dispute is justified).
    pub fn build_dispute_evidence(&self, btc: &Chain, disputed_txid: &Hash256) -> SpvEvidence {
        SpvEvidence::from_chain(btc, 1, btc.height(), Some(disputed_txid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_identities() {
        let a = Merchant::from_seed(b"shop");
        let b = Merchant::from_seed(b"shop");
        assert_eq!(a.psc_account(), b.psc_account());
        assert_eq!(a.btc_wallet().address(), b.btc_wallet().address());
    }

    // The acceptance and dispute paths are exercised end-to-end in
    // `session` tests and the repo-level integration tests.
}
