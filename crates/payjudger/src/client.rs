//! A typed off-chain client for PayJudger: builds the PSC transactions,
//! decodes receipts, and performs view queries.

use crate::contract::CODE_ID;
use crate::evidence::{check_evidence, EvidenceBundle};
use crate::types::{
    CheckpointRecord, DisputeVerdict, EscrowRecord, EvidenceSummary, JudgerConfig, PaymentRecord,
};
use crate::verify::EvidenceVerifier;
use btcfast_btcsim::pow::CompactBits;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::Hash256;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::{Decode, Encode};
use btcfast_pscsim::contract::ContractError;
use btcfast_pscsim::tx::{Action, PscTransaction, Receipt};
use btcfast_pscsim::PscChain;

/// Gas limit the client attaches to PayJudger calls (generous; actual
/// usage is metered and refunded).
pub const CALL_GAS_LIMIT: u64 = 8_000_000;

/// A handle to a deployed PayJudger instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayJudgerClient {
    /// The contract account on the PSC chain.
    pub contract: AccountId,
    /// Gas price offered on every transaction.
    pub gas_price: u128,
}

impl PayJudgerClient {
    /// Creates a handle to an existing deployment.
    pub fn new(contract: AccountId, gas_price: u128) -> PayJudgerClient {
        PayJudgerClient {
            contract,
            gas_price,
        }
    }

    /// Builds the deployment transaction. The contract address will be in
    /// the receipt's `contract_address`.
    pub fn deploy_tx(
        deployer: &KeyPair,
        nonce: u64,
        config: &JudgerConfig,
        gas_price: u128,
    ) -> PscTransaction {
        PscTransaction::new(
            *deployer.public(),
            nonce,
            0,
            Action::Deploy {
                code_id: CODE_ID.into(),
                args: config.encode(),
            },
        )
        .with_gas(CALL_GAS_LIMIT, gas_price)
        .sign(deployer)
    }

    fn call_tx(
        &self,
        key: &KeyPair,
        nonce: u64,
        value: u128,
        method: &str,
        args: Vec<u8>,
    ) -> PscTransaction {
        PscTransaction::new(
            *key.public(),
            nonce,
            value,
            Action::Call {
                contract: self.contract,
                method: method.into(),
                args,
            },
        )
        .with_gas(CALL_GAS_LIMIT, self.gas_price)
        .sign(key)
    }

    /// `deposit()` with attached collateral value.
    pub fn deposit_tx(&self, customer: &KeyPair, nonce: u64, value: u128) -> PscTransaction {
        self.call_tx(customer, nonce, value, "deposit", vec![])
    }

    /// `open_payment(merchant, btc_txid, amount_sats, collateral)`.
    pub fn open_payment_tx(
        &self,
        customer: &KeyPair,
        nonce: u64,
        merchant: AccountId,
        btc_txid: Hash256,
        amount_sats: u64,
        collateral: u128,
    ) -> PscTransaction {
        let mut args = Vec::new();
        merchant.encode_to(&mut args);
        btc_txid.encode_to(&mut args);
        amount_sats.encode_to(&mut args);
        collateral.encode_to(&mut args);
        self.call_tx(customer, nonce, 0, "open_payment", args)
    }

    /// `ack_payment(customer, payment_id)` — merchant releases early.
    pub fn ack_payment_tx(
        &self,
        merchant: &KeyPair,
        nonce: u64,
        customer: AccountId,
        payment_id: u64,
    ) -> PscTransaction {
        self.call_tx(
            merchant,
            nonce,
            0,
            "ack_payment",
            (customer, payment_id).encode(),
        )
    }

    /// `close_payment(payment_id)` — customer closes after the window.
    pub fn close_payment_tx(
        &self,
        customer: &KeyPair,
        nonce: u64,
        payment_id: u64,
    ) -> PscTransaction {
        self.call_tx(customer, nonce, 0, "close_payment", payment_id.encode())
    }

    /// `dispute(customer, payment_id)` — merchant raises a dispute.
    pub fn dispute_tx(
        &self,
        merchant: &KeyPair,
        nonce: u64,
        customer: AccountId,
        payment_id: u64,
    ) -> PscTransaction {
        self.call_tx(
            merchant,
            nonce,
            0,
            "dispute",
            (customer, payment_id).encode(),
        )
    }

    /// `submit_evidence(customer, payment_id, bundle)`.
    pub fn submit_evidence_tx(
        &self,
        party: &KeyPair,
        nonce: u64,
        customer: AccountId,
        payment_id: u64,
        evidence: SpvEvidence,
    ) -> PscTransaction {
        let mut args = Vec::new();
        customer.encode_to(&mut args);
        payment_id.encode_to(&mut args);
        EvidenceBundle(evidence).encode_to(&mut args);
        self.call_tx(party, nonce, 0, "submit_evidence", args)
    }

    /// `judge(customer, payment_id)` — anyone may trigger after the window.
    pub fn judge_tx(
        &self,
        caller: &KeyPair,
        nonce: u64,
        customer: AccountId,
        payment_id: u64,
    ) -> PscTransaction {
        self.call_tx(caller, nonce, 0, "judge", (customer, payment_id).encode())
    }

    /// `withdraw(amount)` — customer retrieves unlocked balance.
    pub fn withdraw_tx(&self, customer: &KeyPair, nonce: u64, amount: u128) -> PscTransaction {
        self.call_tx(customer, nonce, 0, "withdraw", amount.encode())
    }

    /// `advance_checkpoint(bundle)` — rolls the evidence anchor forward
    /// (extension; any party may call).
    pub fn advance_checkpoint_tx(
        &self,
        caller: &KeyPair,
        nonce: u64,
        segment: SpvEvidence,
    ) -> PscTransaction {
        self.call_tx(
            caller,
            nonce,
            0,
            "advance_checkpoint",
            EvidenceBundle(segment).encode(),
        )
    }

    /// View: the current rolling checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`].
    pub fn checkpoint(&self, chain: &PscChain) -> Result<CheckpointRecord, ContractError> {
        let bytes = chain.call_view(AccountId::default(), self.contract, "get_checkpoint", &[])?;
        Ok(CheckpointRecord::decode(&bytes)?)
    }

    /// View: contract configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`] from the view call or codec.
    pub fn config(&self, chain: &PscChain) -> Result<JudgerConfig, ContractError> {
        let bytes = chain.call_view(AccountId::default(), self.contract, "get_config", &[])?;
        Ok(JudgerConfig::decode(&bytes)?)
    }

    /// View: a customer's escrow record.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`] — including a revert when no escrow
    /// exists.
    pub fn escrow(
        &self,
        chain: &PscChain,
        customer: AccountId,
    ) -> Result<EscrowRecord, ContractError> {
        let bytes = chain.call_view(customer, self.contract, "get_escrow", &customer.encode())?;
        Ok(EscrowRecord::decode(&bytes)?)
    }

    /// View: a payment record.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`].
    pub fn payment(
        &self,
        chain: &PscChain,
        customer: AccountId,
        payment_id: u64,
    ) -> Result<PaymentRecord, ContractError> {
        let bytes = chain.call_view(
            customer,
            self.contract,
            "get_payment",
            &(customer, payment_id).encode(),
        )?;
        Ok(PaymentRecord::decode(&bytes)?)
    }

    /// Decodes the payment id from an `open_payment` receipt.
    pub fn payment_id_from(receipt: &Receipt) -> Option<u64> {
        if !receipt.status.is_success() {
            return None;
        }
        u64::decode(&receipt.return_data).ok()
    }

    /// Decodes the verdict from a `judge` receipt.
    pub fn verdict_from(receipt: &Receipt) -> Option<DisputeVerdict> {
        if !receipt.status.is_success() {
            return None;
        }
        DisputeVerdict::decode(&receipt.return_data).ok()
    }

    /// Preflights evidence off-chain before paying to submit it: the
    /// contract's own [`check_evidence`], without the gas. An `Ok` here
    /// means the on-chain call can only fail for state reasons (window
    /// closed, wrong payment phase), never for the evidence itself.
    ///
    /// The first parameter is unused; it stays for `benchmark/`'s measured
    /// surface until ROADMAP item 2 (c).
    ///
    /// # Errors
    ///
    /// The revert message the contract would emit for this evidence.
    pub fn preflight_evidence(
        _verifier: &EvidenceVerifier,
        evidence: &SpvEvidence,
        checkpoint: &Hash256,
        min_target_bits: u32,
        expected_txid: &Hash256,
    ) -> Result<EvidenceSummary, String> {
        check_evidence(
            evidence,
            checkpoint,
            CompactBits(min_target_bits),
            expected_txid,
        )
        .map(|verified| verified.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::PayJudger;
    use crate::types::PaymentState;
    use btcfast_btcsim::chain::Chain;
    use btcfast_btcsim::miner::Miner;
    use btcfast_btcsim::params::ChainParams;
    use btcfast_btcsim::wallet::Wallet;
    use btcfast_btcsim::Amount;
    use btcfast_pscsim::params::PscParams;
    use btcfast_pscsim::tx::TxStatus;
    use std::sync::Arc;

    const WINDOW: u64 = 3600;
    const GAS_PRICE: u128 = 20;

    /// Full harness: a PSC chain with a deployed PayJudger, plus a BTC
    /// chain where a customer pays a merchant (confirmed in block 3).
    struct Harness {
        psc: PscChain,
        btc: Chain,
        judger: PayJudgerClient,
        customer: KeyPair,
        merchant: KeyPair,
        btc_miner: Miner,
        pay_txid: Hash256,
        time: u64,
    }

    impl Harness {
        fn new() -> Harness {
            // --- BTC side ---------------------------------------------------
            let params = ChainParams::regtest();
            let mut btc = Chain::new(params.clone());
            let customer_btc = Wallet::from_seed(b"harness customer");
            let merchant_btc = Wallet::from_seed(b"harness merchant");
            let mut btc_miner = Miner::new(params, customer_btc.address());
            for i in 1..=2 {
                let b = btc_miner.mine_block(&btc, vec![], i * 600);
                btc.submit_block(b).unwrap();
            }
            let pay = customer_btc
                .create_payment(
                    &btc,
                    merchant_btc.address(),
                    Amount::from_sats(1_000_000).unwrap(),
                    Amount::from_sats(500).unwrap(),
                    None,
                )
                .unwrap();
            let pay_txid = pay.txid();
            let b3 = btc_miner.mine_block(&btc, vec![pay], 1800);
            btc.submit_block(b3).unwrap();
            for i in 4..=9u64 {
                let b = btc_miner.mine_block(&btc, vec![], i * 600);
                btc.submit_block(b).unwrap();
            }

            // --- PSC side ---------------------------------------------------
            let mut psc = PscChain::new(PscParams::ethereum_like());
            psc.register_code(Arc::new(PayJudger));
            let customer = KeyPair::from_seed(b"psc customer");
            let merchant = KeyPair::from_seed(b"psc merchant");
            psc.faucet(customer.address().into(), 1_000_000_000_000);
            psc.faucet(merchant.address().into(), 1_000_000_000_000);

            let config = JudgerConfig {
                checkpoint: Hash256::ZERO,
                min_target_bits: ChainParams::regtest().pow_limit_bits.0,
                challenge_window_secs: WINDOW,
                min_evidence_blocks: 6,
            };
            let deploy = PayJudgerClient::deploy_tx(&customer, 0, &config, GAS_PRICE);
            let hash = psc.submit_transaction(deploy).unwrap();
            psc.produce_block(15);
            let receipt = psc.receipt(&hash).unwrap().clone();
            assert!(receipt.status.is_success(), "{:?}", receipt.status);
            let judger = PayJudgerClient::new(receipt.contract_address.unwrap(), GAS_PRICE);

            Harness {
                psc,
                btc,
                judger,
                customer,
                merchant,
                btc_miner,
                pay_txid,
                time: 15,
            }
        }

        fn nonce(&self, key: &KeyPair) -> u64 {
            self.psc.nonce_of(&key.address().into())
        }

        fn run(&mut self, tx: PscTransaction) -> Receipt {
            let hash = self.psc.submit_transaction(tx).unwrap();
            self.time += 15;
            self.psc.produce_block(self.time);
            self.psc.receipt(&hash).unwrap().clone()
        }

        /// Produces empty PSC blocks until chain time passes `target`.
        fn advance_time_to(&mut self, target: u64) {
            while self.time < target {
                self.time += 15;
                self.psc.produce_block(self.time);
            }
        }

        fn deposit(&mut self, value: u128) -> Receipt {
            let tx = self
                .judger
                .deposit_tx(&self.customer, self.nonce(&self.customer), value);
            self.run(tx)
        }

        fn open_payment(&mut self, collateral: u128) -> u64 {
            let tx = self.judger.open_payment_tx(
                &self.customer,
                self.nonce(&self.customer),
                self.merchant.address().into(),
                self.pay_txid,
                1_000_000,
                collateral,
            );
            let receipt = self.run(tx);
            assert!(receipt.status.is_success(), "{:?}", receipt.status);
            PayJudgerClient::payment_id_from(&receipt).unwrap()
        }
    }

    #[test]
    fn deposit_creates_escrow() {
        let mut h = Harness::new();
        let receipt = h.deposit(500_000);
        assert!(receipt.status.is_success());
        let escrow = h
            .judger
            .escrow(&h.psc, h.customer.address().into())
            .unwrap();
        assert_eq!(escrow.balance, 500_000);
        assert_eq!(escrow.locked, 0);
        // Contract holds the value.
        assert_eq!(h.psc.balance_of(&h.judger.contract), 500_000);
    }

    #[test]
    fn deposit_without_value_reverts() {
        let mut h = Harness::new();
        let receipt = h.deposit(0);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn open_payment_locks_collateral() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let escrow = h
            .judger
            .escrow(&h.psc, h.customer.address().into())
            .unwrap();
        assert_eq!(escrow.locked, 200_000);
        assert_eq!(escrow.available(), 300_000);
        let payment = h
            .judger
            .payment(&h.psc, h.customer.address().into(), payment_id)
            .unwrap();
        assert_eq!(payment.state, PaymentState::Open);
        assert_eq!(payment.btc_txid, h.pay_txid);
    }

    #[test]
    fn open_payment_beyond_available_reverts() {
        let mut h = Harness::new();
        h.deposit(100_000);
        let tx = h.judger.open_payment_tx(
            &h.customer,
            h.nonce(&h.customer),
            h.merchant.address().into(),
            h.pay_txid,
            1_000_000,
            200_000,
        );
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn ack_unlocks_collateral() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let tx = h.judger.ack_payment_tx(
            &h.merchant,
            h.nonce(&h.merchant),
            h.customer.address().into(),
            payment_id,
        );
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        let escrow = h
            .judger
            .escrow(&h.psc, h.customer.address().into())
            .unwrap();
        assert_eq!(escrow.locked, 0);
    }

    #[test]
    fn only_merchant_can_ack() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let interloper = KeyPair::from_seed(b"interloper");
        h.psc.faucet(interloper.address().into(), 1_000_000_000);
        let tx = h
            .judger
            .ack_payment_tx(&interloper, 0, h.customer.address().into(), payment_id);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn close_after_window() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        // Too early.
        let tx = h
            .judger
            .close_payment_tx(&h.customer, h.nonce(&h.customer), payment_id);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        // After the window.
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h
            .judger
            .close_payment_tx(&h.customer, h.nonce(&h.customer), payment_id);
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        let escrow = h
            .judger
            .escrow(&h.psc, h.customer.address().into())
            .unwrap();
        assert_eq!(escrow.locked, 0);
    }

    #[test]
    fn withdraw_respects_locks() {
        let mut h = Harness::new();
        h.deposit(500_000);
        h.open_payment(200_000);
        // Withdraw more than available → revert.
        let tx = h
            .judger
            .withdraw_tx(&h.customer, h.nonce(&h.customer), 400_000);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        // Withdraw within available → ok, balance moves.
        let before = h.psc.balance_of(&h.customer.address().into());
        let tx = h
            .judger
            .withdraw_tx(&h.customer, h.nonce(&h.customer), 250_000);
        let receipt = h.run(tx);
        assert!(receipt.status.is_success());
        let after = h.psc.balance_of(&h.customer.address().into());
        assert_eq!(after + receipt.fee_paid - before, 250_000);
    }

    #[test]
    fn dispute_and_customer_wins_with_inclusion_proof() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();

        // Merchant disputes within the window.
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);

        // Customer answers with a full-chain inclusion proof (block 3 of 9,
        // nine headers ≥ Δ = 6).
        let evidence =
            btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 9, Some(&h.pay_txid));
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            evidence,
        );
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);

        // After the evidence window, anyone judges.
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::CustomerWins)
        );
        let escrow = h.judger.escrow(&h.psc, customer_id).unwrap();
        assert_eq!(escrow.locked, 0);
        assert_eq!(escrow.balance, 500_000); // nothing forfeited
    }

    #[test]
    fn preflight_matches_on_chain_acceptance() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let config = h.judger.config(&h.psc).unwrap();

        // Good evidence preflights clean and then lands on-chain.
        let evidence =
            btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 9, Some(&h.pay_txid));
        let summary = PayJudgerClient::preflight_evidence(
            &EvidenceVerifier,
            &evidence,
            &config.checkpoint,
            config.min_target_bits,
            &h.pay_txid,
        )
        .expect("honest evidence preflights");
        assert!(summary.includes_tx);
        assert_eq!(summary.blocks, 9);

        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            evidence,
        );
        assert!(h.run(tx).status.is_success());

        // Tampered evidence is rejected off-chain with the revert message
        // the contract then charges gas to produce, byte for byte.
        let mut bad = btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 9, None);
        bad.segment.headers[4].nonce ^= 1;
        let err = PayJudgerClient::preflight_evidence(
            &EvidenceVerifier,
            &bad,
            &config.checkpoint,
            config.min_target_bits,
            &h.pay_txid,
        )
        .unwrap_err();
        assert!(err.starts_with("evidence rejected:"), "{err}");
        let tx = h.judger.submit_evidence_tx(
            &h.merchant,
            h.nonce(&h.merchant),
            customer_id,
            payment_id,
            bad,
        );
        assert_eq!(
            h.run(tx).status,
            TxStatus::Reverted(ContractError::Revert(err).to_string())
        );
    }

    #[test]
    fn dispute_merchant_wins_when_payment_vanishes() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();

        // A reorg strips the payment out of the BTC chain: attacker branch
        // from block 2, longer than the current chain.
        let fork_point = h.btc.block_at_height(2).unwrap().hash();
        let mut attacker = btcfast_btcsim::attack::PrivateForkAttacker::start(
            ChainParams::regtest(),
            &h.btc,
            fork_point,
            Wallet::from_seed(b"evil").address(),
            None,
            5000,
        );
        for i in 0..9 {
            attacker.extend(5100 + i * 100);
        }
        assert!(attacker.publish(&mut h.btc));
        assert_eq!(h.btc.confirmations(&h.pay_txid), None);

        // Merchant disputes and submits the heavier no-inclusion chain.
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let evidence = btcfast_btcsim::spv::SpvEvidence::from_chain(
            &h.btc,
            1,
            h.btc.height(),
            Some(&h.pay_txid),
        );
        assert!(evidence.inclusion.is_none()); // the payment is gone
        let tx = h.judger.submit_evidence_tx(
            &h.merchant,
            h.nonce(&h.merchant),
            customer_id,
            payment_id,
            evidence,
        );
        assert!(h.run(tx).status.is_success());

        // The customer's best answer is the old, lighter branch — build it
        // from the stale blocks. (Height 3..9 of the original chain are now
        // side blocks; the judge only cares about work.)
        // The customer cannot produce heavier evidence, so skip submission.

        h.advance_time_to(h.time + WINDOW + 30);
        let merchant_before = h.psc.balance_of(&h.merchant.address().into());
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::MerchantWins)
        );
        // Collateral moved to the merchant.
        let merchant_after = h.psc.balance_of(&h.merchant.address().into());
        assert_eq!(merchant_after + receipt.fee_paid - merchant_before, 200_000);
        let escrow = h.judger.escrow(&h.psc, customer_id).unwrap();
        assert_eq!(escrow.balance, 300_000);
        assert_eq!(escrow.locked, 0);
    }

    #[test]
    fn merchant_wins_by_default_when_no_evidence() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::MerchantWins)
        );
    }

    #[test]
    fn customer_with_short_evidence_loses() {
        // Δ = 6: a 3-header inclusion proof is not enough.
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let evidence =
            btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 3, Some(&h.pay_txid));
        assert!(evidence.inclusion.is_some());
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            evidence,
        );
        assert!(h.run(tx).status.is_success());
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::MerchantWins)
        );
    }

    #[test]
    fn dispute_after_window_reverts() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h.judger.dispute_tx(
            &h.merchant,
            h.nonce(&h.merchant),
            h.customer.address().into(),
            payment_id,
        );
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn judge_before_deadline_reverts() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn outsider_cannot_submit_evidence() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let outsider = KeyPair::from_seed(b"outsider");
        h.psc.faucet(outsider.address().into(), 1_000_000_000);
        let evidence =
            btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 9, Some(&h.pay_txid));
        let tx = h
            .judger
            .submit_evidence_tx(&outsider, 0, customer_id, payment_id, evidence);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn lighter_followup_evidence_rejected() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let heavy = btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 9, Some(&h.pay_txid));
        let light = btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 6, Some(&h.pay_txid));
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            heavy,
        );
        assert!(h.run(tx).status.is_success());
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            light,
        );
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn double_init_rejected() {
        let mut h = Harness::new();
        let config = h.judger.config(&h.psc).unwrap();
        let tx = PscTransaction::new(
            *h.customer.public(),
            h.nonce(&h.customer),
            0,
            Action::Call {
                contract: h.judger.contract,
                method: "init".into(),
                args: config.encode(),
            },
        )
        .with_gas(CALL_GAS_LIMIT, GAS_PRICE)
        .sign(&h.customer);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn gas_costs_are_plausible() {
        // The E4 fee table's sanity floor: every op costs at least the
        // intrinsic 21k and evidence submission dominates.
        let mut h = Harness::new();
        let deposit = h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();
        let dispute =
            h.run(
                h.judger
                    .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id),
            );
        let evidence =
            btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 9, Some(&h.pay_txid));
        let submit = h.run(h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            evidence,
        ));
        assert!(deposit.gas_used > 21_000);
        assert!(dispute.gas_used > 21_000);
        assert!(submit.gas_used > dispute.gas_used);
    }

    /// Grows the harness's BTC chain by `n` empty blocks.
    fn grow_btc(h: &mut Harness, n: u64) {
        let start = h.btc.height();
        for i in 1..=n {
            let block = h
                .btc_miner
                .mine_block(&h.btc, vec![], (start + i) * 600 + 100_000);
            h.btc.submit_block(block).unwrap();
        }
    }

    #[test]
    fn checkpoint_initializes_from_config() {
        let h = Harness::new();
        let checkpoint = h.judger.checkpoint(&h.psc).unwrap();
        assert_eq!(checkpoint.hash, Hash256::ZERO);
        assert_eq!(checkpoint.advanced_blocks, 0);
    }

    #[test]
    fn checkpoint_advances_with_deep_segment() {
        let mut h = Harness::new();
        // Chain is 9 blocks; Δ = 6 needs 12+. Grow it.
        grow_btc(&mut h, 6);
        let segment = btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, h.btc.height(), None);
        let tx = h
            .judger
            .advance_checkpoint_tx(&h.merchant, h.nonce(&h.merchant), segment);
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);

        let checkpoint = h.judger.checkpoint(&h.psc).unwrap();
        // New anchor is Δ = 6 blocks below the tip: height 15 - 6 = 9.
        let expected = h.btc.block_at_height(h.btc.height() - 6).unwrap().hash();
        assert_eq!(checkpoint.hash, expected);
        assert_eq!(checkpoint.advanced_blocks, h.btc.height() - 6);
    }

    #[test]
    fn checkpoint_advancement_rejects_short_segment() {
        let mut h = Harness::new();
        let segment = btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, 5, None);
        let tx = h
            .judger
            .advance_checkpoint_tx(&h.merchant, h.nonce(&h.merchant), segment);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn checkpoint_advancement_rejects_inclusion_proofs() {
        let mut h = Harness::new();
        grow_btc(&mut h, 6);
        let segment = btcfast_btcsim::spv::SpvEvidence::from_chain(
            &h.btc,
            1,
            h.btc.height(),
            Some(&h.pay_txid),
        );
        assert!(segment.inclusion.is_some());
        let tx = h
            .judger
            .advance_checkpoint_tx(&h.merchant, h.nonce(&h.merchant), segment);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }

    #[test]
    fn payments_keep_their_opening_anchor_across_advancement() {
        let mut h = Harness::new();
        h.deposit(500_000);
        // Open before advancement: payment anchored at ZERO.
        let payment_id = h.open_payment(200_000);
        let customer_id: AccountId = h.customer.address().into();

        // Advance the checkpoint well past the payment's block.
        grow_btc(&mut h, 10);
        let segment = btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, h.btc.height(), None);
        let tx = h
            .judger
            .advance_checkpoint_tx(&h.merchant, h.nonce(&h.merchant), segment);
        assert!(h.run(tx).status.is_success());

        // Dispute + full-genesis evidence still works for the old payment.
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let evidence = btcfast_btcsim::spv::SpvEvidence::from_chain(
            &h.btc,
            1,
            h.btc.height(),
            Some(&h.pay_txid),
        );
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            evidence,
        );
        assert!(h.run(tx).status.is_success());
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::CustomerWins)
        );
    }

    #[test]
    fn post_advancement_payment_uses_short_evidence() {
        let mut h = Harness::new();
        // Advance the anchor past the funding blocks first: use a chain
        // where the payment comes *after* the new anchor.
        grow_btc(&mut h, 10); // height 19
        let anchor_segment =
            btcfast_btcsim::spv::SpvEvidence::from_chain(&h.btc, 1, h.btc.height(), None);
        let tx = h
            .judger
            .advance_checkpoint_tx(&h.merchant, h.nonce(&h.merchant), anchor_segment);
        assert!(h.run(tx).status.is_success());
        let anchor_height = h.btc.height() - 6; // 13

        // A fresh payment confirmed after the anchor.
        let customer_btc = btcfast_btcsim::wallet::Wallet::from_seed(b"harness customer");
        let merchant_btc = btcfast_btcsim::wallet::Wallet::from_seed(b"harness merchant");
        let pay = customer_btc
            .create_payment(
                &h.btc,
                merchant_btc.address(),
                btcfast_btcsim::Amount::from_sats(400_000).unwrap(),
                btcfast_btcsim::Amount::from_sats(500).unwrap(),
                None,
            )
            .unwrap();
        let txid = pay.txid();
        let next_time = h.btc.tip_time() + 600;
        let block = h.btc_miner.mine_block(&h.btc, vec![pay], next_time);
        h.btc.submit_block(block).unwrap();
        grow_btc(&mut h, 7); // bury it ≥ Δ deep

        h.deposit(500_000);
        let tx = h.judger.open_payment_tx(
            &h.customer,
            h.nonce(&h.customer),
            h.merchant.address().into(),
            txid,
            400_000,
            200_000,
        );
        let receipt = h.run(tx);
        let payment_id = PayJudgerClient::payment_id_from(&receipt).unwrap();
        let customer_id: AccountId = h.customer.address().into();

        // Dispute answered with a SHORT segment anchored at the rolling
        // checkpoint — the whole point of the extension.
        let tx = h
            .judger
            .dispute_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        assert!(h.run(tx).status.is_success());
        let evidence = btcfast_btcsim::spv::SpvEvidence::from_chain(
            &h.btc,
            anchor_height + 1,
            h.btc.height(),
            Some(&txid),
        );
        assert!(evidence.segment.len() < h.btc.height() as usize);
        assert!(evidence.inclusion.is_some());
        let tx = h.judger.submit_evidence_tx(
            &h.customer,
            h.nonce(&h.customer),
            customer_id,
            payment_id,
            evidence,
        );
        let receipt = h.run(tx);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        h.advance_time_to(h.time + WINDOW + 30);
        let tx = h
            .judger
            .judge_tx(&h.merchant, h.nonce(&h.merchant), customer_id, payment_id);
        let receipt = h.run(tx);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::CustomerWins)
        );
    }

    #[test]
    fn value_on_non_payable_method_reverts() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        // Attach value to close_payment — must revert, not strand funds.
        let contract_balance_before = h.psc.balance_of(&h.judger.contract);
        let tx = PscTransaction::new(
            *h.customer.public(),
            h.nonce(&h.customer),
            999,
            Action::Call {
                contract: h.judger.contract,
                method: "close_payment".into(),
                args: payment_id.encode(),
            },
        )
        .with_gas(CALL_GAS_LIMIT, GAS_PRICE)
        .sign(&h.customer);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        // The attached value bounced back with the revert.
        assert_eq!(
            h.psc.balance_of(&h.judger.contract),
            contract_balance_before
        );
    }

    #[test]
    fn unknown_method_reverts() {
        let mut h = Harness::new();
        let tx = PscTransaction::new(
            *h.customer.public(),
            h.nonce(&h.customer),
            0,
            Action::Call {
                contract: h.judger.contract,
                method: "steal_everything".into(),
                args: vec![],
            },
        )
        .with_gas(CALL_GAS_LIMIT, GAS_PRICE)
        .sign(&h.customer);
        let receipt = h.run(tx);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
    }
}
