//! A typed off-chain client for PayJudger: signs [`Call`]s into PSC
//! transactions, decodes receipts, and performs view queries.

use crate::contract::{Call, CODE_ID};
use crate::evidence::check_evidence;
use crate::types::{
    CheckpointRecord, DisputeVerdict, EscrowRecord, EvidenceSummary, JudgerConfig, PaymentRecord,
};
use crate::verify::EvidenceVerifier;
use btcfast_btcsim::pow::CompactBits;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::Hash256;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::Decode;
use btcfast_pscsim::contract::ContractError;
use btcfast_pscsim::params::TX_GAS_LIMIT;
use btcfast_pscsim::tx::{Action, PscTransaction, Receipt};
use btcfast_pscsim::PscChain;

/// Gas limit the client attaches to PayJudger calls: the per-transaction
/// cap of both `PscParams` presets, so a call is signed once, at the most
/// the chain admits.
pub const CALL_GAS_LIMIT: u64 = TX_GAS_LIMIT;

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
                args: Call::Init(config.clone()).args(),
            },
        )
        .with_gas(CALL_GAS_LIMIT, gas_price)
        .sign(deployer)
    }

    /// Signs `call` from `key` at `nonce` with a `gas` limit. The attached
    /// value is the deposit's; every other call attaches none.
    pub fn tx(&self, key: &KeyPair, nonce: u64, gas: u64, call: &Call) -> PscTransaction {
        let value = match call {
            Call::Deposit(value) => *value,
            _ => 0,
        };
        PscTransaction::new(
            *key.public(),
            nonce,
            value,
            Action::Call {
                contract: self.contract,
                method: call.method().into(),
                args: call.args(),
            },
        )
        .with_gas(gas, self.gas_price)
        .sign(key)
    }

    /// Runs the view `call` as `caller` and decodes its record.
    fn view<T: Decode>(
        &self,
        chain: &PscChain,
        caller: AccountId,
        call: Call,
    ) -> Result<T, ContractError> {
        let bytes = chain.call_view(caller, self.contract, call.method(), &call.args())?;
        Ok(T::decode(&bytes)?)
    }

    /// View: the current rolling checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`].
    pub fn checkpoint(&self, chain: &PscChain) -> Result<CheckpointRecord, ContractError> {
        self.view(chain, AccountId::default(), Call::GetCheckpoint)
    }

    /// View: contract configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`] from the view call or codec.
    pub fn config(&self, chain: &PscChain) -> Result<JudgerConfig, ContractError> {
        self.view(chain, AccountId::default(), Call::GetConfig)
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
        self.view(chain, customer, Call::GetEscrow(customer))
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
        self.view(chain, customer, Call::GetPayment(customer, payment_id))
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
    use crate::evidence::EvidenceBundle;
    use crate::types::PaymentState;
    use btcfast_btcsim::chain::Chain;
    use btcfast_btcsim::miner::Miner;
    use btcfast_btcsim::params::ChainParams;
    use btcfast_btcsim::wallet::Wallet;
    use btcfast_btcsim::Amount;
    use btcfast_pscsim::codec::CodecError;
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
            Harness::deploy(WINDOW, 6)
        }

        /// The harness with PayJudger deployed at the given challenge
        /// window and Δ.
        fn deploy(challenge_window_secs: u64, min_evidence_blocks: u64) -> Harness {
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
                challenge_window_secs,
                min_evidence_blocks,
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

        fn customer_id(&self) -> AccountId {
            self.customer.address().into()
        }

        fn run(&mut self, tx: PscTransaction) -> Receipt {
            let hash = self.psc.submit_transaction(tx).unwrap();
            self.time += 15;
            self.psc.produce_block(self.time);
            self.psc.receipt(&hash).unwrap().clone()
        }

        /// The signed `call` from `key` at its next nonce.
        fn tx(&self, key: KeyPair, call: &Call) -> PscTransaction {
            let nonce = self.psc.nonce_of(&key.address().into());
            self.judger.tx(&key, nonce, CALL_GAS_LIMIT, call)
        }

        /// Sends `call` from `key` and includes it.
        fn send(&mut self, key: KeyPair, call: Call) -> Receipt {
            self.run(self.tx(key, &call))
        }

        /// Produces empty PSC blocks until chain time passes `target`.
        fn advance_time_to(&mut self, target: u64) {
            while self.time < target {
                self.time += 15;
                self.psc.produce_block(self.time);
            }
        }

        /// Waits out a challenge or evidence window.
        fn wait_window(&mut self) {
            self.advance_time_to(self.time + WINDOW + 30);
        }

        fn deposit(&mut self, value: u128) -> Receipt {
            self.send(self.customer, Call::Deposit(value))
        }

        fn open_payment_for(
            &mut self,
            btc_txid: Hash256,
            amount_sats: u64,
            collateral: u128,
        ) -> Receipt {
            let call = Call::OpenPayment(
                self.merchant.address().into(),
                btc_txid,
                amount_sats,
                collateral,
            );
            self.send(self.customer, call)
        }

        fn open_payment(&mut self, collateral: u128) -> u64 {
            let receipt = self.open_payment_for(self.pay_txid, 1_000_000, collateral);
            assert!(receipt.status.is_success(), "{:?}", receipt.status);
            PayJudgerClient::payment_id_from(&receipt).unwrap()
        }

        fn dispute(&mut self, payment_id: u64) -> Receipt {
            self.send(self.merchant, Call::Dispute(self.customer_id(), payment_id))
        }

        fn judge(&mut self, payment_id: u64) -> Receipt {
            self.send(self.merchant, Call::Judge(self.customer_id(), payment_id))
        }

        fn submit(&mut self, key: KeyPair, payment_id: u64, evidence: SpvEvidence) -> Receipt {
            let call =
                Call::SubmitEvidence(self.customer_id(), payment_id, EvidenceBundle(evidence));
            self.send(key, call)
        }

        fn advance_checkpoint(&mut self, segment: SpvEvidence) -> Receipt {
            let call = Call::AdvanceCheckpoint(EvidenceBundle(segment));
            self.send(self.merchant, call)
        }

        /// Evidence over BTC heights `from..=to`, proving `txid` when given.
        fn evidence(&self, from: u64, to: u64, txid: Option<&Hash256>) -> SpvEvidence {
            SpvEvidence::from_chain(&self.btc, from, to, txid)
        }

        /// Evidence from height 1 to the tip, proving the harness payment.
        fn full_evidence(&self) -> SpvEvidence {
            self.evidence(1, self.btc.height(), Some(&self.pay_txid))
        }
    }

    fn reverted(status: &TxStatus) -> bool {
        matches!(status, TxStatus::Reverted(_))
    }

    fn revert_status(msg: &str) -> TxStatus {
        TxStatus::Reverted(ContractError::Revert(msg.into()).to_string())
    }

    #[test]
    fn deposit_creates_escrow() {
        let mut h = Harness::new();
        let receipt = h.deposit(500_000);
        assert!(receipt.status.is_success());
        let escrow = h.judger.escrow(&h.psc, h.customer_id()).unwrap();
        assert_eq!(escrow.balance, 500_000);
        assert_eq!(escrow.locked, 0);
        // Contract holds the value.
        assert_eq!(h.psc.balance_of(&h.judger.contract), 500_000);
    }

    #[test]
    fn deposit_without_value_reverts() {
        let mut h = Harness::new();
        assert!(reverted(&h.deposit(0).status));
    }

    #[test]
    fn open_payment_locks_collateral() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let escrow = h.judger.escrow(&h.psc, h.customer_id()).unwrap();
        assert_eq!(escrow.locked, 200_000);
        assert_eq!(escrow.available(), 300_000);
        let payment = h
            .judger
            .payment(&h.psc, h.customer_id(), payment_id)
            .unwrap();
        assert_eq!(payment.state, PaymentState::Open);
        assert_eq!(payment.btc_txid, h.pay_txid);
    }

    #[test]
    fn open_payment_beyond_available_reverts() {
        let mut h = Harness::new();
        h.deposit(100_000);
        let receipt = h.open_payment_for(h.pay_txid, 1_000_000, 200_000);
        assert!(reverted(&receipt.status));
    }

    #[test]
    fn ack_unlocks_collateral() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let receipt = h.send(h.merchant, Call::AckPayment(h.customer_id(), payment_id));
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        let escrow = h.judger.escrow(&h.psc, h.customer_id()).unwrap();
        assert_eq!(escrow.locked, 0);
    }

    #[test]
    fn only_merchant_can_ack() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let interloper = KeyPair::from_seed(b"interloper");
        h.psc.faucet(interloper.address().into(), 1_000_000_000);
        let receipt = h.send(interloper, Call::AckPayment(h.customer_id(), payment_id));
        assert!(reverted(&receipt.status));
    }

    #[test]
    fn close_after_window() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let close = Call::ClosePayment(payment_id);
        // Too early.
        assert!(reverted(&h.send(h.customer, close.clone()).status));
        // After the window.
        h.wait_window();
        let receipt = h.send(h.customer, close);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        let escrow = h.judger.escrow(&h.psc, h.customer_id()).unwrap();
        assert_eq!(escrow.locked, 0);
    }

    #[test]
    fn withdraw_respects_locks() {
        let mut h = Harness::new();
        h.deposit(500_000);
        h.open_payment(200_000);
        // Withdraw more than available → revert.
        let receipt = h.send(h.customer, Call::Withdraw(400_000));
        assert!(reverted(&receipt.status));
        // Withdraw within available → ok, balance moves.
        let before = h.psc.balance_of(&h.customer_id());
        let receipt = h.send(h.customer, Call::Withdraw(250_000));
        assert!(receipt.status.is_success());
        let after = h.psc.balance_of(&h.customer_id());
        assert_eq!(after + receipt.fee_paid - before, 250_000);
    }

    #[test]
    fn dispute_and_customer_wins_with_inclusion_proof() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);

        // Merchant disputes within the window.
        let receipt = h.dispute(payment_id);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);

        // Customer answers with a full-chain inclusion proof (block 3 of 9,
        // nine headers ≥ Δ = 6).
        let receipt = h.submit(h.customer, payment_id, h.evidence(1, 9, Some(&h.pay_txid)));
        assert!(receipt.status.is_success(), "{:?}", receipt.status);

        // After the evidence window, anyone judges.
        h.wait_window();
        let receipt = h.judge(payment_id);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::CustomerWins)
        );
        let escrow = h.judger.escrow(&h.psc, h.customer_id()).unwrap();
        assert_eq!(escrow.locked, 0);
        assert_eq!(escrow.balance, 500_000); // nothing forfeited
    }

    #[test]
    fn preflight_matches_on_chain_acceptance() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let config = h.judger.config(&h.psc).unwrap();
        let preflight = |evidence: &SpvEvidence, txid: &Hash256| {
            PayJudgerClient::preflight_evidence(
                &EvidenceVerifier,
                evidence,
                &config.checkpoint,
                config.min_target_bits,
                txid,
            )
        };

        // Good evidence preflights clean and then lands on-chain.
        let evidence = h.evidence(1, 9, Some(&h.pay_txid));
        let summary = preflight(&evidence, &h.pay_txid).expect("honest evidence preflights");
        assert!(summary.includes_tx);
        assert_eq!(summary.blocks, 9);
        assert!(h.dispute(payment_id).status.is_success());
        assert!(h
            .submit(h.customer, payment_id, evidence)
            .status
            .is_success());

        // Tampered evidence is rejected off-chain with the revert message
        // the contract then charges gas to produce, byte for byte.
        let mut bad = h.evidence(1, 9, None);
        bad.segment.headers[4].nonce ^= 1;
        let err = preflight(&bad, &h.pay_txid).unwrap_err();
        assert!(err.starts_with("evidence rejected:"), "{err}");
        assert_eq!(
            h.submit(h.merchant, payment_id, bad).status,
            revert_status(&err)
        );
    }

    #[test]
    fn dispute_merchant_wins_when_payment_vanishes() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);

        // A reorg strips the payment out of the BTC chain: attacker branch
        // from block 2, longer than the current chain.
        let fork_point = h.btc.block_at_height(2).unwrap().hash();
        let mut attacker = btcfast_btcsim::attack::PrivateForkAttacker::start(
            ChainParams::regtest(),
            &h.btc,
            fork_point,
            Wallet::from_seed(b"evil").address(),
            None,
        );
        for i in 0..9 {
            attacker.extend(5100 + i * 100);
        }
        assert!(attacker.publish(&mut h.btc));
        assert_eq!(h.btc.confirmations(&h.pay_txid), None);

        // Merchant disputes and submits the heavier no-inclusion chain.
        assert!(h.dispute(payment_id).status.is_success());
        let evidence = h.full_evidence();
        assert!(evidence.inclusion.is_none()); // the payment is gone
        assert!(h
            .submit(h.merchant, payment_id, evidence)
            .status
            .is_success());

        // The customer's best answer is the old, lighter branch — build it
        // from the stale blocks. (Height 3..9 of the original chain are now
        // side blocks; the judge only cares about work.)
        // The customer cannot produce heavier evidence, so skip submission.

        h.wait_window();
        let merchant_before = h.psc.balance_of(&h.merchant.address().into());
        let receipt = h.judge(payment_id);
        assert_eq!(
            PayJudgerClient::verdict_from(&receipt),
            Some(DisputeVerdict::MerchantWins)
        );
        // Collateral moved to the merchant.
        let merchant_after = h.psc.balance_of(&h.merchant.address().into());
        assert_eq!(merchant_after + receipt.fee_paid - merchant_before, 200_000);
        let escrow = h.judger.escrow(&h.psc, h.customer_id()).unwrap();
        assert_eq!(escrow.balance, 300_000);
        assert_eq!(escrow.locked, 0);
    }

    #[test]
    fn merchant_wins_by_default_when_no_evidence() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        assert!(h.dispute(payment_id).status.is_success());
        h.wait_window();
        let receipt = h.judge(payment_id);
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
        assert!(h.dispute(payment_id).status.is_success());
        let evidence = h.evidence(1, 3, Some(&h.pay_txid));
        assert!(evidence.inclusion.is_some());
        assert!(h
            .submit(h.customer, payment_id, evidence)
            .status
            .is_success());
        h.wait_window();
        let receipt = h.judge(payment_id);
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
        h.wait_window();
        assert!(reverted(&h.dispute(payment_id).status));
    }

    #[test]
    fn judge_before_deadline_reverts() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        assert!(h.dispute(payment_id).status.is_success());
        assert!(reverted(&h.judge(payment_id).status));
    }

    #[test]
    fn outsider_cannot_submit_evidence() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        assert!(h.dispute(payment_id).status.is_success());
        let outsider = KeyPair::from_seed(b"outsider");
        h.psc.faucet(outsider.address().into(), 1_000_000_000);
        let receipt = h.submit(outsider, payment_id, h.evidence(1, 9, Some(&h.pay_txid)));
        assert!(reverted(&receipt.status));
    }

    #[test]
    fn lighter_followup_evidence_rejected() {
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        assert!(h.dispute(payment_id).status.is_success());
        let heavy = h.evidence(1, 9, Some(&h.pay_txid));
        let light = h.evidence(1, 6, Some(&h.pay_txid));
        assert!(h.submit(h.customer, payment_id, heavy).status.is_success());
        assert!(reverted(&h.submit(h.customer, payment_id, light).status));
    }

    #[test]
    fn double_init_rejected() {
        let mut h = Harness::new();
        let config = h.judger.config(&h.psc).unwrap();
        assert!(reverted(&h.send(h.customer, Call::Init(config)).status));
    }

    #[test]
    fn gas_costs_are_plausible() {
        // The E4 fee table's sanity floor: every op costs at least the
        // intrinsic 21k and evidence submission dominates.
        let mut h = Harness::new();
        let deposit = h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let dispute = h.dispute(payment_id);
        let submit = h.submit(h.customer, payment_id, h.evidence(1, 9, Some(&h.pay_txid)));
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
        let receipt = h.advance_checkpoint(h.evidence(1, h.btc.height(), None));
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
        let receipt = h.advance_checkpoint(h.evidence(1, 5, None));
        assert!(reverted(&receipt.status));
    }

    #[test]
    fn checkpoint_advancement_rejects_inclusion_proofs() {
        let mut h = Harness::new();
        grow_btc(&mut h, 6);
        let segment = h.full_evidence();
        assert!(segment.inclusion.is_some());
        assert!(reverted(&h.advance_checkpoint(segment).status));
    }

    #[test]
    fn payments_keep_their_opening_anchor_across_advancement() {
        let mut h = Harness::new();
        h.deposit(500_000);
        // Open before advancement: payment anchored at ZERO.
        let payment_id = h.open_payment(200_000);

        // Advance the checkpoint well past the payment's block.
        grow_btc(&mut h, 10);
        let segment = h.evidence(1, h.btc.height(), None);
        assert!(h.advance_checkpoint(segment).status.is_success());

        // Dispute + full-genesis evidence still works for the old payment.
        assert!(h.dispute(payment_id).status.is_success());
        assert!(h
            .submit(h.customer, payment_id, h.full_evidence())
            .status
            .is_success());
        h.wait_window();
        let receipt = h.judge(payment_id);
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
        let anchor_segment = h.evidence(1, h.btc.height(), None);
        assert!(h.advance_checkpoint(anchor_segment).status.is_success());
        let anchor_height = h.btc.height() - 6; // 13

        // A fresh payment confirmed after the anchor.
        let customer_btc = Wallet::from_seed(b"harness customer");
        let merchant_btc = Wallet::from_seed(b"harness merchant");
        let pay = customer_btc
            .create_payment(
                &h.btc,
                merchant_btc.address(),
                Amount::from_sats(400_000).unwrap(),
                Amount::from_sats(500).unwrap(),
                None,
            )
            .unwrap();
        let txid = pay.txid();
        let next_time = h.btc.tip_time() + 600;
        let block = h.btc_miner.mine_block(&h.btc, vec![pay], next_time);
        h.btc.submit_block(block).unwrap();
        grow_btc(&mut h, 7); // bury it ≥ Δ deep

        h.deposit(500_000);
        let receipt = h.open_payment_for(txid, 400_000, 200_000);
        let payment_id = PayJudgerClient::payment_id_from(&receipt).unwrap();

        // Dispute answered with a SHORT segment anchored at the rolling
        // checkpoint — the whole point of the extension.
        assert!(h.dispute(payment_id).status.is_success());
        let evidence = h.evidence(anchor_height + 1, h.btc.height(), Some(&txid));
        assert!(evidence.segment.len() < h.btc.height() as usize);
        assert!(evidence.inclusion.is_some());
        let receipt = h.submit(h.customer, payment_id, evidence);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        h.wait_window();
        let receipt = h.judge(payment_id);
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
        let mut tx = h.tx(h.customer, &Call::ClosePayment(payment_id));
        tx.value = 999;
        let receipt = h.run(tx.sign(&h.customer));
        assert!(reverted(&receipt.status));
        // The attached value bounced back with the revert.
        assert_eq!(
            h.psc.balance_of(&h.judger.contract),
            contract_balance_before
        );
    }

    #[test]
    fn windows_at_u64_max_never_expire() {
        // Deadlines saturate: a window reaching past u64::MAX stays open
        // instead of wrapping to one that already closed.
        let mut h = Harness::deploy(u64::MAX, u64::MAX);
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let close = Call::ClosePayment(payment_id);
        let status = h.send(h.customer, close).status;
        assert_eq!(status, revert_status("challenge window still open"));
        let receipt = h.dispute(payment_id);
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        let status = h.judge(payment_id).status;
        assert_eq!(status, revert_status("evidence window still open"));
        let status = h.advance_checkpoint(h.evidence(1, 5, None)).status;
        let needed = format!("advancement needs at least {} headers, got 5", usize::MAX);
        assert_eq!(status, revert_status(&needed));
    }

    /// A shared header for the pinned evidence bundles.
    fn pinned_evidence(inclusion: bool) -> EvidenceBundle {
        use btcfast_btcsim::block::BlockHeader;
        use btcfast_btcsim::spv::{HeaderSegment, TxInclusion};
        let header = BlockHeader {
            version: 1,
            prev_hash: Hash256([0x55; 32]),
            merkle_root: Hash256([0x66; 32]),
            time: 600,
            bits: CompactBits(0x207f_ffff),
            nonce: 9,
        };
        EvidenceBundle(SpvEvidence {
            segment: HeaderSegment {
                anchor: Hash256([0x55; 32]),
                headers: vec![header],
            },
            inclusion: inclusion.then(|| TxInclusion {
                txid: Hash256([0x33; 32]),
                header_index: 0,
                proof: btcfast_crypto::MerkleProof::from_parts(1, vec![Hash256([0x77; 32])]),
            }),
        })
    }

    /// One representative call per method, in table order.
    fn representative_calls() -> Vec<Call> {
        let (customer, payment_id) = (AccountId([0x11; 20]), 7);
        let config = JudgerConfig {
            checkpoint: Hash256([0x44; 32]),
            min_target_bits: 0x207f_ffff,
            challenge_window_secs: 3600,
            min_evidence_blocks: 6,
        };
        vec![
            Call::Init(config),
            Call::Deposit(5_000_000),
            Call::OpenPayment(AccountId([0x22; 20]), Hash256([0x33; 32]), 250_000, 300_000),
            Call::AckPayment(customer, payment_id),
            Call::ClosePayment(payment_id),
            Call::Dispute(customer, payment_id),
            Call::SubmitEvidence(customer, payment_id, pinned_evidence(true)),
            Call::Judge(customer, payment_id),
            Call::Withdraw(1_000),
            Call::AdvanceCheckpoint(pinned_evidence(false)),
            Call::GetConfig,
            Call::GetEscrow(customer),
            Call::GetPayment(customer, payment_id),
            Call::GetCheckpoint,
        ]
    }

    #[test]
    fn calldata_is_pinned() {
        // `method args` as the per-method builders put them on the wire
        // before the ABI became one table: one line per representative call,
        // in table order, spaces only separating fields. `C7` stands for
        // `customer ‖ payment 7`, `SEG` for the one-header segment.
        const C7: &str = "1111111111111111111111111111111111111111 0700000000000000";
        const SEG: &str =
            "5555555555555555555555555555555555555555555555555555555555555555 01000000 01000000 \
            5555555555555555555555555555555555555555555555555555555555555555 \
            6666666666666666666666666666666666666666666666666666666666666666 \
            5802000000000000 ffff7f20 0900000000000000";
        let pins = "\
            init 4444444444444444444444444444444444444444444444444444444444444444 ffff7f20 \
                100e000000000000 0600000000000000
            deposit
            open_payment 2222222222222222222222222222222222222222 \
                3333333333333333333333333333333333333333333333333333333333333333 \
                90d0030000000000 e0930400000000000000000000000000
            ack_payment C7
            close_payment 0700000000000000
            dispute C7
            submit_evidence C7 SEG 01 \
                3333333333333333333333333333333333333333333333333333333333333333 \
                00000000 0100000000000000 01000000 \
                7777777777777777777777777777777777777777777777777777777777777777
            judge C7
            withdraw e8030000000000000000000000000000
            advance_checkpoint SEG 00
            get_config
            get_escrow 1111111111111111111111111111111111111111
            get_payment C7
            get_checkpoint";
        let calls = representative_calls();
        assert_eq!(pins.lines().count(), calls.len());
        for (call, line) in calls.iter().zip(pins.lines()) {
            let mut fields = line.split_whitespace();
            let method = fields.next().unwrap();
            let hex: String = fields
                .map(|field| match field {
                    "C7" => C7.replace(' ', ""),
                    "SEG" => SEG.replace(' ', ""),
                    hex => hex.to_string(),
                })
                .collect();
            let args = call.args();
            assert_eq!(
                (call.method(), btcfast_crypto::hex::encode(&args)),
                (method, hex)
            );
            // Decoding gives back the call, but for the deposit's attached
            // value, which is not in the args.
            let back = Call::decode(method, &args)
                .unwrap()
                .expect("method in the table");
            assert_eq!((back.method(), back.args()), (method, args));
        }
    }

    #[test]
    fn unknown_method_reverts() {
        // An unknown name, then every method's args one byte long and one
        // byte short: each is refused as the call is decoded, gas billed,
        // records untouched. (`deposit` and the two argument-less views
        // have no byte to drop.)
        let mut h = Harness::new();
        h.deposit(500_000);
        let payment_id = h.open_payment(200_000);
        let records = |h: &Harness| {
            let customer = h.customer_id();
            (
                h.judger.escrow(&h.psc, customer).unwrap(),
                h.judger.payment(&h.psc, customer, payment_id).unwrap(),
                h.judger.checkpoint(&h.psc).unwrap(),
                h.psc.balance_of(&h.judger.contract),
            )
        };
        let before = records(&h);
        let send_raw = |h: &mut Harness, call: &Call, method: &str, args: Vec<u8>| {
            let mut tx = h.tx(h.customer, call);
            tx.action = Action::Call {
                contract: h.judger.contract,
                method: method.into(),
                args,
            };
            let receipt = h.run(tx.sign(&h.customer));
            let billed = receipt.gas_used >= 21_000 && receipt.fee_paid > 0;
            assert!(billed, "{method}: not billed");
            receipt.status
        };
        let status = send_raw(&mut h, &Call::GetConfig, "steal_everything", vec![]);
        let unknown = ContractError::UnknownMethod("steal_everything".into());
        assert_eq!(status, TxStatus::Reverted(unknown.to_string()));
        for call in representative_calls() {
            let (method, args) = (call.method(), call.args());
            let long = ([&args[..], &[0]].concat(), CodecError::TrailingBytes(1));
            let short = args
                .split_last()
                .map(|(_, short)| (short.to_vec(), CodecError::UnexpectedEnd));
            for (args, error) in [long].into_iter().chain(short) {
                let status = send_raw(&mut h, &call, method, args);
                let refused = ContractError::BadArguments(error).to_string();
                assert_eq!(status, TxStatus::Reverted(refused), "{method}");
            }
        }
        assert_eq!(records(&h), before);
    }
}
