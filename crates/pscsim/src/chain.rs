//! The PSC chain node: code registry, transaction pool, execution engine,
//! and block production.

use crate::account::AccountId;
use crate::block::PscBlock;
use crate::contract::{CallEffects, CallStorage, Contract, ContractError, Env, Event};
use crate::gas::GasMeter;
use crate::params::PscParams;
use crate::state::WorldState;
use crate::tx::{Action, PscTransaction, PscTxError, Receipt, TxStatus};
use btcfast_crypto::batch::{verify_batch, BatchItem};
use btcfast_crypto::sha256::Sha256;
use btcfast_crypto::Hash256;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// What a successful action returns: its return data, its events and the
/// address it deployed, if any.
type ActionOutcome = (Vec<u8>, Vec<Event>, Option<AccountId>);

/// Why [`PscChain::submit_batch`] stopped: transaction `index` failed a
/// stateless check; the transactions before it are queued, it and the
/// ones after it are not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRejected {
    /// Position of the first rejected transaction in the batch.
    pub index: usize,
    /// What [`PscChain::submit_transaction`] would have returned for it.
    pub error: PscTxError,
}

impl fmt::Display for BatchRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction {} of the batch: {}", self.index, self.error)
    }
}

impl Error for BatchRejected {}

/// A PSC chain with proof-of-authority block production.
///
/// Registered contract *code* is shared ([`Arc`]) and stateless; deployed
/// contract *instances* are accounts whose state lives in [`WorldState`]
/// storage.
#[derive(Clone)]
pub struct PscChain {
    params: PscParams,
    registry: HashMap<&'static str, Arc<dyn Contract>>,
    state: WorldState,
    blocks: Vec<PscBlock>,
    /// Admitted transactions with the hash admission computed.
    pending: Vec<(Hash256, PscTransaction)>,
    receipts: HashMap<Hash256, Receipt>,
    /// Account credited with fees (the validator).
    validator: AccountId,
    /// Cumulative gas used (diagnostics / fee tables).
    total_gas_used: u64,
}

impl std::fmt::Debug for PscChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PscChain")
            .field("params", &self.params.name)
            .field("height", &self.height())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl PscChain {
    /// Creates a chain with the given parameters.
    pub fn new(params: PscParams) -> PscChain {
        PscChain {
            params,
            registry: HashMap::new(),
            state: WorldState::new(),
            blocks: Vec::new(),
            pending: Vec::new(),
            receipts: HashMap::new(),
            validator: AccountId([0xA1; 20]),
            total_gas_used: 0,
        }
    }

    /// The chain parameters.
    pub fn params(&self) -> &PscParams {
        &self.params
    }

    /// Registers deployable contract code.
    pub fn register_code(&mut self, code: Arc<dyn Contract>) {
        self.registry.insert(code.code_id(), code);
    }

    /// Mints native balance out of thin air (test/simulation faucet),
    /// clamped to the account's remaining `u128` headroom so repeated
    /// fuzzed mints cannot overflow. Returns the amount actually minted.
    pub fn faucet(&mut self, account: AccountId, amount: u128) -> u128 {
        let headroom = u128::MAX - self.state.balance(&account);
        let minted = amount.min(headroom);
        self.state
            .credit(account, minted)
            .expect("mint is clamped to the account's headroom");
        minted
    }

    /// Current block number (0 before any block).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Timestamp of the latest block (0 at genesis).
    pub fn tip_time(&self) -> u64 {
        self.blocks.last().map(|b| b.time).unwrap_or(0)
    }

    /// Balance of an account.
    pub fn balance_of(&self, account: &AccountId) -> u128 {
        self.state.balance(account)
    }

    /// The account fees accrue to. Exposed so value-conservation audits
    /// can close their books without guessing at chain internals.
    pub fn validator(&self) -> AccountId {
        self.validator
    }

    /// Nonce of an account.
    pub fn nonce_of(&self, account: &AccountId) -> u64 {
        self.state.nonce(account)
    }

    /// The receipt of a processed transaction.
    pub fn receipt(&self, tx_hash: &Hash256) -> Option<&Receipt> {
        self.receipts.get(tx_hash)
    }

    /// A produced block by number (1-based).
    pub fn block(&self, number: u64) -> Option<&PscBlock> {
        if number == 0 || number > self.height() {
            return None;
        }
        self.blocks.get((number - 1) as usize)
    }

    /// The hash of produced block `number` (1-based), linked to its
    /// parent's hash exactly as an eagerly hashed chain would be. Blocks
    /// store no parent link, so this folds [`PscBlock::hash`] from block 1:
    /// linear in `number`. Only tests read a hash.
    #[cfg(test)]
    pub(crate) fn block_hash(&self, number: u64) -> Option<Hash256> {
        self.block(number)?;
        Some(
            self.blocks[..number as usize]
                .iter()
                .fold(Hash256::ZERO, |parent, block| block.hash(&parent)),
        )
    }

    /// Cumulative gas used across all blocks.
    pub fn total_gas_used(&self) -> u64 {
        self.total_gas_used
    }

    /// Queues a transaction for the next block after stateless checks:
    /// the one-element case of [`PscChain::submit_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`PscTxError`] for bad signatures or an over-cap gas limit.
    /// Nonce and balance are checked at execution time (they depend on
    /// in-block ordering).
    pub fn submit_transaction(&mut self, tx: PscTransaction) -> Result<Hash256, PscTxError> {
        match self.submit_batch(vec![tx]) {
            Ok(hashes) => Ok(hashes[0]),
            Err(rejected) => Err(rejected.error),
        }
    }

    /// Queues `txs` for the next block, in order, exactly as submitting
    /// them one at a time would — same hashes, same pending queue, and on
    /// failure the first failing transaction's error with everything
    /// before it queued — but with all signatures checked by one
    /// [`verify_batch`] call, so a block of registrations from one key
    /// costs one `Q` term plus a short `R` term each.
    ///
    /// The randomizer seed commits to every hash *and* signature in the
    /// batch (the hash leaves the signature out, so a seed from hashes
    /// alone would be known to whoever picks the signatures).
    ///
    /// # Errors
    ///
    /// [`BatchRejected`] naming the first transaction with a missing or
    /// invalid signature or an over-cap gas limit.
    pub fn submit_batch(
        &mut self,
        txs: Vec<PscTransaction>,
    ) -> Result<Vec<Hash256>, BatchRejected> {
        let hashes: Vec<Hash256> = txs.iter().map(PscTransaction::hash).collect();
        // Stateless checks in submit order, up to the first failure: what
        // follows it is never queued, so its signature is never needed.
        let mut rejected = None;
        let mut items = Vec::with_capacity(txs.len());
        let mut transcript = Sha256::new();
        for (index, (tx, hash)) in txs.iter().zip(&hashes).enumerate() {
            let Some(signature) = tx.signature else {
                rejected = Some((index, PscTxError::BadSignature));
                break;
            };
            transcript.update(&hash.0);
            transcript.update(&signature.to_bytes());
            items.push(BatchItem {
                pubkey: *tx.from.point(),
                digest: hash.0,
                signature,
                recovery: tx.recovery,
            });
            if tx.gas_limit > self.params.tx_gas_limit {
                let error = PscTxError::GasLimitTooHigh {
                    requested: tx.gas_limit,
                    cap: self.params.tx_gas_limit,
                };
                rejected = Some((index, error));
                break;
            }
        }
        let [s0, s1, s2, s3, s4, s5, s6, s7, ..] = transcript.finalize();
        let seed = u64::from_le_bytes([s0, s1, s2, s3, s4, s5, s6, s7]);
        // A bad signature comes before the gas cap of the same transaction
        // and before anything wrong with a later one.
        if let Some(&index) = verify_batch(&items, seed).invalid.first() {
            rejected = Some((index, PscTxError::BadSignature));
        }
        let admitted = rejected.as_ref().map_or(txs.len(), |&(index, _)| index);
        self.pending
            .extend(hashes.iter().copied().zip(txs).take(admitted));
        match rejected {
            None => Ok(hashes),
            Some((index, error)) => Err(BatchRejected { index, error }),
        }
    }

    /// Produces the next block at `time`, executing all pending
    /// transactions in submission order. A block carries neither a hash
    /// nor a state root, so producing one hashes nothing and an idle block
    /// is a push: [`PscChain::state_commitment`] computes the root when
    /// asked.
    pub fn produce_block(&mut self, time: u64) -> &PscBlock {
        let number = self.height() + 1;
        let pending = std::mem::take(&mut self.pending);
        let mut tx_hashes = Vec::with_capacity(pending.len());
        for (hash, tx) in pending {
            let receipt = self.execute(tx, hash, number, time);
            self.total_gas_used += receipt.gas_used;
            self.receipts.insert(hash, receipt);
            tx_hashes.push(hash);
        }
        let block = PscBlock {
            number,
            time,
            tx_hashes,
        };
        self.blocks.push_mut(block)
    }

    /// Executes one transaction against the state.
    fn execute(
        &mut self,
        tx: PscTransaction,
        tx_hash: Hash256,
        block_number: u64,
        block_time: u64,
    ) -> Receipt {
        let sender = tx.sender();
        let invalid = |msg: String| Receipt {
            tx_hash,
            status: TxStatus::Invalid(msg),
            gas_used: 0,
            fee_paid: 0,
            events: vec![],
            return_data: vec![],
            contract_address: None,
            block_number,
        };

        // Pre-execution checks.
        let expected_nonce = self.state.nonce(&sender);
        if tx.nonce != expected_nonce {
            return invalid(format!(
                "bad nonce: expected {expected_nonce}, got {}",
                tx.nonce
            ));
        }
        let max_cost = tx.value.saturating_add(tx.max_fee());
        if self.state.balance(&sender) < max_cost {
            return invalid("insufficient balance for value plus max fee".into());
        }

        // A valid transaction spends its nonce whatever its action does.
        self.state.account_mut(sender).nonce += 1;

        // Intrinsic gas.
        let schedule = &self.params.schedule;
        let mut meter = GasMeter::new(tx.gas_limit);
        let intrinsic = schedule.tx_intrinsic
            + schedule.calldata_byte * tx.action.calldata_len() as u64
            + schedule.ecdsa_verify;
        if meter.charge(intrinsic).is_err() {
            // Intrinsic alone exceeds the limit: whole limit burned.
            let fee = self.collect_fee(sender, tx.max_fee());
            return Receipt {
                tx_hash,
                status: TxStatus::OutOfGas,
                gas_used: tx.gas_limit,
                fee_paid: fee,
                events: vec![],
                return_data: vec![],
                contract_address: None,
                block_number,
            };
        }

        let result = self.run_action(&tx, &mut meter, block_number, block_time);
        let gas_used = meter.used();
        match result {
            Ok((return_data, events, contract_address)) => {
                let fee = (gas_used as u128).saturating_mul(tx.gas_price);
                let fee = self.collect_fee(sender, fee);
                Receipt {
                    tx_hash,
                    status: TxStatus::Succeeded,
                    gas_used,
                    fee_paid: fee,
                    events,
                    return_data,
                    contract_address,
                    block_number,
                }
            }
            Err(error) => {
                // Nothing of the action reached the state; charge the fee.
                let (status, billed_gas) = match error {
                    ContractError::OutOfGas(_) => (TxStatus::OutOfGas, tx.gas_limit),
                    other => (TxStatus::Reverted(other.to_string()), gas_used),
                };
                let fee = (billed_gas as u128).saturating_mul(tx.gas_price);
                let fee = self.collect_fee(sender, fee);
                Receipt {
                    tx_hash,
                    status,
                    gas_used: billed_gas,
                    fee_paid: fee,
                    events: vec![],
                    return_data: vec![],
                    contract_address: None,
                    block_number,
                }
            }
        }
    }

    /// Runs a transaction's action, all or nothing: a transfer is atomic
    /// on its own, and a contract call runs in a [`CallStorage`] overlay
    /// that only its success commits. A deployed account gets its code
    /// once `init` has succeeded.
    fn run_action(
        &mut self,
        tx: &PscTransaction,
        meter: &mut GasMeter,
        block_number: u64,
        block_time: u64,
    ) -> Result<ActionOutcome, ContractError> {
        let sender = tx.sender();
        let env = |contract| Env {
            caller: sender,
            contract,
            value: tx.value,
            block_number,
            block_time,
        };
        match &tx.action {
            Action::Transfer { to } => {
                self.state
                    .transfer(sender, *to, tx.value)
                    .map_err(|e| ContractError::Revert(e.to_string()))?;
                Ok((vec![], vec![], None))
            }
            Action::Deploy { code_id, args } => {
                let code = self
                    .registry
                    .get(code_id.as_str())
                    .ok_or_else(|| ContractError::Revert(format!("unknown code id {code_id:?}")))?;
                meter.charge(self.params.schedule.deploy)?;
                let contract = AccountId::contract(&sender, tx.nonce, code_id);
                let (ret, effects) =
                    self.run_contract(code, &env(contract), "init", args, meter)?;
                let events = self.state.apply_call(effects);
                self.state.account_mut(contract).code_id = Some(code_id.clone());
                Ok((ret, events, Some(contract)))
            }
            Action::Call {
                contract,
                method,
                args,
            } => {
                let code = self
                    .state
                    .account(contract)
                    .and_then(|a| a.code_id.as_deref())
                    .and_then(|id| self.registry.get(id))
                    .ok_or_else(|| {
                        ContractError::Revert(format!("account {contract} holds no code"))
                    })?;
                let (ret, effects) =
                    self.run_contract(code, &env(*contract), method, args, meter)?;
                Ok((ret, self.state.apply_call(effects), None))
            }
        }
    }

    /// Moves a fee from `sender` to the validator, capping at whatever the
    /// sender can actually pay and refunding if the validator's balance
    /// cannot absorb it (fuzzed states hold near-`u128::MAX` balances).
    /// Returns the fee actually collected — never panics on hostile input.
    fn collect_fee(&mut self, sender: AccountId, fee: u128) -> u128 {
        let paid = fee.min(self.state.balance(&sender));
        if self.state.debit(sender, paid).is_err() {
            return 0;
        }
        if self.state.credit(self.validator, paid).is_err() {
            self.state
                .credit(sender, paid)
                .expect("restoring a just-debited balance cannot overflow");
            return 0;
        }
        paid
    }

    /// Runs `method` in a fresh [`CallStorage`] overlay over the state:
    /// first the call's value moves from the caller to the contract, then
    /// the method runs. The state is untouched; the caller commits the
    /// effects with [`WorldState::apply_call`] or drops them.
    fn run_contract(
        &self,
        code: &Arc<dyn Contract>,
        env: &Env,
        method: &str,
        args: &[u8],
        meter: &mut GasMeter,
    ) -> Result<(Vec<u8>, CallEffects), ContractError> {
        let mut host = CallStorage::new(&self.state, meter, &self.params.schedule, env.contract);
        host.transfer(env.caller, env.contract, env.value)
            .map_err(|e| ContractError::Revert(e.to_string()))?;
        let ret = code.call(env, method, args, &mut host)?;
        Ok((ret, host.finish()))
    }

    /// Executes a read-only call against current state without a
    /// transaction: free, unmetered (large scratch budget), uncommitted.
    ///
    /// It runs as a transaction's call does, in a [`CallStorage`] overlay
    /// over the live state, and the overlay is dropped: the state is never
    /// cloned, and the gas is what the same call in a transaction uses.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError`] from the contract.
    pub fn call_view(
        &self,
        caller: AccountId,
        contract: AccountId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let code_id = self
            .state
            .account(&contract)
            .and_then(|a| a.code_id.clone())
            .ok_or_else(|| ContractError::Revert(format!("account {contract} holds no code")))?;
        let code = self
            .registry
            .get(code_id.as_str())
            .ok_or_else(|| ContractError::Revert(format!("unregistered code {code_id:?}")))?;
        let mut meter = GasMeter::new(u64::MAX / 2);
        let env = Env {
            caller,
            contract,
            value: 0,
            block_number: self.height(),
            block_time: self.tip_time(),
        };
        self.run_contract(code, &env, method, args, &mut meter)
            .map(|(ret, _)| ret)
    }

    /// Commitment over the current world state (the tip "state root").
    pub fn state_commitment(&self) -> Hash256 {
        self.state.commitment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Decode, Encode};
    use crate::contract::Storage;
    use btcfast_crypto::keys::KeyPair;

    /// A tiny counter contract used to exercise the runtime.
    struct Counter;

    impl Contract for Counter {
        fn code_id(&self) -> &'static str {
            "counter"
        }

        fn call(
            &self,
            env: &Env,
            method: &str,
            args: &[u8],
            storage: &mut dyn Storage,
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "init" => {
                    let start = if args.is_empty() {
                        0u64
                    } else {
                        u64::decode(args)?
                    };
                    storage.set(b"count", &start.encode())?;
                    storage.set(b"owner", &env.caller.encode())?;
                    Ok(vec![])
                }
                "increment" => {
                    let count = storage
                        .get(b"count")?
                        .map(|v| u64::decode(&v))
                        .transpose()?
                        .unwrap_or(0);
                    let next = count + 1;
                    storage.set(b"count", &next.encode())?;
                    storage.emit("Incremented", next.encode())?;
                    Ok(next.encode())
                }
                "get" => Ok(storage.get(b"count")?.unwrap_or_default()),
                "fail" => Err(ContractError::Revert("intentional failure".into())),
                "burn" => loop {
                    storage.charge(10_000)?;
                },
                "payout" => {
                    let owner = storage
                        .get(b"owner")?
                        .map(|v| AccountId::decode(&v))
                        .transpose()?
                        .ok_or_else(|| ContractError::Revert("uninitialized".into()))?;
                    let balance = storage.contract_balance();
                    storage.transfer_out(owner, balance)?;
                    Ok(vec![])
                }
                // Writes a slot and pays the call's value back, then
                // reverts: none of it may reach the state.
                "doomed" => {
                    storage.set(b"doomed", &[1])?;
                    storage.transfer_out(env.caller, env.value)?;
                    Err(ContractError::Revert("doomed".into()))
                }
                other => Err(ContractError::UnknownMethod(other.to_string())),
            }
        }
    }

    struct Fixture {
        chain: PscChain,
        alice: KeyPair,
        contract: AccountId,
    }

    fn deploy_counter() -> Fixture {
        deploy_counter_on(PscParams::ethereum_like())
    }

    fn deploy_counter_on(params: PscParams) -> Fixture {
        let mut chain = PscChain::new(params);
        chain.register_code(Arc::new(Counter));
        let alice = KeyPair::from_seed(b"alice");
        chain.faucet(alice.address().into(), 10_000_000_000);

        let deploy = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Deploy {
                code_id: "counter".into(),
                args: 5u64.encode(),
            },
        )
        .with_gas(1_000_000, 20)
        .sign(&alice);
        let hash = chain.submit_transaction(deploy).unwrap();
        chain.produce_block(15);
        let receipt = chain.receipt(&hash).unwrap().clone();
        assert!(receipt.status.is_success(), "{:?}", receipt.status);
        Fixture {
            contract: receipt.contract_address.unwrap(),
            chain,
            alice,
        }
    }

    fn call(fx: &mut Fixture, method: &str, args: Vec<u8>, value: u128, gas_limit: u64) -> Receipt {
        let nonce = fx.chain.nonce_of(&fx.alice.address().into());
        let tx = PscTransaction::new(
            *fx.alice.public(),
            nonce,
            value,
            Action::Call {
                contract: fx.contract,
                method: method.into(),
                args,
            },
        )
        .with_gas(gas_limit, 20)
        .sign(&fx.alice);
        let hash = fx.chain.submit_transaction(tx).unwrap();
        let time = fx.chain.tip_time() + 15;
        fx.chain.produce_block(time);
        fx.chain.receipt(&hash).unwrap().clone()
    }

    #[test]
    fn deploy_and_init() {
        let fx = deploy_counter();
        let count = fx
            .chain
            .call_view(fx.alice.address().into(), fx.contract, "get", &[])
            .unwrap();
        assert_eq!(u64::decode(&count).unwrap(), 5);
    }

    #[test]
    fn call_mutates_state_and_emits() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "increment", vec![], 0, 1_000_000);
        assert!(receipt.status.is_success());
        assert_eq!(u64::decode(&receipt.return_data).unwrap(), 6);
        assert_eq!(receipt.events.len(), 1);
        assert_eq!(receipt.events[0].topic, "Incremented");
        assert!(receipt.gas_used > 0);
        assert_eq!(receipt.fee_paid, receipt.gas_used as u128 * 20);
    }

    #[test]
    fn revert_rolls_back_but_charges() {
        let mut fx = deploy_counter();
        call(&mut fx, "increment", vec![], 0, 1_000_000);
        let balance_before = fx.chain.balance_of(&fx.alice.address().into());
        let receipt = call(&mut fx, "fail", vec![], 0, 1_000_000);
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        // Fee was charged.
        let balance_after = fx.chain.balance_of(&fx.alice.address().into());
        assert!(balance_after < balance_before);
        // State unchanged.
        let count = fx
            .chain
            .call_view(fx.alice.address().into(), fx.contract, "get", &[])
            .unwrap();
        assert_eq!(u64::decode(&count).unwrap(), 6);
    }

    #[test]
    fn out_of_gas_burns_full_limit() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "burn", vec![], 0, 200_000);
        assert_eq!(receipt.status, TxStatus::OutOfGas);
        assert_eq!(receipt.gas_used, 200_000);
        assert_eq!(receipt.fee_paid, 200_000 * 20);
    }

    #[test]
    fn value_transfer_to_contract_and_payout() {
        let mut fx = deploy_counter();
        let receipt = call(&mut fx, "increment", vec![], 500, 1_000_000);
        assert!(receipt.status.is_success());
        assert_eq!(fx.chain.balance_of(&fx.contract), 500);
        let receipt = call(&mut fx, "payout", vec![], 0, 1_000_000);
        assert!(receipt.status.is_success());
        assert_eq!(fx.chain.balance_of(&fx.contract), 0);
    }

    #[test]
    fn plain_transfer() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        let bob = KeyPair::from_seed(b"b");
        chain.faucet(alice.address().into(), 1_000_000_000);
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            250,
            Action::Transfer {
                to: bob.address().into(),
            },
        )
        .with_gas(100_000, 1)
        .sign(&alice);
        chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert_eq!(chain.balance_of(&bob.address().into()), 250);
    }

    #[test]
    fn bad_nonce_invalid() {
        let mut fx = deploy_counter();
        let tx = PscTransaction::new(
            *fx.alice.public(),
            99,
            0,
            Action::Call {
                contract: fx.contract,
                method: "increment".into(),
                args: vec![],
            },
        )
        .with_gas(1_000_000, 20)
        .sign(&fx.alice);
        let hash = fx.chain.submit_transaction(tx).unwrap();
        fx.chain.produce_block(30);
        assert!(matches!(
            fx.chain.receipt(&hash).unwrap().status,
            TxStatus::Invalid(_)
        ));
    }

    #[test]
    fn insufficient_balance_invalid() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let pauper = KeyPair::from_seed(b"pauper");
        let tx = PscTransaction::new(
            *pauper.public(),
            0,
            1_000,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, 1)
        .sign(&pauper);
        let hash = chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&hash).unwrap().status,
            TxStatus::Invalid(_)
        ));
    }

    #[test]
    fn unsigned_rejected_at_submission() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        );
        assert_eq!(chain.submit_transaction(tx), Err(PscTxError::BadSignature));
    }

    #[test]
    fn gas_cap_enforced() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000_000, 1)
        .sign(&alice);
        assert!(matches!(
            chain.submit_transaction(tx),
            Err(PscTxError::GasLimitTooHigh { .. })
        ));
    }

    #[test]
    fn unknown_code_reverts() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"a");
        chain.faucet(alice.address().into(), 1_000_000_000);
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            0,
            Action::Deploy {
                code_id: "ghost".into(),
                args: vec![],
            },
        )
        .with_gas(1_000_000, 1)
        .sign(&alice);
        let hash = chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&hash).unwrap().status,
            TxStatus::Reverted(_)
        ));
    }

    #[test]
    fn a_reverted_deploy_leaves_no_account() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        chain.register_code(Arc::new(Counter));
        let alice = KeyPair::from_seed(b"a");
        chain.faucet(alice.address().into(), 1_000_000_000);
        // Three bytes are no `u64`: `init` fails to decode its argument
        // after the value moved into the would-be contract's account.
        let deploy = PscTransaction::new(
            *alice.public(),
            0,
            1_000,
            Action::Deploy {
                code_id: "counter".into(),
                args: vec![1, 2, 3],
            },
        )
        .with_gas(1_000_000, 1)
        .sign(&alice);
        let hash = chain.submit_transaction(deploy).unwrap();
        chain.produce_block(15);
        let receipt = chain.receipt(&hash).unwrap();
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        assert_eq!(receipt.contract_address, None);
        let address = AccountId::contract(&alice.address().into(), 0, "counter");
        assert_eq!(chain.state.account(&address), None);
        assert_eq!(chain.nonce_of(&alice.address().into()), 1);
    }

    #[test]
    fn a_reverted_call_moves_only_the_nonce_and_the_fee() {
        let mut fx = deploy_counter();
        let alice: AccountId = fx.alice.address().into();
        let mut expected = fx.chain.state.clone();
        let receipt = call(&mut fx, "doomed", vec![], 700, 1_000_000);
        assert_eq!(
            receipt.status,
            TxStatus::Reverted("reverted: doomed".into())
        );
        assert!(receipt.fee_paid > 0);

        // The pre-call state plus the nonce and the fee, root included.
        expected.account_mut(alice).nonce += 1;
        expected
            .transfer(alice, fx.chain.validator(), receipt.fee_paid)
            .unwrap();
        assert_eq!(fx.chain.state, expected);
        assert_eq!(fx.chain.state_commitment(), expected.commitment());
    }

    /// The hash a chain that stored parent links gave `block`: the bytes
    /// are spelled out here rather than taken from [`PscBlock::hash`].
    fn eager_hash(block: &PscBlock, parent: &Hash256) -> Hash256 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&block.number.to_le_bytes());
        bytes.extend_from_slice(&block.time.to_le_bytes());
        bytes.extend_from_slice(&parent.0);
        for tx in &block.tx_hashes {
            bytes.extend_from_slice(&tx.0);
        }
        btcfast_crypto::sha256::sha256d(&bytes)
    }

    /// Produces the next block at the params' interval (whole seconds, as
    /// `advance_psc_to` rounds it) and appends its eager hash.
    fn produce_eager(chain: &mut PscChain, eager: &mut Vec<Hash256>) {
        let interval = chain.params().block_interval_secs;
        let time = ((chain.tip_time() as f64 + interval).ceil() as u64).max(chain.tip_time() + 1);
        let parent = eager.last().copied().unwrap_or(Hash256::ZERO);
        let hash = eager_hash(chain.produce_block(time), &parent);
        eager.push(hash);
    }

    /// Transaction blocks, then `idle_secs` of empty blocks, then a
    /// transaction block again: `block_hash(n)` must equal the eagerly
    /// linked hash for every `n`.
    fn lazy_hashes_equal_the_eager_chain(params: PscParams, idle_secs: u64) {
        let mut fx = deploy_counter_on(params);
        let mut eager = vec![eager_hash(fx.chain.block(1).unwrap(), &Hash256::ZERO)];
        let increment_twice = |fx: &mut Fixture, eager: &mut Vec<Hash256>| {
            let nonce = fx.chain.nonce_of(&fx.alice.address().into());
            let call = Action::Call {
                contract: fx.contract,
                method: "increment".into(),
                args: vec![],
            };
            for n in nonce..nonce + 2 {
                let tx = PscTransaction::new(*fx.alice.public(), n, 0, call.clone())
                    .with_gas(1_000_000, 20)
                    .sign(&fx.alice);
                fx.chain.submit_transaction(tx).unwrap();
            }
            produce_eager(&mut fx.chain, eager);
        };
        increment_twice(&mut fx, &mut eager);
        let idle_from = fx.chain.tip_time();
        while fx.chain.tip_time() - idle_from < idle_secs {
            produce_eager(&mut fx.chain, &mut eager);
        }
        increment_twice(&mut fx, &mut eager);

        assert_eq!(fx.chain.height(), eager.len() as u64);
        assert_eq!(fx.chain.block(2).unwrap().tx_hashes.len(), 2);
        assert_eq!(
            fx.chain.block(fx.chain.height()).unwrap().tx_hashes.len(),
            2
        );
        for (n, want) in (1..).zip(&eager) {
            assert_eq!(fx.chain.block_hash(n).as_ref(), Some(want), "block {n}");
        }
        assert_eq!(fx.chain.block_hash(0), None);
        assert_eq!(fx.chain.block_hash(fx.chain.height() + 1), None);
    }

    #[test]
    fn block_hashes_equal_the_eagerly_linked_chain() {
        // A 4 h challenge window of empty 15 s blocks: 960 of them. Every
        // read folds from block 1, so the EOS-like run is kept short.
        lazy_hashes_equal_the_eager_chain(PscParams::ethereum_like(), 4 * 3600);
        lazy_hashes_equal_the_eager_chain(PscParams::eos_like(), 300);
    }

    #[test]
    fn sequential_nonces_in_one_block() {
        // Two transfers from the same sender with nonces n and n+1 must
        // both execute when included in the same block, in order.
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"seq");
        let bob = AccountId([9; 20]);
        chain.faucet(alice.address().into(), 1_000_000_000);
        for nonce in 0..2 {
            let tx = PscTransaction::new(*alice.public(), nonce, 100, Action::Transfer { to: bob })
                .with_gas(100_000, 1)
                .sign(&alice);
            chain.submit_transaction(tx).unwrap();
        }
        chain.produce_block(15);
        assert_eq!(chain.balance_of(&bob), 200);
        assert_eq!(chain.nonce_of(&alice.address().into()), 2);
    }

    #[test]
    fn out_of_order_nonce_in_block_is_invalid() {
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"ooo");
        chain.faucet(alice.address().into(), 1_000_000_000);
        // Submit nonce 1 before nonce 0: the first (nonce 1) fails, the
        // second (nonce 0) succeeds.
        let tx1 = PscTransaction::new(
            *alice.public(),
            1,
            5,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, 1)
        .sign(&alice);
        let tx0 = PscTransaction::new(
            *alice.public(),
            0,
            5,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, 1)
        .sign(&alice);
        let h1 = chain.submit_transaction(tx1).unwrap();
        let h0 = chain.submit_transaction(tx0).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&h1).unwrap().status,
            TxStatus::Invalid(_)
        ));
        assert!(chain.receipt(&h0).unwrap().status.is_success());
    }

    #[test]
    fn hostile_gas_price_cannot_abort_execution() {
        // Found by the audit fuzzer: gas_limit × a u128::MAX gas_price
        // overflowed max_fee() (a debug-build panic) before the balance
        // pre-check could reject the transaction. The saturated cost now
        // fails the pre-check and the receipt degrades to Invalid.
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let alice = KeyPair::from_seed(b"hostile");
        chain.faucet(alice.address().into(), 1_000_000_000);
        let tx = PscTransaction::new(
            *alice.public(),
            0,
            1,
            Action::Transfer {
                to: AccountId([9; 20]),
            },
        )
        .with_gas(100_000, u128::MAX)
        .sign(&alice);
        let hash = chain.submit_transaction(tx).unwrap();
        chain.produce_block(15);
        assert!(matches!(
            chain.receipt(&hash).unwrap().status,
            TxStatus::Invalid(_)
        ));
        // Nothing moved.
        assert_eq!(chain.balance_of(&AccountId([9; 20])), 0);
        assert_eq!(chain.balance_of(&alice.address().into()), 1_000_000_000);
    }

    #[test]
    fn faucet_clamps_to_headroom() {
        // Repeated fuzzed mints used to overflow the credit; the faucet
        // now reports how much it actually minted.
        let mut chain = PscChain::new(PscParams::ethereum_like());
        let rich = AccountId([7; 20]);
        assert_eq!(chain.faucet(rich, u128::MAX), u128::MAX);
        assert_eq!(chain.faucet(rich, 500), 0);
        assert_eq!(chain.balance_of(&rich), u128::MAX);
    }

    /// Eight transfers from one funded key at sequential nonces — the
    /// shape of a shard's registration block.
    fn transfers(alice: &KeyPair) -> Vec<PscTransaction> {
        (0..8)
            .map(|nonce| {
                let to = AccountId([9; 20]);
                PscTransaction::new(*alice.public(), nonce, 100, Action::Transfer { to })
                    .with_gas(100_000, 1)
                    .sign(alice)
            })
            .collect()
    }

    /// Admission as it was before batching, one signature at a time
    /// through `verify_signature`: the reference for both doors.
    fn submit_alone(chain: &mut PscChain, tx: PscTransaction) -> Result<Hash256, PscTxError> {
        tx.verify_signature()?;
        if tx.gas_limit > chain.params.tx_gas_limit {
            return Err(PscTxError::GasLimitTooHigh {
                requested: tx.gas_limit,
                cap: chain.params.tx_gas_limit,
            });
        }
        let hash = tx.hash();
        chain.pending.push((hash, tx));
        Ok(hash)
    }

    /// Submits `txs` through `submit_batch` on one chain, one at a time
    /// through `submit_transaction` on a second and through the reference
    /// on a third, and holds everything observable equal: hashes, the
    /// error and its index, the pending queue, and after a block the
    /// blocks, the receipts and the state commitment.
    fn assert_batch_matches_sequential(txs: Vec<PscTransaction>) -> Result<(), BatchRejected> {
        let alice = KeyPair::from_seed(b"batch sender");
        let mut batched = PscChain::new(PscParams::ethereum_like());
        batched.faucet(alice.address().into(), 1_000_000_000);
        let mut sequential = batched.clone();
        let mut reference = batched.clone();

        type Submit = fn(&mut PscChain, PscTransaction) -> Result<Hash256, PscTxError>;
        let one_by_one = |chain: &mut PscChain, submit: Submit| {
            let mut hashes = Vec::new();
            for (index, tx) in txs.iter().enumerate() {
                match submit(chain, tx.clone()) {
                    Ok(hash) => hashes.push(hash),
                    Err(error) => return Err(BatchRejected { index, error }),
                }
            }
            Ok(hashes)
        };
        let expected = one_by_one(&mut reference, submit_alone);
        assert_eq!(
            one_by_one(&mut sequential, PscChain::submit_transaction),
            expected
        );
        let got = batched.submit_batch(txs.clone());
        assert_eq!(got, expected);

        for chain in [&mut batched, &mut sequential] {
            assert_eq!(chain.pending, reference.pending);
        }
        reference.produce_block(15);
        for chain in [&mut batched, &mut sequential] {
            chain.produce_block(15);
            assert_eq!(chain.blocks, reference.blocks);
            for tx in &txs {
                assert_eq!(chain.receipt(&tx.hash()), reference.receipt(&tx.hash()));
            }
            assert_eq!(chain.state_commitment(), reference.state_commitment());
        }
        got.map(|_| ())
    }

    #[test]
    fn submit_batch_matches_sequential_submission() {
        let alice = KeyPair::from_seed(b"batch sender");
        assert_eq!(assert_batch_matches_sequential(Vec::new()), Ok(()));
        assert_eq!(assert_batch_matches_sequential(transfers(&alice)), Ok(()));
        assert_eq!(
            assert_batch_matches_sequential(transfers(&alice)[..1].to_vec()),
            Ok(())
        );
    }

    #[test]
    fn submit_batch_stops_at_a_bad_signature_at_any_position() {
        let alice = KeyPair::from_seed(b"batch sender");
        for index in 0..8 {
            // Tampered after signing, unsigned, and signed by another key.
            let mut tampered = transfers(&alice);
            tampered[index].value += 1;
            let mut unsigned = transfers(&alice);
            unsigned[index].signature = None;
            let mut forged = transfers(&alice);
            forged[index].signature = transfers(&KeyPair::from_seed(b"mallory"))[index].signature;
            for txs in [tampered, unsigned, forged] {
                let error = PscTxError::BadSignature;
                assert_eq!(
                    assert_batch_matches_sequential(txs),
                    Err(BatchRejected { index, error })
                );
            }
        }
    }

    #[test]
    fn submit_batch_reports_the_gas_cap_after_the_signature() {
        let alice = KeyPair::from_seed(b"batch sender");
        let over_cap = |tx: &PscTransaction| tx.clone().with_gas(100_000_000, 1);
        // Over the cap and validly signed: the cap is the error.
        let mut txs = transfers(&alice);
        txs[5] = over_cap(&txs[5]).sign(&alice);
        let rejected = assert_batch_matches_sequential(txs).unwrap_err();
        assert_eq!(rejected.index, 5);
        assert!(matches!(rejected.error, PscTxError::GasLimitTooHigh { .. }));
        // Over the cap with a signature that no longer covers it: the
        // signature is checked first, as `submit_transaction` does.
        let mut txs = transfers(&alice);
        txs[5] = over_cap(&txs[5]);
        let error = PscTxError::BadSignature;
        assert_eq!(
            assert_batch_matches_sequential(txs),
            Err(BatchRejected { index: 5, error })
        );
        // A bad signature before the over-cap transaction wins.
        let mut txs = transfers(&alice);
        txs[5] = over_cap(&txs[5]).sign(&alice);
        txs[2].nonce += 100;
        let error = PscTxError::BadSignature;
        assert_eq!(
            assert_batch_matches_sequential(txs),
            Err(BatchRejected { index: 2, error })
        );
    }

    #[test]
    fn hints_never_change_an_admission_verdict() {
        let alice = KeyPair::from_seed(b"batch sender");
        for index in 0..8 {
            let mut missing = transfers(&alice);
            missing[index].recovery = None;
            let mut flipped = transfers(&alice);
            let hint = flipped[index]
                .recovery
                .as_mut()
                .expect("signed with a hint");
            hint.y = -hint.y;
            // A flipped hint on a transaction that is invalid anyway.
            let mut both = flipped.clone();
            both[7 - index].value += 1;
            assert_eq!(assert_batch_matches_sequential(missing), Ok(()));
            assert_eq!(assert_batch_matches_sequential(flipped), Ok(()));
            let rejected = assert_batch_matches_sequential(both).unwrap_err();
            assert_eq!(rejected.index, 7 - index);
        }
    }

    #[test]
    fn total_gas_accumulates() {
        let mut fx = deploy_counter();
        let before = fx.chain.total_gas_used();
        call(&mut fx, "increment", vec![], 0, 1_000_000);
        assert!(fx.chain.total_gas_used() > before);
    }
}
