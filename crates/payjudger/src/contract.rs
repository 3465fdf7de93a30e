//! The PayJudger contract: escrow lifecycle and the PoW-based payment
//! judgment, and [`Call`], its ABI.

use crate::evidence::{heavier, verify_on_chain, EvidenceBundle};
use crate::types::{
    CheckpointRecord, DisputeVerdict, EscrowRecord, JudgerConfig, PaymentRecord, PaymentState,
};
use btcfast_crypto::Hash256;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::{tagged_codec, Decode, Encode};
use btcfast_pscsim::contract::{Contract, ContractError, Env, Storage};

/// The registry code id under which PayJudger deploys.
pub const CODE_ID: &str = "payjudger";

/// One PayJudger call: the contract's whole ABI, one variant per method.
/// A variant's fields, encoded in order, are the call's args, and the
/// contract decodes the same table its callers encode. Only `deposit` is
/// payable: its value rides as the transaction's attached value, not as
/// an arg. Any account may send any call; the contract refuses a sender
/// the variant's doc does not name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Call {
    /// `init(config)`: the deployment-time constructor; reverts once
    /// initialized.
    Init(JudgerConfig),
    /// `deposit()` with the attached value (positive): credits the
    /// sender's escrow; returns the escrow balance (`u128`). Decoded from
    /// calldata it reads 0; the contract takes the attached value.
    Deposit(u128),
    /// `open_payment(merchant, btc_txid, amount_sats, collateral)`: the
    /// customer locks `collateral` of its escrow behind the Bitcoin payment
    /// `btc_txid` to `merchant` (not itself); returns the payment id
    /// (`u64`).
    OpenPayment(AccountId, Hash256, u64, u128),
    /// `ack_payment(customer, payment_id)`: the payee merchant releases an
    /// open payment early.
    AckPayment(AccountId, u64),
    /// `close_payment(payment_id)`: the customer closes its own open
    /// payment once the challenge window has passed.
    ClosePayment(u64),
    /// `dispute(customer, payment_id)`: the payee merchant disputes an open
    /// payment inside the challenge window.
    Dispute(AccountId, u64),
    /// `submit_evidence(customer, payment_id, bundle)`: either disputing
    /// party files SPV evidence inside the evidence window; returns the
    /// accepted work (32 big-endian bytes).
    SubmitEvidence(AccountId, u64, EvidenceBundle),
    /// `judge(customer, payment_id)`: anyone settles a dispute after the
    /// evidence window; returns the [`DisputeVerdict`].
    Judge(AccountId, u64),
    /// `withdraw(amount)`: the customer takes back unlocked escrow balance.
    Withdraw(u128),
    /// `advance_checkpoint(segment)`: anyone rolls the evidence anchor
    /// forward with at least `2Δ` bare headers on the current checkpoint;
    /// returns the new anchor hash.
    AdvanceCheckpoint(EvidenceBundle),
    /// View `get_config()`: the [`JudgerConfig`].
    GetConfig,
    /// View `get_escrow(customer)`: the [`EscrowRecord`].
    GetEscrow(AccountId),
    /// View `get_payment(customer, payment_id)`: the [`PaymentRecord`].
    GetPayment(AccountId, u64),
    /// View `get_checkpoint()`: the rolling [`CheckpointRecord`].
    GetCheckpoint,
}

tagged_codec! {
    Call by method {
        "init" => Init(config),
        "deposit" => Deposit(; value),
        "open_payment" => OpenPayment(merchant, btc_txid, amount_sats, collateral),
        "ack_payment" => AckPayment(customer, payment_id),
        "close_payment" => ClosePayment(payment_id),
        "dispute" => Dispute(customer, payment_id),
        "submit_evidence" => SubmitEvidence(customer, payment_id, bundle),
        "judge" => Judge(customer, payment_id),
        "withdraw" => Withdraw(amount),
        "advance_checkpoint" => AdvanceCheckpoint(segment),
        "get_config" => GetConfig,
        "get_escrow" => GetEscrow(customer),
        "get_payment" => GetPayment(customer, payment_id),
        "get_checkpoint" => GetCheckpoint,
    }
}

/// The PayJudger contract (stateless singleton; all state in [`Storage`]),
/// called through [`Call`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PayJudger;

fn revert(msg: impl Into<String>) -> ContractError {
    ContractError::Revert(msg.into())
}

const CONFIG_KEY: &[u8] = b"config";
const CHECKPOINT_KEY: &[u8] = b"checkpoint";

fn escrow_key(customer: &AccountId) -> Vec<u8> {
    let mut key = b"escrow/".to_vec();
    key.extend_from_slice(&customer.0);
    key
}

fn payment_key(customer: &AccountId, payment_id: u64) -> Vec<u8> {
    let mut key = b"payment/".to_vec();
    key.extend_from_slice(&customer.0);
    key.push(b'/');
    key.extend_from_slice(&payment_id.to_le_bytes());
    key
}

/// When a window opened at `start` closes. Saturates: a deadline past
/// `u64::MAX` never passes, so a huge configured window cannot wrap to
/// an already-expired one.
fn deadline(start: u64, config: &JudgerConfig) -> u64 {
    start.saturating_add(config.challenge_window_secs)
}

impl PayJudger {
    fn load_config(storage: &mut dyn Storage) -> Result<JudgerConfig, ContractError> {
        let bytes = storage
            .get(CONFIG_KEY)?
            .ok_or_else(|| revert("contract not initialized"))?;
        Ok(JudgerConfig::decode(&bytes)?)
    }

    fn load_checkpoint(storage: &mut dyn Storage) -> Result<CheckpointRecord, ContractError> {
        let bytes = storage
            .get(CHECKPOINT_KEY)?
            .ok_or_else(|| revert("contract not initialized"))?;
        Ok(CheckpointRecord::decode(&bytes)?)
    }

    fn load_escrow(
        storage: &mut dyn Storage,
        customer: &AccountId,
    ) -> Result<EscrowRecord, ContractError> {
        let bytes = storage
            .get(&escrow_key(customer))?
            .ok_or_else(|| revert(format!("no escrow for {customer}")))?;
        Ok(EscrowRecord::decode(&bytes)?)
    }

    fn store_escrow(
        storage: &mut dyn Storage,
        customer: &AccountId,
        escrow: &EscrowRecord,
    ) -> Result<(), ContractError> {
        storage.set(&escrow_key(customer), &escrow.encode())
    }

    fn load_payment(
        storage: &mut dyn Storage,
        customer: &AccountId,
        payment_id: u64,
    ) -> Result<PaymentRecord, ContractError> {
        let bytes = storage
            .get(&payment_key(customer, payment_id))?
            .ok_or_else(|| revert(format!("no payment {payment_id} for {customer}")))?;
        Ok(PaymentRecord::decode(&bytes)?)
    }

    fn store_payment(
        storage: &mut dyn Storage,
        customer: &AccountId,
        payment_id: u64,
        payment: &PaymentRecord,
    ) -> Result<(), ContractError> {
        storage.set(&payment_key(customer, payment_id), &payment.encode())
    }

    fn init(config: JudgerConfig, storage: &mut dyn Storage) -> Result<Vec<u8>, ContractError> {
        if storage.get(CONFIG_KEY)?.is_some() {
            return Err(revert("already initialized"));
        }
        if config.min_evidence_blocks == 0 {
            return Err(revert("min_evidence_blocks must be positive"));
        }
        if config.challenge_window_secs == 0 {
            return Err(revert("challenge_window_secs must be positive"));
        }
        storage.set(CONFIG_KEY, &config.encode())?;
        let checkpoint = CheckpointRecord {
            hash: config.checkpoint,
            advanced_blocks: 0,
            advanced_at: 0,
        };
        storage.set(CHECKPOINT_KEY, &checkpoint.encode())?;
        storage.emit("Initialized", config.encode())?;
        Ok(vec![])
    }

    fn deposit(env: &Env, storage: &mut dyn Storage) -> Result<Vec<u8>, ContractError> {
        if env.value == 0 {
            return Err(revert("deposit requires attached value"));
        }
        let mut escrow = match storage.get(&escrow_key(&env.caller))? {
            Some(bytes) => EscrowRecord::decode(&bytes)?,
            None => EscrowRecord {
                customer: env.caller,
                balance: 0,
                locked: 0,
                payment_count: 0,
            },
        };
        escrow.balance = escrow
            .balance
            .checked_add(env.value)
            .ok_or_else(|| revert("escrow balance overflow"))?;
        Self::store_escrow(storage, &env.caller, &escrow)?;
        storage.emit("Deposited", (env.caller, env.value).encode())?;
        Ok(escrow.balance.encode())
    }

    fn open_payment(
        env: &Env,
        storage: &mut dyn Storage,
        merchant: AccountId,
        btc_txid: Hash256,
        amount_sats: u64,
        collateral: u128,
    ) -> Result<Vec<u8>, ContractError> {
        if collateral == 0 {
            return Err(revert("collateral must be positive"));
        }
        if merchant == env.caller {
            return Err(revert("merchant must differ from customer"));
        }
        let mut escrow = Self::load_escrow(storage, &env.caller)?;
        if escrow.available() < collateral {
            return Err(revert(format!(
                "escrow has {} available, payment needs {}",
                escrow.available(),
                collateral
            )));
        }
        let payment_id = escrow.payment_count;
        escrow.payment_count += 1;
        escrow.locked += collateral;
        let checkpoint = Self::load_checkpoint(storage)?;
        let payment = PaymentRecord {
            checkpoint: checkpoint.hash,
            merchant,
            btc_txid,
            amount_sats,
            collateral,
            opened_at: env.block_time,
            disputed_at: 0,
            state: PaymentState::Open,
            merchant_evidence: Default::default(),
            customer_evidence: Default::default(),
        };
        Self::store_escrow(storage, &env.caller, &escrow)?;
        Self::store_payment(storage, &env.caller, payment_id, &payment)?;
        storage.emit(
            "PaymentOpened",
            (env.caller, (payment_id, btc_txid)).encode(),
        )?;
        Ok(payment_id.encode())
    }

    fn ack_payment(
        env: &Env,
        storage: &mut dyn Storage,
        customer: AccountId,
        payment_id: u64,
    ) -> Result<Vec<u8>, ContractError> {
        let mut payment = Self::load_payment(storage, &customer, payment_id)?;
        if payment.merchant != env.caller {
            return Err(revert("only the merchant may acknowledge"));
        }
        if payment.state != PaymentState::Open {
            return Err(revert("payment is not open"));
        }
        payment.state = PaymentState::Acked;
        Self::unlock_collateral(storage, &customer, payment.collateral)?;
        Self::store_payment(storage, &customer, payment_id, &payment)?;
        storage.emit("PaymentAcked", (customer, payment_id).encode())?;
        Ok(vec![])
    }

    fn close_payment(
        env: &Env,
        storage: &mut dyn Storage,
        payment_id: u64,
    ) -> Result<Vec<u8>, ContractError> {
        let config = Self::load_config(storage)?;
        let mut payment = Self::load_payment(storage, &env.caller, payment_id)?;
        if payment.state != PaymentState::Open {
            return Err(revert("payment is not open"));
        }
        if env.block_time < deadline(payment.opened_at, &config) {
            return Err(revert("challenge window still open"));
        }
        payment.state = PaymentState::Closed;
        Self::unlock_collateral(storage, &env.caller, payment.collateral)?;
        Self::store_payment(storage, &env.caller, payment_id, &payment)?;
        storage.emit("PaymentClosed", (env.caller, payment_id).encode())?;
        Ok(vec![])
    }

    fn dispute(
        env: &Env,
        storage: &mut dyn Storage,
        customer: AccountId,
        payment_id: u64,
    ) -> Result<Vec<u8>, ContractError> {
        let config = Self::load_config(storage)?;
        let mut payment = Self::load_payment(storage, &customer, payment_id)?;
        if payment.merchant != env.caller {
            return Err(revert("only the payee merchant may dispute"));
        }
        if payment.state != PaymentState::Open {
            return Err(revert("payment is not open"));
        }
        if env.block_time >= deadline(payment.opened_at, &config) {
            return Err(revert("challenge window has expired"));
        }
        payment.state = PaymentState::Disputed;
        payment.disputed_at = env.block_time;
        Self::store_payment(storage, &customer, payment_id, &payment)?;
        storage.emit("DisputeOpened", (customer, payment_id).encode())?;
        Ok(vec![])
    }

    fn submit_evidence(
        env: &Env,
        storage: &mut dyn Storage,
        customer: AccountId,
        payment_id: u64,
        bundle: EvidenceBundle,
    ) -> Result<Vec<u8>, ContractError> {
        let config = Self::load_config(storage)?;
        let mut payment = Self::load_payment(storage, &customer, payment_id)?;
        if payment.state != PaymentState::Disputed {
            return Err(revert("payment is not under dispute"));
        }
        if env.block_time >= deadline(payment.disputed_at, &config) {
            return Err(revert("evidence window has closed"));
        }
        let is_merchant = env.caller == payment.merchant;
        let is_customer = env.caller == customer;
        if !is_merchant && !is_customer {
            return Err(revert("only the disputing parties may submit evidence"));
        }

        let verified = verify_on_chain(
            &bundle,
            &payment.checkpoint,
            btcfast_btcsim::pow::CompactBits(config.min_target_bits),
            &payment.btc_txid,
            storage,
        )?;

        let slot = if is_merchant {
            &mut payment.merchant_evidence
        } else {
            &mut payment.customer_evidence
        };
        if heavier(&verified.summary, slot) == std::cmp::Ordering::Greater {
            *slot = verified.summary.clone();
        } else {
            return Err(revert("evidence is not heavier than what is on file"));
        }
        Self::store_payment(storage, &customer, payment_id, &payment)?;
        storage.emit(
            "EvidenceAccepted",
            (customer, (payment_id, verified.summary.blocks)).encode(),
        )?;
        Ok(verified.summary.work.to_vec())
    }

    fn judge(
        env: &Env,
        storage: &mut dyn Storage,
        customer: AccountId,
        payment_id: u64,
    ) -> Result<Vec<u8>, ContractError> {
        let config = Self::load_config(storage)?;
        let mut payment = Self::load_payment(storage, &customer, payment_id)?;
        if payment.state != PaymentState::Disputed {
            return Err(revert("payment is not under dispute"));
        }
        if env.block_time < deadline(payment.disputed_at, &config) {
            return Err(revert("evidence window still open"));
        }

        // The PoW-based payment judgment: the customer prevails only with an
        // inclusion proof on evidence at least as heavy as the merchant's,
        // showing the payment buried at least Δ = min_evidence_blocks deep
        // (the "z confirmations" equivalent). Everything else — no
        // evidence, lighter evidence, a shallow inclusion, or a heavier
        // merchant chain that abandoned the txid — pays the merchant from
        // collateral.
        let customer_ok = payment.customer_evidence.includes_tx
            && payment.customer_evidence.tx_confirmations >= config.min_evidence_blocks
            && heavier(&payment.customer_evidence, &payment.merchant_evidence)
                != std::cmp::Ordering::Less;
        let verdict = if customer_ok {
            DisputeVerdict::CustomerWins
        } else {
            DisputeVerdict::MerchantWins
        };

        let mut escrow = Self::load_escrow(storage, &customer)?;
        escrow.locked = escrow
            .locked
            .checked_sub(payment.collateral)
            .ok_or_else(|| revert("locked balance underflow"))?;
        match verdict {
            DisputeVerdict::CustomerWins => {
                payment.state = PaymentState::CustomerCleared;
            }
            DisputeVerdict::MerchantWins => {
                payment.state = PaymentState::MerchantPaid;
                escrow.balance = escrow
                    .balance
                    .checked_sub(payment.collateral)
                    .ok_or_else(|| revert("escrow balance underflow"))?;
                storage.transfer_out(payment.merchant, payment.collateral)?;
            }
        }
        Self::store_escrow(storage, &customer, &escrow)?;
        Self::store_payment(storage, &customer, payment_id, &payment)?;
        storage.emit("Judged", (customer, (payment_id, verdict)).encode())?;
        Ok(verdict.encode())
    }

    /// Extension: rolls the evidence anchor forward. Anyone may submit a
    /// valid header segment of at least `2Δ` headers anchored at the
    /// current checkpoint; the anchor advances to the header `Δ` blocks
    /// below the claimed tip, keeping a reorg safety margin. Payments
    /// remember the anchor in force when they were opened, so in-flight
    /// disputes are unaffected.
    fn advance_checkpoint(
        env: &Env,
        storage: &mut dyn Storage,
        bundle: EvidenceBundle,
    ) -> Result<Vec<u8>, ContractError> {
        if bundle.0.inclusion.is_some() {
            return Err(revert("checkpoint advancement takes a bare header segment"));
        }
        let config = Self::load_config(storage)?;
        let mut checkpoint = Self::load_checkpoint(storage)?;
        let delta = config.min_evidence_blocks as usize;
        let needed = delta.saturating_mul(2);
        if bundle.0.segment.len() < needed {
            return Err(revert(format!(
                "advancement needs at least {needed} headers, got {}",
                bundle.0.segment.len()
            )));
        }
        // Anchoring and PoW checks; the txid argument is irrelevant since
        // inclusion proofs were rejected above.
        let verified = verify_on_chain(
            &bundle,
            &checkpoint.hash,
            btcfast_btcsim::pow::CompactBits(config.min_target_bits),
            &btcfast_crypto::Hash256::ZERO,
            storage,
        )?;
        let new_anchor_index = bundle.0.segment.len() - 1 - delta;
        let new_anchor = bundle.0.segment.headers[new_anchor_index].hash();
        checkpoint.hash = new_anchor;
        checkpoint.advanced_blocks += (new_anchor_index + 1) as u64;
        checkpoint.advanced_at = env.block_time;
        storage.set(CHECKPOINT_KEY, &checkpoint.encode())?;
        storage.emit(
            "CheckpointAdvanced",
            (new_anchor, verified.summary.blocks).encode(),
        )?;
        Ok(new_anchor.encode())
    }

    fn withdraw(
        env: &Env,
        storage: &mut dyn Storage,
        amount: u128,
    ) -> Result<Vec<u8>, ContractError> {
        let mut escrow = Self::load_escrow(storage, &env.caller)?;
        if amount == 0 || amount > escrow.available() {
            return Err(revert(format!(
                "cannot withdraw {amount}: available {}",
                escrow.available()
            )));
        }
        escrow.balance -= amount;
        Self::store_escrow(storage, &env.caller, &escrow)?;
        storage.transfer_out(env.caller, amount)?;
        storage.emit("Withdrawn", (env.caller, amount).encode())?;
        Ok(vec![])
    }

    fn unlock_collateral(
        storage: &mut dyn Storage,
        customer: &AccountId,
        collateral: u128,
    ) -> Result<(), ContractError> {
        let mut escrow = Self::load_escrow(storage, customer)?;
        escrow.locked = escrow
            .locked
            .checked_sub(collateral)
            .ok_or_else(|| revert("locked balance underflow"))?;
        Self::store_escrow(storage, customer, &escrow)
    }
}

impl Contract for PayJudger {
    fn code_id(&self) -> &'static str {
        CODE_ID
    }

    fn call(
        &self,
        env: &Env,
        method: &str,
        args: &[u8],
        storage: &mut dyn Storage,
    ) -> Result<Vec<u8>, ContractError> {
        // Only `deposit` is payable; value attached anywhere else would be
        // stranded in the contract with no escrow credited for it.
        if env.value > 0 && method != "deposit" {
            return Err(revert(format!("method {method:?} is not payable")));
        }
        let call = Call::decode(method, args)?
            .ok_or_else(|| ContractError::UnknownMethod(method.to_string()))?;
        match call {
            Call::Init(config) => Self::init(config, storage),
            Call::Deposit(_) => Self::deposit(env, storage),
            Call::OpenPayment(merchant, btc_txid, amount_sats, collateral) => {
                Self::open_payment(env, storage, merchant, btc_txid, amount_sats, collateral)
            }
            Call::AckPayment(customer, id) => Self::ack_payment(env, storage, customer, id),
            Call::ClosePayment(id) => Self::close_payment(env, storage, id),
            Call::Dispute(customer, id) => Self::dispute(env, storage, customer, id),
            Call::SubmitEvidence(customer, id, bundle) => {
                Self::submit_evidence(env, storage, customer, id, bundle)
            }
            Call::Judge(customer, id) => Self::judge(env, storage, customer, id),
            Call::Withdraw(amount) => Self::withdraw(env, storage, amount),
            Call::AdvanceCheckpoint(segment) => Self::advance_checkpoint(env, storage, segment),
            Call::GetConfig => Ok(Self::load_config(storage)?.encode()),
            Call::GetEscrow(customer) => Ok(Self::load_escrow(storage, &customer)?.encode()),
            Call::GetPayment(customer, id) => {
                Ok(Self::load_payment(storage, &customer, id)?.encode())
            }
            Call::GetCheckpoint => Ok(Self::load_checkpoint(storage)?.encode()),
        }
    }
}
