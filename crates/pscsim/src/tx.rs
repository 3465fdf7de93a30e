//! PSC transactions, signatures, and receipts.

use crate::account::AccountId;
use crate::codec::Encode;
use crate::contract::Event;
use crate::gas::Gas;
use btcfast_crypto::ecdsa::{NonceHint, Signature};
use btcfast_crypto::keys::{KeyPair, PublicKey};
use btcfast_crypto::sha256::sha256d;
use btcfast_crypto::Hash256;
use std::error::Error;
use std::fmt;

/// What a transaction does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Plain value transfer.
    Transfer {
        /// The receiving account.
        to: AccountId,
    },
    /// Deploys registered code, invoking its `init` method with `args`.
    Deploy {
        /// The registered code identifier.
        code_id: String,
        /// ABI-encoded constructor arguments.
        args: Vec<u8>,
    },
    /// Calls a method on a deployed contract.
    Call {
        /// The contract account.
        contract: AccountId,
        /// Method name.
        method: String,
        /// ABI-encoded arguments.
        args: Vec<u8>,
    },
}

impl Action {
    /// The calldata byte count used for intrinsic gas.
    pub fn calldata_len(&self) -> usize {
        match self {
            Action::Transfer { .. } => 0,
            Action::Deploy { code_id, args } => code_id.len() + args.len(),
            Action::Call { method, args, .. } => method.len() + args.len(),
        }
    }

    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            Action::Transfer { to } => {
                out.push(0);
                to.encode_to(out);
            }
            Action::Deploy { code_id, args } => {
                out.push(1);
                code_id.encode_to(out);
                args.encode_to(out);
            }
            Action::Call {
                contract,
                method,
                args,
            } => {
                out.push(2);
                contract.encode_to(out);
                method.encode_to(out);
                args.encode_to(out);
            }
        }
    }
}

/// A signed PSC transaction.
#[derive(Clone, Debug)]
pub struct PscTransaction {
    /// The signing key (sender = its address).
    pub from: PublicKey,
    /// Sender nonce (must equal the account nonce at execution).
    pub nonce: u64,
    /// Native value attached.
    pub value: u128,
    /// The action.
    pub action: Action,
    /// Gas limit for execution.
    pub gas_limit: Gas,
    /// Gas price the sender offers.
    pub gas_price: u128,
    /// ECDSA signature over [`PscTransaction::digest`]; `None` while
    /// unsigned.
    pub signature: Option<Signature>,
    /// Advisory nonce-point hint making the signature batch-verifiable
    /// (see `btcfast_crypto::batch`). Outside the digest, the hash and
    /// equality, and never trusted: a wrong or absent hint only routes
    /// admission off the batched path.
    pub recovery: Option<NonceHint>,
}

/// Equality ignores the advisory recovery hint, like
/// `btcfast_btcsim::script::Witness`: the hint is acceleration metadata,
/// not part of the statement.
impl PartialEq for PscTransaction {
    fn eq(&self, other: &PscTransaction) -> bool {
        self.from == other.from
            && self.nonce == other.nonce
            && self.value == other.value
            && self.action == other.action
            && self.gas_limit == other.gas_limit
            && self.gas_price == other.gas_price
            && self.signature == other.signature
    }
}

impl Eq for PscTransaction {}

/// Why a transaction could not be accepted or executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PscTxError {
    /// Missing or invalid signature.
    BadSignature,
    /// Nonce does not match the account.
    BadNonce {
        /// What the account expects next.
        expected: u64,
        /// What the transaction carried.
        got: u64,
    },
    /// Balance cannot cover `value + gas_limit * gas_price`.
    InsufficientBalance,
    /// Deploy referenced an unregistered code id.
    UnknownCode(String),
    /// Call targeted an account with no code.
    NotAContract(AccountId),
    /// Gas limit exceeds the chain's per-tx cap.
    GasLimitTooHigh {
        /// What the transaction asked for.
        requested: Gas,
        /// The chain cap.
        cap: Gas,
    },
}

impl fmt::Display for PscTxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PscTxError::BadSignature => write!(f, "missing or invalid signature"),
            PscTxError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            PscTxError::InsufficientBalance => {
                write!(f, "balance cannot cover value plus max fee")
            }
            PscTxError::UnknownCode(id) => write!(f, "unknown code id {id:?}"),
            PscTxError::NotAContract(a) => write!(f, "account {a} holds no code"),
            PscTxError::GasLimitTooHigh { requested, cap } => {
                write!(f, "gas limit {requested} exceeds cap {cap}")
            }
        }
    }
}

impl Error for PscTxError {}

impl PscTransaction {
    /// Builds an unsigned transaction.
    pub fn new(from: PublicKey, nonce: u64, value: u128, action: Action) -> PscTransaction {
        PscTransaction {
            from,
            nonce,
            value,
            action,
            gas_limit: 1_000_000,
            gas_price: 0,
            signature: None,
            recovery: None,
        }
    }

    /// Sets the gas limit (builder style).
    pub fn with_gas(mut self, gas_limit: Gas, gas_price: u128) -> PscTransaction {
        self.gas_limit = gas_limit;
        self.gas_price = gas_price;
        self
    }

    /// The sender account.
    pub fn sender(&self) -> AccountId {
        self.from.address().into()
    }

    /// The digest signatures commit to (everything except the signature).
    pub fn digest(&self) -> Hash256 {
        let mut data = Vec::with_capacity(128);
        data.extend_from_slice(&self.from.to_compressed());
        self.nonce.encode_to(&mut data);
        self.value.encode_to(&mut data);
        self.action.encode_to(&mut data);
        self.gas_limit.encode_to(&mut data);
        self.gas_price.encode_to(&mut data);
        sha256d(&data)
    }

    /// The transaction hash (digest — signature excluded, like a txid).
    pub fn hash(&self) -> Hash256 {
        self.digest()
    }

    /// Signs with `key`, which must match `from`.
    ///
    /// # Panics
    ///
    /// Panics if `key`'s public half differs from `from`.
    pub fn sign(mut self, key: &KeyPair) -> PscTransaction {
        assert!(
            key.public() == &self.from,
            "signing key must match the from field"
        );
        let (signature, recovery) = key.sign_recoverable(&self.digest().0);
        self.signature = Some(signature);
        self.recovery = Some(recovery);
        self
    }

    /// Verifies the signature.
    ///
    /// # Errors
    ///
    /// Returns [`PscTxError::BadSignature`] when missing or invalid.
    pub fn verify_signature(&self) -> Result<(), PscTxError> {
        let sig = self.signature.as_ref().ok_or(PscTxError::BadSignature)?;
        if self.from.verify(&self.digest().0, sig) {
            Ok(())
        } else {
            Err(PscTxError::BadSignature)
        }
    }

    /// Maximum fee this transaction can cost. Saturates on a hostile
    /// `gas_price`: the saturated cost then fails the balance pre-check,
    /// so the transaction is rejected rather than aborting execution.
    pub fn max_fee(&self) -> u128 {
        (self.gas_limit as u128).saturating_mul(self.gas_price)
    }
}

/// Execution status recorded in a receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Executed successfully.
    Succeeded,
    /// Contract reverted (message attached); fee charged, state rolled back.
    Reverted(String),
    /// Ran out of gas; full limit charged, state rolled back.
    OutOfGas,
    /// Rejected before execution (bad nonce/signature/balance).
    Invalid(String),
}

impl TxStatus {
    /// True only for [`TxStatus::Succeeded`].
    pub fn is_success(&self) -> bool {
        matches!(self, TxStatus::Succeeded)
    }
}

/// The receipt of an executed (or rejected) transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// The transaction hash.
    pub tx_hash: Hash256,
    /// Outcome.
    pub status: TxStatus,
    /// Gas consumed.
    pub gas_used: Gas,
    /// Fee actually paid (`gas_used * gas_price`).
    pub fee_paid: u128,
    /// Events emitted (empty unless succeeded).
    pub events: Vec<Event>,
    /// ABI-encoded return value (empty unless succeeded).
    pub return_data: Vec<u8>,
    /// For deploys: the new contract's account.
    pub contract_address: Option<AccountId>,
    /// Block that included the transaction.
    pub block_number: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> KeyPair {
        KeyPair::from_seed(b"psc tx")
    }

    fn transfer_tx() -> PscTransaction {
        PscTransaction::new(
            *keypair().public(),
            0,
            100,
            Action::Transfer {
                to: AccountId([2; 20]),
            },
        )
    }

    #[test]
    fn sign_verify_round_trip() {
        let tx = transfer_tx().sign(&keypair());
        tx.verify_signature().unwrap();
    }

    #[test]
    fn unsigned_rejected() {
        assert_eq!(
            transfer_tx().verify_signature(),
            Err(PscTxError::BadSignature)
        );
    }

    #[test]
    fn tampering_invalidates_signature() {
        let mut tx = transfer_tx().sign(&keypair());
        tx.value = 999;
        assert_eq!(tx.verify_signature(), Err(PscTxError::BadSignature));
    }

    #[test]
    #[should_panic(expected = "signing key must match")]
    fn wrong_key_panics() {
        let _ = transfer_tx().sign(&KeyPair::from_seed(b"other"));
    }

    #[test]
    fn hash_excludes_signature() {
        let unsigned = transfer_tx();
        let signed = unsigned.clone().sign(&keypair());
        assert_eq!(unsigned.hash(), signed.hash());
    }

    #[test]
    fn hint_is_outside_hash_and_equality() {
        let signed = transfer_tx().sign(&keypair());
        assert!(signed.recovery.is_some());
        let mut stripped = signed.clone();
        stripped.recovery = None;
        assert_eq!(stripped, signed);
        assert_eq!(stripped.hash(), signed.hash());
        stripped.verify_signature().unwrap();
    }

    #[test]
    fn distinct_actions_distinct_hashes() {
        let a = transfer_tx();
        let b = PscTransaction::new(
            *keypair().public(),
            0,
            100,
            Action::Call {
                contract: AccountId([2; 20]),
                method: "deposit".into(),
                args: vec![],
            },
        );
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn calldata_len() {
        assert_eq!(transfer_tx().action.calldata_len(), 0);
        let call = Action::Call {
            contract: AccountId([2; 20]),
            method: "abcd".into(),
            args: vec![0; 10],
        };
        assert_eq!(call.calldata_len(), 14);
        let deploy = Action::Deploy {
            code_id: "xy".into(),
            args: vec![0; 3],
        };
        assert_eq!(deploy.calldata_len(), 5);
    }

    #[test]
    fn max_fee() {
        let tx = transfer_tx().with_gas(1000, 5);
        assert_eq!(tx.max_fee(), 5000);
    }

    #[test]
    fn sender_is_from_address() {
        let tx = transfer_tx();
        assert_eq!(tx.sender(), keypair().address().into());
    }

    #[test]
    fn status_success_check() {
        assert!(TxStatus::Succeeded.is_success());
        assert!(!TxStatus::Reverted("x".into()).is_success());
        assert!(!TxStatus::OutOfGas.is_success());
        assert!(!TxStatus::Invalid("y".into()).is_success());
    }
}
