//! Transactions: outpoints, inputs/outputs, txids, sighash computation,
//! signing and verification.
//!
//! Txids commit to everything *except* witnesses (segwit-style), so signing
//! an input does not change the transaction id. That property matters for
//! BTCFast: the customer commits to a specific txid in the escrow payment
//! intent before the merchant has seen the signatures.

use crate::amount::Amount;
use crate::script::{
    spend_statement, verify_spend, ScriptError, ScriptPubKey, SpendStatement, Witness,
};
use btcfast_crypto::keys::{Address, KeyPair};
use btcfast_crypto::sha256::sha256d;
use btcfast_crypto::Hash256;
use std::error::Error;
use std::fmt;

/// A reference to a specific output of a prior transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OutPoint {
    /// The funding transaction id.
    pub txid: Hash256,
    /// The output index within that transaction.
    pub vout: u32,
}

impl OutPoint {
    /// The null outpoint used by coinbase inputs.
    pub const NULL: OutPoint = OutPoint {
        txid: Hash256::ZERO,
        vout: u32::MAX,
    };

    /// True for the coinbase sentinel.
    pub fn is_null(&self) -> bool {
        *self == OutPoint::NULL
    }

    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.txid.0);
        out.extend_from_slice(&self.vout.to_le_bytes());
    }
}

impl fmt::Display for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.txid, self.vout)
    }
}

/// A transaction input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxIn {
    /// The output being spent ([`OutPoint::NULL`] for coinbase).
    pub previous_output: OutPoint,
    /// Arbitrary data for coinbase inputs (height tag + miner extra);
    /// empty for ordinary spends.
    pub coinbase_data: Vec<u8>,
    /// The unlocking witness; `None` until signed (and always `None` for
    /// coinbase inputs).
    pub witness: Option<Witness>,
}

impl TxIn {
    /// An unsigned spend of `outpoint`.
    pub fn spend(outpoint: OutPoint) -> TxIn {
        TxIn {
            previous_output: outpoint,
            coinbase_data: Vec::new(),
            witness: None,
        }
    }

    /// True if this is a coinbase input.
    pub fn is_coinbase(&self) -> bool {
        self.previous_output.is_null()
    }
}

/// A transaction output.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxOut {
    /// The amount locked by this output.
    pub value: Amount,
    /// The locking script.
    pub script_pubkey: ScriptPubKey,
}

impl TxOut {
    /// A standard payment to an address.
    pub fn payment(value: Amount, to: Address) -> TxOut {
        TxOut {
            value,
            script_pubkey: ScriptPubKey::P2pkh(to),
        }
    }

    /// A zero-value data carrier.
    pub fn data(data: Vec<u8>) -> TxOut {
        TxOut {
            value: Amount::ZERO,
            script_pubkey: ScriptPubKey::OpReturn(data),
        }
    }

    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.value.to_sats().to_le_bytes());
        self.script_pubkey.encode_to(out);
    }
}

/// A Bitcoin-style transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Version tag (currently always 1; reserved for format evolution).
    pub version: u32,
    /// Inputs.
    pub inputs: Vec<TxIn>,
    /// Outputs.
    pub outputs: Vec<TxOut>,
    /// Earliest block height at which the transaction may confirm.
    pub lock_time: u64,
}

/// Transaction-level validation failures (structure only; UTXO context
/// checks live in [`crate::utxo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// No inputs.
    NoInputs,
    /// No outputs.
    NoOutputs,
    /// A non-coinbase transaction carried a coinbase input, or vice versa.
    MisplacedCoinbase,
    /// Duplicate outpoint spent twice within the same transaction.
    DuplicateInput,
    /// Input index out of range when signing.
    InputIndexOutOfRange(usize),
    /// A script check failed.
    Script(ScriptError),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::NoInputs => write!(f, "transaction has no inputs"),
            TxError::NoOutputs => write!(f, "transaction has no outputs"),
            TxError::MisplacedCoinbase => write!(f, "coinbase input in unexpected position"),
            TxError::DuplicateInput => write!(f, "transaction spends the same outpoint twice"),
            TxError::InputIndexOutOfRange(i) => write!(f, "input index {i} out of range"),
            TxError::Script(e) => write!(f, "script error: {e}"),
        }
    }
}

impl Error for TxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxError::Script(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScriptError> for TxError {
    fn from(e: ScriptError) -> TxError {
        TxError::Script(e)
    }
}

impl Transaction {
    /// Creates an unsigned transaction spending `inputs` into `outputs`.
    pub fn new(inputs: Vec<TxIn>, outputs: Vec<TxOut>) -> Transaction {
        Transaction {
            version: 1,
            inputs,
            outputs,
            lock_time: 0,
        }
    }

    /// Creates a coinbase transaction paying the block subsidy plus fees to
    /// the miner. The `height` tag makes every coinbase unique.
    pub fn coinbase(height: u64, reward: Amount, to: Address, extra: &[u8]) -> Transaction {
        let mut coinbase_data = height.to_le_bytes().to_vec();
        coinbase_data.extend_from_slice(extra);
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                previous_output: OutPoint::NULL,
                coinbase_data,
                witness: None,
            }],
            outputs: vec![TxOut::payment(reward, to)],
            lock_time: 0,
        }
    }

    /// True if this is a coinbase transaction.
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].is_coinbase()
    }

    /// Serializes the witness-independent part of the transaction; the
    /// double-SHA256 of this is the txid.
    pub fn encode_core(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.inputs.len() * 40 + self.outputs.len() * 32);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.inputs.len() as u32).to_le_bytes());
        for input in &self.inputs {
            input.previous_output.encode_to(&mut out);
            out.extend_from_slice(&(input.coinbase_data.len() as u32).to_le_bytes());
            out.extend_from_slice(&input.coinbase_data);
        }
        out.extend_from_slice(&(self.outputs.len() as u32).to_le_bytes());
        for output in &self.outputs {
            output.encode_to(&mut out);
        }
        out.extend_from_slice(&self.lock_time.to_le_bytes());
        out
    }

    /// The transaction id: double-SHA256 of the witness-independent
    /// serialization.
    pub fn txid(&self) -> Hash256 {
        sha256d(&self.encode_core())
    }

    /// Serialized size in bytes including witnesses — the fee-rate
    /// denominator.
    pub fn size_bytes(&self) -> usize {
        let mut size = self.encode_core().len();
        for input in &self.inputs {
            if let Some(witness) = &input.witness {
                let mut buf = Vec::with_capacity(97);
                witness.encode_to(&mut buf);
                size += buf.len();
            }
        }
        size
    }

    /// The digest an input's signature commits to: the core serialization,
    /// the input index, and the script being satisfied.
    ///
    /// Committing to the spent script binds the signature to the specific
    /// coin, preventing witness replay across outputs.
    pub fn sighash(&self, input_index: usize, spent_script: &ScriptPubKey) -> Hash256 {
        let mut data = self.encode_core();
        data.extend_from_slice(&(input_index as u32).to_le_bytes());
        spent_script.encode_to(&mut data);
        sha256d(&data)
    }

    /// Signs input `input_index` with `key`, attaching the witness.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::InputIndexOutOfRange`] for a bad index or
    /// [`TxError::MisplacedCoinbase`] when signing a coinbase input.
    pub fn sign_input(
        &mut self,
        input_index: usize,
        key: &KeyPair,
        spent_script: &ScriptPubKey,
    ) -> Result<(), TxError> {
        if input_index >= self.inputs.len() {
            return Err(TxError::InputIndexOutOfRange(input_index));
        }
        if self.inputs[input_index].is_coinbase() {
            return Err(TxError::MisplacedCoinbase);
        }
        let sighash = self.sighash(input_index, spent_script);
        // Recoverable signing costs the same as plain signing and attaches
        // the nonce-point hint that lets verifiers batch this input's
        // ECDSA check (the hint stays off the wire — see `Witness`).
        let (signature, recovery) = key.sign_recoverable(&sighash.0);
        let witness = Witness {
            pubkey: *key.public(),
            signature,
            recovery: Some(recovery),
        };
        self.inputs[input_index].witness = Some(witness);
        Ok(())
    }

    /// Verifies the witness on input `input_index` against the script it
    /// spends.
    ///
    /// # Errors
    ///
    /// Propagates [`ScriptError`] describing the failure.
    pub fn verify_input(
        &self,
        input_index: usize,
        spent_script: &ScriptPubKey,
    ) -> Result<(), TxError> {
        let input = self
            .inputs
            .get(input_index)
            .ok_or(TxError::InputIndexOutOfRange(input_index))?;
        let sighash = self.sighash(input_index, spent_script);
        verify_spend(spent_script, input.witness.as_ref(), &sighash.0)?;
        Ok(())
    }

    /// Extracts the ECDSA statement each input's witness must satisfy,
    /// running every non-signature script rule in [`verify_spend`]'s order.
    ///
    /// `spent_scripts[i]` must be the script locking input `i`. The returned
    /// statements let a batch verifier check all signatures at once while
    /// guaranteeing that structural failures (unspendable script, missing
    /// witness, pubkey mismatch) surface with the same [`ScriptError`] the
    /// sequential [`Self::verify_input`] loop would report.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::InputIndexOutOfRange`] when `spent_scripts` is
    /// longer than the input list, or the first [`ScriptError`] in input
    /// order.
    pub(crate) fn signature_statements(
        &self,
        spent_scripts: &[ScriptPubKey],
    ) -> Result<Vec<SpendStatement>, TxError> {
        let mut out = Vec::with_capacity(spent_scripts.len());
        for (index, script) in spent_scripts.iter().enumerate() {
            let input = self
                .inputs
                .get(index)
                .ok_or(TxError::InputIndexOutOfRange(index))?;
            let sighash = self.sighash(index, script);
            out.push(spend_statement(script, input.witness.as_ref(), &sighash.0)?);
        }
        Ok(out)
    }

    /// Structural validity checks that need no UTXO context.
    ///
    /// # Errors
    ///
    /// See [`TxError`].
    pub fn check_structure(&self) -> Result<(), TxError> {
        if self.inputs.is_empty() {
            return Err(TxError::NoInputs);
        }
        if self.outputs.is_empty() {
            return Err(TxError::NoOutputs);
        }
        let coinbase_inputs = self.inputs.iter().filter(|i| i.is_coinbase()).count();
        if coinbase_inputs > 0 && (coinbase_inputs != 1 || self.inputs.len() != 1) {
            return Err(TxError::MisplacedCoinbase);
        }
        let mut seen = std::collections::HashSet::new();
        for input in &self.inputs {
            if !input.is_coinbase() && !seen.insert(input.previous_output) {
                return Err(TxError::DuplicateInput);
            }
        }
        for output in &self.outputs {
            output.script_pubkey.check_standard()?;
        }
        Ok(())
    }

    /// Total output value.
    pub fn total_output(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }

    /// Outputs paying a given address (vout, value) — wallet scanning helper.
    pub fn outputs_to(&self, address: &Address) -> Vec<(u32, Amount)> {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match &o.script_pubkey {
                ScriptPubKey::P2pkh(a) if a == address => Some((i as u32, o.value)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_crypto::keys::KeyPair;

    fn kp() -> KeyPair {
        KeyPair::from_seed(b"tx tests")
    }

    fn sats(v: u64) -> Amount {
        Amount::from_sats(v).unwrap()
    }

    fn funding_outpoint(tag: u8) -> OutPoint {
        OutPoint {
            txid: sha256d(&[tag]),
            vout: 0,
        }
    }

    #[test]
    fn txid_independent_of_witness() {
        let key = kp();
        let script = ScriptPubKey::P2pkh(key.address());
        let mut tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(1))],
            vec![TxOut::payment(sats(1000), key.address())],
        );
        let unsigned_txid = tx.txid();
        tx.sign_input(0, &key, &script).unwrap();
        assert_eq!(tx.txid(), unsigned_txid);
    }

    #[test]
    fn sign_then_verify() {
        let key = kp();
        let script = ScriptPubKey::P2pkh(key.address());
        let mut tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(2))],
            vec![TxOut::payment(
                sats(5000),
                KeyPair::from_seed(b"m").address(),
            )],
        );
        assert!(tx.verify_input(0, &script).is_err()); // unsigned
        tx.sign_input(0, &key, &script).unwrap();
        tx.verify_input(0, &script).unwrap();
    }

    #[test]
    fn signature_binds_outputs() {
        let key = kp();
        let script = ScriptPubKey::P2pkh(key.address());
        let mut tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(3))],
            vec![TxOut::payment(
                sats(5000),
                KeyPair::from_seed(b"m").address(),
            )],
        );
        tx.sign_input(0, &key, &script).unwrap();
        // Redirect the payment after signing — the witness must not verify.
        tx.outputs[0] = TxOut::payment(sats(5000), KeyPair::from_seed(b"thief").address());
        assert_eq!(
            tx.verify_input(0, &script),
            Err(TxError::Script(ScriptError::BadSignature))
        );
    }

    #[test]
    fn signature_binds_spent_script() {
        let key = kp();
        let script = ScriptPubKey::P2pkh(key.address());
        let other_script = ScriptPubKey::P2pkh(KeyPair::from_seed(b"other").address());
        let mut tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(4))],
            vec![TxOut::payment(sats(1), key.address())],
        );
        tx.sign_input(0, &key, &script).unwrap();
        // Verifying against a different spent script fails (pubkey mismatch
        // first, since the address differs).
        assert!(tx.verify_input(0, &other_script).is_err());
    }

    #[test]
    fn coinbase_structure() {
        let tx = Transaction::coinbase(7, sats(50_0000_0000), kp().address(), b"extra");
        assert!(tx.is_coinbase());
        tx.check_structure().unwrap();
        // Distinct heights give distinct txids.
        let tx2 = Transaction::coinbase(8, sats(50_0000_0000), kp().address(), b"extra");
        assert_ne!(tx.txid(), tx2.txid());
    }

    #[test]
    fn coinbase_cannot_be_signed() {
        let mut tx = Transaction::coinbase(1, sats(1), kp().address(), b"");
        let script = ScriptPubKey::P2pkh(kp().address());
        assert_eq!(
            tx.sign_input(0, &kp(), &script),
            Err(TxError::MisplacedCoinbase)
        );
    }

    #[test]
    fn structure_rejects_empty() {
        assert_eq!(
            Transaction::new(vec![], vec![TxOut::payment(sats(1), kp().address())])
                .check_structure(),
            Err(TxError::NoInputs)
        );
        assert_eq!(
            Transaction::new(vec![TxIn::spend(funding_outpoint(5))], vec![]).check_structure(),
            Err(TxError::NoOutputs)
        );
    }

    #[test]
    fn structure_rejects_duplicate_inputs() {
        let tx = Transaction::new(
            vec![
                TxIn::spend(funding_outpoint(6)),
                TxIn::spend(funding_outpoint(6)),
            ],
            vec![TxOut::payment(sats(1), kp().address())],
        );
        assert_eq!(tx.check_structure(), Err(TxError::DuplicateInput));
    }

    #[test]
    fn structure_rejects_mixed_coinbase() {
        let mut cb = Transaction::coinbase(1, sats(1), kp().address(), b"");
        cb.inputs.push(TxIn::spend(funding_outpoint(7)));
        assert_eq!(cb.check_structure(), Err(TxError::MisplacedCoinbase));
    }

    #[test]
    fn structure_rejects_oversized_op_return() {
        let tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(8))],
            vec![TxOut::data(vec![0; 100])],
        );
        assert!(matches!(
            tx.check_structure(),
            Err(TxError::Script(ScriptError::OpReturnTooLarge(100)))
        ));
    }

    #[test]
    fn outputs_to_scans_address() {
        let me = kp().address();
        let other = KeyPair::from_seed(b"other").address();
        let tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(9))],
            vec![
                TxOut::payment(sats(10), other),
                TxOut::payment(sats(20), me),
                TxOut::data(b"memo".to_vec()),
                TxOut::payment(sats(30), me),
            ],
        );
        assert_eq!(tx.outputs_to(&me), vec![(1, sats(20)), (3, sats(30))]);
        assert_eq!(tx.total_output().to_sats(), 60);
    }

    #[test]
    fn size_grows_with_witness() {
        let key = kp();
        let script = ScriptPubKey::P2pkh(key.address());
        let mut tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(10))],
            vec![TxOut::payment(sats(1), key.address())],
        );
        let unsigned = tx.size_bytes();
        tx.sign_input(0, &key, &script).unwrap();
        assert_eq!(tx.size_bytes(), unsigned + 97); // 33B pubkey + 64B sig
    }

    #[test]
    fn distinct_txs_distinct_txids() {
        let a = Transaction::new(
            vec![TxIn::spend(funding_outpoint(11))],
            vec![TxOut::payment(sats(1), kp().address())],
        );
        let mut b = a.clone();
        b.outputs[0].value = sats(2);
        assert_ne!(a.txid(), b.txid());
    }

    #[test]
    fn sign_input_index_out_of_range() {
        let key = kp();
        let script = ScriptPubKey::P2pkh(key.address());
        let mut tx = Transaction::new(
            vec![TxIn::spend(funding_outpoint(12))],
            vec![TxOut::payment(sats(1), key.address())],
        );
        assert_eq!(
            tx.sign_input(5, &key, &script),
            Err(TxError::InputIndexOutOfRange(5))
        );
        assert_eq!(
            tx.verify_input(5, &script),
            Err(TxError::InputIndexOutOfRange(5))
        );
    }
}
