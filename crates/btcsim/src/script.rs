//! Output scripts: a faithful-but-simplified subset of Bitcoin Script.
//!
//! BTCFast only needs pay-to-pubkey-hash payments and data carriers
//! (`OP_RETURN`) — the payment-intent commitments the protocol can anchor in
//! BTC transactions. The interpreter enforces the same predicate P2PKH does:
//! the witness must reveal a public key hashing to the committed address and
//! a valid ECDSA signature over the transaction sighash.

use btcfast_crypto::ecdsa::{NonceHint, Signature};
use btcfast_crypto::keys::{Address, PublicKey};
use std::error::Error;
use std::fmt;

/// Maximum bytes allowed in an `OP_RETURN` data carrier (Bitcoin's standard
/// relay policy limit).
pub const MAX_OP_RETURN_BYTES: usize = 80;

/// An output's locking predicate.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum ScriptPubKey {
    /// Pay-to-pubkey-hash: spendable by whoever controls the key hashing to
    /// this address.
    P2pkh(Address),
    /// Provably unspendable data carrier.
    OpReturn(Vec<u8>),
}

impl ScriptPubKey {
    /// Serializes for hashing: a tag byte plus payload.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            ScriptPubKey::P2pkh(addr) => {
                out.push(0x01);
                out.extend_from_slice(&addr.0);
            }
            ScriptPubKey::OpReturn(data) => {
                out.push(0x02);
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
        }
    }

    /// True for data-carrier outputs, which can never be spent.
    pub fn is_unspendable(&self) -> bool {
        matches!(self, ScriptPubKey::OpReturn(_))
    }

    /// Validates standardness rules (currently: `OP_RETURN` size cap).
    pub fn check_standard(&self) -> Result<(), ScriptError> {
        match self {
            ScriptPubKey::OpReturn(data) if data.len() > MAX_OP_RETURN_BYTES => {
                Err(ScriptError::OpReturnTooLarge(data.len()))
            }
            _ => Ok(()),
        }
    }
}

/// The unlocking data for a P2PKH input: the spender's public key and a
/// signature over the transaction sighash.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The public key whose hash160 must equal the locked address.
    pub pubkey: PublicKey,
    /// ECDSA signature over the input's sighash.
    pub signature: Signature,
    /// Advisory nonce-point hint making the signature batch-verifiable
    /// (see `btcfast_crypto::batch`). Not part of the wire encoding, never
    /// compared for equality, and never trusted: a wrong or absent hint
    /// only routes verification off the batched fast path.
    pub recovery: Option<NonceHint>,
}

impl Witness {
    /// Serializes for transaction encoding. The recovery hint is
    /// deliberately excluded: it is client-side acceleration state, and
    /// including it would perturb transaction sizes, signature-cache keys,
    /// and every byte-pinned fixture.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.pubkey.to_compressed());
        out.extend_from_slice(&self.signature.to_bytes());
    }
}

/// Equality ignores the advisory recovery hint, mirroring the wire
/// encoding: two witnesses proving the same statement are the same
/// witness, whether or not one also carries acceleration metadata.
impl PartialEq for Witness {
    fn eq(&self, other: &Witness) -> bool {
        self.pubkey == other.pubkey && self.signature == other.signature
    }
}

impl Eq for Witness {}

/// Script evaluation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptError {
    /// Input attempted to spend an `OP_RETURN` output.
    SpendOfUnspendable,
    /// Witness missing on a spend input.
    MissingWitness,
    /// The revealed public key does not hash to the locked address.
    PubkeyMismatch,
    /// The ECDSA signature check failed.
    BadSignature,
    /// An `OP_RETURN` output exceeds the data-carrier size limit.
    OpReturnTooLarge(usize),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::SpendOfUnspendable => write!(f, "attempted spend of OP_RETURN output"),
            ScriptError::MissingWitness => write!(f, "spend input carries no witness"),
            ScriptError::PubkeyMismatch => {
                write!(f, "public key does not hash to the locked address")
            }
            ScriptError::BadSignature => write!(f, "signature verification failed"),
            ScriptError::OpReturnTooLarge(n) => {
                write!(
                    f,
                    "OP_RETURN payload of {n} bytes exceeds {MAX_OP_RETURN_BYTES}"
                )
            }
        }
    }
}

impl Error for ScriptError {}

/// Evaluates a witness against a locking script and a 32-byte sighash.
///
/// # Errors
///
/// Returns the specific [`ScriptError`] describing why the spend is invalid.
pub fn verify_spend(
    script_pubkey: &ScriptPubKey,
    witness: Option<&Witness>,
    sighash: &[u8; 32],
) -> Result<(), ScriptError> {
    let statement = spend_statement(script_pubkey, witness, sighash)?;
    if !statement
        .pubkey
        .verify(&statement.sighash, &statement.signature)
    {
        return Err(ScriptError::BadSignature);
    }
    Ok(())
}

/// The ECDSA check a P2PKH spend reduces to once every *non-signature*
/// script rule has passed.
///
/// [`verify_spend`] is exactly `spend_statement` followed by verifying
/// this statement — so batch pre-verification can collect statements
/// (running the cheap script checks in their normal order and with their
/// normal errors), verify many signatures in one multi-scalar pass, and
/// know the outcome matches per-input sequential verification.
#[derive(Clone, Copy, Debug)]
pub struct SpendStatement {
    /// The key the witness revealed (already matched against the lock).
    pub pubkey: PublicKey,
    /// The sighash the signature must cover.
    pub sighash: [u8; 32],
    /// The signature to check.
    pub signature: Signature,
    /// The witness's batching hint, if the signer attached one.
    pub recovery: Option<NonceHint>,
}

/// Runs every script rule *except* the ECDSA check, in [`verify_spend`]'s
/// exact order, and returns the remaining signature statement.
///
/// # Errors
///
/// The same [`ScriptError`]s `verify_spend` would return for the
/// non-signature rules: spending an `OP_RETURN`, a missing witness, or a
/// key that does not hash to the locked address.
pub fn spend_statement(
    script_pubkey: &ScriptPubKey,
    witness: Option<&Witness>,
    sighash: &[u8; 32],
) -> Result<SpendStatement, ScriptError> {
    match script_pubkey {
        ScriptPubKey::OpReturn(_) => Err(ScriptError::SpendOfUnspendable),
        ScriptPubKey::P2pkh(address) => {
            let witness = witness.ok_or(ScriptError::MissingWitness)?;
            if &witness.pubkey.address() != address {
                return Err(ScriptError::PubkeyMismatch);
            }
            Ok(SpendStatement {
                pubkey: witness.pubkey,
                sighash: *sighash,
                signature: witness.signature,
                recovery: witness.recovery,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_crypto::keys::KeyPair;
    use btcfast_crypto::sha256::sha256;

    fn setup() -> (KeyPair, ScriptPubKey, [u8; 32]) {
        let kp = KeyPair::from_seed(b"script test");
        let script = ScriptPubKey::P2pkh(kp.address());
        let sighash = sha256(b"sighash");
        (kp, script, sighash)
    }

    #[test]
    fn valid_spend() {
        let (kp, script, sighash) = setup();
        let witness = Witness {
            pubkey: *kp.public(),
            signature: kp.sign(&sighash),
            recovery: None,
        };
        assert!(verify_spend(&script, Some(&witness), &sighash).is_ok());
    }

    #[test]
    fn missing_witness_rejected() {
        let (_, script, sighash) = setup();
        assert_eq!(
            verify_spend(&script, None, &sighash),
            Err(ScriptError::MissingWitness)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let (_, script, sighash) = setup();
        let thief = KeyPair::from_seed(b"thief");
        let witness = Witness {
            pubkey: *thief.public(),
            signature: thief.sign(&sighash),
            recovery: None,
        };
        assert_eq!(
            verify_spend(&script, Some(&witness), &sighash),
            Err(ScriptError::PubkeyMismatch)
        );
    }

    #[test]
    fn wrong_sighash_rejected() {
        let (kp, script, sighash) = setup();
        let witness = Witness {
            pubkey: *kp.public(),
            signature: kp.sign(&sha256(b"different message")),
            recovery: None,
        };
        assert_eq!(
            verify_spend(&script, Some(&witness), &sighash),
            Err(ScriptError::BadSignature)
        );
    }

    #[test]
    fn op_return_unspendable() {
        let script = ScriptPubKey::OpReturn(b"data".to_vec());
        assert!(script.is_unspendable());
        let (kp, _, sighash) = setup();
        let witness = Witness {
            pubkey: *kp.public(),
            signature: kp.sign(&sighash),
            recovery: None,
        };
        assert_eq!(
            verify_spend(&script, Some(&witness), &sighash),
            Err(ScriptError::SpendOfUnspendable)
        );
    }

    #[test]
    fn op_return_size_policy() {
        assert!(ScriptPubKey::OpReturn(vec![0; MAX_OP_RETURN_BYTES])
            .check_standard()
            .is_ok());
        assert_eq!(
            ScriptPubKey::OpReturn(vec![0; MAX_OP_RETURN_BYTES + 1]).check_standard(),
            Err(ScriptError::OpReturnTooLarge(MAX_OP_RETURN_BYTES + 1))
        );
        let (_, p2pkh, _) = setup();
        assert!(p2pkh.check_standard().is_ok());
    }

    #[test]
    fn encoding_distinguishes_variants() {
        let (kp, p2pkh, _) = setup();
        let op_ret = ScriptPubKey::OpReturn(kp.address().0.to_vec());
        let mut a = Vec::new();
        let mut b = Vec::new();
        p2pkh.encode_to(&mut a);
        op_ret.encode_to(&mut b);
        assert_ne!(a, b);
    }

    /// `verify_spend` must stay exactly `spend_statement` + ECDSA: every
    /// non-signature rejection agrees between the two, and an extracted
    /// statement carries precisely what the signature check consumes.
    #[test]
    fn spend_statement_mirrors_verify_spend_rules() {
        let (kp, script, sighash) = setup();
        let (signature, recovery) = kp.sign_recoverable(&sighash);
        let witness = Witness {
            pubkey: *kp.public(),
            signature,
            recovery: Some(recovery),
        };
        let stmt = spend_statement(&script, Some(&witness), &sighash).unwrap();
        assert_eq!(stmt.pubkey, *kp.public());
        assert_eq!(stmt.sighash, sighash);
        assert_eq!(stmt.signature, signature);
        assert_eq!(stmt.recovery, Some(recovery));
        assert!(stmt.pubkey.verify(&stmt.sighash, &stmt.signature));

        // Non-signature failures surface identically from both entry
        // points.
        let op_ret = ScriptPubKey::OpReturn(b"x".to_vec());
        for (script, witness) in [(&op_ret, Some(&witness)), (&script, None)] {
            assert_eq!(
                spend_statement(script, witness, &sighash).map(|_| ()),
                verify_spend(script, witness, &sighash)
            );
        }
        let thief = KeyPair::from_seed(b"thief");
        let mismatched = Witness {
            pubkey: *thief.public(),
            signature: thief.sign(&sighash),
            recovery: None,
        };
        assert_eq!(
            spend_statement(&script, Some(&mismatched), &sighash).map(|_| ()),
            verify_spend(&script, Some(&mismatched), &sighash)
        );
    }

    #[test]
    fn witness_equality_and_encoding_ignore_recovery_hint() {
        let (kp, _, sighash) = setup();
        let (signature, recovery) = kp.sign_recoverable(&sighash);
        let hinted = Witness {
            pubkey: *kp.public(),
            signature,
            recovery: Some(recovery),
        };
        let bare = Witness {
            pubkey: *kp.public(),
            signature,
            recovery: None,
        };
        assert_eq!(hinted, bare);
        let mut a = Vec::new();
        let mut b = Vec::new();
        hinted.encode_to(&mut a);
        bare.encode_to(&mut b);
        assert_eq!(a, b, "hint never reaches the wire");
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ScriptError::SpendOfUnspendable,
            ScriptError::MissingWitness,
            ScriptError::PubkeyMismatch,
            ScriptError::BadSignature,
            ScriptError::OpReturnTooLarge(99),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
