//! # btcfast-crypto
//!
//! From-scratch cryptographic substrate for the BTCFast reproduction.
//!
//! The BTCFast scheme (Lei et al., ICDCS 2020) adjudicates Bitcoin payment
//! disputes inside a smart contract by verifying *real* proof-of-work evidence:
//! SHA-256d block headers, Merkle inclusion proofs, and ECDSA-signed
//! transactions. To keep that code path honest, this crate implements every
//! primitive from scratch rather than mocking it:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 and Bitcoin's double-SHA-256, on the
//!   CPU's SHA instructions where it has them (the crate's one `unsafe` call).
//! * [`ripemd160`] — RIPEMD-160, for Bitcoin-style `hash160` addresses.
//! * [`hmac`] — HMAC-SHA256, used for RFC 6979 deterministic ECDSA nonces.
//! * [`field`], [`scalar`], [`point`] — secp256k1 arithmetic, on the
//!   256-bit integer operations of [`limbs`].
//! * [`mul_table`] — table-driven scalar multiplication: wNAF
//!   odd-multiple tables with a per-key cache feeding the ECDSA accept
//!   path, and a fixed-base comb for the generator on the signing path.
//! * [`ecdsa`] — ECDSA over secp256k1 with RFC 6979 nonces and low-S
//!   normalization.
//! * [`batch`] — randomized-linear-combination batch ECDSA verification:
//!   many signatures collapse into one multi-scalar multiplication, with
//!   culprit bisection preserving the sequential loop's exact verdicts.
//! * [`keys`] — key pairs, compressed public-key encoding, addresses.
//! * [`merkle`] — Bitcoin-style Merkle trees with inclusion proofs.
//! * [`oracle`] — the slow, textbook twin of each fast path (Fermat
//!   inversions, the uncached verify, one-call SHA-256) that the
//!   differential tests and the audit's `crypto` engine compare against.
//! * [`pool`] — a scoped-thread worker pool that runs the payment
//!   engine's shards side by side.
//! * [`base58`] — Base58Check for human-readable addresses.
//! * [`hex`] — minimal hex encode/decode helpers.
//!
//! # Example
//!
//! ```
//! use btcfast_crypto::{keys::KeyPair, sha256::sha256d};
//!
//! let kp = KeyPair::from_seed(b"example seed");
//! let digest = sha256d(b"pay 1 BTC to merchant");
//! let sig = kp.sign(&digest.0);
//! assert!(kp.public().verify(&digest.0, &sig));
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod base58;
pub mod batch;
pub mod ecdsa;
pub mod field;
pub mod hash;
pub mod hex;
pub mod hmac;
pub mod keys;
pub mod limbs;
pub mod merkle;
pub mod mul_table;
pub mod oracle;
pub mod point;
pub mod pool;
pub mod ripemd160;
pub mod scalar;
pub mod sha256;

pub use hash::Hash256;
pub use keys::{KeyPair, PublicKey, SecretKey};
pub use merkle::{MerkleProof, MerkleTree};
pub use pool::WorkerPool;

/// Decodes a 64-character hex string into a 32-byte big-endian array.
///
/// Convenience for writing test vectors and constants.
///
/// # Panics
///
/// Panics if `s` is not exactly 64 hex characters.
pub fn hex_arr(s: &str) -> [u8; 32] {
    let v = hex::decode(s).expect("valid hex");
    assert_eq!(v.len(), 32, "expected 32 bytes of hex");
    let mut out = [0u8; 32];
    out.copy_from_slice(&v);
    out
}
