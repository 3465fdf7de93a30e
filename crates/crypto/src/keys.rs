//! Key pairs, compressed public-key encoding, and Bitcoin-style addresses.

use crate::ecdsa::{self, NonceHint, Signature};
use crate::field::FieldElement;
use crate::point::{AffinePoint, Point};
use crate::ripemd160::hash160;
use crate::scalar::Scalar;
use crate::sha256::sha256;
use std::fmt;

/// A secret key: a nonzero scalar.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(Scalar);

impl SecretKey {
    /// Derives a secret key deterministically from arbitrary seed bytes by
    /// hashing into the scalar field (re-hashing on the negligible chance of
    /// landing on zero).
    pub fn from_seed(seed: &[u8]) -> SecretKey {
        let mut digest = sha256(seed);
        loop {
            let s = Scalar::from_be_bytes_reduced(&digest);
            if !s.is_zero() {
                return SecretKey(s);
            }
            digest = sha256(&digest);
        }
    }

    /// The underlying scalar.
    pub fn scalar(&self) -> &Scalar {
        &self.0
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Computes the corresponding public key via the static generator
    /// table, normalized to affine so downstream encoding and the verify
    /// cache key never pay a field inversion.
    pub fn public_key(&self) -> PublicKey {
        match crate::mul_table::generator_mul(&self.0).to_affine() {
            AffinePoint::Coordinates { x, y } => PublicKey::from_affine(x, y),
            // Cannot fire: a nonzero scalar below the prime order.
            AffinePoint::Infinity => unreachable!("nonzero scalar times G is finite"),
        }
    }

    /// Signs a 32-byte digest (RFC 6979 deterministic ECDSA).
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        // Cannot fire: a zero key is the only `Err`, and no constructor makes one.
        ecdsa::sign(&self.0, digest).expect("secret key is nonzero by construction")
    }

    /// [`SecretKey::sign`] plus the [`NonceHint`] hint that makes the
    /// signature batch-verifiable (see [`crate::batch`]). The signature
    /// bytes are identical to `sign`'s.
    pub fn sign_recoverable(&self, digest: &[u8; 32]) -> (Signature, NonceHint) {
        // Cannot fire: as in `sign`.
        ecdsa::sign_recoverable(&self.0, digest).expect("secret key is nonzero by construction")
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A public key: a finite curve point in affine form (`Z = 1`) beside the
/// address it hashes to — hashed once, where the key is built, not on each
/// script check a transaction gets. The address is a function of the
/// point, so derived equality is still equality of points.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    point: Point,
    address: Address,
}

impl PublicKey {
    /// The key at curve point `(x, y)`, which the caller knows is on it.
    fn from_affine(x: FieldElement, y: FieldElement) -> PublicKey {
        PublicKey {
            point: Point::from_affine(x, y),
            address: Address(hash160(&compress(&x, &y))),
        }
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Point {
        &self.point
    }

    /// SEC1 compressed encoding: `02/03 || x` (33 bytes).
    pub fn to_compressed(&self) -> [u8; 33] {
        // `from_affine` is the only constructor: Z is one.
        compress(&self.point.x, &self.point.y)
    }

    /// Bitcoin-style 20-byte address: `RIPEMD160(SHA256(compressed))`.
    pub fn address(&self) -> Address {
        self.address
    }

    /// Verifies a signature on a 32-byte digest.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        ecdsa::verify(&self.point, digest, sig)
    }
}

/// SEC1 compressed encoding of the affine point `(x, y)`.
pub(crate) fn compress(x: &FieldElement, y: &FieldElement) -> [u8; 33] {
    let mut out = [0u8; 33];
    out[0] = if y.is_odd() { 0x03 } else { 0x02 };
    out[1..].copy_from_slice(&x.to_be_bytes());
    out
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PublicKey({})",
            crate::hex::encode(&self.to_compressed())
        )
    }
}

/// A 20-byte pay-to-pubkey-hash style address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Base58Check encoding with Bitcoin's mainnet P2PKH version byte.
    pub fn to_base58check(&self) -> String {
        crate::base58::check_encode(0x00, &self.0)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({})", crate::hex::encode(&self.0))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_base58check())
    }
}

/// A secret/public key pair.
///
/// ```
/// use btcfast_crypto::keys::KeyPair;
///
/// let alice = KeyPair::from_seed(b"alice");
/// let digest = btcfast_crypto::sha256::sha256(b"message");
/// let sig = alice.sign(&digest);
/// assert!(alice.public().verify(&digest, &sig));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from seed bytes.
    pub fn from_seed(seed: &[u8]) -> KeyPair {
        let secret = SecretKey::from_seed(seed);
        KeyPair {
            public: secret.public_key(),
            secret,
        }
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The pay-to-pubkey-hash address of the public key.
    pub fn address(&self) -> Address {
        self.public.address()
    }

    /// Signs a 32-byte digest.
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        self.secret.sign(digest)
    }

    /// Signs a 32-byte digest, also returning the batch-verification hint
    /// (see [`SecretKey::sign_recoverable`]).
    pub fn sign_recoverable(&self, digest: &[u8; 32]) -> (Signature, NonceHint) {
        self.secret.sign_recoverable(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_deterministic() {
        let a = KeyPair::from_seed(b"seed");
        let b = KeyPair::from_seed(b"seed");
        assert_eq!(a.public(), b.public());
        assert_ne!(
            KeyPair::from_seed(b"seed").address(),
            KeyPair::from_seed(b"other").address()
        );
    }

    #[test]
    fn compressed_prefix_is_02_or_03() {
        let kp = KeyPair::from_seed(b"prefix");
        let enc = kp.public().to_compressed();
        assert!(enc[0] == 0x02 || enc[0] == 0x03);
    }

    #[test]
    fn known_pubkey_for_key_one() {
        // d = 1 → public key is the generator.
        let sk = SecretKey(Scalar::ONE);
        let enc = sk.public_key().to_compressed();
        assert_eq!(
            crate::hex::encode(&enc),
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
        );
    }

    #[test]
    fn address_is_20_bytes_and_stable() {
        let kp = KeyPair::from_seed(b"addr");
        let a1 = kp.address();
        let a2 = kp.public().address();
        assert_eq!(a1, a2);
    }

    #[test]
    fn sign_verify_via_keypair() {
        let kp = KeyPair::from_seed(b"kp");
        let digest = crate::sha256::sha256(b"hello");
        let sig = kp.sign(&digest);
        assert!(kp.public().verify(&digest, &sig));
        assert!(!KeyPair::from_seed(b"other").public().verify(&digest, &sig));
    }

    #[test]
    fn secret_debug_redacts() {
        let kp = KeyPair::from_seed(b"secret");
        assert!(
            !format!("{:?}", kp.secret()).contains(&crate::hex::encode(&kp.secret().to_be_bytes()))
        );
    }

    #[test]
    fn satoshi_genesis_style_address_known_vector() {
        // hash160 of the uncompressed-key era isn't covered; verify our
        // compressed pipeline against an independently computed value:
        // d = 1, compressed pubkey 0279be66..., whose hash160 is the
        // well-known 751e76e8199196d454941c45d1b3a323f1433bd6.
        let sk = SecretKey(Scalar::ONE);
        assert_eq!(
            crate::hex::encode(&sk.public_key().address().0),
            "751e76e8199196d454941c45d1b3a323f1433bd6"
        );
    }
}
