//! ECDSA over secp256k1 with RFC 6979 deterministic nonces and low-S
//! normalization (the scheme Bitcoin transactions use).

use crate::field::FieldElement;
use crate::hmac::hmac_sha256;
use crate::mul_table::{self, KeyTable, PubkeyCacheStats, PubkeyTableCache};
use crate::point::{AffinePoint, Point};
use crate::scalar::Scalar;
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// An ECDSA signature `(r, s)` with `s` normalized to the low half of the
/// scalar range.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The x-coordinate component.
    pub r: Scalar,
    /// The proof component (always low-S).
    pub s: Scalar,
}

impl Signature {
    /// Serializes as 64 bytes: `r || s`, both big-endian.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 64-byte `r || s` signature.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::OutOfRange`] if either component is zero or
    /// not below the group order, or [`SignatureError::HighS`] if `s` is in
    /// the high half (malleable encoding).
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Signature, SignatureError> {
        let mut r_bytes = [0u8; 32];
        let mut s_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..32]);
        s_bytes.copy_from_slice(&bytes[32..]);
        // Error precedence is part of the stable contract: range checks run
        // before the high-S check, so `s >= n` (whose reduced form may be
        // low or high) is always `OutOfRange`, never `HighS`. Audit-corpus
        // minimization relies on this ordering staying byte-stable.
        let r = Scalar::from_be_bytes(&r_bytes).ok_or(SignatureError::OutOfRange)?;
        let s = Scalar::from_be_bytes(&s_bytes).ok_or(SignatureError::OutOfRange)?;
        if r.is_zero() || s.is_zero() {
            return Err(SignatureError::OutOfRange);
        }
        if s.is_high() {
            return Err(SignatureError::HighS);
        }
        Ok(Signature { r, s })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(r: {:?}, s: {:?})", self.r, self.s)
    }
}

/// Errors arising from signature parsing or signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// A component was zero or >= the group order.
    OutOfRange,
    /// `s` was in the high (malleable) half.
    HighS,
    /// The signing key was zero.
    InvalidSecretKey,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::OutOfRange => write!(f, "signature component out of range"),
            SignatureError::HighS => write!(f, "signature s component is in the high half"),
            SignatureError::InvalidSecretKey => write!(f, "secret key is zero"),
        }
    }
}

impl Error for SignatureError {}

/// The signer-side context that makes a signature *batchable*: which of
/// the (at most four) curve points with `x ≡ r (mod n)` was the nonce point
/// `k·G`.
///
/// ECDSA verification only compares x-coordinates, so `(r, s, z, Q)` alone
/// determines the nonce point up to sign — a verifier cannot reconstruct
/// `R = k·G` itself, which the batched equation
/// `Σ a_i·u1_i·G + Σ a_i·u2_i·Q_i − Σ a_i·R_i = ∞` needs explicitly. The
/// signer holds `R` in affine form while it signs, so the hint carries that
/// `y` and the verifier checks it against the curve equation instead of
/// taking a square root. The hint is advisory: it never changes a verdict,
/// only whether the fast batched path applies (see [`crate::batch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonceHint {
    /// The y-coordinate of the nonce point verification reconstructs.
    pub y: FieldElement,
    /// True when the nonce point's x-coordinate was `>= n` before reduction
    /// (probability ~2^-128; kept for completeness).
    pub x_overflow: bool,
}

/// RFC 6979 deterministic nonce derivation for SHA-256.
///
/// Given the secret key `d` and message digest `z` (both 32 bytes), produces
/// the unique, deterministic nonce `k` in `[1, n-1]`.
pub fn rfc6979_nonce(secret: &[u8; 32], digest: &[u8; 32]) -> Scalar {
    // z reduced mod n, re-serialized, per RFC 6979 §2.3 bits2octets.
    let z_reduced = Scalar::from_be_bytes_reduced(digest).to_be_bytes();

    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];

    // K = HMAC_K(V || 0x00 || x || h)
    let mut data = Vec::with_capacity(32 + 1 + 32 + 32);
    data.extend_from_slice(&v);
    data.push(0x00);
    data.extend_from_slice(secret);
    data.extend_from_slice(&z_reduced);
    k = hmac_sha256(&k, &data);
    v = hmac_sha256(&k, &v);

    // K = HMAC_K(V || 0x01 || x || h)
    let mut data = Vec::with_capacity(32 + 1 + 32 + 32);
    data.extend_from_slice(&v);
    data.push(0x01);
    data.extend_from_slice(secret);
    data.extend_from_slice(&z_reduced);
    k = hmac_sha256(&k, &data);
    v = hmac_sha256(&k, &v);

    loop {
        v = hmac_sha256(&k, &v);
        if let Some(candidate) = Scalar::from_be_bytes(&v) {
            if !candidate.is_zero() {
                return candidate;
            }
        }
        // K = HMAC_K(V || 0x00); V = HMAC_K(V); retry.
        let mut data = Vec::with_capacity(33);
        data.extend_from_slice(&v);
        data.push(0x00);
        k = hmac_sha256(&k, &data);
        v = hmac_sha256(&k, &v);
    }
}

/// Signs a 32-byte message digest with secret scalar `d`.
///
/// # Errors
///
/// Returns [`SignatureError::InvalidSecretKey`] if `d` is zero.
pub fn sign(d: &Scalar, digest: &[u8; 32]) -> Result<Signature, SignatureError> {
    sign_recoverable(d, digest).map(|(sig, _)| sig)
}

/// Signs a 32-byte message digest, also returning the [`NonceHint`] that
/// identifies the nonce point `k·G` among the candidates sharing `r` —
/// the hint batch verification needs to reconstruct `R` (see
/// [`crate::batch`]). The signature itself is identical to [`sign`]'s.
///
/// # Errors
///
/// Returns [`SignatureError::InvalidSecretKey`] if `d` is zero.
pub fn sign_recoverable(
    d: &Scalar,
    digest: &[u8; 32],
) -> Result<(Signature, NonceHint), SignatureError> {
    if d.is_zero() {
        return Err(SignatureError::InvalidSecretKey);
    }
    let z = Scalar::from_be_bytes_reduced(digest);
    let secret_bytes = d.to_be_bytes();
    let mut k = rfc6979_nonce(&secret_bytes, digest);
    loop {
        let r_point = mul_table::generator_mul(&k);
        if let AffinePoint::Coordinates { x, y } = r_point.to_affine() {
            let x_bytes = x.to_be_bytes();
            let r = Scalar::from_be_bytes_reduced(&x_bytes);
            if !r.is_zero() {
                let s = k.invert() * (z + r * *d);
                if !s.is_zero() {
                    let x_overflow = Scalar::from_be_bytes(&x_bytes).is_none();
                    // Low-S normalization replaces s with -s, and a
                    // verifier computing s⁻¹(z + r·d)·G then lands on
                    // -k·G instead of k·G: negate the hinted y with it, so
                    // it names the point verification will reconstruct.
                    let (s, y) = if s.is_high() { (-s, -y) } else { (s, y) };
                    return Ok((Signature { r, s }, NonceHint { y, x_overflow }));
                }
            }
        }
        // Vanishingly unlikely; derive a fresh nonce by re-keying on k.
        let retry_seed = crate::sha256::sha256(&k.to_be_bytes());
        k = rfc6979_nonce(&secret_bytes, &retry_seed);
    }
}

/// Capacity of the thread-local per-key table cache used by [`verify`]:
/// enough for the working set of a busy merchant session, small enough
/// that a hostile stream of one-shot keys stays bounded.
pub const PUBKEY_CACHE_CAPACITY: usize = 32;

thread_local! {
    /// Per-thread cache of public-key odd-multiple tables. Thread-local
    /// (like btcsim's signature cache) so the payment-engine shards never
    /// contend on a lock in the verify hot path.
    static PUBKEY_TABLES: RefCell<PubkeyTableCache> =
        RefCell::new(PubkeyTableCache::new(PUBKEY_CACHE_CAPACITY));
}

/// Compressed-SEC1 identity of a public-key point, used as the cache key.
/// `None` for the point at infinity.
fn compressed_id(q: &Point) -> Option<[u8; 33]> {
    match q.to_affine() {
        AffinePoint::Infinity => None,
        AffinePoint::Coordinates { x, y } => Some(crate::keys::compress(&x, &y)),
    }
}

/// The shared tail of verification once a Q table exists: compute
/// `u1 = z/s`, `u2 = r/s`, evaluate `u1*G + u2*Q` from the key's wNAF
/// table or comb, and compare the result's x-coordinate against `r`
/// without leaving Jacobian coordinates.
pub(crate) fn verify_prepared(q_table: KeyTable<'_>, digest: &[u8; 32], sig: &Signature) -> bool {
    let z = Scalar::from_be_bytes_reduced(digest);
    let s_inv = sig.s.invert();
    let u1 = z * s_inv;
    let u2 = sig.r * s_inv;
    let point = q_table.lincomb(&u1, &u2);
    point.eq_x_scalar(&sig.r)
}

/// Verifies a signature on a 32-byte digest against public key point `q`.
///
/// Accepts only low-S signatures (matching what [`sign`] emits), which rules
/// out the classic `(r, s) → (r, n − s)` malleability used in transaction-id
/// malleation attacks.
///
/// Repeated verifies against the same key on the same thread reuse a cached
/// precomputation table (see [`PUBKEY_CACHE_CAPACITY`]), and a key that
/// keeps returning is served from its own comb (`mul_table::PROMOTE_AT`);
/// the verdict is independent of cache state, which the oracle
/// [`crate::oracle::verify_uncached`] and the equivalence test suite enforce.
pub fn verify(q: &Point, digest: &[u8; 32], sig: &Signature) -> bool {
    if !precheck(q, sig) {
        return false;
    }
    let Some(id) = compressed_id(q) else {
        return false;
    };
    PUBKEY_TABLES.with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache.get_or_build(&id, q) {
            Some(table) => verify_prepared(table, digest, sig),
            None => false,
        }
    })
}

/// The cheap rejections shared by every verify entry point: zero or
/// high-S components, the point at infinity, and — critically — points
/// not on the curve at all. [`Point::from_affine`] is unchecked, and the
/// cached path keys tables by `(y parity, x)` alone; without the curve
/// check an off-curve point sharing a cached key's parity and x would
/// borrow that key's table and inherit its verdict, while the uncached
/// path computed garbage. Both paths must reject before touching tables
/// so their verdicts (and cache stats) cannot diverge.
pub(crate) fn precheck(q: &Point, sig: &Signature) -> bool {
    !(sig.r.is_zero() || sig.s.is_zero() || sig.s.is_high() || q.is_infinity()) && q.is_on_curve()
}

/// Snapshot of this thread's public-key table cache counters, scraped by
/// `core::telemetry` into the observability registry.
pub fn pubkey_cache_stats() -> PubkeyCacheStats {
    PUBKEY_TABLES.with(|cache| cache.borrow().stats())
}

/// Drops this thread's cached key tables and zeroes the counters. Tests
/// use this to exercise the cold path deterministically.
pub fn reset_pubkey_cache() {
    PUBKEY_TABLES.with(|cache| cache.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::oracle::verify_uncached;
    use crate::sha256::sha256;

    fn secret(hexstr: &str) -> Scalar {
        Scalar::from_be_bytes(&crate::hex_arr(hexstr)).unwrap()
    }

    fn pubkey(d: &Scalar) -> Point {
        Point::generator().mul(d)
    }

    /// Well-known RFC 6979 secp256k1 test vectors (key 0x1, key n-1).
    #[test]
    fn rfc6979_vector_key1_satoshi() {
        let d = secret("0000000000000000000000000000000000000000000000000000000000000001");
        let digest = sha256(b"Satoshi Nakamoto");
        let k = rfc6979_nonce(&d.to_be_bytes(), &digest);
        assert_eq!(
            hex::encode(&k.to_be_bytes()),
            "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15"
        );
        let sig = sign(&d, &digest).unwrap();
        assert_eq!(
            hex::encode(&sig.r.to_be_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            hex::encode(&sig.s.to_be_bytes()),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
        assert!(verify(&pubkey(&d), &digest, &sig));
    }

    #[test]
    fn rfc6979_vector_key1_blade_runner() {
        let d = secret("0000000000000000000000000000000000000000000000000000000000000001");
        let msg: &[u8] =
            b"All those moments will be lost in time, like tears in rain. Time to die...";
        let digest = sha256(msg);
        let k = rfc6979_nonce(&d.to_be_bytes(), &digest);
        assert_eq!(
            hex::encode(&k.to_be_bytes()),
            "38aa22d72376b4dbc472e06c3ba403ee0a394da63fc58d88686c611aba98d6b3"
        );
        let sig = sign(&d, &digest).unwrap();
        assert_eq!(
            hex::encode(&sig.r.to_be_bytes()),
            "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b"
        );
        assert_eq!(
            hex::encode(&sig.s.to_be_bytes()),
            "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21"
        );
    }

    #[test]
    fn rfc6979_vector_key_n_minus_1() {
        let d = secret("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140");
        let digest = sha256(b"Satoshi Nakamoto");
        let k = rfc6979_nonce(&d.to_be_bytes(), &digest);
        assert_eq!(
            hex::encode(&k.to_be_bytes()),
            "33a19b60e25fb6f4435af53a3d42d493644827367e6453928554f43e49aa6f90"
        );
        let sig = sign(&d, &digest).unwrap();
        assert_eq!(
            hex::encode(&sig.r.to_be_bytes()),
            "fd567d121db66e382991534ada77a6bd3106f0a1098c231e47993447cd6af2d0"
        );
        assert_eq!(
            hex::encode(&sig.s.to_be_bytes()),
            "6b39cd0eb1bc8603e159ef5c20a5c8ad685a45b06ce9bebed3f153d10d93bed5"
        );
        assert!(verify(&pubkey(&d), &digest, &sig));
    }

    #[test]
    fn sign_verify_round_trip_many_keys() {
        for seed in 1u64..20 {
            let d = Scalar::from_u64(seed * 7919 + 13);
            let q = pubkey(&d);
            let digest = sha256(&seed.to_le_bytes());
            let sig = sign(&d, &digest).unwrap();
            assert!(verify(&q, &digest, &sig), "seed {seed}");
        }
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let d = Scalar::from_u64(12345);
        let q = pubkey(&d);
        let sig = sign(&d, &sha256(b"paid")).unwrap();
        assert!(!verify(&q, &sha256(b"not paid"), &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let d1 = Scalar::from_u64(111);
        let d2 = Scalar::from_u64(222);
        let digest = sha256(b"msg");
        let sig = sign(&d1, &digest).unwrap();
        assert!(!verify(&pubkey(&d2), &digest, &sig));
    }

    #[test]
    fn verify_rejects_high_s() {
        let d = Scalar::from_u64(999);
        let digest = sha256(b"msg");
        let sig = sign(&d, &digest).unwrap();
        let malleated = Signature {
            r: sig.r,
            s: -sig.s,
        };
        assert!(!verify(&pubkey(&d), &digest, &malleated));
    }

    #[test]
    fn verify_rejects_zero_components() {
        let d = Scalar::from_u64(5);
        let digest = sha256(b"msg");
        let sig = sign(&d, &digest).unwrap();
        assert!(!verify(
            &pubkey(&d),
            &digest,
            &Signature {
                r: Scalar::ZERO,
                s: sig.s
            }
        ));
        assert!(!verify(
            &pubkey(&d),
            &digest,
            &Signature {
                r: sig.r,
                s: Scalar::ZERO
            }
        ));
    }

    #[test]
    fn signing_with_zero_key_fails() {
        assert_eq!(
            sign(&Scalar::ZERO, &[0u8; 32]),
            Err(SignatureError::InvalidSecretKey)
        );
    }

    #[test]
    fn signature_bytes_round_trip() {
        let d = Scalar::from_u64(777);
        let sig = sign(&d, &sha256(b"round trip")).unwrap();
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn signature_from_bytes_rejects_high_s() {
        let d = Scalar::from_u64(777);
        let sig = sign(&d, &sha256(b"x")).unwrap();
        let mut bytes = sig.to_bytes();
        bytes[32..].copy_from_slice(&(-sig.s).to_be_bytes());
        assert_eq!(Signature::from_bytes(&bytes), Err(SignatureError::HighS));
    }

    #[test]
    fn signature_from_bytes_rejects_zero() {
        let bytes = [0u8; 64];
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::OutOfRange)
        );
    }

    /// Pins the `from_bytes` error precedence: range failures (zero or
    /// `>= n`) always win over `HighS`, in every combination where both
    /// could apply. Audit-corpus minimization is byte-stable only if this
    /// ordering never changes.
    #[test]
    fn from_bytes_out_of_range_takes_precedence_over_high_s() {
        let d = Scalar::from_u64(321);
        let sig = sign(&d, &sha256(b"precedence")).unwrap();
        let n_minus_1 = (-Scalar::ONE).to_be_bytes();

        // s >= n: OutOfRange, even though the reduced form of all-ones is
        // a perfectly parseable scalar that could be high.
        let mut bytes = sig.to_bytes();
        bytes[32..].copy_from_slice(&[0xFF; 32]);
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::OutOfRange)
        );

        // r >= n combined with an in-range high s: r's range failure is
        // reported first.
        let mut bytes = [0xFF; 64];
        bytes[32..].copy_from_slice(&n_minus_1);
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::OutOfRange)
        );

        // r = 0 with a high s: zero is a range failure, not HighS.
        let mut bytes = [0u8; 64];
        bytes[32..].copy_from_slice(&n_minus_1);
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::OutOfRange)
        );

        // An in-range high s on its own is still HighS: n - 1 is the
        // largest valid-but-malleable value.
        let mut bytes = sig.to_bytes();
        bytes[32..].copy_from_slice(&n_minus_1);
        assert_eq!(Signature::from_bytes(&bytes), Err(SignatureError::HighS));
    }

    /// `sign_recoverable` emits the same signature as `sign`, and its hint
    /// names the exact point verification reconstructs: `r` with the hinted
    /// `y` must be `u1·G + u2·Q` itself, not just a point sharing its
    /// x-coordinate — on high-S-normalised signatures too.
    #[test]
    fn sign_recoverable_names_the_reconstructed_nonce_point() {
        let mut normalised = 0;
        for seed in 1u64..12 {
            let d = Scalar::from_u64(seed * 104_729 + 7);
            let digest = sha256(&seed.to_be_bytes());
            let (sig, rec) = sign_recoverable(&d, &digest).unwrap();
            assert_eq!(sig, sign(&d, &digest).unwrap(), "seed {seed}");
            assert!(!rec.x_overflow, "overflow has probability ~2^-128");

            let x = FieldElement::from_be_bytes(&sig.r.to_be_bytes()).unwrap();
            let lifted = Point::from_affine_checked(x, rec.y).expect("the hint is on the curve");
            // The signer negated y exactly when it negated s.
            let k = rfc6979_nonce(&d.to_be_bytes(), &digest);
            normalised += usize::from(!lifted.equals(&Point::generator().mul(&k)));

            let z = Scalar::from_be_bytes_reduced(&digest);
            let s_inv = sig.s.invert();
            let reconstructed = Point::generator()
                .mul(&(z * s_inv))
                .add(&pubkey(&d).mul(&(sig.r * s_inv)));
            assert!(reconstructed.equals(&lifted), "seed {seed}");
        }
        assert!((1..11).contains(&normalised), "both branches ran");
    }

    /// Off-curve points must be rejected by both verify paths before any
    /// table work — `Point::from_affine` is unchecked, and the cached path
    /// keys tables by (parity, x) alone, so an unvalidated off-curve point
    /// could otherwise borrow an honest key's cached table.
    #[test]
    fn verify_rejects_off_curve_points_on_both_paths() {
        let d = Scalar::from_u64(606);
        let digest = sha256(b"off-curve");
        let sig = sign(&d, &digest).unwrap();
        let q = pubkey(&d);
        let AffinePoint::Coordinates { x, y } = q.to_affine() else {
            panic!("finite key");
        };
        // Same x, same y-parity, different y: off the curve by
        // construction (only ±y lift x, and they differ in parity).
        let bad_y = y + FieldElement::from_u64(2);
        let forged = Point::from_affine(x, bad_y);
        assert!(!forged.is_on_curve());
        assert!(!verify(&forged, &digest, &sig));
        assert!(!verify_uncached(&forged, &digest, &sig));
        // The honest key still verifies afterwards (no cache poisoning).
        assert!(verify(&q, &digest, &sig));
    }

    #[test]
    fn deterministic_signing() {
        let d = Scalar::from_u64(42);
        let digest = sha256(b"same message");
        assert_eq!(sign(&d, &digest).unwrap(), sign(&d, &digest).unwrap());
    }

    #[test]
    fn error_display() {
        assert!(!SignatureError::OutOfRange.to_string().is_empty());
        assert!(!SignatureError::HighS.to_string().is_empty());
        assert!(!SignatureError::InvalidSecretKey.to_string().is_empty());
    }
}
