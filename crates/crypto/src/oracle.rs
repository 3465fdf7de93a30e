//! Test oracles: the slow, textbook twin of each fast path, which the
//! differential tests and the `crypto` fuzz engine hold that path against.
//! Nothing in production calls them — the portable SHA-256 compression
//! aside, which is also the block function of hosts without the SHA
//! extensions and stays in [`crate::sha256`] for that.

use crate::ecdsa::{self, Signature};
use crate::field::FieldElement;
use crate::mul_table::{self, KeyTable, OddMultiplesTable};
use crate::point::Point;
use crate::scalar::Scalar;
use crate::sha256;

/// Oracle for [`FieldElement::invert`]: Fermat's little theorem
/// (`x^(p-2)`) through the standard secp256k1 addition chain (255
/// squarings, 15 multiplications).
///
/// # Panics
///
/// Panics if `x` is zero, which has no inverse.
pub fn field_invert_fermat(x: FieldElement) -> FieldElement {
    assert!(!x.is_zero(), "zero has no multiplicative inverse");
    let sqr_n = |mut v: FieldElement, n: u32| {
        for _ in 0..n {
            v = v.square();
        }
        v
    };
    // The exponent p - 2 is
    // 2^256 - 2^32 - 979 = (223 ones)·0·(22 ones)·0·1111110·0·1·0·1101.
    // x{k} denotes x^(2^k - 1).
    let x2 = x.square() * x;
    let x3 = x2.square() * x;
    let x6 = sqr_n(x3, 3) * x3;
    let x9 = sqr_n(x6, 3) * x3;
    let x11 = sqr_n(x9, 2) * x2;
    let x22 = sqr_n(x11, 11) * x11;
    let x44 = sqr_n(x22, 22) * x22;
    let x88 = sqr_n(x44, 44) * x44;
    let x176 = sqr_n(x88, 88) * x88;
    let x220 = sqr_n(x176, 44) * x44;
    let x223 = sqr_n(x220, 3) * x3;
    // Tail: shift in the low 33 bits of p - 2 (FFFFFC2D pattern).
    let t = sqr_n(x223, 23) * x22;
    let t = sqr_n(t, 5) * x;
    let t = sqr_n(t, 3) * x2;
    sqr_n(t, 2) * x
}

/// Oracle for [`Scalar::invert`]: Fermat's little theorem (`x^(n-2)`)
/// with a fixed 4-bit window.
///
/// # Panics
///
/// Panics if `x` is zero.
pub fn scalar_invert_fermat(x: Scalar) -> Scalar {
    assert!(!x.is_zero(), "zero has no multiplicative inverse");
    // −2 mod n is the exponent n − 2.
    let exp = (-Scalar::from_u64(2)).to_be_bytes();
    // pow[d] = x^d for d in 1..=15 (index 0 unused).
    let mut pow = [Scalar::ONE; 16];
    pow[1] = x;
    for d in 2..16 {
        pow[d] = pow[d - 1] * x;
    }
    let mut result = Scalar::ONE;
    let mut started = false;
    for byte in exp {
        for nibble in [byte >> 4, byte & 0x0F] {
            if started {
                result = result.square().square().square().square();
            }
            if nibble != 0 {
                result = if started {
                    result * pow[nibble as usize]
                } else {
                    pow[nibble as usize]
                };
                started = true;
            }
        }
    }
    result
}

/// Oracle for [`ecdsa::verify`]: the same check without the per-key table
/// cache, always building a fresh Q table.
pub fn verify_uncached(q: &Point, digest: &[u8; 32], sig: &Signature) -> bool {
    if !ecdsa::precheck(q, sig) {
        return false;
    }
    match OddMultiplesTable::new(q, mul_table::WINDOW_P) {
        Some(table) => ecdsa::verify_prepared(KeyTable::Wnaf(&table), digest, sig),
        None => false,
    }
}

/// The SHA-256 compression function in portable arithmetic (FIPS 180-4
/// §6.2.2), by name, for [`sha256_with`] and for block-level comparisons.
pub fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    sha256::compress_blocks_portable(state, blocks);
}

/// SHA-256 by the textbook route — pad a copy, compress it in one call —
/// over a block function given by name. Over [`compress_blocks_portable`]
/// it is the oracle for [`sha256::sha256`].
pub fn sha256_with(compress: fn(&mut [u32; 8], &[u8]), data: &[u8]) -> [u8; 32] {
    let mut padded = data.to_vec();
    padded.push(0x80);
    padded.resize((data.len() + 9).next_multiple_of(64) - 8, 0);
    padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
    let mut state = sha256::H0;
    compress(&mut state, &padded);
    sha256::digest_bytes(&state)
}

/// What [`sha256::StripedSha256`] makes of `data`, by its definition over a
/// block function given by name: lane `j` gathered from the `j`-th 64-byte
/// block of every whole 1 KiB stripe and hashed by [`sha256_with`], the
/// sixteen digests in lane order, then the bytes past the last whole stripe.
pub fn striped_with(compress: fn(&mut [u32; 8], &[u8]), data: &[u8]) -> Vec<u8> {
    let stripes = data.chunks_exact(1024);
    let mut out = Vec::new();
    for j in 0..16 {
        let lane: Vec<u8> = stripes
            .clone()
            .flat_map(|s| &s[64 * j..64 * (j + 1)])
            .copied()
            .collect();
        out.extend_from_slice(&sha256_with(compress, &lane));
    }
    out.extend_from_slice(stripes.remainder());
    out
}

/// A [`sha256::StripedSha256`] held to the path CPUs without AVX-512F take
/// — sixteen one-block compressions per stripe — whatever this CPU has, so
/// that tests reach that path everywhere.
pub fn striped_sha256_per_lane() -> sha256::StripedSha256 {
    sha256::StripedSha256::with(sha256::compress_stripes_per_lane)
}
