//! `crypto` engine: differential targets for the fast paths against their
//! retained oracles — secp256k1 multiplication against the binary
//! double-and-add ladder, the Euclidean inverses against the Fermat
//! ladders, SHA-256 on whichever block function the host dispatches to
//! against the portable one — plus a hostile sign→verify round-trip.
//!
//! The fast paths (odd-multiple tables, the fixed-base comb of `G` and of
//! a drawn base, the per-key table cache and its promotion to a comb —
//! `btcfast_crypto::mul_table`) must agree with
//! `Point::mul_binary` on *every* scalar, and ECDSA verify verdicts must
//! be a pure function of `(key, digest, signature)` — never of cache
//! state. Scalar draws are edge-biased (0, 1, 2, n−1, n−2, 2^k, runs of
//! ones, all-ones) because recoding bugs live at carries, leading zeros,
//! and the 257th digit. Points are drawn as `k*G` through the *binary*
//! ladder, so the group-closure guarantee holds even when the fast path
//! under test is the thing that is broken.

use crate::source::ByteSource;
use btcfast_crypto::ecdsa::{self, Signature};
use btcfast_crypto::field::FieldElement;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::mul_table::{
    generator_mul, msm_wnaf, mul_wnaf, CombTable, OddMultiplesTable, KEEP_FOR, PROMOTE_AT,
};
use btcfast_crypto::oracle::{
    compress_blocks_portable, field_invert_fermat, scalar_invert_fermat, sha256_with,
    striped_sha256_per_lane, striped_with, verify_uncached,
};
use btcfast_crypto::point::{AffinePoint, Point};
use btcfast_crypto::scalar::Scalar;
use btcfast_crypto::sha256::{
    backend, lanes_backend, midstate, sha256, sha256d, sha256d_resumed, sha256d_resumed_lanes,
    Sha256, StripedSha256,
};

/// `2^k` as a scalar, for `k < 256`.
fn pow2(k: usize) -> Scalar {
    let mut b = [0u8; 32];
    b[31 - k / 8] = 1 << (k % 8);
    Scalar::from_be_bytes_reduced(&b)
}

/// Draws a scalar, biased toward the recoding edge cases.
fn draw_scalar(src: &mut ByteSource) -> Scalar {
    match src.choice(9) {
        0 => Scalar::ZERO,
        1 => Scalar::ONE,
        2 => Scalar::from_u64(2),
        3 => -Scalar::ONE,         // n - 1
        4 => -Scalar::from_u64(2), // n - 2
        // A single power of two: the sparsest wNAF.
        5 => pow2(src.choice(256)),
        6 => Scalar::from_be_bytes_reduced(&[0xFF; 32]), // densest bits
        7 => {
            // A run of ones, bits lo..hi: all-ones comb windows whose
            // carry ripples upwards, and a long zero run below.
            let (a, b) = (src.choice(256), src.choice(256));
            pow2(a.max(b)) - pow2(a.min(b))
        }
        _ => {
            let mut b = [0u8; 32];
            src.fill(&mut b);
            Scalar::from_be_bytes_reduced(&b)
        }
    }
}

/// Comparable serialization: affine `x || y` bytes, empty for infinity.
fn point_bytes(p: &Point) -> Vec<u8> {
    match p.to_affine() {
        AffinePoint::Infinity => Vec::new(),
        AffinePoint::Coordinates { x, y } => {
            let mut out = Vec::with_capacity(64);
            out.extend_from_slice(&x.to_be_bytes());
            out.extend_from_slice(&y.to_be_bytes());
            out
        }
    }
}

/// Differential: every fast multiplication path — single-scalar, fixed-base,
/// double-scalar and multi-scalar — must be byte-identical to the binary
/// ladder on a fuzzed draw.
pub fn diff_crypto_mul(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    // Base point: k*G via the oracle ladder (stays on-curve by group
    // closure even if the code under test is wrong). Bias k toward edges
    // too — the table build itself doubles and adds the base.
    let base_k = draw_scalar(&mut src);
    let base = Point::generator().mul_binary(&base_k);
    let k = draw_scalar(&mut src);

    let oracle = point_bytes(&base.mul_binary(&k));
    if point_bytes(&base.mul(&k)) != oracle {
        return Err(format!(
            "Point::mul diverges from mul_binary: base_k={base_k:?} k={k:?}"
        ));
    }
    if point_bytes(&mul_wnaf(&base, &k)) != oracle {
        return Err(format!(
            "mul_wnaf diverges from mul_binary: base_k={base_k:?} k={k:?}"
        ));
    }
    // A fuzz-chosen table width exercises every supported window.
    let width = 2 + src.choice(7) as u32; // 2..=8
    match OddMultiplesTable::new(&base, width) {
        Some(table) => {
            if point_bytes(&table.mul(&k)) != oracle {
                return Err(format!(
                    "width-{width} table diverges from mul_binary: base_k={base_k:?} k={k:?}"
                ));
            }
        }
        None => {
            if !base.is_infinity() {
                return Err("table build refused a finite point".into());
            }
        }
    }
    // Fixed-base path against the same oracle.
    if point_bytes(&generator_mul(&k)) != point_bytes(&Point::generator().mul_binary(&k)) {
        return Err(format!("generator_mul diverges from mul_binary: k={k:?}"));
    }
    // The same comb built on the drawn base, as a promoted key gets one.
    match CombTable::new(&base) {
        Some(comb) => {
            if point_bytes(&comb.mul(&k)) != oracle {
                return Err(format!(
                    "comb diverges from mul_binary: base_k={base_k:?} k={k:?}"
                ));
            }
        }
        None => {
            if !base.is_infinity() {
                return Err("comb build refused a finite point".into());
            }
        }
    }
    // Interleaved double-scalar against the composed oracle.
    let a = draw_scalar(&mut src);
    let fast = Point::lincomb(&a, &k, &base);
    let slow = Point::generator().mul_binary(&a).add(&base.mul_binary(&k));
    if point_bytes(&fast) != point_bytes(&slow) {
        return Err(format!(
            "lincomb diverges: a={a:?} b={k:?} base_k={base_k:?}"
        ));
    }
    // Multi-scalar sum of up to six terms against the oracle's fold.
    let len = src.choice(7);
    let terms: Vec<(Scalar, Point)> = (0..len)
        .map(|_| {
            let k = draw_scalar(&mut src);
            (k, Point::generator().mul_binary(&draw_scalar(&mut src)))
        })
        .collect();
    let folded = terms
        .iter()
        .fold(Point::INFINITY, |acc, (k, p)| acc.add(&p.mul_binary(k)));
    if point_bytes(&msm_wnaf(&terms)) != point_bytes(&folded) {
        return Err(format!("msm_wnaf diverges on {len} terms: {terms:?}"));
    }
    Ok(())
}

/// Differential: the Euclidean inverses of both moduli must equal the
/// retained Fermat ladders on a fuzzed draw (and its negation, which sits
/// at the other end of the range).
pub fn diff_crypto_inverse(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let s = draw_scalar(&mut src);
    let f = FieldElement::from_be_bytes_reduced(&s.to_be_bytes());
    for (s, f) in [(s, f), (-s, -f)] {
        if !s.is_zero() && s.invert() != scalar_invert_fermat(s) {
            return Err(format!("Scalar::invert diverges from Fermat: {s:?}"));
        }
        if !f.is_zero() && f.invert() != field_invert_fermat(f) {
            return Err(format!("FieldElement::invert diverges from Fermat: {f:?}"));
        }
    }
    Ok(())
}

/// Differential: SHA-256 as the system computes it — one-shot, doubled,
/// streamed through a fuzz-chosen chunking, (where the remainder and its
/// padding fit one block) resumed the miner's way, one nonce and sixteen at
/// a time, and striped into sixteen lanes the recovery digest's way, on
/// both its paths — against the textbook hash over the portable block
/// function, on messages whose length, content and chunking all come from
/// the case bytes.
pub fn diff_crypto_sha256(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    // Half the lengths sit beside a block end, where the padding changes
    // shape (55 | 56) and the buffer hands over (63 | 64 | 65).
    let beside_block_end = 64 * src.choice(34) + 55 + src.choice(11);
    let len = [beside_block_end, src.choice(2200)][src.choice(2)];
    // Content: the rest of the case, cycled — a period that is no multiple
    // of 64, so no two blocks of a long message are alike.
    let seed = src.rest();
    let byte = |i: usize| seed.get(i % seed.len().max(1)).copied().unwrap_or(0);
    let data: Vec<u8> = (0..len).map(byte).collect();

    let (mut streamed, mut rest) = (Sha256::new(), &data[..]);
    while !rest.is_empty() {
        // Mostly short pieces, one in four up to everything left; never
        // empty, so that an exhausted source still reaches the end.
        let most = if src.choice(4) == 0 { rest.len() } else { 130 };
        let (piece, tail) = rest.split_at(1 + src.choice(most.min(rest.len())));
        streamed.update(piece);
        rest = tail;
    }
    let oracle = sha256_with(compress_blocks_portable, &data);
    let twice = sha256_with(compress_blocks_portable, &oracle);
    let resumed = (len % 64 < 56).then(|| midstate(&data));
    let resumed = resumed.map_or(twice, |(state, last)| sha256d_resumed(&state, &last).0);
    if (streamed.finalize(), sha256(&data)) != (oracle, oracle)
        || (sha256d(&data).0, resumed) != (twice, twice)
    {
        let on = backend();
        return Err(format!(
            "SHA-256 ({on}) diverges from the portable oracle at {len} bytes"
        ));
    }
    // The miner's sixteen-nonce call, where the remainder holds the eight
    // nonce bytes at 16..24: lane `i` is the message with `base + i` there.
    // Bases beside the two carries: low word into high, and past u64::MAX.
    if (24..56).contains(&(len % 64)) {
        let edge = src.choice(16) as u64;
        let base = [src.u64(), u64::from(u32::MAX) - edge, u64::MAX - edge][src.choice(3)];
        let (state, last) = midstate(&data);
        let at = len - len % 64 + 16;
        let lanes = sha256d_resumed_lanes(&state, &last, base);
        for (i, lane) in lanes.iter().enumerate() {
            let mut message = data.clone();
            message[at..at + 8].copy_from_slice(&base.wrapping_add(i as u64).to_le_bytes());
            let once = sha256_with(compress_blocks_portable, &message);
            if lane.0 != sha256_with(compress_blocks_portable, &once) {
                let on = lanes_backend();
                return Err(format!(
                    "the {on} lane call diverges from the portable oracle at {len} bytes, nonce {base} + {i}"
                ));
            }
        }
    }
    // The striped hasher over up to five 1 KiB stripes, in pieces that
    // mostly meet a part-filled stripe: on the dispatched path and on the
    // per-lane one, lane `j` must be the hash of block `j` of every stripe.
    let len = src.choice(5 * 1024 + 200);
    let data: Vec<u8> = (0..len).map(byte).collect();
    let (mut dispatched, mut per_lane, mut rest) =
        (StripedSha256::new(), striped_sha256_per_lane(), &data[..]);
    while !rest.is_empty() {
        let most = if src.choice(4) == 0 { rest.len() } else { 1100 };
        let (piece, tail) = rest.split_at(1 + src.choice(most.min(rest.len())));
        dispatched.update(piece);
        per_lane.update(piece);
        rest = tail;
    }
    let expected = striped_with(compress_blocks_portable, &data);
    for (on, got) in [
        (lanes_backend(), dispatched.finalize()),
        ("per-lane", per_lane.finalize()),
    ] {
        if got != expected {
            let at = got.iter().zip(&expected).position(|(a, b)| a != b);
            let at = at.unwrap_or(got.len().min(expected.len()));
            let part = match at / 32 {
                lane @ 0..16 => format!("lane {lane}"),
                _ => "the remainder".to_string(),
            };
            return Err(format!(
                "the {on} striped hasher diverges from the portable oracle at {len} bytes, in {part}"
            ));
        }
    }
    Ok(())
}

/// Hostile sign→verify round-trip: a fresh signature must verify on the
/// cached and uncached paths (the cached one past `PROMOTE_AT`, so from
/// the key's comb), and high-S / zero-component / tampered mutations must
/// all be rejected — with raw signature bytes never panicking the parser.
pub fn fuzz_crypto_sign_verify(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let seed = src.bytes(16);
    let kp = KeyPair::from_seed(&seed);
    let mut digest = [0u8; 32];
    src.fill(&mut digest);

    let sig = kp.sign(&digest);
    let q = kp.public().point();
    // Past the promotion count, so the mutations below run on the key's
    // comb rather than its wNAF table, and on until the comb may give way
    // to the next drawn key's, so that every case reaches a comb.
    for _ in 0..PROMOTE_AT + KEEP_FOR {
        if !kp.public().verify(&digest, &sig) {
            return Err("fresh signature rejected by cached verify".into());
        }
    }
    if !verify_uncached(q, &digest, &sig) {
        return Err("fresh signature rejected by uncached verify".into());
    }

    // Hostile mutations: each must fail on BOTH paths (a split verdict is
    // the worst kind of cache bug).
    let mut tampered = digest;
    tampered[src.choice(32)] ^= 1 + src.u8() % 255;
    let wrong_key = KeyPair::from_seed(&[seed.as_slice(), b"!"].concat());
    let mutations: [(&str, &Point, [u8; 32], Signature); 5] = [
        (
            "high-S",
            q,
            digest,
            Signature {
                r: sig.r,
                s: -sig.s,
            },
        ),
        (
            "zero-r",
            q,
            digest,
            Signature {
                r: Scalar::ZERO,
                s: sig.s,
            },
        ),
        (
            "zero-s",
            q,
            digest,
            Signature {
                r: sig.r,
                s: Scalar::ZERO,
            },
        ),
        ("tampered-digest", q, tampered, sig),
        ("wrong-key", wrong_key.public().point(), digest, sig),
    ];
    for (label, key, d, candidate) in &mutations {
        if ecdsa::verify(key, d, candidate) {
            return Err(format!("{label} mutation accepted by cached verify"));
        }
        if verify_uncached(key, d, candidate) {
            return Err(format!("{label} mutation accepted by uncached verify"));
        }
    }

    // Raw drawn bytes through the parser: any verdict is fine, panics are
    // not. A successful parse must re-serialize to the same bytes.
    let mut raw = [0u8; 64];
    src.fill(&mut raw);
    if let Ok(parsed) = Signature::from_bytes(&raw) {
        if parsed.to_bytes() != raw {
            return Err("Signature::from_bytes/to_bytes round trip changed bytes".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_accept_arbitrary_seeds() {
        crate::tests::assert_clean_at_depth(crate::Engine::Crypto);
    }

    #[test]
    fn mul_differential_clean_on_fixed_cases() {
        // Empty (all draws zero), short, and a spread of dense cases.
        assert_eq!(diff_crypto_mul(&[]), Ok(()));
        assert_eq!(diff_crypto_mul(&[7]), Ok(()));
        for seed in 0u8..12 {
            let bytes: Vec<u8> = (0..96)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            assert_eq!(diff_crypto_mul(&bytes), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn inverse_differential_clean_on_fixed_cases() {
        assert_eq!(diff_crypto_inverse(&[]), Ok(()));
        for seed in 0u8..32 {
            let bytes: Vec<u8> = (0..40)
                .map(|i| seed.wrapping_mul(29).wrapping_add(i))
                .collect();
            assert_eq!(diff_crypto_inverse(&bytes), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn sha256_differential_clean_on_fixed_cases() {
        assert_eq!(diff_crypto_sha256(&[]), Ok(()));
        assert_eq!(diff_crypto_sha256(&[1]), Ok(()));
        for seed in 0u8..32 {
            let bytes: Vec<u8> = (0..72)
                .map(|i| seed.wrapping_mul(37).wrapping_add(i))
                .collect();
            assert_eq!(diff_crypto_sha256(&bytes), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn sign_verify_clean_on_fixed_cases() {
        assert_eq!(fuzz_crypto_sign_verify(&[]), Ok(()));
        for seed in 0u8..6 {
            let bytes: Vec<u8> = (0..128)
                .map(|i| seed.wrapping_mul(17).wrapping_add(i))
                .collect();
            assert_eq!(fuzz_crypto_sign_verify(&bytes), Ok(()), "seed {seed}");
        }
    }
}
