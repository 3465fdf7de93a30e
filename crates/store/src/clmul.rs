//! CRC-32 folding on carry-less multiply (PCLMULQDQ), and the crate's whole
//! `unsafe` surface: one call into a `#[target_feature]` function, made
//! right after the running CPU reported every feature it is compiled with.
//! The kernel itself is safe code — blocks go in by value (`_mm_set_epi64x`
//! compiles to the same unaligned 16-byte load), so there is no pointer in
//! it.
//!
//! The method is Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
//! bit-reflected domain of the IEEE polynomial: four 128-bit lanes are
//! folded 64 bytes ahead at a time, merged into one, folded 16 bytes at a
//! time over the remaining whole blocks, and the 128-bit remainder is
//! reduced to 32 bits by one more fold and a Barrett reduction. The fold
//! constants are `x^k mod P(x)` for the distance `k` they fold across,
//! bit-reflected and shifted left by one, as the paper tabulates them.

use core::arch::x86_64::*;

/// The shortest input the kernel takes: two of its 64-byte steps. Shorter
/// inputs — every WAL record — stay on slicing-by-8, which is faster there.
pub(super) const MIN_LEN: usize = 128;

/// Folds a lane 512 bits ahead: `k` = 4·128 + 32 and 4·128 − 32.
const K1_K2: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
/// Folds a lane 128 bits ahead: `k` = 128 + 32 and 128 − 32.
const K3_K4: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
/// Folds 64 bits down to 32: `k` = 64.
const K5: i64 = 0x0001_63cd_6124;
/// Barrett reduction: `P` itself and `floor(x^64 / P)`, both bit-reflected.
const P_MU: (i64, i64) = (0x0001_db71_0641, 0x0001_f701_1641);

/// Whether the running CPU has every instruction set [`kernel`] uses
/// (`sse2`, the third, is part of the x86-64 baseline).
pub(super) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// Advances the CRC register `crc` (pre-inverted, as slicing-by-8 keeps
/// it) over the longest whole-16-byte prefix of `bytes`, returning the new
/// register and the bytes left over — or `None`, having touched nothing,
/// when `bytes` is shorter than [`MIN_LEN`] or the CPU lacks the
/// instructions.
pub(super) fn update(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    if bytes.len() < MIN_LEN || !available() {
        return None;
    }
    let (blocks, rest) = bytes.as_chunks::<16>();
    let (first, blocks) = blocks.split_first_chunk::<4>()?;
    // SAFETY: `kernel` is a safe function; the call is `unsafe` only because
    // it is compiled with `pclmulqdq`, `sse2` and `sse4.1` enabled.
    // `available` has just seen the first and the last on this CPU, and
    // every x86-64 CPU has `sse2`.
    let crc = unsafe { kernel(crc, first, blocks) };
    Some((crc, rest))
}

/// `a` folded onto `next`: the low half of `a` carry-less times the low
/// constant of `k`, plus the high half times the high one.
#[target_feature(enable = "pclmulqdq,sse2")]
fn fold(a: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128::<0x00>(a, k);
    let high = _mm_clmulepi64_si128::<0x11>(a, k);
    _mm_xor_si128(_mm_xor_si128(low, high), next)
}

/// A 16-byte block as a vector, little-endian lanes.
#[target_feature(enable = "sse2")]
fn load(block: &[u8; 16]) -> __m128i {
    let bytes = u128::from_le_bytes(*block);
    _mm_set_epi64x((bytes >> 64) as i64, bytes as i64)
}

/// The register advanced over `first`, the four blocks that seed the
/// lanes, and then over `blocks`.
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
fn kernel(crc: u32, first: &[[u8; 16]; 4], blocks: &[[u8; 16]]) -> u32 {
    let (quads, singles) = blocks.as_chunks::<4>();
    let mut lanes = first.map(|block| load(&block));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

    let k1_k2 = _mm_set_epi64x(K1_K2.1, K1_K2.0);
    for quad in quads {
        lanes = [0, 1, 2, 3].map(|lane| fold(lanes[lane], k1_k2, load(&quad[lane])));
    }

    let k3_k4 = _mm_set_epi64x(K3_K4.1, K3_K4.0);
    let [l0, l1, l2, l3] = lanes;
    let mut acc = fold(fold(fold(l0, k3_k4, l1), k3_k4, l2), k3_k4, l3);
    for block in singles {
        acc = fold(acc, k3_k4, load(block));
    }

    // 128 bits to 64: the low half folded across 64 bits onto the high one.
    let low_32_of_each_half = _mm_setr_epi32(!0, 0, !0, 0);
    acc = _mm_xor_si128(
        _mm_srli_si128::<8>(acc),
        _mm_clmulepi64_si128::<0x10>(acc, k3_k4),
    );
    // 64 bits to 32 (plus a 32-bit carry): the low word folded by x^64.
    let high = _mm_srli_si128::<4>(acc);
    let low = _mm_and_si128(acc, low_32_of_each_half);
    acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(low, _mm_set_epi64x(0, K5)),
        high,
    );
    // Barrett: q = floor(low32 · μ / x^32), then acc − q · P leaves the
    // remainder in the second word.
    let p_mu = _mm_set_epi64x(P_MU.1, P_MU.0);
    let q = _mm_and_si128(
        _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low_32_of_each_half), p_mu),
        low_32_of_each_half,
    );
    acc = _mm_xor_si128(acc, _mm_clmulepi64_si128::<0x00>(q, p_mu));
    _mm_extract_epi32::<1>(acc) as u32
}
