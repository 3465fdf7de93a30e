//! The SHA-256 block function on the x86-64 SHA extensions, the miner's
//! sixteen-nonce double SHA-256 on AVX-512 lanes, and the crate's whole
//! `unsafe` surface: two calls, one into each `#[target_feature]` kernel,
//! each made right after the running CPU reported every feature that
//! kernel is compiled with. The kernels themselves are safe code — words
//! go in and out by value (`_mm*_set*` / `_mm*_extract*` compile to
//! unaligned loads and stores), so there is no pointer in them.

use super::{digest_bytes, H0, K};
use crate::hash::Hash256;
use core::arch::x86_64::*;

/// Whether the running CPU has every instruction set [`kernel`] uses
/// (`sse2`, the fourth, is part of the x86-64 baseline).
pub(super) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// `blocks` through the compression function on the SHA instructions, or
/// `false`, having touched nothing, on a CPU that lacks them.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `kernel` is a safe function; the call is `unsafe` only because
    // it is compiled with `sha`, `sse2`, `ssse3` and `sse4.1` enabled.
    // `available` has just seen all but `sse2` on this CPU, and every
    // x86-64 CPU has that.
    unsafe { kernel(state, blocks) };
    true
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
    // `sha256rnds2` wants the working variables as (a, b, e, f) and
    // (c, d, g, h), `a` and `c` in the high lanes.
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let (mut abef, mut cdgh) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));
    // Byte shuffle that turns 16 message bytes into four big-endian words.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks.as_chunks::<64>().0 {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The sixteen message words, then a sliding window of the schedule:
        // `w[0]` is W[4i..4i+4] when step `i` runs its four rounds.
        let mut w = [0, 1, 2, 3].map(|quad| {
            let bytes = u128::from_le_bytes(block.as_chunks::<16>().0[quad]);
            let lanes = _mm_set_epi64x((bytes >> 64) as i64, bytes as i64);
            _mm_shuffle_epi8(lanes, big_endian)
        });
        for k in K.as_chunks::<4>().0 {
            let [k0, k1, k2, k3] = k.map(|word| word as i32);
            let wk = _mm_add_epi32(w[0], _mm_set_epi32(k3, k2, k1, k0));
            // Two rounds per instruction, on the low then the high half.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            // FIPS 180-4 §6.2.2 step 1, four words at a time: `msg1` adds
            // σ0(W[t-15]) to W[t-16], `alignr` supplies W[t-7], `msg2` adds
            // σ1(W[t-2]). The loop unrolls; the quads past W[63] are dead.
            let w16_w7 = _mm_add_epi32(
                _mm_sha256msg1_epu32(w[0], w[1]),
                _mm_alignr_epi8::<4>(w[3], w[2]),
            );
            w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(w16_w7, w[3])];
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|word| word as u32);
}

/// Whether the running CPU has AVX-512F, the extension [`lanes_kernel`] is
/// compiled with.
pub(super) fn lanes_available() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// What `super::sha256d_resumed` returns for the sixteen nonces
/// `base..base + 16` (modulo 2^64), each in `last[16..24]`, little-endian,
/// one per AVX-512 lane — or `None`, having computed nothing, on a CPU
/// without AVX-512F.
pub(super) fn sha256d_lanes(state: &[u32; 8], last: &[u8; 64], base: u64) -> Option<[Hash256; 16]> {
    if !lanes_available() {
        return None;
    }
    // SAFETY: `lanes_kernel` is a safe function; the call is `unsafe` only
    // because it is compiled with `avx512f` enabled. `lanes_available` has
    // just seen it on this CPU, and what it implies (AVX2, FMA, F16C and the
    // SSE levels under them) comes with it on every CPU that has it.
    let states = unsafe { lanes_kernel(state, last, base) };
    Some(states.map(|state| Hash256(digest_bytes(&state))))
}

/// Sixteen lanes of one 32-bit word.
type Lanes = __m512i;

#[target_feature(enable = "avx512f")]
fn splat(word: u32) -> Lanes {
    _mm512_set1_epi32(word as i32)
}

/// Each lane's word with its bytes reversed: the two byte pairs a rotation
/// by 8 puts in place, the other two from a rotation by 24.
#[target_feature(enable = "avx512f")]
fn byte_swap(x: Lanes) -> Lanes {
    let from_ror8 = splat(0xff00_ff00);
    _mm512_ternarylogic_epi32::<0xca>(
        from_ror8,
        _mm512_ror_epi32::<8>(x),
        _mm512_ror_epi32::<24>(x),
    )
}

/// `a ^ b ^ c`, one `vpternlogd`.
#[target_feature(enable = "avx512f")]
fn xor3(a: Lanes, b: Lanes, c: Lanes) -> Lanes {
    _mm512_ternarylogic_epi32::<0x96>(a, b, c)
}

/// One round of FIPS 180-4 §6.2.2 step 3 on sixteen lanes, in place: the
/// caller passes the working variables as `[a, b, c]`, `d`, `[e, f, g]`,
/// `h` and, instead of shifting all eight down, the next round names them
/// one place on — `h` now holding the new `a` and `d` the new `e`.
#[inline]
#[target_feature(enable = "avx512f")]
fn round([a, b, c]: [Lanes; 3], d: &mut Lanes, [e, f, g]: [Lanes; 3], h: &mut Lanes, kw: Lanes) {
    let s1 = xor3(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    );
    // Ch is `e ? f : g` and Maj the majority of three, bit by bit.
    let ch = _mm512_ternarylogic_epi32::<0xca>(e, f, g);
    let t1 = _mm512_add_epi32(_mm512_add_epi32(*h, s1), _mm512_add_epi32(ch, kw));
    let s0 = xor3(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    );
    let t2 = _mm512_add_epi32(s0, _mm512_ternarylogic_epi32::<0xe8>(a, b, c));
    *d = _mm512_add_epi32(*d, t1);
    *h = _mm512_add_epi32(t1, t2);
}

/// The compression function of FIPS 180-4 §6.2.2 on sixteen independent
/// (state, block) pairs, one per lane; `w` holds the block's words.
#[inline]
#[target_feature(enable = "avx512f")]
fn compress(state: [Lanes; 8], mut w: [Lanes; 16]) -> [Lanes; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
    for t in (0..64).step_by(8) {
        if t >= 16 {
            // Step 1 as a ring of sixteen: slot `i % 16` holds W[i-16] and
            // becomes W[i]; W[i-15], W[i-7] and W[i-2] sit beside it.
            for i in t..t + 8 {
                let (w15, w2) = (w[(i + 1) % 16], w[(i + 14) % 16]);
                let s0 = xor3(
                    _mm512_ror_epi32::<7>(w15),
                    _mm512_ror_epi32::<18>(w15),
                    _mm512_srli_epi32::<3>(w15),
                );
                let s1 = xor3(
                    _mm512_ror_epi32::<17>(w2),
                    _mm512_ror_epi32::<19>(w2),
                    _mm512_srli_epi32::<10>(w2),
                );
                let sum = _mm512_add_epi32(
                    _mm512_add_epi32(w[i % 16], s0),
                    _mm512_add_epi32(w[(i + 9) % 16], s1),
                );
                w[i % 16] = sum;
            }
        }
        let kw = |i: usize| _mm512_add_epi32(splat(K[i]), w[i % 16]);
        round([a, b, c], &mut d, [e, f, g], &mut h, kw(t));
        round([h, a, b], &mut c, [d, e, f], &mut g, kw(t + 1));
        round([g, h, a], &mut b, [c, d, e], &mut f, kw(t + 2));
        round([f, g, h], &mut a, [b, c, d], &mut e, kw(t + 3));
        round([e, f, g], &mut h, [a, b, c], &mut d, kw(t + 4));
        round([d, e, f], &mut g, [h, a, b], &mut c, kw(t + 5));
        round([c, d, e], &mut f, [g, h, a], &mut b, kw(t + 6));
        round([b, c, d], &mut e, [f, g, h], &mut a, kw(t + 7));
    }
    let mut out = state;
    for (word, add) in out.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = _mm512_add_epi32(*word, add);
    }
    out
}

/// Both compressions of every lane, then each lane's final state.
#[target_feature(enable = "avx512f")]
fn lanes_kernel(state: &[u32; 8], last: &[u8; 64], base: u64) -> [[u32; 8]; 16] {
    let mut block: [Lanes; 16] =
        core::array::from_fn(|i| splat(u32::from_be_bytes(last.as_chunks::<4>().0[i])));
    // Lane `i` holds nonce `base + i`: its low word, and its high word plus
    // one where the low word wrapped. Both are read big-endian, as every
    // message word is, from the little-endian bytes the header stores.
    let lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    let low = _mm512_add_epi32(splat(base as u32), lane);
    let high = splat((base >> 32) as u32);
    let high = _mm512_mask_add_epi32(high, _mm512_cmplt_epu32_mask(low, lane), high, splat(1));
    (block[4], block[5]) = (byte_swap(low), byte_swap(high));
    let first = compress(state.map(|word| splat(word)), block);

    // The digest as a 32-byte message under its constant padding.
    let mut block = [splat(0); 16];
    block[..8].copy_from_slice(&first);
    (block[8], block[15]) = (splat(0x8000_0000), splat(256));
    let second = compress(H0.map(|word| splat(word)), block);

    let mut states = [[0u32; 8]; 16];
    for (word, lanes) in second.into_iter().enumerate() {
        let quarters = [
            _mm512_extracti32x4_epi32::<0>(lanes),
            _mm512_extracti32x4_epi32::<1>(lanes),
            _mm512_extracti32x4_epi32::<2>(lanes),
            _mm512_extracti32x4_epi32::<3>(lanes),
        ];
        for (quad, quarter) in quarters.into_iter().enumerate() {
            let values = [
                _mm_extract_epi32::<0>(quarter),
                _mm_extract_epi32::<1>(quarter),
                _mm_extract_epi32::<2>(quarter),
                _mm_extract_epi32::<3>(quarter),
            ];
            for (i, value) in values.into_iter().enumerate() {
                states[4 * quad + i][word] = value as u32;
            }
        }
    }
    states
}
