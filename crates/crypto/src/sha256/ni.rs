//! The SHA-256 block function on the x86-64 SHA extensions, and the crate's
//! whole `unsafe` surface: one call into a `#[target_feature]` function,
//! made right after the running CPU reported every feature it is compiled
//! with. The kernel itself is safe code — words go in and out by value
//! (`_mm_set_*` / `_mm_extract_*` compile to the same unaligned 16-byte
//! loads and stores), so there is no pointer in it.

use super::K;
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
