//! Proof-of-work primitives: compact target encoding ("nBits"), target
//! checks, and difficulty retargeting.

use crate::u256::U256;
use btcfast_crypto::Hash256;
use std::error::Error;
use std::fmt;

/// Bitcoin's compact 32-bit target encoding (`nBits`).
///
/// Layout: 1 exponent byte followed by a 3-byte mantissa;
/// `target = mantissa * 256^(exponent - 3)`.
///
/// ```
/// use btcfast_btcsim::pow::CompactBits;
///
/// // Bitcoin genesis difficulty.
/// let bits = CompactBits(0x1d00ffff);
/// let target = bits.to_target().unwrap();
/// assert_eq!(CompactBits::from_target(&target), bits);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompactBits(pub u32);

/// Errors decoding compact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactBitsError {
    /// The encoding sets the mantissa sign bit, which Bitcoin treats as
    /// negative and rejects for targets.
    Negative,
    /// The implied target overflows 256 bits.
    Overflow,
    /// The target decodes to zero, which no hash can satisfy.
    Zero,
}

impl fmt::Display for CompactBitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactBitsError::Negative => write!(f, "compact target is negative"),
            CompactBitsError::Overflow => write!(f, "compact target overflows 256 bits"),
            CompactBitsError::Zero => write!(f, "compact target is zero"),
        }
    }
}

impl Error for CompactBitsError {}

impl CompactBits {
    /// Decodes into a full 256-bit target.
    ///
    /// # Errors
    ///
    /// See [`CompactBitsError`].
    pub fn to_target(self) -> Result<U256, CompactBitsError> {
        let exponent = self.0 >> 24;
        let mantissa = self.0 & 0x007f_ffff;
        if mantissa == 0 {
            // A zero mantissa encodes the value zero regardless of the
            // exponent or sign bit, mirroring Bitcoin's SetCompact.
            return Err(CompactBitsError::Zero);
        }
        if self.0 & 0x0080_0000 != 0 {
            return Err(CompactBitsError::Negative);
        }
        let target = if exponent <= 3 {
            U256::from_u64((mantissa >> (8 * (3 - exponent))) as u64)
        } else {
            let shift = 8 * (exponent - 3);
            if shift >= 256 {
                return Err(CompactBitsError::Overflow);
            }
            let base = U256::from_u64(mantissa as u64);
            let shifted = base << shift;
            // Detect overflow: shifting back must reproduce the mantissa.
            if (shifted >> shift) != base {
                return Err(CompactBitsError::Overflow);
            }
            shifted
        };
        if target.is_zero() {
            return Err(CompactBitsError::Zero);
        }
        Ok(target)
    }

    /// Encodes a 256-bit target into compact form (canonical encoding).
    ///
    /// The mantissa is taken directly from the three most significant
    /// bytes of the big-endian representation, so no intermediate shift
    /// can truncate through a limb boundary.
    pub fn from_target(target: &U256) -> CompactBits {
        let be = target.to_be_bytes();
        let size = 32 - be.iter().take_while(|&&b| b == 0).count();
        if size == 0 {
            return CompactBits(0);
        }
        let mut mantissa: u32 = 0;
        for i in 0..3 {
            let sig = size as i64 - 1 - i as i64;
            let byte = if sig >= 0 { be[31 - sig as usize] } else { 0 };
            mantissa = (mantissa << 8) | u32::from(byte);
        }
        let mut exponent = size as u32;
        // Avoid the sign bit by bumping the exponent.
        if mantissa & 0x0080_0000 != 0 {
            mantissa >>= 8;
            exponent += 1;
        }
        CompactBits((exponent << 24) | mantissa)
    }
}

impl fmt::Debug for CompactBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompactBits(0x{:08x})", self.0)
    }
}

/// Checks whether a block-header hash satisfies a target.
///
/// The header hash (a [`Hash256`] in digest order) is interpreted as a
/// little-endian 256-bit integer, per Bitcoin consensus.
pub fn hash_meets_target(hash: &Hash256, target: &U256) -> bool {
    let mut le = hash.0;
    le.reverse(); // digest order → big-endian integer bytes
    let value = U256::from_be_bytes(&le);
    value <= *target
}

/// Difficulty retarget: scales the previous target by
/// `actual_timespan / expected_timespan`, clamped to `[1/4, 4]` and to the
/// PoW limit, mirroring Bitcoin's rule.
pub fn retarget(
    prev_target: &U256,
    actual_timespan_secs: u64,
    expected_timespan_secs: u64,
    pow_limit: &U256,
) -> U256 {
    let min = expected_timespan_secs / 4;
    let max = expected_timespan_secs * 4;
    let clamped = actual_timespan_secs.clamp(min.max(1), max);
    // Multiply-then-divide preserves precision; when the product would
    // overflow 256 bits, divide first (the target is large enough that the
    // precision loss is negligible there).
    let product = prev_target.saturating_mul_u64(clamped);
    let expected = U256::from_u64(expected_timespan_secs.max(1));
    let scaled = if product == U256::MAX {
        prev_target.div_rem(&expected).0.saturating_mul_u64(clamped)
    } else {
        product.div_rem(&expected).0
    };
    if scaled > *pow_limit {
        *pow_limit
    } else if scaled.is_zero() {
        U256::ONE
    } else {
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_crypto::sha256::sha256d;
    use proptest::prelude::*;

    #[test]
    fn genesis_bits_round_trip() {
        let bits = CompactBits(0x1d00ffff);
        let target = bits.to_target().unwrap();
        // 0x00000000FFFF0000...0000 — the famous genesis target.
        assert_eq!(target, U256::from_u64(0xffff) << 208);
        assert_eq!(CompactBits::from_target(&target), bits);
    }

    #[test]
    fn small_exponents() {
        // exponent 1: mantissa shifted down by 16 bits.
        let bits = CompactBits(0x01123456);
        assert_eq!(bits.to_target().unwrap(), U256::from_u64(0x12));
        let bits = CompactBits(0x02123456);
        assert_eq!(bits.to_target().unwrap(), U256::from_u64(0x1234));
        let bits = CompactBits(0x03123456);
        assert_eq!(bits.to_target().unwrap(), U256::from_u64(0x123456));
        let bits = CompactBits(0x04123456);
        assert_eq!(bits.to_target().unwrap(), U256::from_u64(0x12345600));
    }

    #[test]
    fn negative_rejected() {
        assert_eq!(
            CompactBits(0x01803456).to_target(),
            Err(CompactBitsError::Negative)
        );
    }

    #[test]
    fn sign_bit_with_zero_mantissa_decodes_as_zero() {
        // Bitcoin's SetCompact only treats the encoding as negative when
        // the mantissa is nonzero; 0x..800000 is the value zero. The old
        // decoder misclassified these as Negative.
        for bits in [0x0080_0000u32, 0x0380_0000, 0x2080_0000, 0xff80_0000] {
            assert_eq!(
                CompactBits(bits).to_target(),
                Err(CompactBitsError::Zero),
                "bits 0x{bits:08x}"
            );
        }
        // A nonzero mantissa with the sign bit set really is negative.
        assert_eq!(
            CompactBits(0x0480_0001).to_target(),
            Err(CompactBitsError::Negative)
        );
    }

    #[test]
    fn exponent_boundary_extremes() {
        // Exponent 0: all mantissa bytes shift out, leaving zero.
        assert_eq!(
            CompactBits(0x00123456).to_target(),
            Err(CompactBitsError::Zero)
        );
        // Exponent 32 never overflows (23-bit mantissa tops out at bit 254).
        let bits = CompactBits(0x207f_ffff);
        assert_eq!(CompactBits::from_target(&bits.to_target().unwrap()), bits);
        // Exponent 33 holds two mantissa bytes; three overflow.
        let bits = CompactBits(0x2100ffff);
        assert_eq!(CompactBits::from_target(&bits.to_target().unwrap()), bits);
        assert_eq!(
            CompactBits(0x2101_0000).to_target(),
            Err(CompactBitsError::Overflow)
        );
        // Exponent 34 holds one mantissa byte; two overflow.
        let ok = CompactBits(0x2200_00ff).to_target().unwrap();
        assert_eq!(ok, U256::from_u64(0xff) << 248);
        assert_eq!(
            CompactBits(0x2200_0100).to_target(),
            Err(CompactBitsError::Overflow)
        );
        // Exponent >= 35 always overflows for a nonzero mantissa.
        assert_eq!(
            CompactBits(0x2300_0001).to_target(),
            Err(CompactBitsError::Overflow)
        );
        assert_eq!(
            CompactBits(0xff00_0001).to_target(),
            Err(CompactBitsError::Overflow)
        );
    }

    #[test]
    fn max_target_encodes_canonically() {
        // U256::MAX has a 0xffffff top mantissa whose sign bit forces the
        // exponent bump; the byte-extraction encoder must land on
        // 0x2100ffff, not truncate through a limb boundary.
        let bits = CompactBits::from_target(&U256::MAX);
        assert_eq!(bits, CompactBits(0x2100ffff));
        // Round trip through decode is a fixpoint.
        let target = bits.to_target().unwrap();
        assert_eq!(CompactBits::from_target(&target), bits);
    }

    #[test]
    fn non_canonical_encodings_re_encode_canonically() {
        // 0x220000ff and 0x2100ff00 denote the same target; re-encoding
        // must pick the canonical form with the smaller exponent.
        let a = CompactBits(0x2200_00ff).to_target().unwrap();
        let b = CompactBits(0x2100_ff00).to_target().unwrap();
        assert_eq!(a, b);
        assert_eq!(CompactBits::from_target(&a), CompactBits(0x2100_ff00));
    }

    #[test]
    fn zero_rejected() {
        assert_eq!(
            CompactBits(0x01000000).to_target(),
            Err(CompactBitsError::Zero)
        );
        assert_eq!(
            CompactBits(0x00000000).to_target(),
            Err(CompactBitsError::Zero)
        );
    }

    #[test]
    fn overflow_rejected() {
        assert_eq!(
            CompactBits(0xff123456).to_target(),
            Err(CompactBitsError::Overflow)
        );
    }

    #[test]
    fn sign_bit_avoided_in_encoding() {
        // A target whose top mantissa byte would be >= 0x80 must encode
        // with a larger exponent.
        let target = U256::from_u64(0x0080_0000);
        let bits = CompactBits::from_target(&target);
        assert_eq!(bits.to_target().unwrap(), target);
        assert_eq!(bits.0 & 0x0080_0000, 0);
    }

    #[test]
    fn hash_meets_target_boundaries() {
        let easy = U256::MAX;
        let h = sha256d(b"any hash");
        assert!(hash_meets_target(&h, &easy));
        assert!(!hash_meets_target(&h, &U256::ZERO));
    }

    #[test]
    fn hash_target_uses_le_interpretation() {
        // A hash with many trailing zero *digest* bytes is numerically small.
        let mut digest = [0xffu8; 32];
        for b in digest[16..].iter_mut() {
            *b = 0;
        }
        let h = Hash256(digest);
        let threshold = U256::ONE << 129; // value is < 2^128
        assert!(hash_meets_target(&h, &threshold));
        let tight = U256::ONE << 127;
        assert!(!hash_meets_target(&h, &tight));
    }

    #[test]
    fn retarget_scales_and_clamps() {
        let limit = CompactBits(0x1d00ffff).to_target().unwrap();
        let prev = limit >> 8;
        let expected = 2016 * 600;

        // Blocks came in twice as fast → target halves.
        let faster = retarget(&prev, expected / 2, expected, &limit);
        assert_eq!(faster, prev >> 1);

        // Blocks twice as slow → target doubles.
        let slower = retarget(&prev, expected * 2, expected, &limit);
        assert_eq!(slower, prev << 1);

        // Clamped at 4x either way.
        let way_fast = retarget(&prev, 1, expected, &limit);
        assert_eq!(way_fast, prev >> 2);
        let way_slow = retarget(&prev, expected * 100, expected, &limit);
        assert_eq!(way_slow, prev.saturating_mul_u64(4));

        // Never exceeds the pow limit.
        let at_limit = retarget(&limit, expected * 4, expected, &limit);
        assert_eq!(at_limit, limit);
    }

    proptest! {
        #[test]
        fn prop_compact_round_trip(exp in 0u32..=40, mantissa in 0u32..0x0100_0000) {
            // The full 24-bit mantissa range includes the sign bit.
            let bits = CompactBits((exp << 24) | mantissa);
            if let Ok(target) = bits.to_target() {
                let re = CompactBits::from_target(&target);
                // Canonical re-encoding decodes to the same target and is
                // a fixpoint of encode∘decode.
                prop_assert_eq!(re.to_target().unwrap(), target);
                prop_assert_eq!(CompactBits::from_target(&re.to_target().unwrap()), re);
            }
        }
    }
}
