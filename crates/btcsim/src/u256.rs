//! A 256-bit unsigned integer, used for proof-of-work targets and
//! accumulated chainwork.

use btcfast_crypto::limbs;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Shl, Shr};

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
///
/// The limb arithmetic is [`btcfast_crypto::limbs`]; this type gives it a
/// numeric order and adds exactly what Bitcoin's consensus code needs on
/// top: shifts for compact target decoding, and `work = 2^256 / (target +
/// 1)` per header for chainwork accumulation and comparison.
///
/// ```
/// use btcfast_btcsim::U256;
///
/// let a = U256::from_u64(1) << 200;
/// let b = U256::from_u64(1) << 199;
/// assert!(a > b);
/// assert_eq!(b.checked_add(&b), Some(a));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// One.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a value from a `u64`.
    pub fn from_u64(v: u64) -> U256 {
        U256([v, 0, 0, 0])
    }

    /// Parses 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
        U256(limbs::from_be_bytes(bytes))
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        limbs::to_be_bytes(&self.0)
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        limbs::is_zero(&self.0)
    }

    /// The number of significant bits: 0 for zero, 256 for [`U256::MAX`].
    fn bits(&self) -> u32 {
        let mut bits = 256;
        for limb in self.0.iter().rev() {
            if *limb != 0 {
                return bits - limb.leading_zeros();
            }
            bits -= 64;
        }
        0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        match limbs::add(&self.0, &rhs.0) {
            (sum, 0) => Some(U256(sum)),
            _ => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        match limbs::sub(&self.0, &rhs.0) {
            (difference, 0) => Some(U256(difference)),
            _ => None,
        }
    }

    /// Saturating multiplication by a `u64`.
    pub fn saturating_mul_u64(&self, rhs: u64) -> U256 {
        match limbs::mul_wide(&self.0, &[rhs, 0, 0, 0]) {
            [a, b, c, d, 0, 0, 0, 0] => U256([a, b, c, d]),
            _ => U256::MAX,
        }
    }

    /// Long division by another `U256`, returning the quotient and the
    /// remainder.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &U256) -> (U256, U256) {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return (U256::ZERO, *self);
        }
        // `self >= rhs`, so `self` has at least as many bits.
        let shift = self.bits() - rhs.bits();
        let mut quotient = U256::ZERO;
        let mut remainder = *self;
        let mut divisor = *rhs << shift;
        for i in (0..=shift).rev() {
            if let Some(d) = remainder.checked_sub(&divisor) {
                remainder = d;
                quotient.0[(i / 64) as usize] |= 1u64 << (i % 64);
            }
            divisor = divisor >> 1;
        }
        (quotient, remainder)
    }

    /// Bitcoin's per-header work: `2^256 / (target + 1)`, computed as
    /// `(~target / (target + 1)) + 1` to stay inside 256 bits.
    pub fn work_from_target(target: &U256) -> U256 {
        let Some(target_plus_1) = target.checked_add(&U256::ONE) else {
            // target = 2^256 - 1: the work is exactly one.
            return U256::ONE;
        };
        let not_target = U256(target.0.map(|limb| !limb));
        let (q, _) = not_target.div_rem(&target_plus_1);
        q.checked_add(&U256::ONE).unwrap_or(U256::MAX)
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, limb) in out.iter_mut().enumerate().take(4 - limb_shift) {
            *limb = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                *limb |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &U256) -> Ordering {
        limbs::cmp(&self.0, &other.0)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &U256) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x")?;
        for i in (0..4).rev() {
            write!(f, "{:016x}", self.0[i])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_is_big_endian_semantics() {
        let small = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        let big = U256([0, 0, 0, 1]);
        assert!(big > small);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = U256([5, 6, 7, 8]);
        let b = U256([1, 2, 3, 4]);
        let sum = a.checked_add(&b).unwrap();
        assert_eq!(sum.checked_sub(&b), Some(a));
    }

    #[test]
    fn overflow_detected() {
        assert!(U256::MAX.checked_add(&U256::ONE).is_none());
        assert!(U256::ZERO.checked_sub(&U256::ONE).is_none());
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!((one << 64).0, [0, 1, 0, 0]);
        assert_eq!((one << 255) >> 255, one);
        assert_eq!(one << 256, U256::ZERO);
        assert_eq!((one << 64) >> 64, one);
        assert_eq!(U256([0, 0, 0, 1]) >> 192, one);
    }

    #[test]
    fn bits() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!((U256::ONE << 200).bits(), 201);
        assert_eq!(U256::MAX.bits(), 256);
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = U256::from_u64(100).div_rem(&U256::from_u64(7));
        assert_eq!(q, U256::from_u64(14));
        assert_eq!(r, U256::from_u64(2));
    }

    #[test]
    fn div_rem_large() {
        let a = U256::ONE << 200;
        let b = U256::ONE << 100;
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, U256::ONE << 100);
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U256::ONE.div_rem(&U256::ZERO);
    }

    #[test]
    fn work_from_max_target_is_one() {
        assert_eq!(U256::work_from_target(&U256::MAX), U256::ONE);
    }

    #[test]
    fn work_doubles_when_target_halves() {
        // work = floor(2^256 / (target+1)):
        // target 2^224 → 2^32 - 1; target 2^223 → 2^33 - 1.
        let t1 = U256::ONE << 224;
        let t2 = U256::ONE << 223;
        let w1 = U256::work_from_target(&t1);
        let w2 = U256::work_from_target(&t2);
        assert_eq!(w1, U256::from_u64((1 << 32) - 1));
        assert_eq!(w2, U256::from_u64((1 << 33) - 1));
        // Halving the target (roughly) doubles the work.
        assert_eq!(w1.saturating_mul_u64(2).checked_add(&U256::ONE), Some(w2));
    }

    #[test]
    fn work_from_target_zero() {
        // Target 0 → work = 2^256/1, clamped into range as 2^256-ish; our
        // formula gives ~MAX/1 + 1 → saturates at MAX.
        let w = U256::work_from_target(&U256::ZERO);
        assert_eq!(w, U256::MAX);
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = U256([1, 2, 3, 4]);
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(U256::from_u64(10).saturating_mul_u64(5), U256::from_u64(50));
        assert_eq!(U256::MAX.saturating_mul_u64(2), U256::MAX);
    }

    fn arb_u256() -> impl Strategy<Value = U256> {
        any::<[u64; 4]>().prop_map(U256)
    }

    proptest! {
        #[test]
        fn prop_div_rem_reconstructs(a in arb_u256(), b in arb_u256()) {
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r < b);
            // a = q*b + r, and q*b <= a fits in 256 bits.
            let [w0, w1, w2, w3, high @ ..] = limbs::mul_wide(&q.0, &b.0);
            prop_assert_eq!(high, [0u64; 4]);
            prop_assert_eq!(U256([w0, w1, w2, w3]).checked_add(&r), Some(a));
        }

        #[test]
        fn prop_shift_round_trip(a in arb_u256(), s in 0u32..255) {
            let masked = (a >> s) << s;
            // Shifting down then up clears the low bits only.
            prop_assert_eq!(masked >> s, a >> s);
        }

        #[test]
        fn prop_be_bytes_round_trip(a in arb_u256()) {
            prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_ord_consistent_with_sub(a in arb_u256(), b in arb_u256()) {
            match a.cmp(&b) {
                Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
                _ => prop_assert!(a.checked_sub(&b).is_some()),
            }
        }
    }
}
