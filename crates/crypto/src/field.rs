//! The secp256k1 base field GF(p), `p = 2^256 - 2^32 - 977`.

use crate::limbs;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// The field prime `p`, little-endian limbs.
const P: [u64; 4] = [
    0xFFFFFFFEFFFFFC2F,
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
];

/// `2^256 - p = 2^32 + 977`.
const C: [u64; 4] = [0x1000003D1, 0, 0, 0];

/// An element of the secp256k1 base field, always stored fully reduced.
///
/// ```
/// use btcfast_crypto::field::FieldElement;
///
/// let a = FieldElement::from_u64(3);
/// let b = FieldElement::from_u64(4);
/// assert_eq!(a * a + b * b, FieldElement::from_u64(25));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FieldElement([u64; 4]);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// Creates a field element from a small integer.
    pub fn from_u64(v: u64) -> FieldElement {
        FieldElement([v, 0, 0, 0])
    }

    /// Parses 32 big-endian bytes, reducing modulo `p` if necessary.
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> FieldElement {
        let v = limbs::from_be_bytes(bytes);
        FieldElement(limbs::reduce_small(v, 0, &P, &C))
    }

    /// Parses 32 big-endian bytes, returning `None` if the value is `>= p`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<FieldElement> {
        let v = limbs::from_be_bytes(bytes);
        if limbs::cmp(&v, &P) == std::cmp::Ordering::Less {
            Some(FieldElement(v))
        } else {
            None
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        limbs::to_be_bytes(&self.0)
    }

    /// Returns true for the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        limbs::is_zero(&self.0)
    }

    /// Returns true if the canonical (reduced) representation is odd — used
    /// for compressed point encoding.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Squares the element via a dedicated squaring routine (roughly 10
    /// word multiplies instead of 16 for a general product).
    #[inline]
    pub fn square(self) -> FieldElement {
        let wide = limbs::sqr_wide(&self.0);
        FieldElement(limbs::reduce_wide_c1(wide, &P, C[0]))
    }

    /// Multiplicative inverse by the variable-time extended Euclid in
    /// `limbs` (safegcd divsteps). Inversions sit on the signing path
    /// (`to_affine` of the nonce point) and under every table
    /// normalization.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero, which has no inverse.
    pub fn invert(self) -> FieldElement {
        assert!(!self.is_zero(), "zero has no multiplicative inverse");
        FieldElement(limbs::mod_inverse(&self.0, &P))
    }
}

impl Add for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn add(self, rhs: FieldElement) -> FieldElement {
        // Branchless: the carry and conditional-subtract branches are
        // ~50/50 on random inputs, and point doubling/addition performs
        // roughly nine of these per call — mispredicts there cost as much
        // as the word arithmetic itself.
        let (sum, carry) = limbs::add(&self.0, &rhs.0);
        // A wrap of 2^256 folds to +C; both operands are < p, so the sum is
        // < 2p and the fold cannot wrap again (see `limbs::reduce_small`).
        let cmask = carry.wrapping_neg();
        let (sum, carry2) = limbs::add(&sum, &[C[0] & cmask, 0, 0, 0]);
        debug_assert_eq!(carry2, 0);
        // Conditional subtract of p, selected by the borrow mask.
        let (diff, borrow) = limbs::sub(&sum, &P);
        let keep = borrow.wrapping_neg(); // all-ones when sum < p
        let mut out = [0u64; 4];
        for i in 0..4 {
            out[i] = (sum[i] & keep) | (diff[i] & !keep);
        }
        FieldElement(out)
    }
}

impl Sub for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn sub(self, rhs: FieldElement) -> FieldElement {
        let (diff, borrow) = limbs::sub(&self.0, &rhs.0);
        // Wrapped below zero: add p back. Done branchlessly via a mask for
        // the same mispredict reason as `Add`.
        let mask = borrow.wrapping_neg();
        let (fixed, carry) =
            limbs::add(&diff, &[P[0] & mask, P[1] & mask, P[2] & mask, P[3] & mask]);
        debug_assert_eq!(carry, borrow, "adding p exactly undoes the wrap");
        FieldElement(fixed)
    }
}

impl Mul for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn mul(self, rhs: FieldElement) -> FieldElement {
        let wide = limbs::mul_wide(&self.0, &rhs.0);
        FieldElement(limbs::reduce_wide_c1(wide, &P, C[0]))
    }
}

impl Neg for FieldElement {
    type Output = FieldElement;
    #[inline]
    fn neg(self) -> FieldElement {
        FieldElement::ZERO - self
    }
}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FieldElement({})",
            crate::hex::encode(&self.to_be_bytes())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    #[test]
    fn constants() {
        assert!(FieldElement::ZERO.is_zero());
        assert!(!FieldElement::ONE.is_zero());
        assert!(FieldElement::ONE.is_odd());
    }

    #[test]
    fn p_reduces_to_zero() {
        let p_bytes = limbs::to_be_bytes(&P);
        assert!(FieldElement::from_be_bytes(&p_bytes).is_none());
        assert!(FieldElement::from_be_bytes_reduced(&p_bytes).is_zero());
    }

    #[test]
    fn p_minus_one_negates_to_one() {
        let mut bytes = limbs::to_be_bytes(&P);
        bytes[31] -= 1;
        let pm1 = FieldElement::from_be_bytes(&bytes).unwrap();
        assert_eq!(-pm1, FieldElement::ONE);
        assert_eq!(pm1 + FieldElement::ONE, FieldElement::ZERO);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(fe(2) + fe(3), fe(5));
        assert_eq!(fe(7) - fe(3), fe(4));
        assert_eq!(fe(6) * fe(7), fe(42));
        assert_eq!(fe(3) - fe(5), -fe(2));
    }

    #[test]
    fn inverse_of_small_values() {
        for v in 1..50u64 {
            let x = fe(v);
            assert_eq!(x * x.invert(), FieldElement::ONE, "v = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let _ = FieldElement::ZERO.invert();
    }

    #[test]
    fn curve_equation_for_generator() {
        // Gy^2 = Gx^3 + 7 must hold on secp256k1.
        let gx = FieldElement::from_be_bytes(&crate::hex_arr(
            "79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798",
        ))
        .unwrap();
        let gy = FieldElement::from_be_bytes(&crate::hex_arr(
            "483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8",
        ))
        .unwrap();
        assert_eq!(gy.square(), gx.square() * gx + fe(7));
    }

    fn arb_fe() -> impl Strategy<Value = FieldElement> {
        any::<[u8; 32]>().prop_map(|b| FieldElement::from_be_bytes_reduced(&b))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_commutative(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_mul_associative(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_distributive(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_is_add_neg(a in arb_fe(), b in arb_fe()) {
            prop_assert_eq!(a - b, a + (-b));
        }

        #[test]
        fn prop_inverse(a in arb_fe()) {
            if !a.is_zero() {
                prop_assert_eq!(a * a.invert(), FieldElement::ONE);
            }
        }

        #[test]
        fn prop_bytes_round_trip(a in arb_fe()) {
            prop_assert_eq!(FieldElement::from_be_bytes(&a.to_be_bytes()).unwrap(), a);
        }

        #[test]
        fn prop_square_matches_mul(a in arb_fe()) {
            prop_assert_eq!(a.square(), a * a);
        }
    }
}
