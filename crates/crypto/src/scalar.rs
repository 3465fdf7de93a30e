//! The secp256k1 scalar field GF(n), where `n` is the group order.

use crate::limbs;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// The group order `n`, little-endian limbs.
const N: [u64; 4] = [
    0xBFD25E8CD0364141,
    0xBAAEDCE6AF48A03B,
    0xFFFFFFFFFFFFFFFE,
    0xFFFFFFFFFFFFFFFF,
];

/// `2^256 - n` (about 129 bits), little-endian limbs.
const C: [u64; 4] = [0x402DA1732FC9BEBF, 0x4551231950B75FC4, 0x1, 0x0];

/// A scalar modulo the secp256k1 group order, always stored fully reduced.
///
/// Scalars are private keys, ECDSA nonces, and signature components.
///
/// ```
/// use btcfast_crypto::scalar::Scalar;
///
/// let two = Scalar::from_u64(2);
/// let three = Scalar::from_u64(3);
/// assert_eq!(two * three, Scalar::from_u64(6));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar([u64; 4]);

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Creates a scalar from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Parses 32 big-endian bytes, reducing modulo `n`. This is how message
    /// digests become the ECDSA `z` value.
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Scalar {
        let v = limbs::from_be_bytes(bytes);
        Scalar(limbs::reduce_small(v, 0, &N, &C))
    }

    /// Parses 32 big-endian bytes, returning `None` if the value is `>= n`.
    /// RFC 6979 nonce candidates use this to reject out-of-range values.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let v = limbs::from_be_bytes(bytes);
        if limbs::cmp(&v, &N) == std::cmp::Ordering::Less {
            Some(Scalar(v))
        } else {
            None
        }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        limbs::to_be_bytes(&self.0)
    }

    /// Returns true for the additive identity.
    pub fn is_zero(&self) -> bool {
        limbs::is_zero(&self.0)
    }

    /// Returns true when the value fits in 128 bits. Multiplying by such a
    /// scalar skips the GLV split: its wNAF ladder is already half-length,
    /// and splitting would spread the same magnitude across *two* digit
    /// streams, doubling the nonzero-digit count. The batch verifier's
    /// randomizers are 128-bit by construction and take this path.
    pub(crate) fn fits_128_bits(&self) -> bool {
        self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns true if the scalar exceeds `n/2`. ECDSA signatures normalize
    /// `s` to the low half to rule out the `(r, s) / (r, n-s)` malleability.
    pub fn is_high(&self) -> bool {
        // n/2 rounded down.
        const HALF_N: [u64; 4] = [
            0xDFE92F46681B20A0,
            0x5D576E7357A4501D,
            0xFFFFFFFFFFFFFFFF,
            0x7FFFFFFFFFFFFFFF,
        ];
        limbs::cmp(&self.0, &HALF_N) == std::cmp::Ordering::Greater
    }

    /// Iterates the 256 bits of the scalar from most significant to least.
    pub fn bits_msb_first(&self) -> impl Iterator<Item = bool> + '_ {
        (0..256).map(move |i| {
            let limb = 3 - i / 64;
            let bit = 63 - (i % 64);
            (self.0[limb] >> bit) & 1 == 1
        })
    }

    /// The `width` bits (at most 32) starting at bit `offset`, least
    /// significant first; bits past 255 read as zero.
    pub(crate) fn bits(&self, offset: usize, width: usize) -> usize {
        let (limb, shift) = (offset / 64, offset % 64);
        let mut v = self.0.get(limb).map_or(0, |l| l >> shift);
        if shift + width > 64 {
            v |= self.0.get(limb + 1).map_or(0, |l| l << (64 - shift));
        }
        (v & ((1u64 << width) - 1)) as usize
    }

    /// Squares the scalar via the dedicated squaring routine.
    pub fn square(self) -> Scalar {
        let wide = limbs::sqr_wide(&self.0);
        Scalar(limbs::reduce_wide_c3(wide, &N, &C))
    }

    /// Multiplicative inverse by the variable-time extended Euclid in
    /// `limbs` (safegcd divsteps). One scalar inversion sits on every
    /// signature (`k⁻¹`) and every single verify (`s⁻¹`).
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn invert(self) -> Scalar {
        assert!(!self.is_zero(), "zero has no multiplicative inverse");
        Scalar(limbs::mod_inverse(&self.0, &N))
    }

    /// Windowed non-adjacent form of the scalar with the given window
    /// `width` (2..=8): least-significant digit first, every nonzero digit
    /// odd with `|d| < 2^(width-1)`, at most one nonzero digit in any
    /// `width` consecutive positions. Up to 257 digits (a trailing carry
    /// can spill one position past 256 bits).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=8`.
    pub fn wnaf(&self, width: u32) -> Vec<i8> {
        assert!((2..=8).contains(&width), "wNAF width must be in 2..=8");
        let radix = 1u64 << width;
        let half = 1i64 << (width - 1);
        // Work on a 5-limb copy: subtracting a negative digit adds up to
        // 2^(width-1), which can carry past 2^256 near the top.
        let mut v = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let mut digits = Vec::with_capacity(257);
        while v.iter().any(|&l| l != 0) {
            if v[0] & 1 == 1 {
                // Odd: emit a signed odd digit in (-2^(w-1), 2^(w-1)).
                let low = (v[0] & (radix - 1)) as i64;
                let digit = if low >= half { low - radix as i64 } else { low };
                if digit >= 0 {
                    sub_small(&mut v, digit as u64);
                } else {
                    add_small(&mut v, (-digit) as u64);
                }
                digits.push(digit as i8);
            } else {
                digits.push(0);
            }
            shift_right_1(&mut v);
        }
        digits
    }

    /// Decomposes `self` into `(k1, k2)` with `self = k1 + k2·λ (mod n)`
    /// and both components of magnitude `< 2^129`, where `λ` is the cube
    /// root of unity acted out on the curve by the GLV endomorphism
    /// `φ(x, y) = (β·x, y) = λ·(x, y)`.
    ///
    /// Components are returned as `(negated, absolute value)` pairs so
    /// callers can negate the *point* instead of working with scalars near
    /// `n`. Splitting a 256-bit scalar multiplication into two half-width
    /// ones halves the doubling count of wNAF ladders — the single largest
    /// cost on the ECDSA accept path.
    pub(crate) fn split_glv(&self) -> ((bool, Scalar), (bool, Scalar)) {
        // Lattice basis constants from the standard secp256k1 decomposition:
        // c1 = round(g1·k / 2^384), c2 = round(g2·k / 2^384), then
        // k2 = c1·(-b1) + c2·(-b2) and k1 = k - k2·λ.
        const MINUS_B1: Scalar = Scalar([0x6F547FA90ABFE4C3, 0xE4437ED6010E8828, 0, 0]);
        const MINUS_B2: Scalar = Scalar([
            0xD765CDA83DB1562C,
            0x8A280AC50774346D,
            0xFFFFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFFFFF,
        ]);
        const G1: [u64; 4] = [
            0xE893209A45DBE88C,
            0x3DAA8A1471E8CA7F,
            0xE86C90E49284EB15,
            0x3086D221A7D46BCD,
        ];
        const G2: [u64; 4] = [
            0x1571B4AE8AC47F71,
            0x221208AC9DF506C6,
            0x6F547FA90ABFE4C4,
            0xE4437ED6010E8828,
        ];
        // round((k·g) / 2^384): bits 384.. of the 512-bit product, plus the
        // rounding bit at position 383.
        fn mul_shift_384(k: &[u64; 4], g: &[u64; 4]) -> Scalar {
            let wide = limbs::mul_wide(k, g);
            let round = wide[5] >> 63;
            let (lo, carry) = wide[6].overflowing_add(round);
            Scalar([lo, wide[7] + carry as u64, 0, 0])
        }
        // Small-magnitude scalars are represented mod n; anything above n/2
        // is a negative value in disguise.
        fn sign_abs(k: Scalar) -> (bool, Scalar) {
            if k.is_high() {
                (true, -k)
            } else {
                (false, k)
            }
        }
        let c1 = mul_shift_384(&self.0, &G1);
        let c2 = mul_shift_384(&self.0, &G2);
        let k2 = c1 * MINUS_B1 + c2 * MINUS_B2;
        let k1 = *self - k2 * Scalar::LAMBDA;
        (sign_abs(k1), sign_abs(k2))
    }

    /// `λ`: the scalar the GLV endomorphism multiplies by (a primitive cube
    /// root of unity modulo `n`).
    pub(crate) const LAMBDA: Scalar = Scalar([
        0xDF02967C1B23BD72,
        0x122E22EA20816678,
        0xA5261C028812645A,
        0x5363AD4CC05C30E0,
    ]);

    /// Returns `self + n` as 32 big-endian bytes, or `None` when the sum
    /// overflows 256 bits. ECDSA verification uses this for the second
    /// `r` candidate when checking the x-coordinate without an inversion.
    pub(crate) fn plus_order_bytes(&self) -> Option<[u8; 32]> {
        let (sum, carry) = limbs::add(&self.0, &N);
        if carry != 0 {
            None
        } else {
            Some(limbs::to_be_bytes(&sum))
        }
    }
}

/// In-place `v += d` over 5 little-endian limbs.
fn add_small(v: &mut [u64; 5], d: u64) {
    let mut carry = d;
    for limb in v.iter_mut() {
        let (s, c) = limb.overflowing_add(carry);
        *limb = s;
        carry = c as u64;
        if carry == 0 {
            break;
        }
    }
    debug_assert_eq!(carry, 0, "wNAF working value fits in 5 limbs");
}

/// In-place `v -= d` over 5 little-endian limbs; `v >= d` is guaranteed by
/// the caller (the digit is extracted from `v`'s own low bits).
fn sub_small(v: &mut [u64; 5], d: u64) {
    let mut borrow = d;
    for limb in v.iter_mut() {
        let (s, b) = limb.overflowing_sub(borrow);
        *limb = s;
        borrow = b as u64;
        if borrow == 0 {
            break;
        }
    }
    debug_assert_eq!(borrow, 0, "wNAF digit never exceeds the value");
}

/// In-place logical right shift by one bit over 5 little-endian limbs.
fn shift_right_1(v: &mut [u64; 5]) {
    for i in 0..4 {
        v[i] = (v[i] >> 1) | (v[i + 1] << 63);
    }
    v[4] >>= 1;
}

impl Add for Scalar {
    type Output = Scalar;
    #[inline]
    fn add(self, rhs: Scalar) -> Scalar {
        let (sum, carry) = limbs::add(&self.0, &rhs.0);
        Scalar(limbs::reduce_small(sum, carry, &N, &C))
    }
}

impl Sub for Scalar {
    type Output = Scalar;
    #[inline]
    fn sub(self, rhs: Scalar) -> Scalar {
        let (diff, borrow) = limbs::sub(&self.0, &rhs.0);
        if borrow == 0 {
            Scalar(diff)
        } else {
            let (fixed, _) = limbs::add(&diff, &N);
            Scalar(fixed)
        }
    }
}

impl Mul for Scalar {
    type Output = Scalar;
    #[inline]
    fn mul(self, rhs: Scalar) -> Scalar {
        let wide = limbs::mul_wide(&self.0, &rhs.0);
        Scalar(limbs::reduce_wide_c3(wide, &N, &C))
    }
}

impl Neg for Scalar {
    type Output = Scalar;
    #[inline]
    fn neg(self) -> Scalar {
        Scalar::ZERO - self
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", crate::hex::encode(&self.to_be_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn n_reduces_to_zero() {
        let n_bytes = limbs::to_be_bytes(&N);
        assert!(Scalar::from_be_bytes(&n_bytes).is_none());
        assert!(Scalar::from_be_bytes_reduced(&n_bytes).is_zero());
    }

    #[test]
    fn n_minus_one_is_negative_one() {
        let mut bytes = limbs::to_be_bytes(&N);
        bytes[31] -= 1;
        let nm1 = Scalar::from_be_bytes(&bytes).unwrap();
        assert_eq!(nm1 + Scalar::ONE, Scalar::ZERO);
        assert_eq!(-Scalar::ONE, nm1);
    }

    #[test]
    fn two_to_256_mod_n_is_c() {
        // 2^256 mod n = C; check via (2^128)^2.
        let two_128 = {
            let mut b = [0u8; 32];
            b[15] = 1;
            Scalar::from_be_bytes(&b).unwrap()
        };
        let got = two_128 * two_128;
        assert_eq!(got.0, C);
    }

    #[test]
    fn half_n_boundary() {
        // (n-1)/2 is not high; (n-1)/2 + 1 is high.
        let half = Scalar::from_be_bytes(&crate::hex_arr(
            "7FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF5D576E7357A4501DDFE92F46681B20A0",
        ))
        .unwrap();
        assert!(!half.is_high());
        assert!((half + Scalar::ONE).is_high());
        assert!(!Scalar::ZERO.is_high());
        assert!(!Scalar::ONE.is_high());
    }

    #[test]
    fn inverse_small_values() {
        for v in 1..40u64 {
            let x = Scalar::from_u64(v);
            assert_eq!(x * x.invert(), Scalar::ONE, "v = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        let _ = Scalar::ZERO.invert();
    }

    #[test]
    fn bits_reads_windows_across_limb_boundaries() {
        let s = Scalar([
            0x8000_0000_0000_0001,
            0x0000_0000_0000_0003,
            0,
            0xF000_0000_0000_0000,
        ]);
        assert_eq!(s.bits(0, 5), 1);
        assert_eq!(s.bits(60, 5), 0b11000); // bit 63, then bits 64 and 65
        assert_eq!(s.bits(63, 3), 0b111);
        assert_eq!(s.bits(250, 5), 0b11100); // bits 252..=254
        assert_eq!(s.bits(255, 5), 1); // bit 255, then nothing
        assert_eq!(s.bits(256, 5), 0);
    }

    #[test]
    fn bits_msb_first_of_one() {
        let bits: Vec<bool> = Scalar::ONE.bits_msb_first().collect();
        assert_eq!(bits.len(), 256);
        assert!(bits[..255].iter().all(|&b| !b));
        assert!(bits[255]);
    }

    #[test]
    fn bits_msb_first_of_high_bit() {
        let mut b = [0u8; 32];
        b[0] = 0x80;
        // 2^255 >= n, so reduce; instead test 2^200.
        let mut b2 = [0u8; 32];
        b2[31 - 25] = 1; // byte index 6 → 2^200
        let s = Scalar::from_be_bytes(&b2).unwrap();
        let bits: Vec<bool> = s.bits_msb_first().collect();
        assert_eq!(bits.iter().filter(|&&x| x).count(), 1);
        assert!(bits[255 - 200]);
        let _ = b;
    }

    /// Reconstructs the scalar value a wNAF expansion encodes, as 5 limbs
    /// (the expansion can exceed 256 bits by one position).
    fn wnaf_value(digits: &[i8]) -> [u64; 5] {
        let mut acc = [0u64; 5];
        for &d in digits.iter().rev() {
            // acc = acc * 2
            let mut carry = 0u64;
            for limb in acc.iter_mut() {
                let t = (*limb >> 63, *limb << 1);
                *limb = t.1 | carry;
                carry = t.0;
            }
            assert_eq!(carry, 0);
            // acc += d (signed)
            if d >= 0 {
                let mut c = d as u64;
                for limb in acc.iter_mut() {
                    let (s, c2) = limb.overflowing_add(c);
                    *limb = s;
                    c = c2 as u64;
                }
                assert_eq!(c, 0);
            } else {
                let mut b = (-(d as i64)) as u64;
                for limb in acc.iter_mut() {
                    let (s, b2) = limb.overflowing_sub(b);
                    *limb = s;
                    b = b2 as u64;
                }
                assert_eq!(b, 0);
            }
        }
        acc
    }

    fn check_wnaf(s: Scalar, width: u32) {
        let digits = s.wnaf(width);
        assert!(digits.len() <= 257, "at most 257 digits");
        let half = 1i16 << (width - 1);
        for (i, &d) in digits.iter().enumerate() {
            if d != 0 {
                assert!(d % 2 != 0, "digit {i} = {d} must be odd");
                assert!((d as i16).abs() < half, "digit {i} = {d} out of range");
                // Non-adjacency: next width-1 digits are zero.
                let window = digits.iter().enumerate().take(i + width as usize);
                for (j, &next) in window.skip(i + 1) {
                    assert_eq!(next, 0, "digits {i} and {j} both nonzero");
                }
            }
        }
        let v = wnaf_value(&digits);
        assert_eq!([v[0], v[1], v[2], v[3]], s.0, "wnaf encodes the scalar");
        assert_eq!(v[4], 0);
    }

    #[test]
    fn wnaf_edge_scalars_all_widths() {
        let mut edges = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(2),
            -Scalar::ONE,
            -Scalar::from_u64(2),
        ];
        for k in [1, 63, 64, 127, 128, 191, 255] {
            let mut b = [0u8; 32];
            b[31 - k / 8] = 1 << (k % 8);
            edges.push(Scalar::from_be_bytes_reduced(&b));
        }
        edges.push(Scalar::from_be_bytes_reduced(&[0xFF; 32]));
        for s in edges {
            for width in 2..=8 {
                check_wnaf(s, width);
            }
        }
    }

    #[test]
    fn wnaf_of_zero_is_empty() {
        for width in 2..=8 {
            assert!(Scalar::ZERO.wnaf(width).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "wNAF width")]
    fn wnaf_rejects_width_one() {
        let _ = Scalar::ONE.wnaf(1);
    }

    #[test]
    fn plus_order_bytes_boundary() {
        // 0 + n fits; anything >= 2^256 - n overflows.
        assert_eq!(
            Scalar::ZERO.plus_order_bytes().unwrap(),
            limbs::to_be_bytes(&N)
        );
        let c = Scalar(C);
        assert!(c.plus_order_bytes().is_none());
        assert!((c - Scalar::ONE).plus_order_bytes().is_some());
    }

    #[test]
    fn lambda_is_a_nontrivial_cube_root_of_unity() {
        let l = Scalar::LAMBDA;
        assert_ne!(l, Scalar::ONE);
        assert_eq!(l * l * l, Scalar::ONE);
    }

    /// Reconstructs `k` from a GLV decomposition and checks the magnitude
    /// bound `|k1|, |k2| < 2^129`.
    fn check_split(k: Scalar) {
        let ((neg1, a1), (neg2, a2)) = k.split_glv();
        let k1 = if neg1 { -a1 } else { a1 };
        let k2 = if neg2 { -a2 } else { a2 };
        assert_eq!(k1 + k2 * Scalar::LAMBDA, k, "k = {k:?}");
        for (name, abs) in [("k1", a1), ("k2", a2)] {
            let bytes = abs.to_be_bytes();
            assert!(
                bytes[..15] == [0; 15] && bytes[15] <= 1,
                "{name} magnitude exceeds 2^129 for k = {k:?}"
            );
        }
    }

    #[test]
    fn split_glv_edge_scalars() {
        check_split(Scalar::ZERO);
        check_split(Scalar::ONE);
        check_split(-Scalar::ONE);
        check_split(Scalar::LAMBDA);
        check_split(-Scalar::LAMBDA);
        check_split(Scalar::from_be_bytes_reduced(&[0xFF; 32]));
        for k in 0..=256u32 {
            let mut b = [0u8; 32];
            if k < 256 {
                b[31 - (k as usize) / 8] = 1 << (k % 8);
            } else {
                b = [0xAA; 32];
            }
            check_split(Scalar::from_be_bytes_reduced(&b));
        }
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<[u8; 32]>().prop_map(|b| Scalar::from_be_bytes_reduced(&b))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_mul_distributes(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_add_round_trip(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!((a - b) + b, a);
        }

        #[test]
        fn prop_neg_is_sub_from_zero(a in arb_scalar()) {
            prop_assert_eq!(-a, Scalar::ZERO - a);
            prop_assert_eq!(a + (-a), Scalar::ZERO);
        }

        #[test]
        fn prop_inverse(a in arb_scalar()) {
            if !a.is_zero() {
                prop_assert_eq!(a * a.invert(), Scalar::ONE);
            }
        }

        #[test]
        fn prop_bytes_round_trip(a in arb_scalar()) {
            prop_assert_eq!(Scalar::from_be_bytes(&a.to_be_bytes()).unwrap(), a);
        }

        #[test]
        fn prop_wnaf_round_trip(a in arb_scalar(), width in 2u32..=8) {
            check_wnaf(a, width);
        }

        #[test]
        fn prop_square_matches_mul(a in arb_scalar()) {
            prop_assert_eq!(a.square(), a * a);
        }

        #[test]
        fn prop_split_glv_reconstructs(a in arb_scalar()) {
            check_split(a);
        }

        #[test]
        fn prop_exactly_one_of_s_negs_is_high(a in arb_scalar()) {
            // For nonzero s, exactly one of {s, -s} is high (n is odd so
            // s != -s unless s == 0).
            if !a.is_zero() {
                prop_assert!(a.is_high() != (-a).is_high());
            }
        }
    }
}
