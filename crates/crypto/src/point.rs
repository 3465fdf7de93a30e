//! secp256k1 group operations: `y^2 = x^3 + 7` over GF(p).
//!
//! Points are held in Jacobian projective coordinates internally so that
//! additions and doublings avoid field inversions; [`Point::to_affine`]
//! performs the single inversion needed at the end of a computation.

use crate::field::FieldElement;
use crate::scalar::Scalar;
use std::fmt;
use std::sync::OnceLock;

/// A point on secp256k1 in Jacobian coordinates `(X, Y, Z)` representing the
/// affine point `(X/Z^2, Y/Z^3)`; `Z = 0` encodes the point at infinity.
#[derive(Clone, Copy)]
pub struct Point {
    pub(crate) x: FieldElement,
    pub(crate) y: FieldElement,
    pub(crate) z: FieldElement,
}

/// An affine secp256k1 point, or infinity. Produced by [`Point::to_affine`];
/// this is the form that gets serialized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AffinePoint {
    /// The group identity.
    Infinity,
    /// A finite curve point.
    Coordinates {
        /// Affine x coordinate.
        x: FieldElement,
        /// Affine y coordinate.
        y: FieldElement,
    },
}

impl Point {
    /// The point at infinity (group identity).
    pub const INFINITY: Point = Point {
        x: FieldElement::ONE,
        y: FieldElement::ONE,
        z: FieldElement::ZERO,
    };

    /// The standard generator `G`, decoded once per process and cached.
    pub fn generator() -> Point {
        static G: OnceLock<Point> = OnceLock::new();
        *G.get_or_init(|| {
            let gx = FieldElement::from_be_bytes(&crate::hex_arr(
                "79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798",
            ))
            .expect("generator x is canonical");
            let gy = FieldElement::from_be_bytes(&crate::hex_arr(
                "483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8",
            ))
            .expect("generator y is canonical");
            Point::from_affine(gx, gy)
        })
    }

    /// Lifts an affine point into Jacobian coordinates.
    ///
    /// Does not validate that `(x, y)` is on the curve; use
    /// [`Point::from_affine_checked`] for untrusted input.
    pub fn from_affine(x: FieldElement, y: FieldElement) -> Point {
        Point {
            x,
            y,
            z: FieldElement::ONE,
        }
    }

    /// Lifts an affine point, verifying the curve equation
    /// `y^2 = x^3 + 7` first.
    pub fn from_affine_checked(x: FieldElement, y: FieldElement) -> Option<Point> {
        let lhs = y.square();
        let rhs = x.square() * x + FieldElement::from_u64(7);
        if lhs == rhs {
            Some(Point::from_affine(x, y))
        } else {
            None
        }
    }

    /// Returns true for the point at infinity.
    #[inline]
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Checks the curve equation directly in Jacobian coordinates:
    /// `y^2 = x^3 + 7·z^6` (about eight field multiplications, no
    /// inversion). The point at infinity counts as on-curve — it is the
    /// group identity. [`Point::from_affine`] performs no validation, so
    /// verifiers taking a raw [`Point`] must call this before trusting
    /// group-law results on it.
    pub fn is_on_curve(&self) -> bool {
        if self.is_infinity() {
            return true;
        }
        let z2 = self.z.square();
        let z6 = z2.square() * z2;
        self.y.square() == self.x.square() * self.x + FieldElement::from_u64(7) * z6
    }

    /// Converts to affine coordinates (one field inversion, skipped when
    /// the point is already normalized with `Z = 1` — the common case for
    /// decoded public keys and table entries).
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::Infinity;
        }
        if self.z == FieldElement::ONE {
            return AffinePoint::Coordinates {
                x: self.x,
                y: self.y,
            };
        }
        let z_inv = self.z.invert();
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2 * z_inv;
        AffinePoint::Coordinates {
            x: self.x * z_inv2,
            y: self.y * z_inv3,
        }
    }

    /// Point doubling (dbl-2009-l, a = 0).
    #[inline]
    pub fn double(&self) -> Point {
        if self.is_infinity() || self.y.is_zero() {
            return Point::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        // d = 2*((x + b)^2 - a - c)
        let d = {
            let t = (self.x + b).square() - a - c;
            t + t
        };
        let e = a + a + a;
        let f = e.square();
        let x3 = f - (d + d);
        let c8 = {
            let c2 = c + c;
            let c4 = c2 + c2;
            c4 + c4
        };
        let y3 = e * (d - x3) - c8;
        let z3 = {
            let t = self.y * self.z;
            t + t
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Point addition (add-2007-bl), handling all degenerate cases.
    #[inline]
    pub fn add(&self, other: &Point) -> Point {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * z2z2 * other.z;
        let s2 = other.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Point::INFINITY; // P + (-P)
        }
        let h = u2 - u1;
        let i = {
            let h2 = h + h;
            h2.square()
        };
        let j = h * i;
        let r = {
            let t = s2 - s1;
            t + t
        };
        let v = u1 * i;
        let x3 = r.square() - j - (v + v);
        let y3 = {
            let s1j2 = {
                let t = s1 * j;
                t + t
            };
            r * (v - x3) - s1j2
        };
        let z3 = {
            let t = (self.z + other.z).square() - z1z1 - z2z2;
            t * h
        };
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed Jacobian + affine addition (madd-2007-bl): `self + (x2, y2)`
    /// where the second operand has `Z = 1`. Saves ~5 field multiplies over
    /// the general [`Point::add`]; this is why table entries are normalized
    /// to affine. Handles all degenerate cases.
    #[inline]
    pub fn add_mixed(&self, x2: &FieldElement, y2: &FieldElement) -> Point {
        if self.is_infinity() {
            return Point::from_affine(*x2, *y2);
        }
        let z1z1 = self.z.square();
        let u2 = *x2 * z1z1;
        let s2 = *y2 * z1z1 * self.z;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Point::INFINITY; // P + (-P)
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = {
            let hh2 = hh + hh;
            hh2 + hh2
        };
        let j = h * i;
        let r = {
            let t = s2 - self.y;
            t + t
        };
        let v = self.x * i;
        let x3 = r.square() - j - (v + v);
        let y3 = {
            let yj2 = {
                let t = self.y * j;
                t + t
            };
            r * (v - x3) - yj2
        };
        let z3 = (self.z + h).square() - z1z1 - hh;
        Point {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negation: `(x, y) → (x, -y)`.
    #[inline]
    pub fn negate(&self) -> Point {
        Point {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication via wNAF with a per-call odd-multiples table
    /// (see [`crate::mul_table`]).
    ///
    /// Not constant time — this library backs a simulator, not a wallet
    /// handling adversarial side channels.
    pub fn mul(&self, k: &Scalar) -> Point {
        crate::mul_table::mul_wnaf(self, k)
    }

    /// Scalar multiplication by plain 1-bit double-and-add (MSB first).
    /// Kept as the independent test oracle for the wNAF fast path; the
    /// equivalence proptests and the `crypto` fuzz engine compare against it.
    pub fn mul_binary(&self, k: &Scalar) -> Point {
        let mut acc = Point::INFINITY;
        for bit in k.bits_msb_first() {
            acc = acc.double();
            if bit {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Computes `a*G + b*Q`, the core of ECDSA verification, by
    /// interleaving the wNAF expansions of both scalars over a shared run
    /// of doublings (Shamir/Strauss): the `a*G` half reads the static
    /// generator table, the `b*Q` half a freshly built table for `Q`.
    pub fn lincomb(a: &Scalar, b: &Scalar, q: &Point) -> Point {
        match crate::mul_table::OddMultiplesTable::new(q, crate::mul_table::WINDOW_P) {
            Some(table) => crate::mul_table::lincomb_wnaf(a, b, &table),
            // Q at infinity: b*Q vanishes and only the generator half is left.
            None => crate::mul_table::generator_mul(a),
        }
    }

    /// Checks whether this point's affine x-coordinate, reduced modulo the
    /// group order, equals the scalar `r` — the final step of ECDSA
    /// verification — without leaving Jacobian coordinates.
    ///
    /// Affine x is `X/Z^2`, so `x ≡ r (mod n)` iff `cand * Z^2 == X` for
    /// some candidate `cand ∈ {r, r + n}` with `cand < p`. This replaces a
    /// full field inversion (~380 field ops) with at most two multiplies.
    pub fn eq_x_scalar(&self, r: &Scalar) -> bool {
        if self.is_infinity() {
            return false;
        }
        let zz = self.z.square();
        // r < n < p, so the bytes decode without reduction.
        let cand = FieldElement::from_be_bytes(&r.to_be_bytes()).expect("r < n < p");
        if cand * zz == self.x {
            return true;
        }
        // Second candidate r + n, only when it still fits below p.
        if let Some(bytes) = r.plus_order_bytes() {
            if let Some(cand) = FieldElement::from_be_bytes(&bytes) {
                return cand * zz == self.x;
            }
        }
        false
    }

    /// Structural equality via cross-multiplied Jacobian coordinates
    /// (no inversion).
    pub fn equals(&self, other: &Point) -> bool {
        match (self.is_infinity(), other.is_infinity()) {
            (true, true) => return true,
            (true, false) | (false, true) => return false,
            _ => {}
        }
        // Same Z (two affine lifts, typically): the coordinates compare
        // directly.
        if self.z == other.z {
            return self.x == other.x && self.y == other.y;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1 && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}

/// Normalizes a batch of Jacobian points to affine with a single field
/// inversion (Montgomery's trick): multiply all the `Z`s into prefix
/// products, invert the total once, then peel each `Z^-1` back out.
///
/// Points at infinity map to [`AffinePoint::Infinity`] and do not disturb
/// the batch (their `Z = 0` is substituted with one in the products).
pub fn batch_to_affine(points: &[Point]) -> Vec<AffinePoint> {
    // prefix[i] = product of effective z's of points[..=i]. Points already
    // at z = 1 (fresh lifts, normalized public keys — e.g. every odd-
    // multiple table's first entry is its affine base) are passed through
    // untouched instead of paying the 6M+1S unwind-and-scale.
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = FieldElement::ONE;
    for p in points {
        if !p.is_infinity() && p.z != FieldElement::ONE {
            acc = acc * p.z;
        }
        prefix.push(acc);
    }
    if prefix.is_empty() {
        return Vec::new();
    }
    let mut inv = acc.invert(); // the single inversion
    let mut out = vec![AffinePoint::Infinity; points.len()];
    for i in (0..points.len()).rev() {
        let p = &points[i];
        if p.is_infinity() {
            continue;
        }
        if p.z == FieldElement::ONE {
            out[i] = AffinePoint::Coordinates { x: p.x, y: p.y };
            continue;
        }
        // inv currently holds (z_0 * ... * z_i)^-1; multiply by the prefix
        // below to isolate z_i^-1, then strip z_i from inv for the next step.
        let below = if i == 0 {
            FieldElement::ONE
        } else {
            prefix[i - 1]
        };
        let z_inv = inv * below;
        inv = inv * p.z;
        let z_inv2 = z_inv.square();
        out[i] = AffinePoint::Coordinates {
            x: p.x * z_inv2,
            y: p.y * z_inv2 * z_inv,
        };
    }
    out
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_affine() {
            AffinePoint::Infinity => write!(f, "Point(infinity)"),
            AffinePoint::Coordinates { x, y } => write!(f, "Point(x: {x:?}, y: {y:?})"),
        }
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Point) -> bool {
        self.equals(other)
    }
}

impl Eq for Point {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn g() -> Point {
        Point::generator()
    }

    #[test]
    fn generator_on_curve() {
        match g().to_affine() {
            AffinePoint::Coordinates { x, y } => {
                assert!(Point::from_affine_checked(x, y).is_some());
            }
            AffinePoint::Infinity => panic!("generator is finite"),
        }
    }

    #[test]
    fn identity_laws() {
        let p = g();
        assert_eq!(p.add(&Point::INFINITY), p);
        assert_eq!(Point::INFINITY.add(&p), p);
        assert!(Point::INFINITY.double().is_infinity());
    }

    #[test]
    fn add_inverse_is_infinity() {
        let p = g();
        assert!(p.add(&p.negate()).is_infinity());
    }

    #[test]
    fn double_matches_add_self() {
        let p = g();
        assert_eq!(p.double(), p.add(&p));
    }

    #[test]
    fn known_multiple_2g() {
        // 2G on secp256k1 (well-known value).
        let two_g = g().mul(&Scalar::from_u64(2));
        let expected_x = FieldElement::from_be_bytes(&crate::hex_arr(
            "C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5",
        ))
        .unwrap();
        let expected_y = FieldElement::from_be_bytes(&crate::hex_arr(
            "1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A",
        ))
        .unwrap();
        assert_eq!(
            two_g.to_affine(),
            AffinePoint::Coordinates {
                x: expected_x,
                y: expected_y
            }
        );
    }

    #[test]
    fn known_multiple_3g() {
        let three_g = g().mul(&Scalar::from_u64(3));
        let expected_x = FieldElement::from_be_bytes(&crate::hex_arr(
            "F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9",
        ))
        .unwrap();
        match three_g.to_affine() {
            AffinePoint::Coordinates { x, .. } => assert_eq!(x, expected_x),
            AffinePoint::Infinity => panic!("3G is finite"),
        }
    }

    #[test]
    fn n_times_g_is_infinity() {
        // Multiplying by the group order lands on the identity.
        let n_minus_1 = -Scalar::ONE; // n - 1 as a reduced scalar
        let p = g().mul(&n_minus_1).add(&g());
        assert!(p.is_infinity());
    }

    #[test]
    fn scalar_mul_distributes_over_add() {
        let a = Scalar::from_u64(11);
        let b = Scalar::from_u64(31);
        let lhs = g().mul(&(a + b));
        let rhs = g().mul(&a).add(&g().mul(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn lincomb_matches_naive() {
        let a = Scalar::from_u64(123456789);
        let b = Scalar::from_u64(987654321);
        let q = g().mul(&Scalar::from_u64(42));
        let fast = Point::lincomb(&a, &b, &q);
        let slow = g().mul(&a).add(&q.mul(&b));
        assert_eq!(fast, slow);
    }

    #[test]
    fn from_affine_checked_rejects_off_curve() {
        let x = FieldElement::from_u64(1);
        let y = FieldElement::from_u64(1);
        assert!(Point::from_affine_checked(x, y).is_none());
    }

    #[test]
    fn mul_by_zero_is_infinity() {
        assert!(g().mul(&Scalar::ZERO).is_infinity());
    }

    #[test]
    fn mul_by_one_is_identity_map() {
        assert_eq!(g().mul(&Scalar::ONE), g());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_mul_is_homomorphic(a in 1u64..10_000, b in 1u64..10_000) {
            let sa = Scalar::from_u64(a);
            let sb = Scalar::from_u64(b);
            // (a*b)G == a(bG)
            let lhs = g().mul(&(sa * sb));
            let rhs = g().mul(&sb).mul(&sa);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_add_commutative(a in 1u64..10_000, b in 1u64..10_000) {
            let p = g().mul(&Scalar::from_u64(a));
            let q = g().mul(&Scalar::from_u64(b));
            prop_assert_eq!(p.add(&q), q.add(&p));
        }

        #[test]
        fn prop_affine_round_trip(a in 1u64..10_000) {
            let p = g().mul(&Scalar::from_u64(a));
            match p.to_affine() {
                AffinePoint::Coordinates { x, y } => {
                    let lifted = Point::from_affine_checked(x, y).expect("on curve");
                    prop_assert_eq!(lifted, p);
                }
                AffinePoint::Infinity => prop_assert!(false, "nonzero multiple is finite"),
            }
        }
    }
}
