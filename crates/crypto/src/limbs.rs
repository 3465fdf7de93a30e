//! Shared 256-bit little-endian limb arithmetic used by the secp256k1 field
//! and scalar implementations, and under btcsim's `U256` chainwork.
//!
//! Values are `[u64; 4]` in little-endian limb order. Both secp256k1 moduli
//! have the form `m = 2^256 - c` with small-ish `c`, so reduction of a
//! 512-bit product folds the high half down via `2^256 ≡ c (mod m)`.

/// Adds `a + b`, returning the 4-limb sum and the carry-out bit.
#[inline]
pub fn add(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    (out, carry)
}

/// Subtracts `a - b`, returning the 4-limb difference and the borrow-out bit.
#[inline]
pub fn sub(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    (out, borrow)
}

/// Compares `a` and `b` as 256-bit integers.
#[inline]
pub fn cmp(a: &[u64; 4], b: &[u64; 4]) -> std::cmp::Ordering {
    for i in (0..4).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Returns true if all limbs are zero.
#[inline]
pub fn is_zero(a: &[u64; 4]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Schoolbook multiplication `a * b` into an 8-limb (512-bit) product.
#[inline]
pub fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let t = (a[i] as u128) * (b[j] as u128) + (out[i + j] as u128) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + 4] = carry as u64;
    }
    out
}

/// Schoolbook squaring `a * a` into an 8-limb product, exploiting the
/// symmetry of the cross terms: 6 off-diagonal products (doubled once at
/// the end) plus 4 diagonal squares, versus 16 products for `mul_wide`.
/// Point doubling is dominated by squarings, so
/// this is on the ECDSA accept path's critical loop.
#[inline]
pub(crate) fn sqr_wide(a: &[u64; 4]) -> [u64; 8] {
    // cross = sum of a[i]*a[j] for i < j, at weight 2^(64*(i+j)). Row i
    // writes limbs 2i+1 ..= i+3 and deposits its carry-out at limb i+4 —
    // a position no earlier row has touched, so a plain store suffices
    // (row 0 deposits at 4 after writing 1..=3; row 1 accumulates into
    // 3..=4 and deposits at 5; row 2 accumulates into 5, deposits at 6).
    let mut cross = [0u64; 8];
    for i in 0..3 {
        let mut carry = 0u128;
        for j in (i + 1)..4 {
            let t = (a[i] as u128) * (a[j] as u128) + (cross[i + j] as u128) + carry;
            cross[i + j] = t as u64;
            carry = t >> 64;
        }
        cross[i + 4] = carry as u64;
    }
    // out = 2*cross + diagonal squares, in a single carry-chained pass.
    // Each step sums 2*cross (< 2^65), a square half (< 2^64), and a small
    // carry — comfortably inside u128.
    let mut out = [0u64; 8];
    let mut carry = 0u128;
    for i in 0..4 {
        let d = (a[i] as u128) * (a[i] as u128);
        let t = ((cross[2 * i] as u128) << 1) + ((d as u64) as u128) + carry;
        out[2 * i] = t as u64;
        carry = t >> 64;
        let t = ((cross[2 * i + 1] as u128) << 1) + (d >> 64) + carry;
        out[2 * i + 1] = t as u64;
        carry = t >> 64;
    }
    debug_assert_eq!(carry, 0, "a^2 fits in 512 bits");
    out
}

/// Reduces an 8-limb value modulo `m = 2^256 - c` where `c` fits in a
/// *single* limb (the secp256k1 field prime: `c = 2^32 + 977`).
///
/// One fused pass accumulates `lo[i] + hi[i] * c` through a 128-bit carry
/// chain, then folds the tiny carry-out (`< 2^34`) a second time. No limb
/// arrays, no data-dependent loops — this is the innermost operation of
/// every point double/add on the ECDSA accept path, so it is kept
/// branch-light and fully unrollable.
#[inline]
pub(crate) fn reduce_wide_c1(wide: [u64; 8], modulus: &[u64; 4], c: u64) -> [u64; 4] {
    debug_assert_eq!(modulus[0].wrapping_add(c), 0, "m = 2^256 - c");
    let c = c as u128;
    // Pass 1: v = lo + hi * c. Each step is < 2^64 + 2^97 + carry, so the
    // running carry stays below 2^34.
    let mut r = [0u64; 4];
    let mut acc: u128 = 0;
    for i in 0..4 {
        acc += wide[i] as u128;
        acc += (wide[i + 4] as u128) * c;
        r[i] = acc as u64;
        acc >>= 64;
    }
    // Pass 2: fold the carry-out (acc < 2^34, so acc * c < 2^67).
    let mut acc = acc * c;
    for limb in r.iter_mut() {
        acc += *limb as u128;
        *limb = acc as u64;
        acc >>= 64;
        if acc == 0 {
            break;
        }
    }
    // A carry here means the value wrapped 2^256 exactly once more and the
    // remaining limbs are tiny; adding c cannot carry again.
    if acc != 0 {
        let mut t = c;
        for limb in r.iter_mut() {
            t += *limb as u128;
            *limb = t as u64;
            t >>= 64;
        }
        debug_assert_eq!(t, 0);
    }
    // At most one conditional subtraction remains (r < 2^256 < 2m).
    if cmp(&r, modulus) != std::cmp::Ordering::Less {
        let (d, borrow) = sub(&r, modulus);
        debug_assert_eq!(borrow, 0);
        return d;
    }
    r
}

/// Reduces an 8-limb value modulo `m = 2^256 - c` where `c` has at most
/// *three* significant limbs (the secp256k1 group order: `c < 2^129`).
///
/// Three fixed folds with constant loop bounds (fully unrollable, no
/// data-dependent branches) bring any 512-bit value below `2^256 + 2^133`;
/// a final single-limb wrap and conditional subtract finish the job. Sizes:
/// `< 2^512 → < 2^386 → < 2^260 → < 2^256 + 2^133`.
#[inline]
pub(crate) fn reduce_wide_c3(wide: [u64; 8], modulus: &[u64; 4], c: &[u64; 4]) -> [u64; 4] {
    debug_assert_eq!(c[3], 0, "c must fit three limbs");
    /// One fold `value → lo + hi*c`, multiplying only the `hi_len`
    /// significant high limbs. Each row's carry-out lands on a limb no
    /// earlier row has written, so a plain store deposits it.
    #[inline(always)]
    fn fold(wide: &[u64; 8], hi_len: usize, c: &[u64; 4]) -> [u64; 8] {
        let mut prod = [0u64; 8];
        for i in 0..hi_len {
            let hi = wide[4 + i];
            let mut carry = 0u128;
            for j in 0..3 {
                let t = (hi as u128) * (c[j] as u128) + (prod[i + j] as u128) + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            prod[i + 3] = carry as u64;
        }
        // out = prod + lo
        let mut out = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..8 {
            let lo_limb = if i < 4 { wide[i] } else { 0 };
            let (s1, c1) = prod[i].overflowing_add(lo_limb);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        debug_assert_eq!(carry, 0, "fold cannot overflow 512 bits");
        out
    }
    // < 2^512 → < 2^386 (3 significant hi limbs) → < 2^260 (1 hi limb)
    // → < 2^256 + 2^133 (hi is a single bit).
    let wide = fold(&wide, 4, c);
    debug_assert_eq!(wide[7], 0);
    let wide = fold(&wide, 3, c);
    debug_assert!(wide[5] == 0 && wide[6] == 0 && wide[7] == 0);
    let wide = fold(&wide, 1, c);
    let mut v = [wide[0], wide[1], wide[2], wide[3]];
    debug_assert!(wide[5] == 0 && wide[6] == 0 && wide[7] == 0);
    if wide[4] != 0 {
        // One leftover 2^256: the low half is < 2^133, so adding c (< 2^129)
        // cannot carry.
        debug_assert_eq!(wide[4], 1);
        let (s, carry) = add(&v, c);
        debug_assert_eq!(carry, 0);
        v = s;
    }
    while cmp(&v, modulus) != std::cmp::Ordering::Less {
        let (d, borrow) = sub(&v, modulus);
        debug_assert_eq!(borrow, 0);
        v = d;
    }
    v
}

/// Reduces an 8-limb value modulo `m = 2^256 - c` (with `c` given as 4 limbs,
/// high limb zero in practice), returning a fully reduced 4-limb value.
///
/// The fold multiplies only over the *significant* limbs of `c` (one limb
/// for the field prime, three for the group order) and skips zero limbs of
/// the high half, so later folds — whose high halves shrink fast — cost a
/// handful of word multiplies instead of a full 4x4 product.
#[cfg_attr(not(test), allow(dead_code))] // retained as the test reference oracle
pub(crate) fn reduce_wide(mut wide: [u64; 8], modulus: &[u64; 4], c: &[u64; 4]) -> [u64; 4] {
    let sig = (1..=4).rev().find(|&n| c[n - 1] != 0).unwrap_or(1);
    // Fold the high half down: v = hi * 2^256 + lo ≡ hi * c + lo (mod m).
    // Each fold shrinks the value; a few iterations reach < 2^256.
    loop {
        let hi = [wide[4], wide[5], wide[6], wide[7]];
        if is_zero(&hi) {
            break;
        }
        // prod = hi * c (sparse schoolbook over c's significant limbs).
        let mut prod = [0u64; 8];
        for i in 0..4 {
            if hi[i] == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..sig {
                let t = (hi[i] as u128) * (c[j] as u128) + (prod[i + j] as u128) + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + sig;
            while carry != 0 {
                let t = (prod[k] as u128) + carry;
                prod[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        // wide = prod + lo
        let mut out = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..8 {
            let lo_limb = if i < 4 { wide[i] } else { 0 };
            let (s1, c1) = prod[i].overflowing_add(lo_limb);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        debug_assert_eq!(carry, 0, "fold cannot overflow 512 bits");
        wide = out;
    }
    let mut v = [wide[0], wide[1], wide[2], wide[3]];
    // At most a couple of conditional subtractions remain.
    while cmp(&v, modulus) != std::cmp::Ordering::Less {
        let (d, borrow) = sub(&v, modulus);
        debug_assert_eq!(borrow, 0);
        v = d;
    }
    v
}

/// Reduces a 4-limb value (possibly >= m, plus an optional carry bit from an
/// addition) modulo `m = 2^256 - c`.
#[inline]
pub(crate) fn reduce_small(v: [u64; 4], carry: u64, modulus: &[u64; 4], c: &[u64; 4]) -> [u64; 4] {
    debug_assert!(carry <= 1, "at most one carry bit from a 256-bit addition");
    let mut out = v;
    if carry != 0 {
        // carry * 2^256 ≡ c (mod m); a wrap of the add means the true value
        // lost exactly one 2^256, so add c back. If that itself wraps the
        // remainder is < c, and one more fold settles it.
        let (s, c2) = add(&out, c);
        out = s;
        if c2 != 0 {
            let (s, c3) = add(&out, c);
            debug_assert_eq!(c3, 0);
            out = s;
        }
    }
    while cmp(&out, modulus) != std::cmp::Ordering::Less {
        let (d, _) = sub(&out, modulus);
        out = d;
    }
    out
}

/// Parses 32 big-endian bytes into little-endian limbs (no reduction).
pub fn from_be_bytes(bytes: &[u8; 32]) -> [u64; 4] {
    let mut limbs = [0u64; 4];
    for i in 0..4 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
        limbs[3 - i] = u64::from_be_bytes(word);
    }
    limbs
}

/// Serializes little-endian limbs into 32 big-endian bytes.
pub fn to_be_bytes(limbs: &[u64; 4]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&limbs[3 - i].to_be_bytes());
    }
    out
}

/// Limb mask of the signed 62-bit representation [`mod_inverse`] works in.
const M62: u64 = u64::MAX >> 2;

/// Splits a 256-bit value into five 62-bit limbs (the top one holds 8 bits).
fn to_signed62(a: &[u64; 4]) -> [i64; 5] {
    [
        (a[0] & M62) as i64,
        ((a[0] >> 62 | a[1] << 2) & M62) as i64,
        ((a[1] >> 60 | a[2] << 4) & M62) as i64,
        ((a[2] >> 58 | a[3] << 6) & M62) as i64,
        (a[3] >> 56) as i64,
    ]
}

/// Inverse of [`to_signed62`] for a value in `[0, 2^256)` whose limbs are
/// all in `[0, 2^62)`.
fn from_signed62(a: &[i64; 5]) -> [u64; 4] {
    let a = a.map(|limb| limb as u64);
    [
        a[0] | a[1] << 62,
        a[1] >> 2 | a[2] << 60,
        a[2] >> 4 | a[3] << 58,
        a[3] >> 6 | a[4] << 56,
    ]
}

/// The transition matrix of one batch of 62 divsteps, scaled by `2^62`:
/// `2^62·(f', g') = [[u, v], [q, r]]·(f, g)`, with `|u|+|v|` and `|q|+|r|`
/// at most `2^62`.
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Runs 62 divsteps on the low limbs of `f` (odd) and `g`, returning the
/// new `eta` (= −δ) and the matrix to apply to the full-width values. Runs
/// of zero bits in `g` are shifted out at once, and a multiple of `f` that
/// clears up to six low bits of `g` is added in one step.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // The sentinel bit caps the count at the divsteps still owed.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // g is odd here: add the multiple of f that clears its low bits.
        let swapped = eta < 0;
        if swapped {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
        }
        // No more than `left` bits may be cleared, and no more than
        // eta + 1, after which eta changes sign again.
        let limit = (eta + 1).min(i64::from(left)) as u32;
        let mask = u64::MAX >> (64 - limit);
        let w = if swapped {
            // f·(f² − 2) = −1/f mod 64, so w = −g/f mod 2^min(limit, 6).
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
                & 63
        } else {
            // eta tends to be small on this side: 1/f mod 16 is enough.
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv.wrapping_neg().wrapping_mul(g) & mask & 15
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Transition {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← t·(d, e) / 2^62 (mod m)`: a multiple of `m` chosen through
/// `m_inv62 = m⁻¹ mod 2^62` makes the division exact. Keeps `d` and `e` in
/// `(−2m, m)`.
fn update_de(d: &mut [i64; 5], e: &mut [i64; 5], t: &Transition, m: &[i64; 5], m_inv62: u64) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let mut cd = u * d[0] as i128 + v * e[0] as i128;
    let mut ce = q * d[0] as i128 + r * e[0] as i128;
    md -= (m_inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (m_inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += m[0] as i128 * md as i128;
    ce += m[0] as i128 * me as i128;
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += u * d[i] as i128 + v * e[i] as i128 + m[i] as i128 * md as i128;
        ce += q * d[i] as i128 + r * e[i] as i128 + m[i] as i128 * me as i128;
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` over the low `len` limbs; the division is
/// exact by construction of the divsteps.
fn update_fg(len: usize, f: &mut [i64; 5], g: &mut [i64; 5], t: &Transition) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let mut cf = u * f[0] as i128 + v * g[0] as i128;
    let mut cg = q * f[0] as i128 + r * g[0] as i128;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += u * f[i] as i128 + v * g[i] as i128;
        cg += q * f[i] as i128 + r * g[i] as i128;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// Carries every limb but the top one back into `[0, 2^62)`.
fn propagate(r: &mut [i64; 5]) {
    for i in 0..4 {
        r[i + 1] += r[i] >> 62;
        r[i] &= M62 as i64;
    }
}

/// Variable-time modular inverse `a⁻¹ mod modulus` for an odd prime
/// `modulus` and `0 < a < modulus`: Bernstein–Yang "safegcd" divsteps in
/// batches of 62, the batch computed on single limbs and then applied to
/// the full-width values as one 2×2 matrix. About a dozen batches settle a
/// 256-bit input, against ~256 squarings for a Fermat ladder.
pub(crate) fn mod_inverse(a: &[u64; 4], modulus: &[u64; 4]) -> [u64; 4] {
    debug_assert!(modulus[0] & 1 == 1, "the modulus must be odd");
    debug_assert!(!is_zero(a) && cmp(a, modulus) == std::cmp::Ordering::Less);
    let m = to_signed62(modulus);
    // Newton iteration for m⁻¹ mod 2^64: an odd m is its own inverse mod
    // 8, and every step doubles the number of correct bits.
    let mut m_inv62 = modulus[0];
    for _ in 0..5 {
        m_inv62 = m_inv62.wrapping_mul(2u64.wrapping_sub(modulus[0].wrapping_mul(m_inv62)));
    }

    let (mut d, mut e) = ([0i64; 5], [1i64, 0, 0, 0, 0]);
    let (mut f, mut g) = (m, to_signed62(a));
    let mut len = 5;
    let mut eta = -1i64;
    loop {
        let (next_eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
        eta = next_eta;
        update_de(&mut d, &mut e, &t, &m, m_inv62);
        update_fg(len, &mut f, &mut g, &t);
        if g[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // Drop a top limb that is pure sign extension in both f and g.
        let (f_top, g_top) = (f[len - 1], g[len - 1]);
        if len > 1 && f_top >> 63 == f_top && g_top >> 63 == g_top {
            f[len - 2] |= ((f_top as u64) << 62) as i64;
            g[len - 2] |= ((g_top as u64) << 62) as i64;
            len -= 1;
        }
    }
    // g = 0, so f = ±gcd = ±1 and d = ±a⁻¹, somewhere in (−2m, m): lift a
    // negative d by m, apply f's sign, lift again if that left it negative.
    let lift = |d: &mut [i64; 5]| {
        if d[4] < 0 {
            for i in 0..5 {
                d[i] += m[i];
            }
            propagate(d);
        }
    };
    lift(&mut d);
    if f[len - 1] < 0 {
        d = d.map(|limb| -limb);
        propagate(&mut d);
    }
    lift(&mut d);
    from_signed62(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: [u64; 4] = [
        // secp256k1 field prime p, little-endian limbs
        0xFFFFFFFEFFFFFC2F,
        0xFFFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF,
    ];
    const C: [u64; 4] = [0x1000003D1, 0, 0, 0]; // 2^256 - p

    #[test]
    fn add_carries() {
        let a = [u64::MAX, u64::MAX, u64::MAX, u64::MAX];
        let b = [1, 0, 0, 0];
        let (s, carry) = add(&a, &b);
        assert_eq!(s, [0, 0, 0, 0]);
        assert_eq!(carry, 1);
    }

    #[test]
    fn sub_borrows() {
        let a = [0, 0, 0, 0];
        let b = [1, 0, 0, 0];
        let (d, borrow) = sub(&a, &b);
        assert_eq!(d, [u64::MAX, u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(borrow, 1);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = [0x1234, 0x5678, 0x9abc, 0x0def];
        let b = [0xfeed, 0xbeef, 0xdead, 0x0123];
        let (s, c) = add(&a, &b);
        assert_eq!(c, 0);
        let (d, b2) = sub(&s, &b);
        assert_eq!(b2, 0);
        assert_eq!(d, a);
    }

    #[test]
    fn mul_wide_small() {
        let a = [7, 0, 0, 0];
        let b = [9, 0, 0, 0];
        let p = mul_wide(&a, &b);
        assert_eq!(p, [63, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn mul_wide_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let a = [u64::MAX; 4];
        let p = mul_wide(&a, &a);
        assert_eq!(p[0], 1);
        for limb in &p[1..4] {
            assert_eq!(*limb, 0);
        }
        assert_eq!(p[4], 0xFFFFFFFFFFFFFFFE);
        for limb in &p[5..8] {
            assert_eq!(*limb, u64::MAX);
        }
    }

    #[test]
    fn sqr_wide_matches_mul_wide() {
        let cases: [[u64; 4]; 6] = [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [u64::MAX; 4],
            [0x0123456789abcdef, 0xfedcba9876543210, 0x1111, 0x2222],
            [0, u64::MAX, 0, u64::MAX],
            [0xdeadbeef, 0, 0xcafebabe, 0],
        ];
        for a in &cases {
            assert_eq!(sqr_wide(a), mul_wide(a, a), "a = {a:x?}");
        }
        // A cheap deterministic pseudo-random sweep.
        let mut x = [0x9e3779b97f4a7c15u64, 1, 2, 3];
        for _ in 0..200 {
            for limb in x.iter_mut() {
                *limb = limb
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            assert_eq!(sqr_wide(&x), mul_wide(&x, &x), "x = {x:x?}");
        }
    }

    #[test]
    fn reduce_wide_sparse_matches_dense_fold_for_order_c() {
        // The group order's c has three significant limbs; check the sparse
        // fold against a reference that reduces via repeated subtraction-free
        // full multiply (the pre-optimization behaviour).
        const N: [u64; 4] = [
            0xBFD25E8CD0364141,
            0xBAAEDCE6AF48A03B,
            0xFFFFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFFFFF,
        ];
        const CN: [u64; 4] = [0x402DA1732FC9BEBF, 0x4551231950B75FC4, 0x1, 0x0];
        fn reference(mut wide: [u64; 8]) -> [u64; 4] {
            loop {
                let hi = [wide[4], wide[5], wide[6], wide[7]];
                if is_zero(&hi) {
                    break;
                }
                let prod = mul_wide(&hi, &CN);
                let mut out = [0u64; 8];
                let mut carry = 0u64;
                for i in 0..8 {
                    let lo_limb = if i < 4 { wide[i] } else { 0 };
                    let (s1, c1) = prod[i].overflowing_add(lo_limb);
                    let (s2, c2) = s1.overflowing_add(carry);
                    out[i] = s2;
                    carry = (c1 as u64) + (c2 as u64);
                }
                wide = out;
            }
            let mut v = [wide[0], wide[1], wide[2], wide[3]];
            while cmp(&v, &N) != std::cmp::Ordering::Less {
                let (d, _) = sub(&v, &N);
                v = d;
            }
            v
        }
        let mut x = [0xa076_1d64_78bd_642fu64; 8];
        for round in 0..200u64 {
            for (i, limb) in x.iter_mut().enumerate() {
                *limb = limb
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493 + round + i as u64);
            }
            assert_eq!(reduce_wide(x, &N, &CN), reference(x), "x = {x:x?}");
        }
    }

    #[test]
    fn reduce_wide_c1_matches_generic() {
        // Fixed edge cases: zero, the modulus itself, all-ones, 2^256.
        let cases: [[u64; 8]; 4] = [
            [0; 8],
            [M[0], M[1], M[2], M[3], 0, 0, 0, 0],
            [u64::MAX; 8],
            [0, 0, 0, 0, 1, 0, 0, 0],
        ];
        for w in &cases {
            assert_eq!(
                reduce_wide_c1(*w, &M, C[0]),
                reduce_wide(*w, &M, &C),
                "w = {w:x?}"
            );
        }
        // Deterministic pseudo-random sweep, including products of extremes.
        let mut x = [0x6c62_272e_07bb_0142u64; 8];
        for round in 0..500u64 {
            for (i, limb) in x.iter_mut().enumerate() {
                *limb = limb
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(round * 31 + i as u64);
            }
            assert_eq!(
                reduce_wide_c1(x, &M, C[0]),
                reduce_wide(x, &M, &C),
                "x = {x:x?}"
            );
        }
        let sq_max = mul_wide(&[u64::MAX; 4], &[u64::MAX; 4]);
        assert_eq!(
            reduce_wide_c1(sq_max, &M, C[0]),
            reduce_wide(sq_max, &M, &C)
        );
    }

    #[test]
    fn reduce_wide_c3_matches_generic() {
        const N: [u64; 4] = [
            0xBFD25E8CD0364141,
            0xBAAEDCE6AF48A03B,
            0xFFFFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFFFFF,
        ];
        const CN: [u64; 4] = [0x402DA1732FC9BEBF, 0x4551231950B75FC4, 0x1, 0x0];
        let cases: [[u64; 8]; 4] = [
            [0; 8],
            [N[0], N[1], N[2], N[3], 0, 0, 0, 0],
            [u64::MAX; 8],
            [0, 0, 0, 0, 1, 0, 0, 0],
        ];
        for w in &cases {
            assert_eq!(
                reduce_wide_c3(*w, &N, &CN),
                reduce_wide(*w, &N, &CN),
                "w = {w:x?}"
            );
        }
        let mut x = [0xcbf2_9ce4_8422_2325u64; 8];
        for round in 0..500u64 {
            for (i, limb) in x.iter_mut().enumerate() {
                *limb = limb
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(round * 57 + i as u64);
            }
            assert_eq!(
                reduce_wide_c3(x, &N, &CN),
                reduce_wide(x, &N, &CN),
                "x = {x:x?}"
            );
        }
        let sq_max = mul_wide(&[u64::MAX; 4], &[u64::MAX; 4]);
        assert_eq!(
            reduce_wide_c3(sq_max, &N, &CN),
            reduce_wide(sq_max, &N, &CN)
        );
    }

    #[test]
    fn reduce_identity_below_modulus() {
        let v = [42, 0, 0, 0];
        let wide = [42, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(reduce_wide(wide, &M, &C), v);
    }

    #[test]
    fn reduce_exactly_modulus_is_zero() {
        let wide = [M[0], M[1], M[2], M[3], 0, 0, 0, 0];
        assert_eq!(reduce_wide(wide, &M, &C), [0, 0, 0, 0]);
    }

    #[test]
    fn reduce_two_to_256() {
        // 2^256 mod p = c
        let wide = [0, 0, 0, 0, 1, 0, 0, 0];
        assert_eq!(reduce_wide(wide, &M, &C), C);
    }

    #[test]
    fn byte_round_trip() {
        let limbs = [0x0123456789abcdef, 0xfedcba9876543210, 0x1111, 0x2222];
        assert_eq!(from_be_bytes(&to_be_bytes(&limbs)), limbs);
    }

    #[test]
    fn be_bytes_order() {
        let limbs = [1u64, 0, 0, 0];
        let bytes = to_be_bytes(&limbs);
        assert_eq!(bytes[31], 1);
        assert!(bytes[..31].iter().all(|&b| b == 0));
    }
}
