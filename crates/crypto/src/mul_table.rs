//! Scalar multiplication from precomputed tables: wNAF odd multiples for
//! arbitrary points, a signed comb for the generator and for public keys
//! that keep returning.
//!
//! The accept-path hot loop of the payment engine is ECDSA verification,
//! which is two scalar multiplications (`u1*G + u2*Q`); every payment also
//! signs twice, which is one `k*G` each. This module replaces the seed's
//! 1-bit double-and-add ladder with:
//!
//! - **wNAF recoding** ([`crate::scalar::Scalar::wnaf`]): signed odd digits
//!   thin the nonzero-digit density from ~1/2 to ~1/(w+1), and negative
//!   digits come free because point negation is a `y` sign flip.
//! - **Odd-multiple tables** ([`OddMultiplesTable`]): `{1P, 3P, …,
//!   (2^(w-1)-1)P}` computed once in Jacobian form, then normalized to
//!   affine *in one shot* with Montgomery's batch-inversion trick so every
//!   table add is a cheap mixed Jacobian+affine add.
//! - The **GLV endomorphism**: secp256k1 has `j`-invariant 0, so
//!   `φ(x, y) = (β·x, y)` is an efficiently computable curve automorphism
//!   acting as multiplication by a cube root of unity `λ`. Splitting
//!   `k = k1 + k2·λ (mod n)` with `|k1|, |k2| < 2^129`
//!   ([`Scalar::split_glv`]) turns one 256-bit ladder into two interleaved
//!   half-length ones, halving the doubling count — and the `φ`-table is
//!   derived from the base table by one field multiply per entry.
//! - A fixed-base signed **comb** ([`CombTable`]): with every
//!   `j·2^(5i)·P` precomputed (52 KiB, ≈ 0.5 ms to build) `k·P` is at most
//!   52 mixed additions and *no* doublings. `G`'s comb is built once per
//!   process and serves every stand-alone `k*G` (signing, key derivation,
//!   [`generator_mul`]).
//! - A bounded **per-key LRU** ([`PubkeyTableCache`]) so repeated verifies
//!   against the same public key — the common case inside a
//!   `FastPaySession` and across payment batches — skip the Q-table build,
//!   and a key that keeps returning gets a comb of its own
//!   ([`PROMOTE_AT`], at most [`MAX_COMBS`] per cache). A promoted key's
//!   verify is `u1·G + u2·Q` from two combs: at most 104 mixed additions
//!   instead of ~129 doublings and ~72 additions.
//! - **Width-8 wNAF `G`/`φ(G)` tables** (2 × 4 KiB) where `G` rides along
//!   with a point that has no comb ([`lincomb_wnaf`],
//!   [`msm_with_generator`]): the ~129 doublings are paid for `Q` anyway,
//!   so `G`'s digits cost only their ~29 additions — `G`'s comb there
//!   would add ~52 additions to save doublings that still have to run.
//!
//! Everything here is deliberately *not* constant time; the library backs
//! a simulator. Correctness is enforced by differential tests against the
//! retained binary ladder [`crate::point::Point::mul_binary`].

use crate::field::FieldElement;
use crate::point::{batch_to_affine, AffinePoint, Point};
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// wNAF window width for per-point (public-key) tables: 8 odd multiples,
/// built fresh or pulled from the per-key cache.
pub const WINDOW_P: u32 = 5;

/// wNAF window width for the static generator tables the interleaved
/// ladders read: 64 odd multiples, built once per process.
pub const WINDOW_G: u32 = 8;

/// Precomputed affine odd multiples `{1P, 3P, 5P, …, (2^(width-1)-1)P}` of
/// a point, ready for mixed addition against a wNAF digit stream.
#[derive(Clone, Debug)]
pub struct OddMultiplesTable {
    width: u32,
    /// entries[i] = (2i + 1) * P in affine coordinates.
    entries: Vec<(FieldElement, FieldElement)>,
}

impl OddMultiplesTable {
    /// Builds the table for `p` with the given wNAF window `width`
    /// (2..=8). Returns `None` when `p` is the point at infinity (whose
    /// multiples cannot be normalized to affine — callers special-case it,
    /// since `k * ∞ = ∞` needs no table).
    ///
    /// Cost: one doubling, `2^(width-2) - 1` additions, and a single field
    /// inversion for the batch normalization.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=8`.
    pub fn new(p: &Point, width: u32) -> Option<OddMultiplesTable> {
        assert!((2..=8).contains(&width), "wNAF width must be in 2..=8");
        if p.is_infinity() {
            return None;
        }
        let count = 1usize << (width - 2);
        let twop = p.double();
        let mut jac = Vec::with_capacity(count);
        jac.push(*p);
        for i in 1..count {
            let prev = jac[i - 1];
            jac.push(prev.add(&twop));
        }
        let entries = batch_to_affine(&jac)
            .into_iter()
            .map(|a| match a {
                AffinePoint::Coordinates { x, y } => (x, y),
                // Odd multiples of a finite point on a prime-order curve
                // are never the identity; an off-curve input (only
                // reachable through the unchecked `from_affine`) may land
                // here, in which case any finite stand-in keeps the
                // garbage-in/garbage-out contract without panicking.
                AffinePoint::Infinity => (FieldElement::ONE, FieldElement::ONE),
            })
            .collect();
        Some(OddMultiplesTable { width, entries })
    }

    /// Builds width-`width` tables for many finite points at once, sharing
    /// a *single* Montgomery batch inversion across every table's affine
    /// normalization — the per-table field inversion is the dominant cost
    /// of [`OddMultiplesTable::new`], so a multi-scalar multiplication
    /// over dozens of fresh points amortizes it down to one.
    ///
    /// Callers must filter out the point at infinity first (there is no
    /// table to build for it; `k * ∞ = ∞`).
    #[cfg(test)]
    pub(crate) fn new_many(points: &[Point], width: u32) -> Vec<OddMultiplesTable> {
        let mut groups = Self::new_many_grouped(&[(points, width)]);
        groups.pop().unwrap_or_default()
    }

    /// [`OddMultiplesTable::new_many`] over several `(points, width)`
    /// groups at once, so a multi-scalar multiplication that mixes table
    /// widths (full-width GLV terms at [`WINDOW_P`], short randomizer
    /// terms at a narrower window) still pays exactly two field inversions
    /// total: one shared across every base's 2P normalization, one shared
    /// across every finished entry.
    pub(crate) fn new_many_grouped(groups: &[(&[Point], u32)]) -> Vec<Vec<OddMultiplesTable>> {
        let mut doubled = Vec::new();
        for &(points, width) in groups {
            assert!((2..=8).contains(&width), "wNAF width must be in 2..=8");
            doubled.extend(points.iter().map(|p| p.double()));
        }
        // Normalize every base's 2P with one shared inversion up front, so
        // each chain step below is a mixed addition (7M+4S) instead of a
        // full Jacobian one (11M+5S). A second shared inversion then
        // normalizes the finished entries.
        let twops = batch_to_affine(&doubled);
        let mut jac = Vec::new();
        let mut next_twop = 0;
        for &(points, width) in groups {
            let count = 1usize << (width - 2);
            jac.reserve(points.len() * count);
            for p in points {
                debug_assert!(!p.is_infinity(), "callers filter infinity");
                let twop = &twops[next_twop];
                next_twop += 1;
                jac.push(*p);
                for _ in 1..count {
                    let prev = jac[jac.len() - 1];
                    jac.push(match twop {
                        AffinePoint::Coordinates { x, y } => prev.add_mixed(x, y),
                        // 2P = ∞ only for off-curve garbage (y = 0); adding
                        // ∞ is the identity, same as the Jacobian chain did.
                        AffinePoint::Infinity => prev,
                    });
                }
            }
        }
        let affine = batch_to_affine(&jac);
        let mut out = Vec::with_capacity(groups.len());
        let mut rest = affine.as_slice();
        for &(points, width) in groups {
            let count = 1usize << (width - 2);
            let (mine, tail) = rest.split_at(points.len() * count);
            rest = tail;
            out.push(
                mine.chunks(count)
                    .map(|chunk| OddMultiplesTable {
                        width,
                        entries: chunk
                            .iter()
                            .map(|a| match a {
                                AffinePoint::Coordinates { x, y } => (*x, *y),
                                // Same garbage-in/garbage-out stand-in as `new`.
                                AffinePoint::Infinity => (FieldElement::ONE, FieldElement::ONE),
                            })
                            .collect(),
                    })
                    .collect(),
            );
        }
        out
    }

    /// The wNAF window width this table serves.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Adds `digit * P` to `acc` via one mixed addition, where `digit` is a
    /// nonzero odd wNAF digit with `|digit| < 2^(width-1)`.
    fn add_digit(&self, acc: &Point, digit: i8) -> Point {
        debug_assert!(digit != 0 && digit % 2 != 0);
        let idx = ((digit.unsigned_abs() as usize) - 1) / 2;
        let (x, y) = self.entries[idx];
        if digit > 0 {
            acc.add_mixed(&x, &y)
        } else {
            acc.add_mixed(&x, &(-y))
        }
    }

    /// Multiplies the table's base point by `k` using this table.
    pub fn mul(&self, k: &Scalar) -> Point {
        let digits = k.wnaf(self.width);
        let mut acc = Point::INFINITY;
        for &digit in digits.iter().rev() {
            acc = acc.double();
            if digit != 0 {
                acc = self.add_digit(&acc, digit);
            }
        }
        acc
    }

    /// Derives the table of the endomorphism image `φ(P) = λ·P` by mapping
    /// every entry `(x, y) → (β·x, y)` — one field multiply per entry
    /// instead of a fresh doubling/addition/inversion build.
    fn endo_mapped(&self) -> OddMultiplesTable {
        let b = beta();
        OddMultiplesTable {
            width: self.width,
            entries: self.entries.iter().map(|&(x, y)| (b * x, y)).collect(),
        }
    }
}

/// `β`: the cube root of unity in the base field that realizes the GLV
/// endomorphism `φ(x, y) = (β·x, y) = λ·(x, y)`.
fn beta() -> FieldElement {
    static BETA: OnceLock<FieldElement> = OnceLock::new();
    *BETA.get_or_init(|| {
        FieldElement::from_be_bytes(&crate::hex_arr(
            "7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE",
        ))
        .expect("beta is a canonical field element")
    })
}

/// One wNAF digit stream of an interleaved ladder: the digits of a split
/// component, whether the whole stream is negated, and the table serving it.
struct Stream<'a> {
    digits: Vec<i8>,
    negate: bool,
    table: &'a OddMultiplesTable,
}

impl Stream<'_> {
    /// Builds the stream for one GLV component against `table`.
    fn new(component: (bool, Scalar), table: &OddMultiplesTable) -> Stream<'_> {
        let (negate, abs) = component;
        Stream {
            digits: abs.wnaf(table.width),
            negate,
            table,
        }
    }
}

/// Shared-doubling ladder over any number of wNAF digit streams. With GLV
/// components the streams are ~129 digits long, so the whole multiplication
/// costs ~129 doublings regardless of how many streams ride along.
///
/// Past a handful of streams the ladder switches from probing every stream
/// at every position (fine for one verify's 2–4 streams, but ~6× the adds
/// in wasted scattered loads for a batch's hundreds) to bucketing the
/// nonzero digits by position in one stream-major linear pass. Both paths
/// perform the identical addition sequence — buckets are filled in stream
/// order — so results are bit-identical.
fn interleaved_mul(streams: &[Stream<'_>]) -> Point {
    let len = streams.iter().map(|s| s.digits.len()).max().unwrap_or(0);
    let mut acc = Point::INFINITY;
    if streams.len() <= 8 {
        for i in (0..len).rev() {
            acc = acc.double();
            for s in streams {
                if let Some(&d) = s.digits.get(i) {
                    if d != 0 {
                        let d = if s.negate { -d } else { d };
                        acc = s.table.add_digit(&acc, d);
                    }
                }
            }
        }
        return acc;
    }
    // Expected bucket occupancy is streams/(width+1); a capacity of
    // streams/4 absorbs the tail without reallocation in practice.
    let cap = streams.len() / 4 + 1;
    let mut buckets: Vec<Vec<(i8, u16)>> = (0..len).map(|_| Vec::with_capacity(cap)).collect();
    for (si, s) in streams.iter().enumerate() {
        for (pos, &d) in s.digits.iter().enumerate() {
            if d != 0 {
                let d = if s.negate { -d } else { d };
                buckets[pos].push((d, si as u16));
            }
        }
    }
    for bucket in buckets.iter().rev() {
        acc = acc.double();
        for &(d, si) in bucket {
            acc = streams[si as usize].table.add_digit(&acc, d);
        }
    }
    acc
}

/// The static wNAF generator table, built on first use.
pub fn generator_table() -> &'static OddMultiplesTable {
    static TABLE: OnceLock<OddMultiplesTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        OddMultiplesTable::new(&Point::generator(), WINDOW_G)
            .expect("the generator is a finite point")
    })
}

/// The static table of `φ(G) = λ·G`, derived from [`generator_table`] on
/// first use.
fn generator_endo_table() -> &'static OddMultiplesTable {
    static TABLE: OnceLock<OddMultiplesTable> = OnceLock::new();
    TABLE.get_or_init(|| generator_table().endo_mapped())
}

/// Window width of a comb: signed 5-bit digits in `[-15, 16]`. The widest
/// signed window whose table stays under 64 KiB (width 6 needs 43·32
/// entries = 86 KiB).
const COMB_WINDOW: usize = 5;

/// Windows of a comb: 52·5 = 260 bits, so the carry out of bit 255 always
/// lands inside the last window.
const COMB_WINDOWS: usize = 52;

/// Entries per comb window: `1·B, 2·B, …, 16·B` for `B = 2^(5i)·P`.
const COMB_ENTRIES: usize = 1 << (COMB_WINDOW - 1);

/// Windows normalised per shared inversion while a comb is built: 13
/// inversions instead of one, so that what the build holds besides the
/// finished table is 64 Jacobian points rather than 832.
const COMB_BUILD_WINDOWS: usize = 4;

/// A fixed-base signed comb over one finite point `P`: `52·16` affine
/// points, 52 KiB, `entries[16·i + j − 1] = j·2^(5i)·P`. Building one is
/// about 830 Jacobian additions and 13 shared inversions (≈ 0.5 ms);
/// [`CombTable::mul`] is then at most 52 mixed additions and *no*
/// doublings. `G`'s comb is built once per process ([`generator_mul`]);
/// [`PubkeyTableCache`] builds one for a public key that keeps returning.
#[derive(Debug)]
pub struct CombTable {
    entries: Vec<(FieldElement, FieldElement)>,
}

impl CombTable {
    /// Builds the comb of `p`. Returns `None` for the point at infinity,
    /// and for an off-curve input (only reachable through the unchecked
    /// `from_affine`) whose multiples land on infinity: a finite point of
    /// the prime-order curve has no `j·2^(5i)` with `j ≤ 16` at infinity.
    pub fn new(p: &Point) -> Option<CombTable> {
        if p.is_infinity() {
            return None;
        }
        let mut entries = Vec::with_capacity(COMB_WINDOWS * COMB_ENTRIES);
        let mut jac = Vec::with_capacity(COMB_BUILD_WINDOWS * COMB_ENTRIES);
        let mut base = *p;
        for _ in 0..COMB_WINDOWS / COMB_BUILD_WINDOWS {
            jac.clear();
            for _ in 0..COMB_BUILD_WINDOWS {
                let start = jac.len();
                jac.push(base);
                for j in 2..=COMB_ENTRIES {
                    // Even multiples by doubling (cheaper than an addition).
                    jac.push(if j % 2 == 0 {
                        jac[start + j / 2 - 1].double()
                    } else {
                        jac[start + j - 2].add(&base)
                    });
                }
                base = jac[start + COMB_ENTRIES - 1].double(); // 32·B = 2·(16·B)
            }
            for a in batch_to_affine(&jac) {
                match a {
                    AffinePoint::Coordinates { x, y } => entries.push((x, y)),
                    AffinePoint::Infinity => return None,
                }
            }
        }
        Some(CombTable { entries })
    }

    /// `k·P` by the signed comb: no doublings, at most 52 mixed additions.
    pub fn mul(&self, k: &Scalar) -> Point {
        self.add_mul(Point::INFINITY, k)
    }

    /// `acc + k·P`: each window's signed digit is one mixed addition into
    /// `acc`, so a second comb can continue the first one's sum.
    fn add_mul(&self, mut acc: Point, k: &Scalar) -> Point {
        let mut carry = 0;
        for (i, window) in self.entries.chunks_exact(COMB_ENTRIES).enumerate() {
            // v in 0..=32 stands for the digit v (v ≤ 16) or v − 32 with a
            // carry into the next window.
            let v = k.bits(i * COMB_WINDOW, COMB_WINDOW) + carry;
            carry = usize::from(v > COMB_ENTRIES);
            if v == 0 || v == 2 * COMB_ENTRIES {
                continue;
            }
            acc = if carry == 0 {
                let (x, y) = window[v - 1];
                acc.add_mixed(&x, &y)
            } else {
                let (x, y) = window[2 * COMB_ENTRIES - v - 1];
                acc.add_mixed(&x, &(-y))
            };
        }
        debug_assert_eq!(carry, 0, "the last window holds bit 255 and a carry only");
        acc
    }
}

/// `G`'s comb, built on first use.
fn generator_comb() -> &'static CombTable {
    static TABLE: OnceLock<CombTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        CombTable::new(&Point::generator()).expect("the generator is a finite point")
    })
}

/// Fixed-base multiplication `k * G` by `G`'s comb: no doublings, at most
/// 52 mixed additions. Used where `k·G` stands alone — signing, public-key
/// derivation, and [`Point::lincomb`] with `Q = ∞`.
pub fn generator_mul(k: &Scalar) -> Point {
    generator_comb().mul(k)
}

/// Variable-base multiplication `k * P`: builds a one-shot width-
/// [`WINDOW_P`] table (plus its `φ` image) and runs the GLV-split wNAF
/// ladder. This is what [`Point::mul`] delegates to.
pub fn mul_wnaf(p: &Point, k: &Scalar) -> Point {
    match OddMultiplesTable::new(p, WINDOW_P) {
        Some(table) => {
            let endo = table.endo_mapped();
            let (c1, c2) = k.split_glv();
            interleaved_mul(&[Stream::new(c1, &table), Stream::new(c2, &endo)])
        }
        None => Point::INFINITY, // k * ∞ = ∞
    }
}

/// Interleaved double-scalar multiplication `a*G + b*Q` (Strauss/Shamir):
/// all four GLV digit streams — `a` against the static `G`/`φ(G)` tables,
/// `b` against `q_table` and its `φ` image — share a single ~129-step run
/// of doublings.
pub fn lincomb_wnaf(a: &Scalar, b: &Scalar, q_table: &OddMultiplesTable) -> Point {
    let q_endo = q_table.endo_mapped();
    let (a1, a2) = a.split_glv();
    let (b1, b2) = b.split_glv();
    interleaved_mul(&[
        Stream::new(a1, generator_table()),
        Stream::new(a2, generator_endo_table()),
        Stream::new(b1, q_table),
        Stream::new(b2, &q_endo),
    ])
}

/// Multi-scalar multiplication `Σ k_i·P_i` (Strauss/Shamir over arbitrarily
/// many points): every term is GLV-split into two ~129-digit wNAF streams,
/// all per-point tables are normalized with one shared batch inversion
/// ([`OddMultiplesTable::new_many`]), and a single ~129-step doubling run
/// serves every stream. Terms with a zero scalar or the point at infinity
/// contribute nothing and are skipped.
///
/// This is the evaluation engine of batched ECDSA verification
/// ([`crate::batch`]): the batch reduces to one `Σ a_i·u1_i·G +
/// Σ a_i·u2_i·Q_i − Σ a_i·R_i ≟ ∞` check, whose per-signature cost is a
/// fraction of a full verify because the doublings and the normalization
/// inversion are paid once for the whole sum.
pub fn msm_wnaf(terms: &[(Scalar, Point)]) -> Point {
    msm_with_generator(&Scalar::ZERO, terms)
}

/// [`msm_wnaf`] with an explicit fixed-base term: computes
/// `g_coeff·G + Σ k_i·P_i`, serving the `G` coefficient from the static
/// width-[`WINDOW_G`] generator tables instead of building a throwaway
/// per-call table for `G`.
///
/// Two more cost asymmetries the batch verifier leans on:
///
/// - Coefficients below 2^128 (its randomizers on the `−R_i` terms) skip
///   the GLV split entirely — their single wNAF stream is already
///   half-length, and a split would spread the same magnitude over two
///   streams, doubling the nonzero digits walked by the shared ladder.
/// - `φ`-tables are derived only for terms whose split actually produces a
///   nonzero `λ` component, instead of unconditionally for every point.
pub fn msm_with_generator(g_coeff: &Scalar, terms: &[(Scalar, Point)]) -> Point {
    // Short coefficients run ~129-digit single streams; at that length a
    // width-4 table (3 adds to build, 4 entries to normalize) beats the
    // width-5 one (7 adds, 8 entries) — the denser digit stream costs less
    // than the extra table work it saves.
    const WINDOW_SHORT: u32 = 4;
    let mut full: Vec<(Scalar, Point)> = Vec::with_capacity(terms.len());
    let mut short: Vec<(Scalar, Point)> = Vec::new();
    for &(k, p) in terms {
        if k.is_zero() || p.is_infinity() {
            continue;
        } else if k.fits_128_bits() {
            short.push((k, p));
        } else {
            full.push((k, p));
        }
    }
    let full_points: Vec<Point> = full.iter().map(|&(_, p)| p).collect();
    let short_points: Vec<Point> = short.iter().map(|&(_, p)| p).collect();
    let mut grouped = OddMultiplesTable::new_many_grouped(&[
        (&full_points, WINDOW_P),
        (&short_points, WINDOW_SHORT),
    ]);
    let short_tables = grouped.pop().expect("two groups in, two out");
    let full_tables = grouped.pop().expect("two groups in, two out");
    // Split the full-width coefficients first so φ-tables are built only
    // where a nonzero λ component will actually consume them.
    let mut components = Vec::with_capacity(full.len());
    let mut endo_tables: Vec<Option<OddMultiplesTable>> = Vec::with_capacity(full.len());
    for (i, (k, _)) in full.iter().enumerate() {
        let (c1, c2) = k.split_glv();
        endo_tables.push((!c2.1.is_zero()).then(|| full_tables[i].endo_mapped()));
        components.push((c1, c2));
    }
    let mut streams = Vec::with_capacity(full.len() * 2 + short.len() + 2);
    if !g_coeff.is_zero() {
        let (c1, c2) = g_coeff.split_glv();
        if !c1.1.is_zero() {
            streams.push(Stream::new(c1, generator_table()));
        }
        if !c2.1.is_zero() {
            streams.push(Stream::new(c2, generator_endo_table()));
        }
    }
    for (i, (c1, c2)) in components.iter().enumerate() {
        if !c1.1.is_zero() {
            streams.push(Stream::new(*c1, &full_tables[i]));
        }
        if let Some(endo) = &endo_tables[i] {
            streams.push(Stream::new(*c2, endo));
        }
    }
    for (i, (k, _)) in short.iter().enumerate() {
        streams.push(Stream::new((false, *k), &short_tables[i]));
    }
    interleaved_mul(&streams)
}

/// Hit/miss counters for a [`PubkeyTableCache`]. Monotonic within a cache's
/// lifetime; `ecdsa::pubkey_cache_stats` snapshots the thread-local cache
/// for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PubkeyCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a fresh table.
    pub misses: u64,
    /// Tables inserted (equals misses for this cache).
    pub insertions: u64,
    /// Tables evicted to respect the capacity bound.
    pub evictions: u64,
    /// Combs built for keys that kept returning ([`PROMOTE_AT`]).
    pub promotions: u64,
}

/// Lookups without a comb after which [`PubkeyTableCache`] builds a key's
/// [`CombTable`]. A comb costs ≈ 0.5 ms to build and saves 15–30 µs per
/// verify, so a key earns one after about as many lookups as the build
/// costs.
pub const PROMOTE_AT: u32 = 16;

/// Lookups a comb serves before another key may take its place: by then
/// it has saved about what it cost to build, so a rotation of more hot
/// keys than combs cannot rebuild them faster than they pay back.
pub const KEEP_FOR: u32 = 32;

/// Most combs one [`PubkeyTableCache`] holds: 8 × 52 KiB = 416 KiB.
pub const MAX_COMBS: usize = 8;

/// What [`PubkeyTableCache::get_or_build`] serves a key's verify from.
#[derive(Clone, Copy, Debug)]
pub enum KeyTable<'a> {
    /// The key's wNAF odd multiples, for the interleaved ladder.
    Wnaf(&'a OddMultiplesTable),
    /// The key's comb, once the key has been promoted.
    Comb(&'a CombTable),
}

impl KeyTable<'_> {
    /// `a·G + b·Q` for the key `Q` this table serves: ~129 doublings and
    /// ~72 mixed additions from wNAF tables ([`lincomb_wnaf`]), or `G`'s
    /// comb and `Q`'s summed into one accumulator, at most 104 mixed
    /// additions and no doublings. The same group element either way.
    pub fn lincomb(&self, a: &Scalar, b: &Scalar) -> Point {
        match self {
            KeyTable::Wnaf(table) => lincomb_wnaf(a, b, table),
            KeyTable::Comb(comb) => comb.add_mul(generator_mul(a), b),
        }
    }
}

/// One cached key: its wNAF table, its comb once promoted, and its
/// lookups since it entered the cache, was promoted or lost its comb.
#[derive(Debug)]
struct CachedKey {
    id: [u8; 33],
    table: OddMultiplesTable,
    comb: Option<CombTable>,
    lookups: u32,
}

/// A small bounded LRU mapping compressed public keys to their
/// [`OddMultiplesTable`], so repeated ECDSA verifies against the same key
/// skip the table build (one doubling + 7 adds + 1 inversion at
/// [`WINDOW_P`]).
///
/// Every [`PROMOTE_AT`]th lookup of a key without a comb also builds its
/// [`CombTable`] — if the point is on the curve and the comb has no entry
/// at infinity — and later lookups serve the comb. At most [`MAX_COMBS`]
/// keys hold one: past the cap, the least recently used holder whose comb
/// has served [`KEEP_FOR`] lookups gives it up (keeping its wNAF table),
/// and with no such holder the key waits for its next chance.
///
/// Entries are kept most-recently-used first in a `Vec`; with the default
/// capacity of a few dozen, linear scans beat hashing 33-byte keys.
#[derive(Debug)]
pub struct PubkeyTableCache {
    capacity: usize,
    /// MRU-first: entries[0] is the most recently used.
    entries: Vec<CachedKey>,
    stats: PubkeyCacheStats,
}

impl PubkeyTableCache {
    /// Creates an empty cache holding at most `capacity` key tables.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PubkeyTableCache {
        assert!(capacity > 0, "cache capacity must be positive");
        PubkeyTableCache {
            capacity,
            entries: Vec::with_capacity(capacity),
            stats: PubkeyCacheStats::default(),
        }
    }

    /// Returns the table for the key `id`, building its wNAF table from
    /// `point` (at [`WINDOW_P`]) on a miss and its comb on every
    /// [`PROMOTE_AT`]th lookup without one. Returns `None` only when
    /// `point` is the point at infinity.
    pub fn get_or_build(&mut self, id: &[u8; 33], point: &Point) -> Option<KeyTable<'_>> {
        if let Some(pos) = self.entries.iter().position(|e| e.id == *id) {
            self.stats.hits += 1;
            // Move to MRU front.
            let entry = self.entries.remove(pos);
            self.entries.insert(0, entry);
        } else {
            self.stats.misses += 1;
            let table = OddMultiplesTable::new(point, WINDOW_P)?;
            if self.entries.len() >= self.capacity {
                self.entries.pop();
                self.stats.evictions += 1;
            }
            self.entries.insert(
                0,
                CachedKey {
                    id: *id,
                    table,
                    comb: None,
                    lookups: 0,
                },
            );
            self.stats.insertions += 1;
        }
        let entry = &mut self.entries[0];
        entry.lookups = entry.lookups.saturating_add(1);
        if entry.comb.is_none() && entry.lookups.is_multiple_of(PROMOTE_AT) {
            self.promote(point);
        }
        let entry = &self.entries[0];
        Some(match &entry.comb {
            Some(comb) => KeyTable::Comb(comb),
            None => KeyTable::Wnaf(&entry.table),
        })
    }

    /// Gives the MRU entry, whose key is `point`, its comb. Past
    /// [`MAX_COMBS`] a holder's comb is dropped first, so the build never
    /// runs beside more combs than the cap.
    fn promote(&mut self, point: &Point) {
        if !point.is_on_curve() {
            return;
        }
        if self.combs() >= MAX_COMBS {
            let lru_paid_back = self
                .entries
                .iter_mut()
                .rev()
                .find(|e| e.comb.is_some() && e.lookups >= KEEP_FOR);
            let Some(holder) = lru_paid_back else {
                return;
            };
            holder.comb = None;
            holder.lookups = 0;
        }
        let entry = &mut self.entries[0];
        entry.comb = CombTable::new(point);
        if entry.comb.is_some() {
            entry.lookups = 0;
            self.stats.promotions += 1;
        }
    }

    /// Number of cached keys holding a comb.
    fn combs(&self) -> usize {
        self.entries.iter().filter(|e| e.comb.is_some()).count()
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> PubkeyCacheStats {
        self.stats
    }

    /// Drops all cached tables and resets the counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stats = PubkeyCacheStats::default();
    }

    /// Number of cached key tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when no tables are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Point {
        Point::generator()
    }

    fn key_id(byte: u8) -> [u8; 33] {
        let mut id = [0u8; 33];
        id[0] = 2;
        id[1] = byte;
        id
    }

    #[test]
    fn table_entries_are_odd_multiples() {
        let p = g().mul_binary(&Scalar::from_u64(7));
        let table = OddMultiplesTable::new(&p, WINDOW_P).unwrap();
        for (i, &(x, y)) in table.entries.iter().enumerate() {
            let expected = p.mul_binary(&Scalar::from_u64(2 * i as u64 + 1));
            assert_eq!(
                expected.to_affine(),
                AffinePoint::Coordinates { x, y },
                "entry {i}"
            );
        }
    }

    #[test]
    fn table_rejects_infinity() {
        assert!(OddMultiplesTable::new(&Point::INFINITY, WINDOW_P).is_none());
    }

    #[test]
    fn table_mul_matches_binary_across_widths() {
        let p = g().mul_binary(&Scalar::from_u64(99));
        let k = Scalar::from_be_bytes_reduced(&[0xA7; 32]);
        let expected = p.mul_binary(&k);
        for width in 2..=8 {
            let table = OddMultiplesTable::new(&p, width).unwrap();
            assert_eq!(table.mul(&k), expected, "width {width}");
        }
    }

    #[test]
    fn endo_map_is_multiplication_by_lambda() {
        // φ-mapped entries must literally be λ·(the original odd multiple):
        // this pins the β (field) / λ (scalar) pairing the GLV split relies
        // on, against the independent binary ladder.
        let p = g().mul_binary(&Scalar::from_u64(17));
        let table = OddMultiplesTable::new(&p, WINDOW_P).unwrap();
        let endo = table.endo_mapped();
        for (i, &(x, y)) in endo.entries.iter().enumerate() {
            let multiple = Scalar::LAMBDA * Scalar::from_u64(2 * i as u64 + 1);
            let expected = p.mul_binary(&multiple);
            assert_eq!(
                expected.to_affine(),
                AffinePoint::Coordinates { x, y },
                "entry {i}"
            );
        }
    }

    #[test]
    fn generator_mul_matches_binary() {
        for v in [1u64, 2, 3, 0xFFFF_FFFF, u64::MAX] {
            let k = Scalar::from_u64(v);
            assert_eq!(generator_mul(&k), g().mul_binary(&k), "k = {v}");
        }
        assert!(generator_mul(&Scalar::ZERO).is_infinity());
    }

    #[test]
    fn lincomb_wnaf_matches_composition() {
        let q = g().mul_binary(&Scalar::from_u64(1234));
        let a = Scalar::from_be_bytes_reduced(&[0x3C; 32]);
        let b = Scalar::from_be_bytes_reduced(&[0x5E; 32]);
        let table = OddMultiplesTable::new(&q, WINDOW_P).unwrap();
        let fast = lincomb_wnaf(&a, &b, &table);
        let slow = g().mul_binary(&a).add(&q.mul_binary(&b));
        assert_eq!(fast, slow);
    }

    #[test]
    fn new_many_matches_individual_builds() {
        let points: Vec<Point> = (1u64..7)
            .map(|v| g().mul_binary(&Scalar::from_u64(v * 31 + 5)))
            .collect();
        let many = OddMultiplesTable::new_many(&points, WINDOW_P);
        assert_eq!(many.len(), points.len());
        for (p, table) in points.iter().zip(&many) {
            let solo = OddMultiplesTable::new(p, WINDOW_P).unwrap();
            assert_eq!(table.entries, solo.entries);
        }
    }

    #[test]
    fn msm_matches_binary_fold() {
        let terms: Vec<(Scalar, Point)> = (1u64..9)
            .map(|v| {
                let k = Scalar::from_be_bytes_reduced(&[v as u8 * 17; 32]);
                let p = g().mul_binary(&Scalar::from_u64(v * 7001 + 3));
                (k, p)
            })
            .collect();
        let slow = terms
            .iter()
            .fold(Point::INFINITY, |acc, (k, p)| acc.add(&p.mul_binary(k)));
        assert_eq!(msm_wnaf(&terms), slow);
    }

    #[test]
    fn msm_with_generator_matches_binary_fold() {
        // Mix of short (≤128-bit, un-split single-stream path) and
        // full-width (GLV-split) coefficients, plus the fixed-base term.
        let g_coeff = Scalar::from_be_bytes_reduced(&[0x77; 32]);
        let mut terms = Vec::new();
        for v in 1u64..6 {
            let p = g().mul_binary(&Scalar::from_u64(v * 5011 + 7));
            let full = Scalar::from_be_bytes_reduced(&[v as u8 * 29; 32]);
            let mut short_bytes = [0u8; 32];
            short_bytes[16..].copy_from_slice(&[v as u8 * 13 + 1; 16]);
            let short = Scalar::from_be_bytes(&short_bytes).unwrap();
            assert!(short.fits_128_bits() && !full.fits_128_bits());
            terms.push((full, p));
            terms.push((short, p.negate()));
        }
        let slow = terms.iter().fold(g().mul_binary(&g_coeff), |acc, (k, p)| {
            acc.add(&p.mul_binary(k))
        });
        assert_eq!(msm_with_generator(&g_coeff, &terms), slow);
        // A zero generator coefficient degrades to the plain MSM.
        assert_eq!(msm_with_generator(&Scalar::ZERO, &terms), msm_wnaf(&terms));
        // Generator-only and fully empty calls.
        assert_eq!(msm_with_generator(&g_coeff, &[]), g().mul_binary(&g_coeff));
        assert!(msm_with_generator(&Scalar::ZERO, &[]).is_infinity());
    }

    #[test]
    fn msm_handles_zero_scalars_infinity_and_duplicates() {
        assert!(msm_wnaf(&[]).is_infinity());
        let p = g().mul_binary(&Scalar::from_u64(99));
        let k = Scalar::from_be_bytes_reduced(&[0x42; 32]);
        // Zero scalars and infinity points are skipped entirely.
        let terms = [
            (Scalar::ZERO, p),
            (k, Point::INFINITY),
            (k, p),
            (k, p), // duplicate base: contributes twice
            (-k, p),
        ];
        let slow = p.mul_binary(&k);
        assert_eq!(msm_wnaf(&terms), slow);
        // A sum that cancels exactly lands on infinity.
        assert!(msm_wnaf(&[(k, p), (-k, p)]).is_infinity());
    }

    #[test]
    fn cache_hits_and_misses() {
        let mut cache = PubkeyTableCache::new(2);
        let p = g();
        assert!(cache.get_or_build(&key_id(1), &p).is_some());
        assert!(cache.get_or_build(&key_id(1), &p).is_some());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = PubkeyTableCache::new(2);
        let p = g();
        cache.get_or_build(&key_id(1), &p);
        cache.get_or_build(&key_id(2), &p);
        // Touch key 1 so key 2 is LRU.
        cache.get_or_build(&key_id(1), &p);
        cache.get_or_build(&key_id(3), &p); // evicts key 2
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        // Key 1 still cached (hit), key 2 gone (miss).
        let before = cache.stats().hits;
        cache.get_or_build(&key_id(1), &p);
        assert_eq!(cache.stats().hits, before + 1);
        let misses_before = cache.stats().misses;
        cache.get_or_build(&key_id(2), &p);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn cache_clear_resets() {
        let mut cache = PubkeyTableCache::new(4);
        cache.get_or_build(&key_id(1), &g());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), PubkeyCacheStats::default());
    }

    #[test]
    fn cached_table_multiplies_correctly() {
        let mut cache = PubkeyTableCache::new(2);
        let p = g().mul_binary(&Scalar::from_u64(77));
        let k = Scalar::from_be_bytes_reduced(&[0x11; 32]);
        let expected = p.mul_binary(&k);
        for lookup in 1..=PROMOTE_AT + 1 {
            let table = cache.get_or_build(&key_id(9), &p).unwrap();
            // Promotion happens on exactly the PROMOTE_AT-th lookup.
            let promoted = matches!(table, KeyTable::Comb(_));
            assert_eq!(promoted, lookup >= PROMOTE_AT, "lookup {lookup}");
            assert_eq!(
                table.lincomb(&Scalar::ZERO, &k),
                expected,
                "lookup {lookup}"
            );
        }
        assert_eq!(cache.stats().promotions, 1);
    }

    /// Twelve keys promoted in turn through one cache, each serving
    /// `KEEP_FOR` lookups from its comb: the cache never holds more than
    /// `MAX_COMBS` combs, and each promotion past the cap takes the comb
    /// of the least recently used holder.
    #[test]
    fn cache_never_holds_more_than_max_combs() {
        let mut cache = PubkeyTableCache::new(32);
        let keys: Vec<([u8; 33], Point)> = (1..=12u8)
            .map(|b| {
                (
                    key_id(b),
                    g().mul_binary(&Scalar::from_u64(1000 + u64::from(b))),
                )
            })
            .collect();
        for (id, p) in &keys {
            for _ in 0..PROMOTE_AT + KEEP_FOR {
                cache.get_or_build(id, p).unwrap();
                assert!(cache.combs() <= MAX_COMBS);
            }
        }
        assert_eq!(cache.stats().promotions, 12);
        assert_eq!(cache.combs(), MAX_COMBS);
        let k = Scalar::from_be_bytes_reduced(&[0x5A; 32]);
        for (i, (id, p)) in keys.iter().enumerate().rev() {
            let table = cache.get_or_build(id, p).unwrap();
            // The first four keys lost their combs to the last four.
            assert_eq!(matches!(table, KeyTable::Comb(_)), i >= 4, "key {i}");
            assert_eq!(
                table.lincomb(&k, &k),
                g().mul_binary(&k).add(&p.mul_binary(&k))
            );
        }
        assert_eq!(cache.stats().promotions, 12);
    }

    /// A comb that has not yet served `KEEP_FOR` lookups keeps its place:
    /// a ninth key is promoted only once a holder has paid its build back,
    /// on its next `PROMOTE_AT`th lookup.
    #[test]
    fn a_comb_is_kept_until_it_has_served_keep_for_lookups() {
        let mut cache = PubkeyTableCache::new(32);
        let keys: Vec<([u8; 33], Point)> = (1..=9u8)
            .map(|b| {
                (
                    key_id(b),
                    g().mul_binary(&Scalar::from_u64(2000 + u64::from(b))),
                )
            })
            .collect();
        let comb = |cache: &mut PubkeyTableCache, (id, p): &([u8; 33], Point)| {
            matches!(cache.get_or_build(id, p).unwrap(), KeyTable::Comb(_))
        };
        for key in &keys[..8] {
            for _ in 0..PROMOTE_AT {
                comb(&mut cache, key);
            }
        }
        assert_eq!(cache.combs(), MAX_COMBS);
        for _ in 0..PROMOTE_AT {
            assert!(!comb(&mut cache, &keys[8]), "no holder has paid back");
        }
        for _ in 0..KEEP_FOR {
            assert!(comb(&mut cache, &keys[2]));
        }
        for lookup in 1..=PROMOTE_AT {
            assert_eq!(comb(&mut cache, &keys[8]), lookup == PROMOTE_AT);
        }
        assert!(!comb(&mut cache, &keys[2]), "key 2 gave up its comb");
        assert!(comb(&mut cache, &keys[0]), "key 0 kept its comb");
        assert_eq!(cache.stats().promotions, 9);
    }

    #[test]
    fn off_curve_points_are_never_promoted() {
        let mut cache = PubkeyTableCache::new(2);
        let junk = Point::from_affine(FieldElement::from_u64(5), FieldElement::from_u64(9));
        assert!(!junk.is_on_curve());
        for _ in 0..2 * PROMOTE_AT {
            let table = cache.get_or_build(&key_id(3), &junk).unwrap();
            assert!(matches!(table, KeyTable::Wnaf(_)));
        }
        assert_eq!(cache.stats().promotions, 0);
        assert_eq!(cache.combs(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn cache_rejects_zero_capacity() {
        let _ = PubkeyTableCache::new(0);
    }
}
