//! Randomized-linear-combination batch ECDSA verification.
//!
//! A single ECDSA verify checks `R' = u1·G + u2·Q` and compares x-coords,
//! where `u1 = z/s`, `u2 = r/s`. Given the signer-supplied [`NonceHint`]
//! hint naming the actual nonce point `R` (verification alone cannot
//! distinguish `R` from `−R` — it only sees `r`), a batch of signatures
//! collapses into **one** multi-scalar multiplication:
//!
//! ```text
//! Σ a_i·u1_i·G + Σ a_i·u2_i·Q_i − Σ a_i·R_i  ≟  ∞
//! ```
//!
//! with independent random 128-bit nonzero coefficients `a_i`. Each valid
//! signature contributes exactly `∞` to the sum; an invalid one contributes
//! a coefficient-scaled nonzero point, and the random combination of any
//! nonzero contribution lands on `∞` with probability ≤ ~2⁻¹²⁸ (fix every
//! other term: the equation is linear in `a_i` with a nonzero coefficient,
//! so at most one of the 2¹²⁸−1 choices of `a_i` satisfies it).
//!
//! The `G` coefficients fold into a single scalar, the `Q` coefficients of
//! signatures under the *same key* fold into one term per key (a shard's
//! payments come from one customer: eight signatures, one `Q`), every
//! `Q`/`R_i` table shares one Montgomery batch inversion, and all digit
//! streams share one ~129-step doubling run
//! ([`crate::mul_table::msm_with_generator`], which also keeps the 128-bit
//! `a_i` coefficients un-split and serves `G` from its static table). Per
//! signature, one same-key combination costs 1.30× a returning key's comb
//! verify at two items, ties at three (0.98×) and wins from four (0.82×;
//! 0.61× at eight), so the path starts at `MSM_FLOOR` hinted items.
//!
//! **The hint is checked, not trusted and not computed.** It carries the `y`
//! the signer held; the lift accepts it iff `y² = x³ + 7` for the `x` rebuilt
//! from `r` — two field operations where a parity bit needed a square root.
//! An accepted hint is thus one of the two curve points with that `x`, the
//! set a parity bit chose from: the wrong one fails the multi-scalar check
//! like any bad signature, bisects, and the oracle decides.
//!
//! **Verdicts are exactly the sequential loop's.** Items without a usable
//! hint (absent, or naming a point off the curve) are verified by the
//! per-signature oracle [`ecdsa::verify`] directly, and so is every item of
//! a batch with fewer than three hinted ones. A failing multi-scalar check
//! bisects, and every bisection *leaf* is decided by the oracle, never
//! probabilistically — a hostile or corrupted hint can cost time (it forces
//! bisection) but can never flip a verdict or misname a culprit.
//!
//! Randomizers come from a caller-seeded splitmix64 stream, **never**
//! ambient entropy, so a replay with the same seed performs byte-identical
//! work; and the stream is private to the batch call, so it cannot perturb
//! any other deterministic stream in a session.

use crate::ecdsa::{self, NonceHint, Signature};
use crate::field::FieldElement;
use crate::mul_table::msm_with_generator;
use crate::point::Point;
use crate::scalar::Scalar;

/// Hinted items a batch needs before it takes the multi-scalar path;
/// below it every item goes to the oracle.
const MSM_FLOOR: usize = 3;

/// One signature statement submitted for batch verification.
#[derive(Clone, Copy, Debug)]
pub struct BatchItem {
    /// The claimed signer's public-key point.
    pub pubkey: Point,
    /// The 32-byte message digest.
    pub digest: [u8; 32],
    /// The signature to check.
    pub signature: Signature,
    /// The signer's nonce-point hint; `None` routes this item to the
    /// per-signature oracle (correct, just not batched).
    pub recovery: Option<NonceHint>,
}

/// Work counters for one [`verify_batch`] call. Callers (the payment
/// session, `payjudger`'s evidence verifier) accumulate these into their
/// own telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Signatures submitted.
    pub items: u64,
    /// Items that entered the multi-scalar fast path (usable hint).
    pub hinted: u64,
    /// Per-signature oracle verifications run (fallbacks + bisection
    /// leaves).
    pub oracle_checks: u64,
    /// Multi-scalar evaluations, including bisection-internal ones.
    pub msm_evals: u64,
    /// Failed multi-scalar checks that split into two halves.
    pub bisections: u64,
}

impl BatchStats {
    /// Accumulates another call's counters into this one.
    pub fn absorb(&mut self, other: &BatchStats) {
        self.items += other.items;
        self.hinted += other.hinted;
        self.oracle_checks += other.oracle_checks;
        self.msm_evals += other.msm_evals;
        self.bisections += other.bisections;
    }
}

/// The result of a [`verify_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Indices (into the input slice) of invalid signatures, ascending —
    /// exactly the items the sequential `ecdsa::verify` loop would reject.
    pub invalid: Vec<usize>,
    /// What the call cost.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// True when every submitted signature verified.
    pub fn all_valid(&self) -> bool {
        self.invalid.is_empty()
    }
}

/// A hinted item with its verification scalars and reconstructed nonce
/// point, ready for the multi-scalar combination.
struct Prepared {
    index: usize,
    pubkey: Point,
    /// Position in the prepared list of the first item signed by this
    /// same key: the items of one signer share one `Q` term in every
    /// combination (see [`msm_check`]).
    key_group: usize,
    u1: Scalar,
    u2: Scalar,
    r_point: Point,
}

/// The splitmix64 step: the same generator the deterministic session
/// machinery uses, reimplemented here so `crypto` stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a uniform nonzero 128-bit randomizer from the stream.
fn randomizer(state: &mut u64) -> Scalar {
    loop {
        let mut bytes = [0u8; 32];
        bytes[16..24].copy_from_slice(&splitmix64(state).to_be_bytes());
        bytes[24..32].copy_from_slice(&splitmix64(state).to_be_bytes());
        // Cannot fire: the top 16 bytes are zero and n is above 2^255.
        let a = Scalar::from_be_bytes(&bytes).expect("128-bit value is below n");
        if !a.is_zero() {
            return a;
        }
    }
}

/// Montgomery batch inversion over nonzero scalars: prefix products, one
/// inversion, unwind.
fn batch_invert(values: &[Scalar]) -> Vec<Scalar> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut prefix = Vec::with_capacity(values.len());
    let mut acc = Scalar::ONE;
    for v in values {
        acc = acc * *v;
        prefix.push(acc);
    }
    let mut inv = prefix[prefix.len() - 1].invert();
    let mut out = vec![Scalar::ZERO; values.len()];
    for i in (0..values.len()).rev() {
        let left = if i == 0 { Scalar::ONE } else { prefix[i - 1] };
        out[i] = inv * left;
        inv = inv * values[i];
    }
    out
}

/// Rebuilds the signer's nonce point from `r` (plus the hint's overflow
/// bit) and the hinted `y`. `None` when the hint is unusable — `r + n` does
/// not fit the base field, or `(x, y)` is not on the curve.
fn lift_nonce_point(sig: &Signature, hint: NonceHint) -> Option<Point> {
    let x = if hint.x_overflow {
        FieldElement::from_be_bytes(&sig.r.plus_order_bytes()?)?
    } else {
        // Cannot fire: a `Scalar` is below n, and n < p.
        FieldElement::from_be_bytes(&sig.r.to_be_bytes()).expect("r < n < p")
    };
    Point::from_affine_checked(x, hint.y)
}

/// One randomized multi-scalar check over a set of prepared items: draws a
/// fresh randomizer per item (in slice order — the draw sequence is part
/// of the deterministic replay), folds the `G` coefficients into one
/// scalar and the `Q` coefficients of items signed by the same key into
/// one term `(Σ a_i·u2_i)·Q` — the same group element as the separate
/// terms, for one table and one pair of digit streams instead of one per
/// signature — and tests the combination against `∞`.
fn msm_check(prepared: &[Prepared], rng: &mut u64) -> bool {
    let mut g_coeff = Scalar::ZERO;
    let mut q_terms: Vec<(usize, Scalar, Point)> = Vec::new();
    let mut terms = Vec::with_capacity(prepared.len() * 2);
    for p in prepared {
        let a = randomizer(rng);
        g_coeff = g_coeff + a * p.u1;
        match q_terms.iter_mut().find(|(group, ..)| *group == p.key_group) {
            Some((_, coeff, _)) => *coeff = *coeff + a * p.u2,
            None => q_terms.push((p.key_group, a * p.u2, p.pubkey)),
        }
        // `−a_i·R_i` is carried as `a_i·(−R_i)`: negating the *point* keeps
        // the coefficient at 128 bits, so the MSM runs it as one un-split
        // half-length digit stream instead of GLV-splitting a full-width
        // `n − a_i`.
        terms.push((a, p.r_point.negate()));
    }
    terms.extend(q_terms.into_iter().map(|(_, coeff, q)| (coeff, q)));
    msm_with_generator(&g_coeff, &terms).is_infinity()
}

/// Verifies `prepared` (a contiguous bisection node), appending culprit
/// indices to `invalid`. Internal nodes re-check with fresh randomizers;
/// leaves of size one always fall through to the exact oracle.
fn check_node(
    prepared: &[Prepared],
    items: &[BatchItem],
    rng: &mut u64,
    stats: &mut BatchStats,
    invalid: &mut Vec<usize>,
) {
    match prepared {
        [] => {}
        [only] => {
            stats.oracle_checks += 1;
            let item = &items[only.index];
            if !ecdsa::verify(&item.pubkey, &item.digest, &item.signature) {
                invalid.push(only.index);
            }
        }
        _ => {
            stats.msm_evals += 1;
            if msm_check(prepared, rng) {
                return;
            }
            stats.bisections += 1;
            let mid = prepared.len() / 2;
            check_node(&prepared[..mid], items, rng, stats, invalid);
            check_node(&prepared[mid..], items, rng, stats, invalid);
        }
    }
}

/// Batch-verifies `items`, returning exactly the verdicts (and culprit
/// set) of running [`ecdsa::verify`] on each item in order. `seed` drives
/// the private splitmix64 randomizer stream: same seed and items → the
/// same randomizers, evaluations, and outcome.
pub fn verify_batch(items: &[BatchItem], seed: u64) -> BatchOutcome {
    let mut stats = BatchStats {
        items: items.len() as u64,
        ..BatchStats::default()
    };
    let mut invalid = Vec::new();
    let mut rng = seed;

    // The combination breaks even at three signatures (module doc): one
    // hinted item would be a bisection leaf anyway, and two cost more per
    // signature than the oracle's verify on a returning key's comb. Below
    // the floor, skip the curve check and the `s⁻¹` it would discard.
    let batchable = items.iter().filter(|it| it.recovery.is_some()).count() >= MSM_FLOOR;

    let mut prepared: Vec<Prepared> = Vec::with_capacity(items.len());
    let mut s_values = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        // Only items that pass the cheap prechecks *and* carry a usable
        // hint enter the fast path; everything else goes straight to the
        // oracle, which reproduces the sequential loop's verdict (and its
        // cheap-rejection behavior) bit for bit.
        let fast = (batchable && ecdsa::precheck(&item.pubkey, &item.signature))
            .then_some(item.recovery)
            .flatten()
            .and_then(|hint| lift_nonce_point(&item.signature, hint));
        match fast {
            Some(r_point) => {
                // Keys are compared by coordinates: a digest of the key
                // could collide, equal coordinates cannot.
                let key_group = prepared
                    .iter()
                    .find(|p| p.pubkey == item.pubkey)
                    .map_or(prepared.len(), |p| p.key_group);
                prepared.push(Prepared {
                    index,
                    pubkey: item.pubkey,
                    key_group,
                    u1: Scalar::ZERO, // filled after batch inversion
                    u2: Scalar::ZERO,
                    r_point,
                });
                s_values.push(item.signature.s);
            }
            None => {
                stats.oracle_checks += 1;
                if !ecdsa::verify(&item.pubkey, &item.digest, &item.signature) {
                    invalid.push(index);
                }
            }
        }
    }
    stats.hinted = prepared.len() as u64;

    let s_inverses = batch_invert(&s_values);
    for (p, s_inv) in prepared.iter_mut().zip(&s_inverses) {
        let item = &items[p.index];
        let z = Scalar::from_be_bytes_reduced(&item.digest);
        p.u1 = z * *s_inv;
        p.u2 = item.signature.r * *s_inv;
    }

    check_node(&prepared, items, &mut rng, &mut stats, &mut invalid);
    invalid.sort_unstable();
    BatchOutcome { invalid, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdsa::sign_recoverable;
    use crate::sha256::sha256;

    /// A signed batch item for key seed `v` over message `msg`.
    fn item(v: u64, msg: &[u8]) -> BatchItem {
        let d = Scalar::from_u64(v * 7907 + 11);
        let digest = sha256(msg);
        let (signature, recovery) = sign_recoverable(&d, &digest).unwrap();
        BatchItem {
            pubkey: Point::generator().mul(&d),
            digest,
            signature,
            recovery: Some(recovery),
        }
    }

    fn oracle_invalid(items: &[BatchItem]) -> Vec<usize> {
        items
            .iter()
            .enumerate()
            .filter(|(_, it)| !ecdsa::verify(&it.pubkey, &it.digest, &it.signature))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn all_valid_batch_is_one_msm_and_no_oracle() {
        let items: Vec<BatchItem> = (1..17).map(|v| item(v, b"pay")).collect();
        let outcome = verify_batch(&items, 7);
        assert!(outcome.all_valid());
        assert_eq!(outcome.stats.items, 16);
        assert_eq!(outcome.stats.hinted, 16);
        assert_eq!(outcome.stats.msm_evals, 1);
        assert_eq!(outcome.stats.bisections, 0);
        assert_eq!(outcome.stats.oracle_checks, 0);
    }

    #[test]
    fn culprits_are_named_exactly() {
        let mut items: Vec<BatchItem> = (1..13).map(|v| item(v, b"pay")).collect();
        // Corrupt three items three different ways.
        items[2].digest = sha256(b"tampered");
        items[5].signature.s = -items[5].signature.s; // high-S precheck reject
        items[9].pubkey = Point::generator().mul(&Scalar::from_u64(31337));
        let outcome = verify_batch(&items, 42);
        assert_eq!(outcome.invalid, vec![2, 5, 9]);
        assert_eq!(outcome.invalid, oracle_invalid(&items));
        assert!(outcome.stats.bisections > 0);
    }

    #[test]
    fn hostile_hints_cost_time_but_never_verdicts() {
        let honest: Vec<BatchItem> = (1..9).map(|v| item(v, b"pay")).collect();
        let y = |i: usize| honest[i].recovery.unwrap().y;
        let hint = |y, x_overflow| Some(NonceHint { y, x_overflow });
        // Each hint rides on valid signature 1, the rest of the batch honest:
        // (hint, whether the lift accepts it, whether it names the point).
        let hostile = [
            (hint(-y(1), false), true, false), // the other point with this x
            (hint(y(1) + FieldElement::ONE, false), false, false), // off the curve
            (hint(y(2), false), false, false), // another signature's y
            (hint(y(1), true), false, false),  // a spurious overflow claim
            (None, false, false),
            (hint(y(1), false), true, true), // the signer's own
        ];
        for (case, (recovery, lifts, right)) in hostile.into_iter().enumerate() {
            let mut items = honest.clone();
            items[1].recovery = recovery;
            let outcome = verify_batch(&items, 3);
            assert!(outcome.all_valid(), "case {case}");
            assert_eq!(outcome.stats.hinted, 7 + u64::from(lifts), "case {case}");
            // An unusable hint is one oracle check; a usable wrong one
            // bisects down to oracle leaves; the right one costs neither.
            assert_eq!(outcome.stats.oracle_checks == 0, right, "case {case}");
            assert_eq!(outcome.stats.bisections > 0, lifts && !right, "case {case}");

            // The same hint on a signature that is also bad, beside a
            // stale hint on another bad one: culprits are the oracle's.
            items[1].digest = sha256(b"tampered");
            items[6].digest = sha256(b"stale hint");
            let outcome = verify_batch(&items, 3);
            assert_eq!(outcome.invalid, vec![1, 6], "case {case}");
            assert_eq!(outcome.invalid, oracle_invalid(&items), "case {case}");
        }
    }

    #[test]
    fn same_seed_replays_identical_work() {
        let mut items: Vec<BatchItem> = (1..11).map(|v| item(v, b"pay")).collect();
        items[4].digest = sha256(b"bad");
        let a = verify_batch(&items, 99);
        let b = verify_batch(&items, 99);
        assert_eq!(a.invalid, b.invalid);
        assert_eq!(a.stats, b.stats);
        // A different seed may change the work profile, never the verdict.
        let c = verify_batch(&items, 100);
        assert_eq!(a.invalid, c.invalid);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let outcome = verify_batch(&[], 1);
        assert!(outcome.all_valid());
        assert_eq!(outcome.stats.msm_evals, 0);
        // A singleton batch is decided by the oracle directly: the
        // multi-scalar machinery only pays off from `MSM_FLOOR` items.
        let one = [item(5, b"solo")];
        let outcome = verify_batch(&one, 1);
        assert!(outcome.all_valid());
        assert_eq!(outcome.stats.oracle_checks, 1);
        assert_eq!(outcome.stats.msm_evals, 0);
        // So is any batch with fewer hinted items, before any nonce
        // point is lifted for a combination that does not happen.
        let mut three = [item(5, b"a"), item(6, b"b"), item(7, b"c")];
        three[0].recovery = None;
        three[2].recovery = None;
        three[2].digest = sha256(b"tampered");
        let outcome = verify_batch(&three, 1);
        assert_eq!(outcome.invalid, vec![2]);
        assert_eq!(outcome.stats.hinted, 0);
        assert_eq!(outcome.stats.oracle_checks, 3);
        assert_eq!(outcome.stats.msm_evals, 0);
    }

    #[test]
    fn two_same_key_items_go_to_the_oracle_and_three_to_one_combination() {
        // `item(5, ..)` signs with one key, as a shard's customer does.
        let signed = |n: u8| (0..n).map(|i| item(5, &[i])).collect::<Vec<_>>();
        let two = verify_batch(&signed(2), 1);
        assert!(two.all_valid());
        assert_eq!((two.stats.msm_evals, two.stats.oracle_checks), (0, 2));
        let three = verify_batch(&signed(3), 1);
        assert!(three.all_valid());
        assert_eq!((three.stats.msm_evals, three.stats.oracle_checks), (1, 0));
    }

    #[test]
    fn x_overflow_hint_with_ordinary_r_goes_to_oracle_unharmed() {
        // A hostile overflow bit on an ordinary r: `r + n` does not fit the
        // field, or the honest y is off the curve at that other x; either
        // way the oracle path must still return the sequential verdict.
        let mut it = item(8, b"pay");
        it.recovery = it.recovery.map(|hint| NonceHint {
            x_overflow: true,
            ..hint
        });
        let items = [it, item(9, b"pay")];
        let outcome = verify_batch(&items, 5);
        assert_eq!(outcome.invalid, oracle_invalid(&items));
        assert!(outcome.all_valid());
    }
}
