//! Differential equivalence suite: every fast path must equal its retained
//! oracle on the edge cases random draws rarely reach. The wNAF paths
//! (tables, per-key cache, multi-scalar) and the fixed-base comb against
//! the binary double-and-add ladder `Point::mul_binary` on edge and
//! comb-window scalars; the Euclidean inverses against the Fermat ladders
//! on edge bytes; the batch verifier's same-key folding against the
//! per-signature loop; and ECDSA verify verdicts independent of cache
//! state (cold, warm, evicted).
//!
//! The same differentials on random draws are the `crypto` and `batch`
//! engines of `btcfast-audit`.

use btcfast_crypto::batch::{verify_batch, BatchItem};
use btcfast_crypto::ecdsa::{
    self, pubkey_cache_stats, reset_pubkey_cache, Signature, PUBKEY_CACHE_CAPACITY,
};
use btcfast_crypto::field::FieldElement;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::mul_table::{
    generator_mul, msm_wnaf, mul_wnaf, CombTable, KeyTable, OddMultiplesTable, PubkeyTableCache,
    PROMOTE_AT,
};
use btcfast_crypto::oracle::{field_invert_fermat, scalar_invert_fermat, verify_uncached};
use btcfast_crypto::point::{AffinePoint, Point};
use btcfast_crypto::scalar::Scalar;
use btcfast_crypto::sha256::sha256;

/// Serializes a point to comparable bytes (affine x || y, or empty for
/// infinity) so "byte-identical" means exactly that.
fn point_bytes(p: &Point) -> Vec<u8> {
    match p.to_affine() {
        AffinePoint::Infinity => Vec::new(),
        AffinePoint::Coordinates { x, y } => {
            let mut out = Vec::with_capacity(64);
            out.extend_from_slice(&x.to_be_bytes());
            out.extend_from_slice(&y.to_be_bytes());
            out
        }
    }
}

/// The edge scalars the issue calls out: 0, 1, 2, n-1, n-2, powers of two,
/// and all-ones.
fn edge_scalars() -> Vec<Scalar> {
    let mut edges = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(2),
        -Scalar::ONE,                               // n - 1
        -Scalar::from_u64(2),                       // n - 2
        Scalar::from_be_bytes_reduced(&[0xFF; 32]), // all-ones, reduced
    ];
    edges.extend([1usize, 7, 63, 64, 127, 128, 191, 254, 255].map(pow2));
    edges
}

/// `2^k` as a scalar, for `k < 256`.
fn pow2(k: usize) -> Scalar {
    let mut b = [0u8; 32];
    b[31 - k / 8] = 1 << (k % 8);
    Scalar::from_be_bytes_reduced(&b)
}

fn check_mul_equivalence(p: &Point, k: &Scalar) {
    let oracle = point_bytes(&p.mul_binary(k));
    assert_eq!(point_bytes(&p.mul(k)), oracle, "Point::mul vs binary");
    assert_eq!(point_bytes(&mul_wnaf(p, k)), oracle, "mul_wnaf vs binary");
    for width in [2u32, 4, 5, 8] {
        if let Some(table) = OddMultiplesTable::new(p, width) {
            assert_eq!(
                point_bytes(&table.mul(k)),
                oracle,
                "table width {width} vs binary"
            );
        } else {
            assert!(p.is_infinity());
        }
    }
}

#[test]
fn edge_scalars_match_binary_ladder() {
    let g = Point::generator();
    let bases = [
        g,
        g.mul_binary(&Scalar::from_u64(7)),
        g.mul_binary(&-Scalar::ONE),
        Point::INFINITY,
    ];
    for base in &bases {
        for k in edge_scalars() {
            check_mul_equivalence(base, &k);
        }
    }
}

#[test]
fn generator_table_matches_binary_on_edges() {
    let g = Point::generator();
    for k in edge_scalars() {
        assert_eq!(
            point_bytes(&generator_mul(&k)),
            point_bytes(&g.mul_binary(&k)),
            "k = {k:?}"
        );
    }
}

/// Scalars aimed at the comb's signed 5-bit recoding: both sides of every
/// window boundary, the digit where the sign flips (16 stays positive, 17
/// becomes −15 with a carry), a lone all-ones window (−1 with a carry),
/// and runs of all-ones windows that ripple the carry upwards — into the
/// last window too.
fn comb_edge_scalars() -> Vec<Scalar> {
    let mut edges = vec![
        Scalar::ZERO,
        Scalar::ONE,
        -Scalar::ONE,
        -Scalar::from_u64(2),
    ];
    for k in (0..256).step_by(5) {
        let boundary = pow2(k);
        edges.push(boundary);
        edges.push(boundary - Scalar::ONE);
        edges.push(boundary + Scalar::ONE);
        for digit in [15u64, 16, 17, 31] {
            edges.push(boundary * Scalar::from_u64(digit));
        }
        // Ones from bit k up to bit 254: every window above k is all-ones.
        edges.push(pow2(255) - boundary);
    }
    for run in [10, 50, 125, 250] {
        edges.push(pow2(run) - Scalar::ONE);
        edges.push((pow2(run) - Scalar::ONE) * pow2(5));
    }
    edges
}

#[test]
fn comb_matches_binary_on_window_edges() {
    let g = Point::generator();
    for k in comb_edge_scalars() {
        assert_eq!(
            point_bytes(&generator_mul(&k)),
            point_bytes(&g.mul_binary(&k)),
            "k = {k:?}"
        );
    }
    // The same comb on other bases, as a promoted key gets one.
    for base_k in [Scalar::from_u64(7), -Scalar::ONE] {
        let base = g.mul_binary(&base_k);
        let comb = CombTable::new(&base).expect("finite point");
        for k in comb_edge_scalars() {
            assert_eq!(
                point_bytes(&comb.mul(&k)),
                point_bytes(&base.mul_binary(&k)),
                "base_k = {base_k:?}, k = {k:?}"
            );
        }
    }
    assert!(CombTable::new(&Point::INFINITY).is_none());
}

/// Field and scalar values where a Euclidean inverse is most likely to
/// slip: the ends of the range, a lone high bit, and long runs of zeros.
fn inverse_edge_bytes() -> Vec<[u8; 32]> {
    let mut edges = vec![[0xFF; 32], [0x55; 32]];
    for k in [
        0usize, 1, 61, 62, 63, 64, 123, 124, 125, 186, 187, 248, 254, 255,
    ] {
        let mut b = [0u8; 32];
        b[31 - k / 8] = 1 << (k % 8);
        edges.push(b); // 2^k: zeros all the way down
        b[31] |= 1;
        edges.push(b); // 2^k + 1: zeros in between
    }
    edges
}

#[test]
fn inverses_match_the_fermat_oracles_on_edges() {
    for bytes in inverse_edge_bytes() {
        let s = Scalar::from_be_bytes_reduced(&bytes);
        let f = FieldElement::from_be_bytes_reduced(&bytes);
        for (s, f) in [(s, f), (-s, -f)] {
            assert_eq!(s.invert(), scalar_invert_fermat(s), "scalar {s:?}");
            assert_eq!(f.invert(), field_invert_fermat(f), "field {f:?}");
        }
    }
    // 1 and m − 1 are their own inverses.
    assert_eq!(Scalar::ONE.invert(), Scalar::ONE);
    assert_eq!((-Scalar::ONE).invert(), -Scalar::ONE);
    assert_eq!(FieldElement::ONE.invert(), FieldElement::ONE);
    assert_eq!((-FieldElement::ONE).invert(), -FieldElement::ONE);
}

#[test]
#[should_panic(expected = "zero has no multiplicative inverse")]
fn scalar_inverse_of_zero_still_panics() {
    let _ = Scalar::ZERO.invert();
}

#[test]
#[should_panic(expected = "zero has no multiplicative inverse")]
fn field_inverse_of_zero_still_panics() {
    let _ = FieldElement::ZERO.invert();
}

#[test]
fn cached_tables_match_binary_on_edges() {
    let mut cache = PubkeyTableCache::new(4);
    let q = Point::generator().mul_binary(&Scalar::from_u64(31337));
    let mut id = [0u8; 33];
    id[0] = 0x02;
    // Twice over the edges: the key is promoted to a comb on the way.
    let mut served = [0; 2];
    for k in edge_scalars().iter().chain(&edge_scalars()) {
        let table = cache.get_or_build(&id, &q).expect("finite point");
        served[usize::from(matches!(table, KeyTable::Comb(_)))] += 1;
        for a in [Scalar::ZERO, *k] {
            assert_eq!(
                point_bytes(&table.lincomb(&a, k)),
                point_bytes(&Point::generator().mul_binary(&a).add(&q.mul_binary(k))),
                "a = {a:?}, k = {k:?}"
            );
        }
    }
    // All lookups after the first were hits; the table did not degrade.
    assert_eq!(cache.stats().misses, 1);
    assert!(cache.stats().hits >= 1);
    assert_eq!(cache.stats().promotions, 1);
    assert_eq!(
        served[0],
        PROMOTE_AT as usize - 1,
        "wNAF lookups before the comb"
    );
}

#[test]
fn lincomb_matches_binary_composition_on_edges() {
    let g = Point::generator();
    let q = g.mul_binary(&Scalar::from_u64(424242));
    for a in edge_scalars() {
        for b in [Scalar::ZERO, Scalar::ONE, -Scalar::ONE] {
            let fast = Point::lincomb(&a, &b, &q);
            let slow = g.mul_binary(&a).add(&q.mul_binary(&b));
            assert_eq!(point_bytes(&fast), point_bytes(&slow), "a={a:?} b={b:?}");
        }
    }
}

/// Runs one verify with the cache cold, one warm, one after forced
/// eviction, plus the explicitly uncached path, and demands a single
/// verdict from all four.
fn verdict_all_cache_states(kp: &KeyPair, digest: &[u8; 32], sig: &Signature) -> bool {
    reset_pubkey_cache();
    let cold = kp.public().verify(digest, sig);
    // Signatures rejected by the cheap prechecks (zero/high-S) never reach
    // the cache; everything else must have built exactly one table.
    let reached_cache = pubkey_cache_stats().misses == 1;
    let warm = kp.public().verify(digest, sig);
    if reached_cache {
        assert!(pubkey_cache_stats().hits >= 1, "second verify hits");
    }
    // Churn the cache past capacity with other keys to evict ours.
    for i in 0..PUBKEY_CACHE_CAPACITY + 1 {
        let other = KeyPair::from_seed(&(i as u64).to_le_bytes());
        let d = sha256(b"churn");
        let s = other.sign(&d);
        other.public().verify(&d, &s);
    }
    let evicted = kp.public().verify(digest, sig);
    if reached_cache {
        assert!(pubkey_cache_stats().evictions >= 1, "churn evicted entries");
    }
    let uncached = verify_uncached(kp.public().point(), digest, sig);
    assert_eq!(cold, warm, "cold vs warm");
    assert_eq!(cold, evicted, "cold vs evicted");
    assert_eq!(cold, uncached, "cached vs uncached");
    cold
}

#[test]
fn verify_verdict_independent_of_cache_state_valid_sig() {
    let kp = KeyPair::from_seed(b"cache-state-valid");
    let digest = sha256(b"pay 1 BTC");
    let sig = kp.sign(&digest);
    assert!(verdict_all_cache_states(&kp, &digest, &sig));
}

#[test]
fn verify_verdict_independent_of_cache_state_invalid_sig() {
    let kp = KeyPair::from_seed(b"cache-state-invalid");
    let digest = sha256(b"pay 1 BTC");
    let sig = kp.sign(&digest);
    // Tampered digest must fail in every cache state.
    let tampered = sha256(b"pay 2 BTC");
    assert!(!verdict_all_cache_states(&kp, &tampered, &sig));
    // High-S must fail in every cache state.
    let high_s = Signature {
        r: sig.r,
        s: -sig.s,
    };
    assert!(!verdict_all_cache_states(&kp, &digest, &high_s));
}

/// One key verified across the promotion count, evicted, and promoted
/// again: at every lookup, valid, high-S, zero-component and wrong-digest
/// signatures get exactly `verify_uncached`'s verdict, from the wNAF
/// table and from the comb alike.
#[test]
fn verdicts_hold_across_promotion_eviction_and_repromotion() {
    reset_pubkey_cache();
    let kp = KeyPair::from_seed(b"returning customer");
    let q = kp.public().point();
    let digest = sha256(b"coffee");
    let sig = kp.sign(&digest);
    let cases = [
        (digest, sig, true),
        (
            digest,
            Signature {
                r: sig.r,
                s: -sig.s,
            },
            false,
        ),
        (
            digest,
            Signature {
                r: Scalar::ZERO,
                s: sig.s,
            },
            false,
        ),
        (
            digest,
            Signature {
                r: sig.r,
                s: Scalar::ZERO,
            },
            false,
        ),
        (sha256(b"tea"), sig, false),
    ];
    for round in 1..=2u64 {
        // Valid and wrong-digest signatures reach the cache: two lookups
        // per pass, so the comb serves the second half of the passes.
        for pass in 0..PROMOTE_AT {
            for (i, (d, candidate, valid)) in cases.iter().enumerate() {
                let verdict = ecdsa::verify(q, d, candidate);
                assert_eq!(verdict, *valid, "round {round} pass {pass} case {i}");
                assert_eq!(verdict, verify_uncached(q, d, candidate));
            }
        }
        assert_eq!(pubkey_cache_stats().promotions, round, "round {round}");
        // Evict the key: one verify each of more keys than the cache holds.
        let evictions = pubkey_cache_stats().evictions;
        for i in 0..PUBKEY_CACHE_CAPACITY {
            let other = KeyPair::from_seed(&[b'e', round as u8, i as u8]);
            let s = other.sign(&digest);
            assert!(ecdsa::verify(other.public().point(), &digest, &s));
        }
        assert!(pubkey_cache_stats().evictions > evictions, "round {round}");
    }
    assert_eq!(
        pubkey_cache_stats().promotions,
        2,
        "the churn keys stay cold"
    );
}

/// An off-curve key — here one sharing an honest key's compressed cache
/// identity — verified well past the promotion count never reaches the
/// cache, so it is never promoted and cannot displace the honest comb.
#[test]
fn off_curve_keys_are_never_promoted() {
    reset_pubkey_cache();
    let kp = KeyPair::from_seed(b"promoted honest key");
    let digest = sha256(b"pay");
    let sig = kp.sign(&digest);
    for _ in 0..PROMOTE_AT {
        assert!(kp.public().verify(&digest, &sig));
    }
    let warm = pubkey_cache_stats();
    assert_eq!(warm.promotions, 1);
    let AffinePoint::Coordinates { x, y } = kp.public().point().to_affine() else {
        panic!("finite key");
    };
    let forged = Point::from_affine(x, y + FieldElement::from_u64(4));
    assert!(!forged.is_on_curve());
    for _ in 0..2 * PROMOTE_AT {
        assert!(!ecdsa::verify(&forged, &digest, &sig));
        assert!(!verify_uncached(&forged, &digest, &sig));
    }
    assert_eq!(pubkey_cache_stats(), warm);
    assert!(kp.public().verify(&digest, &sig));
}

/// The hostile cached-vs-uncached differential the batch-verification
/// issue calls out: both entry points must agree (verdict *and* cache
/// behavior) on inputs chosen to stress their divergence surface —
/// off-curve and identity public keys, components at `n − 1`, digests
/// whose integer value exceeds `n`, and eviction churn mid-stream.
mod hostile_verify_divergence {
    use super::*;

    /// Asserts both paths return the same verdict and returns it.
    fn agree(q: &Point, digest: &[u8; 32], sig: &Signature) -> bool {
        let cached = ecdsa::verify(q, digest, sig);
        let uncached = verify_uncached(q, digest, sig);
        assert_eq!(cached, uncached, "cached vs uncached divergence");
        cached
    }

    /// The cache-poisoning shape `verify` had to be hardened against:
    /// an off-curve point sharing a cached honest key's `(parity, x)`
    /// compressed identity. Before the on-curve precheck, the cached path
    /// borrowed the honest key's table (verdict `true`) while the uncached
    /// path computed on the garbage point (verdict `false`).
    #[test]
    fn off_curve_point_cannot_borrow_a_cached_table() {
        reset_pubkey_cache();
        let kp = KeyPair::from_seed(b"poison-target");
        let digest = sha256(b"pay 1 BTC");
        let sig = kp.sign(&digest);
        // Warm the cache with the honest key.
        assert!(kp.public().verify(&digest, &sig));
        let warm_stats = pubkey_cache_stats();

        let AffinePoint::Coordinates { x, y } = kp.public().point().to_affine() else {
            panic!("finite key");
        };
        // Same x; y replaced by another element of the same parity. Only
        // ±y lift x onto the curve and they differ in parity (p is odd),
        // so every same-parity y' != y is off-curve — yet it compresses
        // to the honest key's exact cache identity.
        let forged_y = y + FieldElement::from_u64(4);
        let forged = Point::from_affine(x, forged_y);
        assert!(!forged.is_on_curve());
        assert_eq!(forged_y.is_odd(), y.is_odd());

        assert!(!agree(&forged, &digest, &sig), "forged key must fail");
        // The rejection happens before any table lookup: stats unchanged,
        // so the forged point neither borrowed nor displaced an entry.
        assert_eq!(pubkey_cache_stats(), warm_stats);
        // And the honest key's cached verdict is intact.
        assert!(kp.public().verify(&digest, &sig));
    }

    #[test]
    fn identity_and_off_curve_keys_reject_on_both_paths() {
        let kp = KeyPair::from_seed(b"hostile-keys");
        let digest = sha256(b"msg");
        let sig = kp.sign(&digest);
        assert!(!agree(&Point::INFINITY, &digest, &sig));
        // A point nowhere near the curve.
        let junk = Point::from_affine(FieldElement::from_u64(5), FieldElement::from_u64(9));
        assert!(!junk.is_on_curve());
        assert!(!agree(&junk, &digest, &sig));
    }

    #[test]
    fn components_at_group_order_boundary() {
        let kp = KeyPair::from_seed(b"boundary");
        let q = kp.public().point();
        let digest = sha256(b"msg");
        let sig = kp.sign(&digest);
        let n_minus_1 = -Scalar::ONE;
        // r = n-1 (valid range, almost surely wrong), s = n-1 (high),
        // and both at once: verdicts must agree everywhere.
        assert!(!agree(
            q,
            &digest,
            &Signature {
                r: n_minus_1,
                s: sig.s
            }
        ));
        assert!(!agree(
            q,
            &digest,
            &Signature {
                r: sig.r,
                s: n_minus_1
            }
        ));
        assert!(!agree(
            q,
            &digest,
            &Signature {
                r: n_minus_1,
                s: n_minus_1
            }
        ));
    }

    #[test]
    fn digests_at_and_above_the_group_order() {
        let kp = KeyPair::from_seed(b"big-digests");
        let q = kp.public().point();
        let sig = kp.sign(&sha256(b"anchor"));
        // n, n+1, all-ones: digests that reduce mod n before use. Both
        // paths must reduce identically.
        let n_bytes = {
            let mut b = (-Scalar::ONE).to_be_bytes();
            // n = (n-1) + 1; the last byte of n-1 is 0x40, no carry.
            b[31] += 1;
            b
        };
        let mut n_plus_1 = n_bytes;
        n_plus_1[31] += 1;
        for digest in [n_bytes, n_plus_1, [0xFF; 32], [0u8; 32]] {
            agree(q, &digest, &sig);
        }
        // A signature that is *valid* for an over-order digest's reduced
        // form must verify on both paths when presented with that digest.
        let reduced = Scalar::from_be_bytes_reduced(&[0xFF; 32]).to_be_bytes();
        let sig_big = kp.sign(&reduced);
        assert!(agree(q, &reduced, &sig_big));
    }

    /// Interleaves verifies of one key with enough one-shot keys to force
    /// eviction churn mid-stream; the tracked key's verdict must be stable
    /// through hit, miss, and rebuild states.
    #[test]
    fn verdicts_stable_under_eviction_churn() {
        reset_pubkey_cache();
        let kp = KeyPair::from_seed(b"churn-victim");
        let digest = sha256(b"pay");
        let good = kp.sign(&digest);
        let bad = Signature {
            r: good.r,
            s: good.s + Scalar::ONE,
        };
        for round in 0..3 {
            assert!(agree(kp.public().point(), &digest, &good), "round {round}");
            assert!(!agree(kp.public().point(), &digest, &bad), "round {round}");
            for i in 0..PUBKEY_CACHE_CAPACITY + 1 {
                let churn = KeyPair::from_seed(&[round as u8, i as u8, 0xC4]);
                let d = sha256(&[i as u8]);
                let s = churn.sign(&d);
                assert!(agree(churn.public().point(), &d, &s));
            }
        }
        assert!(pubkey_cache_stats().evictions > 0, "churn actually evicted");
    }
}

/// Folds the multi-scalar terms through the binary-ladder oracle.
fn msm_oracle(terms: &[(Scalar, Point)]) -> Point {
    terms
        .iter()
        .fold(Point::INFINITY, |acc, (k, p)| acc.add(&p.mul_binary(k)))
}

#[test]
fn msm_matches_oracle_on_edge_scalars() {
    let g = Point::generator();
    let bases = [
        g,
        g.mul_binary(&Scalar::from_u64(7)),
        g.mul_binary(&-Scalar::ONE),
        Point::INFINITY,
    ];
    // Pair every edge scalar (covering both GLV split shapes: tiny k2,
    // negated components, 2^k splits) with a rotating base.
    let terms: Vec<(Scalar, Point)> = edge_scalars()
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, bases[i % bases.len()]))
        .collect();
    let fast = msm_wnaf(&terms);
    let slow = msm_oracle(&terms);
    assert_eq!(point_bytes(&fast), point_bytes(&slow));
    // Every prefix too, so no single term's stream misaligns the ladder.
    for len in 0..terms.len() {
        let fast = msm_wnaf(&terms[..len]);
        let slow = msm_oracle(&terms[..len]);
        assert_eq!(point_bytes(&fast), point_bytes(&slow), "prefix {len}");
    }
}

#[test]
fn msm_duplicate_points_and_cancellations() {
    let p = Point::generator().mul_binary(&Scalar::from_u64(555));
    let k = Scalar::from_be_bytes_reduced(&[0x77; 32]);
    // Duplicate bases, explicit zero scalars, and an exact cancellation.
    let terms = [
        (k, p),
        (Scalar::ZERO, p),
        (k, p),
        (-k, p),
        (Scalar::ZERO, Point::generator()),
    ];
    assert_eq!(
        point_bytes(&msm_wnaf(&terms)),
        point_bytes(&msm_oracle(&terms))
    );
    assert!(msm_wnaf(&[(k, p), (-k, p)]).is_infinity());
}

/// Same-key folding in the batch verifier: items signed by one key share
/// one `Q` term per combination, and the verdicts must stay exactly the
/// per-signature loop's.
mod folded_batches {
    use super::*;

    fn item(kp: &KeyPair, msg: u64) -> BatchItem {
        let digest = sha256(&msg.to_le_bytes());
        let (signature, recovery) = kp.sign_recoverable(&digest);
        BatchItem {
            pubkey: *kp.public().point(),
            digest,
            signature,
            recovery: Some(recovery),
        }
    }

    fn oracle_invalid(items: &[BatchItem]) -> Vec<usize> {
        (0..items.len())
            .filter(|&i| !ecdsa::verify(&items[i].pubkey, &items[i].digest, &items[i].signature))
            .collect()
    }

    #[test]
    fn eight_items_from_one_key_cost_one_combination() {
        let kp = KeyPair::from_seed(b"one customer");
        let items: Vec<BatchItem> = (0..8).map(|n| item(&kp, n)).collect();
        let outcome = verify_batch(&items, 1);
        assert!(outcome.all_valid());
        assert_eq!(outcome.stats.hinted, 8);
        assert_eq!(outcome.stats.msm_evals, 1);
        assert_eq!(outcome.stats.oracle_checks, 0);
    }

    #[test]
    fn one_tampered_item_among_eight_same_key_items_is_named_exactly() {
        let kp = KeyPair::from_seed(b"one customer");
        for bad in 0..8 {
            let mut items: Vec<BatchItem> = (0..8).map(|n| item(&kp, n)).collect();
            items[bad].digest = sha256(b"tampered");
            for seed in [3, 4] {
                let outcome = verify_batch(&items, seed);
                assert_eq!(outcome.invalid, vec![bad], "seed {seed}");
                assert!(outcome.stats.bisections > 0);
            }
        }
    }

    #[test]
    fn duplicated_items_are_judged_independently() {
        let kp = KeyPair::from_seed(b"one customer");
        let good = item(&kp, 1);
        let mut bad = item(&kp, 2);
        bad.signature.s = bad.signature.s + Scalar::ONE;
        // The same statement three times, and the same bad one twice.
        let items = [good, bad, good, good, bad];
        let outcome = verify_batch(&items, 9);
        assert_eq!(outcome.invalid, vec![1, 4]);
        assert_eq!(outcome.invalid, oracle_invalid(&items));
        assert!(verify_batch(&[good, good, good], 9).all_valid());
    }

    #[test]
    fn two_keys_interleaved_fold_per_key() {
        let a = KeyPair::from_seed(b"customer a");
        let b = KeyPair::from_seed(b"customer b");
        let build = || -> Vec<BatchItem> {
            (0..10)
                .map(|n| item(if n % 2 == 0 { &a } else { &b }, n))
                .collect()
        };
        assert!(verify_batch(&build(), 5).all_valid());
        // A signature presented under the other key of the pair.
        let mut items = build();
        items[3].pubkey = *a.public().point();
        items[6].pubkey = *b.public().point();
        let outcome = verify_batch(&items, 5);
        assert_eq!(outcome.invalid, vec![3, 6]);
        assert_eq!(outcome.invalid, oracle_invalid(&items));
    }

    /// The same key handed over in two representations — the affine lift
    /// and a Jacobian point with `Z ≠ 1` — is still one key.
    #[test]
    fn one_key_in_two_representations_folds_and_verifies() {
        let kp = KeyPair::from_seed(b"one customer");
        let d = *kp.secret().scalar();
        let mut items: Vec<BatchItem> = (0..4).map(|n| item(&kp, n)).collect();
        let jacobian = Point::generator().mul_binary(&d);
        assert_eq!(jacobian, items[0].pubkey);
        items[1].pubkey = jacobian;
        items[2].pubkey = jacobian;
        assert!(verify_batch(&items, 2).all_valid());
        items[2].digest = sha256(b"tampered");
        assert_eq!(verify_batch(&items, 2).invalid, vec![2]);
    }
}

/// The verify entry points agree with a from-first-principles verifier
/// that uses only the binary ladder — the strongest end-to-end oracle.
#[test]
fn verify_matches_binary_ladder_reference() {
    fn reference_verify(q: &Point, digest: &[u8; 32], sig: &Signature) -> bool {
        if sig.r.is_zero() || sig.s.is_zero() || sig.s.is_high() || q.is_infinity() {
            return false;
        }
        let z = Scalar::from_be_bytes_reduced(digest);
        let s_inv = sig.s.invert();
        let u1 = z * s_inv;
        let u2 = sig.r * s_inv;
        let g = Point::generator();
        let point = g.mul_binary(&u1).add(&q.mul_binary(&u2));
        match point.to_affine() {
            AffinePoint::Infinity => false,
            AffinePoint::Coordinates { x, .. } => {
                Scalar::from_be_bytes_reduced(&x.to_be_bytes()) == sig.r
            }
        }
    }

    for seed in 0u64..8 {
        let kp = KeyPair::from_seed(&seed.to_le_bytes());
        let digest = sha256(&seed.to_be_bytes());
        let sig = kp.sign(&digest);
        let q = kp.public().point();
        // Valid signature and a few corruptions, checked against reference.
        let cases = [
            sig,
            Signature {
                r: sig.r,
                s: -sig.s,
            },
            Signature {
                r: -sig.r,
                s: sig.s,
            },
            Signature { r: sig.s, s: sig.r },
        ];
        for (i, candidate) in cases.iter().enumerate() {
            let expected = reference_verify(q, &digest, candidate);
            assert_eq!(
                ecdsa::verify(q, &digest, candidate),
                expected,
                "seed {seed} case {i} cached"
            );
            assert_eq!(
                verify_uncached(q, &digest, candidate),
                expected,
                "seed {seed} case {i} uncached"
            );
        }
    }
}
