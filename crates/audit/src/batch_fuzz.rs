//! `batch` engine: the randomized batch ECDSA verifier
//! (`btcfast_crypto::batch`) differentially checked against the
//! per-signature oracle under hostile mutations.
//!
//! The verifier's contract is verdict exactness: for *any* input batch —
//! honest, corrupted, or adversarially hinted — the invalid set must equal
//! exactly the indices a sequential `ecdsa::verify` loop would reject.
//! Randomizers, the single-MSM fast path, culprit bisection, and recovery
//! hints may only ever change cost, never a verdict. This target builds
//! fuzzed batches whose items are individually mutated (tampered digests,
//! high-S, zero components, wrong/off-curve keys, negated/off-curve/foreign/
//! dropped/stale hints, duplicates) and fails on any divergence — including
//! on the randomizer seed, which must not influence the verdict.

use crate::source::ByteSource;
use btcfast_crypto::batch::{verify_batch, BatchItem};
use btcfast_crypto::ecdsa::{self, NonceHint};
use btcfast_crypto::field::FieldElement;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::point::{AffinePoint, Point};
use btcfast_crypto::scalar::Scalar;

/// Draws one batch item: an honest signature put through a fuzz-chosen
/// mutation. Returns the item; validity is decided later by the oracle,
/// never assumed from the mutation (some mutations are no-ops on some
/// draws, e.g. a zeroed digest byte that was already zero).
///
/// Keys come from a pool of three per case, so most batches hold several
/// signatures under one key and reach the verifier's same-key folding.
fn draw_item(src: &mut ByteSource, pool: &[u8]) -> BatchItem {
    let pooled = |pick: usize| KeyPair::from_seed(&[pool, &[pick as u8]].concat());
    let pick = src.choice(3);
    let kp = pooled(pick);
    let mut digest = [0u8; 32];
    src.fill(&mut digest);
    let (signature, recovery) = kp.sign_recoverable(&digest);
    let mut item = BatchItem {
        pubkey: *kp.public().point(),
        digest,
        signature,
        recovery: Some(recovery),
    };
    match src.choice(10) {
        0 | 1 => {}                // honest, hinted (the accept-path common case)
        2 => item.recovery = None, // honest, unhinted → oracle fallback
        3 => item.digest[src.choice(32)] ^= 1 + src.u8() % 255,
        4 => item.signature.s = -item.signature.s, // high-S
        5 => {
            // Zero component: precheck rejection on both paths.
            if src.bool() {
                item.signature.r = Scalar::ZERO;
            } else {
                item.signature.s = Scalar::ZERO;
            }
        }
        6 => {
            // Wrong key — with the *original* key's hint riding along
            // (a stale hint naming a nonce point that can't satisfy the
            // wrong key's equation). The wrong key is another of the pool,
            // so the item lands in that key's folded term.
            let wrong = pooled((pick + 1) % 3);
            item.pubkey = *wrong.public().point();
        }
        7 => {
            // Hostile hint on an honest signature: the other point with this
            // x, one off the curve, another signature's y, a spurious
            // overflow claim, or several. Must cost time, never a verdict.
            let y = match src.choice(4) {
                0 => -recovery.y,
                1 => recovery.y + FieldElement::ONE,
                2 => kp.sign_recoverable(&signature.r.to_be_bytes()).1.y,
                _ => recovery.y,
            };
            let x_overflow = src.bool();
            item.recovery = Some(NonceHint { y, x_overflow });
        }
        8 => {
            // Off-curve "public key": nudge y off the curve. Both the
            // batch path and the oracle must reject it outright.
            if let AffinePoint::Coordinates { x, y } = item.pubkey.to_affine() {
                item.pubkey = Point::from_affine(x, y + FieldElement::from_u64(1));
            }
        }
        _ => item.pubkey = Point::INFINITY,
    }
    item
}

/// Differential: `verify_batch`'s invalid set must equal the sequential
/// per-signature oracle's, for any batch and any randomizer seed.
pub fn diff_batch_verify(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let n = 1 + src.choice(12);
    let pool = src.bytes(8);
    let mut items: Vec<BatchItem> = (0..n).map(|_| draw_item(&mut src, &pool)).collect();
    // Duplicates stress the MSM's shared-table path: the same statement
    // (or the same key under different digests) at two indices must be
    // judged independently.
    if src.bool() && !items.is_empty() {
        let dup = items[src.choice(items.len())];
        items.push(dup);
    }

    let expected: Vec<usize> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| !ecdsa::verify(&it.pubkey, &it.digest, &it.signature))
        .map(|(i, _)| i)
        .collect();

    let seed = src.u64();
    let outcome = verify_batch(&items, seed);
    if outcome.invalid != expected {
        return Err(format!(
            "batch verdict diverges from the oracle: batch={:?} oracle={expected:?} seed={seed}",
            outcome.invalid
        ));
    }
    if outcome.stats.items != items.len() as u64 {
        return Err(format!(
            "stats.items={} but {} items were submitted",
            outcome.stats.items,
            items.len()
        ));
    }
    // The verdict must also be seed-independent: a second seed may change
    // the work profile (randomizers, bisection shape), never the answer.
    let other = verify_batch(&items, seed ^ 0xD1FF_5EED);
    if other.invalid != expected {
        return Err(format!(
            "batch verdict depends on the randomizer seed: {:?} vs {expected:?}",
            other.invalid
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn targets_accept_arbitrary_seeds() {
        crate::tests::assert_clean_at_depth(crate::Engine::Batch);
    }
}
