//! The off-chain accelerated evidence verifier: an LRU memo of
//! already-verified header-segment prefixes in front of the sequential PoW
//! check.
//!
//! The dispute hot path re-verifies the same header runs over and over:
//! overlapping disputes share an anchor, and tip-extension evidence is the
//! previous segment plus a few new headers. [`EvidenceVerifier`] caches
//! successfully verified segments in an LRU keyed by
//! `(anchor, tip_hash, len, min_target)`: a re-submission is a cache hit
//! (no hashing at all); a tip extension only verifies the new delta
//! headers.
//!
//! Entries additionally pin the exact serialized header bytes, and lookups
//! compare them, so a forged segment that collides on `(anchor, tip, len)`
//! but differs anywhere in the middle can never borrow a cached verdict:
//! the verifier's result is **byte-identical** to the sequential cold
//! verifier ([`HeaderSegment::verify`]) for every input — same `Ok` work,
//! same first error, same error index. `cache_equivalence.rs` proves this
//! by property test.
//!
//! This is strictly a client/merchant-side accelerator. The on-chain
//! contract path charges full gas for every header regardless of any
//! cache (see [`crate::evidence::verify_on_chain_with`]): gas meters the
//! work an L1 validator would do, not the work our optimized client did.

use btcfast_btcsim::pow::hash_meets_target;
use btcfast_btcsim::spv::{HeaderSegment, SpvError, SpvEvidence};
use btcfast_btcsim::u256::U256;
use btcfast_crypto::batch::{verify_batch, BatchItem, BatchOutcome, BatchStats};
use btcfast_crypto::Hash256;
use std::collections::HashMap;
use std::sync::Mutex;

/// Serialized size of one [`btcfast_btcsim::block::BlockHeader`].
const HEADER_BYTES: usize = 88;

/// Tuning knobs for [`EvidenceVerifier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Maximum number of memoized segments before LRU eviction.
    pub cache_capacity: usize,
}

impl Default for VerifierConfig {
    fn default() -> VerifierConfig {
        VerifierConfig {
            cache_capacity: 128,
        }
    }
}

/// Counters describing how the memo behaved (observability + tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full-segment hits: verification answered without hashing anything.
    pub full_hits: u64,
    /// Prefix hits: only the tip-extension delta was verified.
    pub prefix_hits: u64,
    /// Cold verifications (no reusable prefix).
    pub misses: u64,
    /// Successful verifications stored.
    pub insertions: u64,
    /// Entries dropped by the LRU policy.
    pub evictions: u64,
    /// Headers actually PoW-verified (cache hits skip these). Saturating.
    pub headers_verified: u64,
}

/// One memoized verified segment.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// Hash of the last header — the `(anchor, tip_hash, len)` identity.
    tip: Hash256,
    /// The exact serialized headers, pinned so lookups are byte-exact.
    bytes: Box<[u8]>,
    /// Accumulated work of the verified segment.
    work: U256,
    /// LRU timestamp (monotonic use counter).
    stamp: u64,
}

/// Buckets share `(anchor, header count, min_target)`; entries inside a
/// bucket are distinguished by their bytes (equivalently, their tip hash).
type BucketKey = (Hash256, u32, [u8; 32]);

#[derive(Debug, Default)]
struct SegmentCache {
    buckets: HashMap<BucketKey, Vec<CacheEntry>>,
    len: usize,
    clock: u64,
    stats: CacheStats,
}

impl SegmentCache {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Full-segment lookup: the cached bytes must equal `encoded` exactly.
    fn lookup_full(&mut self, key: &BucketKey, encoded: &[u8]) -> Option<U256> {
        let stamp = self.tick();
        let entry = self
            .buckets
            .get_mut(key)?
            .iter_mut()
            .find(|e| e.bytes.as_ref() == encoded)?;
        entry.stamp = stamp;
        Some(entry.work)
    }

    /// Longest memoized proper prefix of `encoded` under the same anchor
    /// and min-target. Returns `(prefix_len_headers, work, tip)`.
    fn lookup_prefix(
        &mut self,
        anchor: &Hash256,
        min_target: &[u8; 32],
        encoded: &[u8],
    ) -> Option<(usize, U256, Hash256)> {
        let n = encoded.len() / HEADER_BYTES;
        for prefix in (1..n).rev() {
            let key = (*anchor, prefix as u32, *min_target);
            let Some(bucket) = self.buckets.get_mut(&key) else {
                continue;
            };
            if let Some(entry) = bucket
                .iter_mut()
                .find(|e| e.bytes.as_ref() == &encoded[..prefix * HEADER_BYTES])
            {
                let found = (prefix, entry.work, entry.tip);
                entry.stamp = self.clock + 1;
                self.clock += 1;
                return Some(found);
            }
        }
        None
    }

    fn insert(&mut self, key: BucketKey, tip: Hash256, bytes: Box<[u8]>, work: U256, cap: usize) {
        let stamp = self.tick();
        let bucket = self.buckets.entry(key).or_default();
        if let Some(existing) = bucket.iter_mut().find(|e| e.bytes == bytes) {
            existing.stamp = stamp;
            return;
        }
        bucket.push(CacheEntry {
            tip,
            bytes,
            work,
            stamp,
        });
        self.len += 1;
        self.stats.insertions += 1;
        while self.len > cap {
            self.evict_oldest();
        }
    }

    fn evict_oldest(&mut self) {
        let Some((key, pos)) = self
            .buckets
            .iter()
            .flat_map(|(key, bucket)| {
                bucket
                    .iter()
                    .enumerate()
                    .map(move |(pos, e)| (e.stamp, (*key, pos)))
            })
            .min_by_key(|(stamp, _)| *stamp)
            .map(|(_, loc)| loc)
        else {
            return;
        };
        let bucket = self.buckets.get_mut(&key).expect("located above");
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
        self.len -= 1;
        self.stats.evictions += 1;
    }
}

/// The accelerated (memoizing) evidence verifier.
///
/// Thread-safe behind `&self`; share one per role (merchant, customer) so
/// every dispute in a session warms the same memo.
#[derive(Debug)]
pub struct EvidenceVerifier {
    cache: Mutex<SegmentCache>,
    capacity: usize,
    /// Accumulated batch-ECDSA counters across every
    /// [`Self::verify_signature_batch`] call (any thread).
    sig_batch: Mutex<BatchStats>,
}

impl Default for EvidenceVerifier {
    fn default() -> EvidenceVerifier {
        EvidenceVerifier::new(VerifierConfig::default())
    }
}

impl EvidenceVerifier {
    /// Builds a verifier with the given tuning.
    pub fn new(config: VerifierConfig) -> EvidenceVerifier {
        EvidenceVerifier {
            cache: Mutex::new(SegmentCache::default()),
            capacity: config.cache_capacity.max(1),
            sig_batch: Mutex::new(BatchStats::default()),
        }
    }

    /// Verifies a batch of ECDSA signature statements with the randomized
    /// linear-combination verifier (`btcfast_crypto::batch`), accumulating
    /// its work counters for [`Self::sig_batch_stats`].
    ///
    /// The verdict — valid set and named culprits — is exactly what a
    /// sequential `ecdsa::verify` loop over `items` would produce; only the
    /// cost differs. `seed` drives the deterministic randomizer stream, so
    /// the same `(items, seed)` pair replays identical work.
    pub fn verify_signature_batch(&self, items: &[BatchItem], seed: u64) -> BatchOutcome {
        let outcome = verify_batch(items, seed);
        self.sig_batch
            .lock()
            .expect("sig batch stats poisoned")
            .absorb(&outcome.stats);
        outcome
    }

    /// Accumulated batch-ECDSA counters since construction.
    pub fn sig_batch_stats(&self) -> BatchStats {
        *self.sig_batch.lock().expect("sig batch stats poisoned")
    }

    /// A snapshot of the memo counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache poisoned").stats
    }

    /// Drops every memoized segment (counters survive).
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().expect("cache poisoned");
        cache.buckets.clear();
        cache.len = 0;
    }

    /// Verifies a header segment, byte-equivalently to
    /// [`HeaderSegment::verify`]: the memo answers what it has seen, and
    /// the rest goes through the reference's per-header checks in the
    /// reference's order.
    ///
    /// # Errors
    ///
    /// Exactly the [`SpvError`] the sequential verifier would return.
    pub fn verify_segment(
        &self,
        segment: &HeaderSegment,
        min_target: &U256,
    ) -> Result<U256, SpvError> {
        if segment.headers.is_empty() {
            return Err(SpvError::EmptySegment);
        }
        if segment.headers[0].prev_hash != segment.anchor {
            return Err(SpvError::AnchorMismatch);
        }
        let n = segment.headers.len();
        let mut encoded = Vec::with_capacity(n * HEADER_BYTES);
        for header in &segment.headers {
            encoded.extend_from_slice(&header.encode());
        }
        let min_target_bytes = min_target.to_be_bytes();
        let full_key = (segment.anchor, n as u32, min_target_bytes);

        let (start, mut total, mut prev_hash) = {
            let mut cache = self.cache.lock().expect("cache poisoned");
            if let Some(work) = cache.lookup_full(&full_key, &encoded) {
                cache.stats.full_hits += 1;
                return Ok(work);
            }
            match cache.lookup_prefix(&segment.anchor, &min_target_bytes, &encoded) {
                Some((prefix, work, tip)) => {
                    cache.stats.prefix_hits += 1;
                    (prefix, work, tip)
                }
                None => {
                    cache.stats.misses += 1;
                    (0, U256::ZERO, segment.anchor)
                }
            }
        };

        // The unverified delta, folded exactly as `HeaderSegment::verify`
        // folds a whole segment, so the first error — and its index —
        // match the reference.
        let delta = &segment.headers[start..];
        for (offset, header) in delta.iter().enumerate() {
            let index = start + offset;
            if header.prev_hash != prev_hash {
                return Err(SpvError::BrokenLink { index });
            }
            let target = header.target().map_err(|_| SpvError::BadBits { index })?;
            if target > *min_target {
                return Err(SpvError::TargetTooEasy { index });
            }
            let hash = header.hash();
            if !hash_meets_target(&hash, &target) {
                return Err(SpvError::PowFailure { index });
            }
            total = total
                .checked_add(&U256::work_from_target(&target))
                .expect("segment work cannot overflow");
            prev_hash = hash;
        }

        let mut cache = self.cache.lock().expect("cache poisoned");
        let capacity = self.capacity;
        cache.stats.headers_verified = cache
            .stats
            .headers_verified
            .saturating_add(delta.len() as u64);
        cache.insert(
            full_key,
            prev_hash,
            encoded.into_boxed_slice(),
            total,
            capacity,
        );
        Ok(total)
    }

    /// Verifies a full evidence bundle, byte-equivalently to
    /// [`SpvEvidence::verify`].
    ///
    /// # Errors
    ///
    /// Exactly the [`SpvError`] the sequential verifier would return.
    pub fn verify_evidence(
        &self,
        evidence: &SpvEvidence,
        min_target: &U256,
    ) -> Result<U256, SpvError> {
        let work = self.verify_segment(&evidence.segment, min_target)?;
        if let Some(inclusion) = &evidence.inclusion {
            inclusion.verify(&evidence.segment)?;
        }
        Ok(work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_btcsim::chain::Chain;
    use btcfast_btcsim::miner::Miner;
    use btcfast_btcsim::params::ChainParams;
    use btcfast_crypto::keys::KeyPair;

    fn chain(n: u64) -> Chain {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let mut miner = Miner::new(params, KeyPair::from_seed(b"verify pool").address());
        for i in 1..=n {
            let block = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(block).unwrap();
        }
        chain
    }

    fn limit() -> U256 {
        ChainParams::regtest().pow_limit()
    }

    fn verifier() -> EvidenceVerifier {
        EvidenceVerifier::new(VerifierConfig { cache_capacity: 8 })
    }

    #[test]
    fn cold_verify_matches_sequential() {
        let chain = chain(10);
        let v = verifier();
        for (from, to) in [(1u64, 10u64), (3, 7), (5, 5)] {
            let segment = HeaderSegment::from_chain(&chain, from, to);
            assert_eq!(
                v.verify_segment(&segment, &limit()),
                segment.verify(&limit())
            );
        }
        assert_eq!(v.cache_stats().full_hits, 0);
    }

    #[test]
    fn resubmission_is_a_full_hit_with_identical_work() {
        let chain = chain(8);
        let segment = HeaderSegment::from_chain(&chain, 1, 8);
        let v = verifier();
        let cold = v.verify_segment(&segment, &limit()).unwrap();
        let warm = v.verify_segment(&segment, &limit()).unwrap();
        assert_eq!(cold, warm);
        let stats = v.cache_stats();
        assert_eq!(stats.full_hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn tip_extension_only_verifies_the_delta() {
        let chain = chain(12);
        let v = verifier();
        let short = HeaderSegment::from_chain(&chain, 1, 8);
        v.verify_segment(&short, &limit()).unwrap();
        let long = HeaderSegment::from_chain(&chain, 1, 12);
        let work = v.verify_segment(&long, &limit()).unwrap();
        assert_eq!(work, long.verify(&limit()).unwrap());
        let stats = v.cache_stats();
        assert_eq!(stats.prefix_hits, 1);
        // 8 cold headers plus the 4-header extension delta.
        assert_eq!(stats.headers_verified, 12);
    }

    #[test]
    fn forged_middle_header_cannot_borrow_a_cached_verdict() {
        let chain = chain(8);
        let v = verifier();
        let segment = HeaderSegment::from_chain(&chain, 1, 8);
        v.verify_segment(&segment, &limit()).unwrap();
        // Same anchor, same len, same tip header — but a corrupted middle.
        let mut forged = segment.clone();
        forged.headers[3].time ^= 1;
        assert_eq!(
            v.verify_segment(&forged, &limit()),
            forged.verify(&limit()),
            "forged segment must fail identically to the sequential verifier"
        );
        assert!(v.verify_segment(&forged, &limit()).is_err());
    }

    #[test]
    fn different_min_target_does_not_share_cache_entries() {
        let chain = chain(6);
        let v = verifier();
        let segment = HeaderSegment::from_chain(&chain, 1, 6);
        v.verify_segment(&segment, &limit()).unwrap();
        // A stricter minimum must re-verify (and reject), not hit the memo.
        let strict = limit() >> 64;
        assert_eq!(v.verify_segment(&segment, &strict), segment.verify(&strict));
    }

    #[test]
    fn lru_evicts_oldest_entries() {
        let chain = chain(12);
        let v = EvidenceVerifier::new(VerifierConfig { cache_capacity: 2 });
        for to in [3u64, 5, 7, 9] {
            let segment = HeaderSegment::from_chain(&chain, 1, to);
            v.verify_segment(&segment, &limit()).unwrap();
        }
        let stats = v.cache_stats();
        assert_eq!(stats.insertions, 4);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn clear_cache_forces_cold_verification() {
        let chain = chain(6);
        let v = verifier();
        let segment = HeaderSegment::from_chain(&chain, 1, 6);
        v.verify_segment(&segment, &limit()).unwrap();
        v.clear_cache();
        v.verify_segment(&segment, &limit()).unwrap();
        assert_eq!(v.cache_stats().full_hits, 0);
        assert_eq!(v.cache_stats().misses, 2);
    }

    #[test]
    fn signature_batches_accumulate_stats_and_name_culprits() {
        let v = verifier();
        let mut items = Vec::new();
        for i in 0..6u8 {
            let kp = KeyPair::from_seed(&[b"batch stats", &[i][..]].concat());
            let digest = btcfast_crypto::sha256::sha256d(&[i]).0;
            let (signature, recovery) = kp.sign_recoverable(&digest);
            items.push(BatchItem {
                pubkey: *kp.public().point(),
                digest,
                signature,
                recovery: Some(recovery),
            });
        }
        items[4].digest[0] ^= 1; // one culprit
        let outcome = v.verify_signature_batch(&items, 7);
        assert_eq!(outcome.invalid, vec![4]);
        let stats = v.sig_batch_stats();
        assert_eq!(stats.items, 6);
        assert!(stats.msm_evals >= 1);

        // A second batch accumulates on top of the first.
        let outcome = v.verify_signature_batch(&items[..4], 8);
        assert!(outcome.all_valid());
        assert_eq!(v.sig_batch_stats().items, 10);
    }

    #[test]
    fn evidence_with_inclusion_matches_sequential() {
        // Inclusion proofs ride through unchanged (cheap, never cached).
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let key = KeyPair::from_seed(b"verify inc");
        let mut miner = Miner::new(params, key.address());
        for i in 1..=6u64 {
            let block = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(block).unwrap();
        }
        let coinbase_txid = chain.block_at_height(1).unwrap().transactions[0].txid();
        let evidence = SpvEvidence::from_chain(&chain, 1, 6, Some(&coinbase_txid));
        assert!(evidence.inclusion.is_some());
        let v = verifier();
        assert_eq!(
            v.verify_evidence(&evidence, &limit()),
            evidence.verify(&limit())
        );
        // Warm pass exercises full-hit + inclusion re-check.
        assert_eq!(
            v.verify_evidence(&evidence, &limit()),
            evidence.verify(&limit())
        );
        assert_eq!(v.cache_stats().full_hits, 1);
    }
}
