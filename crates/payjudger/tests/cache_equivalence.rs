//! Property: the memoizing [`EvidenceVerifier`] is
//! **byte-identical** to the sequential cold verifier — same `Ok` work,
//! same first error and error index — for random header segments, random
//! tampering, and arbitrary dispute orderings sharing one warm cache. On
//! the contract path, `verify_on_chain_with(accel)` must also charge
//! exactly the gas of the sequential `verify_on_chain`: the cache is an
//! off-chain accelerator, never a gas discount.

use btcfast_btcsim::chain::Chain;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::spv::{HeaderSegment, SpvEvidence};
use btcfast_btcsim::transaction::{OutPoint, Transaction, TxIn, TxOut};
use btcfast_btcsim::u256::U256;
use btcfast_btcsim::Amount;
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::Hash256;
use btcfast_payjudger::evidence::{verify_on_chain, verify_on_chain_with, EvidenceBundle};
use btcfast_payjudger::{EvidenceVerifier, VerifierConfig};
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::contract::{HostStorage, Storage};
use btcfast_pscsim::gas::{GasMeter, GasSchedule};
use btcfast_pscsim::state::WorldState;
use proptest::prelude::*;
use proptest::sample::Index;
use std::sync::OnceLock;

const CHAIN_BLOCKS: u64 = 16;

/// The shared fixture chain: 16 blocks, a payment tx in block 3.
fn fixture() -> &'static (Chain, Hash256) {
    static CHAIN: OnceLock<(Chain, Hash256)> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let key = KeyPair::from_seed(b"equiv miner");
        let mut miner = Miner::new(params, key.address());
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        let b2 = miner.mine_block(&chain, vec![], 1200);
        chain.submit_block(b2).unwrap();
        let coinbase = &b1.transactions[0];
        let merchant = KeyPair::from_seed(b"equiv merchant");
        let mut pay = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: coinbase.txid(),
                vout: 0,
            })],
            vec![TxOut::payment(
                Amount::from_sats(1_000_000).unwrap(),
                merchant.address(),
            )],
        );
        pay.sign_input(0, &key, &coinbase.outputs[0].script_pubkey)
            .unwrap();
        let txid = pay.txid();
        let b3 = miner.mine_block(&chain, vec![pay], 1800);
        chain.submit_block(b3).unwrap();
        for i in 4..=CHAIN_BLOCKS {
            let b = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(b).unwrap();
        }
        (chain, txid)
    })
}

/// One shared verifier across every generated case: the property must hold
/// for any interleaving of cold, warm, prefix-warm, and tampered lookups —
/// a deliberately small capacity keeps the LRU churning too.
fn shared_verifier() -> &'static EvidenceVerifier {
    static VERIFIER: OnceLock<EvidenceVerifier> = OnceLock::new();
    VERIFIER.get_or_init(|| EvidenceVerifier::new(VerifierConfig { cache_capacity: 6 }))
}

fn with_storage<T>(f: impl FnOnce(&mut dyn Storage) -> T) -> (T, u64) {
    let mut world = WorldState::new();
    let mut meter = GasMeter::new(100_000_000);
    let schedule = GasSchedule::evm_shaped();
    let mut host = HostStorage {
        world: &mut world,
        meter: &mut meter,
        schedule: &schedule,
        contract: AccountId([0xCC; 20]),
        events: Vec::new(),
        transfers: Vec::new(),
    };
    let result = f(&mut host);
    let used = host.gas_used();
    (result, used)
}

/// A random evidence bundle: random subrange of the fixture chain, maybe an
/// inclusion proof, maybe tampered one of several ways.
fn build_case(
    from_idx: Index,
    len_idx: Index,
    with_inclusion: bool,
    tamper: u8,
    spot: Index,
) -> SpvEvidence {
    let (chain, txid) = fixture();
    let from = 1 + from_idx.index(CHAIN_BLOCKS as usize) as u64;
    let max_len = CHAIN_BLOCKS - from + 1;
    let to = from + len_idx.index(max_len as usize) as u64;
    let wanted = with_inclusion.then_some(txid);
    let mut evidence = SpvEvidence::from_chain(chain, from, to, wanted);
    let n = evidence.segment.headers.len();
    let hit = spot.index(n.max(1));
    match tamper {
        0 => {}
        1 => evidence.segment.headers[hit].nonce ^= 1,
        2 => evidence.segment.headers[hit].prev_hash.0[5] ^= 0x40,
        3 => evidence.segment.headers[hit].merkle_root.0[0] ^= 1,
        4 => evidence.segment.anchor.0[31] ^= 1,
        5 => {
            if let Some(inclusion) = &mut evidence.inclusion {
                inclusion.header_index = n + 3; // out of range
            }
        }
        _ => {
            if let Some(inclusion) = &mut evidence.inclusion {
                inclusion.txid.0[7] ^= 1; // merkle failure + foreign txid
            }
        }
    }
    evidence
}

fn limit() -> U256 {
    ChainParams::regtest().pow_limit()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Off-chain layer: verifier verdicts are byte-identical to the
    /// sequential reference, under both a permissive and a strict
    /// minimum target, with a single warm cache shared across all cases.
    #[test]
    fn verifier_matches_sequential_verdicts(
        from_idx in any::<Index>(),
        len_idx in any::<Index>(),
        with_inclusion in prop_oneof![Just(false), Just(true)],
        tamper in 0u8..7,
        spot in any::<Index>(),
        strict in prop_oneof![Just(false), Just(true)],
    ) {
        let evidence = build_case(from_idx, len_idx, with_inclusion, tamper, spot);
        let min_target = if strict { limit() >> 64 } else { limit() };
        let verifier = shared_verifier();
        prop_assert_eq!(
            verifier.verify_evidence(&evidence, &min_target),
            evidence.verify(&min_target),
            "tamper={} strict={} len={}",
            tamper,
            strict,
            evidence.segment.headers.len()
        );
    }

    /// Contract layer: the accelerated path returns the identical verdict
    /// AND charges identical gas — warm or cold, valid or tampered.
    #[test]
    fn on_chain_verdict_and_gas_identical(
        from_idx in any::<Index>(),
        len_idx in any::<Index>(),
        with_inclusion in prop_oneof![Just(false), Just(true)],
        tamper in 0u8..7,
        spot in any::<Index>(),
    ) {
        let (_, txid) = fixture();
        let evidence = build_case(from_idx, len_idx, with_inclusion, tamper, spot);
        let bundle = EvidenceBundle(evidence);
        let anchor = bundle.0.segment.anchor;
        let bits = ChainParams::regtest().pow_limit_bits;
        let (seq, gas_seq) = with_storage(|storage| {
            verify_on_chain(&bundle, &anchor, bits, txid, storage)
        });
        let (acc, gas_acc) = with_storage(|storage| {
            verify_on_chain_with(&bundle, &anchor, bits, txid, storage, Some(shared_verifier()))
        });
        prop_assert_eq!(acc, seq, "tamper={}", tamper);
        prop_assert_eq!(gas_acc, gas_seq, "gas must not depend on the cache (tamper={})", tamper);
    }
}

/// Deterministic dispute-sequence check: a growing tip re-verified round
/// after round through the shared memo stays identical to cold sequential
/// verification at every step (the exact overlap pattern disputes create).
#[test]
fn growing_tip_rounds_stay_equivalent() {
    let (chain, txid) = fixture();
    let verifier = EvidenceVerifier::new(VerifierConfig { cache_capacity: 8 });
    let min_target = limit();
    for to in 6..=CHAIN_BLOCKS {
        let evidence = SpvEvidence::from_chain(chain, 1, to, Some(txid));
        assert_eq!(
            verifier.verify_evidence(&evidence, &min_target),
            evidence.verify(&min_target),
            "round to={to}"
        );
        // Re-verify the same round (replay) — full hit, still identical.
        assert_eq!(
            verifier.verify_evidence(&evidence, &min_target),
            evidence.verify(&min_target),
            "replay to={to}"
        );
    }
    let stats = verifier.cache_stats();
    assert!(stats.full_hits >= (CHAIN_BLOCKS - 6), "{stats:?}");
    assert!(stats.prefix_hits >= (CHAIN_BLOCKS - 6), "{stats:?}");
}

/// One fixed long segment: 256 headers, eight times the batch size at
/// which the verifier used to switch to a different code path. Cold, warm,
/// extended from a memoized 200-header prefix, and forged deep inside, the
/// verdict is the reference's.
#[test]
fn a_256_header_segment_stays_equivalent() {
    let params = ChainParams::regtest();
    let mut chain = Chain::new(params.clone());
    let mut miner = Miner::new(params, KeyPair::from_seed(b"equiv long").address());
    for i in 1..=256u64 {
        let block = miner.mine_block(&chain, vec![], i * 600);
        chain.submit_block(block).unwrap();
    }
    let min_target = limit();
    let long = HeaderSegment::from_chain(&chain, 1, 256);
    let prefix = HeaderSegment::from_chain(&chain, 1, 200);
    // A changed header either fails its own PoW or breaks the next link.
    let mut forged = long.clone();
    forged.headers[230].nonce ^= 1;
    assert!(long.verify(&min_target).is_ok() && forged.verify(&min_target).is_err());

    let verifier = EvidenceVerifier::new(VerifierConfig { cache_capacity: 4 });
    let check = |step: &str, segment: &HeaderSegment| {
        let verdict = verifier.verify_segment(segment, &min_target);
        assert_eq!(verdict, segment.verify(&min_target), "{step}");
    };
    check("cold", &long);
    check("warm", &long);
    check("forged, its honest twin memoized", &forged);
    verifier.clear_cache();
    check("forged, cold", &forged);
    check("prefix", &prefix);
    check("extended from the memoized prefix", &long);
    assert_eq!(verifier.cache_stats().prefix_hits, 1);
}
