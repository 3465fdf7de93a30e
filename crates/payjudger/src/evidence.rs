//! The on-chain evidence format: wire codecs for SPV evidence, the one
//! evidence check, and the gas PayJudger charges before running it.

use crate::types::EvidenceSummary;
use btcfast_btcsim::block::BlockHeader;
use btcfast_btcsim::pow::CompactBits;
use btcfast_btcsim::spv::{HeaderSegment, SpvEvidence, TxInclusion};
use btcfast_btcsim::U256;
use btcfast_crypto::{Hash256, MerkleProof};
use btcfast_pscsim::codec::{take, CodecError, Decode, Encode};
use btcfast_pscsim::contract::{ContractError, Storage};

/// Hard cap on headers in one evidence bundle. A length prefix above this
/// is a decode error, not a request for a longer loop: before this cap the
/// decoder clamped only `Vec::with_capacity` and still iterated the full
/// attacker-supplied count, letting a hostile 4-byte prefix drive millions
/// of decode iterations for free (the gas meter only sees decoded bundles).
pub const MAX_EVIDENCE_HEADERS: usize = 4096;

/// Hard cap on Merkle siblings in one inclusion proof (a 64-level path
/// already addresses 2^64 leaves — no honest proof is deeper).
pub const MAX_MERKLE_SIBLINGS: usize = 64;

/// Wire wrapper: ABI encoding for [`SpvEvidence`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceBundle(pub SpvEvidence);

impl Encode for EvidenceBundle {
    fn encode_to(&self, out: &mut Vec<u8>) {
        let segment = &self.0.segment;
        segment.anchor.encode_to(out);
        (segment.headers.len() as u32).encode_to(out);
        for header in &segment.headers {
            out.extend_from_slice(&header.encode());
        }
        match &self.0.inclusion {
            None => 0u8.encode_to(out),
            Some(inclusion) => {
                1u8.encode_to(out);
                inclusion.txid.encode_to(out);
                (inclusion.header_index as u32).encode_to(out);
                (inclusion.proof.index()).encode_to(out);
                (inclusion.proof.siblings().len() as u32).encode_to(out);
                for sibling in inclusion.proof.siblings() {
                    sibling.encode_to(out);
                }
            }
        }
    }
}

impl Decode for EvidenceBundle {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        let anchor = Hash256::decode_from(input)?;
        let header_count = u32::decode_from(input)? as usize;
        if header_count > MAX_EVIDENCE_HEADERS {
            return Err(CodecError::LengthCap {
                len: header_count,
                max: MAX_EVIDENCE_HEADERS,
            });
        }
        let mut headers = Vec::with_capacity(header_count);
        for _ in 0..header_count {
            let bytes = take(input, 88)?;
            let mut arr = [0u8; 88];
            arr.copy_from_slice(bytes);
            headers.push(BlockHeader::decode(&arr));
        }
        let inclusion = match u8::decode_from(input)? {
            0 => None,
            1 => {
                let txid = Hash256::decode_from(input)?;
                let header_index = u32::decode_from(input)? as usize;
                let leaf_index = u64::decode_from(input)?;
                let sibling_count = u32::decode_from(input)? as usize;
                if sibling_count > MAX_MERKLE_SIBLINGS {
                    return Err(CodecError::LengthCap {
                        len: sibling_count,
                        max: MAX_MERKLE_SIBLINGS,
                    });
                }
                let mut siblings = Vec::with_capacity(sibling_count);
                for _ in 0..sibling_count {
                    siblings.push(Hash256::decode_from(input)?);
                }
                Some(TxInclusion {
                    txid,
                    header_index,
                    proof: MerkleProof::from_parts(leaf_index, siblings),
                })
            }
            other => return Err(CodecError::BadTag(other)),
        };
        Ok(EvidenceBundle(SpvEvidence {
            segment: HeaderSegment { anchor, headers },
            inclusion,
        }))
    }
}

/// Verification outcome fed into the judgment comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedEvidence {
    /// Accumulated work of the segment.
    pub work: U256,
    /// Summary suitable for storage.
    pub summary: EvidenceSummary,
}

/// The evidence check, stated once: the contract runs it after charging
/// gas ([`verify_on_chain`]) and a client runs it before paying to submit
/// (`PayJudgerClient::preflight_evidence`), so the two cannot drift.
///
/// Checks, in order:
/// 1. anchor equals the configured `checkpoint`;
/// 2. every header links, meets its own target, and its target is at least
///    as hard as `min_target_bits`;
/// 3. the optional inclusion proof connects `expected_txid` to a header.
///
/// # Errors
///
/// The revert message the contract emits for this evidence.
pub fn check_evidence(
    evidence: &SpvEvidence,
    checkpoint: &Hash256,
    min_target_bits: CompactBits,
    expected_txid: &Hash256,
) -> Result<VerifiedEvidence, String> {
    if evidence.segment.anchor != *checkpoint {
        return Err("evidence rejected: anchor is not the escrow checkpoint".into());
    }
    let min_target = min_target_bits
        .to_target()
        .map_err(|e| format!("bad judge config: {e}"))?;
    let work = evidence
        .verify(&min_target)
        .map_err(|e| format!("evidence rejected: {e}"))?;
    let tip = evidence.segment.tip_hash();
    let tip = tip.ok_or("evidence rejected: header segment is empty")?;

    let (includes_tx, tx_confirmations) = match &evidence.inclusion {
        Some(inclusion) if &inclusion.txid == expected_txid => {
            // Burial depth: containing header through the tip, inclusive.
            let depth = (evidence.segment.len() - inclusion.header_index) as u64;
            (true, depth)
        }
        Some(_) => return Err("evidence rejected: inclusion proof is for a different txid".into()),
        None => (false, 0),
    };

    Ok(VerifiedEvidence {
        work,
        summary: EvidenceSummary {
            work: work.to_be_bytes(),
            blocks: evidence.segment.len() as u64,
            tip,
            includes_tx,
            tx_confirmations,
        },
    })
}

/// Verifies an evidence bundle on-chain: charges gas per header and per
/// Merkle-proof hash, mirroring what a Solidity BTC-relay pays, then runs
/// [`check_evidence`]. Gas is charged before verifying — it prices the
/// work an L1 validator performs whether or not the evidence turns out
/// valid, so it depends only on the bundle's shape.
///
/// # Errors
///
/// [`ContractError::OutOfGas`], or [`ContractError::Revert`] with
/// [`check_evidence`]'s reason.
pub fn verify_on_chain(
    bundle: &EvidenceBundle,
    checkpoint: &Hash256,
    min_target_bits: CompactBits,
    expected_txid: &Hash256,
    storage: &mut dyn Storage,
) -> Result<VerifiedEvidence, ContractError> {
    let evidence = &bundle.0;
    let schedule = storage.schedule().clone();
    let header_cost = schedule.header_verify + schedule.hash_cost(88) * 2;
    storage.charge(header_cost * evidence.segment.headers.len() as u64)?;
    if let Some(inclusion) = &evidence.inclusion {
        storage.charge(schedule.hash_cost(64) * 2 * inclusion.proof.depth().max(1) as u64)?;
    }
    check_evidence(evidence, checkpoint, min_target_bits, expected_txid)
        .map_err(ContractError::Revert)
}

/// Compares two stored evidence summaries by accumulated work. The work is
/// stored as big-endian bytes, whose lexicographic order is numeric order.
pub fn heavier(a: &EvidenceSummary, b: &EvidenceSummary) -> std::cmp::Ordering {
    a.work.cmp(&b.work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_btcsim::chain::Chain;
    use btcfast_btcsim::miner::Miner;
    use btcfast_btcsim::params::ChainParams;
    use btcfast_btcsim::transaction::{OutPoint, Transaction, TxIn, TxOut};
    use btcfast_btcsim::Amount;
    use btcfast_crypto::keys::KeyPair;
    use btcfast_pscsim::account::AccountId;
    use btcfast_pscsim::contract::CallStorage;
    use btcfast_pscsim::gas::{GasMeter, GasSchedule};
    use btcfast_pscsim::state::WorldState;

    /// A regtest chain whose block 3 carries a payment; returns the chain
    /// and the payment txid.
    fn chain_with_payment() -> (Chain, Hash256) {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let key = KeyPair::from_seed(b"ev miner");
        let mut miner = Miner::new(params, key.address());
        let b1 = miner.mine_block(&chain, vec![], 600);
        chain.submit_block(b1.clone()).unwrap();
        let b2 = miner.mine_block(&chain, vec![], 1200);
        chain.submit_block(b2).unwrap();
        let coinbase = &b1.transactions[0];
        let merchant = KeyPair::from_seed(b"ev merchant");
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
        for i in 4..=8u64 {
            let b = miner.mine_block(&chain, vec![], i * 600);
            chain.submit_block(b).unwrap();
        }
        (chain, txid)
    }

    fn with_storage<T>(f: impl FnOnce(&mut dyn Storage) -> T) -> (T, u64) {
        let world = WorldState::new();
        let mut meter = GasMeter::new(100_000_000);
        let schedule = GasSchedule::evm_shaped();
        let mut host = CallStorage::new(&world, &mut meter, &schedule, AccountId([0xCC; 20]));
        let result = f(&mut host);
        let used = host.gas_used();
        (result, used)
    }

    fn bits() -> CompactBits {
        ChainParams::regtest().pow_limit_bits
    }

    #[test]
    fn bundle_codec_round_trip() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, Some(&txid)));
        assert!(bundle.0.inclusion.is_some());
        let decoded = EvidenceBundle::decode(&bundle.encode()).unwrap();
        assert_eq!(decoded, bundle);

        let no_inclusion = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, None));
        let decoded = EvidenceBundle::decode(&no_inclusion.encode()).unwrap();
        assert_eq!(decoded, no_inclusion);
    }

    #[test]
    fn valid_evidence_verifies_and_charges() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, Some(&txid)));
        let (result, gas) = with_storage(|storage| {
            verify_on_chain(&bundle, &Hash256::ZERO, bits(), &txid, storage)
        });
        let verified = result.unwrap();
        assert_eq!(verified.summary.blocks, 8);
        assert!(verified.summary.includes_tx);
        assert_eq!(verified.work, chain.tip_work());
        assert!(gas > 0);
    }

    #[test]
    fn gas_scales_with_header_count() {
        let (chain, txid) = chain_with_payment();
        let short = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 4, None));
        let long = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, None));
        let (_, gas_short) =
            with_storage(|storage| verify_on_chain(&short, &Hash256::ZERO, bits(), &txid, storage));
        let (_, gas_long) =
            with_storage(|storage| verify_on_chain(&long, &Hash256::ZERO, bits(), &txid, storage));
        assert_eq!(gas_long, gas_short * 2);
    }

    #[test]
    fn wrong_anchor_rejected() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 2, 8, None));
        let (result, _) = with_storage(|storage| {
            verify_on_chain(&bundle, &Hash256::ZERO, bits(), &txid, storage)
        });
        assert!(matches!(result, Err(ContractError::Revert(msg)) if msg.contains("checkpoint")));
    }

    #[test]
    fn foreign_txid_inclusion_rejected() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, Some(&txid)));
        let other_txid = Hash256([0xEE; 32]);
        let (result, _) = with_storage(|storage| {
            verify_on_chain(&bundle, &Hash256::ZERO, bits(), &other_txid, storage)
        });
        assert!(
            matches!(result, Err(ContractError::Revert(msg)) if msg.contains("different txid"))
        );
    }

    #[test]
    fn tampered_header_rejected() {
        let (chain, txid) = chain_with_payment();
        let mut bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, None));
        bundle.0.segment.headers[3].merkle_root = Hash256([9; 32]);
        let mut empty = bundle.clone();
        empty.0.segment.headers.clear();
        for bundle in [bundle, empty] {
            let (result, _) = with_storage(|storage| {
                verify_on_chain(&bundle, &Hash256::ZERO, bits(), &txid, storage)
            });
            assert!(matches!(result, Err(ContractError::Revert(msg)) if msg.contains("rejected")));
        }
    }

    #[test]
    fn easy_difficulty_headers_rejected() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, None));
        // Judge configured to demand harder targets than regtest's.
        let strict_bits = CompactBits(0x1d00ffff);
        let (result, _) = with_storage(|storage| {
            verify_on_chain(&bundle, &Hash256::ZERO, strict_bits, &txid, storage)
        });
        assert!(matches!(result, Err(ContractError::Revert(msg)) if msg.contains("easier")));
    }

    #[test]
    fn out_of_gas_on_huge_evidence() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, Some(&txid)));
        let world = WorldState::new();
        let mut meter = GasMeter::new(1_000); // far too little
        let schedule = GasSchedule::evm_shaped();
        let mut host = CallStorage::new(&world, &mut meter, &schedule, AccountId([0xCC; 20]));
        let result = verify_on_chain(&bundle, &Hash256::ZERO, bits(), &txid, &mut host);
        assert!(matches!(result, Err(ContractError::OutOfGas(_))));
    }

    #[test]
    fn hostile_header_count_is_a_hard_decode_error() {
        // Craft a bundle whose 4-byte header count claims far more headers
        // than the cap; the decoder must bail immediately rather than spin
        // the full attacker-supplied count.
        let mut hostile = Vec::new();
        Hash256::ZERO.encode_to(&mut hostile);
        (MAX_EVIDENCE_HEADERS as u32 + 1).encode_to(&mut hostile);
        assert_eq!(
            EvidenceBundle::decode(&hostile),
            Err(CodecError::LengthCap {
                len: MAX_EVIDENCE_HEADERS + 1,
                max: MAX_EVIDENCE_HEADERS,
            })
        );
        let mut worst = Vec::new();
        Hash256::ZERO.encode_to(&mut worst);
        u32::MAX.encode_to(&mut worst);
        assert!(matches!(
            EvidenceBundle::decode(&worst),
            Err(CodecError::LengthCap { .. })
        ));
    }

    #[test]
    fn header_count_at_cap_still_decodes() {
        // Exactly-at-cap input with too few header bytes fails with
        // UnexpectedEnd (honest truncation), not the cap error.
        let mut at_cap = Vec::new();
        Hash256::ZERO.encode_to(&mut at_cap);
        (MAX_EVIDENCE_HEADERS as u32).encode_to(&mut at_cap);
        assert_eq!(
            EvidenceBundle::decode(&at_cap),
            Err(CodecError::UnexpectedEnd)
        );
    }

    #[test]
    fn hostile_sibling_count_is_a_hard_decode_error() {
        let (chain, txid) = chain_with_payment();
        let bundle = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, Some(&txid)));
        let mut encoded = bundle.encode();
        // The sibling count sits 40 bytes before the end minus the sibling
        // payload; rebuild the tail instead of byte surgery.
        let inclusion = bundle.0.inclusion.as_ref().unwrap();
        let sibling_bytes = inclusion.proof.siblings().len() * 32;
        let count_pos = encoded.len() - sibling_bytes - 4;
        encoded[count_pos..count_pos + 4]
            .copy_from_slice(&(MAX_MERKLE_SIBLINGS as u32 + 1).to_le_bytes());
        assert_eq!(
            EvidenceBundle::decode(&encoded),
            Err(CodecError::LengthCap {
                len: MAX_MERKLE_SIBLINGS + 1,
                max: MAX_MERKLE_SIBLINGS,
            })
        );
    }

    #[test]
    fn on_chain_verdict_is_check_evidence_and_gas_depends_on_shape_only() {
        let (chain, txid) = chain_with_payment();
        let good = EvidenceBundle(SpvEvidence::from_chain(&chain, 1, 8, Some(&txid)));
        let mut bad = good.clone();
        bad.0.segment.headers[5].merkle_root = Hash256([7; 32]);
        let mut gas = Vec::new();
        for bundle in [&good, &bad] {
            let (on_chain, used) = with_storage(|storage| {
                verify_on_chain(bundle, &Hash256::ZERO, bits(), &txid, storage)
            });
            let free = check_evidence(&bundle.0, &Hash256::ZERO, bits(), &txid);
            assert_eq!(on_chain, free.map_err(ContractError::Revert));
            gas.push(used);
        }
        assert_eq!(
            gas[0], gas[1],
            "a tampered twin costs what the original costs"
        );
    }

    #[test]
    fn heavier_compares_by_work() {
        let light = EvidenceSummary {
            work: U256::from_u64(100).to_be_bytes(),
            ..Default::default()
        };
        let heavy = EvidenceSummary {
            work: U256::from_u64(200).to_be_bytes(),
            ..Default::default()
        };
        assert_eq!(heavier(&heavy, &light), std::cmp::Ordering::Greater);
        assert_eq!(heavier(&light, &heavy), std::cmp::Ordering::Less);
        assert_eq!(heavier(&light, &light), std::cmp::Ordering::Equal);
        // A work that fills only the bottom limb is lighter than one in the
        // top limb: the byte order is the limb order, most significant first.
        let top = EvidenceSummary {
            work: (U256::ONE << 200).to_be_bytes(),
            ..Default::default()
        };
        let bottom = EvidenceSummary {
            work: U256::from_u64(u64::MAX).to_be_bytes(),
            ..Default::default()
        };
        assert_eq!(heavier(&top, &bottom), std::cmp::Ordering::Greater);
        assert_eq!(heavier(&bottom, &top), std::cmp::Ordering::Less);
    }
}
