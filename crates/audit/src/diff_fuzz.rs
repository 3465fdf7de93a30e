//! Differential executors: the same fuzzed schedule runs through the
//! optimised incremental path **and** a naive from-scratch reference, and
//! every observable artifact must match byte-for-byte.
//!
//! * `chain-reorg` — a block/fork/timestamp schedule drives
//!   `Chain::submit_block` (reorgs, side branches, median-time-past
//!   edges); the reference is a fresh chain fed only the final active
//!   hashes. UTXO set, address index, tip work, and per-transaction
//!   confirmations must be identical.
//! * `psc-replay` — a transaction schedule (hostile faucets, saturating
//!   gas prices, reverting and overflowing contract calls) runs on two
//!   chains; receipts, state commitments, and submit verdicts must match.
//!   After every block native value must be conserved, each nonce must
//!   count its sender's executed transactions, each slot must hold its
//!   last successful write (a reverted write never), and each revert must
//!   bill `gas × price`.
//! * `evidence-preflight` — the free evidence check a client preflights
//!   with must be the contract's: same verdict, revert string and summary
//!   as the metered on-chain path, whose gas depends only on the bundle's
//!   shape.

use crate::codec_fuzz::shared_btc;
use crate::invariants::check_chain;
use crate::source::ByteSource;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::pow::CompactBits;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::wallet::Wallet;
use btcfast_btcsim::{Amount, Chain, U256};
use btcfast_crypto::{Hash256, KeyPair};
use btcfast_payjudger::evidence::{
    check_evidence, verify_on_chain, EvidenceBundle, VerifiedEvidence,
};
use btcfast_payjudger::{EvidenceVerifier, PayJudgerClient};
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::{Decode, Encode};
use btcfast_pscsim::contract::{CallStorage, Contract, ContractError, Env, Storage};
use btcfast_pscsim::gas::{GasMeter, GasSchedule};
use btcfast_pscsim::params::PscParams;
use btcfast_pscsim::state::WorldState;
use btcfast_pscsim::tx::{Action, PscTransaction, TxStatus};
use btcfast_pscsim::PscChain;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// chain-reorg
// ---------------------------------------------------------------------------

/// Fuzzes reorg schedules and compares against a from-scratch rebuild.
pub fn diff_chain_reorg(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let params = ChainParams::regtest();
    let wallet = Wallet::from_seed(b"audit reorg wallet");
    let mut chain = Chain::new(params.clone());
    let mut miner = Miner::new(params.clone(), wallet.address());

    let mut known = vec![Hash256::ZERO];
    let mut prev_work = U256::ZERO;
    let steps = 4 + src.choice(9);
    for step in 0..steps {
        let parent = known[src.choice(known.len())];
        let parent_time = if parent == Hash256::ZERO {
            0
        } else {
            chain
                .block(&parent)
                .ok_or("known parent vanished from the store")?
                .header
                .time
        };
        // Timestamps swing [-900, +1800] around the parent to exercise the
        // median-time-past boundary in both directions.
        let time = (parent_time + u64::from(src.u32() % 2701) + 600).saturating_sub(900);
        let txs = if parent == chain.tip_hash() && src.bool() {
            let sats = 1 + u64::from(src.u32()) % 100_000_000;
            wallet
                .create_payment(
                    &chain,
                    btcfast_crypto::keys::Address([0x24; 20]),
                    Amount::from_sats(sats).expect("bounded amount"),
                    Amount::from_sats(1_000).expect("bounded fee"),
                    // A unique memo per step keeps txids distinct even when
                    // competing tips yield identical coin selections.
                    Some(vec![step as u8]),
                )
                .ok()
                .into_iter()
                .collect()
        } else {
            Vec::new()
        };
        let block = miner.mine_block_on(&chain, parent, txs, time);
        let hash = block.hash();
        if chain.submit_block(block).is_ok() {
            known.push(hash);
        }

        // Invariants hold after every step, accepted or rejected.
        check_chain(&chain)?;
        let work = chain.tip_work();
        if work < prev_work {
            return Err("tip work decreased across a submission".into());
        }
        prev_work = work;
    }

    // Reference: a fresh chain fed only the surviving active hashes must
    // land on the identical state.
    let mut fresh = Chain::new(params);
    for hash in chain.active_hashes().to_vec() {
        let block = chain
            .block(&hash)
            .ok_or("active hash missing from the block store")?
            .clone();
        fresh
            .submit_block(block)
            .map_err(|e| format!("active block rejected on linear replay: {e}"))?;
    }
    if fresh.tip_hash() != chain.tip_hash() || fresh.height() != chain.height() {
        return Err(format!(
            "replay tip diverged: {:?}@{} vs {:?}@{}",
            fresh.tip_hash(),
            fresh.height(),
            chain.tip_hash(),
            chain.height()
        ));
    }
    if fresh.tip_work() != chain.tip_work() {
        return Err("replay accumulated different tip work".into());
    }
    if fresh.utxo() != chain.utxo() {
        return Err("incremental UTXO set diverged from the from-scratch rebuild".into());
    }
    if fresh.utxo().fingerprint() != chain.utxo().fingerprint() {
        return Err("UTXO fingerprints diverged despite equal sets".into());
    }
    for hash in chain.active_hashes() {
        let block = chain.block(hash).ok_or("active block missing")?;
        for tx in &block.transactions {
            let txid = tx.txid();
            if chain.confirmations(&txid) != fresh.confirmations(&txid) {
                return Err(format!("confirmations diverged for {txid:?}"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// psc-replay
// ---------------------------------------------------------------------------

/// A scratch contract with one happy path, one reverting path, one
/// value-escape path and a slot read — enough surface for the journal and
/// fee machinery.
struct AuditBank;

impl Contract for AuditBank {
    fn code_id(&self) -> &'static str {
        "audit-bank"
    }

    fn call(
        &self,
        _env: &Env,
        method: &str,
        args: &[u8],
        storage: &mut dyn Storage,
    ) -> Result<Vec<u8>, ContractError> {
        match method {
            "init" => Ok(vec![]),
            "store" => {
                storage.set(&args[..1.min(args.len())], args)?;
                Ok(vec![])
            }
            "boom" => {
                storage.set(b"doomed", args)?;
                Err(ContractError::Revert("boom".into()))
            }
            // View-only: the slot, `None` when it was never written.
            "get" => Ok(storage.get(args)?.encode()),
            "pay" => {
                let mut input = args;
                let to = AccountId::decode_from(&mut input)
                    .map_err(|e| ContractError::Revert(format!("bad args: {e}")))?;
                let value = u128::decode_from(&mut input)
                    .map_err(|e| ContractError::Revert(format!("bad args: {e}")))?;
                storage.transfer_out(to, value)?;
                Ok(vec![])
            }
            other => Err(ContractError::UnknownMethod(other.into())),
        }
    }
}

/// One schedule entry for the PSC replay differential.
#[derive(Clone, Debug)]
enum PscOp {
    Faucet {
        who: usize,
        amount: u128,
    },
    Transfer {
        from: usize,
        to: usize,
        value: u128,
        hostile_gas: bool,
    },
    Store {
        from: usize,
        payload: Vec<u8>,
    },
    Boom {
        from: usize,
    },
    Pay {
        from: usize,
        to: usize,
        deposit: u128,
        payout: u128,
    },
    Seal,
}

fn draw_schedule(src: &mut ByteSource<'_>) -> Vec<PscOp> {
    let steps = 4 + src.choice(9);
    let mut ops = Vec::with_capacity(steps + 1);
    for _ in 0..steps {
        let op = match src.u8() % 6 {
            0 => PscOp::Faucet {
                who: src.choice(3),
                amount: if src.bool() {
                    u128::MAX
                } else {
                    u128::from(src.u64())
                },
            },
            1 => PscOp::Transfer {
                from: src.choice(3),
                to: src.choice(4),
                value: u128::from(src.u32()),
                hostile_gas: src.u8().is_multiple_of(4),
            },
            2 => {
                let from = src.choice(3);
                let len = 1 + src.choice(24);
                PscOp::Store {
                    from,
                    payload: src.bytes(len),
                }
            }
            3 => PscOp::Boom {
                from: src.choice(3),
            },
            4 => PscOp::Pay {
                from: src.choice(3),
                to: src.choice(4),
                deposit: u128::from(src.u16()),
                payout: if src.bool() {
                    u128::MAX
                } else {
                    u128::from(src.u16())
                },
            },
            _ => PscOp::Seal,
        };
        ops.push(op);
    }
    ops.push(PscOp::Seal);
    ops
}

/// A submitted transaction awaiting its block: who sent it, at what gas
/// price, and the slot write it makes if it succeeds.
struct Pending {
    hash: Hash256,
    from: usize,
    price: u128,
    write: Option<(u8, Vec<u8>)>,
}

/// Runs a schedule on a fresh chain, returning a transcript of every
/// observable artifact. Each sealed block is audited on its own: value
/// conservation, every nonce against the sender's executed transactions,
/// every stored slot against its last successful write, and every
/// revert's bill.
fn run_psc_schedule(
    ops: &[PscOp],
    keys: &[KeyPair],
    sink: AccountId,
) -> Result<Vec<String>, String> {
    let params = PscParams::ethereum_like();
    let gas_price = params.gas_price;
    let mut chain = PscChain::new(params);
    chain.register_code(Arc::new(AuditBank));

    let mut minted: u128 = 0;
    for key in keys {
        minted = minted.wrapping_add(chain.faucet(key.address().into(), 1_000_000_000));
    }
    let deploy = PscTransaction::new(
        *keys[0].public(),
        0,
        0,
        Action::Deploy {
            code_id: "audit-bank".into(),
            args: vec![],
        },
    )
    .with_gas(1_000_000, gas_price)
    .sign(&keys[0]);
    let deploy_hash = chain
        .submit_transaction(deploy)
        .map_err(|e| format!("deploy rejected: {e:?}"))?;
    let mut time = 15u64;
    chain.produce_block(time);
    let contract = chain
        .receipt(&deploy_hash)
        .and_then(|r| r.contract_address)
        .ok_or("deploy produced no contract address")?;

    let mut transcript = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    // The model: transactions executed per key (the deploy is key 0's
    // first), and what each slot a `store` call ever named must hold.
    let mut executed = vec![0u64; keys.len()];
    executed[0] = 1;
    let mut slots: BTreeMap<u8, Option<Vec<u8>>> = BTreeMap::new();
    let recipient =
        |to: usize| -> AccountId { keys.get(to).map_or(sink, |key| key.address().into()) };
    let call = |method: &str, args: Vec<u8>| Action::Call {
        contract,
        method: method.into(),
        args,
    };

    for op in ops {
        let (from, value, action, price, write) = match op {
            PscOp::Faucet { who, amount } => {
                // Accumulate modulo 2^128: hostile faucets push several
                // accounts toward u128::MAX, so the *sum* of credited value
                // can exceed the type even though each balance cannot.
                // Conservation is exact over the integers, hence also exact
                // modulo 2^128 — wrapping keeps the check sound.
                minted = minted.wrapping_add(chain.faucet(keys[*who].address().into(), *amount));
                continue;
            }
            PscOp::Transfer {
                from,
                to,
                value,
                hostile_gas,
            } => {
                let price = if *hostile_gas { u128::MAX } else { gas_price };
                let action = Action::Transfer { to: recipient(*to) };
                (*from, *value, action, price, None)
            }
            PscOp::Store { from, payload } => {
                let write = Some((payload[0], payload.clone()));
                (*from, 0, call("store", payload.clone()), gas_price, write)
            }
            PscOp::Boom { from } => (*from, 0, call("boom", vec![]), gas_price, None),
            PscOp::Pay {
                from,
                to,
                deposit,
                payout,
            } => {
                let mut args = Vec::new();
                recipient(*to).encode_to(&mut args);
                payout.encode_to(&mut args);
                (*from, *deposit, call("pay", args), gas_price, None)
            }
            PscOp::Seal => {
                time += 15;
                chain.produce_block(time);
                // Fees only ever flow into the validator: a fee within its
                // room at the end of the block was collected in full.
                let room = u128::MAX - chain.balance_of(&chain.validator());
                for tx in pending.drain(..) {
                    let receipt = chain
                        .receipt(&tx.hash)
                        .ok_or("sealed transaction has no receipt")?;
                    transcript.push(format!(
                        "receipt: {:?} gas={} fee={}",
                        receipt.status, receipt.gas_used, receipt.fee_paid
                    ));
                    if matches!(receipt.status, TxStatus::Invalid(_)) {
                        continue;
                    }
                    executed[tx.from] += 1;
                    if let Some((slot, value)) = tx.write {
                        let held = slots.entry(slot).or_default();
                        if receipt.status.is_success() {
                            *held = Some(value);
                        }
                    }
                    // A revert rolls its writes back, but still bumps the
                    // nonce and bills the gas it burned.
                    let fee = u128::from(receipt.gas_used).saturating_mul(tx.price);
                    if !receipt.status.is_success()
                        && (receipt.gas_used == 0 || (receipt.fee_paid != fee && fee <= room))
                    {
                        return Err(format!(
                            "revert billed {} for {} gas at price {}",
                            receipt.fee_paid, receipt.gas_used, tx.price
                        ));
                    }
                }
                for (key, &count) in keys.iter().zip(&executed) {
                    let nonce = chain.nonce_of(&key.address().into());
                    if nonce != count {
                        return Err(format!("nonce {nonce} after {count} executed transactions"));
                    }
                }
                let read = |slot: &[u8]| -> Result<Option<Vec<u8>>, String> {
                    let view = chain
                        .call_view(sink, contract, "get", slot)
                        .map_err(|e| format!("slot read failed: {e}"))?;
                    Option::<Vec<u8>>::decode(&view).map_err(|e| format!("slot read failed: {e}"))
                };
                if read(b"doomed")?.is_some() {
                    return Err("a reverted call's storage write survived".into());
                }
                for (&slot, expected) in &slots {
                    let held = read(&[slot])?;
                    if held != *expected {
                        return Err(format!(
                            "slot {slot:#04x} holds {held:?}, its last successful write was \
                             {expected:?}"
                        ));
                    }
                }

                transcript.push(format!("commitment: {:?}", chain.state_commitment()));

                // Conservation: every unit in the system came from a faucet.
                let mut total: u128 = 0;
                for key in keys {
                    total = total.wrapping_add(chain.balance_of(&key.address().into()));
                }
                total = total.wrapping_add(chain.balance_of(&sink));
                total = total.wrapping_add(chain.balance_of(&contract));
                total = total.wrapping_add(chain.balance_of(&chain.validator()));
                if total != minted {
                    return Err(format!(
                        "value not conserved: {total} on the books vs {minted} minted"
                    ));
                }
                continue;
            }
        };
        let key = &keys[from];
        let gas = if matches!(action, Action::Transfer { .. }) {
            100_000
        } else {
            1_000_000
        };
        let tx = PscTransaction::new(
            *key.public(),
            chain.nonce_of(&key.address().into()),
            value,
            action,
        )
        .with_gas(gas, price)
        .sign(key);
        // Receipts are keyed by hash: an identical transaction already in
        // this block would have its receipt overwritten, so the copy stays
        // out.
        if pending.iter().any(|p| p.hash == tx.hash()) {
            transcript.push("duplicate".into());
            continue;
        }
        match chain.submit_transaction(tx) {
            Ok(hash) => pending.push(Pending {
                hash,
                from,
                price,
                write,
            }),
            Err(e) => transcript.push(format!("rejected: {e:?}")),
        }
    }
    Ok(transcript)
}

/// Fuzzes PSC transaction schedules and replays them on a second chain.
pub fn diff_psc_replay(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let ops = draw_schedule(&mut src);
    let keys = [
        KeyPair::from_seed(b"audit psc key 0"),
        KeyPair::from_seed(b"audit psc key 1"),
        KeyPair::from_seed(b"audit psc key 2"),
    ];
    let sink = AccountId([0xD0; 20]);
    let first = run_psc_schedule(&ops, &keys, sink)?;
    let second = run_psc_schedule(&ops, &keys, sink)?;
    if first != second {
        let divergence = first
            .iter()
            .zip(second.iter())
            .position(|(a, b)| a != b)
            .map(|i| format!("entry {i}: {:?} vs {:?}", first[i], second[i]))
            .unwrap_or_else(|| "transcripts differ in length".into());
        return Err(format!("replay transcript diverged: {divergence}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// evidence-preflight
// ---------------------------------------------------------------------------

/// Runs the metered on-chain verification path, returning its verdict and
/// the gas consumed.
fn metered_verdict(
    bundle: &EvidenceBundle,
    checkpoint: &Hash256,
    bits: CompactBits,
    expected_txid: &Hash256,
) -> (Result<VerifiedEvidence, ContractError>, u64) {
    let world = WorldState::new();
    let mut meter = GasMeter::new(50_000_000);
    let schedule = GasSchedule::evm_shaped();
    let mut storage = CallStorage::new(&world, &mut meter, &schedule, AccountId([0xEE; 20]));
    let verdict = verify_on_chain(bundle, checkpoint, bits, expected_txid, &mut storage);
    (verdict, storage.gas_used())
}

/// Fuzzes the free evidence check against the metered contract path.
pub fn diff_evidence_preflight(bytes: &[u8]) -> Result<(), String> {
    let shared = shared_btc();
    let mut src = ByteSource::new(bytes);
    let from = 1 + src.choice(10) as u64;
    let to = from + src.choice((10 - from as usize).max(1)) as u64;
    let expected_txid = shared.txids[src.choice(shared.txids.len())];
    let with_inclusion = src.bool();
    let evidence = SpvEvidence::from_chain(
        &shared.chain,
        from,
        to,
        with_inclusion.then_some(&expected_txid),
    );
    // The escrow's checkpoint is the honest anchor, so a mutation that
    // lands in the anchor reaches the checkpoint test.
    let checkpoint = evidence.segment.anchor;
    let mut buf = EvidenceBundle(evidence).encode();
    if src.bool() {
        let flips = 1 + src.choice(4);
        for _ in 0..flips {
            let pos = src.choice(buf.len());
            buf[pos] ^= 1 + src.u8() % 255;
        }
    }
    let Ok(bundle) = EvidenceBundle::decode(&buf) else {
        return Ok(()); // typed rejection is a pass for this engine
    };

    let bits = ChainParams::regtest().pow_limit_bits;
    let free = check_evidence(&bundle.0, &checkpoint, bits, &expected_txid);
    let (metered, gas) = metered_verdict(&bundle, &checkpoint, bits, &expected_txid);
    if metered != free.clone().map_err(ContractError::Revert) {
        return Err(format!(
            "the contract diverged from the free check: {metered:?} vs {free:?}"
        ));
    }
    let preflight = PayJudgerClient::preflight_evidence(
        &EvidenceVerifier,
        &bundle.0,
        &checkpoint,
        bits.0,
        &expected_txid,
    );
    if preflight != free.map(|verified| verified.summary) {
        return Err(format!(
            "preflight is not the check's summary: {preflight:?}"
        ));
    }

    // Gas prices the bundle's shape (header count, proof depth), never its
    // content: a twin tampered in place costs the same.
    let mut twin = bundle;
    match twin.0.segment.headers.len() {
        0 => twin.0.segment.anchor.0[0] ^= 1,
        n => twin.0.segment.headers[src.choice(n)].nonce ^= 1,
    }
    let (_, twin_gas) = metered_verdict(&twin, &checkpoint, bits, &expected_txid);
    if gas != twin_gas {
        return Err(format!(
            "gas depends on evidence content: {gas} vs {twin_gas} for the tampered twin"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_accept_arbitrary_seeds() {
        crate::tests::assert_clean_at_depth(crate::Engine::Diff);
    }

    #[test]
    fn empty_input_is_a_boring_schedule() {
        diff_chain_reorg(&[]).unwrap();
        diff_psc_replay(&[]).unwrap();
        diff_evidence_preflight(&[]).unwrap();
    }
}
