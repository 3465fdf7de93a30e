//! Structure-aware codec round-trip fuzz targets.
//!
//! Every target asserts the same contract from two directions:
//!
//! * **structural** — a value built from the byte stream must survive
//!   `decode(encode(x)) == x` exactly;
//! * **hostile** — arbitrary (or bit-flipped) bytes fed to a decoder must
//!   either yield a value that re-encodes to the *identical* bytes, or a
//!   typed [`CodecError`] — never a panic, never a silently re-normalised
//!   value.
//!
//! The `compact-bits` target is differential: the production
//! encode/decode pair is compared against an independent re-statement of
//! Bitcoin Core's `SetCompact`/`GetCompact`. This is the target that
//! caught the sign-bit and truncating-cast bugs fixed in
//! `btcsim::pow` (see the committed corpus).

use crate::source::ByteSource;
use btcfast::recovery::{JournalRecord, Outcome, Step};
use btcfast_btcsim::block::BlockHeader;
use btcfast_btcsim::params::ChainParams;
use btcfast_btcsim::pow::{CompactBits, CompactBitsError};
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::transaction::{OutPoint, TxIn, TxOut};
use btcfast_btcsim::{Amount, Chain, Transaction, U256};
use btcfast_crypto::hex;
use btcfast_crypto::Hash256;
use btcfast_payjudger::evidence::EvidenceBundle;
use btcfast_payjudger::types::{
    CheckpointRecord, EscrowRecord, EvidenceSummary, JudgerConfig, PaymentRecord, PaymentState,
};
use btcfast_payjudger::Call;
use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::codec::{CodecError, Decode, Encode};
use std::sync::OnceLock;

/// Asserts `decode(encode(value)) == value`.
fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) -> Result<(), String> {
    let encoded = value.encode();
    match T::decode(&encoded) {
        Ok(back) if &back == value => Ok(()),
        Ok(back) => Err(format!(
            "round-trip mismatch: {value:?} decoded as {back:?}"
        )),
        Err(e) => Err(format!("canonical encoding rejected: {value:?}: {e}")),
    }
}

/// Asserts hostile bytes either decode to a value that re-encodes to the
/// identical buffer, or fail with a typed error.
fn hostile_decode<T: Encode + Decode>(buf: &[u8], label: &str) -> Result<(), String> {
    match T::decode(buf) {
        Ok(value) => {
            let re = value.encode();
            if re == buf {
                Ok(())
            } else {
                Err(format!(
                    "{label}: accepted non-canonical bytes {} (re-encodes as {})",
                    hex::encode(buf),
                    hex::encode(&re)
                ))
            }
        }
        Err(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// compact-bits: differential against Bitcoin Core's SetCompact/GetCompact.
// ---------------------------------------------------------------------------

/// Independent restatement of Bitcoin Core's `arith_uint256::SetCompact`
/// classification, with the same error precedence the production decoder
/// documents: zero mantissa first, then sign bit, then overflow.
fn set_compact_ref(bits: u32) -> Result<U256, CompactBitsError> {
    let exp = (bits >> 24) as i64;
    let mantissa = bits & 0x007f_ffff;
    if mantissa == 0 {
        return Err(CompactBitsError::Zero);
    }
    if bits & 0x0080_0000 != 0 {
        return Err(CompactBitsError::Negative);
    }
    if exp > 34 || (mantissa > 0xff && exp > 33) || (mantissa > 0xffff && exp > 32) {
        return Err(CompactBitsError::Overflow);
    }
    let mut be = [0u8; 32];
    let m = [
        (mantissa >> 16) as u8,
        (mantissa >> 8) as u8,
        mantissa as u8,
    ];
    for (i, &byte) in m.iter().enumerate() {
        let sig = exp - 1 - i as i64;
        if !(0..32).contains(&sig) {
            continue;
        }
        be[31 - sig as usize] = byte;
    }
    let target = U256::from_be_bytes(&be);
    if target.is_zero() {
        return Err(CompactBitsError::Zero);
    }
    Ok(target)
}

/// Independent restatement of `arith_uint256::GetCompact` (never sets the
/// sign bit: mantissas with the top bit high shift right and bump the
/// exponent).
fn get_compact_ref(target: &U256) -> u32 {
    let be = target.to_be_bytes();
    let size = 32 - be.iter().take_while(|&&b| b == 0).count();
    if size == 0 {
        return 0;
    }
    let mut mantissa: u32 = 0;
    for i in 0..3 {
        let sig = size as i64 - 1 - i;
        let byte = if sig >= 0 { be[31 - sig as usize] } else { 0 };
        mantissa = (mantissa << 8) | u32::from(byte);
    }
    let mut exponent = size as u32;
    if mantissa & 0x0080_0000 != 0 {
        mantissa >>= 8;
        exponent += 1;
    }
    (exponent << 24) | mantissa
}

/// Differential fuzz of [`CompactBits`] against the reference pair.
pub fn fuzz_compact_bits(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);

    // Decode direction: an arbitrary u32 must classify identically. A
    // quarter of the draws are edge-biased — independent exponent plus a
    // mantissa from the boundary set (zero, sign bit, extremes) that a
    // uniform u32 essentially never hits. The sign-bit-with-zero-mantissa
    // misclassification lived in exactly that 2^-24 corner.
    let bits = if src.u8().is_multiple_of(4) {
        let exponent = u32::from(src.u8()) % 40;
        let mantissa = match src.u8() % 6 {
            0 => 0,
            1 => 0x0080_0000,
            2 => 0x007f_ffff,
            3 => 0x0000_0001,
            4 => 0x0000_8000,
            _ => src.u32() & 0x00ff_ffff,
        };
        (exponent << 24) | mantissa
    } else {
        src.u32()
    };
    let ours = CompactBits(bits).to_target();
    let reference = set_compact_ref(bits);
    match (&ours, &reference) {
        (Ok(a), Ok(b)) if a == b => {
            // Round trip: the canonical re-encoding must be a fixpoint and
            // match the reference encoder.
            let re = CompactBits::from_target(a);
            let ref_bits = get_compact_ref(a);
            if re.0 != ref_bits {
                return Err(format!(
                    "from_target(to_target(0x{bits:08x})) = 0x{:08x}, reference encoder says 0x{ref_bits:08x}",
                    re.0
                ));
            }
            match re.to_target() {
                Ok(again) if &again == a => {}
                other => {
                    return Err(format!(
                        "re-encoding 0x{bits:08x} -> 0x{:08x} failed to decode back: {other:?}",
                        re.0
                    ))
                }
            }
        }
        (Err(a), Err(b)) if a == b => {}
        _ => {
            return Err(format!(
                "compact-bits 0x{bits:08x}: production {ours:?} vs reference {reference:?}"
            ))
        }
    }

    // Encode direction: an arbitrary 256-bit target must encode identically
    // to the reference, and the encoding must be a decodable fixpoint that
    // never exceeds the original value.
    let mut word = [0u8; 32];
    src.fill(&mut word);
    let target = U256::from_be_bytes(&word);
    let compact = CompactBits::from_target(&target);
    let ref_bits = get_compact_ref(&target);
    if compact.0 != ref_bits {
        return Err(format!(
            "from_target({}) = 0x{:08x}, reference says 0x{ref_bits:08x}",
            hex::encode(&word),
            compact.0
        ));
    }
    if !target.is_zero() {
        match compact.to_target() {
            Ok(decoded) => {
                if decoded > target {
                    return Err(format!(
                        "compact truncation rounded {} up to {}",
                        hex::encode(&word),
                        hex::encode(&decoded.to_be_bytes())
                    ));
                }
                if CompactBits::from_target(&decoded).0 != compact.0 {
                    return Err(format!(
                        "encoding of {} is not a fixpoint",
                        hex::encode(&word)
                    ));
                }
            }
            Err(e) => {
                return Err(format!(
                    "encoding of non-zero target {} does not decode: {e:?}",
                    hex::encode(&word)
                ))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// block-header: the 88-byte wire format is a bijection.
// ---------------------------------------------------------------------------

/// Any 88 bytes decode to a header that re-encodes to the same 88 bytes.
pub fn fuzz_block_header(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let mut raw = [0u8; 88];
    src.fill(&mut raw);
    let header = BlockHeader::decode(&raw);
    let re = header.encode();
    if re != raw {
        return Err(format!(
            "header codec is not bijective: {} re-encoded as {}",
            hex::encode(&raw),
            hex::encode(&re)
        ));
    }
    if header.hash() != BlockHeader::decode(&raw).hash() {
        return Err("header hash is not a pure function of the bytes".into());
    }
    // target()/work() must classify, not panic, on arbitrary bits.
    let _ = header.target();
    let _ = header.work();
    Ok(())
}

// ---------------------------------------------------------------------------
// psc-values: the pscsim storage/ABI codec primitives, and the recovery
// journal's records built on them.
// ---------------------------------------------------------------------------

fn step_from(src: &mut ByteSource<'_>) -> Step {
    let mut txid = [0u8; 32];
    src.fill(&mut txid);
    let (txid, payment_id) = (Hash256(txid), src.u64());
    match src.choice(9) {
        0 => Step::EscrowOpen {
            deposit_units: src.u128(),
            psc_nonce: src.u64(),
        },
        1 => Step::OpenPayment {
            txid,
            amount_sats: src.u64(),
            collateral: src.u128(),
            psc_nonce: src.u64(),
        },
        2 => Step::OfferSend { payment_id, txid },
        3 => Step::AcceptanceSend {
            payment_id,
            accepted: src.bool(),
        },
        4 => Step::Broadcast { payment_id, txid },
        5 => Step::DisputeOpen {
            payment_id,
            psc_nonce: src.u64(),
        },
        6 => Step::EvidenceSubmit {
            payment_id,
            txid,
            psc_nonce: src.u64(),
        },
        7 => Step::JudgeCall {
            payment_id,
            psc_nonce: src.u64(),
        },
        _ => Step::Verdict {
            payment_id,
            merchant_wins: src.bool(),
        },
    }
}

fn outcome_from(src: &mut ByteSource<'_>) -> Outcome {
    match src.choice(4) {
        0 => Outcome::Applied,
        1 => Outcome::PaymentRegistered {
            payment_id: src.u64(),
        },
        2 => Outcome::Rejected,
        _ => Outcome::Abandoned,
    }
}

/// Structural + hostile fuzz of every primitive the pscsim codec ships,
/// and of the journal records recovery writes with it.
pub fn fuzz_psc_values(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let selector = src.u8() % 16;
    match selector {
        0 => round_trip(&src.u8())?,
        1 => round_trip(&src.u16())?,
        2 => round_trip(&src.u32())?,
        3 => round_trip(&src.u64())?,
        4 => round_trip(&src.u128())?,
        5 => round_trip(&src.bool())?,
        6 => {
            let len = src.choice(48);
            let value = String::from_utf8_lossy(&src.bytes(len)).into_owned();
            round_trip(&value)?;
        }
        7 => {
            let mut hash = [0u8; 32];
            src.fill(&mut hash);
            round_trip(&Hash256(hash))?;
        }
        8 => {
            let mut id = [0u8; 20];
            src.fill(&mut id);
            round_trip(&AccountId(id))?;
        }
        9 => {
            let value = if src.bool() { Some(src.u64()) } else { None };
            round_trip(&value)?;
        }
        10 => {
            let len = src.choice(17);
            let value: Vec<u32> = (0..len).map(|_| src.u32()).collect();
            round_trip(&value)?;
        }
        11 => {
            let mut hash = [0u8; 32];
            src.fill(&mut hash);
            round_trip(&(src.u64(), Hash256(hash)))?;
        }
        13 => round_trip(&step_from(&mut src))?,
        14 => round_trip(&outcome_from(&mut src))?,
        15 => round_trip(&if src.bool() {
            JournalRecord::Begin {
                step: step_from(&mut src),
            }
        } else {
            JournalRecord::Done {
                intent: src.u64(),
                outcome: outcome_from(&mut src),
            }
        })?,
        _ => {
            let len = src.choice(64);
            let value: Vec<u8> = src.bytes(len);
            round_trip(&value)?;
        }
    }

    // Whatever bytes remain are a hostile buffer for the same type family.
    let rest = src.rest();
    match selector {
        0 => hostile_decode::<u8>(rest, "u8")?,
        1 => hostile_decode::<u16>(rest, "u16")?,
        2 => hostile_decode::<u32>(rest, "u32")?,
        3 => hostile_decode::<u64>(rest, "u64")?,
        4 => hostile_decode::<u128>(rest, "u128")?,
        5 => hostile_decode::<bool>(rest, "bool")?,
        6 => hostile_decode::<String>(rest, "String")?,
        7 => hostile_decode::<Hash256>(rest, "Hash256")?,
        8 => hostile_decode::<AccountId>(rest, "AccountId")?,
        9 => hostile_decode::<Option<u64>>(rest, "Option<u64>")?,
        10 => hostile_decode::<Vec<u32>>(rest, "Vec<u32>")?,
        11 => hostile_decode::<(u64, Hash256)>(rest, "(u64, Hash256)")?,
        13 => hostile_decode::<Step>(rest, "Step")?,
        14 => hostile_decode::<Outcome>(rest, "Outcome")?,
        15 => hostile_decode::<JournalRecord>(rest, "JournalRecord")?,
        _ => hostile_decode::<Vec<u8>>(rest, "Vec<u8>")?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// judger-types: the payjudger's persisted record codecs.
// ---------------------------------------------------------------------------

fn summary_from(src: &mut ByteSource<'_>) -> EvidenceSummary {
    let mut work = [0u8; 32];
    src.fill(&mut work);
    let mut tip = [0u8; 32];
    src.fill(&mut tip);
    EvidenceSummary {
        work,
        blocks: src.u64(),
        tip: Hash256(tip),
        includes_tx: src.bool(),
        tx_confirmations: src.u64(),
    }
}

fn config_from(src: &mut ByteSource<'_>) -> JudgerConfig {
    let mut checkpoint = [0u8; 32];
    src.fill(&mut checkpoint);
    JudgerConfig {
        checkpoint: Hash256(checkpoint),
        min_target_bits: src.u32(),
        challenge_window_secs: src.u64(),
        min_evidence_blocks: src.u64(),
    }
}

/// Structural + hostile fuzz of every record the judger persists, then of
/// one call of its ABI.
pub fn fuzz_judger_types(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let selector = src.u8() % 6;
    match selector {
        0 => {
            round_trip(&config_from(&mut src))?;
            hostile_decode::<JudgerConfig>(src.rest(), "JudgerConfig")?;
        }
        1 => {
            let mut customer = [0u8; 20];
            src.fill(&mut customer);
            round_trip(&EscrowRecord {
                customer: AccountId(customer),
                balance: src.u128(),
                locked: src.u128(),
                payment_count: src.u64(),
            })?;
            hostile_decode::<EscrowRecord>(src.rest(), "EscrowRecord")?;
        }
        2 => {
            let states = [
                PaymentState::Open,
                PaymentState::Acked,
                PaymentState::Closed,
                PaymentState::Disputed,
                PaymentState::MerchantPaid,
                PaymentState::CustomerCleared,
            ];
            round_trip(&states[src.choice(states.len())])?;
            hostile_decode::<PaymentState>(src.rest(), "PaymentState")?;
        }
        3 => {
            round_trip(&summary_from(&mut src))?;
            hostile_decode::<EvidenceSummary>(src.rest(), "EvidenceSummary")?;
        }
        4 => {
            let mut hash = [0u8; 32];
            src.fill(&mut hash);
            round_trip(&CheckpointRecord {
                hash: Hash256(hash),
                advanced_blocks: src.u64(),
                advanced_at: src.u64(),
            })?;
            hostile_decode::<CheckpointRecord>(src.rest(), "CheckpointRecord")?;
        }
        _ => {
            let mut checkpoint = [0u8; 32];
            src.fill(&mut checkpoint);
            let mut merchant = [0u8; 20];
            src.fill(&mut merchant);
            let mut txid = [0u8; 32];
            src.fill(&mut txid);
            let states = [
                PaymentState::Open,
                PaymentState::Acked,
                PaymentState::Closed,
                PaymentState::Disputed,
                PaymentState::MerchantPaid,
                PaymentState::CustomerCleared,
            ];
            let state = states[src.choice(states.len())];
            round_trip(&PaymentRecord {
                checkpoint: Hash256(checkpoint),
                merchant: AccountId(merchant),
                btc_txid: Hash256(txid),
                amount_sats: src.u64(),
                collateral: src.u128(),
                opened_at: src.u64(),
                disputed_at: src.u64(),
                state,
                merchant_evidence: summary_from(&mut src),
                customer_evidence: summary_from(&mut src),
            })?;
            hostile_decode::<PaymentRecord>(src.rest(), "PaymentRecord")?;
        }
    }
    fuzz_judger_call(&mut src)
}

/// One PayJudger call drawn after the record: it survives its way through
/// `(method, args)`, and its args one byte short or long are refused.
fn fuzz_judger_call(src: &mut ByteSource<'_>) -> Result<(), String> {
    let shared = shared_btc();
    let mut id = [0u8; 20];
    src.fill(&mut id);
    let mut txid = [0u8; 32];
    src.fill(&mut txid);
    let (customer, txid, payment_id) = (AccountId(id), Hash256(txid), src.u64());
    let evidence = |src: &mut ByteSource<'_>| {
        let to = 1 + src.choice(10) as u64;
        let txid = src.bool().then(|| &shared.txids[to as usize - 1]);
        EvidenceBundle(SpvEvidence::from_chain(&shared.chain, 1, to, txid))
    };
    let call = match src.choice(14) {
        0 => Call::Init(config_from(src)),
        1 => Call::Deposit(src.u128()),
        2 => Call::OpenPayment(customer, txid, src.u64(), src.u128()),
        3 => Call::AckPayment(customer, payment_id),
        4 => Call::ClosePayment(payment_id),
        5 => Call::Dispute(customer, payment_id),
        6 => Call::SubmitEvidence(customer, payment_id, evidence(src)),
        7 => Call::Judge(customer, payment_id),
        8 => Call::Withdraw(src.u128()),
        9 => Call::AdvanceCheckpoint(evidence(src)),
        10 => Call::GetConfig,
        11 => Call::GetEscrow(customer),
        12 => Call::GetPayment(customer, payment_id),
        _ => Call::GetCheckpoint,
    };
    let (method, mut args) = (call.method(), call.args());
    // Equal but for the deposit's attached value, which is not an arg.
    match Call::decode(method, &args) {
        Ok(Some(back)) if back.method() == method && back.args() == args => {}
        other => return Err(format!("{call:?} came back through its args as {other:?}")),
    }
    if let Some(last) = args.len().checked_sub(1) {
        let short = Call::decode(method, &args[..last]);
        if short != Err(CodecError::UnexpectedEnd) {
            return Err(format!("{method} one byte short: {short:?}"));
        }
    }
    args.push(src.u8());
    let long = Call::decode(method, &args);
    if long != Err(CodecError::TrailingBytes(1)) {
        return Err(format!("{method} one byte long: {long:?}"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// evidence-bundle: valid SPV evidence survives the wire; mutations are
// typed-rejected or canonical.
// ---------------------------------------------------------------------------

/// A small Bitcoin chain shared (read-only) by evidence-based targets.
pub struct SharedBtc {
    /// 10-block regtest chain.
    pub chain: Chain,
    /// Coinbase txids of blocks 1..=10, in height order.
    pub txids: Vec<Hash256>,
}

static SHARED_BTC: OnceLock<SharedBtc> = OnceLock::new();

/// Lazily mines and caches the shared evidence chain.
pub fn shared_btc() -> &'static SharedBtc {
    SHARED_BTC.get_or_init(|| {
        let params = ChainParams::regtest();
        let mut chain = Chain::new(params.clone());
        let mut miner =
            btcfast_btcsim::miner::Miner::new(params, btcfast_crypto::keys::Address([0x5E; 20]));
        let mut txids = Vec::new();
        for height in 1..=10u64 {
            let block = miner.mine_block(&chain, vec![], height * 600);
            txids.push(block.transactions[0].txid());
            chain
                .submit_block(block)
                .expect("shared chain block connects");
        }
        SharedBtc { chain, txids }
    })
}

/// Round-trips honestly built evidence bundles, then bit-flips them.
pub fn fuzz_evidence_bundle(bytes: &[u8]) -> Result<(), String> {
    let shared = shared_btc();
    let mut src = ByteSource::new(bytes);
    let from = 1 + src.choice(10) as u64;
    let to = from + src.choice((10 - from as usize).max(1)) as u64;
    let txid = if src.bool() {
        Some(shared.txids[src.choice(shared.txids.len())])
    } else {
        None
    };
    let evidence = SpvEvidence::from_chain(&shared.chain, from, to, txid.as_ref());
    let bundle = EvidenceBundle(evidence);
    round_trip(&bundle)?;

    let mut buf = bundle.encode();
    let flips = 1 + src.choice(6);
    for _ in 0..flips {
        let pos = src.choice(buf.len());
        buf[pos] ^= 1 + src.u8() % 255;
    }
    hostile_decode::<EvidenceBundle>(&buf, "EvidenceBundle")?;
    // A decodable mutation must still *verify* without panicking.
    if let Ok(mutated) = EvidenceBundle::decode(&buf) {
        let min_target = shared
            .chain
            .params()
            .pow_limit_bits
            .to_target()
            .expect("regtest limit decodes");
        let _ = mutated.0.verify(&min_target);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// btc-transaction: structural checks and txid determinism on arbitrary
// transaction shapes.
// ---------------------------------------------------------------------------

/// Builds arbitrary transactions and exercises the structural validators.
pub fn fuzz_btc_transaction(bytes: &[u8]) -> Result<(), String> {
    let mut src = ByteSource::new(bytes);
    let n_inputs = src.choice(4);
    let n_outputs = src.choice(4);
    let mut inputs = Vec::with_capacity(n_inputs);
    for _ in 0..n_inputs {
        let mut txid = [0u8; 32];
        src.fill(&mut txid);
        if src.bool() {
            let data_len = src.choice(16);
            inputs.push(TxIn {
                previous_output: OutPoint::NULL,
                coinbase_data: src.bytes(data_len),
                witness: None,
            });
        } else {
            inputs.push(TxIn::spend(OutPoint {
                txid: Hash256(txid),
                vout: src.u32() % 8,
            }));
        }
    }
    let mut outputs = Vec::with_capacity(n_outputs);
    for _ in 0..n_outputs {
        let sats = src.u64() % 21_000_000_000_000;
        let value = Amount::from_sats(sats).map_err(|e| format!("amount cap violated: {e:?}"))?;
        let mut addr = [0u8; 20];
        src.fill(&mut addr);
        outputs.push(TxOut::payment(value, btcfast_crypto::keys::Address(addr)));
    }
    let mut tx = Transaction::new(inputs, outputs);
    tx.version = src.u32();
    tx.lock_time = src.u64();

    // Structural validation must classify, not abort.
    let _ = tx.check_structure();
    // The txid is a pure function of the core encoding.
    let core_a = tx.encode_core();
    let core_b = tx.encode_core();
    if core_a != core_b || tx.txid() != tx.txid() {
        return Err("transaction core encoding is not deterministic".into());
    }
    if tx.size_bytes() < core_a.len() {
        return Err("size_bytes smaller than the core encoding".into());
    }
    // Witness verification on unsigned inputs must error, not panic.
    for index in 0..tx.inputs.len() {
        let _ = tx.verify_input(
            index,
            &btcfast_btcsim::script::ScriptPubKey::P2pkh(btcfast_crypto::keys::Address([0; 20])),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// trace-context: causal attribution is purely observational.
// ---------------------------------------------------------------------------

/// Sends under a [`TraceContext`](btcfast_obs::TraceContext) drawn from the stream, over a lossy
/// transport. The contract: attribution never changes delivery — the
/// traced transport replays identically to an untraced twin (status,
/// inbox, counters) — and every event it attributes stays in the
/// context's trace; an unattributed context attributes nothing.
pub fn fuzz_trace_context(bytes: &[u8]) -> Result<(), String> {
    use btcfast_netsim::latency::LatencyModel;
    use btcfast_netsim::network::{Network, NodeId};
    use btcfast_netsim::transport::{Transport, TransportConfig};
    use btcfast_obs::TraceContext;

    let mut src = ByteSource::new(bytes);
    let ctx = TraceContext {
        trace_id: src.u64(),
        span_id: src.u64(),
        parent_id: src.u64(),
    };
    let seed = src.u64();
    let loss = f64::from(src.u8() % 100) / 100.0;
    let build = || {
        let mut net = Network::new(2, LatencyModel::Constant { secs: 0.01 });
        net.set_loss_probability(loss);
        Transport::new(net, TransportConfig::default(), seed)
    };
    let mut traced: Transport<u8> = build();
    let mut plain: Transport<u8> = build();
    let traced_id = traced.send_traced(NodeId(0), NodeId(1), 7, ctx, 1_000);
    let plain_id = plain.send(NodeId(0), NodeId(1), 7);
    traced.run_until_idle();
    plain.run_until_idle();
    if traced.status(traced_id) != plain.status(plain_id)
        || traced.take_inbox(NodeId(1)) != plain.take_inbox(NodeId(1))
    {
        return Err("attribution changed transport behavior".into());
    }
    if traced.stats() != plain.stats() {
        return Err("attribution changed transport counters".into());
    }
    // An unattributed context attributes nothing.
    let in_trace = |c: TraceContext| ctx.is_attributed() && c.trace_id == ctx.trace_id;
    let events = traced.take_trace_events();
    match events.iter().find(|e| !e.ctx.is_some_and(in_trace)) {
        Some(e) => Err(format!("event {} escaped the trace of {ctx:?}", e.name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_bits_reference_agrees_on_known_vectors() {
        // Canonical mainnet genesis bits.
        assert_eq!(
            set_compact_ref(0x1d00ffff).unwrap(),
            CompactBits(0x1d00ffff).to_target().unwrap()
        );
        // Sign bit with zero mantissa is zero, not negative.
        assert_eq!(set_compact_ref(0x03800000), Err(CompactBitsError::Zero));
        // Sign bit with non-zero mantissa is negative.
        assert_eq!(set_compact_ref(0x04800001), Err(CompactBitsError::Negative));
        assert_eq!(get_compact_ref(&U256::MAX), 0x2100ffff);
    }

    #[test]
    fn targets_accept_arbitrary_seeds() {
        crate::tests::assert_clean_at_depth(crate::Engine::Codec);
        // Every psc-values selector, the journal records included: a
        // seeded draw may miss one.
        for selector in 0u8..16 {
            let mut bytes = vec![0xA5; 96];
            bytes[0] = selector;
            fuzz_psc_values(&bytes).unwrap();
        }
    }

    #[test]
    fn trace_context_target_survives_hostile_wire_bytes() {
        // Many stream shapes: attributed and unattributed contexts,
        // varying transport seeds and loss rates.
        for seed in 0u8..32 {
            let mut bytes = vec![0u8; 128];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = seed
                    .wrapping_mul(37)
                    .wrapping_add(i as u8)
                    .wrapping_mul(101);
            }
            fuzz_trace_context(&bytes).unwrap();
        }
        // Empty and short streams degrade to the boring schedule.
        fuzz_trace_context(&[]).unwrap();
        fuzz_trace_context(&[0xFF; 3]).unwrap();
    }

    #[test]
    fn hostile_decode_flags_non_canonical_acceptance() {
        // 0x2 tag for bool would round-trip to 0x1 if bool decoding were
        // lax; the codec rejects it, which hostile_decode accepts.
        hostile_decode::<bool>(&[2], "bool").unwrap();
    }
}
