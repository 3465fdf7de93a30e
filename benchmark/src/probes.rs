//! Probes: direct timed calls into one layer's public function, on state
//! built the way the workloads build it. Only functions `crates/core`
//! itself calls on the payment, dispute and recovery paths are linked (the
//! README lists them as the measured surface).
//!
//! Probes do not depend on the workload, so every traced run reports all
//! of them; a change to one layer shows here before it shows end to end.

use crate::rng::SplitMix64;
use crate::stats::median;
use crate::workloads::crash_recover::{prefilled_media, HISTORY};
use crate::workloads::till::{steady_config, steady_threads};
use crate::workloads::AMOUNT_SATS;
use btcfast::engine::PaymentEngine;
use btcfast::recovery::RecoveryManager;
use btcfast::{FastPaySession, SessionConfig};
use btcfast_btcsim::mempool::Mempool;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::spv::HeaderSegment;
use btcfast_btcsim::wallet::Wallet;
use btcfast_btcsim::{Amount, Transaction};
use btcfast_crypto::batch::{verify_batch, BatchItem};
use btcfast_crypto::sha256::sha256d;
use btcfast_crypto::{Hash256, KeyPair, MerkleTree, WorkerPool};
use btcfast_netsim::latency::LatencyModel;
use btcfast_netsim::network::{Network, NodeId};
use btcfast_netsim::time::SimTime;
use btcfast_netsim::transport::{SendStatus, Transport, TransportConfig};
use btcfast_payjudger::PayJudgerClient;
use btcfast_store::{MemStorage, Wal};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe results by per-layer metric name.
pub type ProbeResults = BTreeMap<&'static str, f64>;

/// Batches each cheap probe is timed in; the fastest batch is reported,
/// since interference on a shared host only ever adds time.
const BATCHES: usize = 5;

/// Best per-call nanoseconds of `f`, spending about `budget` on it.
fn time_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    black_box(f());
    let once = started.elapsed().max(Duration::from_nanos(20));
    let per_batch =
        (budget.as_nanos() / BATCHES as u128 / once.as_nanos()).clamp(1, 1 << 20) as u64;
    (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best nanoseconds of a call that consumes fresh state each time:
/// `setup` builds the state untimed, `f` is timed once on it.
fn time_fresh_ns<S, R>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> f64 {
    (0..reps)
        .map(|_| {
            let state = setup();
            let started = Instant::now();
            black_box(f(state));
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A provisioned session holding `coins` confirmed customer coins.
fn funded_session(config: SessionConfig, seed: u64, coins: usize) -> FastPaySession {
    let mut session = FastPaySession::new(config, seed);
    session
        .fund_customer_coins(coins)
        .expect("probe funding blocks connect");
    session
}

/// `count` payments over disjoint confirmed coins, as the batch path
/// builds them.
fn disjoint_payments(session: &FastPaySession, count: usize) -> Vec<Transaction> {
    let amount = Amount::from_sats(AMOUNT_SATS).expect("amount in range");
    let fee = Amount::from_sats(session.config.btc_fee_sats).expect("fee in range");
    let mut exclude = HashSet::new();
    (0..count)
        .map(|_| {
            let tx = session
                .customer
                .build_btc_payment_excluding(
                    &session.btc,
                    session.merchant.btc_wallet().address(),
                    amount,
                    fee,
                    None,
                    &exclude,
                )
                .expect("a funded customer can pay");
            exclude.extend(tx.inputs.iter().map(|input| input.previous_output));
            tx
        })
        .collect()
}

/// Runs every probe, spending about `budget` on the cheap ones together.
pub fn run(seed: u64, budget: Duration) -> ProbeResults {
    let mut out = ProbeResults::new();
    // Twenty cheap probes share half the budget; fixtures and the
    // fixed-repetition probes (engine pairs, 100k-payment re-opens) take
    // what they take.
    let each = budget / 40;
    crypto(&mut out, seed, each);
    btcsim(&mut out, seed, each);
    pscsim_and_core(&mut out, seed, each);
    payjudger(&mut out, seed, each);
    netsim(&mut out, seed, each);
    store(&mut out, seed, each);
    obs(&mut out, seed, each);
    engine_pairs(&mut out, seed);
    out
}

fn crypto(out: &mut ProbeResults, seed: u64, each: Duration) {
    let mut rng = SplitMix64::new(seed);
    let keys: Vec<KeyPair> = (0..16)
        .map(|_| KeyPair::from_seed(&rng.next_u64().to_le_bytes()))
        .collect();
    let digest = sha256d(&seed.to_le_bytes()).0;
    out.insert(
        "crypto.sign_us",
        time_ns(each, || keys[0].sign(&digest)) / 1e3,
    );

    let items: Vec<BatchItem> = keys
        .iter()
        .map(|key| {
            let (signature, recovery) = key.sign_recoverable(&digest);
            BatchItem {
                pubkey: *key.public().point(),
                digest,
                signature,
                recovery: Some(recovery),
            }
        })
        .collect();
    let mut batch_seed = seed;
    let mut verify = |items: &[BatchItem]| {
        batch_seed = batch_seed.wrapping_add(1);
        let outcome = verify_batch(items, batch_seed);
        assert!(outcome.all_valid(), "probe signatures verify");
    };
    out.insert(
        "crypto.batch_verify_us_per_sig_b1",
        time_ns(each, || verify(&items[..1])) / 1e3,
    );
    out.insert(
        "crypto.batch_verify_us_per_sig_b16",
        time_ns(each, || verify(&items)) / 16.0 / 1e3,
    );

    let header = [0x5Au8; 80];
    out.insert(
        "crypto.sha256d_80b_ns",
        time_ns(each, || sha256d(black_box(&header))),
    );

    let leaves: Vec<Hash256> = (0..256u64).map(|i| sha256d(&i.to_le_bytes())).collect();
    let tree = MerkleTree::from_leaves(leaves.clone()).expect("256 leaves build a tree");
    let proof = tree.prove(77).expect("leaf 77 exists");
    let root = tree.root();
    assert_eq!(proof.depth(), 8);
    out.insert(
        "crypto.merkle_verify_d8_us",
        time_ns(each, || assert!(proof.verify(&leaves[77], &root))) / 1e3,
    );
}

fn btcsim(out: &mut ProbeResults, seed: u64, each: Duration) {
    let session = funded_session(SessionConfig::default(), seed, 8);
    let params = session.config.btc_params.clone();
    let foreign = Wallet::from_seed(b"probe network").address();
    let mut miner = Miner::new(params.clone(), foreign);
    let txs = disjoint_payments(&session, 8);
    let time = session.btc.tip_time() + 1;

    out.insert(
        "btcsim.mine_block_us_empty",
        time_ns(each, || miner.mine_block(&session.btc, vec![], time)) / 1e3,
    );
    out.insert(
        "btcsim.mine_block_us_8tx",
        time_ns(each, || miner.mine_block(&session.btc, txs.clone(), time)) / 1e3,
    );
    out.insert(
        "btcsim.build_payment_us",
        time_ns(each, || disjoint_payments(&session, 1)) / 1e3,
    );
    out.insert(
        "btcsim.mempool_insert_us",
        time_fresh_ns(32, Mempool::new, |mut pool| {
            for tx in &txs {
                pool.insert(
                    tx.clone(),
                    session.btc.utxo(),
                    session.btc.height() + 1,
                    time,
                )
                .expect("disjoint payments enter an empty pool");
            }
        }) / 8.0
            / 1e3,
    );

    // A chain grown to 2048 blocks by a foreign miner: the customer still
    // owns only its eight coins, so the scan measures height, not output.
    let wallet = session.customer.btc_wallet();
    out.insert(
        "btcsim.spendable_scan_us_h8",
        time_ns(each, || wallet.spendable(&session.btc)) / 1e3,
    );
    let mut chain = session.btc.clone();
    let mut submit_ns = Vec::new();
    while chain.height() < 2048 {
        let block = miner.mine_block(&chain, vec![], chain.tip_time() + 1);
        let started = Instant::now();
        chain.submit_block(block).expect("probe block connects");
        if chain.height() <= 64 {
            submit_ns.push(started.elapsed().as_nanos() as f64);
        }
    }
    out.insert("btcsim.submit_block_us", median(&submit_ns) / 1e3);
    out.insert(
        "btcsim.spendable_scan_us_h2k",
        time_ns(each, || wallet.spendable(&chain)) / 1e3,
    );

    // PayJudger's PoW check over the same chain's headers.
    let verifier = session.verifier();
    let min_target = params
        .pow_limit_bits
        .to_target()
        .expect("regtest limit decodes");
    let short = HeaderSegment::from_chain(&chain, 1, 6);
    let long = HeaderSegment::from_chain(&chain, 1, 256);
    out.insert(
        "payjudger.verify_segment_6_cold_us",
        time_ns(each, || {
            verifier.clear_cache();
            verifier.verify_segment(&short, &min_target)
        }) / 1e3,
    );
    out.insert(
        "payjudger.verify_segment_6_warm_us",
        time_ns(each, || verifier.verify_segment(&short, &min_target)) / 1e3,
    );
    out.insert(
        "payjudger.verify_segment_256_us",
        time_ns(each, || {
            verifier.clear_cache();
            verifier.verify_segment(&long, &min_target)
        }) / 1e3,
    );
}

fn pscsim_and_core(out: &mut ProbeResults, seed: u64, each: Duration) {
    let mut session = funded_session(SessionConfig::default(), seed ^ 1, 16);
    out.insert(
        "pscsim.state_commitment_us_s0",
        time_ns(each, || session.psc.state_commitment()) / 1e3,
    );
    let customer = session.customer.psc_account();
    out.insert(
        "pscsim.view_call_us",
        time_ns(each, || session.judger.escrow(&session.psc, customer)) / 1e3,
    );

    // Register 16 real payments the way the batch path does, timing the
    // PSC side, then evaluate each offer once (no signature is cached).
    let txs = disjoint_payments(&session, 16);
    let collateral = session.config.required_collateral(AMOUNT_SATS);
    let mut submit_ns = Vec::new();
    let mut produce_ns = Vec::new();
    let mut offers = Vec::new();
    for half in txs.chunks(8) {
        let nonce_base = session.psc.nonce_of(&customer);
        let mut hashes = Vec::new();
        for (i, tx) in half.iter().enumerate() {
            let open = session.customer.build_open_payment_at(
                &session.judger,
                nonce_base + i as u64,
                session.merchant.psc_account(),
                tx.txid(),
                AMOUNT_SATS,
                collateral,
            );
            let started = Instant::now();
            let hash = session
                .psc
                .submit_transaction(open)
                .expect("probe registration is signed");
            submit_ns.push(started.elapsed().as_nanos() as f64);
            hashes.push(hash);
        }
        let time = session.psc.tip_time() + 1;
        let started = Instant::now();
        session.psc.produce_block(time);
        produce_ns.push(started.elapsed().as_nanos() as f64);
        for (tx, hash) in half.iter().zip(&hashes) {
            let receipt = session.psc.receipt(hash).expect("registration executed");
            let payment_id =
                PayJudgerClient::payment_id_from(receipt).expect("registration assigns an id");
            offers.push(
                session
                    .customer
                    .make_offer(tx.clone(), payment_id, AMOUNT_SATS),
            );
        }
    }
    out.insert("pscsim.submit_tx_us", median(&submit_ns) / 1e3);
    out.insert("pscsim.produce_block_us_8tx", median(&produce_ns) / 1e3);
    let evaluate_ns: Vec<f64> = offers
        .iter()
        .map(|offer| {
            let started = Instant::now();
            let decision = session.merchant.evaluate_offer(
                offer,
                &session.btc,
                &session.mempool,
                &session.psc,
                &session.judger,
            );
            let elapsed = started.elapsed().as_nanos() as f64;
            assert!(decision.is_ok(), "probe offer is acceptable: {decision:?}");
            elapsed
        })
        .collect();
    out.insert("core.evaluate_offer_us", median(&evaluate_ns) / 1e3);

    // Grow the escrow to 2048 open payments (PSC side only).
    let mut registered = 16u64;
    while registered < 2048 {
        let nonce_base = session.psc.nonce_of(&customer);
        for i in 0..8u64 {
            let open = session.customer.build_open_payment_at(
                &session.judger,
                nonce_base + i,
                session.merchant.psc_account(),
                sha256d(&(registered + i).to_le_bytes()),
                1_000,
                1_200,
            );
            session
                .psc
                .submit_transaction(open)
                .expect("probe registration is signed");
        }
        let time = session.psc.tip_time() + 1;
        session.psc.produce_block(time);
        registered += 8;
    }
    out.insert(
        "pscsim.state_commitment_us_s2k",
        time_ns(each, || session.psc.state_commitment()) / 1e3,
    );
}

fn payjudger(out: &mut ProbeResults, seed: u64, each: Duration) {
    // One confirmed payment with six blocks on top: the evidence a dispute
    // over it would submit.
    let mut session = funded_session(SessionConfig::default(), seed ^ 2, 1);
    let report = session
        .run_fast_payment(AMOUNT_SATS)
        .expect("probe payment succeeds");
    for _ in 0..6 {
        session.advance_clock(SimTime::from_secs(600));
        session
            .mine_public_block()
            .expect("probe confirmation connects");
    }
    let evidence = session
        .merchant
        .build_dispute_evidence(&session.btc, &report.txid);
    let min_target_bits = session.config.btc_params.pow_limit_bits.0;
    let verifier = session.verifier();
    out.insert(
        "payjudger.preflight_us",
        time_ns(each, || {
            verifier.clear_cache();
            PayJudgerClient::preflight_evidence(
                verifier,
                &evidence,
                &Hash256::ZERO,
                min_target_bits,
                &report.txid,
            )
            .expect("probe evidence passes preflight")
        }) / 1e3,
    );
}

fn netsim(out: &mut ProbeResults, seed: u64, each: Duration) {
    let mut network = Network::new(2, LatencyModel::wan());
    network.set_loss_probability(0.25);
    let config = TransportConfig {
        max_attempts: 20,
        ..TransportConfig::default()
    };
    let mut transport: Transport<u8> = Transport::new(network, config, seed);
    out.insert(
        "netsim.roundtrip_us",
        time_ns(each, || {
            let id = transport.send(NodeId(0), NodeId(1), 0);
            while transport.status(id) == SendStatus::Pending {
                let next = transport
                    .next_event_at()
                    .expect("a pending send has a timer");
                transport.run_until(next);
            }
            transport.take_inbox(NodeId(1))
        }) / 1e3,
    );
}

fn store(out: &mut ProbeResults, seed: u64, each: Duration) {
    let payload = [0xA5u8; 64];
    let (mut wal, _) = Wal::open(MemStorage::new()).expect("fresh log opens");
    out.insert(
        "store.wal_append_us",
        time_ns(each, || wal.append(&payload).expect("in-memory append")) / 1e3,
    );

    let (media_wal, media_snapshot) = prefilled_media(seed << 24, HISTORY);
    let records = HISTORY as f64 * 6.0;
    out.insert(
        "store.scan_us_per_1k_records",
        time_fresh_ns(
            3,
            || (),
            |()| btcfast_store::wal::scan(&media_wal).records.len(),
        ) / 1e3
            / (records / 1e3),
    );
    let open = |snapshot: Vec<u8>| {
        RecoveryManager::open(
            MemStorage::from_bytes(media_wal.clone()),
            MemStorage::from_bytes(snapshot),
        )
        .expect("prefilled media re-open")
    };
    out.insert(
        "store.reopen_ms_full_100k",
        time_fresh_ns(3, Vec::new, |snapshot| {
            assert!(!open(snapshot).1.snapshot_used)
        }) / 1e6,
    );
    out.insert(
        "store.reopen_ms_snapshot_100k",
        time_fresh_ns(
            3,
            || media_snapshot.clone(),
            |snapshot| assert!(open(snapshot).1.snapshot_used),
        ) / 1e6,
    );
    let (mut manager, _) = open(media_snapshot.clone());
    out.insert(
        "store.snapshot_save_ms_100k",
        time_fresh_ns(
            3,
            || (),
            |()| manager.checkpoint().expect("in-memory snapshot saves"),
        ) / 1e6,
    );
}

fn obs(out: &mut ProbeResults, seed: u64, each: Duration) {
    let mut session = funded_session(SessionConfig::default(), seed ^ 3, 8);
    for _ in 0..8 {
        session
            .run_fast_payment_batch(&[AMOUNT_SATS; 8])
            .expect("probe batch succeeds");
        session
            .mine_public_block()
            .expect("probe confirmation connects");
    }
    let events = session.take_trace();
    out.insert(
        "obs.render_jsonl_us_per_1k_events",
        time_ns(each, || btcfast_obs::render_jsonl(&events)) / 1e3 / (events.len() as f64 / 1e3),
    );
}

/// Paired engine runs: the same `till_steady` slice with one knob flipped,
/// alternating sides so drift on a shared box cancels.
fn engine_pairs(out: &mut ProbeResults, seed: u64) {
    const PAIRS: u64 = 3;
    let timed = |engine: &PaymentEngine, seed: u64, pool: &WorkerPool| {
        let started = Instant::now();
        let report = engine.run(seed, pool).expect("probe engine run succeeds");
        (started.elapsed().as_secs_f64(), report.fingerprint)
    };

    let traced = PaymentEngine::new(steady_config(true));
    let untraced = PaymentEngine::new(steady_config(false));
    let wide = WorkerPool::new(steady_threads());
    let narrow = WorkerPool::new(1);
    let mut tracing_cost = Vec::new();
    let mut speedup = Vec::new();
    let mut fingerprints_agree = true;
    for pair in 0..PAIRS {
        let seed = seed.wrapping_add(pair);
        let (on, off) = if pair % 2 == 0 {
            let on = timed(&traced, seed, &wide).0;
            (on, timed(&untraced, seed, &wide).0)
        } else {
            let off = timed(&untraced, seed, &wide).0;
            (timed(&traced, seed, &wide).0, off)
        };
        tracing_cost.push(on / off - 1.0);

        let ((one, print_one), (many, print_many)) = if pair % 2 == 0 {
            let one = timed(&traced, seed, &narrow);
            (one, timed(&traced, seed, &wide))
        } else {
            let many = timed(&traced, seed, &wide);
            (timed(&traced, seed, &narrow), many)
        };
        speedup.push(one / many);
        fingerprints_agree &= print_one == print_many;
    }
    out.insert("obs.tracing_cost_share", median(&tracing_cost));
    out.insert("core.pool_speedup", median(&speedup));
    out.insert(
        "check.fingerprint_1_vs_n_threads",
        f64::from(u8::from(fingerprints_agree)),
    );
}
