//! Well-formedness of the causal span forest (PR 9 satellite).
//!
//! Every traced run — plain sessions, batches, disputes, and chaos
//! sessions under packet loss — must render a JSONL trace that
//! reconstructs into a proper forest: exactly one root span per
//! payment, no orphaned `parent_id`, no cycles, and every child span's
//! interval nested inside its parent's. The chaos checks additionally
//! assert the critical-path invariant the e15 experiment depends on:
//! per-bucket self-times sum exactly to the root span's duration.

use btcfast::chaos::ChaosSession;
use btcfast::config::SessionConfig;
use btcfast::engine::{EngineConfig, PaymentEngine};
use btcfast::robustness::ChaosConfig;
use btcfast::session::FastPaySession;
use btcfast_crypto::WorkerPool;
use btcfast_netsim::faults::FaultPlan;
use btcfast_netsim::time::SimTime;
use btcfast_obs::critical_path::breakdown;
use btcfast_obs::{build_trees, check_nesting, render_jsonl, SpanTree};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Builds the forest from a rendered trace and asserts structural
/// well-formedness of every tree.
fn well_formed_forest(jsonl: &str) -> Vec<SpanTree> {
    let trees = build_trees(jsonl).expect("trace reconstructs into a forest");
    for tree in &trees {
        check_nesting(tree).unwrap_or_else(|(parent, child)| {
            panic!(
                "span {child} escapes its parent {parent} in trace {}",
                tree.trace_id
            )
        });
    }
    trees
}

#[test]
fn session_payments_and_disputes_build_one_tree_each() {
    let mut session = FastPaySession::new(SessionConfig::default(), 7);
    for _ in 0..3 {
        let report = session.run_fast_payment(1_000_000).unwrap();
        assert!(report.accepted);
        // Confirm the payment so the next one spends fresh coins.
        session.mine_public_block().unwrap();
    }
    let (_latency, _gas) = session.run_dispute_resolution(1_000_000, 6).unwrap();

    let jsonl = render_jsonl(session.trace());
    let trees = well_formed_forest(&jsonl);
    // Three payment roots plus the dispute-resolution payment and its
    // dispute tree.
    let payments = trees
        .iter()
        .filter(|t| t.root_node().name == "session.payment")
        .count();
    let disputes = trees
        .iter()
        .filter(|t| t.root_node().name == "session.dispute")
        .count();
    assert_eq!(payments, 4, "one session.payment root per payment");
    assert_eq!(disputes, 1, "one session.dispute root per dispute");

    // Distinct payments never share a trace id.
    let mut ids: Vec<u64> = trees.iter().map(|t| t.trace_id).collect();
    ids.dedup();
    assert_eq!(ids.len(), trees.len(), "trace ids are unique per tree");
}

#[test]
fn batch_payments_build_one_tree_per_payment() {
    let mut session = FastPaySession::new(SessionConfig::default(), 11);
    let reports = session
        .run_fast_payment_batch(&[500_000, 600_000, 700_000])
        .unwrap();
    assert!(reports.iter().all(|r| r.accepted));

    let jsonl = render_jsonl(session.trace());
    let trees = well_formed_forest(&jsonl);
    let payments = trees
        .iter()
        .filter(|t| t.root_node().name == "session.payment")
        .count();
    assert_eq!(payments, 3, "one root per batched payment");
}

/// The payment trees of one rendered trace, each with the names of the
/// spans under its root (the driver's vocabulary: transport events and
/// the PSC delivery leg, which only chaos has, are set aside) and the
/// duration of its `session.accept` span.
fn payment_vocabulary(jsonl: &str) -> Vec<(BTreeSet<String>, u64)> {
    well_formed_forest(jsonl)
        .iter()
        .filter(|t| t.root_node().name == "session.payment")
        .map(|tree| {
            let names = tree
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| *i != tree.root && n.is_span)
                .map(|(_, n)| n.name.clone())
                .filter(|name| !name.starts_with("transport.") && name != "chaos.psc_delivery")
                .collect();
            let accept = tree
                .nodes
                .iter()
                .find(|n| n.name == "session.accept")
                .expect("every payment has an accept span");
            (names, accept.end_us - accept.start_us)
        })
        .collect()
}

#[test]
fn every_harness_speaks_the_session_vocabulary() {
    const SEED: u64 = 0x0B0C;
    const AMOUNT: u64 = 1_000_000;

    // Plain session: registration and the point of sale under one root.
    let mut session = FastPaySession::new(SessionConfig::default(), SEED);
    let report = session.run_fast_payment(AMOUNT).unwrap();
    let plain = payment_vocabulary(&render_jsonl(session.trace()));
    assert_eq!(plain.len(), 1);
    assert_eq!(plain[0].1, report.waiting.as_micros());

    // One engine shard batch: the same point of sale per payment.
    let engine = PaymentEngine::new(EngineConfig {
        shards: 1,
        payments_per_shard: 3,
        batch_size: 3,
        amount_sats: AMOUNT,
        ..EngineConfig::default()
    });
    let run = engine.run(SEED, &WorkerPool::new(1)).unwrap();
    let shard = &run.outcomes[0];
    let batch = payment_vocabulary(&shard.trace_jsonl);
    assert_eq!(batch.len(), 3);
    let mut spans: Vec<u64> = batch.iter().map(|(_, accept)| *accept).collect();
    let mut waits: Vec<u64> = shard
        .accept_latencies
        .iter()
        .map(|w| w.as_micros())
        .collect();
    spans.sort_unstable();
    waits.sort_unstable();
    assert_eq!(spans, waits, "accept spans are the reported waits");

    // Fault-free chaos: the same units over the reliable transport.
    let mut chaos = ChaosSession::new(
        SessionConfig::default(),
        ChaosConfig::default(),
        FaultPlan::new(),
        SEED,
    );
    let report = chaos.run_fast_payment_chaos(AMOUNT).unwrap();
    let lossy = payment_vocabulary(&render_jsonl(chaos.session.trace()));
    assert_eq!(lossy.len(), 1);
    // A transport leg resolves when its ack returns, one network leg
    // after the arrival the customer stops waiting at, and the accept
    // span must cover its legs: it is the wait plus that trailing ack.
    let overhang = lossy[0].1.checked_sub(report.waiting.as_micros());
    assert!(overhang.is_some_and(|us| us < 1_000_000), "{overhang:?}");

    let exchange: BTreeSet<String> = [
        "session.accept",
        "session.offer_delivery",
        "session.merchant_verify",
        "session.acceptance_delivery",
    ]
    .map(String::from)
    .into();
    let mut checkout = exchange.clone();
    checkout.insert("session.register".into());
    assert_eq!(plain[0].0, checkout);
    assert_eq!(lossy[0].0, checkout, "chaos names what the session names");
    // A batch registers once for all its payments (one unattributed
    // `session.register` span), so its roots hold the exchange alone.
    for (names, _) in &batch {
        assert_eq!(*names, exchange);
    }
}

#[test]
fn chaos_payments_under_loss_build_nested_trees_with_exact_self_times() {
    let mut plan = FaultPlan::new();
    plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), 0.25);
    let mut chaos = ChaosSession::new(
        SessionConfig::default(),
        ChaosConfig::default(),
        plan,
        0x51AB,
    );

    for _ in 0..4 {
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(report.accepted);
        chaos.session.mine_public_block().unwrap();
    }

    let jsonl = render_jsonl(chaos.session.trace());
    let trees = well_formed_forest(&jsonl);
    let payments: Vec<&SpanTree> = trees
        .iter()
        .filter(|t| t.root_node().name == "session.payment")
        .collect();
    assert_eq!(payments.len(), 4, "one session.payment root per payment");

    for tree in payments {
        let b = breakdown(tree);
        assert_eq!(
            b.bucket_sum_us(),
            tree.root_duration_us(),
            "per-bucket self-times sum exactly to the root duration"
        );
        // Injected loss forces retransmissions; the transport bucket
        // must be visible in the decomposition.
        assert!(b.transport_us > 0, "loss run attributes transport time");
    }
}

#[test]
fn chaos_dispute_builds_its_own_root_tree() {
    let mut chaos = ChaosSession::new(
        SessionConfig::default(),
        ChaosConfig::default(),
        FaultPlan::new(),
        0xD15B,
    );
    let (_, report) = chaos.run_dispute_chaos(1_000_000, 0.30, 12).unwrap();

    let jsonl = render_jsonl(chaos.session.trace());
    let trees = well_formed_forest(&jsonl);
    assert!(
        trees
            .iter()
            .any(|t| t.root_node().name == "session.payment"),
        "the protected payment has its own tree"
    );
    if report.verdict.is_some() {
        assert!(
            trees
                .iter()
                .any(|t| t.root_node().name == "session.dispute"),
            "the dispute flow has its own root tree"
        );
    }
}

proptest! {
    // Any seed and any moderate loss rate must yield a well-formed
    // forest: the nesting high-water mark has to hold wherever the
    // backoff schedule lands retransmission timers.
    #[test]
    fn chaos_forest_is_well_formed_for_any_seed(
        seed in 0u64..1_000_000,
        loss_centi in 0u32..35,
    ) {
        let mut plan = FaultPlan::new();
        let loss = f64::from(loss_centi) / 100.0;
        if loss > 0.0 {
            plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), loss);
        }
        let mut chaos =
            ChaosSession::new(SessionConfig::default(), ChaosConfig::default(), plan, seed);
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        prop_assert!(report.accepted);

        let jsonl = render_jsonl(chaos.session.trace());
        let trees = build_trees(&jsonl).expect("forest reconstructs");
        for tree in &trees {
            prop_assert!(check_nesting(tree).is_ok());
            if tree.root_node().name == "session.payment" {
                let b = breakdown(tree);
                prop_assert_eq!(b.bucket_sum_us(), tree.root_duration_us());
            }
        }
    }
}
