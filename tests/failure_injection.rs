//! Integration: failure injection — gas exhaustion, a lossy network, a
//! conflicting spend broadcast before the offer.

use btcfast_suite::btcsim::spv::SpvEvidence;
use btcfast_suite::netsim::time::SimTime;
use btcfast_suite::payjudger::evidence::EvidenceBundle;
use btcfast_suite::payjudger::{Call, PayJudgerClient};
use btcfast_suite::protocol::{FastPaySession, Party, SessionConfig};
use btcfast_suite::pscsim::tx::TxStatus;

/// Sends `call` from `from` and reports whether it landed.
fn landed(session: &mut FastPaySession, from: Party, call: Call) -> bool {
    let receipt = session.call(from, call).expect("psc tx executes");
    receipt.status.is_success()
}

#[test]
fn out_of_gas_evidence_is_billed_and_retriable() {
    let config = SessionConfig {
        challenge_window_secs: 5_000,
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 302);
    let customer_id = session.customer.psc_account();

    let report = session.run_fast_payment(800_000).expect("payment");
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");

    let payment_id = report.payment_id;
    let dispute = Call::Dispute(customer_id, payment_id);
    assert!(landed(&mut session, Party::Merchant, dispute));

    // Customer submits evidence with an absurdly small gas limit.
    let evidence =
        SpvEvidence::from_chain(&session.btc, 1, session.btc.height(), Some(&report.txid));
    let submit = Call::SubmitEvidence(customer_id, payment_id, EvidenceBundle(evidence));
    let nonce = session.psc.nonce_of(&customer_id);
    let keys = session.customer.psc_keys();
    let starved = session.judger.tx(keys, nonce, 30_000, &submit);
    let receipt = session.run_psc_tx(starved).expect("psc tx executes");
    assert_eq!(receipt.status, TxStatus::OutOfGas);
    assert_eq!(receipt.gas_used, 30_000); // full limit burned

    // Retry with proper gas succeeds.
    assert!(landed(&mut session, Party::Customer, submit));
}

#[test]
fn lossy_network_delays_but_does_not_break_fastpay() {
    // 30% real message loss injected through the reliable transport: the
    // fast payment must still complete on the protected path, and the
    // retransmission counters must show the transport actually recovered
    // dropped messages rather than getting lucky.
    use btcfast_suite::netsim::faults::FaultPlan;
    use btcfast_suite::protocol::chaos::ChaosSession;
    use btcfast_suite::protocol::robustness::ChaosConfig;

    // The default session runs the WAN latency model.
    let config = SessionConfig::default();
    let mut plan = FaultPlan::new();
    plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), 0.3);

    // Aggregate across seeds so the retransmission assertion is about the
    // mechanism, not one lucky loss draw.
    let mut recovered = 0u64;
    for seed in 303..308 {
        let mut chaos =
            ChaosSession::new(config.clone(), ChaosConfig::default(), plan.clone(), seed);
        let report = chaos.run_fast_payment_chaos(800_000).expect("payment");
        assert!(report.accepted, "seed {seed}: payment refused under loss");
        assert!(
            report.protected,
            "seed {seed}: retransmission should keep the escrow path alive"
        );
        let stats = chaos.transport_stats();
        assert_eq!(
            stats.failed, 0,
            "seed {seed}: no delivery may fail outright"
        );
        recovered += stats.retransmissions;
        // Slower than a clean run, but still point-of-sale latency.
        assert!(
            report.waiting.as_secs_f64() < 10.0,
            "seed {seed}: waiting {} too slow",
            report.waiting
        );
    }
    assert!(
        recovered > 0,
        "30% loss across 5 seeds must force at least one retransmission"
    );
}

#[test]
fn conflicting_broadcast_before_offer_rejects_at_counter() {
    // The attacker broadcasts the conflicting spend BEFORE presenting the
    // offer: the merchant's mempool check must refuse on the spot.
    use btcfast_suite::protocol::protocol::RejectReason;

    let mut session = FastPaySession::new(SessionConfig::default(), 305);

    // Build the payment + registration by hand (not via run_fast_payment,
    // which would relay the honest tx first).
    let tx = session
        .customer
        .build_btc_payment(
            &session.btc,
            session.merchant.btc_wallet().address(),
            btcfast_suite::btcsim::Amount::from_sats(500_000).unwrap(),
            btcfast_suite::btcsim::Amount::from_sats(1_000).unwrap(),
            None,
        )
        .unwrap();
    let open = Call::OpenPayment(session.merchant.psc_account(), tx.txid(), 500_000, 600_000);
    let receipt = session
        .call(Party::Customer, open)
        .expect("psc tx executes");
    assert!(receipt.status.is_success());
    let payment_id = PayJudgerClient::payment_id_from(&receipt).unwrap();

    // The conflicting spend hits the network first.
    let steal = session.customer.btc_wallet().create_conflicting_spend(
        &session.btc,
        &tx,
        btcfast_suite::btcsim::Amount::from_sats(2_000).unwrap(),
    );
    session
        .mempool
        .insert(
            steal,
            session.btc.utxo(),
            session.btc.height() + 1,
            session.clock.as_secs(),
        )
        .unwrap();

    // The merchant sees the conflict and refuses.
    let offer = session.customer.make_offer(tx, payment_id, 500_000);
    let decision = session.merchant.evaluate_offer(
        &offer,
        &session.btc,
        &session.mempool,
        &session.psc,
        &session.judger,
    );
    assert!(matches!(
        decision,
        Err(RejectReason::MempoolConflict { .. })
    ));
}
