//! Integration: the full honest BTCFast lifecycle across every crate —
//! setup, fast pay, confirmation, acknowledgment/close, withdrawal — with
//! value conservation checked on both chains.

use btcfast_suite::netsim::time::SimTime;
use btcfast_suite::payjudger::types::PaymentState;
use btcfast_suite::protocol::{FastPaySession, SessionConfig};

#[test]
fn honest_lifecycle_with_ack() {
    let mut session = FastPaySession::new(SessionConfig::default(), 100);
    let customer_id = session.customer.psc_account();

    // Fast pay.
    let report = session.run_fast_payment(2_000_000).expect("payment");
    assert!(report.accepted);
    assert!(report.waiting.as_secs_f64() < 1.0);

    // The payment confirms on BTC.
    session.advance_clock(SimTime::from_secs(600));
    session.mine_public_block().expect("block connects");
    assert_eq!(session.btc.confirmations(&report.txid), Some(1));
    assert_eq!(
        session
            .merchant
            .btc_wallet()
            .balance(&session.btc)
            .to_sats(),
        2_000_000
    );

    // Merchant acknowledges → collateral unlocks immediately.
    let ack = session.merchant.build_ack(
        &session.judger,
        &session.psc,
        customer_id,
        report.payment_id,
    );
    let receipt = session.run_psc_tx(ack).expect("psc tx executes");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);

    let payment = session
        .judger
        .payment(&session.psc, customer_id, report.payment_id)
        .unwrap();
    assert_eq!(payment.state, PaymentState::Acked);

    let escrow = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow.locked, 0);
    assert_eq!(escrow.balance, session.config.escrow_deposit);
}

#[test]
fn honest_lifecycle_with_window_close_and_withdraw() {
    let config = SessionConfig {
        challenge_window_secs: 1200,
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 101);
    let customer_id = session.customer.psc_account();

    let report = session.run_fast_payment(500_000).expect("payment");
    assert!(report.accepted);
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");

    // Wait out the challenge window, close, withdraw everything.
    session.advance_clock(SimTime::from_secs(1300));
    let close =
        session
            .customer
            .build_close_payment(&session.judger, &session.psc, report.payment_id);
    let receipt = session.run_psc_tx(close).expect("psc tx executes");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);

    let escrow = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow.locked, 0);

    let balance_before = session.psc.balance_of(&customer_id);
    let withdraw =
        session
            .customer
            .build_withdraw(&session.judger, &session.psc, escrow.available());
    let receipt = session.run_psc_tx(withdraw).expect("psc tx executes");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);

    // Value conservation: the customer got the full escrow back minus gas.
    let balance_after = session.psc.balance_of(&customer_id);
    assert_eq!(
        balance_after + receipt.fee_paid - balance_before,
        session.config.escrow_deposit
    );
    // The contract retains nothing for this customer.
    let escrow = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow.balance, 0);
}

#[test]
fn several_sequential_payments_share_one_escrow() {
    let config = SessionConfig {
        escrow_deposit: 50_000_000,
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 102);

    let mut ids = Vec::new();
    for i in 0..5 {
        let report = session
            .run_fast_payment(1_000_000 + i * 10_000)
            .expect("payment");
        assert!(report.accepted, "payment {i}: {:?}", report.reject);
        ids.push(report.payment_id);
        session.mine_public_block().expect("block connects");
    }
    // Distinct, sequential ids.
    assert_eq!(ids, vec![0, 1, 2, 3, 4]);

    let escrow = session
        .judger
        .escrow(&session.psc, session.customer.psc_account())
        .unwrap();
    assert_eq!(escrow.payment_count, 5);
    // Everything is still locked (no closes yet).
    assert!(escrow.locked > 0);
    assert!(escrow.balance >= escrow.locked);
}

#[test]
fn one_escrow_serves_two_merchants_concurrently() {
    use btcfast_suite::protocol::policy::AcceptancePolicy;
    use btcfast_suite::protocol::roles::Merchant;

    let config = SessionConfig {
        challenge_window_secs: 2400,
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 104);
    let customer_id = session.customer.psc_account();

    // A second, independent merchant joins.
    let merchant_b = Merchant::from_seed(b"second merchant", AcceptancePolicy::default());
    session
        .psc
        .faucet(merchant_b.psc_account(), 1_000_000_000_000);

    // Payment 1 → session merchant (handled by the session machinery).
    let report_a = session.run_fast_payment(600_000).expect("payment A");
    assert!(report_a.accepted);
    // Confirm payment A so payment B selects fresh (change) coins instead
    // of conflicting with the pooled transaction.
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");

    // Payment 2 → merchant B, driven manually through the same escrow.
    let tx_b = session
        .customer
        .build_btc_payment(
            &session.btc,
            merchant_b.btc_wallet().address(),
            btcfast_suite::btcsim::Amount::from_sats(400_000).unwrap(),
            btcfast_suite::btcsim::Amount::from_sats(1_000).unwrap(),
            None,
        )
        .expect("funding");
    let txid_b = tx_b.txid();
    let open_b = session.customer.build_open_payment(
        &session.judger,
        &session.psc,
        merchant_b.psc_account(),
        txid_b,
        400_000,
        480_000,
    );
    let receipt = session.run_psc_tx(open_b).expect("psc tx executes");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    let payment_id_b =
        btcfast_suite::payjudger::PayJudgerClient::payment_id_from(&receipt).unwrap();

    // Merchant B evaluates and accepts. Nothing on this thread has verified
    // the offer's signature, so the decision pays the ECDSA verify.
    let offer_b = session
        .customer
        .make_offer(tx_b.clone(), payment_id_b, 400_000);
    let sig_cache = btcfast_suite::btcsim::utxo::sig_cache_stats;
    let misses = sig_cache().misses;
    let decision = merchant_b.evaluate_offer(
        &offer_b,
        &session.btc,
        &session.mempool,
        &session.psc,
        &session.judger,
    );
    assert!(decision.is_ok(), "{decision:?}");
    assert_eq!(sig_cache().misses, misses + 1, "a cold-cache decision");
    session
        .mempool
        .insert(
            tx_b,
            session.btc.utxo(),
            session.btc.height() + 1,
            session.clock.as_secs(),
        )
        .unwrap();

    // Escrow holds both collaterals.
    let escrow = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow.payment_count, 2);
    assert_eq!(
        escrow.locked,
        session.config.required_collateral(600_000) + 480_000
    );

    // Both confirm; A acks, B acks; everything unlocks.
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");
    let ack_a = session.merchant.build_ack(
        &session.judger,
        &session.psc,
        customer_id,
        report_a.payment_id,
    );
    assert!(session
        .run_psc_tx(ack_a)
        .expect("psc tx executes")
        .status
        .is_success());
    let ack_b = merchant_b.build_ack(&session.judger, &session.psc, customer_id, payment_id_b);
    assert!(session
        .run_psc_tx(ack_b)
        .expect("psc tx executes")
        .status
        .is_success());
    let escrow = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow.locked, 0);

    // Merchant B cannot ack or dispute A's payment.
    let cross_ack = merchant_b.build_ack(
        &session.judger,
        &session.psc,
        customer_id,
        report_a.payment_id,
    );
    assert!(!session
        .run_psc_tx(cross_ack)
        .expect("psc tx executes")
        .status
        .is_success());
}

#[test]
fn merchant_btc_balance_accumulates() {
    let mut session = FastPaySession::new(SessionConfig::default(), 103);
    let mut expected = 0u64;
    for _ in 0..3 {
        let report = session.run_fast_payment(700_000).expect("payment");
        assert!(report.accepted);
        expected += 700_000;
        session.mine_public_block().expect("block connects");
    }
    assert_eq!(
        session
            .merchant
            .btc_wallet()
            .balance(&session.btc)
            .to_sats(),
        expected
    );
}
