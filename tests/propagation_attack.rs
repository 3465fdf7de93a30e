//! Integration: the classic propagation-based fast-payment attack
//! (Karame et al.) — no secret mining required. The attacker hands the
//! merchant the payment while simultaneously relaying a conflicting spend
//! to the miners; the merchant's mempool is clean at acceptance time and
//! the conflict confirms first.
//!
//! Plain 0-conf loses the payment outright. BTCFast turns the same event
//! into a compensated dispute.

use btcfast_suite::btcsim::mempool::Mempool;
use btcfast_suite::btcsim::spv::SpvEvidence;
use btcfast_suite::btcsim::{Amount, Chain};
use btcfast_suite::netsim::time::SimTime;
use btcfast_suite::payjudger::evidence::EvidenceBundle;
use btcfast_suite::payjudger::types::DisputeVerdict;
use btcfast_suite::payjudger::{Call, PayJudgerClient};
use btcfast_suite::protocol::{FastPaySession, Party, SessionConfig};

#[test]
fn propagation_double_spend_is_detected_and_compensated() {
    let config = SessionConfig {
        challenge_window_secs: 7200,
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 900);
    let customer_id = session.customer.psc_account();

    // The merchant runs their own node, a chain and a mempool; the
    // session's mempool plays the miners' view. Network propagation is
    // what the attacker exploits.
    let (mut merchant_chain, mut merchant_pool) = (session.btc.clone(), Mempool::new());
    // Relays the miners' new tip to the merchant's node.
    let relay_tip = |session: &FastPaySession, chain: &mut Chain, pool: &mut Mempool| {
        let tip = session.btc.block_at_height(session.btc.height()).unwrap();
        chain.submit_block(tip.clone()).expect("block connects");
        pool.purge_confirmed(&tip.transactions);
    };

    // The attacker builds both transactions up front.
    let pay = session
        .customer
        .build_btc_payment(
            &session.btc,
            session.merchant.btc_wallet().address(),
            Amount::from_sats(1_000_000).unwrap(),
            Amount::from_sats(1_000).unwrap(),
            None,
        )
        .unwrap();
    let steal = session.customer.btc_wallet().create_conflicting_spend(
        &session.btc,
        &pay,
        Amount::from_sats(5_000).unwrap(),
    );

    // Register the payment intent honestly (the escrow sees nothing odd).
    let open = Call::OpenPayment(
        session.merchant.psc_account(),
        pay.txid(),
        1_000_000,
        1_200_000,
    );
    let receipt = session
        .call(Party::Customer, open)
        .expect("psc tx executes");
    assert!(receipt.status.is_success());
    let payment_id = PayJudgerClient::payment_id_from(&receipt).unwrap();

    // Split-relay: `steal` to the miners, `pay` only to the merchant.
    session
        .mempool
        .insert(
            steal.clone(),
            session.btc.utxo(),
            session.btc.height() + 1,
            session.clock.as_secs(),
        )
        .unwrap();
    merchant_pool
        .insert(
            pay.clone(),
            merchant_chain.utxo(),
            merchant_chain.height() + 1,
            session.clock.as_secs(),
        )
        .unwrap();

    // The merchant's view is clean: the offer passes every check.
    let offer = session
        .customer
        .make_offer(pay.clone(), payment_id, 1_000_000);
    let decision = session.merchant.evaluate_offer(
        &offer,
        &merchant_chain,
        &merchant_pool,
        &session.psc,
        &session.judger,
    );
    assert!(
        decision.is_ok(),
        "merchant cannot see the conflict: {decision:?}"
    );

    // The miners confirm the conflicting spend.
    session.advance_clock(SimTime::from_secs(600));
    session.mine_public_block().expect("block connects");
    assert_eq!(session.btc.confirmations(&steal.txid()), Some(1));

    // The block propagates to the merchant's node; the payment's coins are
    // gone and the mempool copy was purged as conflicted.
    relay_tip(&session, &mut merchant_chain, &mut merchant_pool);
    assert!(!merchant_pool.contains(&pay.txid()));
    assert!(session
        .merchant
        .detect_double_spend(&pay, &merchant_chain, &merchant_pool));

    // Dispute → evidence (the heaviest chain lacks the payment) → verdict.
    let dispute = Call::Dispute(customer_id, payment_id);
    let receipt = session
        .call(Party::Merchant, dispute)
        .expect("psc tx executes");
    assert!(receipt.status.is_success());
    // Bury the conflicting spend Δ deep so the evidence is conclusive; the
    // merchant builds it from its own view of the chain.
    for _ in 0..6 {
        session.advance_clock(SimTime::from_secs(600));
        session.mine_public_block().expect("block connects");
        relay_tip(&session, &mut merchant_chain, &mut merchant_pool);
    }
    assert_eq!(merchant_chain.tip_hash(), session.btc.tip_hash());
    let evidence = SpvEvidence::from_chain(
        &merchant_chain,
        1,
        merchant_chain.height(),
        Some(&pay.txid()),
    );
    assert!(
        evidence.inclusion.is_none(),
        "the payment is not on the chain"
    );
    let submit = Call::SubmitEvidence(customer_id, payment_id, EvidenceBundle(evidence));
    let receipt = session
        .call(Party::Merchant, submit)
        .expect("psc tx executes");
    assert!(receipt.status.is_success());

    session.advance_clock(SimTime::from_secs(7300));
    let judge = Call::Judge(customer_id, payment_id);
    let receipt = session
        .call(Party::Merchant, judge)
        .expect("psc tx executes");
    assert_eq!(
        PayJudgerClient::verdict_from(&receipt),
        Some(DisputeVerdict::MerchantWins)
    );

    // Collateral (ratio 1.2) covers the stolen 1,000,000 sats.
    let escrow = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow.balance, session.config.escrow_deposit - 1_200_000);
}
