//! Integration: double-spend attacks and dispute resolution across crates,
//! with exact value accounting.

use btcfast_suite::netsim::faults::FaultPlan;
use btcfast_suite::payjudger::types::{DisputeVerdict, PaymentState};
use btcfast_suite::payjudger::Call;
use btcfast_suite::protocol::chaos::ChaosSession;
use btcfast_suite::protocol::robustness::ChaosConfig;
use btcfast_suite::protocol::{FastPaySession, Party, SessionConfig};

fn attack_config() -> SessionConfig {
    SessionConfig {
        challenge_window_secs: 100_000,
        ..SessionConfig::default()
    }
}

#[test]
fn majority_attacker_wins_race_but_pays_collateral() {
    let mut session = FastPaySession::new(attack_config(), 200);
    let customer_id = session.customer.psc_account();
    let escrow_before = session.judger.escrow(&session.psc, customer_id).unwrap();

    let report = session
        .run_double_spend_attack(1_000_000, 0.75, 25)
        .expect("attack");

    assert!(report.attacker_won_race);
    assert!(report.merchant_lost_payment);
    assert_eq!(report.verdict, Some(DisputeVerdict::MerchantWins));
    assert!(report.merchant_compensated);

    // Exact collateral accounting: the escrow lost precisely the locked
    // collateral, nothing else.
    let collateral = session.config.required_collateral(1_000_000);
    let escrow_after = session.judger.escrow(&session.psc, customer_id).unwrap();
    assert_eq!(escrow_before.balance - escrow_after.balance, collateral);
    assert_eq!(escrow_after.locked, 0);

    // The payment record reached its terminal state.
    let payment = session
        .judger
        .payment(&session.psc, customer_id, report.payment_id)
        .unwrap();
    assert_eq!(payment.state, PaymentState::MerchantPaid);

    // With ratio 1.2 the merchant nets a gain in sats-equivalents: the
    // 1 000 000 lost minus the 1 200 000 of collateral paid.
    assert_eq!(report.merchant_net_loss_sats, -200_000);
}

#[test]
fn minority_attacker_race_is_possible_but_never_profitable() {
    // At 0-conf the BTC race starts from even, so even a 10% attacker
    // overtakes with probability ≈ q/p ≈ 0.11 — that is precisely why
    // BTCFast backs acceptance with collateral instead of confirmations.
    // The invariant: however the race goes, the merchant never loses money.
    let mut wins = 0;
    let trials = 6;
    for t in 0..trials {
        let mut session = FastPaySession::new(attack_config(), 210 + t);
        let report = session
            .run_double_spend_attack(1_000_000, 0.1, 8)
            .expect("attack");
        if report.attacker_won_race {
            wins += 1;
            assert!(report.merchant_compensated);
            assert!(report.merchant_net_loss_sats <= 0);
        } else {
            assert!(!report.merchant_lost_payment);
            assert_eq!(report.merchant_net_loss_sats, 0);
        }
    }
    // ~11% per trial: all six winning would be astronomically unlikely.
    assert!(wins < trials, "{wins}/{trials} wins");
}

#[test]
fn dispute_state_machine_is_terminal() {
    // After judgment, further judging/acking/closing must fail.
    let mut session = FastPaySession::new(attack_config(), 220);
    let customer_id = session.customer.psc_account();
    let report = session
        .run_double_spend_attack(1_000_000, 0.8, 25)
        .expect("attack");
    assert_eq!(report.verdict, Some(DisputeVerdict::MerchantWins));

    let payment_id = report.payment_id;
    let judge_again = Call::Judge(customer_id, payment_id);
    let close = Call::ClosePayment(payment_id);
    for (party, call) in [(Party::Merchant, judge_again), (Party::Customer, close)] {
        let receipt = session.call(party, call).expect("psc tx executes");
        assert!(!receipt.status.is_success());
    }
}

#[test]
fn too_short_challenge_window_leaves_merchant_exposed() {
    // The residual risk the theory (E3a) quantifies: if the challenge
    // window is shorter than the attack, the dispute arrives too late and
    // the merchant eats the loss. This is a misconfiguration, not a
    // protocol failure — the window must cover Δ blocks' worth of time.
    // A reverted dispute call means the same under the ideal effects and
    // under the chaos effects on a fault-free fabric.
    let config = SessionConfig {
        challenge_window_secs: 300, // « one expected block interval
        ..SessionConfig::default()
    };
    for chaos in [false, true] {
        let mut exposed = 0;
        for t in 0..4 {
            let seed = 250 + t;
            let report = if chaos {
                let plan = FaultPlan::new();
                let mut session =
                    ChaosSession::new(config.clone(), ChaosConfig::default(), plan, seed);
                session
                    .run_dispute_chaos(1_000_000, 0.8, 25)
                    .map(|(_, r)| r)
            } else {
                let mut session = FastPaySession::new(config.clone(), seed);
                session.run_double_spend_attack(1_000_000, 0.8, 25)
            };
            let report = report.unwrap_or_else(|e| panic!("chaos {chaos}, seed {seed}: {e}"));
            if !report.attacker_won_race {
                continue;
            }
            assert!(report.merchant_lost_payment);
            match report.verdict {
                // Race resolved inside the window: dispute ran, merchant whole.
                Some(_) => assert!(report.merchant_net_loss_sats <= 0),
                // Race outran the window: dispute reverted, merchant exposed.
                None => {
                    assert!(!report.merchant_compensated);
                    assert_eq!(report.merchant_net_loss_sats, 1_000_000);
                    exposed += 1;
                }
            }
        }
        // With a 300 s window against ~600 s expected block gaps, at least
        // one of the races must outrun the window.
        assert!(exposed >= 1, "chaos {chaos}: expected an exposed outcome");
    }
}

#[test]
fn double_spent_coins_ended_up_back_with_attacker() {
    let mut session = FastPaySession::new(attack_config(), 240);
    let customer_btc = session.customer.btc_wallet().clone();
    let balance_before = customer_btc.balance(&session.btc).to_sats();

    let report = session
        .run_double_spend_attack(1_000_000, 0.8, 25)
        .expect("attack");
    assert!(report.attacker_won_race);

    // The merchant holds nothing on BTC; the customer's balance only
    // dropped by fees (plus their own mining rewards came in).
    assert_eq!(
        session
            .merchant
            .btc_wallet()
            .balance(&session.btc)
            .to_sats(),
        0
    );
    let balance_after = customer_btc.balance(&session.btc).to_sats();
    assert!(
        balance_after + 10_000 >= balance_before,
        "attacker kept the coins (before {balance_before}, after {balance_after})"
    );
}
