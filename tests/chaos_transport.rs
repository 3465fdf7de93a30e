//! Integration: the chaos harness end to end — typed failure surfaces,
//! dedup of retransmissions, seeded reproducibility, and the headline
//! scenario: a full dispute resolved correctly across a lossy,
//! partitioned network.

use btcfast_suite::netsim::faults::{FaultAction, FaultPlan};
use btcfast_suite::netsim::time::SimTime;
use btcfast_suite::payjudger::types::DisputeVerdict;
use btcfast_suite::protocol::chaos::{ChaosSession, CUSTOMER_NODE, MERCHANT_NODE, PSC_NODE};
use btcfast_suite::protocol::robustness::{ChaosConfig, ProtocolPhase};
use btcfast_suite::protocol::session::SessionError;
use btcfast_suite::protocol::SessionConfig;

fn session_config() -> SessionConfig {
    SessionConfig {
        challenge_window_secs: 1800,
        ..SessionConfig::default()
    }
}

#[test]
fn exhausted_retry_budget_surfaces_typed_error() {
    // Customer↔merchant permanently partitioned: registration (customer →
    // PSC) succeeds, but the offer can never reach the merchant. The
    // failure must be the typed per-phase error, not a panic or a hang.
    let mut plan = FaultPlan::new();
    plan.schedule(
        SimTime::ZERO,
        FaultAction::Partition {
            a: CUSTOMER_NODE,
            b: MERCHANT_NODE,
        },
    );
    let mut chaos = ChaosSession::new(session_config(), ChaosConfig::default(), plan, 41);
    let err = chaos.run_fast_payment_chaos(700_000).unwrap_err();
    match err {
        SessionError::DeliveryFailed { phase, attempts } => {
            assert_eq!(phase, ProtocolPhase::Offer);
            assert_eq!(attempts, ChaosConfig::default().transport.max_attempts);
        }
        other => panic!("expected DeliveryFailed on the offer, got {other}"),
    }
    assert_eq!(chaos.transport_stats().failed, 1);
}

#[test]
fn duplicated_messages_are_delivered_exactly_once() {
    // At 40% loss some acks are lost, so senders retransmit messages the
    // receiver already has: the protocol must behave identically and the
    // transport must drop every extra copy.
    let run = |seed: u64| {
        let mut plan = FaultPlan::new();
        plan.loss_window(SimTime::ZERO, SimTime::from_secs(3_600), 0.4);
        let mut chaos = ChaosSession::new(session_config(), ChaosConfig::default(), plan, seed);
        let protected = chaos
            .run_fast_payment_chaos(700_000)
            .is_ok_and(|report| report.accepted && report.protected);
        (protected, chaos.transport_stats())
    };
    // Find a seed whose payment is protected after a redundant copy.
    let stats = (43..83)
        .map(run)
        .find_map(|(protected, stats)| (protected && stats.duplicates_dropped > 0).then_some(stats))
        .expect("some seed in range retransmits past a lost ack");
    // Exactly-once upward delivery: every message the protocol consumed
    // was delivered once, every surplus copy was deduped.
    assert_eq!(stats.delivered as u32, 3, "3 phases, one delivery each");
}

/// The headline robustness scenario from the roadmap: 30% loss the whole
/// run plus a merchant↔PSC partition that opens right as the dispute
/// phases begin and heals mid-flow. The dispute must still complete with
/// `MerchantWins`, escrow value must be conserved, and the whole run must
/// replay byte-identically from its seed.
#[test]
fn dispute_completes_correctly_across_lossy_partitioned_network() {
    let chaos_plan = || {
        let mut plan = FaultPlan::new();
        plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), 0.3);
        plan.partition_window(
            MERCHANT_NODE,
            PSC_NODE,
            SimTime::from_secs(1),
            SimTime::from_secs(9),
        );
        plan
    };
    let run = |seed: u64| {
        let mut chaos =
            ChaosSession::new(session_config(), ChaosConfig::default(), chaos_plan(), seed);
        let before = chaos.escrow_snapshot();
        let report = chaos
            .run_dispute_chaos(1_000_000, 0.35, 24)
            .expect("dispute flow");
        let after = chaos.escrow_snapshot();
        let replay = (chaos.session.trace().to_vec(), chaos.transport_stats());
        (report, before, after, replay)
    };

    // Find a seed whose BTC race the merchant actually loses (the attack
    // succeeds), so the dispute flow genuinely runs.
    let seed = (50..80)
        .find(|&s| {
            let mut probe =
                ChaosSession::new(session_config(), ChaosConfig::default(), chaos_plan(), s);
            probe
                .run_dispute_chaos(1_000_000, 0.35, 24)
                .map(|(_, r)| r.merchant_lost_payment)
                .unwrap_or(false)
        })
        .expect("some seed in range loses the race to a 35% attacker");

    let ((payment, report), before, after, replay) = run(seed);

    // The payment was protected despite 30% loss.
    assert!(payment.protected && payment.accepted);
    assert!(report.merchant_lost_payment);

    // The dispute fought through the partition to the right verdict.
    assert_eq!(report.verdict, Some(DisputeVerdict::MerchantWins));
    assert!(report.merchant_compensated);

    // Escrow conservation: the customer forfeits exactly the collateral,
    // the contract pays out exactly what was forfeited, nothing stays
    // locked, and the merchant's balance moves by exactly the collateral
    // minus the gas fees of the three dispute-path calls — no value appears
    // or vanishes anywhere in the escrow under chaos.
    let collateral = session_config().required_collateral(1_000_000);
    assert_eq!(before.escrow_balance - after.escrow_balance, collateral);
    assert_eq!(before.contract_balance - after.contract_balance, collateral);
    assert_eq!(after.escrow_locked, 0);
    assert_eq!(
        before.merchant_balance + collateral,
        after.merchant_balance + report.merchant_fee_units,
        "merchant balance must change by collateral minus fees: {before:?} -> {after:?}"
    );

    // Collateral covers the lost payment: the merchant never loses the
    // payment amount (gas fees are the operational cost the paper prices
    // separately in E4).
    assert!(report.merchant_net_loss_sats <= 0, "{report:?}");

    // Reproducibility: the identical seed replays the identical run.
    let ((payment2, report2), _, _, replay2) = run(seed);
    assert_eq!(
        replay, replay2,
        "span traces or counters diverged for seed {seed}"
    );
    assert_eq!(report.dispute_duration, report2.dispute_duration);
    assert_eq!(
        (
            payment.offer_attempts,
            report.merchant_fee_units,
            report.verdict
        ),
        (
            payment2.offer_attempts,
            report2.merchant_fee_units,
            report2.verdict
        ),
    );
}
