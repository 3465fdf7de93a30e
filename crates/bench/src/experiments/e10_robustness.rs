//! E10 — protocol robustness under chaos: loss, partitions, retries.
//!
//! Sweeps message-loss rate × partition schedule over seeded chaos runs
//! and reports (a) payment-path robustness — how often the escrow fast
//! path still completes, at what acceptance-latency inflation — and
//! (b) dispute-path safety — whether a merchant facing a double-spend
//! still reaches a `MerchantWins` verdict when every dispute-phase
//! message crosses a faulty network. The paper's claims C1 (fast
//! acceptance) and C2 (merchant never loses funds) are only as strong as
//! their weakest network assumption; E10 measures how they degrade.

use crate::table::{f3, prob, Table};
use btcfast::chaos::{ChaosSession, MERCHANT_NODE, PSC_NODE};
use btcfast::robustness::{ChaosConfig, ProtocolPhase};
use btcfast::SessionConfig;
use btcfast_netsim::faults::FaultPlan;
use btcfast_netsim::time::SimTime;
use btcfast_payjudger::types::DisputeVerdict;

/// The partition schedules swept: `None`, or a merchant↔PSC partition
/// window `(start, end)` in transport time, landing on the dispute phases.
const PARTITIONS: [(&str, Option<(u64, u64)>); 2] =
    [("none", None), ("merchant<->psc 10 s", Some((1, 11)))];

fn plan_for(loss: f64, partition: Option<(u64, u64)>) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if loss > 0.0 {
        plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), loss);
    }
    if let Some((start, end)) = partition {
        plan.partition_window(
            MERCHANT_NODE,
            PSC_NODE,
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        );
    }
    plan
}

fn session_config() -> SessionConfig {
    SessionConfig {
        // Short window keeps the full dispute (window expiry included) cheap
        // per trial without changing any verdict.
        challenge_window_secs: 1800,
        ..SessionConfig::default()
    }
}

/// Runs E10.
pub fn run(quick: bool) -> Vec<Table> {
    let losses: &[f64] = if quick {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.3, 0.5]
    };
    let (payment_trials, dispute_trials) = if quick { (4, 2) } else { (20, 8) };

    let mut payments = Table::new(
        "E10a — fast-payment robustness vs loss and partitions",
        &[
            "loss",
            "partition",
            "protected rate",
            "fell back",
            "mean waiting (s)",
            "inflation (x)",
            "retransmissions/run",
        ],
    );

    // Loss-0/no-partition mean waiting anchors the inflation column.
    let mut clean_waiting: Option<f64> = None;

    for &loss in losses {
        for (partition_label, partition) in PARTITIONS {
            let mut protected = 0u32;
            let mut fell_back = 0u32;
            let mut waiting_sum = 0.0;
            let mut retransmissions = 0u64;
            for trial in 0..payment_trials {
                let seed = 0xE10 + trial as u64 * 7919;
                let mut chaos = ChaosSession::new(
                    session_config(),
                    ChaosConfig::default(),
                    plan_for(loss, partition),
                    seed,
                );
                // A delivery/deadline failure is the measurement, not a
                // harness bug: the sale simply does not complete.
                match chaos.run_fast_payment_chaos(1_000_000) {
                    Ok(report) => {
                        if report.protected && report.accepted {
                            protected += 1;
                            waiting_sum += report.waiting.as_secs_f64();
                        }
                        if !report.protected {
                            fell_back += 1;
                        }
                    }
                    Err(e) => assert!(e.phase().is_some(), "unexpected failure: {e}"),
                }
                retransmissions += chaos.transport_stats().retransmissions;
            }
            let mean_waiting = if protected > 0 {
                waiting_sum / f64::from(protected)
            } else {
                f64::NAN
            };
            if loss == 0.0 && partition.is_none() {
                clean_waiting = Some(mean_waiting);
            }
            let inflation = clean_waiting
                .map(|base| mean_waiting / base)
                .unwrap_or(f64::NAN);
            payments.push(vec![
                prob(loss),
                partition_label.into(),
                format!("{protected}/{payment_trials}"),
                format!("{fell_back}/{payment_trials}"),
                f3(mean_waiting),
                f3(inflation),
                f3(retransmissions as f64 / f64::from(payment_trials)),
            ]);
        }
    }

    let mut disputes = Table::new(
        "E10b — dispute safety under chaos (attacker 30% hashrate)",
        &[
            "loss",
            "partition",
            "races lost",
            "merchant wins",
            "funds safe",
            "mean dispute (s)",
        ],
    );

    for &loss in losses {
        for (partition_label, partition) in PARTITIONS {
            let mut races_lost = 0u32;
            let mut merchant_wins = 0u32;
            let mut funds_safe = true;
            let mut duration_sum = 0.0;
            for trial in 0..dispute_trials {
                let seed = 0xD15 + trial as u64 * 104_729;
                let mut chaos = ChaosSession::new(
                    session_config(),
                    ChaosConfig::default(),
                    plan_for(loss, partition),
                    seed,
                );
                match chaos.run_dispute_chaos(1_000_000, 0.3, 24) {
                    Ok((_, report)) => {
                        if report.merchant_lost_payment {
                            races_lost += 1;
                            duration_sum += report.dispute_duration.as_secs_f64();
                            if report.verdict == Some(DisputeVerdict::MerchantWins) {
                                merchant_wins += 1;
                            } else {
                                funds_safe = false;
                            }
                        }
                    }
                    // Only a failure in a dispute phase forfeits the
                    // merchant's claim; a payment-phase failure means no
                    // sale happened, so there is nothing at risk.
                    Err(e) => {
                        if let Some(
                            ProtocolPhase::DisputeOpen
                            | ProtocolPhase::EvidenceSubmission
                            | ProtocolPhase::JudgeCall,
                        ) = e.phase()
                        {
                            races_lost += 1;
                            funds_safe = false;
                        }
                    }
                }
            }
            let mean_duration = if races_lost > 0 {
                duration_sum / f64::from(races_lost)
            } else {
                f64::NAN
            };
            disputes.push(vec![
                prob(loss),
                partition_label.into(),
                format!("{races_lost}/{dispute_trials}"),
                format!("{merchant_wins}/{races_lost}"),
                if funds_safe { "yes" } else { "NO" }.into(),
                f3(mean_duration),
            ]);
        }
    }

    vec![payments, disputes]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_merchant_funds_stay_safe_in_quick_sweep() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        let disputes = tables[1].render();
        assert!(
            !disputes.contains("NO"),
            "a chaos cell lost merchant funds:\n{disputes}"
        );
    }
}
