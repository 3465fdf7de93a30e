//! E13 — crash-restart recovery: durability under process loss.
//!
//! Sweeps crash intensity × crash phase over seeded chaos runs in which
//! nodes are bounced ([`FaultPlan::crash_restart_at`]) mid-protocol:
//! volatile state is dropped and the node re-hydrates from its WAL +
//! snapshot store before the protocol resumes. Reports (a) how
//! often the escrow fast path still completes and what recovery costs
//! (replayed journal records per restart), and (b) dispute safety when
//! the merchant's node crashes inside the dispute window. The paper's
//! claim C2 (the merchant never loses funds) must survive not just a
//! faulty network but a faulty *process*: the "value lost" column is the
//! gap between the value the merchant observed accepting and the value
//! the durable ledger accounts for after every crash — it must be zero
//! in every cell.

use crate::table::{f3, Table};
use btcfast::chaos::{ChaosSession, CUSTOMER_NODE, MERCHANT_NODE, PSC_NODE};
use btcfast::robustness::{ChaosConfig, ProtocolPhase};
use btcfast::SessionConfig;
use btcfast_netsim::faults::FaultPlan;
use btcfast_netsim::network::NodeId;
use btcfast_netsim::time::SimTime;
use btcfast_payjudger::types::DisputeVerdict;

const AMOUNT_SATS: u64 = 1_000_000;

/// Crash phases swept: when (in transport time) the bounces land.
/// Registration happens in the first few milliseconds, point-of-sale in
/// the tens of milliseconds, and the dispute calls after ~100 ms.
const PHASES: [(&str, &[u64]); 3] = [
    ("registration", &[2]),
    ("point-of-sale", &[25, 60]),
    ("dispute window", &[120, 200]),
];

/// Crash intensities swept: how many bounces are scheduled per run.
const INTENSITIES: [u32; 3] = [0, 1, 3];

const NODES: [NodeId; 3] = [CUSTOMER_NODE, MERCHANT_NODE, PSC_NODE];

fn session_config() -> SessionConfig {
    SessionConfig {
        challenge_window_secs: 1800,
        ..SessionConfig::default()
    }
}

/// Schedules `crashes` bounces cycling over the phase's landing times and
/// the three nodes, offset a little per trial so cells don't all crash at
/// the exact same instant.
fn plan_for(crashes: u32, times_ms: &[u64], trial: u32) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..crashes {
        let at_ms = times_ms[(i as usize) % times_ms.len()] + u64::from(trial % 3);
        let node = NODES[((i + trial) as usize) % NODES.len()];
        plan.crash_restart_at(node, SimTime::from_millis(at_ms));
    }
    plan
}

/// Runs E13.
pub fn run(quick: bool) -> Vec<Table> {
    let (payment_trials, dispute_trials) = if quick { (3, 2) } else { (12, 6) };

    let mut payments = Table::new(
        "E13a — fast-payment recovery vs crash intensity and phase",
        &[
            "crashes",
            "phase",
            "protected",
            "recoveries/run",
            "replayed @ last restart",
            "mean waiting (s)",
            "value lost (sats)",
            "digest stable",
        ],
    );

    for &crashes in &INTENSITIES {
        for (phase_label, times_ms) in PHASES {
            if crashes == 0 && phase_label != "registration" {
                continue; // zero crashes is one baseline row, not three
            }
            let mut protected = 0u32;
            let mut recoveries = 0u64;
            let mut replayed = 0u64;
            let mut runs_with_recovery = 0u64;
            let mut waiting_sum = 0.0;
            let mut value_lost: i64 = 0;
            let mut digest_stable = true;
            for trial in 0..payment_trials {
                let seed = 0xE13 + u64::from(trial) * 7919;
                let run_once = |seed: u64| {
                    let mut chaos = ChaosSession::new(
                        session_config(),
                        ChaosConfig::default(),
                        plan_for(crashes, times_ms, trial),
                        seed,
                    );
                    let outcome = chaos.run_fast_payment_chaos(AMOUNT_SATS);
                    (outcome, chaos)
                };
                let (outcome, chaos) = run_once(seed);
                match outcome {
                    Ok(report) => {
                        if report.protected && report.accepted {
                            protected += 1;
                            waiting_sum += report.waiting.as_secs_f64();
                            // Zero-value-lost check: the durable ledger
                            // must account for exactly what the merchant
                            // observed accepting, crashes or not.
                            let durable = chaos.recovery().ledger().value_accepted_sats;
                            value_lost += AMOUNT_SATS as i64 - durable as i64;
                        }
                    }
                    Err(e) => assert!(e.phase().is_some(), "unexpected failure: {e}"),
                }
                recoveries += chaos.recoveries();
                if chaos.recoveries() > 0 {
                    // Recovery stats reset at each re-open, so this is the
                    // replay cost of the *final* restart — the one with the
                    // longest journal behind it.
                    replayed += chaos.recovery().stats().replayed_records;
                    runs_with_recovery += 1;
                }
                // Same-seed rerun must land on a byte-identical durable
                // digest, crash-restart events included.
                if trial == 0 {
                    let (_, rerun) = run_once(seed);
                    digest_stable &= rerun.store_digest() == chaos.store_digest();
                }
            }
            let mean_waiting = if protected > 0 {
                waiting_sum / f64::from(protected)
            } else {
                f64::NAN
            };
            let replayed_last = if runs_with_recovery > 0 {
                replayed as f64 / runs_with_recovery as f64
            } else {
                0.0
            };
            // Acceptance condition: zero lost value at every swept crash
            // intensity — a non-zero gap is a durability bug, not data.
            assert_eq!(
                value_lost, 0,
                "durable ledger lost value at {crashes} crashes in {phase_label}"
            );
            payments.push(vec![
                crashes.to_string(),
                if crashes == 0 { "—" } else { phase_label }.into(),
                format!("{protected}/{payment_trials}"),
                f3(recoveries as f64 / f64::from(payment_trials)),
                f3(replayed_last),
                f3(mean_waiting),
                value_lost.to_string(),
                if digest_stable { "yes" } else { "NO" }.into(),
            ]);
        }
    }

    let mut disputes = Table::new(
        "E13b — dispute safety with crash-restarts in the dispute window",
        &[
            "crashes",
            "races lost",
            "merchant wins",
            "funds safe",
            "recoveries/run",
            "value lost (sats)",
        ],
    );

    for &crashes in &INTENSITIES {
        let mut races_lost = 0u32;
        let mut merchant_wins = 0u32;
        let mut funds_safe = true;
        let mut recoveries = 0u64;
        let mut value_lost: i64 = 0;
        for trial in 0..dispute_trials {
            let seed = 0xD13 + u64::from(trial) * 104_729;
            let mut chaos = ChaosSession::new(
                session_config(),
                ChaosConfig::default(),
                plan_for(crashes, PHASES[2].1, trial),
                seed,
            );
            match chaos.run_dispute_chaos(AMOUNT_SATS, 0.3, 24) {
                Ok((_, report)) => {
                    let durable = chaos.recovery().ledger().value_accepted_sats;
                    value_lost += AMOUNT_SATS as i64 - durable as i64;
                    if report.merchant_lost_payment {
                        races_lost += 1;
                        if report.verdict == Some(DisputeVerdict::MerchantWins) {
                            merchant_wins += 1;
                        } else {
                            funds_safe = false;
                        }
                    }
                }
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
            recoveries += chaos.recoveries();
        }
        assert_eq!(
            value_lost, 0,
            "durable ledger lost value at {crashes} dispute-window crashes"
        );
        disputes.push(vec![
            crashes.to_string(),
            format!("{races_lost}/{dispute_trials}"),
            format!("{merchant_wins}/{races_lost}"),
            if funds_safe { "yes" } else { "NO" }.into(),
            f3(recoveries as f64 / f64::from(dispute_trials)),
            value_lost.to_string(),
        ]);
    }

    vec![payments, disputes]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e13_no_value_lost_and_digests_stable_in_quick_sweep() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        // run() itself asserts zero lost value per cell; here we check the
        // replay-determinism and funds-safety verdict columns.
        let payments = tables[0].render();
        assert!(
            !payments.contains("NO"),
            "a crash cell diverged on replay:\n{payments}"
        );
        let disputes = tables[1].render();
        assert!(
            !disputes.contains("NO"),
            "a crash cell lost merchant funds:\n{disputes}"
        );
    }
}
