//! `lossy_wan`: the transport-routed payment path under 25% loss with
//! crash-restart bounces — the second payment implementation, the only
//! place `netsim::transport` retransmits and the journal re-hydrates
//! mid-protocol.

use super::{SliceOutcome, Workload, AMOUNT_SATS};
use crate::rng::slice_seed;
use crate::spans::Recorder;
use btcfast::recovery::RecoveryManager;
use btcfast::robustness::ChaosConfig;
use btcfast::{ChaosSession, SessionConfig};
use btcfast_netsim::faults::{ChaosSpec, FaultPlan};
use btcfast_netsim::time::SimTime;
use btcfast_store::Storage;

/// Payments per session (one session is one slice).
const PAYMENTS: u64 = 150;

/// The fault plan of session `seed`: steady 25% loss plus eight
/// crash-restart bounces. A session's transport clock runs past 200 s
/// (three legs per payment plus backoff), so with a 60 s horizon every
/// bounce fires.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::from_seed(
        seed,
        &ChaosSpec {
            horizon: SimTime::from_secs(60),
            loss_rate: 0.25,
            partition_cycles: 0,
            crash_restart_cycles: 8,
            ..ChaosSpec::default()
        },
    )
}

/// The lossy-WAN workload.
pub struct LossyWan {
    seed: u64,
    session_config: SessionConfig,
    chaos_config: ChaosConfig,
}

impl LossyWan {
    /// The escrow covers every payment of a session; the retry budget is
    /// deep enough that no message runs out of attempts at 25% loss.
    pub fn new(seed: u64) -> LossyWan {
        let mut session_config = SessionConfig::default();
        session_config.escrow_deposit =
            session_config.required_collateral(AMOUNT_SATS) * (u128::from(PAYMENTS) + 1);
        let mut chaos_config = ChaosConfig::default();
        chaos_config.transport.max_attempts = 20;
        chaos_config.phase_deadline = SimTime::from_secs(120);
        LossyWan {
            seed,
            session_config,
            chaos_config,
        }
    }

    fn session(&self, seed: u64, op_base: u64, payments: u64, rec: &mut Recorder) -> SliceOutcome {
        let mut out = SliceOutcome {
            ops: payments,
            ..SliceOutcome::default()
        };
        rec.set_op(op_base);
        let span = rec.enter("core.session_new");
        let mut chaos = ChaosSession::new(
            self.session_config.clone(),
            self.chaos_config.clone(),
            fault_plan(seed),
            seed,
        );
        rec.exit(span);
        let gas_before = chaos.session.psc.total_gas_used();

        let mut protected = 0u128;
        for i in 0..payments {
            rec.set_op(op_base + i);
            let span = rec.enter("core.run_fast_payment_chaos");
            let result = chaos.run_fast_payment_chaos(AMOUNT_SATS);
            rec.exit(span);
            match result {
                Ok(report) if report.accepted && report.protected => {
                    protected += 1;
                    out.sim.pos_wait_us.push(report.waiting.as_micros());
                }
                Ok(_) => out.failed += 1,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("chaos payment failed: {e}");
                }
            }
            // Without the block the next payment would respend pooled coins.
            let span = rec.enter("core.mine_public_block");
            let mined = chaos.session.mine_public_block();
            rec.exit(span);
            if let Err(e) = mined {
                out.failed += 1;
                eprintln!("confirming block failed: {e}");
            }
        }

        rec.set_op(op_base + payments);
        let span = rec.enter("core.escrow_snapshot");
        let escrow = chaos.escrow_snapshot();
        rec.exit(span);
        out.check(
            escrow.escrow_locked
                == self.session_config.required_collateral(AMOUNT_SATS) * protected,
            "lossy wan: escrow locks exactly the collateral of the protected payments",
        );
        let span = rec.enter("core.recovery_open");
        let reopened = RecoveryManager::open(
            chaos.recovery().wal_medium().clone(),
            chaos.recovery().snapshot_medium().clone(),
        );
        rec.exit(span);
        out.check(
            reopened.is_ok_and(|(manager, _)| manager.digest() == chaos.store_digest()),
            "lossy wan: the journal re-hydrates to the same digest",
        );

        let transport = chaos.transport_stats();
        out.counts.add("payments", payments as f64);
        out.counts.add("sessions", 1.0);
        out.counts.add(
            "psc_gas",
            (chaos.session.psc.total_gas_used() - gas_before) as f64,
        );
        out.counts.add("recoveries", chaos.recoveries() as f64);
        if chaos.recoveries() > 0 {
            // Counters restart with every re-open: these are the last one's.
            out.counts.add("recoveries_sampled", 1.0);
            out.counts.add(
                "records_replayed",
                chaos.recovery().stats().replayed_records as f64,
            );
        }
        out.counts.add("messages", transport.sent as f64);
        out.counts.add(
            "transmissions",
            (transport.sent + transport.retransmissions) as f64,
        );
        out.counts
            .add("duplicates_dropped", transport.duplicates_dropped as f64);
        out.counts
            .add("backoff_wait_us", transport.backoff_wait_micros as f64);
        out.counts
            .add("trace_dropped", chaos.session.trace_dropped() as f64);
        out.counts
            .add("wal_bytes", chaos.recovery().wal_medium().len() as f64);
        if rec.is_enabled() {
            let span = rec.enter("obs.render_jsonl");
            let jsonl = btcfast_obs::render_jsonl(chaos.session.trace());
            rec.exit(span);
            out.counts.add("trace_bytes", jsonl.len() as f64);
        }
        out
    }
}

impl Workload for LossyWan {
    fn run_slice(&mut self, index: u64, rec: &mut Recorder) -> SliceOutcome {
        self.session(
            slice_seed(self.seed, index),
            index * (PAYMENTS + 1),
            PAYMENTS,
            rec,
        )
    }

    fn warm_up(&mut self) {
        self.session(self.seed, 0, 8, &mut Recorder::disabled());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_fault_plan() {
        let plan = fault_plan(7);
        assert_eq!(plan.fingerprint(), fault_plan(7).fingerprint());
        assert_ne!(plan.fingerprint(), fault_plan(8).fingerprint());
        // Steady loss from time zero plus the eight bounces, nothing else.
        assert_eq!(plan.events().len(), 9);
    }
}
