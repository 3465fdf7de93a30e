//! Property suite: load shedding never violates escrow solvency.
//!
//! Whatever the arrival schedule and admission capacity, payments the
//! admission layer refuses must leave no trace in any shard's escrow:
//! the locked collateral accounts *exactly* for the payments actually
//! served (zero residue), the lock never exceeds the escrow balance
//! (solvency), and every offered payment is either served or in the shed
//! set (no silent loss).

use btcfast::admission::{AdmissionConfig, SheddingPolicy};
use btcfast::engine::{EngineConfig, LoadArrival, PaymentEngine};
use btcfast::SessionConfig;
use btcfast_netsim::time::SimTime;
use proptest::prelude::*;

const SHARDS: usize = 2;

/// Random sorted schedules: up to 9 arrivals of 1–2 payments each, with
/// millisecond-scale gaps — far faster than a shard serves, so bounded
/// capacities genuinely shed.
fn schedule() -> impl Strategy<Value = Vec<LoadArrival>> {
    proptest::collection::vec((1u64..80, 0usize..SHARDS, 1usize..3), 1..10).prop_map(|steps| {
        let mut at = SimTime::ZERO;
        steps
            .into_iter()
            .map(|(gap_ms, shard, payments)| {
                at += SimTime::from_millis(gap_ms);
                LoadArrival {
                    at,
                    shard,
                    payments,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn shedding_never_violates_escrow_solvency(
        seed in 0u64..1_000,
        capacity in 0usize..6,
        schedule in schedule(),
    ) {
        let engine = PaymentEngine::new(EngineConfig {
            session: SessionConfig::eos_flavored(),
            shards: SHARDS,
            batch_size: 3,
            ..EngineConfig::default()
        });
        let admission = AdmissionConfig::bounded(capacity, SheddingPolicy::FairPerShard);
        let report = engine.run_load(seed, &schedule, admission).expect("load run");

        let offered: usize = schedule.iter().map(|a| a.payments).sum();
        prop_assert_eq!(report.offered, offered);
        // No silent loss: every offered payment is served or shed.
        prop_assert_eq!(report.executed + report.shed_count(), offered);
        // Zero residue: shed payments leave nothing behind in escrow.
        prop_assert_eq!(report.escrow_residue(), 0u128);
        for outcome in &report.outcomes {
            prop_assert_eq!(outcome.escrow_locked, outcome.expected_locked);
            // Solvency: the lock never exceeds the deposit backing it.
            prop_assert!(
                outcome.escrow_locked <= outcome.escrow_balance,
                "shard {} locked {} > balance {}",
                outcome.shard,
                outcome.escrow_locked,
                outcome.escrow_balance
            );
            // Every admitted ticket is served.
            prop_assert_eq!(outcome.executed as u64, outcome.admission.admitted);
        }
    }
}
