//! E14 — open-loop saturation: offered-load × shard-count sweep under
//! bounded admission vs the unbounded-queue baseline.
//!
//! A closed-loop driver slows down with the system under test, hiding
//! the saturation knee (coordinated omission). Here a seeded Poisson
//! schedule keeps arriving at the offered rate regardless of completion,
//! and accept latency is charged from each payment's *scheduled arrival*
//! — so queueing delay past the knee is measured, not masked. With
//! admission bounded, shedding holds the p99 down; with the queue
//! unbounded, p99 diverges with the offered load. Every cell also
//! asserts value conservation (shed payments leave zero escrow residue)
//! and same-seed replay stability of the run fingerprint.
//!
//! All reported figures are simulated-clock quantities, so the table is
//! byte-identical across hosts, reruns, and worker counts.

use crate::load::LoadGen;
use crate::table::{f3, Table};
use btcfast::admission::{AdmissionConfig, SheddingPolicy};
use btcfast::engine::{EngineConfig, LoadReport, PaymentEngine};
use btcfast::SessionConfig;
use btcfast_crypto::WorkerPool;

/// Approximate per-shard service capacity on the EOS-flavored chain
/// (batch registration every 0.5 s PSC block + per-payment point-of-sale
/// exchange), used to place the sweep around the knee.
const CAP_PER_SHARD: f64 = 3.0;
/// Payments per service batch.
const BATCH: usize = 4;
/// The sweep's fixed seed.
const SEED: u64 = 0xE14;

/// One policy's measurements for one sweep cell.
struct PolicyMetrics {
    policy: &'static str,
    report: LoadReport,
    stable: bool,
}

/// One `(shards, multiplier)` cell: bounded and unbounded side by side.
struct CellOutcome {
    shards: usize,
    rate: f64,
    bounded: PolicyMetrics,
    unbounded: PolicyMetrics,
}

fn run_cell(shards: usize, mult: f64, per_shard_payments: usize) -> CellOutcome {
    let rate = CAP_PER_SHARD * mult * shards as f64;
    let schedule = LoadGen {
        rate_per_sec: rate,
        shards,
        payments: per_shard_payments * shards,
    }
    .schedule(SEED);
    let engine = PaymentEngine::new(EngineConfig {
        session: SessionConfig::eos_flavored(),
        shards,
        batch_size: BATCH,
        ..EngineConfig::default()
    });

    let measure = |admission: AdmissionConfig, policy: &'static str| {
        let report = engine
            .run_load(SEED, &schedule, admission)
            .expect("load run succeeds");
        let replay = engine
            .run_load(SEED, &schedule, admission)
            .expect("load replay succeeds");
        let stable = replay.fingerprint == report.fingerprint;
        PolicyMetrics {
            policy,
            report,
            stable,
        }
    };

    // The bound: one service batch of queue per shard, fair-quota split.
    let capacity = BATCH * shards;
    CellOutcome {
        shards,
        rate,
        bounded: measure(
            AdmissionConfig::bounded(capacity, SheddingPolicy::FairPerShard),
            "fair-per-shard",
        ),
        unbounded: measure(AdmissionConfig::unbounded(), "unbounded"),
    }
}

/// Runs E14 on a pool with host-default parallelism.
pub fn run(quick: bool) -> Vec<Table> {
    sweep(quick, &WorkerPool::with_default_parallelism())
}

/// Runs the sweep on `pool`. Cells are independent engine runs mapped in
/// order, so the rendered table is identical at any worker count.
pub fn sweep(quick: bool, pool: &WorkerPool) -> Vec<Table> {
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let multipliers: &[f64] = if quick {
        &[0.5, 2.0, 6.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let per_shard_payments = if quick { 12 } else { 48 };

    let cells: Vec<(usize, f64)> = shard_counts
        .iter()
        .flat_map(|&shards| multipliers.iter().map(move |&mult| (shards, mult)))
        .collect();
    let outcomes = pool.map_coarse(&cells, |&(shards, mult)| {
        run_cell(shards, mult, per_shard_payments)
    });

    let mut table = Table::new(
        "E14 — open-loop saturation sweep (simulated clock)",
        &[
            "shards",
            "offered/s",
            "policy",
            "offered",
            "served",
            "shed %",
            "goodput/s",
            "p50 (s)",
            "p99 (s)",
            "conserved",
            "stable",
        ],
    );

    for outcome in &outcomes {
        let top_rate = CAP_PER_SHARD * multipliers.last().unwrap() * outcome.shards as f64;
        for metrics in [&outcome.bounded, &outcome.unbounded] {
            let report = &metrics.report;
            assert_eq!(
                report.executed + report.shed_count(),
                report.offered,
                "every offered payment is served or shed"
            );
            assert_eq!(
                report.escrow_residue(),
                0,
                "shed payments must leave no escrow residue \
                 ({} shards @ {:.1}/s, {})",
                outcome.shards,
                outcome.rate,
                metrics.policy
            );
            assert!(metrics.stable, "same-seed replay must be byte-identical");
            let (p50, p99) = report
                .accept_latency_quantiles()
                .expect("every cell accepts some payments");
            table.push(vec![
                outcome.shards.to_string(),
                f3(outcome.rate),
                metrics.policy.to_string(),
                report.offered.to_string(),
                report.executed.to_string(),
                f3(report.shed_rate() * 100.0),
                f3(report.goodput_per_sec()),
                f3(p50),
                f3(p99),
                if report.escrow_residue() == 0 {
                    "YES".into()
                } else {
                    "NO".into()
                },
                if metrics.stable { "YES" } else { "NO" }.into(),
            ]);
        }
        assert_eq!(
            outcome.unbounded.report.shed_count(),
            0,
            "the unbounded baseline never sheds"
        );
        // The headline claim, checked past the knee: bounded admission
        // sheds and holds the tail down; the unbounded queue absorbs
        // everything and its tail diverges.
        if outcome.rate >= top_rate {
            assert!(
                outcome.bounded.report.shed_count() > 0,
                "{} shards @ {:.1}/s: overload must shed under a bounded queue",
                outcome.shards,
                outcome.rate
            );
            let (_, p99_bounded) = outcome.bounded.report.accept_latency_quantiles().unwrap();
            let (_, p99_unbounded) = outcome.unbounded.report.accept_latency_quantiles().unwrap();
            assert!(
                p99_unbounded > p99_bounded,
                "{} shards @ {:.1}/s: unbounded p99 {p99_unbounded:.2}s must exceed \
                 bounded p99 {p99_bounded:.2}s past the knee",
                outcome.shards,
                outcome.rate
            );
            assert!(
                p99_bounded < 8.0,
                "bounded p99 {p99_bounded:.2}s must stay bounded past the knee"
            );
        }
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_rows_cover_every_cell_and_all_assertions_hold() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 1);
        // 2 shard counts × 3 multipliers × 2 policies.
        assert_eq!(tables[0].len(), 12);
        let rendered = tables[0].render();
        assert!(!rendered.contains(" NO"), "no failed cell:\n{rendered}");
    }

    #[test]
    fn e14_summary_is_byte_identical_at_any_worker_count() {
        let sequential = sweep(true, &WorkerPool::new(1));
        let parallel = sweep(true, &WorkerPool::new(4));
        assert_eq!(
            sequential[0].render(),
            parallel[0].render(),
            "worker count must not leak into the summary"
        );
    }
}
