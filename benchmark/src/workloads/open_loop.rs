//! `till_open_loop`: a pre-sampled Poisson schedule driven through bounded
//! admission. Arrivals keep coming at the offered rate whether or not the
//! shards keep up, and latency is charged from the scheduled arrival.

use super::{SliceOutcome, Workload, AMOUNT_SATS};
use crate::rng::{poisson_schedule, slice_seed};
use crate::spans::Recorder;
use btcfast::engine::{EngineConfig, PaymentEngine};
use btcfast::{AdmissionConfig, SessionConfig, SheddingPolicy};
use btcfast_netsim::time::SimTime;

/// Shards the schedule is spread over.
const SHARDS: usize = 2;
/// Offered rate, payments per simulated second: about half of the 6.4/s
/// the two shards saturate at.
const RATE_PER_SEC: f64 = 3.0;
/// Arrivals per `run_load` call.
const ARRIVALS: usize = 500;
/// Service batch cap.
const BATCH: usize = 4;
/// Queue bound across shards (fair per-shard quota of 16). Deep enough
/// that Poisson bursts at half load are never shed — a bound of 8 sheds
/// 0.7% of arrivals, and a workload's ops must not fail.
const QUEUE_CAPACITY: usize = 32;

/// The open-loop workload.
pub struct OpenLoop {
    seed: u64,
    engine: PaymentEngine,
}

impl OpenLoop {
    /// EOS-flavoured sessions (0.5 s PSC blocks), batch cap 4.
    pub fn new(seed: u64) -> OpenLoop {
        OpenLoop {
            seed,
            engine: PaymentEngine::new(EngineConfig {
                session: SessionConfig::eos_flavored(),
                shards: SHARDS,
                batch_size: BATCH,
                amount_sats: AMOUNT_SATS,
                ..EngineConfig::default()
            }),
        }
    }

    fn run(&self, seed: u64, arrivals: usize, rec: &mut Recorder) -> SliceOutcome {
        let mut out = SliceOutcome {
            ops: arrivals as u64,
            ..SliceOutcome::default()
        };
        let schedule = poisson_schedule(seed, RATE_PER_SEC, SHARDS, arrivals);
        let admission = AdmissionConfig::bounded(QUEUE_CAPACITY, SheddingPolicy::FairPerShard);
        let span = rec.enter("core.run_load");
        let result = self.engine.run_load(seed, &schedule, admission);
        rec.exit(span);
        match result {
            Ok(report) => {
                out.check(
                    report.escrow_residue() == 0,
                    "open loop: escrow residue is zero",
                );
                out.check(
                    report.executed + report.shed_count() == report.offered,
                    "open loop: every offered payment is served or shed",
                );
                out.failed += (report.offered - report.total_accepted()) as u64;
                out.counts.add("offered", report.offered as f64);
                out.counts.add("shed", report.shed_count() as f64);
                for shard in &report.outcomes {
                    out.sim
                        .checkout_us
                        .extend(shard.accept_latencies.iter().map(SimTime::as_micros));
                    out.counts.max(
                        "admission_high_water_max",
                        shard.admission.high_water as f64,
                    );
                }
            }
            Err(e) => {
                out.failed += out.ops;
                eprintln!("load run failed: {e}");
            }
        }
        out
    }
}

impl Workload for OpenLoop {
    fn run_slice(&mut self, index: u64, rec: &mut Recorder) -> SliceOutcome {
        self.run(slice_seed(self.seed, index), ARRIVALS, rec)
    }

    fn warm_up(&mut self) {
        self.run(self.seed, 16, &mut Recorder::disabled());
    }
}
