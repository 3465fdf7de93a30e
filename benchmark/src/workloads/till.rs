//! `till_steady` and `till_longlived`: closed-loop engine runs.
//!
//! The untraced pass calls [`PaymentEngine::run`]. The traced pass cannot
//! see inside that call, so it drives the same public calls
//! `engine::run_shard` makes, with a span around each, and compares what it
//! observed with the engine's own [`ShardOutcome`] at the same shard seed.
//! This copy of the loop exists only until spans are recorded inside the
//! program; a divergence marks the span metrics stale, nothing else.

use super::{Counts, SliceOutcome, Workload, AMOUNT_SATS};
use crate::rng::slice_seed;
use crate::spans::Recorder;
use btcfast::engine::{EngineConfig, PaymentEngine, ShardOutcome};
use btcfast::recovery::{Outcome, RecoveryError, RecoveryManager, Step};
use btcfast::session::SessionError;
use btcfast::{FastPaySession, SessionConfig};
use btcfast_crypto::{Hash256, WorkerPool};
use btcfast_netsim::time::SimTime;
use btcfast_store::MemStorage;
use std::collections::BTreeMap;
use std::time::Instant;

/// The engine configuration of `till_steady`; `tracing` is the session's
/// own sim-time tracer, on by default.
pub fn steady_config(tracing: bool) -> EngineConfig {
    EngineConfig {
        session: SessionConfig {
            tracing,
            ..SessionConfig::default()
        },
        shards: 2,
        payments_per_shard: 256,
        batch_size: 8,
        amount_sats: AMOUNT_SATS,
        crash_restart_every: 0,
    }
}

/// Threads `till_steady` runs its shards on.
pub fn steady_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The fields of a [`ShardOutcome`] the traced driver must reproduce.
#[derive(Clone, Debug, PartialEq)]
struct ShardView {
    seed: u64,
    accepted: usize,
    accept_latencies: Vec<SimTime>,
    psc_commitment: Hash256,
    btc_tip: Hash256,
}

impl ShardView {
    fn of(outcome: &ShardOutcome) -> ShardView {
        ShardView {
            seed: outcome.seed,
            accepted: outcome.accepted,
            accept_latencies: outcome.accept_latencies.clone(),
            psc_commitment: outcome.psc_commitment,
            btc_tip: outcome.btc_tip,
        }
    }
}

/// A closed-loop engine workload.
pub struct Till {
    seed: u64,
    engine: PaymentEngine,
    pool: WorkerPool,
    /// Engine outcomes of the untraced pass by slice index: the traced
    /// pass takes its shard seeds from here and compares against them.
    reference: BTreeMap<u64, Vec<ShardView>>,
}

impl Till {
    /// 2 shards × 256 payments on up to two threads.
    pub fn steady(seed: u64) -> Till {
        Till {
            seed,
            engine: PaymentEngine::new(steady_config(true)),
            pool: WorkerPool::new(steady_threads()),
            reference: BTreeMap::new(),
        }
    }

    /// 1 shard × 1024 payments on one thread.
    pub fn longlived(seed: u64) -> Till {
        Till {
            seed,
            engine: PaymentEngine::new(EngineConfig {
                shards: 1,
                payments_per_shard: 1024,
                ..steady_config(true)
            }),
            pool: WorkerPool::new(1),
            reference: BTreeMap::new(),
        }
    }

    fn run_engine(&mut self, index: u64, out: &mut SliceOutcome) {
        let config = self.engine.config();
        out.ops = (config.shards * config.payments_per_shard) as u64;
        match self.engine.run(slice_seed(self.seed, index), &self.pool) {
            Ok(report) => {
                out.failed += (report.total_payments - report.total_accepted) as u64;
                for outcome in &report.outcomes {
                    out.sim
                        .pos_wait_us
                        .extend(outcome.accept_latencies.iter().map(SimTime::as_micros));
                }
                self.reference
                    .insert(index, report.outcomes.iter().map(ShardView::of).collect());
            }
            Err(e) => {
                out.failed += out.ops;
                eprintln!("engine run failed: {e}");
            }
        }
    }

    fn run_driver(&mut self, index: u64, rec: &mut Recorder, out: &mut SliceOutcome) {
        if !self.reference.contains_key(&index) {
            self.run_engine(index, &mut SliceOutcome::default());
        }
        let reference = self.reference.get(&index).cloned().unwrap_or_default();
        let config = self.engine.config();
        out.ops = (config.shards * config.payments_per_shard) as u64;

        let shards: Vec<(usize, u64)> = reference.iter().map(|v| v.seed).enumerate().collect();
        let epoch = rec.epoch();
        let call = rec.enter("core.map_coarse");
        let results = self.pool.map_coarse(&shards, |&(shard, seed)| {
            let op_base = (index << 32) | ((shard as u64) << 16);
            drive_shard(config, shard, seed, epoch, op_base)
        });
        let mut views = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(run) => {
                    rec.adopt(run.rec);
                    out.counts.absorb(&run.counts);
                    out.failed += (config.payments_per_shard - run.view.accepted) as u64;
                    out.sim
                        .pos_wait_us
                        .extend(run.view.accept_latencies.iter().map(SimTime::as_micros));
                    views.push(run.view);
                }
                Err(e) => {
                    out.failed += config.payments_per_shard as u64;
                    eprintln!("traced shard failed: {e}");
                }
            }
        }
        rec.exit(call);
        if views != reference {
            out.counts.add("driver_diverged", 1.0);
        }
    }
}

impl Workload for Till {
    fn run_slice(&mut self, index: u64, rec: &mut Recorder) -> SliceOutcome {
        let mut out = SliceOutcome::default();
        if rec.is_enabled() {
            self.run_driver(index, rec, &mut out);
        } else {
            self.run_engine(index, &mut out);
        }
        out
    }

    fn warm_up(&mut self) {
        let small = PaymentEngine::new(EngineConfig {
            payments_per_shard: 16,
            ..self.engine.config().clone()
        });
        small
            .run(self.seed, &self.pool)
            .expect("warm-up engine run succeeds");
    }

    fn threads(&self) -> usize {
        self.pool.threads().min(self.engine.config().shards)
    }
}

/// What the traced driver observed on one shard.
struct ShardRun {
    view: ShardView,
    rec: Recorder,
    counts: Counts,
}

fn store_err(e: RecoveryError) -> SessionError {
    SessionError::Psc(format!("shard recovery store: {e}"))
}

/// One shard, start to finish, through the public calls
/// `engine::run_shard` makes — in the same order, with the same arguments.
fn drive_shard(
    config: &EngineConfig,
    shard: usize,
    seed: u64,
    epoch: Instant,
    op_base: u64,
) -> Result<ShardRun, SessionError> {
    let mut rec = Recorder::enabled(epoch);
    rec.set_op(op_base);
    let mut counts = Counts::default();

    let mut session_config = config.session.clone();
    let per_payment = session_config.required_collateral(config.amount_sats);
    let whole_run = per_payment.saturating_mul(config.payments_per_shard as u128 + 1);
    session_config.escrow_deposit = session_config.escrow_deposit.max(whole_run);

    let span = rec.enter("core.session_new");
    let mut session = FastPaySession::new(session_config, seed);
    rec.exit(span);
    let batch = config.batch_size.max(1);
    let span = rec.enter("core.fund_customer_coins");
    session.fund_customer_coins(batch)?;
    rec.exit(span);

    let wal_medium = MemStorage::new();
    let snap_medium = MemStorage::new();
    let span = rec.enter("core.recovery_open");
    let (mut recovery, _) = RecoveryManager::open(wal_medium, snap_medium).map_err(store_err)?;
    rec.exit(span);

    let mut accepted = 0usize;
    let mut accept_latencies = Vec::with_capacity(config.payments_per_shard);
    let mut remaining = config.payments_per_shard;
    let mut batches = 0usize;
    let mut batch_ns = Vec::with_capacity(config.payments_per_shard.div_ceil(batch));
    while remaining > 0 {
        let batch_start = Instant::now();
        rec.set_op(op_base | batches as u64);
        let k = remaining.min(batch);
        session.trace_point(
            "engine.batch",
            vec![
                ("shard", shard.into()),
                ("size", k.into()),
                ("queued", remaining.into()),
            ],
        );
        let amounts = vec![config.amount_sats; k];
        let span = rec.enter("core.run_fast_payment_batch");
        let reports = session.run_fast_payment_batch(&amounts)?;
        rec.exit(span);

        // The six begin/complete calls per payment, as one span per batch.
        let span = rec.enter("core.journal");
        for report in &reports {
            let intent = recovery
                .begin(Step::OpenPayment {
                    txid: report.txid,
                    amount_sats: config.amount_sats,
                    collateral: per_payment,
                    psc_nonce: report.payment_id,
                })
                .map_err(store_err)?;
            recovery
                .complete(
                    intent,
                    Outcome::PaymentRegistered {
                        payment_id: report.payment_id,
                    },
                )
                .map_err(store_err)?;
            let intent = recovery
                .begin(Step::AcceptanceSend {
                    payment_id: report.payment_id,
                    accepted: report.accepted,
                })
                .map_err(store_err)?;
            let outcome = if report.accepted {
                Outcome::Applied
            } else {
                Outcome::Rejected
            };
            recovery.complete(intent, outcome).map_err(store_err)?;
            if report.accepted {
                let intent = recovery
                    .begin(Step::Broadcast {
                        payment_id: report.payment_id,
                        txid: report.txid,
                    })
                    .map_err(store_err)?;
                recovery
                    .complete(intent, Outcome::Applied)
                    .map_err(store_err)?;
                accepted += 1;
                accept_latencies.push(report.waiting);
            }
            counts.add("psc_gas", report.registration_gas as f64);
        }
        rec.exit(span);

        let span = rec.enter("core.mine_public_block");
        session.mine_public_block()?;
        rec.exit(span);
        remaining -= k;
        batches += 1;
        if batches.is_multiple_of(2) {
            let span = rec.enter("core.checkpoint");
            recovery.checkpoint().map_err(store_err)?;
            rec.exit(span);
        }
        batch_ns.push(batch_start.elapsed().as_nanos() as f64);
    }

    rec.set_op(op_base | 0xFFFF);
    let span = rec.enter("core.take_trace");
    let events = session.take_trace();
    rec.exit(span);
    let span = rec.enter("obs.render_jsonl");
    let trace_jsonl = btcfast_obs::render_jsonl(&events);
    rec.exit(span);
    let span = rec.enter("pscsim.state_commitment");
    let psc_commitment = session.psc.state_commitment();
    rec.exit(span);

    // Mean batch time of the last quarter of the run over the first.
    let quarter = (batch_ns.len() / 4).max(1);
    counts.add("batch_first_quarter_ns", batch_ns[..quarter].iter().sum());
    counts.add(
        "batch_last_quarter_ns",
        batch_ns[batch_ns.len() - quarter..].iter().sum(),
    );
    counts.add("payments", config.payments_per_shard as f64);
    counts.add("trace_bytes", trace_jsonl.len() as f64);
    counts.add("trace_dropped", session.trace_dropped() as f64);
    counts.add("wal_bytes", recovery.wal_stats().bytes_appended as f64);

    Ok(ShardRun {
        view: ShardView {
            seed,
            accepted,
            accept_latencies,
            psc_commitment,
            btc_tip: session.btc.tip_hash(),
        },
        rec,
        counts,
    })
}
