//! The sharded payment engine: N concurrent customer→merchant sessions.
//!
//! The paper's throughput story is per-merchant: each merchant runs its own
//! PSC node and accepts fast payments independently, so aggregate capacity
//! scales with merchants, not with a shared bottleneck. [`PaymentEngine`]
//! models that as *shards* — each shard owns a complete, independent
//! [`FastPaySession`] (its own BTC chain, mempool, PSC chain, and escrow),
//! so shards share no mutable state and run in parallel on a
//! [`WorkerPool`] without locks.
//!
//! Each shard is served by one loop: a single server that takes queued
//! payments a batch at a time, journals every step to the shard's durable
//! store and confirms each batch with a BTC block. The open-loop
//! [`PaymentEngine::run_load`] feeds it a schedule of arrivals into a queue
//! bounded at the shard's share of the capacity
//! ([`AdmissionConfig::per_shard`]); the closed [`PaymentEngine::run`]
//! queues every payment at `t = 0`, unbounded.
//!
//! # Determinism
//!
//! Runs replay byte-identically from a single `u64` base seed:
//!
//! * each shard derives its own seed via a splitmix64 finalizer over
//!   `(base_seed, shard_index)` — shard streams never overlap and do not
//!   depend on worker scheduling;
//! * shards are shared-nothing, so execution order across threads cannot
//!   leak into any shard's outcome;
//! * [`WorkerPool::map_coarse`] preserves input order, so the outcome
//!   vector — and the [`EngineReport::fingerprint`] hashed over it — is
//!   independent of the worker count.
//!
//! The fingerprint covers every per-shard observable (accept counts,
//! exact simulated latencies, the PSC state commitment, the BTC tip, and
//! the shard's rendered JSONL trace), so two runs with equal fingerprints
//! executed the same payments against the same final chain states — and
//! recorded byte-identical per-phase traces doing it.

use crate::admission::{AdmissionConfig, ShardAdmissionStats, ShardQueue, Ticket};
use crate::config::SessionConfig;
use crate::flow::{self, Effects};
use crate::recovery::{Outcome, RecoveryManager, Step};
use crate::session::{FastPaySession, SessionError};
use btcfast_crypto::sha256::sha256d;
use btcfast_crypto::{Hash256, WorkerPool};
use btcfast_netsim::time::SimTime;
use btcfast_store::MemStorage;

/// Knobs of a sharded engine run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Per-shard session configuration. The escrow deposit is
    /// automatically raised (never lowered) to cover every payment's
    /// collateral for the whole run.
    pub session: SessionConfig,
    /// Independent shards (merchant deployments) to drive.
    pub shards: usize,
    /// Payments each shard executes.
    pub payments_per_shard: usize,
    /// Payments per batch: a batch spends disjoint confirmed coins,
    /// registers all its escrow payments in one PSC block, and is
    /// confirmed by one public BTC block.
    pub batch_size: usize,
    /// Value of each payment, satoshis.
    pub amount_sats: u64,
    /// Crash-restart drill cadence: after every N batches the shard's
    /// server, under [`PaymentEngine::run`] and [`PaymentEngine::run_load`]
    /// alike, drops its volatile recovery manager and re-hydrates from the
    /// durable media, asserting the recovered digest matches. `0` disables
    /// drills, and every harness runs 0: the field stays because the drill
    /// is reached only through it (`crash_restart_drills_recover_…` below)
    /// and `benchmark/` spells it in its `EngineConfig` literals.
    pub crash_restart_every: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            session: SessionConfig::default(),
            shards: 4,
            payments_per_shard: 16,
            batch_size: 8,
            amount_sats: 1_000_000,
            crash_restart_every: 0,
        }
    }
}

/// What one shard observed, in a deterministic, hashable form.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// The derived per-shard seed.
    pub seed: u64,
    /// Payments the merchant accepted.
    pub accepted: usize,
    /// Payments the merchant rejected.
    pub rejected: usize,
    /// Point-of-sale waiting time of every accepted payment, in order.
    pub accept_latencies: Vec<SimTime>,
    /// The shard's final PSC world-state commitment.
    pub psc_commitment: Hash256,
    /// The shard's final BTC tip hash.
    pub btc_tip: Hash256,
    /// The shard's per-phase trace, rendered as canonical JSONL (empty
    /// when [`SessionConfig::tracing`] is off). Hashed into the run
    /// fingerprint, so the replay guarantee covers traces too.
    pub trace_jsonl: String,
    /// Digest of the shard's durable payment ledger (WAL-journaled); a
    /// crash-restart drill must land on the same digest, and it is hashed
    /// into the run fingerprint so replays cover recovery too.
    pub store_digest: Hash256,
    /// Crash-restart drills the shard performed (all digest-verified).
    pub recoveries: u64,
}

impl ShardOutcome {
    /// Canonical byte encoding hashed into the run fingerprint.
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.shard as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.accepted as u64).to_le_bytes());
        out.extend_from_slice(&(self.rejected as u64).to_le_bytes());
        out.extend_from_slice(&(self.accept_latencies.len() as u64).to_le_bytes());
        for latency in &self.accept_latencies {
            out.extend_from_slice(&latency.as_micros().to_le_bytes());
        }
        out.extend_from_slice(&self.psc_commitment.0);
        out.extend_from_slice(&self.btc_tip.0);
        out.extend_from_slice(&(self.trace_jsonl.len() as u64).to_le_bytes());
        out.extend_from_slice(self.trace_jsonl.as_bytes());
        out.extend_from_slice(&self.store_digest.0);
        out.extend_from_slice(&self.recoveries.to_le_bytes());
    }
}

/// The aggregate of one engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineReport {
    /// Per-shard outcomes, in shard order.
    pub outcomes: Vec<ShardOutcome>,
    /// Payments attempted across all shards.
    pub total_payments: usize,
    /// Payments accepted across all shards.
    pub total_accepted: usize,
    /// SHA-256d over the canonical encoding of every outcome: equal
    /// fingerprints ⇒ byte-identical replays.
    pub fingerprint: Hash256,
}

impl EngineReport {
    /// `(p50, p99)` of the simulated accept latency across all shards, in
    /// seconds. `None` when nothing was accepted.
    pub fn accept_latency_quantiles(&self) -> Option<(f64, f64)> {
        p50_p99(self.outcomes.iter().flat_map(|o| &o.accept_latencies))
    }
}

/// `(p50, p99)` of `latencies` in seconds, by the workspace's one rank rule
/// ([`btcfast_obs::stats`]). `None` when there are none.
fn p50_p99<'a>(latencies: impl Iterator<Item = &'a SimTime>) -> Option<(f64, f64)> {
    let mut micros: Vec<u64> = latencies.map(SimTime::as_micros).collect();
    micros.sort_unstable();
    let rank = |q: f64| btcfast_obs::stats::quantile_sorted_u64(&micros, q).map(|v| v as f64 / 1e6);
    Some((rank(0.50)?, rank(0.99)?))
}

/// Derives shard `index`'s seed from the base seed: a splitmix64
/// finalizer, so neighboring indices produce uncorrelated streams.
fn shard_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives [`EngineConfig::shards`] independent payment sessions in
/// parallel.
#[derive(Clone, Debug)]
pub struct PaymentEngine {
    config: EngineConfig,
}

impl PaymentEngine {
    /// An engine over `config`.
    pub fn new(config: EngineConfig) -> PaymentEngine {
        PaymentEngine { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs every shard to completion on `pool` and aggregates: the closed
    /// loop, which is the open-loop server of [`Self::run_load`] with each
    /// shard's [`EngineConfig::payments_per_shard`] payments all queued at
    /// `t = 0` under an unbounded queue.
    ///
    /// # Errors
    ///
    /// Returns the first shard's [`SessionError`] (in shard order) when a
    /// payment or registration fails.
    pub fn run(&self, base_seed: u64, pool: &WorkerPool) -> Result<EngineReport, SessionError> {
        let payments = self.config.payments_per_shard;
        let shards: Vec<usize> = (0..self.config.shards).collect();
        let results = pool.map_coarse(&shards, |&shard| {
            let all_at_zero = [LoadArrival {
                at: SimTime::ZERO,
                shard,
                payments,
            }];
            let unbounded = AdmissionConfig::unbounded();
            self.serve_shard(base_seed, &all_at_zero, payments, shard, unbounded)
                .map(Server::outcome)
        });

        let outcomes: Vec<ShardOutcome> = results.into_iter().collect::<Result<_, _>>()?;
        let total_accepted = outcomes.iter().map(|o| o.accepted).sum();
        let mut bytes = Vec::new();
        for outcome in &outcomes {
            outcome.encode(&mut bytes);
        }
        Ok(EngineReport {
            total_payments: self.config.shards * self.config.payments_per_shard,
            total_accepted,
            fingerprint: sha256d(&bytes),
            outcomes,
        })
    }
}

/// One scheduled open-loop arrival: `payments` equal-value payments bound
/// for `shard` at global time `at`.
///
/// The schedule is fixed *before* the run (typically sampled from
/// `btcfast_netsim::poisson::OpenLoopArrivals`), so arrivals keep coming
/// at the offered rate whether or not the shards keep up — the open-loop
/// property that exposes saturation instead of hiding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadArrival {
    /// Arrival offset on the global run timeline (`t = 0` is the instant
    /// every shard finishes provisioning).
    pub at: SimTime,
    /// Destination shard.
    pub shard: usize,
    /// Payments in the arriving batch.
    pub payments: usize,
}

/// What one shard observed during an open-loop load run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLoadOutcome {
    /// The shard index.
    pub shard: usize,
    /// The derived per-shard seed.
    pub seed: u64,
    /// Payments the schedule offered to this shard.
    pub offered: usize,
    /// Payments that reached the session (admitted and served).
    pub executed: usize,
    /// Served payments the merchant accepted.
    pub accepted: usize,
    /// Served payments the merchant rejected (protocol rejection, not a
    /// load shed).
    pub rejected: usize,
    /// This shard's admission accounting (admitted, sheds, high-water).
    pub admission: ShardAdmissionStats,
    /// Accept latency of every accepted payment, in service order,
    /// charged from the payment's *scheduled arrival* — not from when a
    /// server finally picked it up — so queueing delay under overload is
    /// measured, not coordinated-omission-hidden.
    pub accept_latencies: Vec<SimTime>,
    /// The shard's final PSC world-state commitment.
    pub psc_commitment: Hash256,
    /// The shard's final BTC tip hash.
    pub btc_tip: Hash256,
    /// Escrow value locked at the end of the run.
    pub escrow_locked: u128,
    /// Total escrow balance at the end of the run; solvency requires
    /// `escrow_locked <= escrow_balance` at all times.
    pub escrow_balance: u128,
    /// The lock the ledger *should* hold: per-payment collateral × served
    /// payments. Shed payments never reach registration, so any
    /// difference is escrow residue — value leaked by shedding.
    pub expected_locked: u128,
}

impl ShardLoadOutcome {
    /// Escrow residue: absolute difference between the locked value and
    /// what the served payments account for. Non-zero means shedding
    /// leaked or stranded escrow value.
    pub fn escrow_residue(&self) -> u128 {
        self.escrow_locked.abs_diff(self.expected_locked)
    }

    /// Canonical byte encoding hashed into the load-run fingerprint.
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.shard as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.offered as u64).to_le_bytes());
        out.extend_from_slice(&(self.executed as u64).to_le_bytes());
        out.extend_from_slice(&(self.accepted as u64).to_le_bytes());
        out.extend_from_slice(&(self.rejected as u64).to_le_bytes());
        out.extend_from_slice(&self.admission.admitted.to_le_bytes());
        out.extend_from_slice(&self.admission.rejected_new.to_le_bytes());
        out.extend_from_slice(&(self.admission.high_water as u64).to_le_bytes());
        out.extend_from_slice(&(self.accept_latencies.len() as u64).to_le_bytes());
        for latency in &self.accept_latencies {
            out.extend_from_slice(&latency.as_micros().to_le_bytes());
        }
        out.extend_from_slice(&self.psc_commitment.0);
        out.extend_from_slice(&self.btc_tip.0);
        out.extend_from_slice(&self.escrow_locked.to_le_bytes());
        out.extend_from_slice(&self.escrow_balance.to_le_bytes());
        out.extend_from_slice(&self.expected_locked.to_le_bytes());
    }
}

/// The aggregate of one open-loop load run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Per-shard outcomes, in shard order.
    pub outcomes: Vec<ShardLoadOutcome>,
    /// Every shed ticket across the run, in `seq` order — the
    /// deterministic shed set, hashed into [`LoadReport::fingerprint`].
    pub shed: Vec<Ticket>,
    /// Payments the schedule offered across all shards.
    pub offered: usize,
    /// Payments served across all shards.
    pub executed: usize,
    /// Global-timeline instant the last service completed.
    pub makespan: SimTime,
    /// SHA-256d over every outcome's canonical encoding plus the shed
    /// set: equal fingerprints ⇒ byte-identical replays *including every
    /// shedding decision*.
    pub fingerprint: Hash256,
}

impl LoadReport {
    /// Payments shed (never served) across all shards.
    pub fn shed_count(&self) -> usize {
        self.shed.len()
    }

    /// Shed fraction of the offered load, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed.len() as f64 / self.offered as f64
        }
    }

    /// Merchant-accepted payments across all shards.
    pub fn total_accepted(&self) -> usize {
        self.outcomes.iter().map(|o| o.accepted).sum()
    }

    /// Goodput: accepted payments per simulated second of makespan.
    pub fn goodput_per_sec(&self) -> f64 {
        let span = self.makespan.as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.total_accepted() as f64 / span
        }
    }

    /// `(p50, p99)` accept latency across all shards in seconds, charged
    /// from scheduled arrival. `None` when nothing was accepted.
    pub fn accept_latency_quantiles(&self) -> Option<(f64, f64)> {
        p50_p99(self.outcomes.iter().flat_map(|o| &o.accept_latencies))
    }

    /// Total escrow residue across shards — zero iff shed payments left
    /// no trace in any escrow (value conservation).
    pub fn escrow_residue(&self) -> u128 {
        self.outcomes.iter().map(|o| o.escrow_residue()).sum()
    }
}

/// A shard: its session under the ideal effects, every step journaled
/// to the shard's durable store.
type Shard = (FastPaySession, RecoveryManager<MemStorage>);

impl Effects for Shard {
    fn session(&mut self) -> &mut FastPaySession {
        &mut self.0
    }

    fn journal_begin(&mut self, step: Step) -> Result<u64, SessionError> {
        Ok(self.1.begin(step)?)
    }

    fn journal_done(&mut self, intent: u64, outcome: Outcome) -> Result<(), SessionError> {
        Ok(self.1.complete(intent, outcome)?)
    }
}

/// `config`'s shard at `seed`, provisioned for `payments` payments: the
/// escrow deposit raised (never lowered) to cover every payment's
/// collateral and one to spare, one confirmed customer coin per slot of a
/// batch, and its journal opened on fresh media after provisioning.
fn open_shard(config: &EngineConfig, payments: usize, seed: u64) -> Result<Shard, SessionError> {
    let mut session_config = config.session.clone();
    let per_payment = session_config.required_collateral(config.amount_sats);
    let whole_run = per_payment.saturating_mul(payments as u128 + 1);
    session_config.escrow_deposit = session_config.escrow_deposit.max(whole_run);
    let mut session = FastPaySession::new(session_config, seed);
    session.fund_customer_coins(config.batch_size.max(1))?;
    // Clone-shared handles, so a restart models losing volatile state
    // while the "disk" survives.
    let (recovery, _) = RecoveryManager::open(MemStorage::new(), MemStorage::new())?;
    Ok((session, recovery))
}

/// One shard's single server: its journaled session, its admission queue
/// and a record of every payment it has served.
struct Server {
    /// The global shard index.
    shard: usize,
    seed: u64,
    fx: Shard,
    /// Session-clock reading at `t = 0` of the global timeline.
    start: SimTime,
    queue: ShardQueue,
    /// Global-timeline instant the next service round starts (the one in
    /// flight completes); `None` when idle.
    busy_until: Option<SimTime>,
    rounds: usize,
    /// Crash-restart drills performed (all digest-verified).
    recoveries: u64,
    /// Each served payment's scheduled arrival and, when the merchant
    /// accepted it, its point-of-sale wait and its completion stamp.
    served: Vec<(SimTime, Option<(SimTime, SimTime)>)>,
}

impl Server {
    /// Starts one service round at global time `now`: pops up to
    /// `batch_size` tickets, runs them as one journaled batch confirmed by
    /// one BTC block, and marks the server busy until the batch completes,
    /// or idle when the queue is empty. Alternate rounds checkpoint, so
    /// drills (every [`EngineConfig::crash_restart_every`] rounds) exercise
    /// both the snapshot-plus-tail and the full-replay recovery paths.
    fn serve(&mut self, config: &EngineConfig, now: SimTime) -> Result<(), SessionError> {
        let tickets: Vec<Ticket> = std::iter::from_fn(|| self.queue.pop())
            .take(config.batch_size.max(1))
            .collect();
        if tickets.is_empty() {
            self.busy_until = None;
            return Ok(());
        }

        // Advance the shard's session clock to the global service start:
        // a no-op for a round that starts the instant the last one ended.
        let session = &mut self.fx.0;
        let target = self.start + now;
        if target > session.clock {
            let delta = target - session.clock;
            session.advance_clock(delta);
        }
        session.trace_point(
            "engine.batch",
            vec![
                ("shard", self.shard.into()),
                ("size", tickets.len().into()),
                ("queued", (tickets.len() + self.queue.len()).into()),
            ],
        );
        let amounts: Vec<u64> = tickets.iter().map(|t| t.amount_sats).collect();
        let reports = flow::batch(&mut self.fx, &amounts)?;
        for (ticket, report) in tickets.iter().zip(reports) {
            let accepted = report
                .accepted
                .then_some((report.waiting, report.accepted_at));
            self.served.push((ticket.arrival, accepted));
        }
        // Confirm the batch: its change outputs are the next round's
        // disjoint confirmed coins.
        let (session, recovery) = &mut self.fx;
        session.mine_public_block()?;
        self.rounds += 1;
        if self.rounds.is_multiple_of(2) {
            recovery.checkpoint()?;
        }
        if config.crash_restart_every > 0 && self.rounds.is_multiple_of(config.crash_restart_every)
        {
            let report = recovery.restart()?;
            self.recoveries += 1;
            session.trace_point(
                "recovery.restart",
                vec![
                    ("shard", self.shard.into()),
                    ("replayed", report.replayed_records.into()),
                    ("snapshot", report.snapshot_used.into()),
                ],
            );
        }
        self.busy_until = Some(session.clock - self.start);
        Ok(())
    }

    /// Serves every round that starts at or before `until` (all of them
    /// when `None`), each starting the instant the one before ends.
    fn serve_until(
        &mut self,
        config: &EngineConfig,
        until: Option<SimTime>,
    ) -> Result<(), SessionError> {
        while let Some(done) = self
            .busy_until
            .filter(|&done| until.is_none_or(|until| done <= until))
        {
            self.serve(config, done)?;
        }
        Ok(())
    }

    /// What a closed run reports: point-of-sale waits, the rendered trace,
    /// the journal's digest and the drills.
    fn outcome(mut self) -> ShardOutcome {
        let (session, recovery) = &mut self.fx;
        let trace_jsonl = btcfast_obs::render_jsonl(&session.take_trace());
        let accept_latencies: Vec<SimTime> = self
            .served
            .iter()
            .filter_map(|(_, accepted)| accepted.map(|(waiting, _)| waiting))
            .collect();
        ShardOutcome {
            shard: self.shard,
            seed: self.seed,
            accepted: accept_latencies.len(),
            rejected: self.served.len() - accept_latencies.len(),
            accept_latencies,
            psc_commitment: session.psc.state_commitment(),
            btc_tip: session.btc.tip_hash(),
            trace_jsonl,
            store_digest: recovery.digest(),
            recoveries: self.recoveries,
        }
    }

    /// What an open-loop run that offered the shard `offered` payments
    /// reports: the outcome, the shed tickets in `seq` order and the
    /// instant the last round completed.
    fn load_outcome(
        self,
        offered: usize,
        per_payment: u128,
    ) -> Result<(ShardLoadOutcome, Vec<Ticket>, SimTime), SessionError> {
        let session = &self.fx.0;
        let record = session
            .judger
            .escrow(&session.psc, session.customer.psc_account())
            .map_err(|e| SessionError::Psc(format!("escrow view: {e}")))?;
        let executed = self.served.len();
        // Coordinated-omission-correct: completion minus *scheduled*
        // arrival, so time spent queued under overload is charged.
        let accept_latencies: Vec<SimTime> = self
            .served
            .iter()
            .filter_map(|(arrival, accepted)| {
                accepted.map(|(_, done)| (done - self.start).saturating_sub(*arrival))
            })
            .collect();
        let outcome = ShardLoadOutcome {
            shard: self.shard,
            seed: self.seed,
            offered,
            executed,
            accepted: accept_latencies.len(),
            rejected: executed - accept_latencies.len(),
            admission: self.queue.stats(),
            psc_commitment: session.psc.state_commitment(),
            btc_tip: session.btc.tip_hash(),
            escrow_locked: record.locked,
            escrow_balance: record.balance,
            expected_locked: per_payment.saturating_mul(executed as u128),
            accept_latencies,
        };
        let makespan = session.clock - self.start;
        Ok((outcome, self.queue.into_shed_log(), makespan))
    }
}

impl PaymentEngine {
    /// Drives an open-loop arrival schedule through every shard with
    /// bounded admission.
    ///
    /// Each shard has a queue of its own, bounded at
    /// [`AdmissionConfig::per_shard`], and one server that takes queued
    /// payments [`EngineConfig::batch_size`] at a time. A shard walks its
    /// arrivals in schedule order: it serves every round that completes at
    /// or before the arrival (capacity frees before the next admission
    /// decision), offers the arrival's payments — a full queue refuses
    /// them into the shed set — and starts a round if it is idle. Shards
    /// share nothing, so they run in parallel on the host's
    /// [`WorkerPool`], and the run is a pure function of `(schedule,
    /// base_seed, admission)`.
    ///
    /// [`EngineConfig::payments_per_shard`] is ignored here — the
    /// schedule decides how much work each shard sees. So is
    /// [`SessionConfig::tracing`]: a [`LoadReport`] carries no trace, so
    /// the shards are served [`untraced`](Self::untraced).
    ///
    /// # Errors
    ///
    /// [`SessionError::BadSchedule`] when the schedule is not sorted by
    /// arrival time or targets a shard out of range; otherwise the lowest
    /// failing shard's [`SessionError`]. Overload is *not* an error at
    /// this level: shed payments are reported, not failed.
    pub fn run_load(
        &self,
        base_seed: u64,
        schedule: &[LoadArrival],
        admission: AdmissionConfig,
    ) -> Result<LoadReport, SessionError> {
        self.run_load_on(
            base_seed,
            schedule,
            admission,
            &WorkerPool::with_default_parallelism(),
        )
    }

    /// [`run_load`](Self::run_load) with the shards mapped over `pool`.
    pub(crate) fn run_load_on(
        &self,
        base_seed: u64,
        schedule: &[LoadArrival],
        admission: AdmissionConfig,
        pool: &WorkerPool,
    ) -> Result<LoadReport, SessionError> {
        let mut offered = vec![0usize; self.config.shards];
        let mut prev = SimTime::ZERO;
        for (index, arrival) in schedule.iter().enumerate() {
            let bad = |reason| SessionError::BadSchedule { index, reason };
            let slot = offered
                .get_mut(arrival.shard)
                .ok_or_else(|| bad("shard out of range"))?;
            if arrival.at < prev {
                return Err(bad("earlier than the arrival before it"));
            }
            prev = arrival.at;
            *slot += arrival.payments;
        }

        let engine = self.untraced();
        let config = &engine.config;
        let per_payment = config.session.required_collateral(config.amount_sats);
        let shards: Vec<usize> = (0..config.shards).collect();
        let results = pool.map_coarse(&shards, |&shard| {
            engine
                .serve_shard(base_seed, schedule, offered[shard], shard, admission)?
                .load_outcome(offered[shard], per_payment)
        });
        let mut outcomes = Vec::with_capacity(results.len());
        let mut shed = Vec::new();
        let mut makespan = SimTime::ZERO;
        for result in results {
            let (outcome, shard_shed, shard_makespan) = result?;
            outcomes.push(outcome);
            shed.extend(shard_shed);
            makespan = makespan.max(shard_makespan);
        }
        shed.sort_by_key(|ticket| ticket.seq);

        let mut bytes = Vec::new();
        for outcome in &outcomes {
            outcome.encode(&mut bytes);
        }
        for ticket in &shed {
            bytes.extend_from_slice(&ticket.seq.to_le_bytes());
            bytes.extend_from_slice(&(ticket.shard as u64).to_le_bytes());
            bytes.extend_from_slice(&ticket.arrival.as_micros().to_le_bytes());
            bytes.extend_from_slice(&ticket.amount_sats.to_le_bytes());
        }

        Ok(LoadReport {
            offered: offered.iter().sum(),
            executed: outcomes.iter().map(|o| o.executed).sum(),
            shed,
            makespan,
            fingerprint: sha256d(&bytes),
            outcomes,
        })
    }

    /// This engine with [`SessionConfig::tracing`] off.
    fn untraced(&self) -> PaymentEngine {
        let mut engine = self.clone();
        engine.config.session.tracing = false;
        engine
    }

    /// Shard `shard`'s server, provisioned for the `offered` payments the
    /// schedule sends it (escrow covers every one admitted), run over its
    /// arrivals as [`Self::run_load`] describes, then drained.
    fn serve_shard(
        &self,
        base_seed: u64,
        schedule: &[LoadArrival],
        offered: usize,
        shard: usize,
        admission: AdmissionConfig,
    ) -> Result<Server, SessionError> {
        let config = &self.config;
        let seed = shard_seed(base_seed, shard as u64);
        let fx = open_shard(config, offered, seed)?;
        let mut server = Server {
            shard,
            seed,
            start: fx.0.clock,
            fx,
            queue: ShardQueue::new(admission.per_shard(config.shards)),
            busy_until: None,
            rounds: 0,
            recoveries: 0,
            served: Vec::new(),
        };

        // A ticket's seq counts every payment offered before it, to any shard.
        let mut first_seq = 0u64;
        for arrival in schedule {
            let seqs = first_seq..first_seq + arrival.payments as u64;
            first_seq = seqs.end;
            if arrival.shard != shard {
                continue;
            }
            server.serve_until(config, Some(arrival.at))?;
            for seq in seqs {
                server.queue.offer(Ticket {
                    seq,
                    shard,
                    arrival: arrival.at,
                    amount_sats: config.amount_sats,
                });
            }
            // An idle server's next round starts now, so it is served
            // before the next admission decision.
            server.busy_until.get_or_insert(arrival.at);
        }
        server.serve_until(config, None)?;
        debug_assert_eq!(server.queue.len(), 0, "the drain left work queued");
        Ok(server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EngineConfig {
        EngineConfig {
            shards: 2,
            payments_per_shard: 3,
            batch_size: 2,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn engine_accepts_every_payment_sub_second() {
        for shards in [1, 2] {
            let engine = PaymentEngine::new(EngineConfig { shards, ..small() });
            let report = engine.run(42, &WorkerPool::new(2)).unwrap();
            assert_eq!(report.total_payments, 3 * shards);
            assert_eq!(report.total_accepted, 3 * shards);
            assert!(report.outcomes.iter().all(|o| o.rejected == 0));
            let (p50, p99) = report.accept_latency_quantiles().unwrap();
            assert!(p50 <= p99);
            assert!(p99 < 1.0, "{shards} shards: p99 accept latency = {p99}s");
        }
    }

    #[test]
    fn same_seed_replays_byte_identically_across_worker_counts() {
        let engine = PaymentEngine::new(small());
        let sequential = engine.run(7, &WorkerPool::new(1)).unwrap();
        let parallel = engine.run(7, &WorkerPool::new(4)).unwrap();
        assert_eq!(sequential.fingerprint, parallel.fingerprint);
        assert_eq!(sequential.outcomes, parallel.outcomes);
        // The fingerprint now hashes the rendered trace too, so equal
        // fingerprints certify byte-identical per-shard traces.
        for (a, b) in sequential.outcomes.iter().zip(&parallel.outcomes) {
            assert!(!a.trace_jsonl.is_empty(), "tracing defaults on");
            assert_eq!(a.trace_jsonl, b.trace_jsonl);
        }
        // And a third run, same pool, still identical.
        let again = engine.run(7, &WorkerPool::new(4)).unwrap();
        assert_eq!(parallel.fingerprint, again.fingerprint);
    }

    #[test]
    fn crash_restart_drills_recover_byte_identical_state() {
        let clean = PaymentEngine::new(small())
            .run(5, &WorkerPool::new(2))
            .unwrap();
        let mut config = small();
        config.crash_restart_every = 1;
        let crashed = PaymentEngine::new(config.clone())
            .run(5, &WorkerPool::new(2))
            .unwrap();
        // Crash drills never change what the shard pays or records: the
        // durable ledger digest matches the uninterrupted run shard for
        // shard, and the payment outcomes are unaffected.
        assert_eq!(clean.total_accepted, crashed.total_accepted);
        for (a, b) in clean.outcomes.iter().zip(&crashed.outcomes) {
            assert_eq!(a.store_digest, b.store_digest, "shard {}", a.shard);
            assert_eq!(a.recoveries, 0);
            assert!(b.recoveries > 0, "drills ran");
            assert_eq!(a.accepted, b.accepted);
        }
        // Same-seed reruns including crash-restart events replay
        // byte-identically across worker counts.
        let again = PaymentEngine::new(config)
            .run(5, &WorkerPool::new(4))
            .unwrap();
        assert_eq!(crashed.fingerprint, again.fingerprint);
        assert_eq!(crashed.outcomes, again.outcomes);
    }

    #[test]
    fn the_closed_run_is_the_open_loop_server_with_every_payment_queued_at_zero() {
        let (engine, config) = (PaymentEngine::new(small()), small());
        let at_zero = |shard| LoadArrival {
            at: SimTime::ZERO,
            shard,
            payments: config.payments_per_shard,
        };
        let schedule: Vec<LoadArrival> = (0..config.shards).map(at_zero).collect();
        let closed = engine.run(13, &WorkerPool::new(2)).unwrap();
        let unbounded = AdmissionConfig::unbounded();
        let open = engine.run_load(13, &schedule, unbounded).unwrap();
        assert_eq!(open.outcomes.len(), config.shards);
        for (c, o) in closed.outcomes.iter().zip(&open.outcomes) {
            assert_eq!((c.psc_commitment, c.btc_tip), (o.psc_commitment, o.btc_tip));
            assert_eq!((c.shard, c.accepted), (o.shard, o.accepted));
        }
    }

    #[test]
    fn journal_names_the_nonce_each_registration_spends() {
        use crate::recovery::JournalRecord;
        use btcfast_pscsim::codec::Decode;

        let config = small();
        let mut fx = open_shard(&config, 4, 9).unwrap();
        for _ in 0..2 {
            flow::batch(&mut fx, &[config.amount_sats; 2]).unwrap();
            fx.0.mine_public_block().unwrap();
        }
        let (session, recovery) = &fx;
        let mut registrations = 0;
        for (_, payload) in btcfast_store::wal::scan(&recovery.wal_medium().bytes()).records {
            let Ok(JournalRecord::Begin {
                step:
                    Step::OpenPayment {
                        txid,
                        amount_sats,
                        collateral,
                        psc_nonce,
                    },
            }) = JournalRecord::decode(&payload)
            else {
                continue;
            };
            // Rebuilt at the journaled nonce, the registration must be the
            // transaction the chain executed for this txid.
            let tx = session.customer.build_open_payment_at(
                &session.judger,
                psc_nonce,
                session.merchant.psc_account(),
                txid,
                amount_sats,
                collateral,
            );
            let receipt = session.psc.receipt(&tx.hash());
            assert!(
                receipt.is_some_and(|r| r.status.is_success()),
                "payment {txid} journaled under nonce {psc_nonce}, which registered nothing"
            );
            registrations += 1;
        }
        assert_eq!(registrations, 4);
    }

    #[test]
    fn the_engine_journals_each_registration_ahead_of_its_block() {
        use crate::recovery::JournalRecord;
        use btcfast_pscsim::codec::Decode;
        use btcfast_store::wal::{scan, HEADER_BYTES};

        let config = EngineConfig {
            batch_size: 4,
            ..small()
        };
        let mut fx = open_shard(&config, 4, 3).unwrap();
        let nonce_base = fx.0.psc_nonce(crate::protocol::Party::Customer);
        flow::batch(&mut fx, &[config.amount_sats; 4]).unwrap();
        let wal = fx.1.wal_medium().bytes();

        // Re-open the log cut at every record boundary: a crash there.
        let opens_payment = |step: &Step| matches!(step, Step::OpenPayment { .. });
        let (mut cut, mut registrations) = (0, 0);
        for (_, payload) in scan(&wal).records {
            cut += HEADER_BYTES + payload.len();
            let media = MemStorage::from_bytes(wal[..cut].to_vec());
            let (recovery, _) = RecoveryManager::open(media, MemStorage::new())
                .unwrap_or_else(|e| panic!("the cut at byte {cut} does not open: {e}"));
            match JournalRecord::decode(&payload).unwrap() {
                JournalRecord::Begin { step } if opens_payment(&step) => registrations += 1,
                _ => continue,
            }
            if registrations == 4 {
                // All four registrations are in doubt before their block.
                let pending: Vec<_> = recovery
                    .pending()
                    .map(|(_, step)| (opens_payment(step), step.psc_nonce()))
                    .collect();
                let expected: Vec<_> = (nonce_base..nonce_base + 4)
                    .map(|n| (true, Some(n)))
                    .collect();
                assert_eq!(pending, expected);
            }
        }
        assert_eq!((cut, registrations), (wal.len(), 4));
        assert_eq!(fx.1.pending().count(), 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let engine = PaymentEngine::new(small());
        let a = engine.run(1, &WorkerPool::new(2)).unwrap();
        let b = engine.run(2, &WorkerPool::new(2)).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    use crate::admission::SheddingPolicy;

    /// A deterministic overload schedule: `per_shard` single-payment
    /// arrivals to each of `shards` shards, interleaved round-robin at
    /// one arrival per `gap_ms` milliseconds — far faster than a shard
    /// serves, so bounded admission must shed.
    fn burst_schedule(shards: usize, per_shard: usize, gap_ms: u64) -> Vec<LoadArrival> {
        (0..shards * per_shard)
            .map(|i| LoadArrival {
                at: SimTime::from_millis(i as u64 * gap_ms),
                shard: i % shards,
                payments: 1,
            })
            .collect()
    }

    fn load_engine(shards: usize) -> PaymentEngine {
        PaymentEngine::new(EngineConfig {
            session: SessionConfig::eos_flavored(),
            shards,
            batch_size: 4,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn overloaded_bounded_queue_sheds_and_conserves_escrow() {
        let engine = load_engine(2);
        let schedule = burst_schedule(2, 12, 5);
        let report = engine
            .run_load(
                3,
                &schedule,
                AdmissionConfig::bounded(4, SheddingPolicy::FairPerShard),
            )
            .unwrap();
        assert_eq!(report.offered, 24);
        assert!(report.shed_count() > 0, "overload must shed");
        assert_eq!(report.executed + report.shed_count(), report.offered);
        // Value conservation: shed payments never touch the escrow.
        assert_eq!(report.escrow_residue(), 0);
        for outcome in &report.outcomes {
            assert_eq!(outcome.escrow_locked, outcome.expected_locked);
            assert_eq!(outcome.executed, outcome.admission.admitted as usize);
            assert!(outcome.admission.high_water >= 1);
        }
        let shed: u64 = report
            .outcomes
            .iter()
            .map(|o| o.admission.rejected_new)
            .sum();
        assert_eq!(shed, report.shed_count() as u64);
    }

    #[test]
    fn unbounded_queue_never_sheds_but_latency_grows() {
        let engine = load_engine(1);
        let schedule = burst_schedule(1, 16, 5);
        let unbounded = engine
            .run_load(3, &schedule, AdmissionConfig::unbounded())
            .unwrap();
        assert_eq!(unbounded.shed_count(), 0);
        assert_eq!(unbounded.executed, 16);
        let bounded = engine
            .run_load(
                3,
                &schedule,
                AdmissionConfig::bounded(2, SheddingPolicy::FairPerShard),
            )
            .unwrap();
        assert!(bounded.shed_count() > 0);
        // Open-loop p99 is charged from scheduled arrival: the unbounded
        // queue's tail reflects everything queued behind it, while the
        // bounded queue holds the tail down by refusing work.
        let (_, p99_unbounded) = unbounded.accept_latency_quantiles().unwrap();
        let (_, p99_bounded) = bounded.accept_latency_quantiles().unwrap();
        assert!(
            p99_unbounded > p99_bounded,
            "unbounded p99 {p99_unbounded}s should exceed bounded p99 {p99_bounded}s"
        );
    }

    #[test]
    fn a_served_load_shard_records_no_trace() {
        let engine = load_engine(1);
        let schedule = burst_schedule(1, 16, 5);
        let unbounded = AdmissionConfig::unbounded();
        let serve = |engine: &PaymentEngine| {
            let server = engine.serve_shard(3, &schedule, 16, 0, unbounded).unwrap();
            assert_eq!(server.served.len(), 16);
            server.fx.0.trace().len()
        };
        // `run_load` serves untraced; `run` under the default config traces.
        assert_eq!(serve(&engine.untraced()), 0);
        assert!(serve(&engine) > 16);
    }

    #[test]
    fn load_run_replays_byte_identically_per_seed() {
        let engine = load_engine(2);
        let schedule = burst_schedule(2, 8, 10);
        let admission = AdmissionConfig::bounded(3, SheddingPolicy::FairPerShard);
        let a = engine.run_load(11, &schedule, admission).unwrap();
        let b = engine.run_load(11, &schedule, admission).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.shed, b.shed, "the shed set replays exactly");
        let c = engine.run_load(12, &schedule, admission).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint, "seeds diverge");
    }

    #[test]
    fn shed_set_is_part_of_the_fingerprint() {
        let engine = load_engine(1);
        let schedule = burst_schedule(1, 10, 5);
        let tight = engine
            .run_load(
                9,
                &schedule,
                AdmissionConfig::bounded(2, SheddingPolicy::FairPerShard),
            )
            .unwrap();
        let loose = engine
            .run_load(
                9,
                &schedule,
                AdmissionConfig::bounded(6, SheddingPolicy::FairPerShard),
            )
            .unwrap();
        assert!(tight.shed_count() > loose.shed_count());
        assert_ne!(
            tight.fingerprint, loose.fingerprint,
            "different shedding decisions must change the fingerprint"
        );
    }

    #[test]
    fn empty_schedule_is_a_clean_noop() {
        let engine = load_engine(1);
        let report = engine.run_load(1, &[], AdmissionConfig::default()).unwrap();
        assert_eq!(report.offered, 0);
        assert_eq!(report.executed, 0);
        assert_eq!(report.shed_count(), 0);
        assert_eq!(report.goodput_per_sec(), 0.0);
        assert!(report.accept_latency_quantiles().is_none());
    }

    #[test]
    fn a_schedule_the_engine_cannot_run_is_a_typed_error() {
        let engine = load_engine(1);
        let arrival = |secs, shard| LoadArrival {
            at: SimTime::from_secs(secs),
            shard,
            payments: 1,
        };
        let run =
            |schedule: &[LoadArrival]| engine.run_load(1, schedule, AdmissionConfig::default());
        assert!(matches!(
            run(&[arrival(2, 0), arrival(1, 0)]),
            Err(SessionError::BadSchedule { index: 1, .. })
        ));
        assert!(matches!(
            run(&[arrival(1, 0), arrival(2, 1)]),
            Err(SessionError::BadSchedule { index: 1, .. })
        ));
    }

    #[test]
    fn a_zero_shard_engine_runs_an_empty_load() {
        let engine = PaymentEngine::new(EngineConfig {
            shards: 0,
            ..EngineConfig::default()
        });
        let report = engine.run_load(1, &[], AdmissionConfig::default()).unwrap();
        assert!(report.outcomes.is_empty());
        assert!(report.shed.is_empty());
        assert_eq!((report.offered, report.executed), (0, 0));
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report.fingerprint, sha256d(&[]));
    }

    mod isolation {
        use super::*;
        use proptest::prelude::*;

        /// `tests/load_solvency.rs`'s schedules over up to three shards:
        /// up to 9 arrivals of 1–2 payments, millisecond gaps.
        fn schedule() -> impl Strategy<Value = Vec<LoadArrival>> {
            proptest::collection::vec((1u64..80, 0usize..3, 1usize..3), 1..10).prop_map(|steps| {
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
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Merchants share nothing: the report is the same at any worker
            /// count, and each shard reports exactly what it reports when the
            /// schedule sends nothing to any other shard.
            #[test]
            fn each_shard_reports_what_it_reports_alone_at_any_worker_count(
                seed in 0u64..1_000,
                shards in 2usize..4,
                capacity in prop_oneof![0usize..8, Just(usize::MAX)],
                schedule in schedule(),
            ) {
                let engine = PaymentEngine::new(EngineConfig {
                    session: SessionConfig::eos_flavored(),
                    shards,
                    batch_size: 3,
                    ..EngineConfig::default()
                });
                let schedule: Vec<LoadArrival> = schedule
                    .into_iter()
                    .map(|a| LoadArrival { shard: a.shard % shards, ..a })
                    .collect();
                let admission = AdmissionConfig { capacity };
                let run = |schedule: &[LoadArrival], threads| {
                    engine
                        .run_load_on(seed, schedule, admission, &WorkerPool::new(threads))
                        .expect("load run")
                };
                let report = run(&schedule, 1);
                for threads in [2, 4] {
                    prop_assert_eq!(&run(&schedule, threads), &report, "{} threads", threads);
                }
                for (shard, outcome) in report.outcomes.iter().enumerate() {
                    let alone: Vec<LoadArrival> =
                        schedule.iter().filter(|a| a.shard == shard).copied().collect();
                    prop_assert_eq!(&run(&alone, 1).outcomes[shard], outcome, "shard {}", shard);
                }
            }
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..16).map(|i| shard_seed(99, i)).collect();
        let unique: std::collections::HashSet<&u64> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(
            seeds,
            (0..16).map(|i| shard_seed(99, i)).collect::<Vec<_>>()
        );
    }
}
