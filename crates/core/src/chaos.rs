//! Chaos-mode protocol sessions: the escrow flow under fault injection.
//!
//! [`ChaosSession`] runs the protocol driver ([`crate::flow`]) over a
//! [`FastPaySession`] with the effects of a hostile network: every message
//! leg and every PSC call crosses a reliable [`Transport`] while a seeded
//! [`FaultPlan`] injects loss windows, partitions, crashes, and PSC
//! block-production stalls, and every side-effecting step is journaled
//! through a [`RecoveryManager`]. This module owns only what is genuinely
//! chaos: fault application, crash re-hydration, the gas-bumped PSC
//! resubmission loop, and the merchant's degradation policy. Three nodes
//! live on the chaos fabric: customer (`node0`), merchant (`node1`), and
//! the PSC endpoint (`node2`); a PSC call first travels caller → PSC node,
//! so a partition around `node2` *is* "the chain is unreachable".
//!
//! Two invariants drive the design:
//!
//! * **Determinism.** All randomness (fault schedule, loss draws,
//!   backoff jitter) descends from the run's `u64` seed. The transport's
//!   event trace plus the plan's fingerprint replay byte-identically.
//! * **Graceful degradation.** When escrow protection cannot be
//!   established before the deadline, the merchant never silently
//!   accepts an unprotected 0-conf payment: per
//!   [`FallbackPolicy`] it either refuses the sale or degrades to the
//!   classic k-confirmation baseline.

use crate::config::SessionConfig;
use crate::flow::{self, Effects, Leg, Party};
use crate::protocol::RejectReason;
use crate::recovery::{Outcome, RecoveryError, RecoveryManager, Step};
use crate::robustness::{ChaosConfig, FallbackPolicy, ProtocolPhase, RobustnessError};
use crate::session::{FastPaySession, RaceOutcome, SessionError};
use btcfast_crypto::keys::KeyPair;
use btcfast_crypto::Hash256;
use btcfast_netsim::faults::{FaultAction, FaultPlan};
use btcfast_netsim::network::{Network, NodeId};
use btcfast_netsim::time::SimTime;
use btcfast_netsim::transport::{SendStatus, Transport, TransportStats};
use btcfast_obs::TraceContext;
use btcfast_payjudger::client::CALL_GAS_LIMIT;
use btcfast_payjudger::retry::{submit_with_retry, AttemptResult, RetryReport};
use btcfast_payjudger::types::DisputeVerdict;
use btcfast_pscsim::tx::PscTransaction;
use btcfast_store::MemStorage;
use std::collections::HashSet;

/// The customer's node on the chaos fabric.
pub const CUSTOMER_NODE: NodeId = NodeId(0);
/// The merchant's node on the chaos fabric.
pub const MERCHANT_NODE: NodeId = NodeId(1);
/// The PSC chain endpoint on the chaos fabric.
pub const PSC_NODE: NodeId = NodeId(2);
/// How long a caller waits out a PSC stall before declaring the chain
/// unreachable and degrading.
pub const PSC_DEADLINE: SimTime = SimTime::from_secs(120);

/// Report of one fast payment attempted under chaos.
#[derive(Clone, Debug)]
pub struct ChaosPaymentReport {
    /// Did a sale complete (on either path)?
    pub accepted: bool,
    /// True when the escrow fast path protected the payment.
    pub protected: bool,
    /// True when the merchant degraded to the k-confirmation baseline.
    pub fell_back: bool,
    /// Point-of-sale waiting time (baseline waiting when degraded).
    pub waiting: SimTime,
    /// The BTC txid of the payment.
    pub txid: Hash256,
    /// The escrow payment id, when registration succeeded.
    pub payment_id: Option<u64>,
    /// Transmissions the offer needed.
    pub offer_attempts: u32,
    /// Transmissions the acceptance needed.
    pub acceptance_attempts: u32,
    /// The merchant's rejection, when the offer was refused on the merits.
    pub reject: Option<RejectReason>,
}

/// Report of a double-spend attack resolved under chaos.
#[derive(Clone, Debug)]
pub struct ChaosDisputeReport {
    /// The protected payment that was attacked.
    pub payment: ChaosPaymentReport,
    /// The BTC race outcome.
    pub race: RaceOutcome,
    /// The judgment, when a dispute ran to completion.
    pub verdict: Option<DisputeVerdict>,
    /// Did collateral reach the merchant?
    pub merchant_compensated: bool,
    /// Merchant's net loss in satoshis (negative = over-compensated).
    pub merchant_net_loss_sats: i64,
    /// PSC submissions the dispute call needed.
    pub dispute_attempts: u32,
    /// PSC submissions the evidence call needed.
    pub evidence_attempts: u32,
    /// PSC submissions the judge call needed.
    pub judge_attempts: u32,
    /// PSC gas fees the merchant paid across every dispute-path attempt.
    pub merchant_fee_units: u128,
    /// Dispute open → verdict, simulated.
    pub dispute_duration: SimTime,
}

/// Escrow-side balances at one instant, for conservation checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EscrowSnapshot {
    /// The customer's escrow balance inside the contract.
    pub escrow_balance: u128,
    /// The locked portion of that balance.
    pub escrow_locked: u128,
    /// The contract account's native balance.
    pub contract_balance: u128,
    /// The merchant's native balance.
    pub merchant_balance: u128,
}

/// A [`FastPaySession`] driven through a reliable transport under a
/// scripted fault plan. See the module docs.
pub struct ChaosSession {
    /// The protocol state the driver acts on.
    pub session: FastPaySession,
    /// Chaos knobs (deadlines, retry policy, fallback).
    pub config: ChaosConfig,
    transport: Transport<ProtocolPhase>,
    plan: FaultPlan,
    psc_stalled: bool,
    /// The recovery journal. Its media are handle-shared [`MemStorage`], a
    /// disk that survives a simulated process crash;
    /// [`FaultAction::CrashRestart`] re-hydrates from them.
    recovery: RecoveryManager<MemStorage>,
    /// The journal intent begun last and not yet retired.
    open_intent: u64,
    recoveries: u64,
    /// Root context of the payment/dispute being driven (or driven last),
    /// so mid-flight observations (recovery restarts) are attributed to
    /// the causal tree that triggered them.
    active_ctx: TraceContext,
    /// Latest span end (session-clock µs) produced by transport legs of
    /// the active payment; wrapper spans extend to cover it, keeping the
    /// span forest properly nested even when retransmission timers trail
    /// the delivery the session clock advanced to.
    obs_high_water: u64,
}

impl ChaosSession {
    /// Provisions a session (funded accounts, deployed judger, finalized
    /// escrow) and a three-node chaos fabric, all seeded from `seed`.
    pub fn new(
        session_config: SessionConfig,
        chaos_config: ChaosConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> ChaosSession {
        let network = Network::new(3, session_config.latency);
        let transport = Transport::new(
            network,
            chaos_config.transport.clone(),
            seed ^ 0xC4A0_5CA0_5EED,
        );
        let (mut recovery, _) = RecoveryManager::open(MemStorage::new(), MemStorage::new())
            .expect("fresh durable media open");
        let session = FastPaySession::new(session_config, seed);
        // Provisioning already deposited escrow; journal the fact so a
        // recovered ledger knows protection exists.
        let intent = recovery
            .begin(Step::EscrowOpen {
                deposit_units: session.config.escrow_deposit,
                psc_nonce: session.psc.nonce_of(&session.customer.psc_account()),
            })
            .expect("journal escrow open");
        recovery
            .complete(intent, Outcome::Applied)
            .expect("journal escrow open done");
        ChaosSession {
            session,
            config: chaos_config,
            transport,
            plan,
            psc_stalled: false,
            recovery,
            open_intent: intent,
            recoveries: 0,
            active_ctx: TraceContext::UNATTRIBUTED,
            obs_high_water: 0,
        }
    }

    /// The transport's deterministic event trace (replay evidence).
    pub fn event_trace(&self) -> &[String] {
        self.transport.trace()
    }

    /// Transport counters (retransmissions, dedups, failures).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Records the transport counters as a point event on the wrapped
    /// session's sim-time trace (a snapshot the JSONL exporters pick up).
    pub fn trace_transport_stats(&mut self) {
        let stats = self.transport.stats();
        self.session.trace_point(
            "transport.stats",
            vec![
                ("sent", stats.sent.into()),
                ("retransmissions", stats.retransmissions.into()),
                ("delivered", stats.delivered.into()),
                ("failed", stats.failed.into()),
                ("dedup_drops", stats.duplicates_dropped.into()),
                ("backoff_wait_us", stats.backoff_wait_micros.into()),
                ("dedup_high_water", stats.dedup_high_water.into()),
                ("pending_high_water", stats.pending_high_water.into()),
                ("dedup_evictions", stats.dedup_evictions.into()),
                ("resolved_retired", stats.resolved_retired.into()),
            ],
        );
    }

    /// The durable payment ledger reconstructed from the journal.
    pub fn recovery(&self) -> &RecoveryManager<MemStorage> {
        &self.recovery
    }

    /// How many crash-restart recoveries this session has survived.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Canonical digest of the durable state (ledger + pending intents).
    pub fn store_digest(&self) -> Hash256 {
        self.recovery.digest()
    }

    /// Simulated process crash + restart-from-store: volatile transport
    /// state for `node` is lost and the recovery manager re-hydrates from
    /// the surviving media ([`RecoveryManager::restart`]). Media that no
    /// longer re-open, or re-open to another digest, are a journal error.
    fn crash_restart(&mut self, node: NodeId) -> Result<(), RobustnessError> {
        self.transport.crash(node);
        self.transport.restart(node);
        let report = self.recovery.restart().map_err(journal_err)?;
        self.recoveries += 1;
        let tracer = &mut self.session.tracer;
        let restart_ctx = tracer.child_of(&self.active_ctx);
        tracer.point_ctx(
            "recovery.restart",
            restart_ctx,
            self.session.clock.as_micros(),
            vec![
                ("node", u64::from(node.0).into()),
                ("replayed", report.replayed_records.into()),
                ("pending_resumed", report.pending_resumed.into()),
                ("snapshot_used", report.snapshot_used.into()),
            ],
        );
        Ok(())
    }

    /// Escrow-side balances right now, for conservation assertions.
    ///
    /// # Panics
    ///
    /// Panics when the escrow does not exist (pre-provisioning).
    pub fn escrow_snapshot(&self) -> EscrowSnapshot {
        let session = &self.session;
        let record = session
            .judger
            .escrow(&session.psc, session.customer.psc_account())
            .expect("escrow provisioned");
        EscrowSnapshot {
            escrow_balance: record.balance,
            escrow_locked: record.locked,
            contract_balance: session.psc.balance_of(&session.judger.contract),
            merchant_balance: session.psc.balance_of(&session.merchant.psc_account()),
        }
    }

    /// One fast payment with every phase routed through the transport.
    ///
    /// When the PSC chain cannot be reached within [`PSC_DEADLINE`] (or
    /// registration delivery fails),
    /// the merchant degrades per [`ChaosConfig::fallback`] instead of
    /// accepting unprotected 0-conf.
    ///
    /// # Errors
    ///
    /// Returns [`RobustnessError`] when a point-of-sale phase fails
    /// outright (offer/acceptance undeliverable) or on session failures.
    pub fn run_fast_payment_chaos(
        &mut self,
        amount_sats: u64,
    ) -> Result<ChaosPaymentReport, RobustnessError> {
        flow::payment(
            self,
            |chaos, root| chaos.run_payment_phases(amount_sats, root),
            |report| (report.payment_id, report.accepted),
        )
    }

    /// The driver's units under the payment's `root`, with the one thing
    /// between them that only chaos has: degrading when registration
    /// never reached the chain.
    fn run_payment_phases(
        &mut self,
        amount_sats: u64,
        root: TraceContext,
    ) -> Result<ChaosPaymentReport, RobustnessError> {
        self.apply_faults_due(self.transport.now())?;
        let tx = self.session.build_payment(amount_sats, &HashSet::new())?;
        let txid = tx.txid();

        let registered = match flow::register(self, root, txid, amount_sats) {
            Ok(registered) => registered,
            // The open never reached the chain: nothing is in doubt, so
            // the intent is retired as abandoned and the sale degrades.
            Err(
                RobustnessError::PscUnreachable { .. }
                | RobustnessError::DeliveryFailed { .. }
                | RobustnessError::DeadlineExceeded { .. },
            ) => {
                self.journal_done(Outcome::Abandoned)?;
                let tracer = &mut self.session.tracer;
                let degrade_ctx = tracer.child_of(&root);
                tracer.point_ctx(
                    "chaos.degrade",
                    degrade_ctx,
                    self.session.clock.as_micros(),
                    vec![],
                );
                return self.degrade(amount_sats, txid);
            }
            Err(e) => return Err(e),
        };
        let payment_id = registered.payment_id;
        let pos = flow::point_of_sale(self, root, tx, txid, payment_id, amount_sats)?;
        Ok(ChaosPaymentReport {
            accepted: pos.reject.is_none(),
            protected: true,
            fell_back: false,
            waiting: pos.waiting,
            txid,
            payment_id: Some(payment_id),
            offer_attempts: pos.offer_attempts,
            acceptance_attempts: pos.acceptance_attempts,
            reject: pos.reject,
        })
    }

    /// A double-spend attack resolved under chaos: protected payment,
    /// BTC race, then a transport-routed, retry-aware dispute flow.
    ///
    /// # Errors
    ///
    /// Returns [`RobustnessError`] when the payment cannot complete on
    /// the protected path or a dispute-phase submission fails for a
    /// non-retryable reason.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < attacker_hashrate < 1`.
    pub fn run_dispute_chaos(
        &mut self,
        amount_sats: u64,
        attacker_hashrate: f64,
        max_race_blocks: u64,
    ) -> Result<ChaosDisputeReport, RobustnessError> {
        let payment = self.run_fast_payment_chaos(amount_sats)?;
        let Some(payment_id) = payment.payment_id.filter(|_| payment.accepted) else {
            return Err(RobustnessError::Session(SessionError::Btc(format!(
                "payment not escrow-protected under chaos: {payment:?}"
            ))));
        };
        let (race, dispute) = flow::double_spend(
            self,
            payment_id,
            payment.txid,
            amount_sats,
            attacker_hashrate,
            max_race_blocks,
        )?;
        if race.merchant_lost_payment {
            self.trace_transport_stats();
        }
        let [dispute_attempts, evidence_attempts, judge_attempts] = dispute.attempts;
        Ok(ChaosDisputeReport {
            payment,
            race,
            verdict: dispute.verdict,
            merchant_compensated: dispute.merchant_compensated,
            merchant_net_loss_sats: dispute.merchant_net_loss_sats,
            dispute_attempts,
            evidence_attempts,
            judge_attempts,
            merchant_fee_units: dispute.fee_units,
            dispute_duration: dispute.duration,
        })
    }

    /// Applies every fault-plan action due at or before `t`.
    fn apply_faults_due(&mut self, t: SimTime) -> Result<(), RobustnessError> {
        for event in self.plan.pop_due(t) {
            match event.action {
                FaultAction::SetLoss { p } => {
                    self.transport.network_mut().set_loss_probability(p);
                }
                FaultAction::SetDuplication { p } => {
                    self.transport.set_duplicate_probability(p);
                }
                FaultAction::Partition { a, b } => self.transport.network_mut().partition(a, b),
                FaultAction::Heal { a, b } => self.transport.network_mut().heal(a, b),
                FaultAction::Crash { node } => self.transport.crash(node),
                FaultAction::Restart { node } => self.transport.restart(node),
                FaultAction::CrashRestart { node } => self.crash_restart(node)?,
                FaultAction::PscStall => self.psc_stalled = true,
                FaultAction::PscResume => self.psc_stalled = false,
            }
        }
        Ok(())
    }

    /// Drives one message from `from` to `to` to resolution, interleaving
    /// fault-plan actions with transport events in time order, and
    /// advances the session clock to the first arrival.
    ///
    /// When `ctx` is attributed, the frame carries it on the wire: the
    /// transport's retransmissions, backoff waits, dedup drops, and
    /// give-ups come back as child events. The leg resolves — at or after
    /// the arrival, and at or after every child event — at the returned
    /// µs, which also feed the nesting high-water mark.
    fn drive_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: ProtocolPhase,
        ctx: TraceContext,
    ) -> Leg<RobustnessError> {
        let send_at = self.transport.now();
        let obs_base = self.session.clock.as_micros();
        let deadline = send_at + self.config.phase_deadline;
        let delivery = self.apply_faults_due(send_at).and_then(|()| {
            let id = self
                .transport
                .send_traced(from, to, phase, &ctx.to_wire(), obs_base);
            loop {
                match self.transport.status(id) {
                    SendStatus::Delivered { at, attempts } => {
                        let arrival = self
                            .transport
                            .take_inbox(to)
                            .into_iter()
                            .map(|(t, _)| t)
                            .next_back()
                            .unwrap_or(at);
                        break Ok((arrival.saturating_sub(send_at), attempts));
                    }
                    SendStatus::Failed { attempts } => {
                        break Err(RobustnessError::DeliveryFailed { phase, attempts });
                    }
                    SendStatus::Pending => {
                        let Some(next) = self.transport.next_event_at() else {
                            break Err(RobustnessError::DeadlineExceeded { phase, deadline });
                        };
                        if next > deadline {
                            break Err(RobustnessError::DeadlineExceeded { phase, deadline });
                        }
                        self.apply_faults_due(next)?;
                        self.transport.run_until(next);
                    }
                }
            }
        });
        let end_micros = obs_base.saturating_add(
            self.transport
                .now()
                .as_micros()
                .saturating_sub(send_at.as_micros()),
        );
        let transport_events = self.transport.take_trace_events();
        self.session.tracer.extend(transport_events);
        self.obs_high_water = self.obs_high_water.max(end_micros);
        let attempts = delivery.map(|(arrival, attempts)| {
            self.session.advance_clock(arrival);
            attempts
        });
        (end_micros, attempts)
    }

    /// Waits out a PSC block-production stall by fast-forwarding to the
    /// fault plan's next actions, up to [`PSC_DEADLINE`].
    fn wait_psc_reachable(&mut self, phase: ProtocolPhase) -> Result<(), RobustnessError> {
        let mut waited = SimTime::ZERO;
        let mut vnow = self.transport.now();
        while self.psc_stalled {
            let Some(next) = self.plan.next_at() else {
                return Err(RobustnessError::PscUnreachable { phase, waited });
            };
            let delta = next.saturating_sub(vnow);
            waited += delta;
            if waited > PSC_DEADLINE {
                return Err(RobustnessError::PscUnreachable { phase, waited });
            }
            vnow = vnow.max(next);
            self.apply_faults_due(next)?;
            self.session.advance_clock(delta);
        }
        Ok(())
    }

    /// The merchant's degradation path: escrow protection unavailable, so
    /// either refuse the sale or run the k-confirmation baseline.
    fn degrade(
        &mut self,
        amount_sats: u64,
        txid: Hash256,
    ) -> Result<ChaosPaymentReport, RobustnessError> {
        let unprotected = ChaosPaymentReport {
            accepted: false,
            protected: false,
            fell_back: true,
            waiting: SimTime::ZERO,
            txid,
            payment_id: None,
            offer_attempts: 0,
            acceptance_attempts: 0,
            reject: None,
        };
        match self.config.fallback {
            FallbackPolicy::RejectUnprotected => Ok(ChaosPaymentReport {
                reject: Some(RejectReason::EscrowNotFound(
                    "PSC unreachable past deadline; policy rejects unprotected sales".into(),
                )),
                ..unprotected
            }),
            FallbackPolicy::KConfirmations(k) => {
                let baseline = self.session.run_baseline_payment(amount_sats, k)?;
                Ok(ChaosPaymentReport {
                    accepted: true,
                    waiting: baseline.waiting,
                    txid: baseline.txid,
                    ..unprotected
                })
            }
        }
    }
}

/// The hostile environment: legs cross the reliable transport between the
/// parties' nodes, PSC calls travel to the PSC node, wait out stalls and
/// run the gas-bumped resubmission loop, every step is journaled, and
/// wrapper spans extend to the retransmission high-water mark.
impl Effects for ChaosSession {
    type Error = RobustnessError;

    fn session(&mut self) -> &mut FastPaySession {
        &mut self.session
    }

    fn leg(&mut self, phase: ProtocolPhase, ctx: TraceContext) -> Leg<RobustnessError> {
        let (from, to) = match phase {
            ProtocolPhase::Acceptance => (MERCHANT_NODE, CUSTOMER_NODE),
            _ => (CUSTOMER_NODE, MERCHANT_NODE),
        };
        self.drive_message(from, to, phase, ctx)
    }

    fn psc_call(
        &mut self,
        phase: ProtocolPhase,
        from: Party,
        ctx: TraceContext,
        window_deadline: Option<SimTime>,
        mut build: impl FnMut(&FastPaySession) -> PscTransaction,
    ) -> Result<RetryReport, RobustnessError> {
        let node = match from {
            Party::Customer => CUSTOMER_NODE,
            Party::Merchant => MERCHANT_NODE,
        };
        let start = self.session.clock.as_micros();
        let leg_ctx = self.session.tracer.child_of(&ctx);
        let (end, delivered) = self.drive_message(node, PSC_NODE, phase, leg_ctx);
        let fields = vec![("ok", delivered.is_ok().into())];
        let tracer = &mut self.session.tracer;
        tracer.span_ctx("chaos.psc_delivery", leg_ctx, start, end, fields);
        delivered?;
        self.wait_psc_reachable(phase)?;

        let session = &mut self.session;
        submit_with_retry(CALL_GAS_LIMIT, |gas| {
            if window_deadline.is_some_and(|d| session.clock > d) {
                return AttemptResult::WindowClosed;
            }
            let keys = match from {
                Party::Customer => session.customer.psc_keys(),
                Party::Merchant => session.merchant.psc_keys(),
            };
            let tx = regas(build(session), gas, keys);
            match session.run_psc_tx(tx) {
                Ok(receipt) => AttemptResult::Executed(receipt),
                Err(e) => AttemptResult::Aborted(e.to_string()),
            }
        })
        .map_err(|error| RobustnessError::Retry { phase, error })
    }

    fn journal_begin(&mut self, step: Step) -> Result<(), RobustnessError> {
        self.open_intent = self.recovery.begin(step).map_err(journal_err)?;
        Ok(())
    }

    fn journal_done(&mut self, outcome: Outcome) -> Result<(), RobustnessError> {
        self.recovery
            .complete(self.open_intent, outcome)
            .map_err(journal_err)
    }

    fn span_end(&mut self) -> u64 {
        self.session.clock.as_micros().max(self.obs_high_water)
    }

    /// Also makes `root` the context mid-flight observations (recovery
    /// restarts) are attributed to, and restarts the nesting high-water
    /// mark at the root's start.
    fn open_root(&mut self) -> TraceContext {
        let root = self.session.tracer.mint_root();
        self.active_ctx = root;
        self.obs_high_water = self.session.clock.as_micros();
        root
    }
}

/// Re-signs `tx` at a different gas limit (no-op when already there).
fn regas(mut tx: PscTransaction, gas: u64, keys: &KeyPair) -> PscTransaction {
    if tx.gas_limit != gas {
        tx.gas_limit = gas;
        tx.signature = None;
        tx = tx.sign(keys);
    }
    tx
}

/// Maps a journal failure into the session error surface.
fn journal_err(e: RecoveryError) -> RobustnessError {
    RobustnessError::Session(SessionError::Psc(format!("recovery journal: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_netsim::faults::ChaosSpec;

    fn quick_config() -> SessionConfig {
        SessionConfig {
            challenge_window_secs: 100_000,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn clean_chaos_run_matches_fast_path() {
        let mut chaos =
            ChaosSession::new(quick_config(), ChaosConfig::default(), FaultPlan::new(), 11);
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(report.accepted && report.protected && !report.fell_back);
        assert_eq!(report.offer_attempts, 1);
        assert_eq!(report.acceptance_attempts, 1);
        assert!(
            report.waiting.as_secs_f64() < 1.0,
            "clean-run waiting = {}",
            report.waiting
        );
    }

    #[test]
    fn lossy_run_still_protected_with_retransmissions() {
        let mut plan = FaultPlan::new();
        plan.loss_window(SimTime::ZERO, SimTime::from_secs(3_600), 0.3);
        let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, 12);
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(report.accepted && report.protected);
        let stats = chaos.transport_stats();
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn psc_stall_past_deadline_degrades_to_baseline() {
        let mut plan = FaultPlan::new();
        // Stall the PSC chain for far longer than the reachability deadline.
        plan.psc_stall_window(SimTime::ZERO, SimTime::from_secs(100_000));
        let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, 13);
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(report.fell_back, "merchant must degrade, not accept 0-conf");
        assert!(!report.protected);
        assert!(report.accepted, "k-conf fallback still completes the sale");
        assert!(
            report.waiting.as_secs_f64() > 600.0,
            "baseline wait is blocks, not millis: {}",
            report.waiting
        );
    }

    #[test]
    fn reject_unprotected_policy_refuses_the_sale() {
        let mut plan = FaultPlan::new();
        plan.psc_stall_window(SimTime::ZERO, SimTime::from_secs(100_000));
        let config = ChaosConfig {
            fallback: FallbackPolicy::RejectUnprotected,
            ..ChaosConfig::default()
        };
        let mut chaos = ChaosSession::new(quick_config(), config, plan, 14);
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(!report.accepted && report.fell_back);
    }

    #[test]
    fn crash_restart_recovers_durable_state_mid_payment() {
        let mut plan = FaultPlan::new();
        // Bounce every node once while the payment phases are in flight.
        plan.crash_restart_at(CUSTOMER_NODE, SimTime::from_millis(5));
        plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(40));
        plan.crash_restart_at(PSC_NODE, SimTime::from_millis(90));
        let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, 31);
        let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
        assert!(report.accepted && report.protected, "{report:?}");
        assert!(chaos.recoveries() >= 1, "no crash drill actually fired");
        // The durable ledger saw the whole flow: escrow open, payment
        // registered, offered, accepted, broadcast — nothing pending.
        let ledger = chaos.recovery().ledger();
        assert!(ledger.escrow_opened);
        let state = ledger
            .payments
            .get(&report.payment_id.unwrap())
            .expect("payment in durable ledger");
        assert!(state.offered && state.accepted && state.broadcast);
        assert_eq!(chaos.recovery().pending().count(), 0);
        assert_eq!(
            ledger.value_accepted_sats, 1_000_000,
            "accepted value is durably accounted"
        );
    }

    #[test]
    fn crash_restart_over_damaged_media_is_a_typed_error_not_a_panic() {
        use btcfast_store::Storage;

        let mut plan = FaultPlan::new();
        plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(5));
        let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, 31);
        // The "disk" loses its log behind the live process: the journal
        // the next restart re-hydrates from no longer holds the escrow.
        let mut wal = chaos.recovery().wal_medium().clone();
        wal.truncate(0).unwrap();
        let error = chaos.run_fast_payment_chaos(1_000_000).unwrap_err();
        assert!(
            matches!(
                &error,
                RobustnessError::Session(SessionError::Psc(msg)) if msg.starts_with("recovery journal:")
            ),
            "{error}"
        );
        assert_eq!(
            chaos.recoveries(),
            0,
            "the failed re-open is not a recovery"
        );
        // The root span still closed over the failed payment.
        let jsonl = btcfast_obs::render_jsonl(chaos.session.trace());
        assert!(btcfast_obs::build_trees(&jsonl).is_ok(), "{jsonl}");
    }

    #[test]
    fn crash_restart_runs_are_reproducible_with_identical_digests() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new();
            plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(20));
            plan.crash_restart_at(PSC_NODE, SimTime::from_millis(60));
            let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, seed);
            let report = chaos.run_fast_payment_chaos(750_000).unwrap();
            (
                report.waiting,
                chaos.store_digest(),
                chaos.recoveries(),
                chaos.event_trace().to_vec(),
            )
        };
        let (w1, d1, r1, t1) = run(33);
        let (w2, d2, r2, t2) = run(33);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2, "durable digest must replay byte-identically");
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn dispute_flow_is_journaled_end_to_end() {
        let mut plan = FaultPlan::new();
        plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(15));
        let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, 37);
        let report = chaos.run_dispute_chaos(1_000_000, 0.3, 12).unwrap();
        if report.race.merchant_lost_payment {
            let ledger = chaos.recovery().ledger();
            let state = &ledger.payments[&report.payment.payment_id.unwrap()];
            assert!(state.disputed && state.evidence_submitted && state.judged);
            assert_eq!(state.merchant_wins, Some(report.merchant_compensated));
        }
        assert_eq!(chaos.recovery().pending().count(), 0);
    }

    #[test]
    fn seeded_chaos_payment_is_reproducible() {
        let run = |seed: u64| {
            let spec = ChaosSpec {
                loss_rate: 0.2,
                ..ChaosSpec::default()
            };
            let plan = FaultPlan::from_seed(seed, &spec);
            let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, seed);
            let report = chaos.run_fast_payment_chaos(1_000_000).unwrap();
            (report.waiting, chaos.event_trace().to_vec())
        };
        let (w1, t1) = run(21);
        let (w2, t2) = run(21);
        assert_eq!(w1, w2);
        assert_eq!(t1, t2);
    }
}
