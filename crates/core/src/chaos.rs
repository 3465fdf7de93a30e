//! Chaos-mode protocol sessions: the escrow flow under fault injection.
//!
//! [`ChaosSession`] runs the protocol driver ([`crate::flow`]) over a
//! [`FastPaySession`] with the effects of a hostile network: every message
//! leg and every PSC call crosses a reliable [`Transport`] while a seeded
//! [`FaultPlan`] injects loss windows, partitions, crash-restart bounces,
//! and PSC block-production stalls, and every side-effecting step is
//! journaled through a [`RecoveryManager`]. This module owns only what is
//! genuinely chaos: fault application, crash re-hydration, and the
//! merchant's fallback. A PSC call means what it means under the ideal
//! effects: its one receipt, once it crosses the fabric. Three nodes live
//! on the chaos fabric: customer (`node0`), merchant (`node1`), and the
//! PSC endpoint (`node2`); a PSC call first travels caller → PSC node, so
//! a partition around `node2` *is* "the chain is unreachable".
//!
//! Two invariants drive the design:
//!
//! * **Determinism.** All randomness (fault schedule, loss draws,
//!   backoff jitter) descends from the run's `u64` seed. The session's
//!   span trace, the transport counters and the plan's fingerprint replay
//!   byte-identically.
//! * **Graceful degradation.** When escrow protection cannot be
//!   established before the deadline, the merchant never silently
//!   accepts an unprotected 0-conf payment: it degrades to the classic
//!   baseline of [`FALLBACK_CONFIRMATIONS`] confirmations.

use crate::config::SessionConfig;
use crate::flow::{self, Effects, Leg};
use crate::protocol::{Party, RejectReason};
use crate::recovery::{Outcome, RecoveryManager, Step};
use crate::robustness::{ChaosConfig, ProtocolPhase};
use crate::session::{AttackReport, FastPaySession, SessionError};
use btcfast_crypto::Hash256;
use btcfast_netsim::faults::{FaultAction, FaultPlan};
use btcfast_netsim::network::{Network, NodeId};
use btcfast_netsim::time::SimTime;
use btcfast_netsim::transport::{SendStatus, Transport, TransportStats};
use btcfast_obs::TraceContext;
use btcfast_payjudger::Call;
use btcfast_pscsim::tx::Receipt;
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
/// The confirmations a merchant waits for when escrow protection could not
/// be established: the classic baseline, slow but never less safe than the
/// pre-BTCFast world.
pub const FALLBACK_CONFIRMATIONS: u64 = 6;

/// Report of one fast payment attempted under chaos.
#[derive(Clone, Debug)]
pub struct ChaosPaymentReport {
    /// Did a sale complete (on either path)?
    pub accepted: bool,
    /// True when the escrow fast path protected the payment; false when
    /// the merchant degraded to the [`FALLBACK_CONFIRMATIONS`] baseline.
    pub protected: bool,
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
    /// Chaos knobs (deadlines, the transport's attempt budget).
    pub config: ChaosConfig,
    transport: Transport<ProtocolPhase>,
    plan: FaultPlan,
    psc_stalled: bool,
    /// The recovery journal. Its media are handle-shared [`MemStorage`], a
    /// disk that survives a simulated process crash;
    /// [`FaultAction::CrashRestart`] re-hydrates from them.
    recovery: RecoveryManager<MemStorage>,
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
        // Provisioning already deposited escrow; journal the fact, under
        // the nonce the deposit spent, so a recovered ledger knows
        // protection exists.
        let intent = recovery
            .begin(Step::EscrowOpen {
                deposit_units: session.config.escrow_deposit,
                psc_nonce: session.deposit_nonce,
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
            recoveries: 0,
            active_ctx: TraceContext::UNATTRIBUTED,
            obs_high_water: 0,
        }
    }

    /// Transport counters (retransmissions, dedups, failures).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Records the transport counters as a point event on the wrapped
    /// session's sim-time trace (a snapshot the JSONL exporters pick up).
    pub fn trace_transport_stats(&mut self) {
        let fields = self.transport.stats().fields();
        let fields = fields.into_iter().map(|(key, n)| (key, n.into())).collect();
        self.session.trace_point("transport.stats", fields);
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
    fn crash_restart(&mut self, node: NodeId) -> Result<(), SessionError> {
        self.transport.bounce(node);
        let report = self.recovery.restart()?;
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
    /// registration delivery fails), the merchant waits for
    /// [`FALLBACK_CONFIRMATIONS`] instead of accepting unprotected 0-conf.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when a point-of-sale phase fails outright
    /// (offer/acceptance undeliverable) or on session failures.
    pub fn run_fast_payment_chaos(
        &mut self,
        amount_sats: u64,
    ) -> Result<ChaosPaymentReport, SessionError> {
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
    ) -> Result<ChaosPaymentReport, SessionError> {
        self.apply_faults_due(self.transport.now())?;
        let tx = self.session.build_payment(amount_sats, &HashSet::new())?;
        let txid = tx.txid();

        let registered = match flow::register(self, root, txid, amount_sats) {
            Ok(registered) => registered,
            // The open never reached the chain: nothing is in doubt, so
            // its pending intent is retired as abandoned and the sale
            // degrades.
            Err(
                SessionError::PscUnreachable { .. }
                | SessionError::DeliveryFailed { .. }
                | SessionError::DeadlineExceeded { .. },
            ) => {
                let registration = self.recovery.pending().filter(
                    |(_, step)| matches!(step, Step::OpenPayment { txid: t, .. } if *t == txid),
                );
                if let Some((intent, _)) = registration.last() {
                    self.journal_done(intent, Outcome::Abandoned)?;
                }
                let tracer = &mut self.session.tracer;
                let degrade_ctx = tracer.child_of(&root);
                tracer.point_ctx(
                    "chaos.degrade",
                    degrade_ctx,
                    self.session.clock.as_micros(),
                    vec![],
                );
                return self.degrade(amount_sats);
            }
            Err(e) => return Err(e),
        };
        let payment_id = registered.payment_id;
        let pos = flow::point_of_sale(self, root, tx, txid, payment_id, amount_sats)?;
        Ok(ChaosPaymentReport {
            accepted: pos.reject.is_none(),
            protected: true,
            waiting: pos.waiting,
            txid,
            payment_id: Some(payment_id),
            offer_attempts: pos.offer_attempts,
            acceptance_attempts: pos.acceptance_attempts,
            reject: pos.reject,
        })
    }

    /// A double-spend attack resolved under chaos: protected payment,
    /// BTC race, then a transport-routed dispute flow.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when the payment cannot complete on the
    /// protected path or a dispute phase fails (undeliverable, the chain
    /// unreachable, evidence refused).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < attacker_hashrate < 1`.
    pub fn run_dispute_chaos(
        &mut self,
        amount_sats: u64,
        attacker_hashrate: f64,
        max_race_blocks: u64,
    ) -> Result<(ChaosPaymentReport, AttackReport), SessionError> {
        let payment = self.run_fast_payment_chaos(amount_sats)?;
        let Some(payment_id) = payment.payment_id.filter(|_| payment.accepted) else {
            return Err(SessionError::Btc(format!(
                "payment not escrow-protected under chaos: {payment:?}"
            )));
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
        Ok((payment, AttackReport::new(payment_id, race, dispute)))
    }

    /// Applies every fault-plan action due at or before `t`.
    fn apply_faults_due(&mut self, t: SimTime) -> Result<(), SessionError> {
        for event in self.plan.pop_due(t) {
            match event.action {
                FaultAction::SetLoss { p } => {
                    self.transport.network_mut().set_loss_probability(p);
                }
                FaultAction::Partition { a, b } => self.transport.network_mut().partition(a, b),
                FaultAction::Heal { a, b } => self.transport.network_mut().heal(a, b),
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
    /// When `ctx` is attributed, the transport attributes the send to it:
    /// its retransmissions, backoff waits, dedup drops, and give-ups come
    /// back as child events. The leg resolves — at or after the arrival,
    /// and at or after every child event — at the returned µs, which also
    /// feed the nesting high-water mark.
    fn drive_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        phase: ProtocolPhase,
        ctx: TraceContext,
    ) -> Leg {
        let send_at = self.transport.now();
        let obs_base = self.session.clock.as_micros();
        let deadline = send_at + self.config.phase_deadline;
        let delivery = self.apply_faults_due(send_at).and_then(|()| {
            let id = self.transport.send_traced(from, to, phase, ctx, obs_base);
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
                        break Err(SessionError::DeliveryFailed { phase, attempts });
                    }
                    SendStatus::Pending => {
                        let Some(next) = self.transport.next_event_at() else {
                            break Err(SessionError::DeadlineExceeded { phase, deadline });
                        };
                        if next > deadline {
                            break Err(SessionError::DeadlineExceeded { phase, deadline });
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
    fn wait_psc_reachable(&mut self, phase: ProtocolPhase) -> Result<(), SessionError> {
        let mut waited = SimTime::ZERO;
        let mut vnow = self.transport.now();
        while self.psc_stalled {
            let Some(next) = self.plan.next_at() else {
                return Err(SessionError::PscUnreachable { phase, waited });
            };
            let delta = next.saturating_sub(vnow);
            waited += delta;
            if waited > PSC_DEADLINE {
                return Err(SessionError::PscUnreachable { phase, waited });
            }
            vnow = vnow.max(next);
            self.apply_faults_due(next)?;
            self.session.advance_clock(delta);
        }
        Ok(())
    }

    /// The merchant's degradation path: escrow protection unavailable, so
    /// the sale waits for [`FALLBACK_CONFIRMATIONS`].
    fn degrade(&mut self, amount_sats: u64) -> Result<ChaosPaymentReport, SessionError> {
        let baseline = self
            .session
            .run_baseline_payment(amount_sats, FALLBACK_CONFIRMATIONS)?;
        Ok(ChaosPaymentReport {
            accepted: true,
            protected: false,
            waiting: baseline.waiting,
            txid: baseline.txid,
            payment_id: None,
            offer_attempts: 0,
            acceptance_attempts: 0,
            reject: None,
        })
    }
}

/// The hostile environment: legs cross the reliable transport between the
/// parties' nodes, PSC calls travel to the PSC node and wait out stalls
/// before they run, every step is journaled, and wrapper spans extend to
/// the retransmission high-water mark.
impl Effects for ChaosSession {
    fn session(&mut self) -> &mut FastPaySession {
        &mut self.session
    }

    fn leg(&mut self, phase: ProtocolPhase, ctx: TraceContext) -> Leg {
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
        call: Call,
    ) -> Result<Receipt, SessionError> {
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
        self.session.call(from, call)
    }

    fn journal_begin(&mut self, step: Step) -> Result<u64, SessionError> {
        Ok(self.recovery.begin(step)?)
    }

    fn journal_done(&mut self, intent: u64, outcome: Outcome) -> Result<(), SessionError> {
        Ok(self.recovery.complete(intent, outcome)?)
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
        assert!(report.accepted && report.protected);
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
        assert!(
            !report.protected,
            "merchant must degrade, not accept 0-conf"
        );
        assert!(report.accepted, "k-conf fallback still completes the sale");
        assert!(
            report.waiting.as_secs_f64() > 600.0,
            "baseline wait is blocks, not millis: {}",
            report.waiting
        );
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
    fn the_escrow_intent_names_the_nonce_the_deposit_spent() {
        use crate::recovery::JournalRecord;
        use btcfast_payjudger::client::CALL_GAS_LIMIT;
        use btcfast_pscsim::codec::Decode;

        let chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), FaultPlan::new(), 7);
        let wal = btcfast_store::wal::scan(&chaos.recovery().wal_medium().bytes());
        let Ok(JournalRecord::Begin {
            step:
                Step::EscrowOpen {
                    deposit_units,
                    psc_nonce,
                },
        }) = JournalRecord::decode(&wal.records[0].1)
        else {
            panic!("the journal opens with the escrow deposit");
        };
        // Rebuilt at the journaled nonce, the deposit must be the
        // transaction the chain executed.
        let session = &chaos.session;
        let deposit = session.judger.tx(
            session.customer.psc_keys(),
            psc_nonce,
            CALL_GAS_LIMIT,
            &Call::Deposit(deposit_units),
        );
        let receipt = session.psc.receipt(&deposit.hash());
        assert!(
            receipt.is_some_and(|r| r.status.is_success()),
            "the deposit journaled under nonce {psc_nonce} is not on chain"
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
        assert!(matches!(&error, SessionError::Journal(_)), "{error}");
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
                chaos.session.trace().to_vec(),
                chaos.transport_stats(),
            )
        };
        let (w1, d1, r1, t1, s1) = run(33);
        let (w2, d2, r2, t2, s2) = run(33);
        assert_eq!(w1, w2);
        assert_eq!(d1, d2, "durable digest must replay byte-identically");
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn dispute_flow_is_journaled_end_to_end() {
        let mut plan = FaultPlan::new();
        plan.crash_restart_at(MERCHANT_NODE, SimTime::from_millis(15));
        let mut chaos = ChaosSession::new(quick_config(), ChaosConfig::default(), plan, 37);
        let (payment, report) = chaos.run_dispute_chaos(1_000_000, 0.3, 12).unwrap();
        if report.merchant_lost_payment {
            let ledger = chaos.recovery().ledger();
            let state = ledger.payments.get(&payment.payment_id.unwrap()).unwrap();
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
            (
                report.waiting,
                chaos.session.trace().to_vec(),
                chaos.transport_stats(),
            )
        };
        assert_eq!(run(21), run(21));
    }
}
