//! End-to-end protocol sessions: discrete-event simulations wiring the BTC
//! chain, the PSC chain, PayJudger, and the network fabric together.
//!
//! Three measured scenarios:
//!
//! * [`FastPaySession::run_fast_payment`] — the honest fast path (E1/E7):
//!   offer → merchant checks → acceptance, under sampled network latency;
//! * [`FastPaySession::run_baseline_payment`] — the wait-for-z baseline
//!   (E1): real blocks arriving by a Poisson process;
//! * [`FastPaySession::run_double_spend_attack`] — the full attack (E3/E9):
//!   a private-fork double spend racing real mining, followed by dispute,
//!   evidence, and judgment on the PSC chain.
//!
//! The payment, batch and dispute flows themselves are the crate's one
//! protocol driver (`flow`); a session runs them under the ideal effects.
//!
//! # Timing model
//!
//! Block *timing* comes from Poisson arrivals on the simulated clock, never
//! from how fast the host solves reduced-difficulty PoW. The PSC chain is
//! advanced in lockstep with the simulation clock
//! ([`FastPaySession::advance_psc_to`]).
//!
//! The paper's headline "waiting time" is the point-of-sale interaction:
//! the escrow deposit *and* the payment registration are checkout
//! preparation (they happen while the order is assembled, off the critical
//! path), so the measured wait is offer delivery + merchant verification +
//! acceptance delivery. [`FastPayReport`] also carries the registration
//! latency so E1 can report the conservative end-to-end number (which is
//! still sub-second on an EOS-like PSC chain).

use crate::config::SessionConfig;
use crate::flow::{self, DisputeCall};
use crate::protocol::{Party, RejectReason};
use crate::recovery::RecoveryError;
use crate::robustness::ProtocolPhase;
use crate::roles::{Customer, Merchant};
use btcfast_btcsim::attack::PrivateForkAttacker;
use btcfast_btcsim::chain::Chain;
use btcfast_btcsim::mempool::Mempool;
use btcfast_btcsim::miner::Miner;
use btcfast_btcsim::params::BLOCK_INTERVAL_SECS;
use btcfast_btcsim::transaction::{OutPoint, Transaction};
use btcfast_btcsim::wallet::Wallet;
use btcfast_btcsim::Amount;
use btcfast_crypto::batch::BatchStats;
use btcfast_crypto::keys::{Address, KeyPair};
use btcfast_crypto::Hash256;
use btcfast_netsim::poisson::BlockArrivals;
use btcfast_netsim::time::SimTime;
use btcfast_obs::{Field, TraceEvent, Tracer};
use btcfast_payjudger::client::CALL_GAS_LIMIT;
use btcfast_payjudger::contract::PayJudger;
use btcfast_payjudger::types::{DisputeVerdict, JudgerConfig};
use btcfast_payjudger::{Call, EvidenceVerifier, PayJudgerClient};
use btcfast_pscsim::tx::{PscTransaction, Receipt, TxStatus};
use btcfast_pscsim::PscChain;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Report of one honest fast payment.
#[derive(Clone, Debug)]
pub struct FastPayReport {
    /// Point-of-sale waiting time: offer → verified acceptance.
    pub waiting: SimTime,
    /// Session-clock reading when the acceptance (or rejection) landed —
    /// the completion stamp open-loop drivers charge queueing latency
    /// against.
    pub accepted_at: SimTime,
    /// Time the checkout-preparation registration took (PSC inclusion).
    pub registration: SimTime,
    /// `waiting + registration`: the conservative end-to-end figure.
    pub end_to_end: SimTime,
    /// Whether the merchant accepted.
    pub accepted: bool,
    /// The rejection reason when not accepted.
    pub reject: Option<RejectReason>,
    /// The BTC txid of the payment.
    pub txid: Hash256,
    /// Payment registration id in the escrow.
    pub payment_id: u64,
    /// Gas the registration consumed (fee-table input).
    pub registration_gas: u64,
}

impl FastPayReport {
    /// The report of payment `txid` from its registration (its own, or the
    /// batch's shared one) and its point-of-sale exchange.
    pub(crate) fn new(
        txid: Hash256,
        registered: &flow::Registered,
        pos: flow::PointOfSale,
    ) -> FastPayReport {
        FastPayReport {
            waiting: pos.waiting,
            accepted_at: pos.accepted_at,
            registration: registered.took,
            end_to_end: pos.waiting + registered.took,
            accepted: pos.reject.is_none(),
            reject: pos.reject,
            txid,
            payment_id: registered.payment_id,
            registration_gas: registered.gas,
        }
    }
}

/// Report of one baseline (wait-for-z) payment.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Waiting time until the z-th confirmation.
    pub waiting: SimTime,
    /// Confirmations waited for.
    pub confirmations: u64,
    /// The BTC txid.
    pub txid: Hash256,
}

/// Report of one full double-spend attack against BTCFast.
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// The escrow payment id under attack.
    pub payment_id: u64,
    /// Did the attacker's branch overtake on the BTC chain?
    pub attacker_won_race: bool,
    /// Did the merchant's payment vanish from the ledger?
    pub merchant_lost_payment: bool,
    /// Did the dispute pay the merchant from collateral?
    pub merchant_compensated: bool,
    /// The judgment outcome, when a dispute ran.
    pub verdict: Option<DisputeVerdict>,
    /// Merchant's net loss in satoshi-equivalents (payment lost minus
    /// collateral gained, converted at the session rate); negative means
    /// the merchant came out ahead.
    pub merchant_net_loss_sats: i64,
    /// Simulated duration of the BTC race.
    pub race_duration: SimTime,
    /// Simulated duration from dispute to verdict (zero when no dispute).
    pub dispute_duration: SimTime,
    /// PSC gas fees paid by the dispute, evidence and judge calls.
    pub merchant_fee_units: u128,
}

impl AttackReport {
    /// The report of the attack on escrow payment `payment_id`: its BTC
    /// race and the dispute that followed (the default when none ran).
    pub(crate) fn new(payment_id: u64, race: RaceOutcome, dispute: flow::Dispute) -> AttackReport {
        AttackReport {
            payment_id,
            attacker_won_race: race.attacker_won_race,
            merchant_lost_payment: race.merchant_lost_payment,
            merchant_compensated: dispute.merchant_compensated,
            verdict: dispute.verdict,
            merchant_net_loss_sats: dispute.merchant_net_loss_sats,
            race_duration: race.race_duration,
            dispute_duration: dispute.duration,
            merchant_fee_units: dispute.fee_units,
        }
    }
}

/// Outcome of the BTC race phase of a double-spend attack, before any
/// dispute runs (see [`FastPaySession::run_double_spend_race`]).
#[derive(Clone, Debug)]
pub struct RaceOutcome {
    /// Did the attacker's branch overtake on the BTC chain?
    pub attacker_won_race: bool,
    /// Did the merchant's payment vanish from the ledger?
    pub merchant_lost_payment: bool,
    /// Simulated duration of the race.
    pub race_duration: SimTime,
}

/// Why a protocol run failed, for every driver. Crash-adjacent edge cases
/// (a refused submission, a receipt missing from a just-produced block, a
/// block that fails to connect) surface as typed variants rather than
/// panics, and the three network failures a hostile fabric adds and a
/// refused call name the [`ProtocolPhase`] they struck, so callers tell
/// "payment failed" from "payment fell back" from "protocol bug".
#[derive(Debug)]
pub enum SessionError {
    /// A PSC transaction failed.
    Psc(String),
    /// A BTC-side operation failed.
    Btc(String),
    /// A transaction the session built was refused at submission.
    TxRejected {
        /// The protocol step whose transaction was refused.
        context: &'static str,
        /// The submission error.
        reason: String,
    },
    /// A receipt expected on-chain (its block was just produced) is
    /// missing — the chain and the session disagree about history.
    MissingReceipt {
        /// The protocol step whose receipt vanished.
        context: &'static str,
    },
    /// A successful `open_payment` receipt carried no payment id.
    MissingPaymentId {
        /// The protocol step that expected the id.
        context: &'static str,
    },
    /// A locally mined block failed to connect to the chain.
    BlockRejected {
        /// What the block was mined for.
        context: &'static str,
        /// The chain's rejection.
        reason: String,
    },
    /// An open-loop arrival schedule the engine cannot run, refused before
    /// any shard is provisioned.
    BadSchedule {
        /// Index of the offending arrival.
        index: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The recovery journal refused a write or a re-open.
    Journal(RecoveryError),
    /// The transport exhausted its retransmission budget.
    DeliveryFailed {
        /// The failing phase.
        phase: ProtocolPhase,
        /// Attempts the transport made.
        attempts: u32,
    },
    /// The phase did not resolve before its deadline.
    DeadlineExceeded {
        /// The failing phase.
        phase: ProtocolPhase,
        /// The absolute (transport-clock) deadline that lapsed.
        deadline: SimTime,
    },
    /// The PSC chain stayed unreachable (stalled or partitioned) past the
    /// reachability deadline.
    PscUnreachable {
        /// The phase that needed the chain.
        phase: ProtocolPhase,
        /// How long the caller waited before giving up.
        waited: SimTime,
    },
    /// A PSC call of the phase executed and failed (reverted, ran out of
    /// gas or was invalid) where the protocol cannot go on without it.
    Refused {
        /// The phase whose call failed.
        phase: ProtocolPhase,
        /// The failing receipt's status.
        status: TxStatus,
    },
}

impl SessionError {
    /// The protocol phase a network failure struck or whose call was
    /// refused; `None` for every other failure.
    pub fn phase(&self) -> Option<ProtocolPhase> {
        match self {
            SessionError::DeliveryFailed { phase, .. }
            | SessionError::DeadlineExceeded { phase, .. }
            | SessionError::PscUnreachable { phase, .. }
            | SessionError::Refused { phase, .. } => Some(*phase),
            _ => None,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Psc(msg) => write!(f, "PSC failure: {msg}"),
            SessionError::Btc(msg) => write!(f, "BTC failure: {msg}"),
            SessionError::TxRejected { context, reason } => {
                write!(f, "{context}: transaction refused at submission: {reason}")
            }
            SessionError::MissingReceipt { context } => {
                write!(f, "{context}: receipt missing from just-produced block")
            }
            SessionError::MissingPaymentId { context } => {
                write!(f, "{context}: successful open carried no payment id")
            }
            SessionError::BlockRejected { context, reason } => {
                write!(f, "{context}: mined block failed to connect: {reason}")
            }
            SessionError::BadSchedule { index, reason } => {
                write!(f, "load schedule, arrival {index}: {reason}")
            }
            SessionError::Journal(e) => write!(f, "recovery journal: {e}"),
            SessionError::DeliveryFailed { phase, attempts } => {
                write!(f, "{phase}: delivery failed after {attempts} attempts")
            }
            SessionError::DeadlineExceeded { phase, deadline } => {
                write!(f, "{phase}: unresolved at deadline {deadline}")
            }
            SessionError::PscUnreachable { phase, waited } => {
                write!(f, "{phase}: PSC chain unreachable after waiting {waited}")
            }
            SessionError::Refused { phase, status } => write!(f, "{phase}: refused: {status:?}"),
        }
    }
}

impl Error for SessionError {}

impl From<RecoveryError> for SessionError {
    fn from(e: RecoveryError) -> SessionError {
        SessionError::Journal(e)
    }
}

/// An end-to-end BTCFast session with one customer and one merchant.
pub struct FastPaySession {
    /// The session configuration.
    pub config: SessionConfig,
    pub(crate) rng: StdRng,
    /// The Bitcoin chain (public view).
    pub btc: Chain,
    /// The shared mempool view.
    pub mempool: Mempool,
    /// The PSC chain hosting PayJudger.
    pub psc: PscChain,
    /// Client handle to the deployed judger.
    pub judger: PayJudgerClient,
    /// The customer.
    pub customer: Customer,
    /// The merchant.
    pub merchant: Merchant,
    honest_miner: Miner,
    /// Simulation clock.
    pub clock: SimTime,
    /// Gas the PayJudger deployment consumed (fee-table input).
    pub deploy_gas: u64,
    /// Gas the escrow deposit consumed (fee-table input).
    pub deposit_gas: u64,
    /// The customer PSC nonce the escrow deposit was signed at.
    pub(crate) deposit_nonce: u64,
    /// Per-phase span recorder on the *sim-time* clock (never wall time),
    /// so a replay at the same seed produces a byte-identical trace.
    pub(crate) tracer: Tracer,
    /// Seed stream for batch signature verification. Deliberately separate
    /// from `rng`: the batch randomizers must never perturb the latency
    /// sample stream.
    batch_seed: u64,
    /// Work counters of every batch pre-verification so far.
    sig_batch: BatchStats,
}

/// Where the honest network's blocks pay out. The key is a constant, so
/// its keygen runs once per process instead of once per session.
fn honest_network_address() -> Address {
    static HONEST_NETWORK: OnceLock<Address> = OnceLock::new();
    *HONEST_NETWORK.get_or_init(|| Wallet::from_seed(b"honest network").address())
}

impl FastPaySession {
    /// Builds a fully provisioned session: funded customer (BTC + PSC),
    /// deployed PayJudger, finalized escrow deposit.
    ///
    /// # Panics
    ///
    /// Panics if provisioning fails — a session bug, not an input error.
    pub fn new(config: SessionConfig, seed: u64) -> FastPaySession {
        let rng = StdRng::seed_from_u64(seed);
        let customer = Customer::from_seed(&seed.to_le_bytes());
        let merchant = Merchant::from_seed(&(seed ^ 0x4D45_5243).to_le_bytes());

        // --- BTC provisioning: customer mines 2 spendable coinbases. -----
        let mut btc = Chain::new(config.btc_params.clone());
        let mut funder = Miner::new(config.btc_params.clone(), customer.btc_wallet().address());
        for i in 1..=3u64 {
            let block = funder.mine_block(&btc, vec![], i * BLOCK_INTERVAL_SECS);
            btc.submit_block(block)
                .expect("provisioning blocks are valid");
        }
        let honest_miner = Miner::new(config.btc_params.clone(), honest_network_address());

        // --- PSC provisioning: deploy judger, fund accounts. -------------
        let mut psc = PscChain::new(config.psc_params.clone());
        psc.register_code(Arc::new(PayJudger));
        psc.faucet(customer.psc_account(), 10_000_000_000_000);
        psc.faucet(merchant.psc_account(), 10_000_000_000_000);

        let judger_config = JudgerConfig {
            checkpoint: Hash256::ZERO,
            min_target_bits: config.btc_params.pow_limit_bits.0,
            challenge_window_secs: config.challenge_window_secs,
            min_evidence_blocks: config.min_evidence_blocks,
        };
        let deploy = PayJudgerClient::deploy_tx(
            customer.psc_keys(),
            psc.nonce_of(&customer.psc_account()),
            &judger_config,
            config.psc_params.gas_price,
        );
        let deploy_hash = psc.submit_transaction(deploy).expect("deploy is signed");
        psc.produce_block(1);
        let deploy_receipt = psc.receipt(&deploy_hash).expect("deploy processed").clone();
        assert!(
            deploy_receipt.status.is_success(),
            "judger deploy failed: {:?}",
            deploy_receipt.status
        );
        let judger = PayJudgerClient::new(
            deploy_receipt
                .contract_address
                .expect("deploy returns address"),
            config.psc_params.gas_price,
        );

        // Causal ids are minted from the session seed, so the id stream —
        // and with it every (trace, sid, pid) triple — is a pure function
        // of the seed, independent of worker count or wall clocks.
        let tracer = Tracer::with_seed(config.tracing, seed);
        let mut session = FastPaySession {
            clock: SimTime::from_secs(btc.tip_time()),
            config,
            rng,
            btc,
            mempool: Mempool::new(),
            psc,
            judger,
            customer,
            merchant,
            honest_miner,
            deploy_gas: deploy_receipt.gas_used,
            deposit_gas: 0,
            deposit_nonce: 0,
            tracer,
            batch_seed: seed ^ 0xBA7C_5EED_0F5E_C256,
            sig_batch: BatchStats::default(),
        };

        // --- Escrow deposit (Setup phase), held to PSC finality. ----------
        let escrow_open_start = session.clock;
        let deposit = Call::Deposit(session.config.escrow_deposit);
        session.deposit_nonce = session.psc_nonce(Party::Customer);
        let receipt = session
            .call(Party::Customer, deposit)
            .expect("escrow deposit submits");
        assert!(
            receipt.status.is_success(),
            "escrow deposit failed: {:?}",
            receipt.status
        );
        session.deposit_gas = receipt.gas_used;
        let finality = session.config.psc_params.finality_latency_secs();
        session.advance_clock(SimTime::from_secs_f64(finality));
        session.tracer.span(
            "session.escrow_open",
            escrow_open_start.as_micros(),
            session.clock.as_micros(),
            vec![("gas", receipt.gas_used.into())],
        );
        session
    }

    /// The per-phase trace recorded so far, in recording order.
    pub fn trace(&self) -> &[TraceEvent] {
        self.tracer.events()
    }

    /// Drains the per-phase trace (e.g. to merge per-shard traces).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// Records a point event at the current sim-time clock. Used by the
    /// harnesses layered above the session (engine shards, chaos fabric)
    /// so their observations land on the same deterministic trace.
    pub fn trace_point(&mut self, name: &'static str, fields: Vec<(&'static str, Field)>) {
        self.tracer.point(name, self.clock.as_micros(), fields);
    }

    /// Events discarded by the tracer's ring bound so far.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped_events()
    }

    /// Alias for `benchmark/`'s measured surface (ROADMAP item 2 (c)).
    #[doc(hidden)]
    pub fn verifier(&self) -> &EvidenceVerifier {
        &EvidenceVerifier
    }

    /// Accumulated batch-ECDSA work of the batch path's signature
    /// pre-verification.
    pub fn sig_batch_stats(&self) -> BatchStats {
        self.sig_batch
    }

    /// Advances the simulation clock and the PSC chain together.
    pub fn advance_clock(&mut self, delta: SimTime) {
        self.clock += delta;
        self.advance_psc_to(self.clock.as_secs());
    }

    /// Produces PSC blocks until the PSC tip time reaches `t_secs`.
    pub fn advance_psc_to(&mut self, t_secs: u64) {
        let interval = self.config.psc_params.block_interval_secs.max(0.001);
        while self.psc.tip_time() as f64 + interval <= t_secs as f64 {
            let next = (self.psc.tip_time() as f64 + interval).ceil() as u64;
            self.psc.produce_block(next.max(self.psc.tip_time() + 1));
        }
    }

    /// Submits a PSC transaction and produces the block including it,
    /// advancing the clock by the expected PSC inclusion latency: the
    /// one-transaction case of [`Self::run_psc_txs`].
    ///
    /// # Errors
    ///
    /// As [`Self::run_psc_txs`], under the context `psc-call`.
    pub fn run_psc_tx(&mut self, tx: PscTransaction) -> Result<Receipt, SessionError> {
        let context = "psc-call";
        let mut receipts = self.run_psc_txs(vec![tx], context)?;
        receipts
            .pop()
            .ok_or(SessionError::MissingReceipt { context })
    }

    /// Submits `txs` in order and produces the one block including them
    /// all, advancing the clock by the expected PSC inclusion latency.
    /// Returns their receipts in submission order.
    ///
    /// # Errors
    ///
    /// [`SessionError::TxRejected`] when the chain refuses a submission
    /// (bad signature, over-cap gas); [`SessionError::MissingReceipt`]
    /// when the just-produced block does not carry a receipt. Both name
    /// `context`.
    pub(crate) fn run_psc_txs(
        &mut self,
        txs: Vec<PscTransaction>,
        context: &'static str,
    ) -> Result<Vec<Receipt>, SessionError> {
        let hashes = self
            .psc
            .submit_batch(txs)
            .map_err(|rejected| SessionError::TxRejected {
                context,
                reason: rejected.error.to_string(),
            })?;
        let interval = self.config.psc_params.block_interval_secs;
        self.clock += SimTime::from_secs_f64(interval);
        let t = self.clock.as_secs().max(self.psc.tip_time() + 1);
        self.psc.produce_block(t);
        let receipt = |hash| self.psc.receipt(hash).cloned();
        let receipts = hashes.iter().map(receipt).collect::<Option<Vec<_>>>();
        receipts.ok_or(SessionError::MissingReceipt { context })
    }

    /// The PSC keys `party` signs with.
    fn keys(&self, party: Party) -> &KeyPair {
        match party {
            Party::Customer => self.customer.psc_keys(),
            Party::Merchant => self.merchant.psc_keys(),
        }
    }

    /// The nonce `party`'s next PSC transaction carries.
    pub(crate) fn psc_nonce(&self, party: Party) -> u64 {
        self.psc.nonce_of(&self.keys(party).address().into())
    }

    /// Sends `call` from `party` — that party's key, the chain's nonce,
    /// [`CALL_GAS_LIMIT`] — and runs it as [`Self::run_psc_tx`] does. Emits
    /// no trace event.
    ///
    /// # Errors
    ///
    /// As [`Self::run_psc_tx`].
    pub fn call(&mut self, party: Party, call: Call) -> Result<Receipt, SessionError> {
        let nonce = self.psc_nonce(party);
        let tx = self
            .judger
            .tx(self.keys(party), nonce, CALL_GAS_LIMIT, &call);
        self.run_psc_tx(tx)
    }

    /// One honest fast payment (FastPay phase), measured.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] if the customer cannot fund the payment or
    /// a PSC step fails unexpectedly.
    pub fn run_fast_payment(&mut self, amount_sats: u64) -> Result<FastPayReport, SessionError> {
        let tx = self.build_payment(amount_sats, &HashSet::new())?;
        let txid = tx.txid();
        // The payment's causal root: registration and acceptance nest
        // under it, the point-of-sale legs under the acceptance span.
        flow::payment(
            self,
            |session, root| {
                // Checkout preparation, then the measured point of sale.
                let registered = flow::register(session, root, txid, amount_sats)?;
                let pos = flow::point_of_sale(
                    session,
                    root,
                    tx,
                    txid,
                    registered.payment_id,
                    amount_sats,
                )?;
                Ok(FastPayReport::new(txid, &registered, pos))
            },
            |report| (Some(report.payment_id), report.accepted),
        )
    }

    /// The customer's signed BTC payment of `amount_sats` to the merchant,
    /// at the session fee, over confirmed coins outside `exclude`.
    pub(crate) fn build_payment(
        &self,
        amount_sats: u64,
        exclude: &HashSet<OutPoint>,
    ) -> Result<Transaction, SessionError> {
        let btc_err = |e: &dyn fmt::Display| SessionError::Btc(e.to_string());
        let amount = Amount::from_sats(amount_sats).map_err(|e| btc_err(&e))?;
        let fee = Amount::from_sats(self.config.btc_fee_sats).map_err(|e| btc_err(&e))?;
        self.customer
            .build_btc_payment_excluding(
                &self.btc,
                self.merchant.btc_wallet().address(),
                amount,
                fee,
                None,
                exclude,
            )
            .map_err(|e| btc_err(&e))
    }

    /// Mines blocks paying the customer until they own at least `count`
    /// spendable coins — batch provisioning, so a K-payment batch can
    /// spend K disjoint confirmed coins.
    ///
    /// # Errors
    ///
    /// [`SessionError::BlockRejected`] when a funding block fails to
    /// connect — the chain moved underneath the funder.
    pub fn fund_customer_coins(&mut self, count: usize) -> Result<(), SessionError> {
        let mut funder = Miner::new(
            self.config.btc_params.clone(),
            self.customer.btc_wallet().address(),
        );
        while self.customer.btc_wallet().spendable(&self.btc).len() < count {
            self.advance_clock(SimTime::from_secs(BLOCK_INTERVAL_SECS));
            let time = self.clock.as_secs().max(self.btc.tip_time());
            let block = funder.mine_block(&self.btc, vec![], time);
            self.btc
                .submit_block(block)
                .map_err(|e| SessionError::BlockRejected {
                    context: "customer-funding",
                    reason: e.to_string(),
                })?;
        }
        Ok(())
    }

    /// A batch of honest fast payments sharing one registration block.
    ///
    /// The batch pipeline the engine drives:
    ///
    /// 1. every payment spends *disjoint* confirmed coins (exclusion-aware
    ///    coin selection), so each offer independently validates against
    ///    the merchant's confirmed UTXO view;
    /// 2. all K escrow registrations are built at explicit sequential
    ///    nonces and included in a *single* PSC block (batched
    ///    registration — K× fewer blocks than registering one at a time);
    /// 3. each offer then runs the measured point-of-sale exchange and,
    ///    on acceptance, enters the shared mempool.
    ///
    /// Callers are expected to mine a public block afterwards (e.g.
    /// [`FastPaySession::mine_public_block`]) so the change outputs
    /// replenish the customer's confirmed coins for the next batch.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] if the customer cannot fund a payment or a
    /// registration fails.
    pub fn run_fast_payment_batch(
        &mut self,
        amounts: &[u64],
    ) -> Result<Vec<FastPayReport>, SessionError> {
        flow::batch(self, amounts)
    }

    /// Batch signature pre-verification of `txs` — cost only, never
    /// verdicts: the per-offer admission checks that follow hit the
    /// signature cache. The seed steps by splitmix64's golden-ratio
    /// increment on its own stream, and nothing here touches the
    /// sim-clock, `rng` or the tracer, so it cannot reach a replay
    /// fingerprint.
    pub(crate) fn preverify_batch(&mut self, txs: &[Transaction]) {
        self.batch_seed = self.batch_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let batch = self.btc.utxo().preverify_signatures(txs, self.batch_seed);
        self.sig_batch.absorb(&batch);
    }

    /// One baseline payment: broadcast, then wait for `confirmations`
    /// Poisson-timed blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] if the customer cannot fund the payment.
    pub fn run_baseline_payment(
        &mut self,
        amount_sats: u64,
        confirmations: u64,
    ) -> Result<BaselineReport, SessionError> {
        let tx = self.build_payment(amount_sats, &HashSet::new())?;
        let txid = tx.txid();

        let start = self.clock;
        // Broadcast to the network.
        self.clock += self.config.latency.sample(&mut self.rng);
        self.mempool
            .insert(
                tx,
                self.btc.utxo(),
                self.btc.height() + 1,
                self.clock.as_secs(),
            )
            .map_err(|e| SessionError::Btc(e.to_string()))?;

        let arrivals = BlockArrivals::new(BLOCK_INTERVAL_SECS as f64, 1.0);
        while self.btc.confirmations(&txid).unwrap_or(0) < confirmations {
            let gap = arrivals.next_block_in(&mut self.rng);
            self.advance_clock(gap);
            self.mine_public_block()?;
        }
        // The z-th confirmation propagates to the merchant.
        self.clock += self.config.latency.sample(&mut self.rng);

        Ok(BaselineReport {
            waiting: self.clock - start,
            confirmations,
            txid,
        })
    }

    /// Mines one public block at the current clock from the mempool.
    ///
    /// # Errors
    ///
    /// [`SessionError::BlockRejected`] when the honest block fails to
    /// connect — the public chain reorged underneath the miner.
    pub fn mine_public_block(&mut self) -> Result<(), SessionError> {
        let txs = self.mempool.select_for_block(1000);
        let time = self.clock.as_secs().max(self.btc.tip_time());
        let block = self.honest_miner.mine_block(&self.btc, txs, time);
        let hash = block.hash();
        self.btc
            .submit_block(block)
            .map_err(|e| SessionError::BlockRejected {
                context: "honest-mining",
                reason: e.to_string(),
            })?;
        let block = self.btc.block(&hash).expect("accepted blocks are stored");
        self.mempool.purge_confirmed(&block.transactions);
        Ok(())
    }

    /// The BTC race phase of a double-spend attack on its own: the
    /// customer forks privately with a conflicting self-spend and races
    /// the honest network until they overtake or `max_race_blocks` honest
    /// blocks pass. No dispute runs — the protocol driver layers it on top,
    /// under whichever effects the harness injects.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when `txid` is not a pooled accepted
    /// payment.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < attacker_hashrate < 1`.
    pub fn run_double_spend_race(
        &mut self,
        txid: &Hash256,
        attacker_hashrate: f64,
        max_race_blocks: u64,
    ) -> Result<RaceOutcome, SessionError> {
        assert!(
            attacker_hashrate > 0.0 && attacker_hashrate < 1.0,
            "attacker hashrate must be in (0,1)"
        );
        let accepted_tx = self
            .mempool
            .get(txid)
            .ok_or_else(|| SessionError::Btc("accepted tx not pooled".into()))?
            .tx
            .clone();
        let race_start = self.clock;

        // The conflicting self-spend, built while the coins are unspent.
        let steal = self.customer.btc_wallet().create_conflicting_spend(
            &self.btc,
            &accepted_tx,
            Amount::from_sats(self.config.btc_fee_sats * 2)
                .map_err(|e| SessionError::Btc(format!("double-spend fee: {e}")))?,
        );

        let fork_point = self.btc.tip_hash();
        let mut attacker = PrivateForkAttacker::start(
            self.config.btc_params.clone(),
            &self.btc,
            fork_point,
            self.customer.btc_wallet().address(),
            Some(steal),
        );

        let interval = BLOCK_INTERVAL_SECS as f64;
        let honest_arrivals = BlockArrivals::new(interval, 1.0 - attacker_hashrate);
        let attacker_arrivals = BlockArrivals::new(interval, attacker_hashrate);
        let mut next_honest = self.clock + honest_arrivals.next_block_in(&mut self.rng);
        let mut next_attacker = self.clock + attacker_arrivals.next_block_in(&mut self.rng);

        let mut honest_blocks = 0u64;
        let mut attacker_won_race = false;
        while honest_blocks < max_race_blocks {
            if next_attacker < next_honest {
                let delta = next_attacker - self.clock;
                self.advance_clock(delta);
                attacker.extend(self.clock.as_secs());
                next_attacker = self.clock + attacker_arrivals.next_block_in(&mut self.rng);
            } else {
                let delta = next_honest - self.clock;
                self.advance_clock(delta);
                self.mine_public_block()?;
                honest_blocks += 1;
                next_honest = self.clock + honest_arrivals.next_block_in(&mut self.rng);
            }
            if attacker.can_overtake(&self.btc) {
                attacker.publish(&mut self.btc);
                attacker_won_race = true;
                break;
            }
        }
        let race_duration = self.clock - race_start;

        // -- Validate phase: merchant inspects the chain. -------------------
        let merchant_lost_payment =
            self.merchant
                .detect_double_spend(&accepted_tx, &self.btc, &self.mempool);

        Ok(RaceOutcome {
            attacker_won_race,
            merchant_lost_payment,
            race_duration,
        })
    }

    /// A full double-spend attack against an accepted fast payment.
    ///
    /// The customer *is* the attacker: immediately after acceptance they
    /// fork the chain privately with a conflicting self-spend and race the
    /// honest network (hashrate share `attacker_hashrate`). If they
    /// overtake within `max_race_blocks` honest blocks, they publish; the
    /// merchant detects the reorg, disputes, submits evidence, and the
    /// judgment runs.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] on provisioning failures.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < attacker_hashrate < 1`.
    pub fn run_double_spend_attack(
        &mut self,
        amount_sats: u64,
        attacker_hashrate: f64,
        max_race_blocks: u64,
    ) -> Result<AttackReport, SessionError> {
        assert!(
            attacker_hashrate > 0.0 && attacker_hashrate < 1.0,
            "attacker hashrate must be in (0,1)"
        );
        let report = self.run_fast_payment(amount_sats)?;
        if !report.accepted {
            return Err(SessionError::Btc(format!(
                "fast payment unexpectedly rejected: {:?}",
                report.reject
            )));
        }
        let payment_id = report.payment_id;
        let (race, dispute) = flow::double_spend(
            self,
            payment_id,
            report.txid,
            amount_sats,
            attacker_hashrate,
            max_race_blocks,
        )?;
        Ok(AttackReport::new(payment_id, race, dispute))
    }

    /// Measures a dispute over `evidence_depth` headers without an attack:
    /// merchant disputes, submits a depth-limited proof, judgment runs.
    /// Returns `(dispute_latency, evidence_gas)` — the E5 data point.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] on unexpected failures.
    pub fn run_dispute_resolution(
        &mut self,
        amount_sats: u64,
        evidence_depth: u64,
    ) -> Result<(SimTime, u64), SessionError> {
        // Grow the pre-payment history first so an `evidence_depth`-header
        // segment exists without burning challenge-window time.
        let arrivals = BlockArrivals::new(BLOCK_INTERVAL_SECS as f64, 1.0);
        while self.btc.height() + 1 < evidence_depth.max(2) {
            let gap = arrivals.next_block_in(&mut self.rng);
            self.advance_clock(gap);
            self.mine_public_block()?;
        }

        let report = self.run_fast_payment(amount_sats)?;
        let payment_id = report.payment_id;
        // One prompt block confirms the payment so the inclusion proof
        // exists (block relay is fast relative to the window).
        self.advance_clock(SimTime::from_secs(5));
        self.mine_public_block()?;

        // The customer (honest here) answers with an inclusion proof. The
        // segment must anchor at the escrow checkpoint, so its depth is the
        // chain height grown above — `evidence_depth` controls it.
        let evidence = self
            .customer
            .build_inclusion_evidence(&self.btc, &report.txid)
            .ok_or_else(|| SessionError::Btc("payment left the active chain".into()))?;
        let call = DisputeCall {
            payment_id,
            txid: report.txid,
            amount_sats,
            answered_by: Party::Customer,
            evidence,
            open_must_land: true,
        };
        let dispute = flow::dispute(self, call)?;
        if dispute.verdict.is_none() {
            return Err(SessionError::Psc("judge: call did not decide".into()));
        }
        Ok((dispute.duration, dispute.evidence_gas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cached_honest_address_is_the_seeds() {
        assert_eq!(
            honest_network_address(),
            Wallet::from_seed(b"honest network").address()
        );
    }

    #[test]
    fn the_psc_root_after_one_payment_is_pinned() {
        // Taken from the incremental trie the memoized root replaced.
        let mut session = FastPaySession::new(SessionConfig::default(), 1);
        session.run_fast_payment(1_000_000).unwrap();
        assert_eq!(
            session.psc.state_commitment().to_hex(),
            "254436c8344072b46f99c8d5b1add40da1083ff6179b45d0e9859d30f9267216"
        );
    }

    #[test]
    fn an_idle_window_adds_blocks_and_nothing_else() {
        let mut session = FastPaySession::new(SessionConfig::default(), 1);
        session.run_fast_payment(1_000_000).unwrap();
        let receipts = |psc: &PscChain| -> Vec<Receipt> {
            (1..=psc.height())
                .flat_map(|n| psc.block(n).unwrap().tx_hashes.clone())
                .map(|hash| psc.receipt(&hash).unwrap().clone())
                .collect()
        };
        let (height, commitment, gas) = (
            session.psc.height(),
            session.psc.state_commitment(),
            session.psc.total_gas_used(),
        );
        let before = receipts(&session.psc);
        assert!(!before.is_empty());

        let window = 4 * 3600;
        let interval = session.config.psc_params.block_interval_secs;
        session.advance_psc_to(session.psc.tip_time() + window);

        // 960 empty blocks at 15 s.
        let added = session.psc.height() - height;
        assert_eq!(added, (window as f64 / interval).floor() as u64);
        assert_eq!(session.psc.state_commitment(), commitment);
        assert_eq!(session.psc.total_gas_used(), gas);
        assert_eq!(receipts(&session.psc), before);
    }

    #[test]
    fn fast_payment_is_sub_second() {
        let mut session = FastPaySession::new(SessionConfig::default(), 1);
        let report = session.run_fast_payment(1_000_000).unwrap();
        assert!(report.accepted, "{:?}", report.reject);
        assert!(
            report.waiting.as_secs_f64() < 1.0,
            "waiting = {}",
            report.waiting
        );
        assert!(report.registration_gas > 21_000);
    }

    #[test]
    fn fast_payment_end_to_end_sub_second_on_eos() {
        let mut session = FastPaySession::new(SessionConfig::eos_flavored(), 2);
        let report = session.run_fast_payment(1_000_000).unwrap();
        assert!(report.accepted);
        assert!(
            report.end_to_end.as_secs_f64() < 2.0,
            "end-to-end = {}",
            report.end_to_end
        );
    }

    #[test]
    fn baseline_six_conf_takes_about_an_hour() {
        let mut session = FastPaySession::new(SessionConfig::default(), 3);
        let report = session.run_baseline_payment(1_000_000, 6).unwrap();
        // Erlang(6, 1/600): mean 3600 s, nearly surely within [600, 18000].
        let wait = report.waiting.as_secs_f64();
        assert!((600.0..18_000.0).contains(&wait), "wait = {wait}");
        assert_eq!(session.btc.confirmations(&report.txid), Some(6));
    }

    #[test]
    fn attack_with_majority_hashrate_wins_race_but_merchant_compensated() {
        let config = SessionConfig {
            challenge_window_secs: 100_000, // long enough to dispute
            ..SessionConfig::default()
        };
        let mut session = FastPaySession::new(config, 4);
        let report = session.run_double_spend_attack(1_000_000, 0.8, 30).unwrap();
        assert!(report.attacker_won_race);
        assert!(report.merchant_lost_payment);
        assert_eq!(report.verdict, Some(DisputeVerdict::MerchantWins));
        assert!(report.merchant_compensated);
        // Collateral ratio 1.2 → net loss is negative (over-compensated).
        assert!(report.merchant_net_loss_sats <= 0);
    }

    #[test]
    fn attack_with_low_hashrate_usually_fails() {
        let mut session = FastPaySession::new(SessionConfig::default(), 5);
        let report = session.run_double_spend_attack(1_000_000, 0.05, 8).unwrap();
        assert!(!report.attacker_won_race);
        assert!(!report.merchant_lost_payment);
        assert_eq!(report.merchant_net_loss_sats, 0);
    }

    #[test]
    fn dispute_resolution_latency_scales_with_window() {
        let fast_config = SessionConfig {
            challenge_window_secs: 600,
            ..SessionConfig::default()
        };
        let mut session = FastPaySession::new(fast_config, 6);
        let (latency_short, gas) = session.run_dispute_resolution(1_000_000, 6).unwrap();
        assert!(gas > 21_000);

        let slow_config = SessionConfig {
            challenge_window_secs: 7200,
            ..SessionConfig::default()
        };
        let mut session = FastPaySession::new(slow_config, 6);
        let (latency_long, _) = session.run_dispute_resolution(1_000_000, 6).unwrap();
        assert!(latency_long > latency_short);
    }

    #[test]
    fn batched_fast_payments_share_one_registration_block() {
        let mut session = FastPaySession::new(SessionConfig::default(), 11);
        session.fund_customer_coins(4).unwrap();
        let psc_height_before = session.psc.height();
        let reports = session.run_fast_payment_batch(&[1_000_000; 4]).unwrap();
        assert_eq!(reports.len(), 4);
        // Exactly one PSC block carried all four registrations.
        assert_eq!(session.psc.height(), psc_height_before + 1);
        let mut payment_ids = std::collections::HashSet::new();
        let mut txids = std::collections::HashSet::new();
        for report in &reports {
            assert!(report.accepted, "{:?}", report.reject);
            assert!(
                report.waiting.as_secs_f64() < 1.0,
                "waiting = {}",
                report.waiting
            );
            payment_ids.insert(report.payment_id);
            txids.insert(report.txid);
        }
        assert_eq!(payment_ids.len(), 4, "distinct escrow registrations");
        assert_eq!(txids.len(), 4, "distinct BTC payments");

        // One public block confirms the whole batch, and the change
        // outputs fund a second batch without fresh coinbases.
        session.mine_public_block().unwrap();
        for report in &reports {
            assert_eq!(session.btc.confirmations(&report.txid), Some(1));
        }
        let second = session.run_fast_payment_batch(&[2_000_000; 4]).unwrap();
        assert!(second.iter().all(|r| r.accepted));
    }

    #[test]
    fn batch_preverification_primes_the_cache_and_admission_hits_it() {
        btcfast_btcsim::utxo::clear_sig_cache();
        btcfast_btcsim::utxo::reset_sig_cache_stats();
        let mut session = FastPaySession::new(SessionConfig::default(), 23);
        session.fund_customer_coins(4).unwrap();
        let before = btcfast_btcsim::utxo::sig_cache_stats();
        let reports = session.run_fast_payment_batch(&[1_000_000; 4]).unwrap();
        assert!(reports.iter().all(|r| r.accepted));
        let after = btcfast_btcsim::utxo::sig_cache_stats();
        // Every payment was batch-verified, primed, and then admitted via
        // cache hits — the per-offer path re-ran zero ECDSA verifications.
        assert_eq!(after.primed - before.primed, 4);
        assert!(after.hits - before.hits >= 4);
        assert_eq!(after.misses, before.misses);
        // And the session accumulated the batch work: one MSM for an
        // all-valid batch, every item hinted, no oracle fallbacks.
        let stats = session.sig_batch_stats();
        assert_eq!(stats.items, 4);
        assert_eq!(stats.hinted, 4);
        assert_eq!(stats.oracle_checks, 0);
        assert_eq!(stats.msm_evals, 1);
        // A second batch (spending the first one's change) adds to it.
        session.mine_public_block().unwrap();
        session.run_fast_payment_batch(&[500_000; 4]).unwrap();
        let stats = session.sig_batch_stats();
        assert_eq!((stats.items, stats.msm_evals), (8, 2));
    }

    #[test]
    fn trace_replays_byte_identically_and_disables_cleanly() {
        let run = |seed: u64| {
            let mut session = FastPaySession::new(SessionConfig::default(), seed);
            session.run_fast_payment(1_000_000).unwrap();
            btcfast_obs::render_jsonl(session.trace())
        };
        let once = run(9);
        let twice = run(9);
        assert_eq!(once, twice, "same seed must replay the same trace bytes");
        assert!(once.contains("\"span\":\"session.escrow_open\""));
        assert!(once.contains("\"span\":\"session.register\""));
        assert!(once.contains("\"span\":\"session.accept\""));
        assert!(once.contains("\"event\":\"session.broadcast\""));

        let config = SessionConfig {
            tracing: false,
            ..SessionConfig::default()
        };
        let mut quiet = FastPaySession::new(config, 9);
        quiet.run_fast_payment(1_000_000).unwrap();
        assert!(quiet.trace().is_empty(), "tracing=false records nothing");
    }

    #[test]
    fn dispute_phases_land_on_the_trace() {
        let config = SessionConfig {
            challenge_window_secs: 100_000,
            ..SessionConfig::default()
        };
        let mut session = FastPaySession::new(config, 4);
        session.run_double_spend_attack(1_000_000, 0.8, 30).unwrap();
        let jsonl = btcfast_obs::render_jsonl(session.trace());
        for phase in [
            "session.dispute_open",
            "session.evidence_submit",
            "session.judge",
            "session.dispute",
        ] {
            assert!(jsonl.contains(phase), "missing {phase} in:\n{jsonl}");
        }
    }

    #[test]
    fn undercollateralized_offer_rejected() {
        // The customer registers the payment behind half its value: the
        // contract takes any positive collateral, the merchant's check
        // must not.
        let mut session = FastPaySession::new(SessionConfig::default(), 7);
        let amount_sats = 1_000_000;
        let tx = session.build_payment(amount_sats, &HashSet::new()).unwrap();
        let merchant = session.merchant.psc_account();
        let open = Call::OpenPayment(merchant, tx.txid(), amount_sats, 500_000);
        let receipt = session.call(Party::Customer, open).unwrap();
        let payment_id = PayJudgerClient::payment_id_from(&receipt).expect("registered");
        let offer = session.customer.make_offer(tx, payment_id, amount_sats);
        let decision = session.merchant.evaluate_offer(
            &offer,
            &session.btc,
            &session.mempool,
            &session.psc,
            &session.judger,
        );
        assert_eq!(
            decision.err(),
            Some(RejectReason::InsufficientCollateral {
                locked: 500_000,
                required: 1_200_000
            })
        );
    }

    #[test]
    fn errors_render_with_context() {
        let phase = ProtocolPhase::EvidenceSubmission;
        let network = [
            SessionError::DeliveryFailed { phase, attempts: 6 },
            SessionError::DeadlineExceeded {
                phase,
                deadline: SimTime::from_secs(60),
            },
            SessionError::PscUnreachable {
                phase,
                waited: SimTime::from_secs(121),
            },
            SessionError::Refused {
                phase,
                status: TxStatus::Reverted("challenge window has expired".into()),
            },
        ];
        for e in &network {
            assert_eq!(e.phase(), Some(phase), "{e}");
            assert!(e.to_string().starts_with("evidence-submission: "), "{e}");
        }
        let msg = network[0].to_string();
        assert!(msg.contains('6'), "{msg}");
        let other = [
            SessionError::Psc("judge".into()),
            SessionError::Btc("fee".into()),
            SessionError::TxRejected {
                context: "open",
                reason: "nonce".into(),
            },
            SessionError::MissingReceipt { context: "open" },
            SessionError::MissingPaymentId { context: "open" },
            SessionError::BlockRejected {
                context: "public",
                reason: "orphan".into(),
            },
            SessionError::BadSchedule {
                index: 3,
                reason: "unsorted",
            },
        ];
        for e in &other {
            assert_eq!(e.phase(), None, "{e}");
        }
    }
}
