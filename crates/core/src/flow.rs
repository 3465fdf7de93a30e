//! The protocol driver: the one implementation of BTCFast's three
//! protocol units, run by every harness through injected [`Effects`].
//!
//! * [`register`] — build and submit `open_payment` (checkout preparation);
//! * [`point_of_sale`] — offer leg → merchant checks → acceptance leg →
//!   mempool broadcast (the measured wait, claim C1), run alone after
//!   [`register`] or K at a time behind one shared registration block
//!   ([`batch`]);
//! * [`dispute`] — open → evidence (preflighted) → challenge-window wait →
//!   judge → verdict and settlement arithmetic.
//!
//! The protocol is stated here once; the network it runs over — ideal,
//! lossy, partitioned, crashing — is the environment, supplied as four
//! effects: how a *message leg* is delivered, how a *PSC call* reaches
//! inclusion, where the *journal* records intents, and the *span end* a
//! wrapper span must cover. [`FastPaySession`] injects the ideal effects,
//! [`crate::chaos::ChaosSession`] the reliable transport (which every PSC
//! call crosses first) and the durable journal; an engine shard the ideal
//! effects with a durable journal. A PSC call means one thing under all
//! three: its receipt, reverted or not, and the protocol decides.
//!
//! Every intent the protocol journals is begun here, before the effect it
//! names, and retired by the id it was begun under, so a crash at any
//! point leaves exactly the steps in doubt pending.
//!
//! Spans are emitted here and nowhere else, under the `session.*`
//! vocabulary, and every wrapper span closes on every exit path, so a
//! failed phase never orphans the transport events recorded beneath it.
//!
//! Two things differ between dispute callers, and both are parameters of
//! [`DisputeCall`], not copies of the pipeline: *who answers with
//! evidence* (the merchant's conflict proof in a double-spend attack, the
//! honest customer's inclusion proof in the E5 latency measurement) and
//! *what a refused dispute-open means* ([`DisputeCall::open_must_land`]).

use crate::protocol::{Party, RejectReason};
use crate::recovery::{Outcome, Step};
use crate::robustness::ProtocolPhase;
use crate::session::{FastPayReport, FastPaySession, RaceOutcome, SessionError};
use btcfast_btcsim::pow::CompactBits;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::transaction::Transaction;
use btcfast_crypto::Hash256;
use btcfast_netsim::time::SimTime;
use btcfast_obs::{Field, TraceContext};
use btcfast_payjudger::evidence::{check_evidence, EvidenceBundle};
use btcfast_payjudger::types::DisputeVerdict;
use btcfast_payjudger::{Call, PayJudgerClient};
use btcfast_pscsim::tx::Receipt;
use std::collections::HashSet;

/// Merchant-side local verification time per payment, seconds: the
/// signature check plus the escrow lookup against the merchant's own PSC
/// node. An explicit budget, not a measurement — the decision itself reads
/// ≈ 0.1 ms (`core.evaluate_offer_us`); 10 ms is conservative about
/// wallet-software overhead.
const VERIFY_SECS: f64 = 0.010;

type Fields = Vec<(&'static str, Field)>;
/// A resolved message leg: see [`Effects::leg`].
pub(crate) type Leg = (u64, Result<u32, SessionError>);

/// What the environment supplies to the protocol driver. Implementations
/// own *how*; the driver owns *what* and *in which order*. The provided
/// methods are the ideal environment — every message arrives after one
/// sampled latency, every PSC call is included in the next block, nothing
/// is journaled, no timer outlives its phase — which is all
/// [`FastPaySession`] needs.
pub(crate) trait Effects {
    /// The protocol state the units act on.
    fn session(&mut self) -> &mut FastPaySession;

    /// Delivers the protocol message of `phase`, attributing transport
    /// events under `ctx`, and advances the session clock to its arrival.
    /// Returns the session-clock µs at which the sender's side resolved —
    /// the arrival here, the ack (or give-up) under a transport; the leg
    /// span ends there either way — and the transmissions it took.
    fn leg(&mut self, _phase: ProtocolPhase, _ctx: TraceContext) -> Leg {
        let session = self.session();
        // `clock +=`, not `advance_clock`: a message in flight produces no
        // PSC blocks; the next PSC call catches the chain up.
        session.clock += session.config.latency.sample(&mut session.rng);
        (session.clock.as_micros(), Ok(1))
    }

    /// Carries `call` from `from` to inclusion on the PSC chain, signed
    /// once as [`FastPaySession::call`] signs it, and returns its receipt,
    /// a failed one included. The contract enforces the challenge window.
    fn psc_call(
        &mut self,
        _phase: ProtocolPhase,
        from: Party,
        _ctx: TraceContext,
        call: Call,
    ) -> Result<Receipt, SessionError> {
        self.session().call(from, call)
    }

    /// Journals the intent to run a side-effecting step, before the step
    /// runs, and returns the intent's id.
    fn journal_begin(&mut self, _step: Step) -> Result<u64, SessionError> {
        Ok(0)
    }

    /// Journals the outcome of the step begun as `intent`, retiring it.
    /// An intent never retired stays pending: in doubt, for recovery to
    /// resolve.
    fn journal_done(&mut self, _intent: u64, _outcome: Outcome) -> Result<(), SessionError> {
        Ok(())
    }

    /// Session-clock µs a wrapper span closing now must extend to: the
    /// clock, or later when retransmission timers outlive their phase.
    fn span_end(&mut self) -> u64 {
        self.session().clock.as_micros()
    }

    /// Mints the causal root of the payment or dispute about to run.
    fn open_root(&mut self) -> TraceContext {
        self.session().tracer.mint_root()
    }

    /// Records the wrapper span `name` from `start` to [`Self::span_end`].
    fn wrap(&mut self, name: &'static str, ctx: TraceContext, start: u64, fields: Fields) {
        let end = self.span_end();
        self.session()
            .tracer
            .span_ctx(name, ctx, start, end, fields);
    }
}

impl Effects for FastPaySession {
    fn session(&mut self) -> &mut FastPaySession {
        self
    }
}

/// The span a phase is recorded under — the one trace vocabulary.
fn span_name(phase: ProtocolPhase) -> &'static str {
    match phase {
        ProtocolPhase::OpenPayment => "session.register",
        ProtocolPhase::Offer => "session.offer_delivery",
        ProtocolPhase::Acceptance => "session.acceptance_delivery",
        ProtocolPhase::DisputeOpen => "session.dispute_open",
        ProtocolPhase::EvidenceSubmission => "session.evidence_submit",
        ProtocolPhase::JudgeCall => "session.judge",
    }
}

/// Runs `body` as one payment under a fresh causal root and records the
/// `session.payment` root span over it, however `body` exits. `summary`
/// reads the payment id and the acceptance out of a completed body.
pub(crate) fn payment<E: Effects, T>(
    fx: &mut E,
    body: impl FnOnce(&mut E, TraceContext) -> Result<T, SessionError>,
    summary: impl FnOnce(&T) -> (Option<u64>, bool),
) -> Result<T, SessionError> {
    let start = fx.session().clock.as_micros();
    let root = fx.open_root();
    let result = body(fx, root);
    let (payment_id, accepted) = result.as_ref().map_or((None, false), summary);
    let mut fields: Fields = Vec::with_capacity(2);
    fields.extend(payment_id.map(|id| ("payment", id.into())));
    fields.push(("accepted", accepted.into()));
    fx.wrap("session.payment", root, start, fields);
    result
}

/// One journaled PSC call as a phase span under `parent`, returning the
/// intent id beside the call. The intent (`step`, given the caller's
/// nonce) is journaled before the side effect: a crash before its Done
/// record — the caller's to write, once it has read the receipt — leaves
/// a pending intent whose nonce lets recovery decide whether the call
/// landed.
fn psc_phase<E: Effects>(
    fx: &mut E,
    parent: TraceContext,
    phase: ProtocolPhase,
    from: Party,
    step: impl FnOnce(u64) -> Step,
    call: Call,
) -> Result<(u64, Receipt), SessionError> {
    let session = fx.session();
    let start = session.clock.as_micros();
    let step = step(session.psc_nonce(from));
    let payment_id = step.payment_id();
    let intent = fx.journal_begin(step)?;
    let ctx = fx.session().tracer.child_of(&parent);
    let receipt = fx.psc_call(phase, from, ctx, call);
    let mut fields: Fields = Vec::with_capacity(3);
    let landed = receipt.as_ref().is_ok_and(|receipt| {
        let id = payment_id.or_else(|| PayJudgerClient::payment_id_from(receipt));
        fields.extend(id.map(|id| ("payment", id.into())));
        fields.push(("gas", receipt.gas_used.into()));
        receipt.status.is_success()
    });
    if !landed {
        fields.push(("ok", false.into()));
    }
    fx.wrap(span_name(phase), ctx, start, fields);
    Ok((intent, receipt?))
}

/// A completed escrow registration.
pub(crate) struct Registered {
    pub payment_id: u64,
    /// Registration start → inclusion (the batch's, for a batch).
    pub took: SimTime,
    pub gas: u64,
}

/// The payment id an included `open_payment` assigned.
fn registered_id(receipt: &Receipt) -> Result<u64, SessionError> {
    if !receipt.status.is_success() {
        let (phase, status) = (ProtocolPhase::OpenPayment, receipt.status.clone());
        return Err(SessionError::Refused { phase, status });
    }
    PayJudgerClient::payment_id_from(receipt).ok_or(SessionError::MissingPaymentId {
        context: "open-payment",
    })
}

/// Checkout preparation: registers the payment `txid` of `amount_sats`
/// against the customer's escrow and waits for inclusion. On failure the
/// intent stays open — the caller's policy decides what it becomes.
pub(crate) fn register<E: Effects>(
    fx: &mut E,
    root: TraceContext,
    txid: Hash256,
    amount_sats: u64,
) -> Result<Registered, SessionError> {
    let start = fx.session().clock;
    let session = fx.session();
    let collateral = session.config.required_collateral(amount_sats);
    let open = Call::OpenPayment(
        session.merchant.psc_account(),
        txid,
        amount_sats,
        collateral,
    );
    let (intent, receipt) = psc_phase(
        fx,
        root,
        ProtocolPhase::OpenPayment,
        Party::Customer,
        |psc_nonce| Step::OpenPayment {
            txid,
            amount_sats,
            collateral,
            psc_nonce,
        },
        open,
    )?;
    let payment_id = registered_id(&receipt)?;
    fx.journal_done(intent, Outcome::PaymentRegistered { payment_id })?;
    Ok(Registered {
        payment_id,
        took: fx.session().clock - start,
        gas: receipt.gas_used,
    })
}

/// The outcome of one point-of-sale exchange.
pub(crate) struct PointOfSale {
    /// Offer sent → acceptance (or refusal) received.
    pub waiting: SimTime,
    /// Session-clock reading when the answer landed.
    pub accepted_at: SimTime,
    /// The merchant's refusal, when the offer failed its checks.
    pub reject: Option<RejectReason>,
    pub offer_attempts: u32,
    pub acceptance_attempts: u32,
}

/// One protocol message as a leg span under `parent`.
fn message_leg<E: Effects>(
    fx: &mut E,
    parent: TraceContext,
    phase: ProtocolPhase,
    payment_id: u64,
) -> Result<u32, SessionError> {
    let start = fx.session().clock.as_micros();
    let ctx = fx.session().tracer.child_of(&parent);
    let (end, attempts) = fx.leg(phase, ctx);
    let mut fields: Fields = vec![("payment", payment_id.into())];
    if attempts.is_err() {
        fields.push(("ok", false.into()));
    }
    let tracer = &mut fx.session().tracer;
    tracer.span_ctx(span_name(phase), ctx, start, end, fields);
    attempts
}

/// The point-of-sale exchange for the registered payment `payment_id`:
/// offer → merchant checks → acceptance → mempool broadcast, under one
/// `session.accept` span whose legs tile the customer's wait.
pub(crate) fn point_of_sale<E: Effects>(
    fx: &mut E,
    root: TraceContext,
    tx: Transaction,
    txid: Hash256,
    payment_id: u64,
    amount_sats: u64,
) -> Result<PointOfSale, SessionError> {
    let start = fx.session().clock;
    let accept_ctx = fx.session().tracer.child_of(&root);
    // The fallible inside runs as a unit — every span in it a child of
    // `accept_ctx` — so the accept span closes over it however it exits.
    let result = (|| -> Result<PointOfSale, SessionError> {
        // Offer travels customer → merchant.
        let intent = fx.journal_begin(Step::OfferSend { payment_id, txid })?;
        let offer_attempts = message_leg(fx, accept_ctx, ProtocolPhase::Offer, payment_id)?;
        fx.journal_done(intent, Outcome::Applied)?;

        // Merchant verifies locally (BTC checks + PSC view calls on its own
        // node) — budgeted verification time.
        let session = fx.session();
        let offer = session
            .customer
            .make_offer(tx.clone(), payment_id, amount_sats);
        let verify_start = session.clock;
        let decision = session.merchant.evaluate_offer(
            &offer,
            &session.btc,
            &session.mempool,
            &session.psc,
            &session.judger,
        );
        let accepted = decision.is_ok();
        session.clock += SimTime::from_secs_f64(VERIFY_SECS);
        let verify_ctx = session.tracer.child_of(&accept_ctx);
        session.tracer.span_ctx(
            "session.merchant_verify",
            verify_ctx,
            verify_start.as_micros(),
            session.clock.as_micros(),
            vec![("payment", payment_id.into()), ("ok", accepted.into())],
        );

        // Acceptance (or refusal) travels merchant → customer.
        let intent = fx.journal_begin(Step::AcceptanceSend {
            payment_id,
            accepted,
        })?;
        let acceptance_attempts =
            message_leg(fx, accept_ctx, ProtocolPhase::Acceptance, payment_id)?;
        fx.journal_done(
            intent,
            if accepted {
                Outcome::Applied
            } else {
                Outcome::Rejected
            },
        )?;
        let accepted_at = fx.session().clock;

        // The merchant relays the accepted tx to the network mempool.
        if accepted {
            let intent = fx.journal_begin(Step::Broadcast { payment_id, txid })?;
            let session = fx.session();
            let (height, now) = (session.btc.height() + 1, session.clock.as_secs());
            session
                .mempool
                .insert(tx, session.btc.utxo(), height, now)
                .map_err(|e| SessionError::Btc(e.to_string()))?;
            let ctx = session.tracer.child_of(&accept_ctx);
            let pool = session.mempool.len();
            session.tracer.point_ctx(
                "session.broadcast",
                ctx,
                accepted_at.as_micros(),
                vec![("payment", payment_id.into()), ("pool", pool.into())],
            );
            fx.journal_done(intent, Outcome::Applied)?;
        }
        Ok(PointOfSale {
            waiting: accepted_at - start,
            accepted_at,
            reject: decision.err(),
            offer_attempts,
            acceptance_attempts,
        })
    })();
    let accepted = matches!(&result, Ok(pos) if pos.reject.is_none());
    let fields = vec![
        ("payment", payment_id.into()),
        ("accepted", accepted.into()),
    ];
    fx.wrap("session.accept", accept_ctx, start.as_micros(), fields);
    result
}

/// The batch unit behind [`FastPaySession::run_fast_payment_batch`] (see
/// its pipeline): K payments over disjoint confirmed coins, their K
/// registrations journaled and then included in one PSC block, and each
/// offer run through [`point_of_sale`] under its own causal root.
pub(crate) fn batch<E: Effects>(
    fx: &mut E,
    amounts: &[u64],
) -> Result<Vec<FastPayReport>, SessionError> {
    let session = fx.session();
    let mut exclude = HashSet::new();
    let mut txs = Vec::with_capacity(amounts.len());
    for &amount_sats in amounts {
        let tx = session.build_payment(amount_sats, &exclude)?;
        exclude.extend(tx.inputs.iter().map(|input| input.previous_output));
        txs.push(tx);
    }

    // K registrations at sequential nonces, each journaled before the one
    // block that includes them all.
    let registration_start = session.clock;
    let nonce_base = session.psc_nonce(Party::Customer);
    let mut opens = Vec::with_capacity(txs.len());
    let mut intents = Vec::with_capacity(txs.len());
    for (i, (tx, &amount_sats)) in txs.iter().zip(amounts).enumerate() {
        let session = fx.session();
        let (txid, psc_nonce) = (tx.txid(), nonce_base + i as u64);
        let collateral = session.config.required_collateral(amount_sats);
        opens.push(session.customer.build_open_payment_at(
            &session.judger,
            psc_nonce,
            session.merchant.psc_account(),
            txid,
            amount_sats,
            collateral,
        ));
        intents.push(fx.journal_begin(Step::OpenPayment {
            txid,
            amount_sats,
            collateral,
            psc_nonce,
        })?);
    }
    let session = fx.session();
    let receipts = session.run_psc_txs(opens, "batch-registration")?;
    let took = session.clock - registration_start;
    session.tracer.span(
        "session.register",
        registration_start.as_micros(),
        session.clock.as_micros(),
        vec![("batch", txs.len().into())],
    );
    session.preverify_batch(&txs);

    let mut reports = Vec::with_capacity(txs.len());
    for (i, (tx, receipt)) in txs.into_iter().zip(receipts).enumerate() {
        let (payment_id, txid) = (registered_id(&receipt)?, tx.txid());
        let registered = Registered {
            payment_id,
            took,
            gas: receipt.gas_used,
        };
        fx.journal_done(intents[i], Outcome::PaymentRegistered { payment_id })?;
        // Registration is batch-shared, so each payment's causal root
        // covers its own point-of-sale window.
        let pos = payment(
            fx,
            |fx, root| point_of_sale(fx, root, tx, txid, payment_id, amounts[i]),
            |pos| (Some(payment_id), pos.reject.is_none()),
        )?;
        reports.push(FastPayReport::new(txid, &registered, pos));
    }
    Ok(reports)
}

/// One dispute to run.
pub(crate) struct DisputeCall {
    pub payment_id: u64,
    pub txid: Hash256,
    pub amount_sats: u64,
    /// Who answers the dispute with evidence: the merchant proving the
    /// conflict, or the honest customer proving inclusion.
    pub answered_by: Party,
    /// The SPV proof they submit.
    pub evidence: SpvEvidence,
    /// What a refused dispute-open (the challenge window already expired)
    /// means: an error (E5's measurement is void), or else an unprotected
    /// merchant — a completed, uncompensated [`Dispute`] (the attack report).
    pub open_must_land: bool,
}

/// The outcome of one dispute. The default is the dispute that never ran.
#[derive(Default)]
pub(crate) struct Dispute {
    /// The judgment, when the judge call decided.
    pub verdict: Option<DisputeVerdict>,
    /// Did collateral reach the merchant?
    pub merchant_compensated: bool,
    /// Payment lost minus collateral gained, in satoshi-equivalents at the
    /// session rate; negative means the merchant came out ahead.
    pub merchant_net_loss_sats: i64,
    /// Dispute open → verdict (zero when the open was refused).
    pub duration: SimTime,
    pub evidence_gas: u64,
    /// PSC fees the open, evidence and judge calls paid.
    pub fee_units: u128,
}

/// Preflights `evidence` off-chain before gas is paid to submit it: the
/// check `submit_evidence` runs, anchored at the payment's opening
/// checkpoint. Pure — no clock, RNG, gas or trace effect.
fn preflight(
    session: &FastPaySession,
    evidence: &SpvEvidence,
    payment_id: u64,
    txid: &Hash256,
) -> Result<(), SessionError> {
    let payment = session
        .judger
        .payment(&session.psc, session.customer.psc_account(), payment_id)
        .map_err(|e| SessionError::Psc(format!("payment view: {e}")))?;
    let config = session
        .judger
        .config(&session.psc)
        .map_err(|e| SessionError::Psc(format!("config view: {e}")))?;
    check_evidence(
        evidence,
        &payment.checkpoint,
        CompactBits(config.min_target_bits),
        txid,
    )
    .map(|_| ())
    .map_err(|msg| SessionError::Psc(format!("evidence preflight: {msg}")))
}

/// Runs one dispute under a fresh causal root — open → evidence → window
/// wait → judge → verdict, journaled end to end — and records the
/// `session.dispute` root span over it, however the pipeline exits.
pub(crate) fn dispute<E: Effects>(fx: &mut E, call: DisputeCall) -> Result<Dispute, SessionError> {
    let (payment_id, txid, amount_sats) = (call.payment_id, call.txid, call.amount_sats);
    let start = fx.session().clock;
    let root = fx.open_root();
    let result = (|| -> Result<Dispute, SessionError> {
        let session = fx.session();
        let customer = session.customer.psc_account();
        let window = session.config.challenge_window_secs;

        let (intent, open) = psc_phase(
            fx,
            root,
            ProtocolPhase::DisputeOpen,
            Party::Merchant,
            |psc_nonce| Step::DisputeOpen {
                payment_id,
                psc_nonce,
            },
            Call::Dispute(customer, payment_id),
        )?;
        if !open.status.is_success() {
            fx.journal_done(intent, Outcome::Rejected)?;
            if call.open_must_land {
                let (phase, status) = (ProtocolPhase::DisputeOpen, open.status);
                return Err(SessionError::Refused { phase, status });
            }
            return Ok(Dispute {
                merchant_net_loss_sats: amount_sats as i64,
                fee_units: open.fee_paid,
                ..Dispute::default()
            });
        }
        fx.journal_done(intent, Outcome::Applied)?;

        // Gas-free preflight with the contract's own check: a doomed
        // submission never reaches the chain (nor the journal).
        preflight(fx.session(), &call.evidence, payment_id, &txid)?;
        let (intent, submitted) = psc_phase(
            fx,
            root,
            ProtocolPhase::EvidenceSubmission,
            call.answered_by,
            |psc_nonce| Step::EvidenceSubmit {
                payment_id,
                txid,
                psc_nonce,
            },
            Call::SubmitEvidence(customer, payment_id, EvidenceBundle(call.evidence)),
        )?;
        if !submitted.status.is_success() {
            let (phase, status) = (ProtocolPhase::EvidenceSubmission, submitted.status);
            return Err(SessionError::Refused { phase, status });
        }
        fx.journal_done(intent, Outcome::Applied)?;

        // The disputed party's best counter-evidence would be a strictly
        // lighter branch, so rational parties skip the gas. Wait out the
        // evidence window, then judge (the judge call is valid any time
        // after expiry).
        fx.session().advance_clock(SimTime::from_secs(window + 1));
        let (intent, judged) = psc_phase(
            fx,
            root,
            ProtocolPhase::JudgeCall,
            Party::Merchant,
            |psc_nonce| Step::JudgeCall {
                payment_id,
                psc_nonce,
            },
            Call::Judge(customer, payment_id),
        )?;
        fx.journal_done(intent, Outcome::Applied)?;

        let verdict = PayJudgerClient::verdict_from(&judged);
        let merchant_compensated = verdict == Some(DisputeVerdict::MerchantWins);
        let intent = fx.journal_begin(Step::Verdict {
            payment_id,
            merchant_wins: merchant_compensated,
        })?;
        fx.journal_done(intent, Outcome::Applied)?;

        // Settlement: the payment is gone either way; a winning merchant is
        // paid the locked collateral (one PSC unit per satoshi).
        let session = fx.session();
        let collateral_sats = session.config.required_collateral(amount_sats) as i64;
        Ok(Dispute {
            verdict,
            merchant_compensated,
            merchant_net_loss_sats: amount_sats as i64
                - i64::from(merchant_compensated) * collateral_sats,
            duration: session.clock - start,
            evidence_gas: submitted.gas_used,
            fee_units: open.fee_paid + submitted.fee_paid + judged.fee_paid,
        })
    })();
    let mut fields: Fields = vec![("payment", payment_id.into())];
    if let Ok(dispute) = &result {
        fields.push(("merchant_wins", dispute.merchant_compensated.into()));
    }
    fx.wrap("session.dispute", root, start.as_micros(), fields);
    result
}

/// The double-spend attack on the accepted payment `txid`: the BTC race,
/// then — when the payment vanished from the ledger — the merchant's
/// dispute, prosecuted with the heaviest chain they see. A refused open
/// (the window already expired) leaves the merchant unprotected.
pub(crate) fn double_spend<E: Effects>(
    fx: &mut E,
    payment_id: u64,
    txid: Hash256,
    amount_sats: u64,
    attacker_hashrate: f64,
    max_race_blocks: u64,
) -> Result<(RaceOutcome, Dispute), SessionError> {
    let session = fx.session();
    let race = session.run_double_spend_race(&txid, attacker_hashrate, max_race_blocks)?;
    if !race.merchant_lost_payment {
        return Ok((race, Dispute::default()));
    }
    let call = DisputeCall {
        payment_id,
        txid,
        amount_sats,
        answered_by: Party::Merchant,
        evidence: session.merchant.build_dispute_evidence(&session.btc, &txid),
        open_must_land: false,
    };
    Ok((race, dispute(fx, call)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosSession;
    use crate::config::SessionConfig;
    use crate::robustness::ChaosConfig;
    use btcfast_netsim::faults::FaultPlan;

    const AMOUNT_SATS: u64 = 1_000_000;

    fn config() -> SessionConfig {
        SessionConfig {
            challenge_window_secs: 100_000,
            ..SessionConfig::default()
        }
    }

    /// Disputes `payment_id` with a proof whose second header was
    /// tampered with, answered by the customer — who sends nothing else
    /// in a dispute, so an unchanged nonce means no submission was made.
    fn dispute_with_tampered_evidence<E: Effects>(
        fx: &mut E,
        payment_id: u64,
        txid: Hash256,
    ) -> Result<Dispute, SessionError> {
        let session = fx.session();
        let customer = session.customer.psc_account();
        let nonce_before = session.psc.nonce_of(&customer);
        let events_before = session.trace().len();
        let mut proof = SpvEvidence::from_chain(&session.btc, 1, session.btc.height(), None);
        proof.segment.headers[1].nonce ^= 1;
        let result = dispute(
            fx,
            DisputeCall {
                payment_id,
                txid,
                amount_sats: AMOUNT_SATS,
                answered_by: Party::Customer,
                evidence: proof,
                open_must_land: true,
            },
        );
        let session = fx.session();
        assert_eq!(
            session.psc.nonce_of(&customer),
            nonce_before,
            "no submit_evidence transaction was sent"
        );
        let spans: Vec<&str> = session.trace()[events_before..]
            .iter()
            .map(|e| e.name)
            .filter(|name| name.starts_with("session."))
            .collect();
        assert_eq!(
            spans,
            ["session.dispute_open", "session.dispute"],
            "the root closes over the one phase that ran"
        );
        result
    }

    fn is_preflight_refusal(error: &SessionError) -> bool {
        matches!(error, SessionError::Psc(msg) if msg.starts_with("evidence preflight: evidence rejected:"))
    }

    #[test]
    fn tampered_evidence_is_refused_off_chain_under_ideal_effects() {
        let mut session = FastPaySession::new(config(), 41);
        let report = session.run_fast_payment(AMOUNT_SATS).unwrap();
        let error = dispute_with_tampered_evidence(&mut session, report.payment_id, report.txid)
            .err()
            .expect("tampered evidence must not reach judgment");
        assert!(is_preflight_refusal(&error), "{error}");
    }

    #[test]
    fn tampered_evidence_is_refused_off_chain_under_chaos_effects() {
        let mut chaos = ChaosSession::new(config(), ChaosConfig::default(), FaultPlan::new(), 41);
        let report = chaos.run_fast_payment_chaos(AMOUNT_SATS).unwrap();
        let payment_id = report.payment_id.expect("clean run registers");
        let pending_before = chaos.recovery().pending().count();
        let error = dispute_with_tampered_evidence(&mut chaos, payment_id, report.txid)
            .err()
            .expect("tampered evidence must not reach judgment");
        assert!(is_preflight_refusal(&error), "{error}");
        assert_eq!(
            chaos.recovery().pending().count(),
            pending_before,
            "a doomed submission is never journaled as an intent"
        );
    }
}
