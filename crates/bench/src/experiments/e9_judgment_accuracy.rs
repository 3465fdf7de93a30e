//! E9 — judgment accuracy under adversarial evidence.
//!
//! Four scenarios probe the PoW judgment's decision rule:
//!
//! * **justified dispute** — a real double-spend reorg; the merchant's
//!   heavier no-inclusion chain must win;
//! * **frivolous dispute** — no attack; the customer's inclusion proof on
//!   the heaviest chain must win;
//! * **stale counter-evidence** — a real double spend where the attacker
//!   customer submits the pre-reorg branch containing the payment; the
//!   merchant's heavier chain must still win;
//! * **shallow inclusion** — a frivolous dispute answered with a
//!   below-Δ inclusion proof; the judge must refuse it.

use crate::table::Table;
use btcfast::session::FastPaySession;
use btcfast::{Party, SessionConfig};
use btcfast_btcsim::attack::PrivateForkAttacker;
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_btcsim::Amount;
use btcfast_netsim::time::SimTime;
use btcfast_payjudger::evidence::EvidenceBundle;
use btcfast_payjudger::types::DisputeVerdict;
use btcfast_payjudger::{Call, PayJudgerClient};
use btcfast_pscsim::account::AccountId;

const WINDOW: u64 = 100_000;

fn config() -> SessionConfig {
    SessionConfig {
        challenge_window_secs: WINDOW,
        ..SessionConfig::default()
    }
}

/// Sends `call` from `from` and reports whether it landed.
fn landed(session: &mut FastPaySession, from: Party, call: Call) -> bool {
    let receipt = session.call(from, call).expect("psc tx executes");
    receipt.status.is_success()
}

/// Waits out the evidence window, then judges.
fn judge(
    session: &mut FastPaySession,
    customer: AccountId,
    payment_id: u64,
) -> Option<DisputeVerdict> {
    session.advance_clock(SimTime::from_secs(WINDOW + 30));
    let call = Call::Judge(customer, payment_id);
    let receipt = session
        .call(Party::Merchant, call)
        .expect("psc tx executes");
    PayJudgerClient::verdict_from(&receipt)
}

/// Justified dispute after a real double spend (via the full attack path).
fn justified_dispute(seed: u64) -> Option<DisputeVerdict> {
    let mut session = FastPaySession::new(config(), seed);
    let report = session
        .run_double_spend_attack(1_000_000, 0.8, 30)
        .expect("attack runs");
    report.verdict
}

/// Frivolous dispute against an honest, confirmed payment.
fn frivolous_dispute(seed: u64, evidence_blocks: u64) -> Option<DisputeVerdict> {
    let mut session = FastPaySession::new(config(), seed);
    let report = session.run_fast_payment(1_000_000).expect("payment");
    // Confirm to the requested depth.
    while session.btc.confirmations(&report.txid).unwrap_or(0) < evidence_blocks {
        session.advance_clock(SimTime::from_secs(600));
        session.mine_public_block().expect("block connects");
    }
    let (customer, payment_id) = (session.customer.psc_account(), report.payment_id);
    assert!(landed(
        &mut session,
        Party::Merchant,
        Call::Dispute(customer, payment_id)
    ));
    let evidence =
        SpvEvidence::from_chain(&session.btc, 1, session.btc.height(), Some(&report.txid));
    // Shallow evidence may be structurally fine but fail later; keep going —
    // judgment decides.
    landed(
        &mut session,
        Party::Customer,
        Call::SubmitEvidence(customer, payment_id, EvidenceBundle(evidence)),
    );
    judge(&mut session, customer, payment_id)
}

/// Real double spend where the attacker answers with the stale branch.
fn stale_counter_evidence(seed: u64) -> Option<DisputeVerdict> {
    let mut session = FastPaySession::new(config(), seed);
    let report = session.run_fast_payment(1_000_000).expect("payment");
    let fork_point = session.btc.tip_hash();
    let accepted_tx = session
        .mempool
        .get(&report.txid)
        .expect("pooled")
        .tx
        .clone();
    let steal = session.customer.btc_wallet().create_conflicting_spend(
        &session.btc,
        &accepted_tx,
        Amount::from_sats(2_000).expect("fee"),
    );

    // Honest chain confirms the payment to depth 7.
    for _ in 0..7 {
        session.advance_clock(SimTime::from_secs(600));
        session.mine_public_block().expect("block connects");
    }
    // Customer snapshots the honest view before the reorg: this is the
    // stale branch they will present as counter-evidence.
    let stale_view = session.btc.clone();

    // Attacker out-mines it with 9 secret blocks.
    let mut attacker = PrivateForkAttacker::start(
        session.config.btc_params.clone(),
        &session.btc,
        fork_point,
        session.customer.btc_wallet().address(),
        Some(steal),
    );
    for i in 0..9 {
        attacker.extend(session.clock.as_secs() + i * 10 + 10);
    }
    assert!(attacker.publish(&mut session.btc));
    assert_eq!(session.btc.confirmations(&report.txid), None);

    let (customer, payment_id) = (session.customer.psc_account(), report.payment_id);
    assert!(landed(
        &mut session,
        Party::Merchant,
        Call::Dispute(customer, payment_id)
    ));

    // Merchant: heavier, no inclusion.
    let merchant_evidence =
        SpvEvidence::from_chain(&session.btc, 1, session.btc.height(), Some(&report.txid));
    let call = Call::SubmitEvidence(customer, payment_id, EvidenceBundle(merchant_evidence));
    assert!(landed(&mut session, Party::Merchant, call));

    // Attacker-customer: stale branch with inclusion, lighter.
    let customer_evidence =
        SpvEvidence::from_chain(&stale_view, 1, stale_view.height(), Some(&report.txid));
    assert!(customer_evidence.inclusion.is_some());
    let call = Call::SubmitEvidence(customer, payment_id, EvidenceBundle(customer_evidence));
    assert!(landed(&mut session, Party::Customer, call));

    judge(&mut session, customer, payment_id)
}

/// Runs E9.
pub fn run(quick: bool) -> Vec<Table> {
    let trials = if quick { 2 } else { 8 };
    let mut table = Table::new(
        "E9 — judgment accuracy under adversarial evidence",
        &["scenario", "expected verdict", "trials", "correct"],
    );

    let mut correct = 0;
    for t in 0..trials {
        if justified_dispute(9100 + t as u64) == Some(DisputeVerdict::MerchantWins) {
            correct += 1;
        }
    }
    table.push(vec![
        "justified dispute (real double spend)".into(),
        "MerchantWins".into(),
        trials.to_string(),
        correct.to_string(),
    ]);

    let mut correct = 0;
    for t in 0..trials {
        if frivolous_dispute(9200 + t as u64, 8) == Some(DisputeVerdict::CustomerWins) {
            correct += 1;
        }
    }
    table.push(vec![
        "frivolous dispute, deep inclusion proof".into(),
        "CustomerWins".into(),
        trials.to_string(),
        correct.to_string(),
    ]);

    let mut correct = 0;
    for t in 0..trials {
        if stale_counter_evidence(9300 + t as u64) == Some(DisputeVerdict::MerchantWins) {
            correct += 1;
        }
    }
    table.push(vec![
        "double spend + stale counter-evidence".into(),
        "MerchantWins".into(),
        trials.to_string(),
        correct.to_string(),
    ]);

    let mut correct = 0;
    for t in 0..trials {
        // Δ = 6; a 3-block inclusion proof must not clear the customer.
        if frivolous_dispute(9400 + t as u64, 3) == Some(DisputeVerdict::MerchantWins) {
            correct += 1;
        }
    }
    table.push(vec![
        "shallow (below-Δ) inclusion proof".into(),
        "MerchantWins".into(),
        trials.to_string(),
        correct.to_string(),
    ]);

    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e9_all_scenarios_judge_correctly() {
        let tables = super::run(true);
        let rendered = tables[0].render();
        for line in rendered.lines().skip(4).filter(|l| !l.trim().is_empty()) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let trials = cells[cells.len() - 2];
            let correct = cells[cells.len() - 1];
            assert_eq!(trials, correct, "row: {line}");
        }
    }
}
