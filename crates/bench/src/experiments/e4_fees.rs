//! E4 — the operation fee table (claim C3: "no extra operation fee").
//!
//! Measures the gas of every PayJudger operation from a live session, then
//! converts to per-payment costs: the honest path's PSC overhead amortizes
//! over the escrow lifetime and is zero outright on an EOS-like chain,
//! leaving exactly the ordinary BTC fee — the paper's claim.

use crate::table::{f3, Table};
use btcfast::fees::{baseline_cost, honest_cost_per_payment, GasUsage};
use btcfast::session::FastPaySession;
use btcfast::{Party, SessionConfig};
use btcfast_btcsim::spv::SpvEvidence;
use btcfast_netsim::time::SimTime;
use btcfast_payjudger::evidence::EvidenceBundle;
use btcfast_payjudger::Call;

/// Sends `call` from `from`, which must land, and returns its gas.
fn gas(session: &mut FastPaySession, from: Party, call: Call) -> u64 {
    let receipt = session.call(from, call).expect("psc tx executes");
    assert!(receipt.status.is_success(), "{:?}", receipt.status);
    receipt.gas_used
}

/// Drives a session through every contract operation, capturing gas.
pub fn measure_gas_usage(seed: u64) -> GasUsage {
    let config = SessionConfig {
        challenge_window_secs: 1200,
        ..SessionConfig::default()
    };
    let window = config.challenge_window_secs;
    let mut session = FastPaySession::new(config, seed);
    let customer = session.customer.psc_account();
    let mut usage = GasUsage {
        deploy: session.deploy_gas,
        deposit: session.deposit_gas,
        ..Default::default()
    };

    // Payment 1: acked by the merchant.
    let report = session.run_fast_payment(500_000).expect("payment 1");
    usage.open_payment = report.registration_gas;
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");
    let payment_id = report.payment_id;
    let ack = Call::AckPayment(customer, payment_id);
    usage.ack_payment = gas(&mut session, Party::Merchant, ack);

    // Payment 2: closed by the customer after the window.
    let report2 = session.run_fast_payment(500_000).expect("payment 2");
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");
    session.advance_clock(SimTime::from_secs(window + 30));
    let payment_id = report2.payment_id;
    let close = Call::ClosePayment(payment_id);
    usage.close_payment = gas(&mut session, Party::Customer, close);

    // Payment 3: disputed (frivolously) and judged.
    let report3 = session.run_fast_payment(500_000).expect("payment 3");
    session.advance_clock(SimTime::from_secs(5));
    session.mine_public_block().expect("block connects");
    let payment_id = report3.payment_id;
    let dispute = Call::Dispute(customer, payment_id);
    usage.dispute = gas(&mut session, Party::Merchant, dispute);

    let evidence =
        SpvEvidence::from_chain(&session.btc, 1, session.btc.height(), Some(&report3.txid));
    let submit = Call::SubmitEvidence(customer, payment_id, EvidenceBundle(evidence));
    usage.submit_evidence = gas(&mut session, Party::Customer, submit);

    session.advance_clock(SimTime::from_secs(window + 30));
    let judge = Call::Judge(customer, payment_id);
    usage.judge = gas(&mut session, Party::Merchant, judge);

    // Withdraw the remaining escrow.
    let escrow = session
        .judger
        .escrow(&session.psc, customer)
        .expect("escrow exists");
    let amount = escrow.available();
    usage.withdraw = gas(&mut session, Party::Customer, Call::Withdraw(amount));

    usage
}

/// Runs E4.
pub fn run(_quick: bool) -> Vec<Table> {
    let usage = measure_gas_usage(42);

    let mut gas_table = Table::new(
        "E4a — PayJudger gas per operation",
        &["operation", "gas", "frequency"],
    );
    for (op, gas, freq) in [
        ("deploy", usage.deploy, "once per judger"),
        ("deposit", usage.deposit, "once per escrow"),
        ("open_payment", usage.open_payment, "per payment"),
        ("close_payment", usage.close_payment, "per payment*"),
        ("ack_payment", usage.ack_payment, "alternative to close"),
        ("dispute", usage.dispute, "per dispute"),
        (
            "submit_evidence (~6-header proof)",
            usage.submit_evidence,
            "per dispute",
        ),
        ("judge", usage.judge, "per dispute"),
        ("withdraw", usage.withdraw, "once per escrow"),
    ] {
        gas_table.push(vec![op.into(), gas.to_string(), freq.into()]);
    }

    let mut cost_table = Table::new(
        "E4b — per-payment cost vs plain-BTC baseline (satoshi equivalents)",
        &[
            "scheme",
            "BTC fee",
            "PSC overhead",
            "total",
            "extra vs baseline",
        ],
    );
    // Both price points charge the same BTC fee; gas is priced at
    // `fees::SATS_PER_PSC_UNIT`.
    let eth = SessionConfig::default();
    let eos = SessionConfig::eos_flavored();
    let baseline = baseline_cost(&eth);
    cost_table.push(vec![
        "plain BTC (any z)".into(),
        f3(baseline.btc_fee_sats),
        f3(0.0),
        f3(baseline.total_sats()),
        f3(0.0),
    ]);
    for (label, config, payments) in [
        ("BTCFast, ETH-like PSC, 10 payments/escrow", &eth, 10),
        ("BTCFast, ETH-like PSC, 1000 payments/escrow", &eth, 1000),
        ("BTCFast, EOS-like PSC (resource-staked)", &eos, 10),
    ] {
        let cost = honest_cost_per_payment(config, &usage, payments);
        cost_table.push(vec![
            label.into(),
            f3(cost.btc_fee_sats),
            f3(cost.psc_overhead_sats),
            f3(cost.total_sats()),
            f3(cost.extra_vs_baseline_sats()),
        ]);
    }

    vec![gas_table, cost_table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_gas_table_is_complete_and_eos_overhead_zero() {
        let usage = super::measure_gas_usage(7);
        assert!(usage.deploy > 0);
        assert!(usage.deposit > 21_000);
        assert!(usage.open_payment > 21_000);
        assert!(usage.close_payment > 21_000);
        assert!(usage.dispute > 21_000);
        assert!(usage.submit_evidence > usage.dispute);
        assert!(usage.judge > 21_000);
        assert!(usage.withdraw > 21_000);

        let eos = btcfast::SessionConfig::eos_flavored();
        let cost = btcfast::fees::honest_cost_per_payment(&eos, &usage, 10);
        assert_eq!(cost.extra_vs_baseline_sats(), 0.0);
    }
}
