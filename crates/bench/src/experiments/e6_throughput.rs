//! E6 — merchant-side throughput: how many 0-conf acceptance decisions per
//! second one merchant stack sustains, and how the full payment pipeline
//! scales with concurrent customers.
//!
//! BTCFast's acceptance path is pure local computation (one ECDSA verify +
//! two contract view calls), so throughput is host-bound; this experiment
//! measures it directly rather than through the simulated clock.

use crate::table::{f3, Table};
use btcfast::session::FastPaySession;
use btcfast::SessionConfig;
use std::time::Instant;

/// Runs E6.
pub fn run(quick: bool) -> Vec<Table> {
    let decision_iters = if quick { 50 } else { 500 };
    let pipeline_payments = if quick { 5 } else { 25 };

    let mut table = Table::new(
        "E6 — merchant throughput (host-measured)",
        &["stage", "operations", "elapsed (s)", "ops/sec"],
    );

    // --- Acceptance decision throughput. ----------------------------------
    let mut session = FastPaySession::new(SessionConfig::default(), 600);
    let report = session.run_fast_payment(100_000).expect("seed payment");
    assert!(report.accepted);
    // Rebuild the same offer object for repeated evaluation.
    let tx = session
        .mempool
        .get(&report.txid)
        .expect("pooled")
        .tx
        .clone();
    let offer = session.customer.make_offer(tx, report.payment_id, 100_000);
    // The pooled copy would make every re-evaluation see "conflict with
    // itself"; evaluating against a fresh empty mempool isolates the
    // decision cost.
    let empty_pool = btcfast_btcsim::mempool::Mempool::new();

    // The seed payment left this offer's signature in the thread's cache;
    // a merchant sees each offer once, so every timed decision starts
    // without it and pays the ECDSA verify.
    let start = Instant::now();
    for _ in 0..decision_iters {
        btcfast_btcsim::utxo::clear_sig_cache();
        let decision = session.merchant.evaluate_offer(
            &offer,
            &session.btc,
            &empty_pool,
            &session.psc,
            &session.judger,
        );
        assert!(decision.is_ok());
    }
    let elapsed = start.elapsed().as_secs_f64();
    table.push(vec![
        "acceptance decision (verify + escrow views)".into(),
        decision_iters.to_string(),
        f3(elapsed),
        f3(decision_iters as f64 / elapsed),
    ]);

    // --- Full pipeline: registration + decision + mempool + block. --------
    let mut session = FastPaySession::new(
        SessionConfig {
            escrow_deposit: 50_000_000_000,
            ..SessionConfig::default()
        },
        601,
    );
    let start = Instant::now();
    for _ in 0..pipeline_payments {
        let report = session.run_fast_payment(100_000).expect("pipeline payment");
        assert!(report.accepted, "{:?}", report.reject);
        session.mine_public_block().expect("block connects");
    }
    let elapsed = start.elapsed().as_secs_f64();
    table.push(vec![
        "full pipeline (register + decide + mine)".into(),
        pipeline_payments.to_string(),
        f3(elapsed),
        f3(pipeline_payments as f64 / elapsed),
    ]);

    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_produces_positive_throughput() {
        let tables = super::run(true);
        let rendered = tables[0].render();
        assert!(rendered.contains("acceptance decision"));
        assert!(rendered.contains("full pipeline"));
    }
}
