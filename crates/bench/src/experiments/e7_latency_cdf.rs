//! E7 — the waiting-time distribution (CDF) of BTCFast's point-of-sale
//! path under log-normal WAN latency, versus the sub-second bound of
//! claim C1.

use crate::table::{f3, Table};
use btcfast::session::FastPaySession;
use btcfast::SessionConfig;
use btcfast_obs::stats::quantile_sorted_f64;

/// Runs E7: samples waits, reports the empirical CDF at fixed quantiles
/// plus the fraction of payments completing within 1 s.
pub fn run(quick: bool) -> Vec<Table> {
    let trials = if quick { 10 } else { 200 };

    // One long-lived session; a block is mined after each payment so the
    // wallet's change re-confirms.
    let config = SessionConfig {
        escrow_deposit: 500_000_000_000,
        ..SessionConfig::default()
    };
    let mut session = FastPaySession::new(config, 777);
    let mut waits: Vec<f64> = Vec::with_capacity(trials);
    for _ in 0..trials {
        let report = session.run_fast_payment(100_000).expect("payment");
        assert!(report.accepted, "{:?}", report.reject);
        waits.push(report.waiting.as_secs_f64());
        session.mine_public_block().expect("block connects");
    }
    waits.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let mut table = Table::new(
        "E7 — BTCFast point-of-sale waiting time CDF (WAN, log-normal)",
        &["quantile", "waiting time (s)"],
    );
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99] {
        let wait = quantile_sorted_f64(&waits, q).expect("trials ran");
        table.push(vec![format!("p{:02.0}", q * 100.0), f3(wait)]);
    }
    let under_one = waits.iter().filter(|&&w| w < 1.0).count() as f64 / waits.len() as f64;
    table.push(vec!["P(wait < 1 s)".into(), f3(under_one)]);

    vec![table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e7_overwhelmingly_sub_second() {
        let tables = super::run(true);
        let rendered = tables[0].render();
        let frac_line = rendered
            .lines()
            .find(|l| l.contains("P(wait < 1 s)"))
            .unwrap();
        let frac: f64 = frac_line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .unwrap();
        assert!(frac > 0.8, "fraction sub-second = {frac}");
    }
}
