//! E3 — BTCFast security vs the 6-confirmation baseline (claim C2).
//!
//! Two layers:
//!
//! 1. *theory* — the merchant's residual loss probability under BTCFast
//!    with judgment window Δ equals the race probability at z = Δ, so
//!    Δ = 6 matches the baseline by construction; swept over Δ (ablation).
//! 2. *full machinery* — actual private-fork attacks against live sessions
//!    (real blocks, real reorgs, real disputes, real judgments), reporting
//!    how often the attacker wins the race and whether the merchant ends
//!    up whole.

use crate::table::{prob, Table};
use btcfast::baseline::Scheme;
use btcfast::session::FastPaySession;
use btcfast::SessionConfig;

/// Runs E3.
pub fn run(quick: bool) -> Vec<Table> {
    let mut tables = Vec::new();

    // --- Theory: residual loss probability vs Δ. --------------------------
    let mut theory = Table::new(
        "E3a — merchant loss probability: BTCFast(Δ) vs 6-confirmation (theory)",
        &[
            "q",
            "BTCFast Δ=2",
            "BTCFast Δ=6",
            "BTCFast Δ=12",
            "6-conf baseline",
        ],
    );
    for q in [0.05, 0.1, 0.2, 0.3, 0.4] {
        let baseline = Scheme::NConfirmations { z: 6 }.merchant_loss_probability(q);
        theory.push(vec![
            format!("{q}"),
            prob(Scheme::BtcFast { judgment_window: 2 }.merchant_loss_probability(q)),
            prob(Scheme::BtcFast { judgment_window: 6 }.merchant_loss_probability(q)),
            prob(
                Scheme::BtcFast {
                    judgment_window: 12,
                }
                .merchant_loss_probability(q),
            ),
            prob(baseline),
        ]);
    }
    tables.push(theory);

    // --- Full machinery: live attacks. ------------------------------------
    let trials = if quick { 3 } else { 15 };
    let mut live = Table::new(
        "E3b — live private-fork attacks (full machinery, real disputes)",
        &[
            "q",
            "trials",
            "race won",
            "merchant lost tx",
            "merchant compensated",
            "merchant net loss > 0",
        ],
    );
    for q in [0.15, 0.45, 0.8] {
        let mut race_won = 0u32;
        let mut lost_tx = 0u32;
        let mut compensated = 0u32;
        let mut net_loss = 0u32;
        for trial in 0..trials {
            let config = SessionConfig {
                challenge_window_secs: 100_000, // window covers the race
                ..SessionConfig::default()
            };
            let mut session = FastPaySession::new(config, 7000 + trial as u64);
            let report = session
                .run_double_spend_attack(1_000_000, q, 12)
                .expect("attack session");
            race_won += report.attacker_won_race as u32;
            lost_tx += report.merchant_lost_payment as u32;
            compensated += report.merchant_compensated as u32;
            net_loss += (report.merchant_net_loss_sats > 0) as u32;
        }
        live.push(vec![
            format!("{q}"),
            trials.to_string(),
            race_won.to_string(),
            lost_tx.to_string(),
            compensated.to_string(),
            net_loss.to_string(),
        ]);
    }
    tables.push(live);
    tables
}

#[cfg(test)]
mod tests {
    #[test]
    fn e3_merchant_never_loses_money_in_quick_run() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        // Every live row's final column ("merchant net loss > 0") is 0:
        // compensated attacks leave the merchant whole.
        let rendered = tables[1].render();
        for line in rendered.lines().skip(4) {
            if line.trim().is_empty() {
                continue;
            }
            let last = line.split_whitespace().last().unwrap();
            assert_eq!(last, "0", "row: {line}");
        }
    }
}
