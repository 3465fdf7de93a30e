//! E1 — the waiting-time comparison (claim C1: "waiting time < 1 s").
//!
//! Measured end-to-end in the discrete-event simulation: BTCFast's
//! point-of-sale wait versus 1/2/6-confirmation baselines, under LAN and
//! WAN latency profiles. Confirmation baselines use Poisson block arrivals
//! at the mainnet 600 s interval.

use crate::table::{f3, Table};
use btcfast::session::FastPaySession;
use btcfast::SessionConfig;
use btcfast_netsim::latency::LatencyModel;
use btcfast_obs::stats::quantile_sorted_f64;

fn stats(mut samples: Vec<f64>) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let percentile = |p| quantile_sorted_f64(&samples, p).unwrap_or(f64::NAN);
    (mean, percentile(0.5), percentile(0.95))
}

/// Runs E1.
pub fn run(quick: bool) -> Vec<Table> {
    let trials = if quick { 5 } else { 40 };
    let baseline_trials = if quick { 3 } else { 25 };
    let amount = 1_000_000u64;

    let mut table = Table::new(
        "E1 — payment waiting time (seconds), mean / p50 / p95",
        &["scheme", "network", "mean", "p50", "p95"],
    );

    for (net_label, latency) in [("LAN", LatencyModel::lan()), ("WAN", LatencyModel::wan())] {
        // BTCFast point-of-sale wait.
        let mut pos_waits = Vec::with_capacity(trials);
        let mut e2e_waits = Vec::with_capacity(trials);
        for trial in 0..trials {
            let config = SessionConfig {
                latency,
                ..SessionConfig::default()
            };
            let mut session = FastPaySession::new(config, 1000 + trial as u64);
            let report = session.run_fast_payment(amount).expect("honest payment");
            assert!(report.accepted, "{:?}", report.reject);
            pos_waits.push(report.waiting.as_secs_f64());
            e2e_waits.push(report.end_to_end.as_secs_f64());
        }
        let (mean, p50, p95) = stats(pos_waits);
        table.push(vec![
            "BTCFast (point of sale)".into(),
            net_label.into(),
            f3(mean),
            f3(p50),
            f3(p95),
        ]);
        let (mean, p50, p95) = stats(e2e_waits);
        table.push(vec![
            "BTCFast (incl. registration, ETH-like PSC)".into(),
            net_label.into(),
            f3(mean),
            f3(p50),
            f3(p95),
        ]);

        // EOS-like registration path.
        let mut e2e_eos = Vec::with_capacity(trials);
        for trial in 0..trials {
            let mut config = SessionConfig::eos_flavored();
            config.latency = latency;
            let mut session = FastPaySession::new(config, 2000 + trial as u64);
            let report = session.run_fast_payment(amount).expect("honest payment");
            e2e_eos.push(report.end_to_end.as_secs_f64());
        }
        let (mean, p50, p95) = stats(e2e_eos);
        table.push(vec![
            "BTCFast (incl. registration, EOS-like PSC)".into(),
            net_label.into(),
            f3(mean),
            f3(p50),
            f3(p95),
        ]);

        // Confirmation baselines.
        for z in [1u64, 2, 6] {
            let mut waits = Vec::with_capacity(baseline_trials);
            for trial in 0..baseline_trials {
                let config = SessionConfig {
                    latency,
                    ..SessionConfig::default()
                };
                let mut session = FastPaySession::new(config, 3000 + trial as u64 + z * 101);
                let report = session
                    .run_baseline_payment(amount, z)
                    .expect("baseline payment");
                waits.push(report.waiting.as_secs_f64());
            }
            let (mean, p50, p95) = stats(waits);
            table.push(vec![
                format!("{z}-confirmation baseline"),
                net_label.into(),
                f3(mean),
                f3(p50),
                f3(p95),
            ]);
        }
    }

    vec![table]
}
