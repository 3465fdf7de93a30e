//! The `harness trace` scenario: one seeded chaos run (a payment under 20 %
//! loss, then a dispute) exported as a sim-time span trace and a
//! Prometheus-style dump of every subsystem counter. Same seed →
//! byte-identical output.

use btcfast::chaos::ChaosSession;
use btcfast::robustness::ChaosConfig;
use btcfast::telemetry;
use btcfast::SessionConfig;
use btcfast_netsim::faults::FaultPlan;
use btcfast_netsim::time::SimTime;

/// Chosen so the dispute leg's race is actually lost and the dispute
/// phases land on the exported trace.
pub const DEFAULT_SEED: u64 = 17;

/// What one run of the scenario exports.
pub struct TraceRun {
    /// The session's span trace, one JSON object per line.
    pub jsonl: String,
    /// Every subsystem counter, Prometheus text format.
    pub prom: String,
}

/// Runs the scenario.
///
/// # Errors
///
/// Names the leg that failed under chaos.
pub fn run(seed: u64) -> Result<TraceRun, String> {
    let mut plan = FaultPlan::new();
    plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), 0.2);
    let mut chaos = ChaosSession::new(SessionConfig::default(), ChaosConfig::default(), plan, seed);

    chaos
        .run_fast_payment_chaos(1_000_000)
        .map_err(|e| format!("payment leg failed under chaos: {e}"))?;
    // Confirm the first sale so the dispute leg's payment does not
    // conflict with it in the mempool.
    chaos
        .session
        .mine_public_block()
        .map_err(|e| format!("confirmation block did not connect: {e}"))?;
    chaos
        .run_dispute_chaos(1_000_000, 0.3, 24)
        .map_err(|e| format!("dispute leg failed under chaos: {e}"))?;
    // The dispute path already snapshots the transport counters; only add
    // a final snapshot when the run ended without one.
    if chaos
        .session
        .trace()
        .last()
        .is_none_or(|e| e.name != "transport.stats")
    {
        chaos.trace_transport_stats();
    }

    let mut registry = btcfast_obs::Registry::new();
    telemetry::publish_chaos(&mut registry, &chaos);
    Ok(TraceRun {
        jsonl: btcfast_obs::render_jsonl(&chaos.session.take_trace()),
        prom: registry.render_prometheus(),
    })
}
