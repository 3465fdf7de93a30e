//! The evaluation experiments, one module per table/figure.
//!
//! Every module exposes `run(quick: bool) -> Vec<Table>`; `quick` trims
//! trial counts so the experiment suite can run inside the test suite.
//! Every cell is simulated-clock, so each experiment is pinned in
//! `bench/golden/`; host throughput is `benchmark/`'s to measure.

pub mod e10_robustness;
pub mod e12_phase_latency;
pub mod e13_crash_recovery;
pub mod e14_load;
pub mod e15_critical_path;
pub mod e1_waiting_time;
pub mod e2_double_spend;
pub mod e3_btcfast_security;
pub mod e4_fees;
pub mod e5_dispute_latency;
pub mod e7_latency_cdf;
pub mod e8_collateral;
pub mod e9_judgment_accuracy;

use crate::table::Table;

/// Runs one experiment by id ("e1".."e15") or all of them ("all").
///
/// Returns the rendered tables; unknown ids return an empty list.
pub fn run(id: &str, quick: bool) -> Vec<Table> {
    match id {
        "e1" => e1_waiting_time::run(quick),
        "e2" => e2_double_spend::run(quick),
        "e3" => e3_btcfast_security::run(quick),
        "e4" => e4_fees::run(quick),
        "e5" => e5_dispute_latency::run(quick),
        "e7" => e7_latency_cdf::run(quick),
        "e8" => e8_collateral::run(quick),
        "e9" => e9_judgment_accuracy::run(quick),
        "e10" => e10_robustness::run(quick),
        "e12" => e12_phase_latency::run(quick),
        "e13" => e13_crash_recovery::run(quick),
        "e14" => e14_load::run(quick),
        "e15" => e15_critical_path::run(quick),
        "all" => {
            let mut tables = Vec::new();
            for id in ALL_IDS {
                tables.extend(run(id, quick));
            }
            tables
        }
        _ => Vec::new(),
    }
}

/// All experiment ids, in order.
pub const ALL_IDS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e7", "e8", "e9", "e10", "e12", "e13", "e14", "e15",
];

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_id_yields_no_tables() {
        assert!(super::run("e99", true).is_empty());
        assert!(super::run("", true).is_empty());
    }
}
