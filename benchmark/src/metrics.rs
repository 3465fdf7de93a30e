//! The metric tables: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — regression bound. The same
//! tables are written down in `BENCHMARK.json` (a unit test compares them)
//! and explained in the README.

/// One reported metric.
pub struct MetricDef {
    /// The name, as printed.
    pub name: &'static str,
    /// The unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may get worse by.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, "lower", 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, "higher", 0.0)
}

/// End-to-end metrics: what a user of the system sees, reported by the
/// untraced run on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_cost_mcal", "mcal/op", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("ok_share", "ratio", "higher", 0.002),
];

/// Per-layer metrics, reported by the traced run on every workload. A
/// metric reads zero on a workload that never enters the code it measures.
pub const PER_LAYER: [MetricDef; 77] = [
    // Simulated clock: pure functions of (seed, code).
    lower("pos_wait_p50_ms", "ms"),
    lower("pos_wait_p99_ms", "ms"),
    higher("pos_wait_samples", "count"),
    lower("checkout_e2e_p50_s", "s"),
    lower("checkout_e2e_p99_s", "s"),
    higher("checkout_e2e_samples", "count"),
    lower("dispute_settle_p50_s", "s"),
    higher("dispute_settle_samples", "count"),
    // core
    lower("core.session_new_ms", "ms"),
    lower("core.payment_batch_us_per_payment", "us"),
    lower("core.mine_public_block_ms", "ms"),
    lower("core.fund_coins_ms", "ms"),
    lower("core.batch_growth_ratio", "ratio"),
    lower("core.journal_us_per_payment", "us"),
    lower("core.checkpoint_ms", "ms"),
    lower("core.chaos_payment_ms", "ms"),
    lower("core.recoveries_per_session", "count"),
    lower("core.attack_ms", "ms"),
    lower("core.run_load_ms", "ms"),
    lower("core.recovery_reopen_ms", "ms"),
    lower("core.evaluate_offer_us", "us"),
    higher("core.pool_speedup", "ratio"),
    lower("core.shed_share", "ratio"),
    lower("core.admission_high_water", "count"),
    // crypto
    lower("crypto.sign_us", "us"),
    lower("crypto.batch_verify_us_per_sig_b1", "us"),
    lower("crypto.batch_verify_us_per_sig_b16", "us"),
    lower("crypto.sha256d_80b_ns", "ns"),
    lower("crypto.merkle_verify_d8_us", "us"),
    // btcsim
    lower("btcsim.mine_block_us_empty", "us"),
    lower("btcsim.mine_block_us_8tx", "us"),
    lower("btcsim.submit_block_us", "us"),
    lower("btcsim.mempool_insert_us", "us"),
    lower("btcsim.build_payment_us", "us"),
    lower("btcsim.spendable_scan_us_h8", "us"),
    lower("btcsim.spendable_scan_us_h2k", "us"),
    lower("btcsim.race_blocks_per_attack", "count"),
    lower("btcsim.reorg_depth_max", "count"),
    // pscsim
    lower("pscsim.state_commitment_us_s0", "us"),
    lower("pscsim.state_commitment_us_s2k", "us"),
    lower("pscsim.submit_tx_us", "us"),
    lower("pscsim.produce_block_us_8tx", "us"),
    lower("pscsim.view_call_us", "us"),
    lower("pscsim.gas_per_payment", "gas"),
    // payjudger
    lower("payjudger.dispute_gas", "gas"),
    lower("payjudger.verify_segment_6_cold_us", "us"),
    lower("payjudger.verify_segment_6_warm_us", "us"),
    lower("payjudger.verify_segment_256_us", "us"),
    lower("payjudger.preflight_us", "us"),
    // netsim
    lower("netsim.transmissions_per_message", "ratio"),
    lower("netsim.backoff_wait_s_per_payment", "s"),
    lower("netsim.duplicates_dropped_share", "ratio"),
    lower("netsim.roundtrip_us", "us"),
    // store
    lower("store.wal_append_us", "us"),
    lower("store.wal_bytes_per_payment", "B"),
    lower("store.scan_us_per_1k_records", "us"),
    lower("store.reopen_ms_full_100k", "ms"),
    lower("store.reopen_ms_snapshot_100k", "ms"),
    lower("store.snapshot_save_ms_100k", "ms"),
    lower("store.records_replayed_per_recovery", "count"),
    // obs
    lower("obs.trace_bytes_per_payment", "B"),
    lower("obs.trace_dropped_events", "count"),
    lower("obs.render_jsonl_us_per_1k_events", "us"),
    lower("obs.tracing_cost_share", "ratio"),
    // host: context for reading the rest
    lower("host.cal_alu_ms", "ms"),
    lower("host.cal_mem_ms", "ms"),
    higher("host.ops_per_s_raw", "1/s"),
    lower("host.op_cost_mcal_p25", "mcal/op"),
    lower("host.op_cost_mcal_p50", "mcal/op"),
    lower("host.op_cost_mcal_p75", "mcal/op"),
    higher("host.threads", "count"),
    lower("host.trace_overhead_share", "ratio"),
    higher("host.driver_coverage", "ratio"),
    lower("host.driver_diverged", "count"),
    higher("host.slices_traced", "count"),
    higher("host.spans_recorded", "count"),
    lower("host.sim_mismatch_slices", "count"),
];

/// Per-layer metrics that are pure functions of `(seed, code)`: the
/// simulated-clock percentiles and the counts read from report structs.
/// Two runs of one build at one seed must agree on them exactly.
pub const EXACT: [&str; 22] = [
    "pos_wait_p50_ms",
    "pos_wait_p99_ms",
    "pos_wait_samples",
    "checkout_e2e_p50_s",
    "checkout_e2e_p99_s",
    "checkout_e2e_samples",
    "dispute_settle_p50_s",
    "dispute_settle_samples",
    "core.recoveries_per_session",
    "core.shed_share",
    "core.admission_high_water",
    "btcsim.race_blocks_per_attack",
    "btcsim.reorg_depth_max",
    "pscsim.gas_per_payment",
    "payjudger.dispute_gas",
    "netsim.transmissions_per_message",
    "netsim.backoff_wait_s_per_payment",
    "netsim.duplicates_dropped_share",
    "store.wal_bytes_per_payment",
    "store.records_replayed_per_recovery",
    "obs.trace_bytes_per_payment",
    "obs.trace_dropped_events",
];

/// A metric value with its unit, ready to print.
#[derive(Clone, Debug, PartialEq)]
pub struct Reported {
    /// The metric's name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The metric's unit.
    pub unit: &'static str,
}

/// One run's result: the line the benchmark prints last.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every correctness check held and no op failed.
    pub correct: bool,
    /// Ops attempted in the measured slices.
    pub attempted: u64,
    /// Ops that failed plus correctness checks that did not hold.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Reported>,
}

impl RunResult {
    /// Pairs `values` (by name) with the units of `table`, in table order.
    ///
    /// # Panics
    ///
    /// Panics when a metric of the table has no value: the output would
    /// silently miss a name the contract promises.
    pub fn metrics_from(table: &[MetricDef], values: &[(&'static str, f64)]) -> Vec<Reported> {
        table
            .iter()
            .map(|def| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
                    .1;
                Reported {
                    name: def.name,
                    value: if value.is_finite() { value } else { 0.0 },
                    unit: def.unit,
                }
            })
            .collect()
    }

    /// The result as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back by the parent process.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedResult {
    /// The child's `correct`.
    pub correct: bool,
    /// The child's `attempted`.
    pub attempted: u64,
    /// The child's `failed`.
    pub failed: u64,
    /// `(name, value, unit)` per metric, in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ParsedResult {
    /// The value of metric `name`, NaN when the child did not print it.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, value, _)| *value)
    }
}

/// Reads back a line written by [`RunResult::to_json`]. Not a general JSON
/// parser — the parent process only ever reads what its own children
/// printed.
pub fn parse_result(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let entry = entry.trim_start_matches('"');
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let (value, rest) = rest.split_once(", \"unit\": \"")?;
        let unit = &rest[..rest.find('"')?];
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Every `"name": "…"` value in `text`, in order.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let section = |from: &str, to: &str| {
            let start = text.find(from).unwrap();
            let end = text.find(to).unwrap();
            names_in(&text[start..end])
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(section("\"workloads\"", "\"end_to_end\""), workloads);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(section("\"end_to_end\"", "\"per_layer\""), e2e);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(section("\"per_layer\"", "]\n}"), per_layer);
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let mut entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            if def.bound > 0.0 {
                entry.push_str(&format!(", \"bound\": {}", def.bound));
            }
            entry.push('}');
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(text.contains(&format!("\"run_seconds\": {},", crate::DEFAULT_SECONDS)));
    }

    #[test]
    fn emitted_json_has_exactly_the_table_names_each_with_a_unit() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let values: Vec<(&'static str, f64)> = table
                .iter()
                .enumerate()
                .map(|(i, def)| (def.name, i as f64 + 0.5))
                .collect();
            let result = RunResult {
                correct: true,
                attempted: 7,
                failed: 0,
                metrics: RunResult::metrics_from(table, &values),
            };
            let parsed = parse_result(&result.to_json()).unwrap();
            assert!(parsed.correct);
            assert_eq!((parsed.attempted, parsed.failed), (7, 0));
            assert_eq!(parsed.metrics.len(), table.len());
            assert_eq!(parsed.value(table[1].name), 1.5);
            for ((name, value, unit), (i, def)) in
                parsed.metrics.iter().zip(table.iter().enumerate())
            {
                assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
                assert_eq!(*value, i as f64 + 0.5);
                assert!(!unit.is_empty());
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.better == "lower" || def.better == "higher");
        }
        assert!(END_TO_END
            .iter()
            .all(|def| def.bound > 0.0 && def.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
