//! One run of one workload: set-up, calibrated slices, and either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::cal::{CalRound, Calibrator, REFERENCE_ROUND_MS};
use crate::metrics::{RunResult, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile_us, quantile};
use crate::workloads::{self, Counts, SimSamples, SliceOutcome, Workload, WorkloadInfo, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Wall time a run may spend on extra cold set-ups (each in a child
/// process) beyond its own; the median of all of them is reported.
const SETUP_BUDGET_S: f64 = 1.5;
/// Extra set-ups measured at least and at most.
const EXTRA_SETUPS: (usize, usize) = (2, 14);
/// Times every distinct slice is executed at least, however slow the host.
const MIN_ROUNDS: u64 = 3;
/// The calibration round a run's costs are expressed in: this quantile of
/// the rounds it ran. Interference only ever slows a round down, so a low
/// quantile is the host's speed; the minimum itself would hang on one
/// lucky round of the memory kernel.
const CAL_QUANTILE: f64 = 0.1;
/// Share of a traced run's time left to the probes once the slices are
/// done, at least.
const PROBE_SHARE: f64 = 0.3;

/// A ready-to-measure workload and what getting there cost.
pub struct Ready {
    info: &'static WorkloadInfo,
    workload: Box<dyn Workload>,
    cal: Calibrator,
    /// Process start → ready for the first timed slice, in seconds on the
    /// reference host (wall seconds × reference round ÷ measured round).
    pub setup_s: f64,
}

/// Builds fixtures, runs the untimed warm-up slice and builds the
/// calibration buffer. `process_start` is taken first thing in `main`.
pub fn set_up(name: &str, seed: u64, process_start: Instant) -> Option<Ready> {
    let info = WORKLOADS.iter().find(|w| w.name == name)?;
    let mut workload = workloads::build(name, seed)?;
    workload.warm_up();
    let cal = Calibrator::new();
    let round = cal.round();
    // Scaled by the calibration round that ends it, a set-up reads the same
    // whether or not a neighbour was busy while it ran.
    let setup_s = process_start.elapsed().as_secs_f64() * REFERENCE_ROUND_MS / round.total_ms();
    Some(Ready {
        info,
        workload,
        cal,
        setup_s,
    })
}

/// A command that starts this benchmark again, for runs and set-ups that
/// need a process of their own.
pub fn this_program() -> Command {
    Command::new(std::env::current_exe().expect("the benchmark knows its own path"))
}

/// Set-up time as the median over this process's own cold set-up and as
/// many more as fit [`SETUP_BUDGET_S`], each in a fresh child process.
fn median_setup_s(name: &str, seed: u64, own: f64) -> f64 {
    let extra = ((SETUP_BUDGET_S / own) as usize).clamp(EXTRA_SETUPS.0, EXTRA_SETUPS.1);
    let mut samples = vec![own];
    for _ in 0..extra {
        let output = this_program()
            .args([
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--setup-only",
            ])
            .output()
            .expect("the benchmark can start itself");
        let text = String::from_utf8_lossy(&output.stdout);
        match text.trim().parse::<f64>() {
            Ok(seconds) if output.status.success() => samples.push(seconds),
            _ => eprintln!(
                "set-up child failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ),
        }
    }
    median(&samples)
}

/// One execution of one slice.
struct Timed {
    index: u64,
    outcome: SliceOutcome,
    wall_s: f64,
}

/// Executes slice `index` once, timed, with a calibration round after it.
fn execute(ready: &mut Ready, index: u64, rec: &mut Recorder, cals: &mut Vec<CalRound>) -> Timed {
    ready.workload.prepare(index);
    let started = Instant::now();
    let outcome = ready.workload.run_slice(index, rec);
    let wall_s = started.elapsed().as_secs_f64();
    cals.push(ready.cal.round());
    Timed {
        index,
        outcome,
        wall_s,
    }
}

/// The calibration round the run's costs are expressed in, milliseconds.
fn cal_reference_ms(cals: &[CalRound]) -> f64 {
    let totals: Vec<f64> = cals.iter().map(CalRound::total_ms).collect();
    quantile(&totals, CAL_QUANTILE).expect("a run calibrates at least once")
}

/// `1000 × wall / (ops × calibration round)`: milli-calibration-rounds per op.
fn mcal(wall_s: f64, ops: u64, cal_ms: f64) -> f64 {
    1e3 * (wall_s * 1e3) / (ops.max(1) as f64 * cal_ms)
}

/// Cost of the distinct slices' work at the best time each was seen to
/// take: noise on a shared host only ever adds time, so the fastest
/// execution of a slice is the closest to what the code costs, and summing
/// over the distinct slices keeps every seed's share of the work.
fn best_cost_mcal(executions: &[Timed], cal_ms: f64) -> f64 {
    let mut best: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for e in executions {
        let slot = best
            .entry(e.index)
            .or_insert((f64::INFINITY, e.outcome.ops));
        slot.0 = slot.0.min(e.wall_s);
    }
    let wall_s: f64 = best.values().map(|(wall, _)| wall).sum();
    let ops: u64 = best.values().map(|(_, ops)| ops).sum();
    mcal(wall_s, ops, cal_ms)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The untraced run: the workload's distinct slices, round after round for
/// `seconds`, then the end-to-end metrics.
pub fn end_to_end(seed: u64, seconds: f64, mut ready: Ready) -> RunResult {
    let setup_s = median_setup_s(ready.info.name, seed, ready.setup_s);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cals = vec![ready.cal.round()];
    let mut executions = Vec::new();
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for index in 0..ready.info.distinct_slices {
            executions.push(execute(
                &mut ready,
                index,
                &mut Recorder::disabled(),
                &mut cals,
            ));
        }
        round += 1;
    }
    let attempted: u64 = executions.iter().map(|e| e.outcome.ops).sum();
    let failed: u64 = executions.iter().map(|e| e.outcome.failed).sum();
    let values = [
        ("setup_s", setup_s),
        (
            "op_cost_mcal",
            best_cost_mcal(&executions, cal_reference_ms(&cals)),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64),
    ];
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: RunResult::metrics_from(&END_TO_END, &values),
    }
}

/// Where trace files go: `out/` beside the benchmark's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

/// The traced run: each of the workload's distinct slices untraced and
/// then again with spans recorded, then the probes; writes the spans to
/// `out/trace_<workload>.jsonl` and returns the per-layer metrics.
pub fn per_layer(seed: u64, seconds: f64, mut ready: Ready) -> RunResult {
    let run_start = Instant::now();
    let name = ready.info.name;
    let mut cals = vec![ready.cal.round()];
    let mut rec = Recorder::enabled(Instant::now());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for index in 0..ready.info.distinct_slices {
        untraced.push(execute(
            &mut ready,
            index,
            &mut Recorder::disabled(),
            &mut cals,
        ));
        traced.push(execute(&mut ready, index, &mut rec, &mut cals));
    }

    // Simulated-clock samples come from the untraced pass, counts from the
    // traced one (only it holds the sessions the counts are read from).
    let mut sim = SimSamples::default();
    for execution in &untraced {
        sim.absorb(&execution.outcome.sim);
    }
    let mut traced_counts = Counts::default();
    for execution in &traced {
        traced_counts.absorb(&execution.outcome.counts);
    }
    // The traced pass must not change what the protocol did: its simulated
    // latencies are byte-identical to the untraced pass, slice by slice.
    let sim_mismatches = untraced
        .iter()
        .zip(&traced)
        .filter(|(u, t)| u.outcome.sim != t.outcome.sim)
        .count();
    let mut failed: u64 = untraced
        .iter()
        .chain(&traced)
        .map(|s| s.outcome.failed)
        .sum();
    failed += sim_mismatches as u64;
    let attempted: u64 = untraced.iter().chain(&traced).map(|s| s.outcome.ops).sum();

    let budget = (seconds - run_start.elapsed().as_secs_f64()).max(seconds * PROBE_SHARE);
    let mut probe = probes::run(seed, Duration::from_secs_f64(budget));
    if probe.remove("check.fingerprint_1_vs_n_threads") == Some(0.0) {
        failed += 1;
        eprintln!("CHECK FAILED: engine fingerprint differs between 1 and N pool threads");
    }

    let spans = rec.spans();
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("trace_{name}.jsonl")),
            spans::render_jsonl(spans),
        )
    });
    if let Err(e) = written {
        eprintln!("could not write the trace file: {e}");
    }

    let (by_name, top_level_ns) = spans::totals(spans);
    let span_mean_ms = |span: &str| {
        by_name
            .get(span)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e6)
    };
    let span_self_us = |span: &str| by_name.get(span).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let per_payment = |value: f64| {
        let payments = traced_counts.get("payments");
        if payments == 0.0 {
            0.0
        } else {
            value / payments
        }
    };
    let traced_wall_s: f64 = traced.iter().map(|s| s.wall_s).sum();
    let untraced_wall_s: f64 = untraced.iter().map(|s| s.wall_s).sum();
    let cal_ms = cal_reference_ms(&cals);
    let untraced_costs: Vec<f64> = untraced
        .iter()
        .map(|e| mcal(e.wall_s, e.outcome.ops, cal_ms))
        .collect();
    let us = |q: f64, samples: &[u64]| percentile_us(samples, q).unwrap_or(0) as f64;

    let mut values: Vec<(&'static str, f64)> = vec![
        ("pos_wait_p50_ms", us(0.50, &sim.pos_wait_us) / 1e3),
        ("pos_wait_p99_ms", us(0.99, &sim.pos_wait_us) / 1e3),
        ("pos_wait_samples", sim.pos_wait_us.len() as f64),
        ("checkout_e2e_p50_s", us(0.50, &sim.checkout_us) / 1e6),
        ("checkout_e2e_p99_s", us(0.99, &sim.checkout_us) / 1e6),
        ("checkout_e2e_samples", sim.checkout_us.len() as f64),
        ("dispute_settle_p50_s", us(0.50, &sim.dispute_us) / 1e6),
        ("dispute_settle_samples", sim.dispute_us.len() as f64),
        ("core.session_new_ms", span_mean_ms("core.session_new")),
        (
            "core.payment_batch_us_per_payment",
            per_payment(span_self_us("core.run_fast_payment_batch")),
        ),
        (
            "core.mine_public_block_ms",
            span_mean_ms("core.mine_public_block"),
        ),
        (
            "core.fund_coins_ms",
            span_mean_ms("core.fund_customer_coins"),
        ),
        (
            "core.batch_growth_ratio",
            traced_counts.ratio("batch_last_quarter_ns", "batch_first_quarter_ns"),
        ),
        (
            "core.journal_us_per_payment",
            per_payment(span_self_us("core.journal")),
        ),
        ("core.checkpoint_ms", span_mean_ms("core.checkpoint")),
        (
            "core.chaos_payment_ms",
            span_mean_ms("core.run_fast_payment_chaos"),
        ),
        (
            "core.recoveries_per_session",
            traced_counts.ratio("recoveries", "sessions"),
        ),
        (
            "core.attack_ms",
            span_mean_ms("core.run_double_spend_attack"),
        ),
        ("core.run_load_ms", span_mean_ms("core.run_load")),
        (
            "core.recovery_reopen_ms",
            span_mean_ms("core.recovery_reopen"),
        ),
        ("core.shed_share", traced_counts.ratio("shed", "offered")),
        (
            "core.admission_high_water",
            traced_counts.get("admission_high_water_max"),
        ),
        (
            "btcsim.race_blocks_per_attack",
            traced_counts.ratio("race_blocks", "attacks"),
        ),
        (
            "btcsim.reorg_depth_max",
            traced_counts.get("reorg_depth_max"),
        ),
        (
            "pscsim.gas_per_payment",
            traced_counts.ratio("psc_gas", "payments"),
        ),
        (
            "payjudger.dispute_gas",
            traced_counts.ratio("dispute_gas", "disputes"),
        ),
        (
            "netsim.transmissions_per_message",
            traced_counts.ratio("transmissions", "messages"),
        ),
        (
            "netsim.backoff_wait_s_per_payment",
            traced_counts.ratio("backoff_wait_us", "payments") / 1e6,
        ),
        (
            "netsim.duplicates_dropped_share",
            traced_counts.ratio("duplicates_dropped", "transmissions"),
        ),
        (
            "store.wal_bytes_per_payment",
            traced_counts.ratio("wal_bytes", "payments"),
        ),
        (
            "store.records_replayed_per_recovery",
            traced_counts.ratio("records_replayed", "recoveries_sampled"),
        ),
        (
            "obs.trace_bytes_per_payment",
            traced_counts.ratio("trace_bytes", "payments"),
        ),
        (
            "obs.trace_dropped_events",
            traced_counts.get("trace_dropped"),
        ),
        (
            "host.cal_alu_ms",
            median(&cals.iter().map(|c| c.alu_ms).collect::<Vec<_>>()),
        ),
        (
            "host.cal_mem_ms",
            median(&cals.iter().map(|c| c.mem_ms).collect::<Vec<_>>()),
        ),
        (
            "host.ops_per_s_raw",
            untraced.iter().map(|s| s.outcome.ops).sum::<u64>() as f64 / untraced_wall_s,
        ),
        (
            "host.op_cost_mcal_p25",
            quantile(&untraced_costs, 0.25).unwrap_or(0.0),
        ),
        (
            "host.op_cost_mcal_p75",
            quantile(&untraced_costs, 0.75).unwrap_or(0.0),
        ),
        ("host.threads", ready.workload.threads() as f64),
        ("host.op_cost_mcal_p50", median(&untraced_costs)),
        (
            "host.trace_overhead_share",
            traced_wall_s / untraced_wall_s - 1.0,
        ),
        (
            "host.driver_coverage",
            top_level_ns as f64 / 1e9 / traced_wall_s,
        ),
        (
            "host.driver_diverged",
            traced_counts.get("driver_diverged").min(1.0),
        ),
        ("host.slices_traced", traced.len() as f64),
        ("host.spans_recorded", spans.len() as f64),
        ("host.sim_mismatch_slices", sim_mismatches as f64),
    ];
    values.extend(probe);

    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: RunResult::metrics_from(&PER_LAYER, &values),
    }
}
