//! `harness ab BASE_BIN HEAD_BIN`: the perf gate.
//!
//! Two builds of `benchmark/` — the parent commit's and the change's — run
//! as interleaved pairs, alternating which side goes first, over every
//! workload `BENCHMARK.json` declares, for the `run_seconds` it declares.
//! Nothing is compared against a stored number: both sides run seconds
//! apart on one host, in the benchmark's host-normalised units, so the
//! verdict means the same on a laptop, a CI runner and the bench box.
//!
//! Per end-to-end metric × workload: `unresolved` when the parent's own
//! interquartile distance is wider than the metric's bound — the runs
//! cannot tell — unless every run of the change beats every run of the
//! parent; otherwise `worse` when the change's median is worse than the
//! parent's by more than the bound; `ok` when it is not. Any `worse` fails
//! the gate, and a run whose result line does not say `"correct": true`
//! ends it on the spot.

use crate::json::Json;
use crate::table::Table;
use btcfast_crypto::sha256;
use std::path::Path;
use std::process::Command;

/// Every run of both sides gets this seed, so that a side's runs differ
/// only by what the host adds.
const SEED: u64 = 16;

struct Metric {
    name: String,
    higher_is_better: bool,
    /// Allowed worsening, as a fraction of the parent's median.
    bound: f64,
}

/// What the gate takes from `BENCHMARK.json`.
struct Contract {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
    run_seconds: f64,
}

impl Contract {
    /// The contract in this checkout's `BENCHMARK.json`, whatever the
    /// working directory.
    fn load() -> Result<Contract, String> {
        let path = crate::repository_path("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        Contract::parse(&text).ok_or_else(|| {
            let path = path.display();
            format!("{path}: unreadable, or no workloads, bounded end_to_end, run_seconds")
        })
    }

    fn parse(text: &str) -> Option<Contract> {
        let doc = Json::parse(text).ok()?;
        let name = |item: &Json| Some(item.get("name")?.as_str()?.to_string());
        let metric = |item: &Json| {
            Some(Metric {
                name: name(item)?,
                higher_is_better: match item.get("better")?.as_str()? {
                    "higher" => true,
                    "lower" => false,
                    _ => return None,
                },
                bound: item.get("bound")?.as_f64().filter(|b| *b > 0.0)?,
            })
        };
        let workloads = doc.get("workloads")?.items()?.iter().map(name);
        let metrics = doc.get("end_to_end")?.items()?.iter().map(metric);
        let contract = Contract {
            workloads: workloads.collect::<Option<_>>()?,
            metrics: metrics.collect::<Option<_>>()?,
            run_seconds: doc.get("run_seconds")?.as_f64().filter(|s| *s > 0.0)?,
        };
        (!contract.workloads.is_empty() && !contract.metrics.is_empty()).then_some(contract)
    }
}

/// One run's reading of every contract metric, in contract order: `None`
/// unless `line` is JSON that says `"correct": true` and carries them all.
fn parse_run(line: &str, metrics: &[Metric]) -> Option<Vec<f64>> {
    let doc = Json::parse(line).ok()?;
    let value = |m: &Metric| doc.get("metrics")?.get(&m.name)?.get("value")?.as_f64();
    if doc.get("correct")?.as_bool()? {
        metrics.iter().map(value).collect()
    } else {
        None
    }
}

/// The runs of one workload: `[base, head]`.
type Sides = [Vec<Vec<f64>>; 2];

/// One metric × workload.
struct Cell {
    workload: String,
    metric: String,
    /// q1, median and q3 of the parent's runs.
    parent: [f64; 3],
    /// Median of the change's runs.
    change: f64,
    /// `(change − parent) ÷ parent`, of the medians.
    delta: f64,
    bound: f64,
    /// `ok`, `worse` or `unresolved`.
    verdict: &'static str,
}

fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75]
        .map(|q| btcfast_obs::stats::quantile_sorted_f64(&sorted, q).expect("a side has runs"))
}

fn judge(workload: &str, metric: &Metric, parent: &[f64], change: &[f64]) -> Cell {
    let [q1, median, q3] = quartiles(parent);
    let change_median = quartiles(change)[1];
    let scale = median.abs().max(f64::MIN_POSITIVE);
    let delta = (change_median - median) / scale;
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let every_change_run_wins = || {
        let beats = |c: &f64, p: &f64| sign * c < sign * p;
        change.iter().all(|c| parent.iter().all(|p| beats(c, p)))
    };
    let verdict = if (q3 - q1) / scale > metric.bound {
        if every_change_run_wins() {
            "ok"
        } else {
            "unresolved"
        }
    } else if sign * delta > metric.bound {
        "worse"
    } else {
        "ok"
    };
    Cell {
        workload: workload.to_string(),
        metric: metric.name.clone(),
        parent: [q1, median, q3],
        change: change_median,
        delta,
        bound: metric.bound,
        verdict,
    }
}

/// Applies the rule; `runs[i]` belongs to `contract.workloads[i]`.
fn decide(contract: &Contract, runs: &[Sides]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (workload, [base, head]) in contract.workloads.iter().zip(runs) {
        for (m, metric) in contract.metrics.iter().enumerate() {
            let column = |side: &[Vec<f64>]| side.iter().map(|run| run[m]).collect::<Vec<_>>();
            cells.push(judge(workload, metric, &column(base), &column(head)));
        }
    }
    cells
}

/// One line per `worse` cell; empty when the gate passes.
fn failures(cells: &[Cell]) -> Vec<String> {
    let worse = cells.iter().filter(|cell| cell.verdict == "worse");
    let line = |c: &Cell| {
        let (delta, bound) = (c.delta * 100.0, c.bound * 100.0);
        let (metric, workload) = (&c.metric, &c.workload);
        format!("worse: {metric} on {workload} ({delta:+.1} %, bound {bound:.1} %)")
    };
    worse.map(line).collect()
}

fn table(cells: &[Cell], pairs: usize) -> Table {
    // Four significant digits: the metrics span 0.05 s to 6 000 mcal/op.
    let sig4 = |v: f64| {
        let decimals = (3 - v.abs().max(1e-3).log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    };
    let title = format!(
        "A/B against the parent: {pairs} interleaved pairs per workload, SHA-256 on {}, \
         the miner's grind {}",
        sha256::backend(),
        sha256::lanes_backend()
    );
    let columns =
        "workload|metric|parent q1|parent median|parent q3|change median|delta|bound|verdict";
    let mut table = Table::new(&title, &columns.split('|').collect::<Vec<_>>());
    for cell in cells {
        let mut row = vec![cell.workload.clone(), cell.metric.clone()];
        row.extend(cell.parent.map(sig4));
        row.push(sig4(cell.change));
        row.push(format!("{:+.2} %", cell.delta * 100.0));
        row.push(format!("{:.1} %", cell.bound * 100.0));
        row.push(cell.verdict.to_string());
        table.push(row);
    }
    table
}

fn run_once(bin: &Path, workload: &str, contract: &Contract) -> Result<Vec<f64>, String> {
    let (seed, seconds) = (SEED.to_string(), contract.run_seconds.to_string());
    let output = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed])
        .args(["--seconds", &seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().rev().find(|line| !line.trim().is_empty());
    last.and_then(|line| parse_run(line, &contract.metrics))
        .ok_or(format!(
            "{} on {workload} ({}): the last line is not a result that says \
             \"correct\": true and carries every end-to-end metric",
            bin.display(),
            output.status
        ))
}

/// The commit a binary was built from, asked of the checkout its directory
/// lies in: `abc1234`, with `+dirty` when tracked files differ from it.
fn built_from(bin: &Path) -> Json {
    let describe = || {
        let output = Command::new("git")
            .arg("-C")
            .arg(bin.canonicalize().ok()?.parent()?)
            .args(["describe", "--always", "--exclude=*", "--dirty=+dirty"])
            .output()
            .ok()?;
        let commit = String::from_utf8_lossy(&output.stdout).trim().to_string();
        output.status.success().then_some(Json::Str(commit))
    };
    describe().unwrap_or(Json::Null)
}

/// One `bench/trajectory.jsonl` record: where both sides came from, how
/// they ran, and `"workload.metric": [parent, change]` medians.
fn record_line(cells: &[Cell], base: &Path, head: &Path, pairs: usize) -> String {
    let medians = cells.iter().map(|cell| {
        let key = format!("{}.{}", cell.workload, cell.metric);
        let pair = vec![Json::Num(cell.parent[1]), Json::Num(cell.change)];
        (key, Json::Arr(pair))
    });
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj(vec![
        ("commit", built_from(head)),
        ("base", built_from(base)),
        ("pairs", Json::Num(pairs as f64)),
        ("seed", Json::Num(SEED as f64)),
        ("host_threads", Json::Num(threads as f64)),
        ("host_sha256", Json::Str(sha256::backend().to_string())),
        ("host_grind", Json::Str(sha256::lanes_backend().to_string())),
        ("medians", Json::Obj(medians.collect())),
    ])
    .render()
}

/// What one `harness ab` invocation found.
pub struct Outcome {
    /// One row per workload × end-to-end metric.
    pub table: Table,
    /// One line per `worse` cell; empty when the gate passes.
    pub failures: Vec<String>,
    /// The run as one `bench/trajectory.jsonl` line.
    pub record: String,
}

/// Reads the checkout's `BENCHMARK.json`, runs `pairs` interleaved pairs
/// of the two binaries on every workload — the base first on even pairs,
/// the head first on odd ones — and judges them.
///
/// # Errors
///
/// When the contract cannot be read, a binary cannot be started, or a run
/// does not end in a correct result line.
pub fn run(base: &Path, head: &Path, pairs: usize) -> Result<Outcome, String> {
    let contract = Contract::load()?;
    let mut runs = Vec::new();
    for workload in &contract.workloads {
        let mut sides: Sides = Default::default();
        for pair in 0..pairs {
            eprintln!("{workload}: pair {} of {pairs}", pair + 1);
            for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
                sides[side].push(run_once([base, head][side], workload, &contract)?);
            }
        }
        runs.push(sides);
    }
    let cells = decide(&contract, &runs);
    Ok(Outcome {
        table: table(&cells, pairs),
        failures: failures(&cells),
        record: record_line(&cells, base, head, pairs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{"run_seconds": 10, "workloads": [{"name": "till"}, {"name": "dispute"}],
        "end_to_end": [{"name": "op_cost_mcal", "better": "lower", "bound": 0.25},
                       {"name": "ok_share", "better": "higher", "bound": 0.002}]}"#;
    const STEADY: [f64; 5] = [10.0, 10.1, 10.2, 10.3, 10.4];

    /// Five runs per side. On `till` each side costs as given, the base's
    /// `ok_share` is 1.0 and the head's as given; `dispute` has twin sides.
    fn runs(base_cost: [f64; 5], head_cost: [f64; 5], head_share: f64) -> Vec<Sides> {
        let side = |cost: [f64; 5], share: f64| cost.map(|cost| vec![cost, share]).to_vec();
        let till = [side(base_cost, 1.0), side(head_cost, head_share)];
        vec![till, [side(STEADY, 1.0), side(STEADY, 1.0)]]
    }

    /// The four verdicts (`till` first) and the failures.
    fn gate(runs: &[Sides]) -> (Vec<&'static str>, Vec<String>) {
        let cells = decide(&Contract::parse(CONTRACT).unwrap(), runs);
        (cells.iter().map(|c| c.verdict).collect(), failures(&cells))
    }

    #[test]
    fn identical_sides_are_ok_everywhere() {
        assert_eq!(gate(&runs(STEADY, STEADY, 1.0)), (vec!["ok"; 4], vec![]));
    }

    #[test]
    fn one_worse_cell_fails_the_gate_and_is_the_only_one_named() {
        let slow = runs(STEADY, STEADY.map(|c| c * 1.3), 1.0);
        let named = "worse: op_cost_mcal on till (+30.0 %, bound 25.0 %)";
        let verdicts = vec!["worse", "ok", "ok", "ok"];
        assert_eq!(gate(&slow), (verdicts, vec![named.to_string()]));
        let cells = decide(&Contract::parse(CONTRACT).unwrap(), &slow);
        let row = "| op_cost_mcal | 10.10 | 10.20 | 10.30 | 13.26 | +30.00 % | 25.0 % | worse |";
        assert!(table(&cells, 5).render_markdown().contains(row));
        // +20 % is inside the bound, and an improvement is never worse.
        for factor in [1.2, 0.5] {
            let moved = runs(STEADY, STEADY.map(|c| c * factor), 1.0);
            assert_eq!(gate(&moved), (vec!["ok"; 4], vec![]));
        }
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved_not_a_failure() {
        let noisy = [10.0, 11.0, 13.0, 15.0, 16.0]; // IQR 4 of median 13: 31 %
        let (verdicts, failures) = gate(&runs(noisy, noisy.map(|c| c * 1.5), 1.0));
        assert_eq!((verdicts[0], failures.len()), ("unresolved", 0));
        // ... unless every run of the change beats every run of the parent;
        // level with the parent's best run is not beating it.
        assert_eq!(
            gate(&runs(noisy, [5.0, 6.0, 7.0, 8.0, 9.0], 1.0)).0[0],
            "ok"
        );
        let level = runs(noisy, [5.0, 6.0, 7.0, 8.0, 10.0], 1.0);
        assert_eq!(gate(&level).0[0], "unresolved");
    }

    #[test]
    fn a_higher_is_better_metric_fails_below_its_bound() {
        let named = "worse: ok_share on till (-0.3 %, bound 0.2 %)";
        assert_eq!(gate(&runs(STEADY, STEADY, 0.997)).1, [named]);
        assert_eq!(gate(&runs(STEADY, STEADY, 0.9985)).1, [""; 0], "-0.15 %");
    }

    #[test]
    fn a_run_that_does_not_say_correct_true_is_no_result() {
        let metrics = Contract::parse(CONTRACT).unwrap().metrics;
        let parse = |correct: &str| {
            let values = r#"{"op_cost_mcal": {"value": 10.2}, "ok_share": {"value": 1}}"#;
            let line = format!(r#"{{{correct}"attempted": 8, "failed": 1, "metrics": {values}}}"#);
            parse_run(&line, &metrics)
        };
        assert_eq!(parse(r#""correct": true, "#), Some(vec![10.2, 1.0]));
        assert_eq!(parse(r#""correct": false, "#), None);
        assert_eq!(parse(""), None, "not saying so is not correct either");
        assert_eq!(
            parse_run(r#"{"correct": true, "metrics": {}}"#, &metrics),
            None
        );
        assert_eq!(parse_run("Finished in 10 s", &metrics), None);
    }

    /// The gate reads the file the benchmark's own driver reads, through
    /// the loader `run` uses; if the contract's shape drifts, this is where
    /// it shows.
    #[test]
    fn the_repository_contract_has_six_workloads_and_four_bounded_metrics() {
        // An absolute path: the loader does not depend on the working
        // directory.
        let path = crate::repository_path("BENCHMARK.json");
        assert!(path.is_absolute(), "{}", path.display());
        let contract = Contract::load().unwrap();
        assert_eq!((contract.workloads.len(), contract.run_seconds), (6, 10.0));
        let bounded = |m: &Metric| (m.name.clone(), m.higher_is_better, m.bound);
        let metrics: Vec<_> = contract.metrics.iter().map(bounded).collect();
        let lower = [
            ("setup_s", 0.25),
            ("op_cost_mcal", 0.25),
            ("peak_rss_mb", 0.1),
        ];
        assert_eq!(
            metrics[..3],
            lower.map(|(name, bound)| (name.to_string(), false, bound))
        );
        assert_eq!(metrics[3..], [("ok_share".to_string(), true, 0.002)]);
        let text = std::fs::read_to_string(path).unwrap();
        assert!(Contract::parse(&text.replace("\"bound\"", "\"limit\"")).is_none());
    }

    #[test]
    fn a_trajectory_record_is_one_json_line_with_both_medians_per_cell() {
        let contract = Contract::load().unwrap();
        let side = vec![vec![10.2; 4]; 5];
        let cells = decide(&contract, &vec![[side.clone(), side]; 6]);
        let nowhere = Path::new("/nonexistent/bin");
        let fresh = record_line(&cells, nowhere, nowhere, 5);
        assert!(fresh.starts_with(r#"{"commit": null, "base": null, "pairs": 5, "#));
        assert_eq!(fresh.lines().count(), 1);
        let record = Json::parse(&fresh).unwrap();
        let host_sha256 = Json::Str(sha256::backend().to_string());
        assert_eq!(record.get("host_sha256"), Some(&host_sha256));
        let host_grind = Json::Str(sha256::lanes_backend().to_string());
        assert_eq!(record.get("host_grind"), Some(&host_grind));
        for key in cells.iter().map(|c| format!("{}.{}", c.workload, c.metric)) {
            let medians = record.get("medians").and_then(|m| m.get(&key)?.items());
            assert_eq!(
                medians,
                Some(&[Json::Num(10.2), Json::Num(10.2)][..]),
                "{key}"
            );
        }
    }
}
