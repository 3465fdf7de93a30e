//! The stand-alone command: every workload, each run in its own child
//! process, one report; and the A/A mode that checks the benchmark against
//! its own bounds.

use crate::metrics::{parse_result, MetricDef, ParsedResult, END_TO_END, EXACT, PER_LAYER};
use crate::run::this_program;
use crate::stats::median;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Stdio;

/// Runs one workload once in a child process; `None` when the child did
/// not print a result. A child that exits non-zero is not `correct`.
fn child(workload: &str, seed: u64, trace: bool) -> Option<ParsedResult> {
    let output = this_program()
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut result = parse_result(stdout.lines().last()?)?;
    result.correct &= output.status.success();
    Some(result)
}

fn print_table(title: &str, run: &ParsedResult, table: &[MetricDef]) {
    println!(
        "  {title}: {} ops attempted, {} failed",
        run.attempted, run.failed
    );
    for def in table {
        let value = run.value(def.name);
        let bound = if def.bound > 0.0 {
            format!(
                "  {} is better, may worsen by {}%",
                def.better,
                def.bound * 100.0
            )
        } else {
            String::new()
        };
        println!(
            "    {:<40} {:>16.6} {:<8}{bound}",
            def.name, value, def.unit
        );
    }
}

/// Both runs of every workload at `seed`, or `None` for a run that printed
/// no result.
fn all_runs(seed: u64) -> Vec<(&'static str, Option<ParsedResult>, Option<ParsedResult>)> {
    WORKLOADS
        .iter()
        .map(|w| {
            (
                w.name,
                child(w.name, seed, false),
                child(w.name, seed, true),
            )
        })
        .collect()
}

/// Runs and prints everything once; true when every check held.
pub fn full(seed: u64) -> bool {
    let mut ok = true;
    for info in &WORKLOADS {
        println!("== {} (op: {}) ==", info.name, info.op);
        println!("  {}", info.why);
        for (trace, title, table) in [
            (false, "end-to-end, untraced run", &END_TO_END[..]),
            (true, "per-layer, traced run", &PER_LAYER[..]),
        ] {
            match child(info.name, seed, trace) {
                Some(run) => {
                    print_table(title, &run, table);
                    ok &= run.correct;
                }
                None => {
                    println!("  {title}: NO RESULT");
                    ok = false;
                }
            }
        }
    }
    println!("checks: {}", if ok { "all green" } else { "FAILED" });
    ok
}

/// Two sets of `runs` full runs of the same build, interleaved. Prints, per
/// end-to-end metric and workload, both set medians, their difference and
/// the bound; true when every difference is within its bound, every
/// simulated-clock metric and exact count agrees run for run, and every
/// check held.
pub fn aa(seed: u64, runs: usize) -> bool {
    let mut ok = true;
    // (workload, metric) → values of set A and set B, one per run.
    let mut sets: BTreeMap<(&'static str, &'static str), [Vec<f64>; 2]> = BTreeMap::new();
    for i in 0..runs {
        let seed = seed.wrapping_add(i as u64);
        let pair = [all_runs(seed), all_runs(seed)];
        for (side, set) in pair.iter().enumerate() {
            for (workload, e2e, layers) in set {
                for (run, table) in [(e2e, &END_TO_END[..]), (layers, &PER_LAYER[..])] {
                    let Some(run) = run else {
                        println!("{workload}: a run of set {side} printed no result");
                        ok = false;
                        continue;
                    };
                    ok &= run.correct;
                    for def in table {
                        sets.entry((workload, def.name)).or_default()[side]
                            .push(run.value(def.name));
                    }
                }
            }
        }
    }

    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "bound"
    );
    for info in &WORKLOADS {
        for def in &END_TO_END {
            let [a, b] = &sets[&(info.name, def.name)];
            let (a, b) = (median(a), median(b));
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let within = diff <= def.bound;
            ok &= within;
            println!(
                "{:<22} {:<16} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.1}%{}",
                info.name,
                def.name,
                diff * 100.0,
                def.bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
        for name in EXACT {
            let [a, b] = &sets[&(info.name, name)];
            if a != b {
                ok = false;
                println!("{:<22} {name}: sets differ, {a:?} vs {b:?}", info.name);
            }
        }
    }
    println!(
        "simulated-clock metrics and exact counts: {}",
        if ok { "agree run for run" } else { "see above" }
    );
    println!("A/A: {}", if ok { "within bounds" } else { "FAILED" });
    ok
}
