//! The evaluation harness CLI.
//!
//! ```text
//! harness                      # run every experiment (full trial counts)
//! harness e3                   # run one experiment
//! harness e1 e5 e6 e10 quick   # several experiments, reduced trials (CI)
//! harness bench --quick        # micro-benchmarks -> BENCH_payjudger.json
//! harness gate                 # compare BENCH json against the baseline
//! harness trace                # chaos run -> JSONL trace + Prometheus dump
//! harness fuzz --seed 7 --iters 2000   # corpus replay + fresh fuzzing
//! ```
//!
//! Experiment runs exit 2 on an unknown id and 1 if any experiment emits
//! an empty table (an empty table means the experiment silently produced
//! no data — CI must treat that as a failure, not a pass). Malformed
//! flags exit 2 with a one-line diagnostic plus the usage text — never a
//! panic.
//!
//! When `$GITHUB_STEP_SUMMARY` is set (GitHub Actions), experiment tables
//! and the gate verdict are also appended there as markdown.

use btcfast_bench::experiments;
use btcfast_bench::perf::{self, gate, json::Json};
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") => {
            usage();
            Ok(ExitCode::SUCCESS)
        }
        Some("bench") => run_bench(&args[1..]),
        Some("gate") => run_gate(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("fuzz") => run_fuzz(&args[1..]),
        _ => run_experiments(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    println!("usage: harness [e1..e15|all ...] [quick]");
    println!("       harness bench [--quick] [--out PATH]");
    println!("       harness gate [--baseline PATH] [--current PATH] [--threshold FRAC]");
    println!("       harness trace [--seed N] [--trace PATH] [--metrics PATH]");
    println!(
        "       harness fuzz [--seed N] [--iters N] [--engine codec|diff|invariant|store|crypto|batch] \
         [--corpus DIR] [--out DIR] [--metrics PATH]"
    );
    for id in experiments::ALL_IDS {
        println!("  {id}");
    }
}

/// A malformed command-line argument: which flag, what it should have
/// been, and what was actually passed.
#[derive(Debug, PartialEq, Eq)]
struct CliError {
    flag: &'static str,
    expected: &'static str,
    got: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} expects {}, got {:?}",
            self.flag, self.expected, self.got
        )
    }
}

impl std::error::Error for CliError {}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `flag`'s value (or `default` when absent) as a `T`, turning a
/// parse failure into a typed [`CliError`] instead of a panic.
fn parse_flag<T: FromStr>(
    args: &[String],
    flag: &'static str,
    default: &str,
    expected: &'static str,
) -> Result<T, CliError> {
    let raw = flag_value(args, flag).unwrap_or(default);
    raw.parse().map_err(|_| CliError {
        flag,
        expected,
        got: raw.to_string(),
    })
}

/// Appends markdown to `$GITHUB_STEP_SUMMARY` when the variable is set
/// (i.e. under GitHub Actions). Failures to write the summary are
/// reported but never fail the run — the summary is decoration, the
/// exit code is the contract.
fn append_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| std::io::Write::write_all(&mut file, markdown.as_bytes()));
    if let Err(e) = result {
        eprintln!("warning: could not append step summary to {path}: {e}");
    }
}

/// `harness [ids...] [quick]` — one or more experiments; `all` by default.
fn run_experiments(args: &[String]) -> Result<ExitCode, CliError> {
    let quick = args.iter().any(|a| a == "quick" || a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "quick" && *a != "--quick")
        .collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };

    let mut empty = 0usize;
    let mut summary = String::new();
    for id in ids {
        let tables = experiments::run(id, quick);
        if tables.is_empty() {
            eprintln!("unknown experiment id {id:?}; try --help");
            return Ok(ExitCode::from(2));
        }
        if id == "e15" || id == "all" {
            // The representative span-tree forest the CI lane uploads.
            let jsonl = experiments::e15_critical_path::span_tree_jsonl();
            match std::fs::write("E15_span_tree.jsonl", &jsonl) {
                Ok(()) => println!(
                    "wrote E15_span_tree.jsonl ({} events)",
                    jsonl.lines().count()
                ),
                Err(e) => eprintln!("write E15_span_tree.jsonl: {e}"),
            }
        }
        for table in tables {
            table.print();
            summary.push_str(&table.render_markdown());
            summary.push('\n');
            if table.is_empty() {
                eprintln!("error: experiment {id} emitted an empty table");
                empty += 1;
            }
        }
    }
    append_step_summary(&summary);
    if empty > 0 {
        eprintln!("{empty} empty table(s) — failing");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `harness bench [--quick] [--out PATH]`.
fn run_bench(args: &[String]) -> Result<ExitCode, CliError> {
    let quick = args.iter().any(|a| a == "--quick" || a == "quick");
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or(perf::DEFAULT_OUT));
    match perf::run_and_write(quick, &out) {
        Ok((doc, summaries)) => {
            for s in &summaries {
                println!(
                    "{:<24} {:>12.1} ops/s  p50 {:>12.0} ns  p95 {:>12.0} ns",
                    s.name, s.ops_per_sec, s.p50_ns, s.p95_ns
                );
            }
            if let Some(derived) = doc.get("derived") {
                for (key, value) in derived.entries().unwrap_or(&[]) {
                    // `*_ms` keys are latencies; everything else is a ratio.
                    let unit = if key.ends_with("_ms") { " ms" } else { "x" };
                    println!("{key:<24} {:.2}{unit}", value.as_f64().unwrap_or(0.0));
                }
            }
            println!("wrote {}", out.display());
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("bench failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `harness trace [--seed N] [--trace PATH] [--metrics PATH]` — run one
/// seeded chaos scenario (payment under 20% loss, then a dispute) and
/// export its sim-time span trace as JSONL plus a Prometheus-style dump
/// of every subsystem counter. Same seed → byte-identical trace file.
fn run_trace(args: &[String]) -> Result<ExitCode, CliError> {
    use btcfast::chaos::ChaosSession;
    use btcfast::robustness::ChaosConfig;
    use btcfast::telemetry;
    use btcfast::SessionConfig;
    use btcfast_netsim::faults::FaultPlan;
    use btcfast_netsim::time::SimTime;

    // Default seed chosen so the dispute leg's race is actually lost and
    // the dispute phases land on the exported trace.
    let seed: u64 = parse_flag(args, "--seed", "17", "a u64 seed")?;
    let trace_path = PathBuf::from(flag_value(args, "--trace").unwrap_or("TRACE_btcfast.jsonl"));
    let metrics_path =
        PathBuf::from(flag_value(args, "--metrics").unwrap_or("METRICS_btcfast.prom"));

    let mut plan = FaultPlan::new();
    plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), 0.2);
    let mut config = ChaosConfig::default();
    config.transport.max_attempts = 12;
    config.phase_deadline = SimTime::from_secs(60);
    let mut chaos = ChaosSession::new(SessionConfig::default(), config, plan, seed);

    if let Err(e) = chaos.run_fast_payment_chaos(1_000_000) {
        eprintln!("trace scenario: payment leg failed under chaos: {e}");
        return Ok(ExitCode::FAILURE);
    }
    // Confirm the first sale so the dispute leg's payment does not
    // conflict with it in the mempool.
    if let Err(e) = chaos.session.mine_public_block() {
        eprintln!("trace scenario: confirmation block did not connect: {e}");
        return Ok(ExitCode::FAILURE);
    }
    if let Err(e) = chaos.run_dispute_chaos(1_000_000, 0.3, 24) {
        eprintln!("trace scenario: dispute leg failed under chaos: {e}");
        return Ok(ExitCode::FAILURE);
    }
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

    let registry = btcfast_obs::Registry::new();
    telemetry::publish_chaos(&registry, &chaos);

    let jsonl = btcfast_obs::render_jsonl(&chaos.session.take_trace());
    let prom = registry.render_prometheus();
    let events = jsonl.lines().count();
    let metrics = prom.lines().filter(|l| !l.starts_with('#')).count();
    if let Err(e) = std::fs::write(&trace_path, &jsonl) {
        eprintln!("write {}: {e}", trace_path.display());
        return Ok(ExitCode::FAILURE);
    }
    if let Err(e) = std::fs::write(&metrics_path, &prom) {
        eprintln!("write {}: {e}", metrics_path.display());
        return Ok(ExitCode::FAILURE);
    }
    println!("seed {seed}");
    println!("wrote {} ({events} events)", trace_path.display());
    println!("wrote {} ({metrics} series)", metrics_path.display());
    Ok(ExitCode::SUCCESS)
}

/// `harness fuzz [--seed N] [--iters N] [--engine E] [--corpus DIR]
/// [--out DIR] [--metrics PATH]` — replay the regression corpus, then fuzz
/// fresh cases through the codec/differential/invariant engines. The whole
/// run is a pure function of the seed: same seed, same corpus → byte-
/// identical stdout and metrics dump. Exits 1 when any property fires
/// (minimized reproducers land in the `--out` directory), 2 on bad flags.
fn run_fuzz(args: &[String]) -> Result<ExitCode, CliError> {
    use btcfast_audit::{Engine, FuzzConfig};

    let seed: u64 = parse_flag(args, "--seed", "7", "a u64 seed")?;
    let iters: u64 = parse_flag(args, "--iters", "200", "a u64 iteration count")?;
    let engine = match flag_value(args, "--engine") {
        None => None,
        Some(name) => match Engine::parse(name) {
            Some(engine) => Some(engine),
            None => {
                return Err(CliError {
                    flag: "--engine",
                    expected: "codec, diff, invariant, store, crypto, or batch",
                    got: name.to_string(),
                });
            }
        },
    };
    let corpus_dir = PathBuf::from(flag_value(args, "--corpus").unwrap_or("fuzz/corpus"));
    let failure_dir = PathBuf::from(flag_value(args, "--out").unwrap_or("fuzz/out"));
    let metrics_path = PathBuf::from(flag_value(args, "--metrics").unwrap_or("FUZZ_btcfast.prom"));

    let config = FuzzConfig {
        seed,
        iters,
        engine,
        corpus_dir,
        failure_dir: Some(failure_dir.clone()),
    };
    let registry = btcfast_obs::Registry::new();
    let report = match btcfast_audit::run(&config, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fuzz run failed: {e}");
            return Ok(ExitCode::from(2));
        }
    };

    let prom = registry.render_prometheus();
    if let Err(e) = std::fs::write(&metrics_path, &prom) {
        eprintln!("write {}: {e}", metrics_path.display());
        return Ok(ExitCode::FAILURE);
    }
    println!("seed {seed}");
    println!("corpus replayed: {}", report.corpus_replayed);
    println!("cases run: {}", report.cases_run);
    println!("findings: {}", report.findings.len());
    for finding in &report.findings {
        println!(
            "  {}/{}: {} (input {})",
            finding.engine,
            finding.target,
            finding.message,
            btcfast_audit::corpus::hex_encode(&finding.bytes)
        );
    }
    println!(
        "wrote {} ({} series)",
        metrics_path.display(),
        prom.lines().filter(|l| !l.starts_with('#')).count()
    );
    if report.findings.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "{} finding(s) — minimized reproducers in {}",
            report.findings.len(),
            failure_dir.display()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// `harness gate [--baseline PATH] [--current PATH] [--threshold FRAC]`.
fn run_gate(args: &[String]) -> Result<ExitCode, CliError> {
    let baseline_path = flag_value(args, "--baseline").unwrap_or("bench/baseline.json");
    let current_path = flag_value(args, "--current").unwrap_or(perf::DEFAULT_OUT);
    let threshold: f64 = parse_flag(args, "--threshold", "0.30", "a fraction in (0, 1)")?;
    if !(0.0..1.0).contains(&threshold) || threshold == 0.0 {
        return Err(CliError {
            flag: "--threshold",
            expected: "a fraction in (0, 1)",
            got: format!("{threshold}"),
        });
    }
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let report = load(baseline_path)
        .and_then(|baseline| Ok((baseline, load(current_path)?)))
        .and_then(|(baseline, current)| gate::compare(&baseline, &current, threshold));
    match report {
        Ok(report) => {
            print!("{}", report.render());
            append_step_summary(&report.render_markdown());
            if report.passes() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
        Err(e) => {
            eprintln!("gate failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
