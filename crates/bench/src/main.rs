//! The evaluation harness CLI.
//!
//! ```text
//! harness                      # run every experiment (full trial counts)
//! harness e3                   # run one experiment
//! harness e1 e5 e10 quick      # several experiments, reduced trials (CI)
//! harness ab BASE_BIN HEAD_BIN # the perf gate: two benchmark/ builds, paired
//! harness overhead             # instrumentation cost against its 5 % budget
//! harness trace                # chaos run -> JSONL trace + Prometheus dump
//! harness bless                # re-pin bench/golden/ after a table was meant to move
//! harness fuzz --seed 7 --iters 2000   # corpus replay + fresh fuzzing
//! ```
//!
//! Experiment runs exit 2 on an unknown id and 1 if any experiment emits
//! an empty table (an empty table means the experiment silently produced
//! no data — CI must treat that as a failure, not a pass). Malformed
//! flags exit 2 with a one-line diagnostic plus the usage text — never a
//! panic. `ab` and `overhead` exit 1 when the gate or the budget fails.
//!
//! When `$GITHUB_STEP_SUMMARY` is set (GitHub Actions), every table printed
//! is also appended there as markdown.

use btcfast_bench::{ab, experiments, golden, overhead, trace};
use std::fmt;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") => {
            usage();
            Ok(ExitCode::SUCCESS)
        }
        Some("ab") => run_ab(&args[1..]),
        Some("overhead") => Ok(run_overhead()),
        Some("trace") => run_trace(&args[1..]),
        Some("bless") => Ok(run_bless()),
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
    println!("       harness ab BASE_BIN HEAD_BIN [--pairs N] [--record PATH]");
    println!("       harness overhead");
    println!("       harness trace [--seed N] [--trace PATH] [--metrics PATH]");
    println!("       harness bless");
    println!(
        "       harness fuzz [--seed N] [--iters N] [--engine codec|diff|invariant|store|crypto|batch] \
         [--corpus DIR] [--out DIR] [--metrics PATH]"
    );
    for id in experiments::ALL_IDS {
        println!("  {id}");
    }
}

/// A malformed command-line argument: which flag, what it should have
/// been, and what was actually passed (`None`: the flag came last, with
/// no value after it).
#[derive(Debug, PartialEq, Eq)]
struct CliError {
    flag: &'static str,
    expected: &'static str,
    got: Option<String>,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} expects {}, got ", self.flag, self.expected)?;
        match &self.got {
            Some(got) => write!(f, "{got:?}"),
            None => f.write_str("nothing"),
        }
    }
}

impl std::error::Error for CliError {}

/// The argument after `flag`: `None` when the flag is absent, a typed
/// [`CliError`] when it is given last, with nothing after it.
fn flag_value<'a>(
    args: &'a [String],
    flag: &'static str,
    expected: &'static str,
) -> Result<Option<&'a str>, CliError> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) => Ok(Some(value)),
        None => Err(CliError {
            flag,
            expected,
            got: None,
        }),
    }
}

/// `flag`'s value as a path, or `default` when the flag is absent.
fn path_flag(args: &[String], flag: &'static str, default: &str) -> Result<PathBuf, CliError> {
    Ok(PathBuf::from(
        flag_value(args, flag, "a path")?.unwrap_or(default),
    ))
}

/// Parses `flag`'s value (or `default` when absent) as a `T`, turning a
/// parse failure into a typed [`CliError`] instead of a panic.
fn parse_flag<T: FromStr>(
    args: &[String],
    flag: &'static str,
    default: &str,
    expected: &'static str,
) -> Result<T, CliError> {
    let raw = flag_value(args, flag, expected)?.unwrap_or(default);
    raw.parse().map_err(|_| CliError {
        flag,
        expected,
        got: Some(raw.to_string()),
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
    if let Err(e) = append_to(&path, markdown) {
        eprintln!("warning: could not append step summary to {path}: {e}");
    }
}

fn append_to(path: &str, text: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    std::io::Write::write_all(&mut file, text.as_bytes())
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

/// `harness trace [--seed N] [--trace PATH] [--metrics PATH]` — run the
/// seeded chaos scenario of [`trace`] and write its two exports. Same seed
/// → byte-identical trace file.
fn run_trace(args: &[String]) -> Result<ExitCode, CliError> {
    let default_seed = trace::DEFAULT_SEED.to_string();
    let seed: u64 = parse_flag(args, "--seed", &default_seed, "a u64 seed")?;
    let trace_path = path_flag(args, "--trace", "TRACE_btcfast.jsonl")?;
    let metrics_path = path_flag(args, "--metrics", "METRICS_btcfast.prom")?;

    let trace::TraceRun { jsonl, prom } = match trace::run(seed) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("trace scenario: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
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

/// `harness bless` — rewrite `bench/golden/` from the code (see [`golden`]).
fn run_bless() -> ExitCode {
    match golden::bless() {
        Ok(files) => {
            println!("wrote {files} files to {}", golden::dir().display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bless {}: {e}", golden::dir().display());
            ExitCode::FAILURE
        }
    }
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
    const ENGINES: &str = "codec, diff, invariant, store, crypto, or batch";
    let engine = match flag_value(args, "--engine", ENGINES)? {
        None => None,
        Some(name) => match Engine::parse(name) {
            Some(engine) => Some(engine),
            None => {
                return Err(CliError {
                    flag: "--engine",
                    expected: ENGINES,
                    got: Some(name.to_string()),
                });
            }
        },
    };
    let corpus_dir = path_flag(args, "--corpus", "fuzz/corpus")?;
    let failure_dir = path_flag(args, "--out", "fuzz/out")?;
    let metrics_path = path_flag(args, "--metrics", "FUZZ_btcfast.prom")?;

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
            btcfast_crypto::hex::encode(&finding.bytes)
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

/// `harness ab BASE_BIN HEAD_BIN [--pairs N] [--record PATH]` — the perf
/// gate (see [`ab`]): runs the two `benchmark/` builds as interleaved pairs
/// over the workloads, metrics, bounds and run length of `./BENCHMARK.json`,
/// prints one row per metric × workload and exits 1 on any `worse`.
/// `--record` appends the run to a trajectory file as one JSON line.
fn run_ab(args: &[String]) -> Result<ExitCode, CliError> {
    let bins = |got: String| CliError {
        flag: "ab",
        expected: "two built benchmark binaries, BASE_BIN HEAD_BIN",
        got: Some(got),
    };
    let paths: Vec<&Path> = args
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(Path::new)
        .collect();
    let &[base, head] = paths.as_slice() else {
        return Err(bins(format!("{} path(s)", paths.len())));
    };
    if let Some(missing) = paths.iter().find(|bin| !bin.is_file()) {
        return Err(bins(missing.display().to_string()));
    }
    let pairs: NonZeroUsize = parse_flag(args, "--pairs", "10", "a pair count of at least 1")?;
    let record = flag_value(args, "--record", "a path")?;

    let outcome = match ab::run(base, head, pairs.get()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ab failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    outcome.table.print();
    append_step_summary(&outcome.table.render_markdown());
    if let Some(path) = record {
        match append_to(path, &outcome.record) {
            Ok(()) => println!("recorded in {path}"),
            Err(e) => {
                eprintln!("append the record to {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    for failure in &outcome.failures {
        eprintln!("{failure}");
    }
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `harness overhead` — the two paired plain/instrumented measurements
/// (see [`overhead`]); exits 1 when either is over the 5 % budget.
fn run_overhead() -> ExitCode {
    let (table, ok) = overhead::run();
    table.print();
    append_step_summary(&table.render_markdown());
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("instrumentation overhead is over budget");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_flag_given_last_without_a_value_is_a_typed_error() {
        let seed = |line: &str| parse_flag::<u64>(&args(line), "--seed", "7", "a u64 seed");
        assert_eq!(seed("--iters 5"), Ok(7), "absent: the default");
        assert_eq!(seed("--iters 5 --seed 9"), Ok(9));
        let dangling = seed("--iters 5 --seed").unwrap_err();
        assert_eq!(dangling.got, None);
        assert_eq!(
            dangling.to_string(),
            "--seed expects a u64 seed, got nothing"
        );
        let banana = "--seed expects a u64 seed, got \"banana\"";
        assert_eq!(seed("--seed banana").unwrap_err().to_string(), banana);
        // Path flags and every subcommand that takes flags refuse it too.
        assert!(path_flag(&args("--seed 1 --out"), "--out", "fuzz/out").is_err());
        assert!(run_fuzz(&args("--iters 5 --seed")).is_err());
        assert!(run_fuzz(&args("--engine")).is_err());
        assert!(run_trace(&args("--metrics")).is_err());
        // The binary paths go in whole: a checkout path may hold a space.
        let this = std::env::current_exe().unwrap().display().to_string();
        let ab = |argv: &[&str]| run_ab(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert!(ab(&[&this, &this, "--record"]).is_err());
        assert!(ab(&[&this, &this, "--pairs", "0"]).is_err());
        assert!(ab(&[&this]).is_err(), "one binary is not a pair");
    }
}
