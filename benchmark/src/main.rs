//! The BTCFast benchmark. See `README.md` beside the manifest.
//!
//! ```text
//! btcfast-benchmark --seed S                 every workload, both runs, one report
//! btcfast-benchmark --seed S --aa N          two sets of N such reports, compared
//! btcfast-benchmark --workload W --seed S [--seconds T] [--trace 0|1]
//!                                            one run; last line is one JSON object
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cal;
mod metrics;
mod probes;
mod report;
mod rng;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// Seconds one run measures for unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str =
    "usage: btcfast-benchmark --seed S [--aa N | --workload NAME [--seconds T] [--trace 0|1]]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    seed: Option<u64>,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
    aa: Option<usize>,
    setup_only: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            parsed.setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--seed" => parsed.seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--workload" => parsed.workload = Some(value),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("seconds in (0, 60]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--aa" => {
                let runs: usize = value.parse().map_err(|_| bad("a run count"))?;
                if runs == 0 {
                    return Err(bad("at least one run"));
                }
                parsed.aa = Some(runs);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.seed.is_none() {
        return Err("--seed is required".into());
    }
    if parsed.workload.is_none()
        && (parsed.seconds.is_some() || parsed.trace.is_some() || parsed.setup_only)
    {
        return Err("--seconds and --trace go with --workload".into());
    }
    if parsed.workload.is_some() && parsed.aa.is_some() {
        return Err("--aa runs every workload; drop --workload".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.expect("parse_args requires a seed");
    let Some(name) = args.workload else {
        let ok = match args.aa {
            Some(runs) => report::aa(seed, runs),
            None => report::full(seed),
        };
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };

    let Some(ready) = run::set_up(&name, seed, process_start) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.setup_only {
        println!("{}", ready.setup_s);
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let result = if args.trace == Some(true) {
        run::per_layer(seed, seconds, ready)
    } else {
        run::end_to_end(seed, seconds, ready)
    };
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn seed_is_the_only_required_argument() {
        assert_eq!(parse("--seed 7").unwrap().seed, Some(7));
        assert!(parse("").is_err());
        assert!(parse("--workload till_steady").is_err());
        let run = parse("--workload till_steady --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(run.workload.as_deref(), Some("till_steady"));
        assert_eq!((run.seconds, run.trace), (Some(10.0), Some(true)));
        assert_eq!(parse("--seed 1 --aa 3").unwrap().aa, Some(3));
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for line in [
            "--seed banana",
            "--seed 1 --trace 2",
            "--seed 1 --seconds 0 --workload till_steady",
            "--seed 1 --seconds 5",
            "--seed 1 --aa 0",
            "--seed 1 --aa 2 --workload till_steady",
            "--seed 1 --quick yes",
            "--seed",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
