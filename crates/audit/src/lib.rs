//! `btcfast-audit`: a dependency-free, seed-deterministic fuzzing and
//! differential-testing harness for the escrow pipeline.
//!
//! Six engines, all driven by the same byte-stream model (the case's
//! bytes are the schedule — see [`source::ByteSource`]):
//!
//! * [`Engine::Codec`] — structure-aware round-trip fuzzers for the
//!   pscsim storage/ABI codec, the payjudger evidence and record wire
//!   formats, and the btcsim block/transaction encodings;
//! * [`Engine::Diff`] — differential executors replaying fuzzed
//!   block/reorg/dispute schedules through the incremental production
//!   paths and a naive from-scratch reference;
//! * [`Engine::Invariant`] — UTXO conservation and monotone finality
//!   checked after every step of a fuzzed mining schedule;
//! * [`Engine::Store`] — durable-store targets: hostile WAL/snapshot
//!   media must scan without panicking, and a journal crashed at every
//!   byte offset of its log tail and at every checkpoint step must
//!   recover exactly the state after the records that survived;
//! * [`Engine::Crypto`] — differential targets pinning the secp256k1
//!   wNAF/table/cached fast path to the binary double-and-add oracle
//!   and the dispatched SHA-256 block function to the portable one, plus
//!   hostile sign→verify round trips (high-S, zero components, tampered
//!   digests, wrong keys);
//! * [`Engine::Batch`] — the randomized batch ECDSA verifier checked
//!   against the per-signature oracle: fuzzed batches under hostile
//!   mutations must produce the oracle's exact invalid set, independent
//!   of the randomizer seed.
//!
//! Beside them, [`invariants::explore_escrow`] checks every schedule of the
//! escrow contract up to a bound against a reference model (deeper bounds:
//! `cargo test --release -p btcfast-audit -- --ignored`).
//!
//! Determinism contract: `run` with the same seed, iteration count, and
//! corpus produces a byte-identical [`FuzzReport`] (and therefore
//! byte-identical harness output) on every host. No wall clocks, no
//! `HashMap` iteration, no thread scheduling reaches an observable.
//!
//! A target signals a violation by returning `Err(reason)` — or by
//! panicking, which the runner converts into a finding (hostile input
//! must *never* abort). Failing cases are minimized by truncation and
//! span-zeroing, written to the failure directory in the corpus text
//! format, and reported. Fixed bugs keep their minimized input in
//! `fuzz/corpus/`, which replays before any fresh fuzzing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_fuzz;
pub mod codec_fuzz;
pub mod corpus;
pub mod crypto_fuzz;
pub mod diff_fuzz;
pub mod invariants;
pub mod source;
pub mod store_fuzz;

use btcfast_obs::Registry;
use corpus::FuzzCase;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// A fuzzing engine family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Codec round-trip and hostile-decode targets.
    Codec,
    /// Incremental-vs-rebuild differential targets.
    Diff,
    /// Cross-cutting invariant targets.
    Invariant,
    /// Durable-store targets: hostile WAL/snapshot media and the
    /// crash-at-every-offset recovery differential.
    Store,
    /// secp256k1 fast-path differentials against the binary-ladder oracle
    /// and hostile ECDSA sign→verify round trips.
    Crypto,
    /// Batch ECDSA verdicts differentially checked against the
    /// per-signature oracle under hostile mutations.
    Batch,
}

impl Engine {
    /// All engines, in reporting order.
    pub const ALL: [Engine; 6] = [
        Engine::Codec,
        Engine::Diff,
        Engine::Invariant,
        Engine::Store,
        Engine::Crypto,
        Engine::Batch,
    ];

    /// The engine's stable name (CLI flag value, corpus field, metric key).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Codec => "codec",
            Engine::Diff => "diff",
            Engine::Invariant => "invariant",
            Engine::Store => "store",
            Engine::Crypto => "crypto",
            Engine::Batch => "batch",
        }
    }

    /// Parses a CLI/corpus engine name.
    pub fn parse(s: &str) -> Option<Engine> {
        Engine::ALL.iter().copied().find(|e| e.name() == s)
    }
}

/// A fuzz target: a named property checker inside an engine.
pub struct Target {
    /// Owning engine.
    pub engine: Engine,
    /// Stable target name (corpus field, finding label).
    pub name: &'static str,
    /// The property: `Err` (or a panic) is a finding.
    pub check: fn(&[u8]) -> Result<(), String>,
}

/// Every registered target, in deterministic rotation order.
pub const TARGETS: &[Target] = &[
    Target {
        engine: Engine::Codec,
        name: "compact-bits",
        check: codec_fuzz::fuzz_compact_bits,
    },
    Target {
        engine: Engine::Codec,
        name: "block-header",
        check: codec_fuzz::fuzz_block_header,
    },
    Target {
        engine: Engine::Codec,
        name: "psc-values",
        check: codec_fuzz::fuzz_psc_values,
    },
    Target {
        engine: Engine::Codec,
        name: "judger-types",
        check: codec_fuzz::fuzz_judger_types,
    },
    Target {
        engine: Engine::Codec,
        name: "evidence-bundle",
        check: codec_fuzz::fuzz_evidence_bundle,
    },
    Target {
        engine: Engine::Codec,
        name: "btc-transaction",
        check: codec_fuzz::fuzz_btc_transaction,
    },
    Target {
        engine: Engine::Codec,
        name: "trace-context",
        check: codec_fuzz::fuzz_trace_context,
    },
    Target {
        engine: Engine::Diff,
        name: "chain-reorg",
        check: diff_fuzz::diff_chain_reorg,
    },
    Target {
        engine: Engine::Diff,
        name: "psc-replay",
        check: diff_fuzz::diff_psc_replay,
    },
    Target {
        engine: Engine::Diff,
        name: "evidence-preflight",
        check: diff_fuzz::diff_evidence_preflight,
    },
    Target {
        engine: Engine::Invariant,
        name: "chain-conservation",
        check: invariants::invariant_chain_conservation,
    },
    Target {
        engine: Engine::Store,
        name: "wal-scan",
        check: store_fuzz::fuzz_wal_scan,
    },
    Target {
        engine: Engine::Store,
        name: "snapshot-slot",
        check: store_fuzz::fuzz_snapshot_slot,
    },
    Target {
        engine: Engine::Store,
        name: "crash-every-offset",
        check: store_fuzz::diff_store_crash_every_offset,
    },
    Target {
        engine: Engine::Crypto,
        name: "mul-differential",
        check: crypto_fuzz::diff_crypto_mul,
    },
    Target {
        engine: Engine::Crypto,
        name: "inverse-differential",
        check: crypto_fuzz::diff_crypto_inverse,
    },
    Target {
        engine: Engine::Crypto,
        name: "sha256-differential",
        check: crypto_fuzz::diff_crypto_sha256,
    },
    Target {
        engine: Engine::Crypto,
        name: "sign-verify",
        check: crypto_fuzz::fuzz_crypto_sign_verify,
    },
    Target {
        engine: Engine::Batch,
        name: "batch-oracle",
        check: batch_fuzz::diff_batch_verify,
    },
];

/// Looks up a target by engine and name (corpus replay dispatch).
pub fn find_target(engine: &str, name: &str) -> Option<&'static Target> {
    TARGETS
        .iter()
        .find(|t| t.engine.name() == engine && t.name == name)
}

/// One property violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Owning engine.
    pub engine: &'static str,
    /// Target that fired.
    pub target: &'static str,
    /// The minimized input reproducing the violation.
    pub bytes: Vec<u8>,
    /// What went wrong.
    pub message: String,
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Fresh cases to generate (spread round-robin over the targets).
    pub iters: u64,
    /// Restrict to one engine (`None` = all).
    pub engine: Option<Engine>,
    /// Regression corpus directory, replayed before fresh fuzzing.
    pub corpus_dir: PathBuf,
    /// Where minimized failures are written (`None` = don't write).
    pub failure_dir: Option<PathBuf>,
}

/// Run outcome.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Corpus cases replayed.
    pub corpus_replayed: u64,
    /// Fresh cases executed.
    pub cases_run: u64,
    /// Violations, in discovery order.
    pub findings: Vec<Finding>,
}

/// Executes one case, converting panics into findings.
fn exec(target: &Target, bytes: &[u8]) -> Result<(), String> {
    match panic::catch_unwind(AssertUnwindSafe(|| (target.check)(bytes))) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(format!("panic: {message}"))
        }
    }
}

/// Shrinks a failing input by tail truncation and span zeroing, keeping
/// any input that still fails (the message may change; the property
/// violation is what matters). Bounded work: at most a few hundred
/// re-executions.
fn minimize(target: &Target, bytes: &[u8]) -> Vec<u8> {
    let mut best = bytes.to_vec();
    // Truncate from the tail while the failure persists.
    loop {
        let mut improved = false;
        for keep in [
            best.len() / 2,
            best.len() * 3 / 4,
            best.len().saturating_sub(1),
        ] {
            if keep >= best.len() {
                continue;
            }
            let candidate = best[..keep].to_vec();
            if exec(target, &candidate).is_err() {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved || best.is_empty() {
            break;
        }
    }
    // Zero 8-byte spans that don't matter.
    let mut offset = 0;
    while offset < best.len() {
        let end = (offset + 8).min(best.len());
        if best[offset..end].iter().any(|&b| b != 0) {
            let mut candidate = best.clone();
            candidate[offset..end].fill(0);
            if exec(target, &candidate).is_err() {
                best = candidate;
            }
        }
        offset = end;
    }
    best
}

/// Replays the committed corpus, then fuzzes fresh cases.
///
/// # Errors
///
/// Returns corpus I/O or parse failures as a message; property violations
/// are *not* errors — they come back inside the report.
pub fn run(config: &FuzzConfig, registry: &mut Registry) -> Result<FuzzReport, String> {
    // Hostile-input targets legitimately probe panicking paths; keep the
    // default hook from spamming stderr (and destroying determinism of
    // the visible output) while cases run.
    let saved_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = run_inner(config, registry);
    panic::set_hook(saved_hook);
    result
}

fn run_inner(config: &FuzzConfig, registry: &mut Registry) -> Result<FuzzReport, String> {
    let mut report = FuzzReport::default();
    // Registered at zero up front, so the export names it even when no
    // corpus case replays.
    registry.add("fuzz.corpus.replayed", 0);
    let record = |report: &mut FuzzReport,
                  registry: &mut Registry,
                  target: &'static Target,
                  bytes: &[u8],
                  message: String| {
        registry.add(&format!("fuzz.{}.findings", target.engine.name()), 1);
        let minimized = minimize(target, bytes);
        let finding = Finding {
            engine: target.engine.name(),
            target: target.name,
            bytes: minimized,
            message,
        };
        if let Some(dir) = &config.failure_dir {
            let case = FuzzCase {
                engine: finding.engine.into(),
                target: finding.target.into(),
                note: finding.message.clone(),
                bytes: finding.bytes.clone(),
            };
            let path = dir.join(format!(
                "{}-{}-{:04}.case",
                finding.engine,
                finding.target,
                report.findings.len()
            ));
            if let Err(e) = case.save(&path) {
                eprintln!("warning: could not write failure artifact: {e}");
            }
        }
        report.findings.push(finding);
    };

    // 1. Regression corpus first: every past bug stays fixed.
    for (path, case) in corpus::load_corpus(&config.corpus_dir).map_err(|e| e.to_string())? {
        if let Some(engine) = config.engine {
            if engine.name() != case.engine {
                continue;
            }
        }
        let target = find_target(&case.engine, &case.target).ok_or_else(|| {
            format!(
                "corpus case {} names unknown target {}/{}",
                path.display(),
                case.engine,
                case.target
            )
        })?;
        report.corpus_replayed += 1;
        registry.add("fuzz.corpus.replayed", 1);
        if let Err(message) = exec(target, &case.bytes) {
            record(&mut report, registry, target, &case.bytes, message);
        }
    }

    // 2. Fresh fuzzing: a pure function of the seed.
    let targets: Vec<&'static Target> = TARGETS
        .iter()
        .filter(|t| config.engine.is_none_or(|e| e == t.engine))
        .collect();
    if targets.is_empty() {
        return Ok(report);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    for i in 0..config.iters {
        let target = targets[(i as usize) % targets.len()];
        let len = 64 + (rng.next_u32() as usize) % 193;
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        report.cases_run += 1;
        registry.add(&format!("fuzz.{}.cases", target.engine.name()), 1);
        if let Err(message) = exec(target, &bytes) {
            record(&mut report, registry, target, &bytes, message);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn target_names_are_unique() {
        for (i, a) in TARGETS.iter().enumerate() {
            for b in &TARGETS[i + 1..] {
                assert!(
                    a.engine != b.engine || a.name != b.name,
                    "duplicate target {}/{}",
                    a.engine.name(),
                    a.name
                );
            }
        }
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.name()), Some(engine));
        }
        assert_eq!(Engine::parse("bogus"), None);
    }

    /// `fuzz/corpus/`, wherever the test runs from.
    fn committed_corpus() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
    }

    /// The tier-1 depth of one engine: each of its targets on the empty
    /// input, then 32 seeded cases per target (and the engine's corpus
    /// cases) through [`run`], with no finding.
    pub(crate) fn assert_clean_at_depth(engine: Engine) {
        let targets: Vec<&Target> = TARGETS.iter().filter(|t| t.engine == engine).collect();
        for target in &targets {
            assert_eq!(
                (target.check)(&[]),
                Ok(()),
                "{} on the empty input",
                target.name
            );
        }
        let config = FuzzConfig {
            seed: 1,
            iters: 32 * targets.len() as u64,
            engine: Some(engine),
            corpus_dir: committed_corpus(),
            failure_dir: None,
        };
        let report = run(&config, &mut Registry::new()).unwrap();
        assert_eq!(report.cases_run, config.iters);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn run_is_deterministic_and_clean() {
        // The whole committed corpus, then one fresh case per target.
        let config = FuzzConfig {
            seed: 11,
            iters: TARGETS.len() as u64,
            engine: None,
            corpus_dir: committed_corpus(),
            failure_dir: None,
        };
        let mut registries = [Registry::new(), Registry::new()];
        for registry in &mut registries {
            let report = run(&config, registry).unwrap();
            assert_eq!(report.corpus_replayed, 4);
            assert_eq!(report.cases_run, config.iters);
            assert!(report.findings.is_empty(), "{:?}", report.findings);
        }
        assert_eq!(
            registries[0].render_prometheus(),
            registries[1].render_prometheus()
        );

        // A corpus that is not there fails the run instead of replaying
        // nothing.
        let nowhere = committed_corpus().join("nowhere");
        let missing = FuzzConfig {
            corpus_dir: nowhere.clone(),
            ..config
        };
        assert_eq!(
            run(&missing, &mut Registry::new()).unwrap_err(),
            format!("corpus directory {} does not exist", nowhere.display())
        );
    }

    #[test]
    fn panics_become_findings_and_minimize() {
        fn explosive(bytes: &[u8]) -> Result<(), String> {
            if bytes.first() == Some(&0xFF) {
                panic!("boom at the front");
            }
            Ok(())
        }
        let target = Target {
            engine: Engine::Codec,
            name: "explosive",
            check: explosive,
        };
        let mut bytes = vec![0u8; 64];
        bytes[0] = 0xFF;
        bytes[40] = 0x7;
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = exec(&target, &bytes);
        let minimized = minimize(&target, &bytes);
        std::panic::set_hook(saved);
        assert_eq!(result, Err("panic: boom at the front".into()));
        assert_eq!(minimized, vec![0xFF]);
    }
}
