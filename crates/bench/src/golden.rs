//! Pinned experiment output: `bench/golden/` holds what every experiment
//! prints at `quick` size and the `harness trace` JSONL.
//!
//! Those outputs are a pure function of the code — no host, worker count or
//! wall-clock figure reaches them — so a table that moves is a change of
//! behaviour. The one test below regenerates every file and compares; a
//! table that was meant to move is re-pinned with `harness bless`, and the
//! diff of `bench/golden/` is then part of the review.

use crate::experiments;
use std::path::PathBuf;

/// `bench/golden/` of this checkout.
pub fn dir() -> PathBuf {
    crate::repository_path("bench/golden")
}

/// Every pinned file as `(name, contents)`, regenerated from the code.
pub fn generate() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = experiments::ALL_IDS
        .iter()
        .map(|id| {
            // A thread of its own, as `harness <id> quick` has: E12 prints
            // the hit counts of the per-thread signature caches, which the
            // experiments before it would otherwise have warmed.
            let tables = std::thread::spawn(move || experiments::run(id, true))
                .join()
                .unwrap_or_else(|_| panic!("experiment {id} panicked"));
            let text: String = tables.iter().map(|t| t.render()).collect();
            (format!("{id}.txt"), text)
        })
        .collect();
    let trace = crate::trace::run(crate::trace::DEFAULT_SEED).expect("the trace scenario runs");
    files.push(("trace.jsonl".to_string(), trace.jsonl));
    files
}

/// Rewrites `bench/golden/` from the code (`harness bless`).
pub fn bless() -> std::io::Result<usize> {
    let dir = dir();
    std::fs::create_dir_all(&dir)?;
    let files = generate();
    for (name, text) in &files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(files.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// The lines that differ between a pinned file and its regeneration, as
    /// `name:line` followed by the pinned (`-`) and the regenerated (`+`) text.
    fn diff(name: &str, pinned: &str, actual: &str) -> String {
        let mut out = String::new();
        let (mut want, mut got) = (pinned.lines(), actual.lines());
        for line in 1.. {
            let (w, g) = (want.next(), got.next());
            if w.is_none() && g.is_none() {
                break;
            }
            if w != g {
                let _ = writeln!(out, "{name}:{line}");
                let _ = writeln!(out, "  - {}", w.unwrap_or("<end of file>"));
                let _ = writeln!(out, "  + {}", g.unwrap_or("<end of file>"));
            }
        }
        if out.is_empty() {
            let _ = writeln!(out, "{name}: differs in its final newline only");
        }
        out
    }

    #[test]
    fn experiment_output_matches_bench_golden() {
        let mut moved = String::new();
        for (name, actual) in generate() {
            let path = dir().join(&name);
            let pinned = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            if pinned != actual {
                moved.push_str(&diff(&name, &pinned, &actual));
            }
        }
        assert!(
            moved.is_empty(),
            "output moved against bench/golden/ (`harness bless` re-pins it if that was meant):\n{moved}"
        );
    }
}
