//! E15 — critical-path decomposition of accept latency under faults.
//!
//! Sweeps packet-loss intensity over seeded chaos payments, rebuilds
//! each payment's causal span tree from the rendered JSONL trace
//! ([`btcfast_obs::build_trees`]), and decomposes end-to-end accept
//! latency into the buckets the paper's latency argument is made of:
//! transport wait (retransmissions + backoff), merchant verify, escrow
//! registration, queueing, and everything else. The per-bucket slices
//! are an exact partition of the root span, so every row's bucket
//! percentages account for 100% of the measured latency — no hidden
//! time. An SLO checker gates `accept_p99` against a budget and names
//! the dominant bucket when the budget is blown.
//!
//! Determinism contract: every cell is a pure function of its seeds, so
//! the rendered table is byte-identical across repeated runs and across
//! worker-pool sizes; the forest itself must reconstruct well-formed
//! (one root per payment, no orphans, nested intervals) at every swept
//! intensity.

use crate::table::{f3, Table};
use btcfast::chaos::ChaosSession;
use btcfast::robustness::ChaosConfig;
use btcfast::SessionConfig;
use btcfast_crypto::WorkerPool;
use btcfast_netsim::faults::FaultPlan;
use btcfast_netsim::time::SimTime;
use btcfast_obs::critical_path::{breakdown, critical_path, self_time_us};
use btcfast_obs::{build_trees, check_nesting, check_slo, render_jsonl, Breakdown, Bucket};

const AMOUNT_SATS: u64 = 1_000_000;

/// End-to-end accept budget for the SLO gate, µs. Generous enough that
/// the clean-network column always passes; heavy loss may blow it, in
/// which case the verdict column names the dominant bucket.
const SLO_BUDGET_US: u64 = 60_000_000;

fn plan_for(loss: f64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if loss > 0.0 {
        plan.loss_window(SimTime::ZERO, SimTime::from_secs(86_400), loss);
    }
    plan
}

/// One payment's trace, rendered: the JSONL plus its reconstructed
/// payment-tree breakdown and the name of the critical path's leaf.
struct Trial {
    jsonl: String,
    breakdown: Breakdown,
    critical_leaf: String,
}

fn run_trial(loss: f64, seed: u64) -> Trial {
    let mut chaos = ChaosSession::new(
        SessionConfig::default(),
        ChaosConfig::default(),
        plan_for(loss),
        seed,
    );
    let report = chaos
        .run_fast_payment_chaos(AMOUNT_SATS)
        .expect("payment completes inside the retry envelope");
    assert!(report.accepted, "swept intensities stay under give-up");

    let jsonl = render_jsonl(chaos.session.trace());
    let trees = build_trees(&jsonl).expect("trace reconstructs into a forest");
    let tree = trees
        .iter()
        .find(|t| t.root_node().name == "session.payment")
        .expect("the payment has a root span");
    check_nesting(tree).expect("child spans nest inside their parents");

    let b = breakdown(tree);
    assert_eq!(
        b.bucket_sum_us(),
        tree.root_duration_us(),
        "bucket slices partition the root span exactly"
    );
    let path = critical_path(tree);
    // The path's dominant node: the one contributing the most self-time.
    let critical_leaf = path
        .iter()
        .copied()
        .max_by_key(|&i| (self_time_us(tree, i), usize::MAX - i))
        .map(|i| tree.nodes[i].name.clone())
        .unwrap_or_else(|| "—".to_string());
    Trial {
        jsonl,
        breakdown: b,
        critical_leaf,
    }
}

struct Cell {
    loss: f64,
    trials: Vec<Trial>,
    replay_stable: bool,
}

fn run_cell(loss: f64, trials: u32, seed_base: u64) -> Cell {
    let trial_results: Vec<Trial> = (0..trials)
        .map(|t| run_trial(loss, seed_base + u64::from(t) * 7919))
        .collect();
    // Same-seed rerun must render byte-identical JSONL — ids are minted
    // from the seed, not from global state.
    let rerun = run_trial(loss, seed_base);
    let replay_stable = rerun.jsonl == trial_results[0].jsonl;
    Cell {
        loss,
        trials: trial_results,
        replay_stable,
    }
}

/// Runs E15 on a pool with host-default parallelism.
pub fn run(quick: bool) -> Vec<Table> {
    sweep(quick, &WorkerPool::with_default_parallelism())
}

/// Runs the sweep on `pool`. Cells are independent chaos runs mapped in
/// order, so the rendered table is identical at any worker count.
pub fn sweep(quick: bool, pool: &WorkerPool) -> Vec<Table> {
    let intensities: &[f64] = if quick {
        &[0.0, 0.25]
    } else {
        &[0.0, 0.10, 0.25, 0.40]
    };
    let trials: u32 = if quick { 3 } else { 8 };

    let cells: Vec<(usize, f64)> = intensities.iter().copied().enumerate().collect();
    let outcomes = pool.map_coarse(&cells, |&(index, loss)| {
        run_cell(loss, trials, 0xE15_0000 + index as u64 * 1_000_003)
    });

    let mut table = Table::new(
        "E15 — accept-latency critical path vs packet loss",
        &[
            "loss",
            "payments",
            "mean accept (s)",
            "p99 (s)",
            "transport %",
            "verify %",
            "escrow %",
            "queueing %",
            "other %",
            "critical node",
            "replay",
            "slo",
        ],
    );

    for cell in &outcomes {
        let breakdowns: Vec<Breakdown> = cell.trials.iter().map(|t| t.breakdown).collect();
        let n = breakdowns.len() as f64;
        let total: u64 = breakdowns.iter().map(|b| b.total_us).sum();
        let share = |bucket: Bucket| -> String {
            let us: u64 = breakdowns
                .iter()
                .map(|b| b.by_bucket()[bucket as usize])
                .sum();
            f3(us as f64 / total as f64 * 100.0)
        };
        let verdict = check_slo(&breakdowns, SLO_BUDGET_US).expect("non-empty cell");
        // The modal critical node across the cell's trials, ties to the
        // lexically first — deterministic.
        let mut leaves: Vec<&str> = cell
            .trials
            .iter()
            .map(|t| t.critical_leaf.as_str())
            .collect();
        leaves.sort_unstable();
        let critical = leaves
            .chunk_by(|a, b| a == b)
            .max_by_key(|run| run.len())
            .map(|run| run[0])
            .unwrap_or("—");
        table.push(vec![
            f3(cell.loss),
            cell.trials.len().to_string(),
            f3(total as f64 / n / 1e6),
            f3(verdict.p99_us as f64 / 1e6),
            share(Bucket::Transport),
            share(Bucket::Verify),
            share(Bucket::Escrow),
            share(Bucket::Queueing),
            share(Bucket::Other),
            critical.to_string(),
            if cell.replay_stable {
                "stable"
            } else {
                "UNSTABLE"
            }
            .into(),
            if verdict.ok {
                "ok".into()
            } else {
                format!("VIOLATED ({})", verdict.dominant.label())
            },
        ]);
    }

    vec![table]
}

/// Renders the representative span-tree JSONL the CI lane uploads as an
/// artifact: one traced chaos payment at the middle swept intensity.
pub fn span_tree_jsonl() -> String {
    run_trial(0.25, 0xE15_0000 + 1_000_003).jsonl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_rows_cover_every_intensity_with_exact_shares() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 2, "one row per swept intensity");
        let rendered = tables[0].render();
        assert!(
            !rendered.contains("UNSTABLE"),
            "replays stable:\n{rendered}"
        );
    }

    #[test]
    fn e15_table_is_byte_identical_across_runs_and_worker_counts() {
        let once = sweep(true, &WorkerPool::new(1));
        let again = sweep(true, &WorkerPool::new(1));
        let parallel = sweep(true, &WorkerPool::new(4));
        assert_eq!(once[0].render(), again[0].render(), "rerun drifted");
        assert_eq!(
            once[0].render(),
            parallel[0].render(),
            "worker count leaked into the table"
        );
    }

    #[test]
    fn e15_span_tree_artifact_reconstructs() {
        let jsonl = span_tree_jsonl();
        let trees = build_trees(&jsonl).expect("artifact parses");
        assert!(trees
            .iter()
            .any(|t| t.root_node().name == "session.payment"));
        for tree in &trees {
            check_nesting(tree).expect("artifact trees nest");
        }
    }
}
