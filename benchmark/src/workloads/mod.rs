//! The six workloads. Each gets only inputs generated from the seed, is cut
//! into equal-work slices, and is driven through public functions of
//! `crates/*` — the same calls whether or not spans are being recorded.

pub mod crash_recover;
pub mod dispute;
pub mod lossy_wan;
pub mod open_loop;
pub mod till;

use crate::spans::Recorder;
use std::collections::BTreeMap;

/// Value of every payment, satoshis.
pub const AMOUNT_SATS: u64 = 1_000_000;

/// Name, loop type and reason of one workload, as listed in
/// `BENCHMARK.json` and the README.
pub struct WorkloadInfo {
    /// The `--workload` name.
    pub name: &'static str,
    /// What one op is.
    pub op: &'static str,
    /// Distinct slices (slice seeds `S..S+n`). An untraced run executes
    /// them round after round until its time is up and keeps the fastest
    /// execution of each; a traced run executes each once untraced and once
    /// traced. Few and short on purpose: on a shared host an execution is
    /// undisturbed only now and then, and every distinct slice needs one.
    pub distinct_slices: u64,
    /// Why the workload exists.
    pub why: &'static str,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "till_steady",
        op: "payment",
        distinct_slices: 4,
        why: "closed loop, 2 shards x 256 payments in batches of 8: the headline path with registration, ECDSA and blocks amortised over batches and shards in parallel",
    },
    WorkloadInfo {
        name: "till_longlived",
        op: "payment",
        distinct_slices: 1,
        why: "closed loop, 1 shard x 1024 payments: same layers as till_steady but one merchant's chain and escrow state keep growing, so per-state-size costs show here only",
    },
    WorkloadInfo {
        name: "till_open_loop",
        op: "offered payment",
        distinct_slices: 3,
        why: "open loop, Poisson 3 payments/s over 2 shards at half saturation: batches hold 1-2 payments, so per-block costs are not amortised and batching is bypassed",
    },
    WorkloadInfo {
        name: "lossy_wan",
        op: "payment",
        distinct_slices: 8,
        why: "closed loop, chaos sessions at 25% loss with 8 crash-restarts: the transport-routed payment path with retransmission, WAL journaling and re-hydration",
    },
    WorkloadInfo {
        name: "double_spend_dispute",
        op: "attack",
        distinct_slices: 8,
        why: "closed loop, fresh session per double-spend attack at 45% hashrate: fork race, reorg, SPV evidence and PayJudger PoW verification; batching and sharding bypassed",
    },
    WorkloadInfo {
        name: "crash_recover",
        op: "recovery",
        distinct_slices: 2,
        why: "closed loop, journal 2000 payment lifecycles beside a 100k-payment ledger then drop and re-open it: time out of service after a crash; only store and core::recovery work",
    },
];

/// Additive counters read from public report and stats structs. Keys are
/// short literals; ratios are formed from sums at the end of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `value` to counter `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    /// Raises counter `key` to at least `value`.
    pub fn max(&mut self, key: &'static str, value: f64) {
        let slot = self.0.entry(key).or_insert(0.0);
        *slot = slot.max(value);
    }

    /// The counter's value; zero when never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den`, zero when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let den = self.get(den);
        if den == 0.0 {
            0.0
        } else {
            self.get(num) / den
        }
    }

    /// Folds another slice's counters in: `*_max` keys by maximum, the
    /// rest by sum.
    pub fn absorb(&mut self, other: &Counts) {
        for (&key, &value) in &other.0 {
            if key.ends_with("_max") {
                self.max(key, value);
            } else {
                self.add(key, value);
            }
        }
    }
}

/// Simulated-clock samples of one slice, microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimSamples {
    /// Offer sent → acceptance received, per accepted payment.
    pub pos_wait_us: Vec<u64>,
    /// Scheduled arrival → acceptance, per accepted payment (open loop).
    pub checkout_us: Vec<u64>,
    /// Dispute opened → verdict executed, per dispute that ran.
    pub dispute_us: Vec<u64>,
}

impl SimSamples {
    /// Appends another slice's samples.
    pub fn absorb(&mut self, other: &SimSamples) {
        self.pos_wait_us.extend_from_slice(&other.pos_wait_us);
        self.checkout_us.extend_from_slice(&other.checkout_us);
        self.dispute_us.extend_from_slice(&other.dispute_us);
    }
}

/// What one slice did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SliceOutcome {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that returned `Err`, were rejected, shed, fell back unprotected
    /// or left a lost payment uncompensated, plus correctness checks that
    /// did not hold.
    pub failed: u64,
    /// Simulated-clock samples.
    pub sim: SimSamples,
    /// Exact counters.
    pub counts: Counts,
}

impl SliceOutcome {
    /// Records a correctness check; a failed one is reported on stderr and
    /// counted, never panicked on, so the run still prints its result.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// A workload's fixtures plus the code that runs one slice of it.
pub trait Workload {
    /// Untimed preparation of slice `index` (e.g. resetting media).
    fn prepare(&mut self, _index: u64) {}

    /// Runs slice `index`. With an enabled recorder this is the traced
    /// pass: a span goes around every call into `crates/*`.
    fn run_slice(&mut self, index: u64, rec: &mut Recorder) -> SliceOutcome;

    /// A small untimed slice that fills lazily built tables and per-thread
    /// caches before anything is measured.
    fn warm_up(&mut self);

    /// Worker threads the workload keeps busy.
    fn threads(&self) -> usize {
        1
    }
}

/// Builds the fixtures of workload `name` for `seed`; `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "till_steady" => Box::new(till::Till::steady(seed)),
        "till_longlived" => Box::new(till::Till::longlived(seed)),
        "till_open_loop" => Box::new(open_loop::OpenLoop::new(seed)),
        "lossy_wan" => Box::new(lossy_wan::LossyWan::new(seed)),
        "double_spend_dispute" => Box::new(dispute::Dispute::new(seed)),
        "crash_recover" => Box::new(crash_recover::CrashRecover::new(seed)),
        _ => return None,
    })
}
