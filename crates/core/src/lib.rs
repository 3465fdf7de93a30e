//! # btcfast
//!
//! The BTCFast protocol (Lei, Xie, Tu, Liu — ICDCS 2020): sub-second
//! Bitcoin payment acceptance backed by an inter-blockchain escrow and a
//! PoW-judging smart contract.
//!
//! This crate ties the substrates together into the protocol the paper
//! describes:
//!
//! * [`roles`] — the [`roles::Customer`] and [`roles::Merchant`] drivers:
//!   wallets on both chains, payment construction, acceptance checks,
//!   double-spend detection, evidence gathering;
//! * [`policy`] — the merchant's escrow check (collateral at the one
//!   ratio [`config::COLLATERAL_RATIO`], the 0-conf cap, solvency);
//! * [`protocol`] — the phase artifacts exchanged between roles
//!   (payment offers, acceptances, rejection reasons);
//! * `flow` (crate-private) — the protocol driver: the one implementation
//!   of registration, the point-of-sale exchange and the dispute
//!   pipeline, generic over the effects a harness injects (message leg,
//!   PSC call, journal, span end);
//! * [`session`] — end-to-end discrete-event simulations: the driver
//!   under ideal effects (honest fast payments, batches, full
//!   double-spend attacks with dispute resolution) and the confirmation
//!   baselines;
//! * [`engine`] — [`engine::PaymentEngine`]: N concurrent shared-nothing
//!   payment sessions sharded over a worker pool, with batched escrow
//!   registration and seed-deterministic, byte-identical replays; one
//!   server per shard, fed every payment at `t = 0` by the closed run and
//!   a fixed arrival schedule through bounded admission by the open-loop
//!   load mode ([`engine::PaymentEngine::run_load`]);
//! * [`admission`] — the backpressure layer: each shard's bounded FIFO,
//!   whose refusals form a shed set that is part of the replay
//!   fingerprint;
//! * [`baseline`] — the comparison schemes (wait-for-z, naive 0-conf);
//! * [`fees`] — the cost model behind the "no extra operation fee" claim;
//! * [`robustness`] — the protocol phases a hostile network can strike
//!   (named by [`session::SessionError::phase`]) and the chaos knobs;
//! * [`recovery`] — [`recovery::RecoveryManager`]: durable intent
//!   journaling (WAL + snapshots via `btcfast-store`), so a crashed
//!   participant re-hydrates a byte-identical ledger and resumes
//!   in-flight payments and disputes exactly-once;
//! * [`chaos`] — [`chaos::ChaosSession`]: the same driver under the
//!   effects of a hostile network — a reliable transport under a seeded
//!   fault plan (loss, partitions, crashes, PSC stalls), PSC calls that
//!   cross it first, durable journaling — plus what only chaos owns: fault
//!   application, crash re-hydration, the six-confirmation fallback;
//! * [`telemetry`] — scrapes every substrate's stat counters into one
//!   `btcfast-obs` registry; sessions also record per-phase spans on the
//!   sim-time clock, so replays produce byte-identical traces;
//! * [`config`] — one knob surface for all of the above.
//!
//! # Quickstart
//!
//! ```
//! use btcfast::{FastPaySession, SessionConfig};
//!
//! let mut session = FastPaySession::new(SessionConfig::default(), 42);
//! let report = session.run_fast_payment(10_000_000).unwrap();
//! assert!(report.accepted);
//! assert!(report.waiting.as_secs_f64() < 1.0, "sub-second acceptance");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod baseline;
pub mod chaos;
pub mod config;
pub mod engine;
pub mod fees;
mod flow;
pub mod policy;
pub mod protocol;
pub mod recovery;
pub mod robustness;
pub mod roles;
pub mod session;
pub mod telemetry;

pub use admission::{AdmissionConfig, ShardAdmissionStats, SheddingPolicy, Ticket};
pub use chaos::{ChaosPaymentReport, ChaosSession, EscrowSnapshot};
pub use config::SessionConfig;
pub use engine::{
    EngineConfig, EngineReport, LoadArrival, LoadReport, PaymentEngine, ShardLoadOutcome,
    ShardOutcome,
};
pub use protocol::{Acceptance, Party, PaymentOffer, RejectReason};
pub use recovery::{
    Outcome, PaymentLedger, Payments, RecoveryError, RecoveryManager, RecoveryReport,
    RecoveryStats, Step,
};
pub use robustness::{ChaosConfig, ProtocolPhase};
pub use session::FastPaySession;
