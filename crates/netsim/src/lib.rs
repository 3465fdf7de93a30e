//! # btcfast-netsim
//!
//! A small discrete-event network simulator.
//!
//! BTCFast's headline claim is a *latency* number ("waiting time < 1 s"), so
//! timing must come from a controlled clock, not from how fast the host CPU
//! happens to mine reduced-difficulty blocks. This crate provides:
//!
//! * [`time`] — a microsecond-resolution simulation clock;
//! * [`scheduler`] — a deterministic priority-queue event loop;
//! * [`latency`] — pluggable message-delay models (constant, uniform,
//!   log-normal) with LAN/WAN presets;
//! * [`network`] — a payload-free fabric that decides per message whether
//!   and when it arrives: per-link latency, loss, and partitions;
//! * [`poisson`] — exponential inter-arrival sampling for block discovery;
//! * [`transport`] — reliable at-least-once delivery (acks, bounded
//!   retries, exponential backoff, receiver-side dedup) over [`network`];
//! * [`faults`] — seeded, replayable fault-injection scripts (loss
//!   windows, partitions, crash-restart bounces, PSC stalls).
//!
//! # Example
//!
//! ```
//! use btcfast_netsim::scheduler::Scheduler;
//! use btcfast_netsim::time::SimTime;
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule(SimTime::from_secs_f64(1.0), "block found");
//! sched.schedule(SimTime::from_secs_f64(0.2), "tx broadcast");
//! let (t, ev) = sched.pop().unwrap();
//! assert_eq!(ev, "tx broadcast");
//! assert_eq!(t, SimTime::from_secs_f64(0.2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod latency;
pub mod network;
pub mod poisson;
pub mod scheduler;
pub mod time;
pub mod transport;

pub use faults::{ChaosSpec, FaultAction, FaultEvent, FaultPlan};
pub use latency::LatencyModel;
pub use network::{Network, NodeId};
pub use scheduler::Scheduler;
pub use time::SimTime;
pub use transport::{MsgId, SendStatus, Transport, TransportConfig, TransportStats};
