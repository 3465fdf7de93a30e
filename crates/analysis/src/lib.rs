//! # btcfast-analysis
//!
//! Analytical models behind the BTCFast evaluation:
//!
//! * [`nakamoto`] — Nakamoto's double-spend race probability (the whitepaper
//!   model: catching up to a tie counts as success);
//! * [`rosenfeld`] — Rosenfeld's corrected analysis (negative-binomial
//!   attacker progress, strict overtake required);
//! * [`waiting`] — confirmation-latency distributions (Erlang);
//! * [`profit`] — attack profitability and the collateral sizing rule that
//!   makes double-spending against BTCFast unprofitable;
//! * [`mathutil`] — the special functions the above need (log-gamma,
//!   regularized incomplete gamma, Poisson terms).
//!
//! These curves are what E2/E3/E8 plot against the Monte-Carlo and
//! full-machinery simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mathutil;
pub mod nakamoto;
pub mod profit;
pub mod rosenfeld;
pub mod waiting;
