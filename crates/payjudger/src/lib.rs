//! # btcfast-payjudger
//!
//! The `PayJudger` smart contract — the paper's core contribution — plus a
//! typed client for driving it.
//!
//! PayJudger is a trusted payment judger living on a PSC chain. It holds a
//! customer's collateral in escrow and adjudicates Bitcoin payment disputes
//! through a **PoW-based payment judgment**: disputing parties submit SPV
//! evidence (Bitcoin header segments with Merkle inclusion proofs), the
//! contract verifies every header's proof of work on-chain, and rules for
//! the branch carrying the most accumulated work. A customer whose payment
//! was double-spent away loses collateral to the merchant; an honest
//! customer's inclusion proof on the heaviest chain defeats a frivolous
//! dispute.
//!
//! * [`types`] — escrow/payment/dispute records and their storage codecs;
//! * [`evidence`] — the on-chain evidence format and the one evidence
//!   check ([`evidence::check_evidence`]): the contract charges gas and
//!   runs it, the client's preflight runs it for free;
//! * [`contract`] — the contract state machine and [`Call`], its ABI: one
//!   table of methods and their args, which the contract decodes and
//!   every caller encodes;
//! * [`client`] — signs a [`Call`] into a PSC transaction, runs the views
//!   and decodes receipts;
//! * [`verify`] — a name kept for the benchmark's measured surface.
//!
//! # Lifecycle
//!
//! ```text
//!   deposit ─▶ Escrow(Active)
//!                 │ open_payment(merchant, btc_txid, collateral)
//!                 ▼
//!            Payment(Open) ── ack / window expiry ──▶ Closed (collateral unlocked)
//!                 │ dispute (merchant, within window)
//!                 ▼
//!            Payment(Disputed) ── submit_evidence × N ──▶ judge
//!                 │                                          │
//!                 ▼                                          ▼
//!       MerchantWins (collateral → merchant)     CustomerWins (collateral unlocked)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod contract;
pub mod evidence;
pub mod types;
pub mod verify;

pub use client::PayJudgerClient;
pub use contract::{Call, PayJudger, CODE_ID};
pub use types::{DisputeVerdict, EscrowRecord, PaymentRecord, PaymentState};
pub use verify::EvidenceVerifier;
