//! # btcfast-pscsim
//!
//! A programmable-smart-contract (PSC) chain simulator — the substrate the
//! BTCFast `PayJudger` contract runs on.
//!
//! The paper deploys PayJudger on Ethereum/EOS. What the protocol actually
//! consumes from those chains is:
//!
//! * an account model with balances and nonces — [`account`], [`state`];
//! * deterministic contract execution with **gas metering** (the fee table
//!   in the evaluation is a gas table) — [`contract`], [`gas`];
//! * signed transactions (transfer / deploy / call) — [`tx`];
//! * block production at a configurable interval (Ethereum-like 15 s or
//!   EOS-like 0.5 s) with an event log — [`block`], [`chain`].
//!
//! Contracts are native Rust implementing the [`contract::Contract`] trait,
//! but they are **stateless singletons**: all persistent state goes through
//! the gas-metered [`contract::Storage`] interface, exactly as Solidity
//! storage does. That keeps execution deterministic, revertible, and
//! honestly priced.
//!
//! Consensus is proof-of-authority with immediate finality at a configurable
//! depth: the paper's scheme only requires that the PSC chain is distinct
//! from Bitcoin, confirms fast, and runs contracts — which chain-internal
//! consensus produces those blocks is irrelevant to the protocol, so we use
//! the simplest one (documented substitution in DESIGN.md).
//!
//! # Example
//!
//! ```
//! use btcfast_pscsim::chain::PscChain;
//! use btcfast_pscsim::params::PscParams;
//! use btcfast_crypto::keys::KeyPair;
//!
//! let mut chain = PscChain::new(PscParams::ethereum_like());
//! let alice = KeyPair::from_seed(b"alice");
//! chain.faucet(alice.address().into(), 1_000_000_000);
//! assert!(chain.balance_of(&alice.address().into()) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod block;
pub mod chain;
pub mod codec;
pub mod contract;
pub mod gas;
pub mod params;
pub mod state;
mod trie;
pub mod tx;

pub use account::AccountId;
pub use chain::PscChain;
pub use contract::{Contract, ContractError, Env, Event, Storage};
pub use gas::{Gas, GasSchedule};
pub use tx::{PscTransaction, Receipt, TxStatus};
