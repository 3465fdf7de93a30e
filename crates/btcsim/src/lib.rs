//! # btcfast-btcsim
//!
//! A Bitcoin-style blockchain simulator, built as the substrate for the
//! BTCFast reproduction (Lei et al., ICDCS 2020).
//!
//! The paper evaluates BTCFast against the real Bitcoin network; this crate
//! provides the closest synthetic equivalent that exercises the same code
//! paths:
//!
//! * real SHA-256d proof-of-work headers at a configurable (reduced)
//!   difficulty — [`block`], [`pow`];
//! * a full UTXO ledger with P2PKH-style scripts, signature verification,
//!   and fee accounting — [`transaction`], [`script`], [`utxo`];
//! * a mempool with double-spend conflict detection — [`mempool`];
//! * a reorg-capable block tree that selects the heaviest chain by
//!   accumulated work — [`chain`];
//! * honest miners with Poisson block production and a private-fork
//!   double-spend attacker — [`miner`], [`attack`];
//! * SPV evidence (header segments + Merkle inclusion proofs), the exact
//!   input format the `PayJudger` contract adjudicates — [`spv`].
//!
//! # Example
//!
//! ```
//! use btcfast_btcsim::chain::Chain;
//! use btcfast_btcsim::params::ChainParams;
//! use btcfast_btcsim::miner::Miner;
//! use btcfast_crypto::keys::KeyPair;
//!
//! let params = ChainParams::regtest();
//! let mut chain = Chain::new(params.clone());
//! let miner_key = KeyPair::from_seed(b"miner");
//! let mut miner = Miner::new(params, miner_key.address());
//! let block = miner.mine_block(&chain, vec![], 0);
//! chain.submit_block(block).unwrap();
//! assert_eq!(chain.height(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amount;
pub mod attack;
pub mod block;
pub mod chain;
pub mod mempool;
pub mod miner;
pub mod params;
pub mod pow;
pub mod script;
pub mod spv;
pub mod transaction;
mod u256;
pub mod utxo;
pub mod wallet;

pub use amount::Amount;
pub use block::{Block, BlockHeader};
pub use chain::Chain;
pub use transaction::{Transaction, TxIn, TxOut};
pub use u256::U256;
