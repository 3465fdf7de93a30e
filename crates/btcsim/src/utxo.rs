//! The UTXO set: contextual transaction validation and reversible block
//! application.
//!
//! [`UtxoSet::apply_block`] returns an [`UndoLog`] so that chain
//! reorganizations can roll blocks back exactly — the mechanism a
//! double-spend attack exploits and the `PayJudger` evidence captures.

use crate::amount::Amount;
use crate::block::Block;
use crate::script::ScriptPubKey;
use crate::transaction::{OutPoint, Transaction, TxError};
use btcfast_crypto::batch::{verify_batch, BatchItem, BatchStats};
use btcfast_crypto::keys::Address;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// A spendable coin: the output plus metadata needed for maturity checks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Coin {
    /// The output's value.
    pub value: Amount,
    /// The locking script.
    pub script_pubkey: ScriptPubKey,
    /// Height of the block that created the coin.
    pub height: u64,
    /// Whether it came from a coinbase (subject to maturity).
    pub is_coinbase: bool,
}

/// Contextual validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtxoError {
    /// Input refers to a missing (never existed or already spent) coin.
    MissingCoin(OutPoint),
    /// Coinbase spend before maturity.
    ImmatureCoinbase {
        /// The offending outpoint.
        outpoint: OutPoint,
        /// Height the coin was created.
        created: u64,
        /// Height of the spend attempt.
        spend_height: u64,
    },
    /// Outputs exceed inputs.
    ValueOutOfRange,
    /// Coinbase claims more than subsidy + fees.
    ExcessiveCoinbase {
        /// What the coinbase claimed.
        claimed: Amount,
        /// What it was allowed to claim.
        allowed: Amount,
    },
    /// The transaction is not final at this height (locktime).
    NotFinal,
    /// A structural or script failure.
    Tx(TxError),
    /// Internal invariant breach: an input that validation accepted was
    /// gone (or double-staged) when the block's changes were staged. This
    /// can only arise from a bug in validation/apply bookkeeping; surfacing
    /// it as an error keeps a divergence from aborting the process.
    StateDivergence(OutPoint),
}

impl fmt::Display for UtxoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtxoError::MissingCoin(op) => write!(f, "missing or spent coin {op}"),
            UtxoError::ImmatureCoinbase {
                outpoint,
                created,
                spend_height,
            } => write!(
                f,
                "coinbase {outpoint} created at {created} spent at {spend_height} before maturity"
            ),
            UtxoError::ValueOutOfRange => write!(f, "outputs exceed inputs"),
            UtxoError::ExcessiveCoinbase { claimed, allowed } => {
                write!(f, "coinbase claims {claimed}, allowed {allowed}")
            }
            UtxoError::NotFinal => write!(f, "transaction locktime not satisfied"),
            UtxoError::Tx(e) => write!(f, "transaction error: {e}"),
            UtxoError::StateDivergence(op) => {
                write!(f, "validation/apply divergence on input {op}")
            }
        }
    }
}

impl Error for UtxoError {}

impl From<TxError> for UtxoError {
    fn from(e: TxError) -> UtxoError {
        UtxoError::Tx(e)
    }
}

/// Undo information for one applied block.
#[derive(Clone, Debug, Default)]
pub struct UndoLog {
    /// Coins consumed by the block, in consumption order.
    spent: Vec<(OutPoint, Coin)>,
    /// Outpoints created by the block.
    created: Vec<OutPoint>,
}

/// A read view over unspent coins. Validation runs against the live set,
/// the live set plus a pending in-block overlay, or (in the mempool) the
/// live set plus pooled outputs; sharing the lookup through this trait
/// keeps the validation logic identical in every case.
pub(crate) trait CoinView {
    /// The coin an outpoint currently resolves to, if unspent.
    fn view_coin(&self, outpoint: &OutPoint) -> Option<&Coin>;
    /// The coinbase maturity in force.
    fn view_maturity(&self) -> u64;
}

/// Validates a non-coinbase transaction against `view`, returning the fee.
pub(crate) fn validate_against<V: CoinView>(
    view: &V,
    tx: &Transaction,
    height: u64,
) -> Result<Amount, UtxoError> {
    tx.check_structure()?;
    if tx.is_coinbase() {
        return Err(UtxoError::Tx(TxError::MisplacedCoinbase));
    }
    if tx.lock_time > height {
        return Err(UtxoError::NotFinal);
    }
    let mut total_in = Amount::ZERO;
    let mut spent_scripts = Vec::with_capacity(tx.inputs.len());
    for input in &tx.inputs {
        let coin = view
            .view_coin(&input.previous_output)
            .ok_or(UtxoError::MissingCoin(input.previous_output))?;
        if coin.is_coinbase && height < coin.height + view.view_maturity() {
            return Err(UtxoError::ImmatureCoinbase {
                outpoint: input.previous_output,
                created: coin.height,
                spend_height: height,
            });
        }
        spent_scripts.push(coin.script_pubkey.clone());
        total_in = total_in
            .checked_add(coin.value)
            .ok_or(UtxoError::ValueOutOfRange)?;
    }
    verify_scripts_cached(tx, &spent_scripts)?;
    let total_out = tx.total_output();
    total_in
        .checked_sub(total_out)
        .ok_or(UtxoError::ValueOutOfRange)
}

/// Entries the per-thread signature cache holds before it resets.
const SIG_CACHE_CAP: usize = 1 << 16;

/// Observability counters for the per-thread signature cache. All fields
/// saturate rather than wrap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Verifications skipped because the full statement was cached.
    pub hits: u64,
    /// Verifications that ran ECDSA (and then warmed the cache).
    pub misses: u64,
    /// Times the cache hit capacity and was cleared.
    pub resets: u64,
    /// Transactions inserted by [`UtxoSet::preverify_signatures`] rather
    /// than by a sequential verification.
    pub primed: u64,
}

thread_local! {
    static SIG_CACHE_STATS: RefCell<SigCacheStats> = const { RefCell::new(SigCacheStats {
        hits: 0,
        misses: 0,
        resets: 0,
        primed: 0,
    }) };
}

/// This thread's signature-cache counters since the last
/// [`reset_sig_cache_stats`].
pub fn sig_cache_stats() -> SigCacheStats {
    SIG_CACHE_STATS.with(|s| *s.borrow())
}

/// Zeroes this thread's signature-cache counters (scoping a measurement).
pub fn reset_sig_cache_stats() {
    SIG_CACHE_STATS.with(|s| *s.borrow_mut() = SigCacheStats::default());
}

/// Empties this thread's signature cache (scoping a test or benchmark; a
/// hit never changes a validation outcome, only its cost).
pub fn clear_sig_cache() {
    SIG_CACHE.with(|cache| cache.borrow_mut().clear());
}

thread_local! {
    /// Script-verification cache (the Bitcoin Core idiom): a transaction
    /// fully verified once — typically at mempool admission — skips ECDSA
    /// re-verification when its block connects. The key commits to the
    /// *complete* verified statement (core serialization, every witness,
    /// every spent script; the txid alone would not do — it omits
    /// witnesses), so a hit can only replay a verification that already
    /// succeeded on identical inputs. Per-thread, so parallel shards stay
    /// deterministic and lock-free; a hit or miss never changes any
    /// validation outcome, only its cost.
    static SIG_CACHE: std::cell::RefCell<HashSet<btcfast_crypto::Hash256>> =
        RefCell::new(HashSet::new());
}

/// The cache key: everything input verification reads.
fn sig_cache_key(tx: &Transaction, spent_scripts: &[ScriptPubKey]) -> btcfast_crypto::Hash256 {
    let mut data = tx.encode_core();
    for input in &tx.inputs {
        match &input.witness {
            Some(witness) => {
                data.push(1);
                witness.encode_to(&mut data);
            }
            None => data.push(0),
        }
    }
    for script in spent_scripts {
        script.encode_to(&mut data);
    }
    btcfast_crypto::sha256::sha256d(&data)
}

/// Verifies every input signature, consulting the per-thread cache.
fn verify_scripts_cached(
    tx: &Transaction,
    spent_scripts: &[ScriptPubKey],
) -> Result<(), UtxoError> {
    let key = sig_cache_key(tx, spent_scripts);
    let hit = SIG_CACHE.with(|cache| cache.borrow().contains(&key));
    if hit {
        SIG_CACHE_STATS.with(|s| {
            let stats = &mut s.borrow_mut();
            stats.hits = stats.hits.saturating_add(1);
        });
        return Ok(());
    }
    SIG_CACHE_STATS.with(|s| {
        let stats = &mut s.borrow_mut();
        stats.misses = stats.misses.saturating_add(1);
    });
    for (index, script) in spent_scripts.iter().enumerate() {
        tx.verify_input(index, script)?;
    }
    sig_cache_insert(key);
    Ok(())
}

/// Inserts a verified-statement key, clearing the cache first when it is
/// at capacity (shared by the sequential path and batch priming).
fn sig_cache_insert(key: btcfast_crypto::Hash256) {
    SIG_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= SIG_CACHE_CAP {
            cache.clear();
            SIG_CACHE_STATS.with(|s| {
                let stats = &mut s.borrow_mut();
                stats.resets = stats.resets.saturating_add(1);
            });
        }
        cache.insert(key);
    });
}

/// Marks `tx` as script-verified in this thread's signature cache without
/// re-running any ECDSA. Private: priming an unproven transaction would
/// forge a verification, so the only caller is
/// [`UtxoSet::preverify_signatures`], which primes a transaction only
/// after every one of its statements passed the batch verifier.
fn prime_sig_cache(tx: &Transaction, spent_scripts: &[ScriptPubKey]) {
    let key = sig_cache_key(tx, spent_scripts);
    sig_cache_insert(key);
    SIG_CACHE_STATS.with(|s| {
        let stats = &mut s.borrow_mut();
        stats.primed = stats.primed.saturating_add(1);
    });
}

/// The pending effect of a block being validated, layered over the live
/// set. Nothing touches the [`UtxoSet`] until the whole block validates,
/// at which point the staged changes commit atomically — replacing the
/// previous validate-on-a-full-clone scheme with O(touched coins) work.
struct BlockOverlay<'a> {
    base: &'a UtxoSet,
    /// Coins created by earlier transactions in the block and not yet
    /// spent within it.
    created: HashMap<OutPoint, Coin>,
    /// Creation order of `created` entries (for deterministic undo logs).
    created_order: Vec<OutPoint>,
    /// Base-set coins consumed by the block, in consumption order.
    spent: Vec<(OutPoint, Coin)>,
    /// Fast membership for `spent`.
    spent_set: HashSet<OutPoint>,
    /// Fees of the transactions staged so far.
    fees: Amount,
}

/// The net effect of a fully validated block, ready to commit.
struct StagedBlock {
    /// Base-set coins the block consumes.
    spent: Vec<(OutPoint, Coin)>,
    /// Coins the block adds to the final set, in creation order. Coins
    /// created *and* spent within the block net out and appear in neither
    /// list, so undoing the log restores the exact pre-block set.
    created: Vec<(OutPoint, Coin)>,
}

impl<'a> BlockOverlay<'a> {
    fn new(base: &'a UtxoSet) -> BlockOverlay<'a> {
        BlockOverlay {
            base,
            created: HashMap::new(),
            created_order: Vec::new(),
            spent: Vec::new(),
            spent_set: HashSet::new(),
            fees: Amount::ZERO,
        }
    }

    /// Validates a non-coinbase transaction on top of everything staged so
    /// far, then stages its effect and adds its fee to `self.fees`. On a
    /// validation error nothing is staged.
    fn stage(&mut self, tx: &Transaction, height: u64) -> Result<(), UtxoError> {
        let fee = validate_against(self, tx, height)?;
        let fees = self
            .fees
            .checked_add(fee)
            .ok_or(UtxoError::ValueOutOfRange)?;
        for input in &tx.inputs {
            self.spend(input.previous_output)?;
        }
        self.create_outputs(tx, height, false);
        self.fees = fees;
        Ok(())
    }

    /// Stages the consumption of an already validated input.
    fn spend(&mut self, outpoint: OutPoint) -> Result<(), UtxoError> {
        if self.spent_set.contains(&outpoint) {
            return Err(UtxoError::StateDivergence(outpoint));
        }
        if self.created.remove(&outpoint).is_some() {
            // A coin both created and spent inside the block cancels out.
            return Ok(());
        }
        let coin = self
            .base
            .coins
            .get(&outpoint)
            .cloned()
            .ok_or(UtxoError::StateDivergence(outpoint))?;
        self.spent_set.insert(outpoint);
        self.spent.push((outpoint, coin));
        Ok(())
    }

    /// Stages the spendable outputs of a transaction.
    fn create_outputs(&mut self, tx: &Transaction, height: u64, is_coinbase: bool) {
        let txid = tx.txid();
        for (vout, output) in tx.outputs.iter().enumerate() {
            if output.script_pubkey.is_unspendable() {
                continue;
            }
            let outpoint = OutPoint {
                txid,
                vout: vout as u32,
            };
            self.created.insert(
                outpoint,
                Coin {
                    value: output.value,
                    script_pubkey: output.script_pubkey.clone(),
                    height,
                    is_coinbase,
                },
            );
            self.created_order.push(outpoint);
        }
    }

    fn into_staged(mut self) -> StagedBlock {
        let order = std::mem::take(&mut self.created_order);
        let created = order
            .into_iter()
            .filter_map(|op| self.created.remove(&op).map(|coin| (op, coin)))
            .collect();
        StagedBlock {
            spent: self.spent,
            created,
        }
    }
}

impl CoinView for BlockOverlay<'_> {
    fn view_coin(&self, outpoint: &OutPoint) -> Option<&Coin> {
        if self.spent_set.contains(outpoint) {
            return None;
        }
        self.created
            .get(outpoint)
            .or_else(|| self.base.coins.get(outpoint))
    }

    fn view_maturity(&self) -> u64 {
        self.base.maturity
    }
}

/// The set of unspent transaction outputs.
///
/// Keeps a per-address index over P2PKH coins so wallet queries
/// ([`balance_of`](UtxoSet::balance_of),
/// [`spendable_by`](UtxoSet::spendable_by)) cost O(coins owned) instead of
/// scanning the whole set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UtxoSet {
    coins: HashMap<OutPoint, Coin>,
    /// P2PKH coins by owning address. `BTreeSet` keeps each address's
    /// outpoints sorted, so index walks stay deterministic.
    by_address: HashMap<Address, BTreeSet<OutPoint>>,
    maturity: u64,
}

impl CoinView for UtxoSet {
    fn view_coin(&self, outpoint: &OutPoint) -> Option<&Coin> {
        self.coins.get(outpoint)
    }

    fn view_maturity(&self) -> u64 {
        self.maturity
    }
}

impl UtxoSet {
    /// Creates an empty set with the given coinbase maturity.
    pub fn new(coinbase_maturity: u64) -> UtxoSet {
        UtxoSet {
            coins: HashMap::new(),
            by_address: HashMap::new(),
            maturity: coinbase_maturity,
        }
    }

    /// Looks up a coin.
    pub fn coin(&self, outpoint: &OutPoint) -> Option<&Coin> {
        self.coins.get(outpoint)
    }

    /// The scripts locking each input of `tx`, in input order, or `None`
    /// when a referenced coin is missing from the set.
    fn spent_scripts(&self, tx: &Transaction) -> Option<Vec<ScriptPubKey>> {
        tx.inputs
            .iter()
            .map(|input| {
                self.coins
                    .get(&input.previous_output)
                    .map(|coin| coin.script_pubkey.clone())
            })
            .collect()
    }

    /// Verifies every input signature of `txs` at once with the randomized
    /// batch verifier and primes this thread's signature cache for the
    /// transactions it proved, so the [`Self::validate_transaction`] and
    /// mempool admission that follow hit the cache instead of running
    /// ECDSA one signature at a time. Returns the batch's work counters.
    ///
    /// A cost optimization only — no verdict moves:
    ///
    /// * a transaction that spends a coin missing from this set, or whose
    ///   witness fails a non-signature script rule, is skipped and left to
    ///   the sequential path with its exact error;
    /// * the batch verdict equals the per-signature oracle's (failed
    ///   batches bisect down to single `ecdsa::verify` calls), and only a
    ///   transaction with no invalid statement is primed;
    /// * `seed` drives the randomizers alone, so the same `(txs, seed)`
    ///   replays identical work.
    pub fn preverify_signatures(&self, txs: &[Transaction], seed: u64) -> BatchStats {
        let mut items = Vec::new();
        let mut spans = Vec::with_capacity(txs.len());
        for tx in txs {
            let Some(scripts) = self.spent_scripts(tx) else {
                continue;
            };
            let Ok(statements) = tx.signature_statements(&scripts) else {
                continue;
            };
            let start = items.len();
            items.extend(statements.iter().map(|s| BatchItem {
                pubkey: *s.pubkey.point(),
                digest: s.sighash,
                signature: s.signature,
                recovery: s.recovery,
            }));
            spans.push((tx, scripts, start..items.len()));
        }
        if items.is_empty() {
            return BatchStats::default();
        }
        let outcome = verify_batch(&items, seed);
        for (tx, scripts, range) in spans {
            if !outcome.invalid.iter().any(|&i| range.contains(&i)) {
                prime_sig_cache(tx, &scripts);
            }
        }
        outcome.stats
    }

    /// Number of unspent coins.
    pub fn len(&self) -> usize {
        self.coins.len()
    }

    /// True when no coins exist.
    pub fn is_empty(&self) -> bool {
        self.coins.is_empty()
    }

    /// Inserts a coin, maintaining the address index.
    fn insert_coin(&mut self, outpoint: OutPoint, coin: Coin) {
        if let ScriptPubKey::P2pkh(address) = &coin.script_pubkey {
            self.by_address
                .entry(*address)
                .or_default()
                .insert(outpoint);
        }
        self.coins.insert(outpoint, coin);
    }

    /// Removes a coin, maintaining the address index.
    fn remove_coin(&mut self, outpoint: &OutPoint) -> Option<Coin> {
        let coin = self.coins.remove(outpoint)?;
        if let ScriptPubKey::P2pkh(address) = &coin.script_pubkey {
            if let Some(owned) = self.by_address.get_mut(address) {
                owned.remove(outpoint);
                if owned.is_empty() {
                    self.by_address.remove(address);
                }
            }
        }
        Some(coin)
    }

    /// Total value held by an address (index lookup, O(coins owned)).
    pub fn balance_of(&self, address: &Address) -> Amount {
        let Some(owned) = self.by_address.get(address) else {
            return Amount::ZERO;
        };
        owned
            .iter()
            .filter_map(|op| self.coins.get(op).map(|c| c.value))
            .sum()
    }

    /// All spendable outpoints of an address at `height` (excludes immature
    /// coinbases), sorted for determinism.
    pub fn spendable_by(&self, address: &Address, height: u64) -> Vec<(OutPoint, Coin)> {
        let Some(owned) = self.by_address.get(address) else {
            return Vec::new();
        };
        // The index's BTreeSet is already outpoint-sorted.
        owned
            .iter()
            .filter_map(|op| {
                let coin = self.coins.get(op)?;
                if coin.is_coinbase && height < coin.height + self.maturity {
                    return None;
                }
                Some((*op, coin.clone()))
            })
            .collect()
    }

    /// Validates a non-coinbase transaction against the current set,
    /// returning the fee it pays.
    ///
    /// # Errors
    ///
    /// See [`UtxoError`].
    pub fn validate_transaction(&self, tx: &Transaction, height: u64) -> Result<Amount, UtxoError> {
        validate_against(self, tx, height)
    }

    /// Block-template selection: the transactions of `txs`, in order, that
    /// validate at `height` on top of this set and the ones selected before
    /// them (so a child may spend its unconfirmed parent, and of two
    /// conflicting spends the first wins), with the fees they pay in total.
    /// Invalid candidates are dropped; the set is not touched.
    pub fn select_valid(&self, txs: Vec<Transaction>, height: u64) -> (Vec<Transaction>, Amount) {
        let mut overlay = BlockOverlay::new(self);
        let mut selected = Vec::with_capacity(txs.len());
        for tx in txs {
            if overlay.stage(&tx, height).is_ok() {
                selected.push(tx);
            }
        }
        (selected, overlay.fees)
    }

    /// Applies a structurally valid block at `height`, returning the undo
    /// log. On error the set is left unchanged.
    ///
    /// The block's transactions are validated against a staged overlay of
    /// the live set (no scratch clone); only once everything validates do
    /// the staged changes commit atomically.
    ///
    /// # Errors
    ///
    /// See [`UtxoError`]; also enforces the coinbase value rule
    /// (subsidy + fees).
    pub fn apply_block(
        &mut self,
        block: &Block,
        height: u64,
        subsidy: Amount,
    ) -> Result<UndoLog, UtxoError> {
        let staged = self.stage_block(block, height, subsidy)?;
        Ok(self.commit_staged(staged))
    }

    /// Validates the whole block against the live set plus an in-block
    /// overlay, without mutating anything.
    fn stage_block(
        &self,
        block: &Block,
        height: u64,
        subsidy: Amount,
    ) -> Result<StagedBlock, UtxoError> {
        let mut overlay = BlockOverlay::new(self);
        for tx in block.transactions.iter().skip(1) {
            overlay.stage(tx, height)?;
        }

        // Coinbase value rule.
        let coinbase = &block.transactions[0];
        let allowed = subsidy
            .checked_add(overlay.fees)
            .ok_or(UtxoError::ValueOutOfRange)?;
        let claimed = coinbase.total_output();
        if claimed > allowed {
            return Err(UtxoError::ExcessiveCoinbase { claimed, allowed });
        }
        overlay.create_outputs(coinbase, height, true);

        Ok(overlay.into_staged())
    }

    /// Commits a staged block. Infallible: every spent coin was cloned out
    /// of this very set while staging held the borrow, so the removals
    /// cannot miss.
    fn commit_staged(&mut self, staged: StagedBlock) -> UndoLog {
        let mut undo = UndoLog::default();
        for (outpoint, coin) in staged.spent {
            self.remove_coin(&outpoint);
            undo.spent.push((outpoint, coin));
        }
        for (outpoint, coin) in staged.created {
            self.insert_coin(outpoint, coin);
            undo.created.push(outpoint);
        }
        undo
    }

    /// Sum of every unspent coin's value, or `None` on overflow. The
    /// audit invariant checker compares this against the total subsidy
    /// issued on the active chain (value conservation across reorgs).
    pub fn total_value(&self) -> Option<Amount> {
        self.coins
            .values()
            .try_fold(Amount::ZERO, |acc, coin| acc.checked_add(coin.value))
    }

    /// A deterministic digest of the full set — every coin (sorted by
    /// outpoint), the derived address index, and the maturity parameter.
    /// Two sets with equal fingerprints are byte-identical, which lets
    /// differential tests compare an incrementally maintained set against
    /// a from-scratch rebuild without serializing either.
    pub fn fingerprint(&self) -> btcfast_crypto::Hash256 {
        use btcfast_crypto::sha256::Sha256;
        let mut hasher = Sha256::new();
        hasher.update(&self.maturity.to_le_bytes());
        let mut outpoints: Vec<&OutPoint> = self.coins.keys().collect();
        outpoints.sort_unstable();
        for outpoint in outpoints {
            let coin = &self.coins[outpoint];
            hasher.update(&outpoint.txid.0);
            hasher.update(&outpoint.vout.to_le_bytes());
            hasher.update(&coin.value.to_sats().to_le_bytes());
            let mut script = Vec::new();
            coin.script_pubkey.encode_to(&mut script);
            hasher.update(&script);
            hasher.update(&coin.height.to_le_bytes());
            hasher.update(&[coin.is_coinbase as u8]);
        }
        let mut addresses: Vec<&Address> = self.by_address.keys().collect();
        addresses.sort_unstable();
        for address in addresses {
            hasher.update(&address.0);
            for outpoint in &self.by_address[address] {
                hasher.update(&outpoint.txid.0);
                hasher.update(&outpoint.vout.to_le_bytes());
            }
            hasher.update(&[0xFD]); // address-record separator
        }
        btcfast_crypto::Hash256(hasher.finalize())
    }

    /// Rolls back a previously applied block using its undo log, restoring
    /// the exact pre-block set (coins created and spent within the block
    /// net out of the log entirely).
    pub fn undo_block(&mut self, undo: &UndoLog) {
        for outpoint in &undo.created {
            self.remove_coin(outpoint);
        }
        for (outpoint, coin) in undo.spent.iter().rev() {
            self.insert_coin(*outpoint, coin.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;
    use crate::params::ChainParams;
    use crate::pow::hash_meets_target;
    use crate::transaction::{TxIn, TxOut};
    use btcfast_crypto::keys::KeyPair;
    use btcfast_crypto::Hash256;

    fn sats(v: u64) -> Amount {
        Amount::from_sats(v).unwrap()
    }

    struct Fixture {
        utxo: UtxoSet,
        miner: KeyPair,
        params: ChainParams,
        height: u64,
        prev_hash: Hash256,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                utxo: UtxoSet::new(crate::params::COINBASE_MATURITY),
                miner: KeyPair::from_seed(b"miner"),
                params: ChainParams::regtest(),
                height: 0,
                prev_hash: Hash256::ZERO,
            }
        }

        fn mine(&mut self, txs: Vec<Transaction>) -> (Block, UndoLog) {
            self.height += 1;
            let subsidy = sats(self.params.subsidy_at(self.height));
            // Fees accrue to the coinbase in a real miner; keep subsidy-only
            // coinbases here for simplicity.
            let coinbase = Transaction::coinbase(self.height, subsidy, self.miner.address(), b"");
            let mut transactions = vec![coinbase];
            transactions.extend(txs);
            let merkle_root = Block::compute_merkle_root(&transactions);
            let mut header = BlockHeader {
                version: 1,
                prev_hash: self.prev_hash,
                merkle_root,
                time: self.height * 600,
                bits: self.params.pow_limit_bits,
                nonce: 0,
            };
            let target = header.target().unwrap();
            while !hash_meets_target(&header.hash(), &target) {
                header.nonce += 1;
            }
            let block = Block {
                header,
                transactions,
            };
            self.prev_hash = block.hash();
            let undo = self
                .utxo
                .apply_block(&block, self.height, subsidy)
                .expect("valid block");
            (block, undo)
        }

        /// Builds a signed spend of the miner's coinbase from `block`.
        fn spend_coinbase(&self, block: &Block, to: Address, value: Amount) -> Transaction {
            let coinbase = &block.transactions[0];
            let outpoint = OutPoint {
                txid: coinbase.txid(),
                vout: 0,
            };
            let coin_value = coinbase.outputs[0].value;
            let change = coin_value - value - sats(1000); // 1000 sats fee
            let mut tx = Transaction::new(
                vec![TxIn::spend(outpoint)],
                vec![
                    TxOut::payment(value, to),
                    TxOut::payment(change, self.miner.address()),
                ],
            );
            tx.sign_input(0, &self.miner, &coinbase.outputs[0].script_pubkey)
                .unwrap();
            tx
        }
    }

    #[test]
    fn coinbase_creates_coins() {
        let mut fx = Fixture::new();
        let (block, _) = fx.mine(vec![]);
        assert_eq!(fx.utxo.len(), 1);
        assert_eq!(
            fx.utxo.balance_of(&fx.miner.address()),
            block.transactions[0].outputs[0].value
        );
    }

    #[test]
    fn spend_moves_value() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        fx.mine(vec![pay]);
        assert_eq!(fx.utxo.balance_of(&customer.address()), sats(1_000_000));
    }

    #[test]
    fn fee_computed() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        let fee = fx.utxo.validate_transaction(&pay, 2).unwrap();
        assert_eq!(fee, sats(1000));
    }

    #[test]
    fn double_spend_within_set_rejected() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay1 = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        fx.mine(vec![pay1]);
        // Second spend of the same coinbase — coin is gone.
        let pay2 = fx.spend_coinbase(&b1, customer.address(), sats(2_000_000));
        let err = fx.utxo.validate_transaction(&pay2, fx.height + 1);
        assert!(matches!(err, Err(UtxoError::MissingCoin(_))));
    }

    #[test]
    fn missing_coin_rejected() {
        let fx = Fixture::new();
        let ghost = OutPoint {
            txid: Hash256([7; 32]),
            vout: 0,
        };
        let key = KeyPair::from_seed(b"x");
        let mut tx = Transaction::new(
            vec![TxIn::spend(ghost)],
            vec![TxOut::payment(sats(1), key.address())],
        );
        tx.sign_input(0, &key, &ScriptPubKey::P2pkh(key.address()))
            .unwrap();
        assert_eq!(
            fx.utxo.validate_transaction(&tx, 1),
            Err(UtxoError::MissingCoin(ghost))
        );
    }

    #[test]
    fn immature_coinbase_rejected() {
        let mut fx = Fixture::new();
        fx.utxo = UtxoSet::new(100); // long maturity
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        let err = fx.utxo.validate_transaction(&pay, 2);
        assert!(matches!(err, Err(UtxoError::ImmatureCoinbase { .. })));
        // Mature later.
        assert!(fx.utxo.validate_transaction(&pay, 101).is_ok());
    }

    #[test]
    fn outputs_exceeding_inputs_rejected() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let coinbase = &b1.transactions[0];
        let outpoint = OutPoint {
            txid: coinbase.txid(),
            vout: 0,
        };
        let mut tx = Transaction::new(
            vec![TxIn::spend(outpoint)],
            vec![TxOut::payment(
                coinbase.outputs[0].value + sats(1),
                fx.miner.address(),
            )],
        );
        tx.sign_input(0, &fx.miner, &coinbase.outputs[0].script_pubkey)
            .unwrap();
        assert_eq!(
            fx.utxo.validate_transaction(&tx, 2),
            Err(UtxoError::ValueOutOfRange)
        );
    }

    #[test]
    fn locktime_enforced() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let mut pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        pay.lock_time = 100;
        // Witness must be refreshed since lock_time changed the sighash.
        let coinbase = &b1.transactions[0];
        pay.sign_input(0, &fx.miner, &coinbase.outputs[0].script_pubkey)
            .unwrap();
        assert_eq!(
            fx.utxo.validate_transaction(&pay, 2),
            Err(UtxoError::NotFinal)
        );
        assert!(fx.utxo.validate_transaction(&pay, 100).is_ok());
    }

    #[test]
    fn undo_restores_exact_state() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let before = fx.utxo.clone();
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        let (_, undo) = fx.mine(vec![pay]);
        assert_ne!(fx.utxo.len(), before.len());
        fx.utxo.undo_block(&undo);
        assert_eq!(fx.utxo.coins, before.coins);
    }

    #[test]
    fn excessive_coinbase_rejected() {
        let fx = Fixture::new();
        let params = ChainParams::regtest();
        let coinbase =
            Transaction::coinbase(1, sats(params.subsidy_at(1) + 1), fx.miner.address(), b"");
        let transactions = vec![coinbase];
        let merkle_root = Block::compute_merkle_root(&transactions);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: Hash256::ZERO,
            merkle_root,
            time: 600,
            bits: params.pow_limit_bits,
            nonce: 0,
        };
        let target = header.target().unwrap();
        while !hash_meets_target(&header.hash(), &target) {
            header.nonce += 1;
        }
        let block = Block {
            header,
            transactions,
        };
        let mut utxo = fx.utxo.clone();
        let err = utxo.apply_block(&block, 1, sats(params.subsidy_at(1)));
        assert!(matches!(err, Err(UtxoError::ExcessiveCoinbase { .. })));
        // Failed application left the set untouched.
        assert_eq!(utxo.len(), fx.utxo.len());
    }

    #[test]
    fn op_return_outputs_not_stored() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let coinbase = &b1.transactions[0];
        let outpoint = OutPoint {
            txid: coinbase.txid(),
            vout: 0,
        };
        let mut tx = Transaction::new(
            vec![TxIn::spend(outpoint)],
            vec![
                TxOut::data(b"payment intent".to_vec()),
                TxOut::payment(coinbase.outputs[0].value - sats(500), fx.miner.address()),
            ],
        );
        tx.sign_input(0, &fx.miner, &coinbase.outputs[0].script_pubkey)
            .unwrap();
        let before = fx.utxo.len();
        fx.mine(vec![tx]);
        // One coin spent, one payment + one coinbase created; OP_RETURN skipped.
        assert_eq!(fx.utxo.len(), before - 1 + 2);
    }

    #[test]
    fn in_block_chain_applies_and_undoes_exactly() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        // Chained spend of `pay`'s output 0 within the same block.
        let merchant = KeyPair::from_seed(b"merchant");
        let chained_in = OutPoint {
            txid: pay.txid(),
            vout: 0,
        };
        let mut chained = Transaction::new(
            vec![TxIn::spend(chained_in)],
            vec![TxOut::payment(sats(999_000), merchant.address())],
        );
        chained
            .sign_input(0, &customer, &pay.outputs[0].script_pubkey)
            .unwrap();

        let before = fx.utxo.clone();
        let (_, undo) = fx.mine(vec![pay, chained]);
        // The chained coin was consumed in-block; only its successor lives.
        assert_eq!(fx.utxo.coin(&chained_in), None);
        assert_eq!(fx.utxo.balance_of(&merchant.address()), sats(999_000));
        fx.utxo.undo_block(&undo);
        assert_eq!(fx.utxo, before);
    }

    #[test]
    fn failed_block_leaves_set_and_index_untouched() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        let double = fx.spend_coinbase(&b1, customer.address(), sats(2_000_000));
        let before = fx.utxo.clone();
        // Build a block spending the same coinbase twice: second tx fails.
        let subsidy = sats(fx.params.subsidy_at(fx.height + 1));
        let coinbase = Transaction::coinbase(fx.height + 1, subsidy, fx.miner.address(), b"");
        let transactions = vec![coinbase, pay, double];
        let merkle_root = Block::compute_merkle_root(&transactions);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: fx.prev_hash,
            merkle_root,
            time: (fx.height + 1) * 600,
            bits: fx.params.pow_limit_bits,
            nonce: 0,
        };
        let target = header.target().unwrap();
        while !hash_meets_target(&header.hash(), &target) {
            header.nonce += 1;
        }
        let block = Block {
            header,
            transactions,
        };
        let err = fx.utxo.apply_block(&block, fx.height + 1, subsidy);
        assert!(matches!(err, Err(UtxoError::MissingCoin(_))));
        assert_eq!(fx.utxo, before);
    }

    #[test]
    fn address_index_matches_full_scan() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        let (_, undo) = fx.mine(vec![pay]);
        fx.mine(vec![]);
        for addr in [fx.miner.address(), customer.address()] {
            let scanned: Amount = fx
                .utxo
                .coins
                .values()
                .filter_map(|c| match &c.script_pubkey {
                    ScriptPubKey::P2pkh(a) if *a == addr => Some(c.value),
                    _ => None,
                })
                .sum();
            assert_eq!(fx.utxo.balance_of(&addr), scanned);
        }
        // The index survives undo too.
        fx.utxo.undo_block(&undo);
        assert_eq!(fx.utxo.balance_of(&customer.address()), Amount::ZERO);
        let mut rebuilt = UtxoSet::new(fx.utxo.maturity);
        for (op, coin) in &fx.utxo.coins {
            rebuilt.insert_coin(*op, coin.clone());
        }
        assert_eq!(fx.utxo.by_address, rebuilt.by_address);
    }

    #[test]
    fn sig_cache_hit_preserves_validity_and_rejects_tampering() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        fx.mine(vec![]);
        let customer = KeyPair::from_seed(b"customer");
        let valid = fx.spend_coinbase(&b1, customer.address(), sats(5_000));
        let height = fx.height + 1;

        // First validation verifies ECDSA and warms the cache; the second
        // hits it. Both must agree exactly — and the per-thread counters
        // observe exactly one miss then one hit.
        reset_sig_cache_stats();
        let cold = fx.utxo.validate_transaction(&valid, height).unwrap();
        let after_cold = sig_cache_stats();
        let warm = fx.utxo.validate_transaction(&valid, height).unwrap();
        let after_warm = sig_cache_stats();
        assert_eq!(cold, warm);
        assert_eq!((after_cold.hits, after_cold.misses), (0, 1));
        assert_eq!((after_warm.hits, after_warm.misses), (1, 1));

        // A tampered witness (same core transaction, wrong key) keys a
        // different cache entry, so the cached success cannot leak: the
        // tampered copy must still fail signature verification.
        let mut tampered = valid.clone();
        let wrong = KeyPair::from_seed(b"not the miner");
        tampered
            .sign_input(0, &wrong, &b1.transactions[0].outputs[0].script_pubkey)
            .unwrap();
        assert_eq!(tampered.txid(), valid.txid(), "witness is not in the txid");
        assert!(fx.utxo.validate_transaction(&tampered, height).is_err());
        // And the valid transaction still validates afterwards.
        fx.utxo.validate_transaction(&valid, height).unwrap();
    }

    /// Three mature coinbases and one spend of each to `to`.
    fn three_spends(fx: &mut Fixture, to: Address) -> Vec<Transaction> {
        let blocks: Vec<Block> = (0..3).map(|_| fx.mine(vec![]).0).collect();
        fx.mine(vec![]);
        blocks
            .iter()
            .map(|block| fx.spend_coinbase(block, to, sats(7_000)))
            .collect()
    }

    #[test]
    fn primed_cache_entry_replays_a_sequential_verification_exactly() {
        let mut fx = Fixture::new();
        let customer = KeyPair::from_seed(b"primed customer");
        let txs = three_spends(&mut fx, customer.address());
        let height = fx.height + 1;

        // An all-valid batch primes every transaction, and the validations
        // that follow add no miss.
        clear_sig_cache();
        reset_sig_cache_stats();
        let batch = fx.utxo.preverify_signatures(&txs, 42);
        assert_eq!(batch.items, 3);
        let primed: Vec<Amount> = txs
            .iter()
            .map(|tx| fx.utxo.validate_transaction(tx, height).unwrap())
            .collect();
        let stats = sig_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.primed), (3, 0, 3));

        // A primed hit returns exactly what a sequential validation does.
        clear_sig_cache();
        reset_sig_cache_stats();
        let sequential: Vec<Amount> = txs
            .iter()
            .map(|tx| fx.utxo.validate_transaction(tx, height).unwrap())
            .collect();
        assert_eq!(primed, sequential);
        assert_eq!(sig_cache_stats().misses, 3);
    }

    #[test]
    fn one_bad_signature_leaves_exactly_that_transaction_unprimed() {
        let mut fx = Fixture::new();
        let customer = KeyPair::from_seed(b"stale customer");
        let mut txs = three_spends(&mut fx, customer.address());
        let height = fx.height + 1;
        // Right key, stale signature: the witness passes every cheap script
        // rule and only ECDSA can tell.
        txs[1].outputs[0].value = sats(6_999);

        clear_sig_cache();
        let plain = fx.utxo.validate_transaction(&txs[1], height);
        assert!(matches!(plain, Err(UtxoError::Tx(_))), "{plain:?}");

        clear_sig_cache();
        reset_sig_cache_stats();
        let batch = fx.utxo.preverify_signatures(&txs, 43);
        assert_eq!(batch.items, 3);
        assert_eq!(sig_cache_stats().primed, 2);
        assert_eq!(fx.utxo.validate_transaction(&txs[1], height), plain);
        assert_eq!(sig_cache_stats().misses, 1, "the bad one ran ECDSA");
        fx.utxo.validate_transaction(&txs[0], height).unwrap();
        fx.utxo.validate_transaction(&txs[2], height).unwrap();
        assert_eq!(sig_cache_stats().hits, 2);
    }

    #[test]
    fn preverification_skips_what_it_cannot_state() {
        let mut fx = Fixture::new();
        let customer = KeyPair::from_seed(b"skipped customer");
        let mut txs = three_spends(&mut fx, customer.address());
        let height = fx.height + 1;
        // An unknown coin and a missing witness are left to the sequential
        // path, which names them.
        let ghost = OutPoint {
            txid: Hash256([7; 32]),
            vout: 0,
        };
        txs[0].inputs[0].previous_output = ghost;
        txs[2].inputs[0].witness = None;

        clear_sig_cache();
        reset_sig_cache_stats();
        let batch = fx.utxo.preverify_signatures(&txs, 44);
        assert_eq!(batch.items, 1);
        assert_eq!(sig_cache_stats().primed, 1);
        assert_eq!(
            fx.utxo.validate_transaction(&txs[0], height),
            Err(UtxoError::MissingCoin(ghost))
        );
        assert!(matches!(
            fx.utxo.validate_transaction(&txs[2], height),
            Err(UtxoError::Tx(_))
        ));
        assert_eq!(
            fx.utxo.preverify_signatures(&txs[..1], 45),
            BatchStats::default()
        );
    }

    #[test]
    fn template_selection_chains_drops_and_resolves_conflicts_in_order() {
        let mut fx = Fixture::new();
        let customer = KeyPair::from_seed(b"template customer");
        let merchant = KeyPair::from_seed(b"template merchant");
        let (b1, _) = fx.mine(vec![]);
        let txs = three_spends(&mut fx, customer.address());
        let height = fx.height + 1;

        // A child spending its unconfirmed parent: both stay.
        let parent = txs[0].clone();
        let mut child = Transaction::new(
            vec![TxIn::spend(OutPoint {
                txid: parent.txid(),
                vout: 0,
            })],
            vec![TxOut::payment(sats(6_500), merchant.address())],
        );
        child
            .sign_input(0, &customer, &parent.outputs[0].script_pubkey)
            .unwrap();
        // An invalid one in the middle (stale signature) is dropped and the
        // independent spend after it kept.
        let mut stale = txs[1].clone();
        stale.outputs[0].value = sats(6_999);
        // Of two spends of the same coin the first wins.
        let first = fx.spend_coinbase(&b1, customer.address(), sats(1_000));
        let second = fx.spend_coinbase(&b1, merchant.address(), sats(2_000));

        let candidates = vec![
            parent.clone(),
            child.clone(),
            stale,
            txs[2].clone(),
            first.clone(),
            second,
        ];
        let (selected, fees) = fx.utxo.select_valid(candidates, height);
        assert_eq!(selected, vec![parent, child, txs[2].clone(), first]);
        // Three coinbase spends pay 1000 each, the child 500.
        assert_eq!(fees, sats(3_500));
    }

    #[test]
    fn fingerprint_tracks_content_not_history() {
        let mut fx = Fixture::new();
        let (b1, _) = fx.mine(vec![]);
        let empty = UtxoSet::new(fx.utxo.maturity);
        assert_ne!(fx.utxo.fingerprint(), empty.fingerprint());

        // Apply-then-undo returns to the exact prior fingerprint.
        let before = fx.utxo.fingerprint();
        let customer = KeyPair::from_seed(b"customer");
        let pay = fx.spend_coinbase(&b1, customer.address(), sats(1_000_000));
        let (_, undo) = fx.mine(vec![pay]);
        assert_ne!(fx.utxo.fingerprint(), before);
        fx.utxo.undo_block(&undo);
        assert_eq!(fx.utxo.fingerprint(), before);

        // A rebuilt set with the same coins fingerprints identically.
        let mut rebuilt = UtxoSet::new(fx.utxo.maturity);
        for (op, coin) in &fx.utxo.coins {
            rebuilt.insert_coin(*op, coin.clone());
        }
        assert_eq!(rebuilt.fingerprint(), before);
    }

    #[test]
    fn total_value_sums_all_coins() {
        let mut fx = Fixture::new();
        fx.mine(vec![]);
        fx.mine(vec![]);
        let expected = sats(fx.params.subsidy_at(1) + fx.params.subsidy_at(2));
        assert_eq!(fx.utxo.total_value(), Some(expected));
    }

    #[test]
    fn spendable_by_respects_maturity_and_sorts() {
        let mut fx = Fixture::new();
        fx.utxo = UtxoSet::new(100);
        fx.mine(vec![]);
        fx.mine(vec![]);
        let addr = fx.miner.address();
        assert!(fx.utxo.spendable_by(&addr, 3).is_empty());
        let mature = fx.utxo.spendable_by(&addr, 101);
        assert_eq!(mature.len(), 1); // only height-1 coinbase matured
        assert_eq!(fx.utxo.spendable_by(&addr, 200).len(), 2);
    }
}
