//! The world state: accounts and contract storage.

use crate::account::{Account, AccountId};
use crate::trie::{self, Trie, KEY_ACCOUNT, KEY_STORAGE, LEAF};
use btcfast_crypto::Hash256;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Balance movement failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// Debit larger than the account balance.
    InsufficientBalance {
        /// The account debited.
        account: AccountId,
        /// Balance available.
        available: u128,
        /// Amount requested.
        requested: u128,
    },
    /// Credit that would push the account balance past `u128::MAX`.
    BalanceOverflow {
        /// The account credited.
        account: AccountId,
        /// Balance before the credit.
        balance: u128,
        /// Amount that did not fit.
        amount: u128,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance {
                account,
                available,
                requested,
            } => write!(
                f,
                "insufficient balance on {account}: have {available}, need {requested}"
            ),
            StateError::BalanceOverflow {
                account,
                balance,
                amount,
            } => write!(
                f,
                "balance overflow on {account}: {balance} + {amount} exceeds u128"
            ),
        }
    }
}

impl Error for StateError {}

/// The pre-image of one touched entry, recorded while a transaction is
/// open so [`WorldState::rollback`] can restore it.
#[derive(Clone, Debug)]
enum JournalEntry {
    Account {
        id: AccountId,
        prev: Option<Account>,
    },
    Storage {
        contract: AccountId,
        key: Vec<u8>,
        prev: Option<Vec<u8>>,
    },
}

/// A position in the write journal returned by
/// [`WorldState::begin_transaction`]. Consume it with
/// [`WorldState::commit`] or [`WorldState::rollback`].
#[derive(Debug)]
#[must_use = "a checkpoint must be committed or rolled back"]
pub struct Checkpoint(usize);

/// One state entry — the unit the commitment is marked dirty by.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Account(AccountId),
    Storage(AccountId, Vec<u8>),
}

/// Commitment-maintenance counters (observability, like
/// [`WorldState::journal_high_water`]): deterministic, never consulted by
/// execution, excluded from equality and from every replay fingerprint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Entries in the trie as of the last `commitment()` call.
    pub leaves: usize,
    /// Most distinct entries any one `commitment()` call had to refresh.
    pub dirty_high_water: usize,
    /// Leaf and branch hashes computed since construction.
    pub nodes_hashed: u64,
}

/// The incrementally maintained Merkle commitment: the trie as of the last
/// [`WorldState::commitment`] call plus the entries written since.
#[derive(Clone, Debug, Default)]
struct Commit {
    trie: Trie,
    dirty: Vec<Slot>,
    stats: CommitStats,
}

impl Commit {
    /// Re-reads every dirty entry from `state`'s maps into the trie
    /// (present: set its leaf; absent: remove it) and returns the root.
    fn refresh(&mut self, state: &WorldState) -> trie::Digest {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        self.stats.dirty_high_water = self.stats.dirty_high_water.max(self.dirty.len());
        for slot in self.dirty.drain(..) {
            let (key, leaf) = match &slot {
                Slot::Account(id) => {
                    let key = trie::hash_parts(KEY_ACCOUNT, &[&id.0]);
                    let leaf = state.accounts.get(id).map(|account| {
                        let code = account.code_id.as_deref();
                        let balance = account.balance.to_le_bytes();
                        let nonce = account.nonce.to_le_bytes();
                        let flag = [code.is_some() as u8];
                        let code = code.unwrap_or("").as_bytes();
                        trie::hash_parts(LEAF, &[&key, &balance, &nonce, &flag, code])
                    });
                    (key, leaf)
                }
                Slot::Storage(contract, slot_key) => {
                    let key = trie::hash_parts(KEY_STORAGE, &[&contract.0, slot_key]);
                    let value = state.storage_get(contract, slot_key);
                    (key, value.map(|v| trie::hash_parts(LEAF, &[&key, v])))
                }
            };
            self.trie.set(&key, leaf);
        }
        let root = self.trie.root();
        (self.stats.leaves, self.stats.nodes_hashed) = (self.trie.leaves, self.trie.hashed);
        root
    }
}

/// Accounts plus per-contract key/value storage.
///
/// Between [`begin_transaction`](WorldState::begin_transaction) and
/// [`commit`](WorldState::commit)/[`rollback`](WorldState::rollback) every
/// mutation records the pre-image of the entry it touches, so reverting a
/// transaction costs O(touched keys) rather than O(state size) — no
/// whole-state snapshot clone is ever taken.
#[derive(Clone, Debug, Default)]
pub struct WorldState {
    accounts: BTreeMap<AccountId, Account>,
    /// Nested per contract so a read borrows its `&[u8]` key instead of
    /// building an owned tuple; a contract with no slots has no entry.
    storage: BTreeMap<AccountId, BTreeMap<Vec<u8>, Vec<u8>>>,
    /// Pre-images of entries touched since the outermost open checkpoint.
    journal: Vec<JournalEntry>,
    /// True while a transaction is open; mutations outside one skip the
    /// journal entirely.
    recording: bool,
    /// Deepest the journal has ever grown (observability: the checkpoint
    /// depth metric). Like the journal itself, excluded from equality.
    journal_high_water: usize,
    /// A cache of a pure function of the two maps, so equality ignores it;
    /// in a `RefCell` because `commitment(&self)` refreshes it.
    commit: RefCell<Commit>,
}

impl PartialEq for WorldState {
    fn eq(&self, other: &WorldState) -> bool {
        // The journal is transient bookkeeping, not state: two states with
        // identical content are equal regardless of open transactions.
        self.accounts == other.accounts && self.storage == other.storage
    }
}

impl Eq for WorldState {}

impl WorldState {
    /// Creates an empty state.
    pub fn new() -> WorldState {
        WorldState::default()
    }

    /// Read-only account lookup.
    pub fn account(&self, id: &AccountId) -> Option<&Account> {
        self.accounts.get(id)
    }

    /// Journals a pre-image, tracking the high-water depth.
    fn record(&mut self, entry: JournalEntry) {
        self.journal.push(entry);
        self.journal_high_water = self.journal_high_water.max(self.journal.len());
    }

    /// Marks an entry as written since the last `commitment()`.
    fn touch(&mut self, slot: Slot) {
        self.commit.get_mut().dirty.push(slot);
    }

    /// Mutable account access, creating a default record on first touch.
    pub fn account_mut(&mut self, id: AccountId) -> &mut Account {
        if self.recording {
            let prev = self.accounts.get(&id).cloned();
            self.record(JournalEntry::Account { id, prev });
        }
        self.touch(Slot::Account(id));
        self.accounts.entry(id).or_default()
    }

    /// Balance of an account (0 when absent).
    pub fn balance(&self, id: &AccountId) -> u128 {
        self.accounts.get(id).map(|a| a.balance).unwrap_or(0)
    }

    /// Nonce of an account (0 when absent).
    pub fn nonce(&self, id: &AccountId) -> u64 {
        self.accounts.get(id).map(|a| a.nonce).unwrap_or(0)
    }

    /// Credits an account.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BalanceOverflow`] if the balance would
    /// exceed `u128::MAX`; the state is unchanged in that case. Fuzzed
    /// faucet/transfer schedules reach this path, so it must be a typed
    /// error rather than a panic.
    pub fn credit(&mut self, id: AccountId, amount: u128) -> Result<(), StateError> {
        let balance = self.balance(&id);
        let new_balance = balance
            .checked_add(amount)
            .ok_or(StateError::BalanceOverflow {
                account: id,
                balance,
                amount,
            })?;
        self.account_mut(id).balance = new_balance;
        Ok(())
    }

    /// Debits an account.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] if the balance is short.
    pub fn debit(&mut self, id: AccountId, amount: u128) -> Result<(), StateError> {
        let balance = self.balance(&id);
        if balance < amount {
            return Err(StateError::InsufficientBalance {
                account: id,
                available: balance,
                requested: amount,
            });
        }
        self.account_mut(id).balance = balance - amount;
        Ok(())
    }

    /// Moves value between accounts atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] if `from` is short and
    /// [`StateError::BalanceOverflow`] if `to` cannot absorb the amount;
    /// no state changes in either case.
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: u128,
    ) -> Result<(), StateError> {
        self.debit(from, amount)?;
        if let Err(e) = self.credit(to, amount) {
            self.credit(from, amount)
                .expect("restoring a just-debited balance cannot overflow");
            return Err(e);
        }
        Ok(())
    }

    /// Reads a contract storage slot.
    pub fn storage_get(&self, contract: &AccountId, key: &[u8]) -> Option<&Vec<u8>> {
        self.storage.get(contract)?.get(key)
    }

    /// Writes a contract storage slot, returning the previous value.
    pub fn storage_set(
        &mut self,
        contract: AccountId,
        key: Vec<u8>,
        value: Vec<u8>,
    ) -> Option<Vec<u8>> {
        self.touch(Slot::Storage(contract, key.clone()));
        let slots = self.storage.entry(contract).or_default();
        if self.recording {
            let prev = slots.insert(key.clone(), value);
            self.record(JournalEntry::Storage {
                contract,
                key,
                prev: prev.clone(),
            });
            prev
        } else {
            slots.insert(key, value)
        }
    }

    /// Removes a slot from the nested map, dropping the contract's entry
    /// with its last slot (equality compares the maps as they are).
    fn take_slot(&mut self, contract: &AccountId, key: &[u8]) -> Option<Vec<u8>> {
        let slots = self.storage.get_mut(contract)?;
        let prev = slots.remove(key);
        if slots.is_empty() {
            self.storage.remove(contract);
        }
        prev
    }

    /// Deletes a contract storage slot, returning the previous value.
    pub fn storage_remove(&mut self, contract: &AccountId, key: &[u8]) -> Option<Vec<u8>> {
        let prev = self.take_slot(contract, key);
        if prev.is_some() {
            self.touch(Slot::Storage(*contract, key.to_vec()));
        }
        if self.recording {
            self.record(JournalEntry::Storage {
                contract: *contract,
                key: key.to_vec(),
                prev: prev.clone(),
            });
        }
        prev
    }

    /// Opens a transaction: mutations from here on record pre-images so
    /// they can be undone. Checkpoints nest — an inner rollback undoes
    /// only the entries made after it.
    pub fn begin_transaction(&mut self) -> Checkpoint {
        self.recording = true;
        Checkpoint(self.journal.len())
    }

    /// Commits the changes made since `checkpoint`.
    ///
    /// Committing a *nested* checkpoint keeps its journal entries: they
    /// still belong to the enclosing transaction's undo set. Committing
    /// the outermost checkpoint clears the journal and stops recording.
    pub fn commit(&mut self, checkpoint: Checkpoint) {
        if checkpoint.0 == 0 {
            self.journal.clear();
            self.recording = false;
        }
    }

    /// Undoes every mutation made since `checkpoint` by replaying the
    /// recorded pre-images newest-first.
    pub fn rollback(&mut self, checkpoint: Checkpoint) {
        while self.journal.len() > checkpoint.0 {
            match self.journal.pop().expect("length checked above") {
                JournalEntry::Account { id, prev } => {
                    match prev {
                        Some(account) => self.accounts.insert(id, account),
                        None => self.accounts.remove(&id),
                    };
                    self.touch(Slot::Account(id));
                }
                JournalEntry::Storage {
                    contract,
                    key,
                    prev,
                } => {
                    match prev {
                        Some(value) => self
                            .storage
                            .entry(contract)
                            .or_default()
                            .insert(key.clone(), value),
                        None => self.take_slot(&contract, &key),
                    };
                    self.touch(Slot::Storage(contract, key));
                }
            }
        }
        if checkpoint.0 == 0 {
            self.recording = false;
        }
    }

    /// Number of journal entries currently recorded (diagnostics).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The deepest the pre-image journal has ever grown — a proxy for the
    /// largest transaction (touched-entry count) this state has executed.
    pub fn journal_high_water(&self) -> usize {
        self.journal_high_water
    }

    /// The Merkle root of the state: a binary trie keyed by
    /// `sha256(domain ‖ key)` over every account and storage slot, with
    /// domain-separated leaf and branch hashes (module `trie`). A pure
    /// function of the two maps — any two histories reaching the same
    /// content commit equally — maintained incrementally: each call
    /// refreshes the entries written since the previous one and re-hashes
    /// only the paths above them, so a clean state costs nothing.
    pub fn commitment(&self) -> Hash256 {
        Hash256(self.commit.borrow_mut().refresh(self))
    }

    /// Counters of the commitment's incremental upkeep.
    pub fn commit_stats(&self) -> CommitStats {
        self.commit.borrow().stats
    }

    /// Test oracle: the root of a fresh trie built from the two maps
    /// alone, with no history of dirty marks, removals or cached hashes.
    /// Differential suites hold `commitment()` equal to this.
    #[doc(hidden)]
    pub fn commitment_from_scratch(&self) -> Hash256 {
        let accounts = self.accounts.keys().map(|id| Slot::Account(*id));
        let slots = self.storage.iter().flat_map(|(contract, slots)| {
            slots
                .keys()
                .map(|key| Slot::Storage(*contract, key.clone()))
        });
        let mut fresh = Commit {
            dirty: accounts.chain(slots).collect(),
            ..Commit::default()
        };
        Hash256(fresh.refresh(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(tag: u8) -> AccountId {
        AccountId([tag; 20])
    }

    #[test]
    fn credit_debit() {
        let mut state = WorldState::new();
        state.credit(id(1), 100).unwrap();
        assert_eq!(state.balance(&id(1)), 100);
        state.debit(id(1), 40).unwrap();
        assert_eq!(state.balance(&id(1)), 60);
    }

    #[test]
    fn overdraft_rejected() {
        let mut state = WorldState::new();
        state.credit(id(1), 10).unwrap();
        let err = state.debit(id(1), 11).unwrap_err();
        assert!(matches!(err, StateError::InsufficientBalance { .. }));
        assert_eq!(state.balance(&id(1)), 10);
    }

    #[test]
    fn credit_overflow_is_typed_not_a_panic() {
        // Found by the audit fuzzer: two faucet mints summing past
        // u128::MAX used to abort on checked_add().expect().
        let mut state = WorldState::new();
        state.credit(id(1), u128::MAX).unwrap();
        let err = state.credit(id(1), 1).unwrap_err();
        assert!(matches!(err, StateError::BalanceOverflow { .. }));
        // The failed credit left the balance untouched.
        assert_eq!(state.balance(&id(1)), u128::MAX);
    }

    #[test]
    fn transfer_overflow_unwinds_the_debit() {
        let mut state = WorldState::new();
        state.credit(id(1), 100).unwrap();
        state.credit(id(2), u128::MAX).unwrap();
        let err = state.transfer(id(1), id(2), 50).unwrap_err();
        assert!(matches!(err, StateError::BalanceOverflow { .. }));
        // Atomic: the debit from the sender was rolled back.
        assert_eq!(state.balance(&id(1)), 100);
        assert_eq!(state.balance(&id(2)), u128::MAX);
    }

    #[test]
    fn transfer_atomicity() {
        let mut state = WorldState::new();
        state.credit(id(1), 50).unwrap();
        state.transfer(id(1), id(2), 20).unwrap();
        assert_eq!(state.balance(&id(1)), 30);
        assert_eq!(state.balance(&id(2)), 20);
        assert!(state.transfer(id(1), id(2), 100).is_err());
        assert_eq!(state.balance(&id(1)), 30);
        assert_eq!(state.balance(&id(2)), 20);
    }

    #[test]
    fn storage_round_trip() {
        let mut state = WorldState::new();
        assert!(state.storage_get(&id(3), b"k").is_none());
        assert!(state
            .storage_set(id(3), b"k".to_vec(), b"v1".to_vec())
            .is_none());
        assert_eq!(state.storage_get(&id(3), b"k").unwrap(), b"v1");
        assert_eq!(
            state.storage_set(id(3), b"k".to_vec(), b"v2".to_vec()),
            Some(b"v1".to_vec())
        );
        assert_eq!(state.storage_remove(&id(3), b"k"), Some(b"v2".to_vec()));
        assert!(state.storage_get(&id(3), b"k").is_none());
    }

    #[test]
    fn storage_isolated_per_contract() {
        let mut state = WorldState::new();
        state.storage_set(id(1), b"k".to_vec(), b"a".to_vec());
        state.storage_set(id(2), b"k".to_vec(), b"b".to_vec());
        assert_eq!(state.storage_get(&id(1), b"k").unwrap(), b"a");
        assert_eq!(state.storage_get(&id(2), b"k").unwrap(), b"b");
    }

    #[test]
    fn commitment_changes_with_state() {
        let mut state = WorldState::new();
        let c0 = state.commitment();
        state.credit(id(1), 1).unwrap();
        let c1 = state.commitment();
        assert_ne!(c0, c1);
        state.storage_set(id(1), b"k".to_vec(), b"v".to_vec());
        let c2 = state.commitment();
        assert_ne!(c1, c2);
    }

    #[test]
    fn rollback_restores_accounts_and_storage() {
        let mut state = WorldState::new();
        state.credit(id(1), 100).unwrap();
        state.storage_set(id(1), b"keep".to_vec(), b"old".to_vec());
        let before = state.clone();

        let cp = state.begin_transaction();
        state.credit(id(1), 50).unwrap();
        state.credit(id(2), 7).unwrap(); // fresh account
        state.account_mut(id(1)).nonce += 1;
        state.storage_set(id(1), b"keep".to_vec(), b"new".to_vec());
        state.storage_set(id(1), b"fresh".to_vec(), b"x".to_vec());
        state.storage_remove(&id(1), b"keep");
        state.rollback(cp);

        assert_eq!(state, before);
        assert_eq!(state.commitment(), before.commitment());
        assert_eq!(state.journal_len(), 0);
    }

    #[test]
    fn commit_keeps_changes_and_clears_journal() {
        let mut state = WorldState::new();
        let cp = state.begin_transaction();
        state.credit(id(1), 42).unwrap();
        state.storage_set(id(1), b"k".to_vec(), b"v".to_vec());
        state.commit(cp);
        assert_eq!(state.balance(&id(1)), 42);
        assert_eq!(state.storage_get(&id(1), b"k").unwrap(), b"v");
        assert_eq!(state.journal_len(), 0);
        // The high-water mark survives the commit (observability), and
        // never affects equality.
        assert_eq!(state.journal_high_water(), 2);
        assert_eq!(state, state.clone());
        // Post-commit mutations no longer journal.
        state.credit(id(1), 1).unwrap();
        assert_eq!(state.journal_len(), 0);
        assert_eq!(state.journal_high_water(), 2);
    }

    #[test]
    fn nested_checkpoints_roll_back_independently() {
        let mut state = WorldState::new();
        state.credit(id(1), 10).unwrap();
        let outer = state.begin_transaction();
        state.credit(id(1), 5).unwrap();
        let inner = state.begin_transaction();
        state.credit(id(1), 100).unwrap();
        state.rollback(inner);
        assert_eq!(state.balance(&id(1)), 15);
        // An inner commit leaves its entries in the outer undo set.
        let inner = state.begin_transaction();
        state.credit(id(2), 9).unwrap();
        state.commit(inner);
        state.rollback(outer);
        assert_eq!(state.balance(&id(1)), 10);
        assert_eq!(state.balance(&id(2)), 0);
    }

    #[test]
    fn equality_ignores_open_journal() {
        let mut a = WorldState::new();
        a.credit(id(1), 10).unwrap();
        let mut b = a.clone();
        let cp = b.begin_transaction();
        b.credit(id(1), 1).unwrap();
        b.rollback(cp);
        let _ = b.begin_transaction(); // leave a transaction open
        assert_eq!(a, b);
        a.credit(id(1), 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn commitment_is_the_trie_definition_over_the_two_maps() {
        // Both the incremental root and the rebuild oracle the external
        // suites compare it to must equal the root *defined* over the
        // sorted (hashed key, encoded value) entries — which also pins
        // the key domains and the account encoding byte for byte.
        let mut state = WorldState::new();
        assert_eq!(state.commitment(), Hash256::ZERO);
        state.credit(id(1), 7).unwrap();
        state.account_mut(id(2)); // default record: present, all zero
        let contract = state.account_mut(id(3));
        contract.code_id = Some("judger".into());
        contract.nonce = 9;
        state.storage_set(id(3), b"slot".to_vec(), b"value".to_vec());
        state.storage_set(id(3), b"gone".to_vec(), b"x".to_vec());
        state.storage_set(id(4), Vec::new(), Vec::new());
        state.storage_remove(&id(3), b"gone");

        let account = |tag: u8, balance: u128, nonce: u64, code: Option<&str>| {
            let mut value = balance.to_le_bytes().to_vec();
            value.extend_from_slice(&nonce.to_le_bytes());
            value.push(code.is_some() as u8);
            value.extend_from_slice(code.unwrap_or("").as_bytes());
            (trie::hash_parts(0x00, &[&[tag; 20]]), value)
        };
        let slot = |tag: u8, key: &[u8], value: &[u8]| {
            (trie::hash_parts(0x01, &[&[tag; 20], key]), value.to_vec())
        };
        let mut entries = vec![
            account(1, 7, 0, None),
            account(2, 0, 0, None),
            account(3, 0, 9, Some("judger")),
            slot(3, b"slot", b"value"),
            slot(4, b"", b""),
        ];
        entries.sort();
        let defined = Hash256(trie::tests::root_by_definition(&entries, 0));
        assert_eq!(state.commitment(), defined);
        assert_eq!(state.commitment_from_scratch(), defined);
        assert_eq!(state.commit_stats().leaves, 5);
    }

    #[test]
    fn commitment_deterministic() {
        let mut a = WorldState::new();
        let mut b = WorldState::new();
        // Different insertion orders, same content.
        a.credit(id(1), 5).unwrap();
        a.credit(id(2), 7).unwrap();
        b.credit(id(2), 7).unwrap();
        b.credit(id(1), 5).unwrap();
        assert_eq!(a.commitment(), b.commitment());
    }
}
