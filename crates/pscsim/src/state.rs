//! The world state: accounts and contract storage.

use crate::account::{Account, AccountId};
use crate::contract::{CallEffects, Event};
use crate::trie::{self, KEY_ACCOUNT, KEY_STORAGE, LEAF};
use btcfast_crypto::Hash256;
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

/// Accounts plus per-contract key/value storage.
///
/// A contract call never writes here directly: it runs in a
/// [`CallStorage`](crate::contract::CallStorage) overlay, which
/// [`WorldState::apply_call`] commits only when the call succeeds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorldState {
    accounts: BTreeMap<AccountId, Account>,
    /// Nested per contract so a read borrows its `&[u8]` key instead of
    /// building an owned tuple; a contract with no slots has no entry.
    storage: BTreeMap<AccountId, BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl WorldState {
    /// Creates an empty state.
    pub fn new() -> WorldState {
        WorldState::default()
    }

    /// Read-only account lookup.
    pub fn account(&self, id: &AccountId) -> Option<&Account> {
        self.accounts.get(id)
    }

    /// Mutable account access, creating a default record on first touch.
    pub fn account_mut(&mut self, id: AccountId) -> &mut Account {
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
        self.storage.entry(contract).or_default().insert(key, value)
    }

    /// Deletes a contract storage slot, returning the previous value. The
    /// contract's entry goes with its last slot (equality compares the
    /// maps as they are).
    pub fn storage_remove(&mut self, contract: &AccountId, key: &[u8]) -> Option<Vec<u8>> {
        let slots = self.storage.get_mut(contract)?;
        let prev = slots.remove(key);
        if slots.is_empty() {
            self.storage.remove(contract);
        }
        prev
    }

    /// Commits a successful call's overlay: every slot it wrote or
    /// removed, and every balance it holds. Each balance goes through
    /// [`WorldState::account_mut`] even when unchanged, so an account that
    /// a 0-value move touched gets its record, as a direct transfer would
    /// give it. Each slot and account appears once, so the maps' order
    /// does not matter. Returns the call's events.
    pub fn apply_call(&mut self, call: CallEffects) -> Vec<Event> {
        for (key, value) in call.writes {
            match value {
                Some(value) => self.storage_set(call.contract, key, value),
                None => self.storage_remove(&call.contract, &key),
            };
        }
        for (id, balance) in call.balances {
            self.account_mut(id).balance = balance;
        }
        call.events
    }

    /// The Merkle root of the state: a binary trie keyed by
    /// `sha256(domain ‖ key)` over every account and storage slot, with
    /// domain-separated leaf and branch hashes (module `trie`). A pure
    /// function of the two maps — any two histories reaching the same
    /// content commit equally — computed afresh on every call: sort the
    /// (hashed key, leaf hash) pairs and split on the next key bit.
    pub fn commitment(&self) -> Hash256 {
        let accounts = self.accounts.iter().map(|(id, account)| {
            let key = trie::hash_parts(KEY_ACCOUNT, &[&id.0]);
            let code = account.code_id.as_deref();
            let balance = account.balance.to_le_bytes();
            let nonce = account.nonce.to_le_bytes();
            let flag = [code.is_some() as u8];
            let code = code.unwrap_or("").as_bytes();
            let leaf = trie::hash_parts(LEAF, &[&key, &balance, &nonce, &flag, code]);
            (key, leaf)
        });
        let slots = self.storage.iter().flat_map(|(contract, slots)| {
            slots.iter().map(|(slot, value)| {
                let key = trie::hash_parts(KEY_STORAGE, &[&contract.0, slot]);
                (key, trie::hash_parts(LEAF, &[&key, value]))
            })
        });
        let mut entries: Vec<_> = accounts.chain(slots).collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        Hash256(trie::root(&entries, 0))
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
    fn commitment_is_the_trie_definition_over_the_two_maps() {
        // The root must be the trie's over the sorted (hashed key, leaf
        // of the encoded value) entries spelled out here — which pins the
        // key domains and the account encoding byte for byte.
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
            let key = trie::hash_parts(0x00, &[&[tag; 20]]);
            (key, trie::hash_parts(0x02, &[&key, &value]))
        };
        let slot = |tag: u8, slot: &[u8], value: &[u8]| {
            let key = trie::hash_parts(0x01, &[&[tag; 20], slot]);
            (key, trie::hash_parts(0x02, &[&key, value]))
        };
        let mut entries = vec![
            account(1, 7, 0, None),
            account(2, 0, 0, None),
            account(3, 0, 9, Some("judger")),
            slot(3, b"slot", b"value"),
            slot(4, b"", b""),
        ];
        entries.sort();
        let defined = Hash256(trie::root(&entries, 0));
        assert_eq!(state.commitment(), defined);
    }

    #[test]
    fn the_root_is_pinned() {
        // Hex roots taken from the incremental trie this definition
        // replaced: any change to the domains, the account encoding or
        // the canonical form moves one of them.
        let pin = |state: &WorldState, hex: &str| assert_eq!(state.commitment().to_hex(), hex);
        let mut state = WorldState::new();
        pin(&state, &"0".repeat(64));
        state.credit(id(1), 7).unwrap();
        pin(
            &state,
            "8ca1effc9b8a2f24c34b21034991af2e6862e0056d2020c1c54de30d5d76d297",
        );

        // Two slots of contract 7 whose hashed keys share their first 16
        // bits: the first pair the brute force of
        // `tests/state_equivalence.rs` finds.
        let (a, b) = (vec![101, 15], vec![0, 15]);
        let hashed = |slot: &[u8]| trie::hash_parts(KEY_STORAGE, &[&id(7).0, slot]);
        assert_eq!(hashed(&a)[..2], hashed(&b)[..2]);
        let mut state = WorldState::new();
        state.storage_set(id(7), a, b"first".to_vec());
        state.storage_set(id(7), b.clone(), b"second".to_vec());
        pin(
            &state,
            "4188029295cfe99745340c5eb9dd0e0cef8f0f1761ac3b652574b95bfea8593f",
        );
        state.storage_remove(&id(7), &b);
        pin(
            &state,
            "183b861eba93cd3cd3af79b78e42d54f2e1e50172d70f7155247eacf05087b0c",
        );
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
