//! Property: a contract call's overlay is **byte-identical** to making its
//! writes directly, and the state root is a function of content alone.
//!
//! Two layers:
//!
//! * state level — a random call (slot sets and removals, the call's
//!   value move, `transfer_out`s), once its [`CallStorage`] overlay is
//!   applied, leaves the state equal to a clone that got the same ops
//!   directly (field equality *and* commitment equality); a dropped
//!   overlay leaves the state untouched; and each move succeeds exactly
//!   when [`WorldState::transfer`] does;
//! * commitment level — after every step of a random schedule
//!   (first-touch default accounts, removals, a diverging clone) the
//!   Merkle root equals that of a fresh state given the same entries once
//!   each; two slots whose hashed keys share ≥ 16 leading bits fork deep
//!   and collapse back on removal; and the root does not depend on the
//!   order entries were written in.
//!
//! At chain level — a reverted call's only footprint is the sender's nonce
//! bump and fee, its storage writes vanish, and a replay reproduces every
//! receipt and commitment — the properties are the `diff/psc-replay`
//! target of `btcfast-audit` and pscsim's `chain::tests::a_reverted_*`.

use btcfast_pscsim::account::AccountId;
use btcfast_pscsim::contract::{CallStorage, Storage};
use btcfast_pscsim::gas::{GasMeter, GasSchedule};
use btcfast_pscsim::state::WorldState;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random mutation of a [`WorldState`].
#[derive(Clone, Debug)]
enum Op {
    Credit(u8, u64),
    Debit(u8, u64),
    BumpNonce(u8),
    /// `account_mut` with no write: first touch creates a default record.
    Touch(u8),
    StorageSet(u8, u8, Vec<u8>),
    StorageRemove(u8, u8),
}

fn account(id: u8) -> AccountId {
    AccountId([id; 20])
}

fn apply(state: &mut WorldState, op: &Op) {
    match op {
        Op::Credit(id, amount) => {
            // Amounts are small; a fresh state can always absorb them.
            state
                .credit(account(*id), u128::from(*amount))
                .expect("bounded credits cannot overflow");
        }
        Op::Debit(id, amount) => {
            // Over-debits are rejected without mutating; both sides of the
            // comparison see the same no-op.
            let _ = state.debit(account(*id), u128::from(*amount));
        }
        Op::BumpNonce(id) => state.account_mut(account(*id)).nonce += 1,
        Op::Touch(id) => {
            state.account_mut(account(*id));
        }
        Op::StorageSet(contract, key, value) => {
            state.storage_set(account(*contract), vec![*key], value.clone());
        }
        Op::StorageRemove(contract, key) => {
            state.storage_remove(&account(*contract), &[*key]);
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u64..1_000).prop_map(|(id, amount)| Op::Credit(id, amount)),
        (0u8..4, 0u64..1_000).prop_map(|(id, amount)| Op::Debit(id, amount)),
        (0u8..4).prop_map(Op::BumpNonce),
        (0u8..8).prop_map(Op::Touch),
        (
            0u8..4,
            0u8..6,
            proptest::collection::vec(any::<u8>(), 0..48)
        )
            .prop_map(|(contract, key, value)| Op::StorageSet(contract, key, value)),
        (0u8..4, 0u8..6).prop_map(|(contract, key)| Op::StorageRemove(contract, key)),
    ]
}

/// One operation of a contract call, on the contract `account(CONTRACT)`.
#[derive(Clone, Debug)]
enum CallOp {
    Set(u8, Vec<u8>),
    Remove(u8),
    /// `transfer_out` to an account; `NEAR_MAX` can overflow.
    TransferOut(u8, u64),
}

const CONTRACT: u8 = 2;
/// An account 500 short of `u128::MAX`.
const NEAR_MAX: u8 = 9;

/// Half the amounts are 0: a 0-value move still creates both account
/// records, and the root hashes them.
fn amount_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..1_000]
}

fn call_op_strategy() -> impl Strategy<Value = CallOp> {
    prop_oneof![
        (0u8..6, proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(key, value)| CallOp::Set(key, value)),
        (0u8..6).prop_map(CallOp::Remove),
        (prop_oneof![0u8..8, Just(NEAR_MAX)], amount_strategy())
            .prop_map(|(to, value)| CallOp::TransferOut(to, value)),
    ]
}

proptest! {
    /// An applied overlay equals the same ops made directly; a dropped
    /// one changes nothing; every move succeeds exactly when the direct
    /// transfer does.
    #[test]
    fn an_applied_call_equals_its_ops_made_directly(
        seed_ops in proptest::collection::vec(op_strategy(), 0..16),
        caller in 0u8..8,
        value in amount_strategy(),
        ops in proptest::collection::vec(call_op_strategy(), 0..12),
        apply_it in any::<bool>(),
    ) {
        // Arbitrary pre-existing state.
        let mut state = WorldState::new();
        state.credit(account(NEAR_MAX), u128::MAX - 500).unwrap();
        for op in &seed_ops {
            apply(&mut state, op);
        }
        let (before, mut direct) = (state.clone(), state.clone());

        let schedule = GasSchedule::evm_shaped();
        let mut meter = GasMeter::new(u64::MAX / 2);
        let contract = account(CONTRACT);
        let mut call = CallStorage::new(&state, &mut meter, &schedule, contract);
        // The call's value move, as `PscChain` makes it before the method.
        let (from, value) = (account(caller), u128::from(value));
        prop_assert_eq!(
            call.transfer(from, contract, value).is_ok(),
            direct.transfer(from, contract, value).is_ok()
        );
        for op in &ops {
            match op {
                CallOp::Set(key, value) => {
                    call.set(&[*key], value).unwrap();
                    direct.storage_set(contract, vec![*key], value.clone());
                }
                CallOp::Remove(key) => {
                    call.remove(&[*key]).unwrap();
                    direct.storage_remove(&contract, &[*key]);
                }
                CallOp::TransferOut(to, value) => {
                    let (to, value) = (account(*to), u128::from(*value));
                    prop_assert_eq!(
                        call.transfer_out(to, value).is_ok(),
                        direct.transfer(contract, to, value).is_ok()
                    );
                }
            }
        }
        let effects = call.finish();
        if apply_it {
            state.apply_call(effects);
            prop_assert_eq!(&state, &direct);
            prop_assert_eq!(state.commitment(), direct.commitment());
        } else {
            drop(effects);
            prop_assert_eq!(&state, &before);
            prop_assert_eq!(state.commitment(), before.commitment());
        }
    }
}

/// One step of a commitment schedule.
#[derive(Clone, Debug)]
enum Step {
    Write(Op),
    /// Clone the state, apply these ops to the clone only.
    Fork(Vec<Op>),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // The shim's `prop_oneof!` is unweighted: writes are listed three
    // times so most steps mutate.
    prop_oneof![
        op_strategy().prop_map(Step::Write),
        op_strategy().prop_map(Step::Write),
        op_strategy().prop_map(Step::Write),
        proptest::collection::vec(op_strategy(), 1..6).prop_map(Step::Fork),
    ]
}

/// Holds `state`'s root equal to that of a fresh state given the same
/// entries once each, with no removal behind them:
/// the root is a function of the content alone.
fn assert_commitment_is_rebuild(state: &WorldState) {
    let mut fresh = WorldState::new();
    // The op strategy's key spaces: accounts 0..8, contracts 0..4, keys 0..6.
    for id in (0..8).map(account) {
        if let Some(held) = state.account(&id) {
            *fresh.account_mut(id) = held.clone();
        }
        for key in 0..6 {
            if let Some(value) = state.storage_get(&id, &[key]) {
                fresh.storage_set(id, vec![key], value.clone());
            }
        }
    }
    assert_eq!(&fresh, state, "an entry outside the key spaces");
    assert_eq!(state.commitment(), fresh.commitment());
}

proptest! {
    /// The root of a history equals a fresh state's with the
    /// same entries after every step, on the state and on its clones.
    #[test]
    fn incremental_commitment_matches_rebuild_after_every_step(
        steps in proptest::collection::vec(step_strategy(), 1..40),
    ) {
        let mut state = WorldState::new();
        for step in &steps {
            match step {
                Step::Write(op) => apply(&mut state, op),
                Step::Fork(ops) => {
                    let before = state.commitment();
                    let mut fork = state.clone();
                    for op in ops {
                        apply(&mut fork, op);
                        assert_commitment_is_rebuild(&fork);
                    }
                    // Writes to the clone leave the source's root alone.
                    prop_assert_eq!(state.commitment(), before);
                }
            }
            assert_commitment_is_rebuild(&state);
        }
    }

    /// Writing the same entries in two random orders yields one root.
    #[test]
    fn commitment_ignores_write_order(
        accounts in proptest::collection::vec((any::<u8>(), 1u64..1_000), 0..12),
        slots in proptest::collection::vec(
            ((0u8..3, any::<u8>()), proptest::collection::vec(any::<u8>(), 0..16)),
            0..24,
        ),
        seed in any::<u64>(),
    ) {
        // One op per distinct key, so any order reaches the same maps.
        let accounts: std::collections::BTreeMap<_, _> = accounts.into_iter().collect();
        let slots: std::collections::BTreeMap<_, _> = slots.into_iter().collect();
        let mut ops: Vec<Op> = accounts
            .iter()
            .map(|(id, amount)| Op::Credit(*id, *amount))
            .chain(slots.iter().map(|((contract, key), value)| {
                Op::StorageSet(*contract, *key, value.clone())
            }))
            .collect();
        let mut forward = WorldState::new();
        for op in &ops {
            apply(&mut forward, op);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }
        let mut shuffled = WorldState::new();
        for op in &ops {
            apply(&mut shuffled, op);
        }
        prop_assert_eq!(&forward, &shuffled);
        prop_assert_eq!(forward.commitment(), shuffled.commitment());
    }
}

/// Two storage keys of `contract` whose hashed trie keys,
/// `sha256(0x01 ‖ contract ‖ key)`, agree on at least 16 leading bits —
/// brute-forced (4096 candidates give ~128 such pairs).
fn slots_sharing_16_bits(contract: &AccountId) -> (Vec<u8>, Vec<u8>) {
    let mut hashed: Vec<([u8; 32], Vec<u8>)> = (0u16..4096)
        .map(|n| {
            let key = n.to_le_bytes().to_vec();
            let mut preimage = vec![0x01];
            preimage.extend_from_slice(&contract.0);
            preimage.extend_from_slice(&key);
            (btcfast_crypto::sha256::sha256(&preimage), key)
        })
        .collect();
    hashed.sort();
    let pair = hashed
        .windows(2)
        .find(|w| w[0].0[..2] == w[1].0[..2])
        .expect("4096 hashes collide on 16 bits");
    (pair[0].1.clone(), pair[1].1.clone())
}

#[test]
fn slots_sharing_a_long_prefix_fork_deep_and_collapse_on_removal() {
    let contract = account(7);
    let (a, b) = slots_sharing_16_bits(&contract);

    let mut state = WorldState::new();
    state.storage_set(contract, a.clone(), b"first".to_vec());
    let alone = state.commitment();
    state.storage_set(contract, b.clone(), b"second".to_vec());
    assert_ne!(state.commitment(), alone);

    // Neighbours elsewhere in the trie, then removal: the survivor must
    // climb back up, and with the neighbours gone the root must be the one
    // a state that never saw `b` has.
    state.credit(account(1), 5).unwrap();
    state.storage_set(account(8), b"k".to_vec(), b"v".to_vec());
    assert_eq!(
        state.storage_remove(&contract, &b),
        Some(b"second".to_vec())
    );
    let survivor = state.commitment();

    // `b` in `a`'s place on a clone: its root moves, the state's does not.
    let mut moved = state.clone();
    moved.storage_remove(&contract, &a);
    moved.storage_set(contract, b.clone(), b"back".to_vec());
    assert_ne!(moved.commitment(), survivor);
    assert_eq!(state.commitment(), survivor);

    state.storage_remove(&account(8), b"k");
    let mut never_saw_b = WorldState::new();
    never_saw_b.credit(account(1), 5).unwrap();
    never_saw_b.storage_set(contract, a, b"first".to_vec());
    assert_eq!(state, never_saw_b);
    assert_eq!(state.commitment(), never_saw_b.commitment());
    assert_ne!(state.commitment(), alone);
}
