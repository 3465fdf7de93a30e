//! The contract runtime: the [`Contract`] trait, execution environment, and
//! the gas-metered [`Storage`] interface contracts persist state through.

use crate::account::AccountId;
use crate::codec::CodecError;
use crate::gas::{Gas, GasMeter, GasSchedule, OutOfGas};
use crate::state::{StateError, WorldState};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The execution environment visible to a contract call.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// The externally owned account that signed the transaction.
    pub caller: AccountId,
    /// The contract's own account.
    pub contract: AccountId,
    /// Native value attached to the call (already credited to the contract
    /// when the method runs; reverts return it).
    pub value: u128,
    /// Number of the block including the call.
    pub block_number: u64,
    /// Timestamp of the block including the call.
    pub block_time: u64,
}

/// An event emitted by a contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The emitting contract.
    pub contract: AccountId,
    /// Event name.
    pub topic: String,
    /// ABI-encoded payload.
    pub data: Vec<u8>,
}

/// Contract execution failures. `Revert` carries the contract's message;
/// everything reverts state (the fee is still charged, as on Ethereum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// Explicit revert by contract logic.
    Revert(String),
    /// Gas limit exhausted.
    OutOfGas(OutOfGas),
    /// The method name is not part of the contract's ABI.
    UnknownMethod(String),
    /// Call arguments failed to decode.
    BadArguments(CodecError),
    /// A contract-initiated transfer exceeded its balance.
    InsufficientContractBalance {
        /// Balance available to the contract.
        available: u128,
        /// Amount requested.
        requested: u128,
    },
    /// A contract-initiated transfer would overflow the recipient's
    /// `u128` balance; the call reverts instead of aborting the process.
    BalanceOverflow {
        /// The recipient whose balance cannot absorb the transfer.
        account: AccountId,
    },
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::Revert(msg) => write!(f, "reverted: {msg}"),
            ContractError::OutOfGas(e) => write!(f, "{e}"),
            ContractError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            ContractError::BadArguments(e) => write!(f, "bad call arguments: {e}"),
            ContractError::InsufficientContractBalance {
                available,
                requested,
            } => write!(
                f,
                "contract balance {available} cannot cover transfer of {requested}"
            ),
            ContractError::BalanceOverflow { account } => {
                write!(f, "transfer would overflow the balance of {account}")
            }
        }
    }
}

impl Error for ContractError {}

impl From<OutOfGas> for ContractError {
    fn from(e: OutOfGas) -> ContractError {
        ContractError::OutOfGas(e)
    }
}

impl From<CodecError> for ContractError {
    fn from(e: CodecError) -> ContractError {
        ContractError::BadArguments(e)
    }
}

/// The gas-metered world interface handed to a contract during a call.
///
/// Every operation charges the schedule *before* executing, so a contract
/// cannot observe state it did not pay for.
pub trait Storage {
    /// Reads a storage slot.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ContractError>;

    /// Writes a storage slot.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), ContractError>;

    /// Deletes a storage slot.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    fn remove(&mut self, key: &[u8]) -> Result<(), ContractError>;

    /// Emits an event.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    fn emit(&mut self, topic: &str, data: Vec<u8>) -> Result<(), ContractError>;

    /// Sends native value from the contract's balance to `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`] or
    /// [`ContractError::InsufficientContractBalance`].
    fn transfer_out(&mut self, to: AccountId, value: u128) -> Result<(), ContractError>;

    /// The contract's current native balance.
    fn contract_balance(&self) -> u128;

    /// Charges gas for contract-specific computation (e.g. PoW header
    /// verification), per the schedule the host exposes.
    ///
    /// # Errors
    ///
    /// Propagates [`ContractError::OutOfGas`].
    fn charge(&mut self, gas: Gas) -> Result<(), ContractError>;

    /// The active gas schedule (for computing custom charges).
    fn schedule(&self) -> &GasSchedule;

    /// Gas consumed so far in this call.
    fn gas_used(&self) -> Gas;
}

/// A deployable contract. Implementations are **stateless**: all persistent
/// data must go through [`Storage`].
pub trait Contract: Send + Sync {
    /// The registry identifier for this code.
    fn code_id(&self) -> &'static str;

    /// Dispatches a method call.
    ///
    /// The special method `"init"` is invoked once at deployment.
    ///
    /// # Errors
    ///
    /// See [`ContractError`]; any error reverts the call's state changes.
    fn call(
        &self,
        env: &Env,
        method: &str,
        args: &[u8],
        storage: &mut dyn Storage,
    ) -> Result<Vec<u8>, ContractError>;
}

/// The one [`Storage`] host: every contract call runs in it, in a
/// transaction and as a view alike. Reads fall through to a *borrowed*
/// world state; slot writes, balance moves and events land in a private
/// overlay. A transaction whose call succeeds commits the overlay with
/// [`WorldState::apply_call`]; a revert or a view drops it. So a revert
/// costs only what the call touched, no state is ever cloned, and a view
/// charges the same gas as the same call in a transaction.
///
/// Public so that contract crates can unit-test their logic against a real
/// metered storage without standing up a full chain.
pub struct CallStorage<'a> {
    world: &'a WorldState,
    meter: &'a mut GasMeter,
    schedule: &'a GasSchedule,
    contract: AccountId,
    /// Uncommitted slot writes of the call (`None` = deleted).
    writes: HashMap<Vec<u8>, Option<Vec<u8>>>,
    /// Balances the call moved value between, as they stand after it.
    balances: HashMap<AccountId, u128>,
    events: Vec<Event>,
}

/// What a finished call leaves behind: [`WorldState::apply_call`] commits
/// the writes and balances, and the events go into the receipt.
#[derive(Debug)]
pub struct CallEffects {
    /// The called contract: the namespace of `writes`.
    pub(crate) contract: AccountId,
    /// Slot writes (`None` = deleted).
    pub(crate) writes: HashMap<Vec<u8>, Option<Vec<u8>>>,
    /// Every balance a value move touched, as it stands after the call.
    pub(crate) balances: HashMap<AccountId, u128>,
    /// Events, in emission order.
    pub(crate) events: Vec<Event>,
}

impl<'a> CallStorage<'a> {
    /// A call host over `world` for `contract`, metered by `meter`.
    pub fn new(
        world: &'a WorldState,
        meter: &'a mut GasMeter,
        schedule: &'a GasSchedule,
        contract: AccountId,
    ) -> CallStorage<'a> {
        CallStorage {
            world,
            meter,
            schedule,
            contract,
            writes: HashMap::new(),
            balances: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// Overlay-then-base slot lookup.
    fn slot(&self, key: &[u8]) -> Option<&Vec<u8>> {
        match self.writes.get(key) {
            Some(Some(value)) => Some(value),
            Some(None) => None,
            None => self.world.storage_get(&self.contract, key),
        }
    }

    /// Overlay-then-base balance lookup.
    fn balance_of(&self, id: &AccountId) -> u128 {
        self.balances
            .get(id)
            .copied()
            .unwrap_or_else(|| self.world.balance(id))
    }

    /// Moves `value` from `from` to `to` inside the overlay, unmetered:
    /// all or nothing, with [`WorldState::transfer`]'s errors. Both
    /// balances enter the overlay even for a 0-value move, as a direct
    /// transfer creates both account records; a self-transfer nets to zero.
    ///
    /// # Errors
    ///
    /// [`StateError::InsufficientBalance`] if `from` is short and
    /// [`StateError::BalanceOverflow`] if `to` cannot absorb `value`; the
    /// overlay is unchanged in either case.
    pub fn transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        value: u128,
    ) -> Result<(), StateError> {
        let available = self.balance_of(&from);
        if available < value {
            return Err(StateError::InsufficientBalance {
                account: from,
                available,
                requested: value,
            });
        }
        if from == to {
            self.balances.insert(from, available);
            return Ok(());
        }
        let balance = self.balance_of(&to);
        let credited = balance
            .checked_add(value)
            .ok_or(StateError::BalanceOverflow {
                account: to,
                balance,
                amount: value,
            })?;
        self.balances.insert(from, available - value);
        self.balances.insert(to, credited);
        Ok(())
    }

    /// Ends the call, handing back its overlay and events.
    pub fn finish(self) -> CallEffects {
        CallEffects {
            contract: self.contract,
            writes: self.writes,
            balances: self.balances,
            events: self.events,
        }
    }
}

impl Storage for CallStorage<'_> {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ContractError> {
        self.meter.charge(self.schedule.storage_read)?;
        Ok(self.slot(key).cloned())
    }

    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), ContractError> {
        let exists = self.slot(key).is_some();
        let base = if exists {
            self.schedule.storage_write_existing
        } else {
            self.schedule.storage_write_new
        };
        let byte_cost = self.schedule.storage_byte * (value.len() as u64).saturating_sub(32);
        self.meter.charge(base + byte_cost)?;
        self.writes.insert(key.to_vec(), Some(value.to_vec()));
        Ok(())
    }

    fn remove(&mut self, key: &[u8]) -> Result<(), ContractError> {
        self.meter.charge(self.schedule.storage_delete)?;
        self.writes.insert(key.to_vec(), None);
        Ok(())
    }

    fn emit(&mut self, topic: &str, data: Vec<u8>) -> Result<(), ContractError> {
        self.meter.charge(
            self.schedule.log_base + self.schedule.log_byte * (topic.len() + data.len()) as u64,
        )?;
        self.events.push(Event {
            contract: self.contract,
            topic: topic.to_string(),
            data,
        });
        Ok(())
    }

    fn transfer_out(&mut self, to: AccountId, value: u128) -> Result<(), ContractError> {
        self.meter.charge(self.schedule.transfer)?;
        self.transfer(self.contract, to, value)
            .map_err(|e| match e {
                StateError::InsufficientBalance {
                    available,
                    requested,
                    ..
                } => ContractError::InsufficientContractBalance {
                    available,
                    requested,
                },
                StateError::BalanceOverflow { account, .. } => {
                    ContractError::BalanceOverflow { account }
                }
            })
    }

    fn contract_balance(&self) -> u128 {
        self.balance_of(&self.contract)
    }

    fn charge(&mut self, gas: Gas) -> Result<(), ContractError> {
        self.meter.charge(gas)?;
        Ok(())
    }

    fn schedule(&self) -> &GasSchedule {
        self.schedule
    }

    fn gas_used(&self) -> Gas {
        self.meter.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: AccountId = AccountId([0xCC; 20]);

    fn host<'a>(
        world: &'a WorldState,
        meter: &'a mut GasMeter,
        schedule: &'a GasSchedule,
    ) -> CallStorage<'a> {
        CallStorage::new(world, meter, schedule, CONTRACT)
    }

    #[test]
    fn storage_ops_charge_gas() {
        let world = WorldState::new();
        let mut meter = GasMeter::new(1_000_000);
        let schedule = GasSchedule::evm_shaped();
        let mut storage = host(&world, &mut meter, &schedule);

        storage.set(b"k", b"v").unwrap();
        let after_new_write = storage.gas_used();
        assert_eq!(after_new_write, schedule.storage_write_new);

        storage.set(b"k", b"v2").unwrap();
        assert_eq!(
            storage.gas_used(),
            after_new_write + schedule.storage_write_existing
        );

        assert_eq!(storage.get(b"k").unwrap().unwrap(), b"v2");
        storage.remove(b"k").unwrap();
        assert!(storage.get(b"k").unwrap().is_none());
    }

    #[test]
    fn long_values_cost_more() {
        let world = WorldState::new();
        let mut meter = GasMeter::new(10_000_000);
        let schedule = GasSchedule::evm_shaped();
        let mut storage = host(&world, &mut meter, &schedule);
        storage.set(b"a", &[0u8; 32]).unwrap();
        let small = storage.gas_used();
        storage.set(b"b", &[0u8; 132]).unwrap();
        let big = storage.gas_used() - small;
        assert_eq!(
            big,
            schedule.storage_write_new + 100 * schedule.storage_byte
        );
    }

    #[test]
    fn out_of_gas_surfaces() {
        let world = WorldState::new();
        let mut meter = GasMeter::new(10);
        let schedule = GasSchedule::evm_shaped();
        let mut storage = host(&world, &mut meter, &schedule);
        assert!(matches!(
            storage.set(b"k", b"v"),
            Err(ContractError::OutOfGas(_))
        ));
    }

    #[test]
    fn events_recorded() {
        let world = WorldState::new();
        let mut meter = GasMeter::new(1_000_000);
        let schedule = GasSchedule::evm_shaped();
        let mut storage = host(&world, &mut meter, &schedule);
        storage.emit("Deposited", vec![1, 2, 3]).unwrap();
        let events = storage.finish().events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].topic, "Deposited");
    }

    #[test]
    fn transfer_out_moves_balance() {
        let mut world = WorldState::new();
        world.storage_set(CONTRACT, b"k".to_vec(), b"base".to_vec());
        world.credit(CONTRACT, 100).unwrap();
        let base = world.clone();
        let schedule = GasSchedule::evm_shaped();
        let mut meter = GasMeter::new(1_000_000);
        let mut storage = host(&world, &mut meter, &schedule);
        let dest = AccountId([0x01; 20]);
        storage.remove(b"k").unwrap();
        storage.set(b"fresh", b"v").unwrap();
        storage.transfer_out(dest, 60).unwrap();
        assert_eq!(storage.contract_balance(), 40);
        assert!(matches!(
            storage.transfer_out(dest, 41),
            Err(ContractError::InsufficientContractBalance { .. })
        ));
        let effects = storage.finish();

        // Applied, the overlay is exactly the same writes made directly.
        let mut direct = base;
        direct.storage_remove(&CONTRACT, b"k");
        direct.storage_set(CONTRACT, b"fresh".to_vec(), b"v".to_vec());
        direct.transfer(CONTRACT, dest, 60).unwrap();
        world.apply_call(effects);
        assert_eq!(world, direct);
        assert_eq!(world.balance(&dest), 60);
        assert_eq!(world.commitment(), direct.commitment());
    }

    #[test]
    fn view_overlay_reads_own_writes_without_touching_base() {
        // A view is a call whose overlay is dropped.
        let mut world = WorldState::new();
        world.storage_set(CONTRACT, b"k".to_vec(), b"base".to_vec());
        let base = world.clone();
        let schedule = GasSchedule::evm_shaped();
        let mut meter = GasMeter::new(1_000_000);
        let mut view = host(&world, &mut meter, &schedule);

        assert_eq!(view.get(b"k").unwrap().unwrap(), b"base");
        view.set(b"k", b"shadow").unwrap();
        assert_eq!(view.get(b"k").unwrap().unwrap(), b"shadow");
        view.remove(b"k").unwrap();
        assert!(view.get(b"k").unwrap().is_none());
        view.set(b"fresh", b"v").unwrap();
        assert_eq!(view.get(b"fresh").unwrap().unwrap(), b"v");
        drop(view);
        // The borrowed base state is untouched.
        assert_eq!(world, base);
        assert_eq!(world.storage_get(&CONTRACT, b"k").unwrap(), b"base");
    }

    #[test]
    fn view_transfer_overlays_balances() {
        let mut world = WorldState::new();
        world.credit(CONTRACT, 100).unwrap();
        let schedule = GasSchedule::evm_shaped();
        let mut meter = GasMeter::new(1_000_000);
        let mut view = host(&world, &mut meter, &schedule);
        let dest = AccountId([0x01; 20]);
        view.transfer_out(dest, 60).unwrap();
        assert_eq!(view.contract_balance(), 40);
        assert!(matches!(
            view.transfer_out(dest, 41),
            Err(ContractError::InsufficientContractBalance { .. })
        ));
        // Self-transfer leaves the balance unchanged, as debit+credit would.
        view.transfer_out(CONTRACT, 10).unwrap();
        assert_eq!(view.contract_balance(), 40);
        drop(view);
        assert_eq!(world.balance(&CONTRACT), 100);
        assert_eq!(world.balance(&dest), 0);
    }

    #[test]
    fn host_transfer_overflow_is_typed_not_a_panic() {
        // A recipient sitting at u128::MAX used to trip an
        // `expect("balance checked above")` in the transaction host and a
        // `checked_add().expect()` in the view host.
        let mut world = WorldState::new();
        let dest = AccountId([0x01; 20]);
        world.credit(CONTRACT, 100).unwrap();
        world.credit(dest, u128::MAX).unwrap();
        let mut meter = GasMeter::new(1_000_000);
        let schedule = GasSchedule::evm_shaped();
        let mut storage = host(&world, &mut meter, &schedule);
        assert_eq!(
            storage.transfer_out(dest, 1),
            Err(ContractError::BalanceOverflow { account: dest })
        );
        // The failed transfer left both balances untouched.
        assert_eq!(storage.contract_balance(), 100);
        assert!(storage.finish().balances.is_empty());
    }

    #[test]
    fn view_transfer_overflow_reverts_instead_of_aborting() {
        // The call's value move (unmetered `transfer`, which a view runs
        // too) into a contract sitting at u128::MAX: a typed error, not
        // the old view host's `checked_add().expect()` abort.
        let mut world = WorldState::new();
        let caller = AccountId([0x01; 20]);
        world.credit(caller, 1).unwrap();
        world.credit(CONTRACT, u128::MAX).unwrap();
        let mut meter = GasMeter::new(1_000_000);
        let schedule = GasSchedule::evm_shaped();
        let mut view = host(&world, &mut meter, &schedule);
        assert_eq!(
            view.transfer(caller, CONTRACT, 1),
            Err(StateError::BalanceOverflow {
                account: CONTRACT,
                balance: u128::MAX,
                amount: 1,
            })
        );
        // The overlay records nothing for a failed transfer.
        assert_eq!(view.contract_balance(), u128::MAX);
        assert_eq!(view.gas_used(), 0);
        assert!(view.finish().balances.is_empty());
    }

    #[test]
    fn error_display() {
        for e in [
            ContractError::Revert("nope".into()),
            ContractError::UnknownMethod("m".into()),
            ContractError::BadArguments(CodecError::UnexpectedEnd),
            ContractError::InsufficientContractBalance {
                available: 1,
                requested: 2,
            },
            ContractError::BalanceOverflow {
                account: AccountId([1; 20]),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
