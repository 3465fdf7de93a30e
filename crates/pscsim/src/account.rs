//! Account identities and balances on the PSC chain.

use btcfast_crypto::keys::Address;
use std::fmt;

/// A 20-byte account identifier: externally owned accounts reuse the
/// key-hash address; contract accounts are derived from deployment data.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AccountId(pub [u8; 20]);

impl AccountId {
    /// Derives a contract account id from the deployer, nonce, and code id
    /// (analogous to Ethereum's CREATE address derivation).
    pub fn contract(deployer: &AccountId, nonce: u64, code_id: &str) -> AccountId {
        let mut data = Vec::with_capacity(20 + 8 + code_id.len() + 1);
        data.extend_from_slice(&deployer.0);
        data.extend_from_slice(&nonce.to_le_bytes());
        data.extend_from_slice(code_id.as_bytes());
        data.push(0xC0); // domain separator for contract accounts
        AccountId(btcfast_crypto::ripemd160::hash160(&data))
    }
}

impl From<Address> for AccountId {
    fn from(a: Address) -> AccountId {
        AccountId(a.0)
    }
}

impl fmt::Debug for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccountId(0x{})", btcfast_crypto::hex::encode(&self.0))
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", btcfast_crypto::hex::encode(&self.0))
    }
}

/// Mutable account record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Account {
    /// Spendable balance in the chain's native unit ("wei").
    pub balance: u128,
    /// Transaction count, for replay protection.
    pub nonce: u64,
    /// For contract accounts: the registered code identifier.
    pub code_id: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcfast_crypto::keys::KeyPair;

    #[test]
    fn from_address_preserves_bytes() {
        let kp = KeyPair::from_seed(b"acct");
        let id: AccountId = kp.address().into();
        assert_eq!(id.0, kp.address().0);
    }

    #[test]
    fn contract_ids_depend_on_all_inputs() {
        let deployer: AccountId = KeyPair::from_seed(b"d").address().into();
        let a = AccountId::contract(&deployer, 0, "payjudger");
        let b = AccountId::contract(&deployer, 1, "payjudger");
        let c = AccountId::contract(&deployer, 0, "other");
        let other_deployer: AccountId = KeyPair::from_seed(b"e").address().into();
        let d = AccountId::contract(&other_deployer, 0, "payjudger");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn account_defaults() {
        let acct = Account::default();
        assert_eq!(acct.balance, 0);
        assert_eq!(acct.nonce, 0);
        assert_eq!(acct.code_id, None);
    }

    #[test]
    fn display_is_hex() {
        let id = AccountId([0xab; 20]);
        assert!(id.to_string().starts_with("0xabab"));
    }
}
