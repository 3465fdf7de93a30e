//! Bitcoin amounts in satoshis, with checked arithmetic.

use std::error::Error;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Sub};

/// Satoshis per bitcoin.
pub const SATS_PER_BTC: u64 = 100_000_000;

/// Maximum money supply in satoshis (21 million BTC).
pub const MAX_MONEY: u64 = 21_000_000 * SATS_PER_BTC;

/// A monetary amount in satoshis, guaranteed `<= MAX_MONEY`.
///
/// ```
/// use btcfast_btcsim::Amount;
///
/// let price = Amount::from_sats(1_500_000).unwrap();
/// let fee = Amount::from_sats(1_000).unwrap();
/// assert_eq!(price.checked_add(fee).unwrap().to_sats(), 1_501_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Amount(u64);

/// Error for amounts exceeding the money supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmountError {
    /// The satoshi value that was rejected.
    pub sats: u64,
}

impl fmt::Display for AmountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "amount {} exceeds maximum money supply", self.sats)
    }
}

impl Error for AmountError {}

impl Amount {
    /// Zero satoshis.
    pub const ZERO: Amount = Amount(0);

    /// Creates an amount from satoshis.
    ///
    /// # Errors
    ///
    /// Returns [`AmountError`] when the value exceeds 21M BTC.
    pub fn from_sats(sats: u64) -> Result<Amount, AmountError> {
        if sats > MAX_MONEY {
            Err(AmountError { sats })
        } else {
            Ok(Amount(sats))
        }
    }

    /// The value in satoshis.
    pub fn to_sats(&self) -> u64 {
        self.0
    }

    /// Checked addition staying within the money supply.
    pub fn checked_add(&self, rhs: Amount) -> Option<Amount> {
        let sum = self.0.checked_add(rhs.0)?;
        Amount::from_sats(sum).ok()
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Saturating subtraction (floors at zero).
    pub fn saturating_sub(&self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// True when zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }
}

impl Add for Amount {
    type Output = Amount;
    /// # Panics
    ///
    /// Panics on overflow past the money supply; use
    /// [`Amount::checked_add`] for untrusted values.
    fn add(self, rhs: Amount) -> Amount {
        self.checked_add(rhs).expect("amount addition overflow")
    }
}

impl Sub for Amount {
    type Output = Amount;
    /// # Panics
    ///
    /// Panics on underflow; use [`Amount::checked_sub`] for untrusted values.
    fn sub(self, rhs: Amount) -> Amount {
        self.checked_sub(rhs).expect("amount subtraction underflow")
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |acc, a| acc + a)
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Amount({} sats)", self.0)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let btc = self.0 / SATS_PER_BTC;
        let rem = self.0 % SATS_PER_BTC;
        write!(f, "{btc}.{rem:08} BTC")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_limits() {
        assert!(Amount::from_sats(MAX_MONEY).is_ok());
        assert!(Amount::from_sats(MAX_MONEY + 1).is_err());
    }

    #[test]
    fn checked_arithmetic() {
        let a = Amount::from_sats(10).unwrap();
        let b = Amount::from_sats(3).unwrap();
        assert_eq!(a.checked_add(b).unwrap().to_sats(), 13);
        assert_eq!(a.checked_sub(b).unwrap().to_sats(), 7);
        assert!(b.checked_sub(a).is_none());
        assert_eq!(b.saturating_sub(a), Amount::ZERO);
        let max = Amount::from_sats(MAX_MONEY).unwrap();
        assert!(max.checked_add(Amount::from_sats(1).unwrap()).is_none());
    }

    #[test]
    fn sum_works() {
        let total: Amount = (1..=4).map(|i| Amount::from_sats(i).unwrap()).sum();
        assert_eq!(total.to_sats(), 10);
    }

    #[test]
    fn display_format() {
        let a = Amount::from_sats(150_000_001).unwrap();
        assert_eq!(a.to_string(), "1.50000001 BTC");
        assert_eq!(Amount::ZERO.to_string(), "0.00000000 BTC");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = Amount::ZERO - Amount::from_sats(1).unwrap();
    }
}
