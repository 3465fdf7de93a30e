//! A 32-byte hash value with Bitcoin-style display conventions.

use std::fmt;

/// A 256-bit hash digest.
///
/// Bitcoin displays transaction and block hashes in *reversed* byte order
/// (little-endian interpretation of the digest); [`Hash256::to_hex`] follows
/// that convention while the in-memory bytes stay in digest order.
///
/// ```
/// use btcfast_crypto::Hash256;
///
/// let h = Hash256([0xab; 32]);
/// assert_eq!(h.to_hex().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as the previous-block pointer of a genesis
    /// block and as a sentinel "no hash" value.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns true if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Hex-encodes in Bitcoin's reversed (display) byte order.
    pub fn to_hex(&self) -> String {
        let mut rev = self.0;
        rev.reverse();
        crate::hex::encode(&rev)
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({})", self.to_hex())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!Hash256([1; 32]).is_zero());
    }

    #[test]
    fn hex_round_trip_reverses_bytes() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0x01;
        bytes[31] = 0xff;
        let h = Hash256(bytes);
        let hex = h.to_hex();
        // Display order puts the *last* in-memory byte first.
        assert!(hex.starts_with("ff"));
        assert!(hex.ends_with("01"));
        let mut back = crate::hex::decode(&hex).unwrap();
        back.reverse();
        assert_eq!(back, bytes);
    }

    #[test]
    fn display_matches_to_hex() {
        let h = Hash256([7; 32]);
        assert_eq!(format!("{h}"), h.to_hex());
        assert!(format!("{h:?}").contains(&h.to_hex()));
    }
}
