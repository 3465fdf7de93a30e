//! PSC blocks: produced by a single authority at a fixed interval.

use btcfast_crypto::Hash256;

/// A PSC block. It stores neither its parent's hash nor a state root: no
/// table, fingerprint, contract or workload reads a PSC block hash, so the
/// link is defined only for tests (`PscBlock::hash`,
/// `PscChain::block_hash`), and the root is computed when asked
/// (`PscChain::state_commitment`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PscBlock {
    /// Block number (genesis = 0, first produced block = 1).
    pub number: u64,
    /// Timestamp.
    pub time: u64,
    /// Hashes of included transactions, in execution order.
    pub tx_hashes: Vec<Hash256>,
}

#[cfg(test)]
impl PscBlock {
    /// The block hash given its parent's ([`Hash256::ZERO`] for block 1):
    /// `sha256d(number ‖ time ‖ parent ‖ tx hashes)`.
    pub(crate) fn hash(&self, parent_hash: &Hash256) -> Hash256 {
        let mut data = Vec::with_capacity(48 + self.tx_hashes.len() * 32);
        data.extend_from_slice(&self.number.to_le_bytes());
        data.extend_from_slice(&self.time.to_le_bytes());
        data.extend_from_slice(&parent_hash.0);
        for h in &self.tx_hashes {
            data.extend_from_slice(&h.0);
        }
        btcfast_crypto::sha256::sha256d(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_covers_fields() {
        let base = PscBlock {
            number: 1,
            time: 15,
            tx_hashes: vec![Hash256([1; 32])],
        };
        let h = base.hash(&Hash256::ZERO);

        let mut other = base.clone();
        other.number = 2;
        assert_ne!(other.hash(&Hash256::ZERO), h);

        let mut other = base.clone();
        other.tx_hashes.push(Hash256([3; 32]));
        assert_ne!(other.hash(&Hash256::ZERO), h);

        assert_ne!(base.hash(&Hash256([5; 32])), h);
        assert_eq!(base.hash(&Hash256::ZERO), h); // stable
    }
}
