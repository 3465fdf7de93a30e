//! The state commitment: the root of a binary Merkle trie over hashed
//! keys, computed by its definition.
//!
//! An entry sits at the position spelled by the bits of its hashed key,
//! most significant first. The trie is in *canonical compressed form*: a
//! subtree holding exactly one entry is that entry's leaf, an empty
//! subtree is [`EMPTY`], and a branch exists only above two or more
//! entries. The root is therefore a function of the set of entries alone,
//! not of the order of inserts and removals.

use btcfast_crypto::sha256::Sha256;

/// A SHA-256 output.
pub(crate) type Digest = [u8; 32];

/// Domain byte of an account's hashed key: `sha256(0x00 ‖ id)`.
pub(crate) const KEY_ACCOUNT: u8 = 0x00;
/// Domain byte of a storage slot's hashed key: `sha256(0x01 ‖ contract ‖ key)`.
pub(crate) const KEY_STORAGE: u8 = 0x01;
/// Domain byte of a leaf hash: `sha256(0x02 ‖ hashed key ‖ value)`.
pub(crate) const LEAF: u8 = 0x02;
/// Domain byte of a branch hash: `sha256(0x03 ‖ left ‖ right)`.
const BRANCH: u8 = 0x03;
/// Hash of an empty subtree, and the root of the empty trie.
const EMPTY: Digest = [0; 32];

/// `sha256(domain ‖ parts…)`.
pub(crate) fn hash_parts(domain: u8, parts: &[&[u8]]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(&[domain]);
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

/// Bit `depth` of a hashed key, most significant first; true = right.
fn bit(key: &Digest, depth: usize) -> bool {
    key[depth / 8] >> (7 - depth % 8) & 1 == 1
}

/// The root over `(hashed key, leaf hash)` entries sorted by key, whose
/// keys agree on their first `depth` bits: empty is [`EMPTY`], one entry
/// is its leaf, more split on bit `depth`.
pub(crate) fn root(entries: &[(Digest, Digest)], depth: usize) -> Digest {
    match entries {
        [] => EMPTY,
        [(_, leaf)] => *leaf,
        _ => {
            let split = entries.partition_point(|(key, _)| !bit(key, depth));
            let (left, right) = entries.split_at(split);
            hash_parts(BRANCH, &[&root(left, depth + 1), &root(right, depth + 1)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key whose first `shared` bits are all ones and whose tail is `tail`.
    fn key_with_prefix(shared: usize, tail: u8) -> Digest {
        let mut key = [0u8; 32];
        for depth in 0..shared {
            key[depth / 8] |= 1 << (7 - depth % 8);
        }
        key[31] = tail;
        key
    }

    #[test]
    fn empty_one_and_two_entries_follow_the_definition() {
        assert_eq!(root(&[], 0), EMPTY);
        let (a, b) = (key_with_prefix(0, 1), key_with_prefix(1, 2));
        let (leaf_a, leaf_b) = (
            hash_parts(LEAF, &[&a, b"va"]),
            hash_parts(LEAF, &[&b, b"vb"]),
        );
        // One entry *is* its leaf: no branch above it.
        assert_eq!(root(&[(a, leaf_a)], 0), leaf_a);
        let expected = hash_parts(BRANCH, &[&leaf_a, &leaf_b]);
        assert_eq!(root(&[(a, leaf_a), (b, leaf_b)], 0), expected);
        // Keys sharing their first bit hang below a one-child branch.
        let c = key_with_prefix(2, 3);
        let leaf_c = hash_parts(LEAF, &[&c, b"vc"]);
        let below = hash_parts(BRANCH, &[&leaf_b, &leaf_c]);
        assert_eq!(
            root(&[(b, leaf_b), (c, leaf_c)], 0),
            hash_parts(BRANCH, &[&EMPTY, &below])
        );
    }
}
