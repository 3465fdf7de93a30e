//! The state commitment: a binary Merkle trie over hashed keys, re-hashed
//! only along the paths a write touched.
//!
//! An entry sits at the position spelled by the bits of its hashed key,
//! most significant first. The trie is kept in *canonical compressed
//! form*: a subtree holding exactly one entry is that entry's leaf, an
//! empty subtree is [`EMPTY`], and a branch exists only above two or more
//! entries. The shape — and so the root — is therefore a function of the
//! set of entries alone, not of the order of inserts and removals.

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
/// "No node": an empty child slot, or the root of the empty trie. Node
/// handles are 1-based indices into the arena.
const NIL: u32 = 0;

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

#[derive(Clone, Copy, Debug)]
enum Node {
    /// Hashed key, leaf hash.
    Leaf(Digest, Digest),
    /// Children, and the branch hash — `None` from a write below until
    /// the next [`Trie::root`].
    Branch(u32, u32, Option<Digest>),
}

/// The trie: nodes in an arena (so a `Clone` is a deep, independent copy),
/// freed slots recycled.
#[derive(Clone, Debug, Default)]
pub(crate) struct Trie {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    /// Entries currently held.
    pub(crate) leaves: usize,
    /// Leaf and branch hashes entered or computed since construction.
    pub(crate) hashed: u64,
}

impl Trie {
    /// Sets the entry at `key` to the leaf hash `leaf`, or removes it.
    pub(crate) fn set(&mut self, key: &Digest, leaf: Option<Digest>) {
        self.hashed += u64::from(leaf.is_some());
        self.root = self.update(self.root, 0, key, leaf).0;
    }

    /// The Merkle root, re-hashing exactly the branches written under
    /// since the last call.
    pub(crate) fn root(&mut self) -> Digest {
        self.hash_of(self.root)
    }

    fn node(&mut self, at: u32) -> &mut Node {
        &mut self.nodes[at as usize - 1]
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(at) = self.free.pop() {
            *self.node(at) = node;
            return at;
        }
        self.nodes.push(node);
        u32::try_from(self.nodes.len()).expect("fewer than 2^32 trie nodes")
    }

    /// Sets or removes `key` in the subtree `at`, whose root sits `depth`
    /// bits down. Returns the node now in that position and whether the
    /// subtree's hash changed: an unchanged subtree keeps its cached
    /// hashes, so a write that changes nothing re-hashes nothing.
    fn update(&mut self, at: u32, depth: usize, key: &Digest, leaf: Option<Digest>) -> (u32, bool) {
        if at == NIL {
            let Some(hash) = leaf else {
                return (NIL, false);
            };
            self.leaves += 1;
            return (self.alloc(Node::Leaf(*key, hash)), true);
        }
        match (*self.node(at), leaf) {
            (Node::Leaf(held, old), Some(hash)) if held == *key => {
                *self.node(at) = Node::Leaf(held, hash);
                (at, hash != old)
            }
            (Node::Leaf(held, _), None) if held == *key => {
                self.leaves -= 1;
                self.free.push(at);
                (NIL, true)
            }
            (Node::Leaf(..), None) => (at, false),
            (Node::Leaf(held, _), Some(hash)) => {
                self.leaves += 1;
                let new = self.alloc(Node::Leaf(*key, hash));
                (self.fork(at, &held, new, key, depth), true)
            }
            (Node::Branch(left, right, _), _) => {
                let go_right = bit(key, depth);
                let below = if go_right { right } else { left };
                let (child, changed) = self.update(below, depth + 1, key, leaf);
                if !changed {
                    return (at, false);
                }
                let (left, right) = if go_right {
                    (left, child)
                } else {
                    (child, right)
                };
                // Canonical form: a removal that leaves one entry below
                // this branch replaces the branch by that entry's leaf.
                let only = if left == NIL { right } else { left };
                if (left == NIL || right == NIL) && matches!(self.node(only), Node::Leaf(..)) {
                    self.free.push(at);
                    return (only, true);
                }
                *self.node(at) = Node::Branch(left, right, None);
                (at, true)
            }
        }
    }

    /// The branches separating two leaves whose keys agree on the first
    /// `depth` bits: one single-child branch per further shared bit, then
    /// the branch holding both.
    fn fork(&mut self, a: u32, a_key: &Digest, b: u32, b_key: &Digest, depth: usize) -> u32 {
        let (left, right) = match (bit(a_key, depth), bit(b_key, depth)) {
            (false, true) => (a, b),
            (true, false) => (b, a),
            (false, false) => (self.fork(a, a_key, b, b_key, depth + 1), NIL),
            (true, true) => (NIL, self.fork(a, a_key, b, b_key, depth + 1)),
        };
        self.alloc(Node::Branch(left, right, None))
    }

    fn hash_of(&mut self, at: u32) -> Digest {
        if at == NIL {
            return EMPTY;
        }
        match *self.node(at) {
            Node::Leaf(_, hash) | Node::Branch(_, _, Some(hash)) => hash,
            Node::Branch(left, right, None) => {
                let hash = hash_parts(BRANCH, &[&self.hash_of(left), &self.hash_of(right)]);
                self.hashed += 1;
                *self.node(at) = Node::Branch(left, right, Some(hash));
                hash
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::collections::BTreeMap;

    fn random_key(rng: &mut StdRng) -> Digest {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        key
    }

    /// A key whose first `shared` bits are all ones and whose tail is `tail`.
    fn key_with_prefix(shared: usize, tail: u8) -> Digest {
        let mut key = [0u8; 32];
        for depth in 0..shared {
            key[depth / 8] |= 1 << (7 - depth % 8);
        }
        key[31] = tail;
        key
    }

    /// The root *defined* over `(hashed key, value)` entries sorted by key,
    /// with none of the incremental machinery: empty is [`EMPTY`], one
    /// entry is its leaf, more split on the next key bit.
    pub(crate) fn root_by_definition(entries: &[(Digest, Vec<u8>)], depth: usize) -> Digest {
        match entries {
            [] => EMPTY,
            [(key, value)] => hash_parts(LEAF, &[key, value]),
            _ => {
                let split = entries.partition_point(|(key, _)| !bit(key, depth));
                let (left, right) = entries.split_at(split);
                hash_parts(
                    BRANCH,
                    &[
                        &root_by_definition(left, depth + 1),
                        &root_by_definition(right, depth + 1),
                    ],
                )
            }
        }
    }

    /// Sets `key` to the leaf over `value`.
    fn put(trie: &mut Trie, key: &Digest, value: &[u8]) {
        trie.set(key, Some(hash_parts(LEAF, &[key, value])));
    }

    fn oracle(model: &BTreeMap<Digest, Vec<u8>>) -> Digest {
        let entries: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        root_by_definition(&entries, 0)
    }

    fn apply(
        trie: &mut Trie,
        model: &mut BTreeMap<Digest, Vec<u8>>,
        key: Digest,
        value: Option<Vec<u8>>,
    ) {
        match &value {
            Some(v) => put(trie, &key, v),
            None => trie.set(&key, None),
        }
        match value {
            Some(v) => model.insert(key, v),
            None => model.remove(&key),
        };
        assert_eq!(trie.root(), oracle(model));
        assert_eq!(trie.leaves, model.len());
    }

    #[test]
    fn empty_one_and_two_entries_follow_the_definition() {
        let mut trie = Trie::default();
        assert_eq!(trie.root(), EMPTY);
        let (a, b) = (key_with_prefix(0, 1), key_with_prefix(1, 2));
        put(&mut trie, &a, b"va");
        // One entry *is* its leaf: no branch above it.
        assert_eq!(trie.root(), hash_parts(LEAF, &[&a, b"va"]));
        put(&mut trie, &b, b"vb");
        let expected = hash_parts(
            BRANCH,
            &[
                &hash_parts(LEAF, &[&a, b"va"]),
                &hash_parts(LEAF, &[&b, b"vb"]),
            ],
        );
        assert_eq!(trie.root(), expected);
    }

    #[test]
    fn long_shared_prefix_forks_deep_and_collapses_on_removal() {
        // Two keys agreeing on 40 leading bits hang below a chain of
        // single-child branches; a third key near the top keeps the root
        // a branch. Removing one deep key must pull the other all the way
        // back up to depth 1.
        let mut trie = Trie::default();
        let mut model = BTreeMap::new();
        let deep_a = key_with_prefix(40, 0x01);
        let mut deep_b = key_with_prefix(40, 0x02);
        deep_b[5] |= 0x40; // differs at bit 41
        let shallow = key_with_prefix(0, 0x03);
        for (key, value) in [(deep_a, b"a"), (shallow, b"s"), (deep_b, b"b")] {
            apply(&mut trie, &mut model, key, Some(value.to_vec()));
        }
        let nodes_at_peak = trie.nodes.len();
        assert!(nodes_at_peak >= 3 + 41, "one branch per shared bit");
        apply(&mut trie, &mut model, deep_a, None);
        // Collapsed: root branch + two leaves are all that is live.
        assert_eq!(trie.nodes.len() - trie.free.len(), 3);
        apply(&mut trie, &mut model, shallow, None);
        assert_eq!(trie.root(), hash_parts(LEAF, &[&deep_b, b"b"]));
        apply(&mut trie, &mut model, deep_b, None);
        assert_eq!(trie.root(), EMPTY);
        // Freed slots are recycled, not leaked.
        apply(&mut trie, &mut model, deep_a, Some(b"again".to_vec()));
        assert_eq!(trie.nodes.len(), nodes_at_peak);
    }

    #[test]
    fn no_op_writes_hash_no_branch() {
        let mut trie = Trie::default();
        let mut rng = StdRng::seed_from_u64(5);
        let keys: Vec<Digest> = (0..64).map(|_| random_key(&mut rng)).collect();
        for key in &keys {
            put(&mut trie, key, b"v");
        }
        let root = trie.root();
        let before = trie.hashed;
        assert_eq!(trie.root(), root);
        assert_eq!(trie.hashed, before, "a clean root is cached");
        trie.set(&random_key(&mut rng), None); // absent key
        put(&mut trie, &keys[3], b"v"); // same value: one leaf entered, no branch
        assert_eq!(trie.root(), root);
        assert_eq!(trie.hashed, before + 1);
    }

    #[test]
    fn random_schedules_match_the_definition_and_ignore_order() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for round in 0..8 {
            // A small key universe with clustered prefixes, so forks,
            // overwrites, removals and collapses all happen often.
            let universe: Vec<Digest> = (0..24)
                .map(|i| {
                    let mut key = key_with_prefix((i % 4) * 9, i as u8);
                    key[16] = rng.gen_range(0..=255u8);
                    key
                })
                .collect();
            let mut trie = Trie::default();
            let mut model = BTreeMap::new();
            for _ in 0..80 {
                let key = universe[rng.gen_range(0..universe.len())];
                let value = rng.gen_bool(0.65).then(|| vec![rng.gen_range(0..4u8)]);
                apply(&mut trie, &mut model, key, value);
            }
            // The same final content inserted in two random orders, with
            // no removals at all, gives the same root.
            let mut entries: Vec<_> = model.iter().collect();
            for _ in 0..2 {
                for i in (1..entries.len()).rev() {
                    entries.swap(i, rng.gen_range(0..=i));
                }
                let mut fresh = Trie::default();
                for (key, value) in &entries {
                    put(&mut fresh, key, value);
                }
                assert_eq!(fresh.root(), trie.root(), "round {round}");
            }
            // A clone is independent of its source.
            let mut copy = trie.clone();
            put(&mut copy, &universe[0], b"diverged");
            assert_ne!(copy.root(), trie.root());
            assert_eq!(trie.root(), oracle(&model));
        }
    }
}
