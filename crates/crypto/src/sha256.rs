//! SHA-256 (FIPS 180-4) and Bitcoin's double-SHA-256, implemented from
//! scratch — the fast path included: this crate's own code on the CPU's SHA
//! instructions, not a library.
//!
//! Every hash in the system ends in one block primitive, `compress_blocks`,
//! with two implementations: the portable function below and a kernel on
//! the x86-64 SHA extensions (`ni`), taken per call whenever the running
//! CPU reports them — never by a flag. [`backend`] names the one in use.
//!
//! The streaming [`Sha256`] hasher supports incremental input; the
//! free functions [`sha256`] and [`sha256d`] cover the common one-shot cases.

use crate::hash::Hash256;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// use btcfast_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, btcfast_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// The input past the last whole block: `total_len % 64` bytes.
    buffer: [u8; 64],
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            total_len: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        let buffered = (self.total_len % 64) as usize;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if buffered > 0 {
            let take = (64 - buffered).min(data.len());
            self.buffer[buffered..buffered + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            if buffered + take < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
        }
        // Whole blocks go straight from the caller's slice, in one call.
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, and the big-endian bit length in the last
        // 8 bytes of a block — this one if 9 bytes are free in it, else the next.
        let buffered = (self.total_len % 64) as usize;
        let mut tail = [0u8; 128];
        tail[..buffered].copy_from_slice(&self.buffer[..buffered]);
        tail[buffered] = 0x80;
        let end = if buffered < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..end]);
        digest_bytes(&self.state)
    }
}

/// The digest a final state stands for: its words, big-endian.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The block primitive under every hash in the system: `blocks`, any number
/// of whole 64-byte blocks, through the compression function — on the SHA
/// extensions when the running CPU has them, portably otherwise. Out of line:
/// inlined, it keeps `update`/`finalize` out of [`sha256d`] (+9 % at 80 bytes).
#[inline(never)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole 64-byte blocks only");
    #[cfg(target_arch = "x86_64")]
    if ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// Which implementation hashes on this host, `"sha-ni"` or `"portable"` —
/// for run records: the second is several times slower.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ni::available() {
        return "sha-ni";
    }
    "portable"
}

/// The compression function in portable arithmetic (FIPS 180-4 §6.2.2):
/// the only path on hosts without the SHA extensions — production code
/// reaches it through `compress_blocks` alone — and, through
/// [`crate::oracle::compress_blocks_portable`], the tests' oracle.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.as_chunks::<64>().0 {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// One-shot SHA-256.
///
/// ```
/// let d = btcfast_crypto::sha256::sha256(b"abc");
/// assert_eq!(
///     btcfast_crypto::hex::encode(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Bitcoin's double SHA-256: `SHA256(SHA256(data))`, returned as a
/// [`Hash256`].
pub fn sha256d(data: &[u8]) -> Hash256 {
    Hash256(sha256(&sha256(data)))
}

/// For hashing many messages that differ only past their last whole block
/// (the miner's nonce grind): the state after `message`'s whole leading
/// blocks, and its remainder as the padded final block, which the caller
/// rewrites in place before each [`sha256d_resumed`]. Panics when more
/// than 55 bytes remain: the padding would need a second block.
pub fn midstate(message: &[u8]) -> ([u32; 8], [u8; 64]) {
    let (head, rest) = message.split_at(message.len() - message.len() % 64);
    assert!(rest.len() < 56, "a padded final block holds 55 bytes");
    let (mut state, mut last) = (H0, [0u8; 64]);
    compress_blocks(&mut state, head);
    last[..rest.len()].copy_from_slice(rest);
    last[rest.len()] = 0x80;
    last[56..].copy_from_slice(&(message.len() as u64 * 8).to_be_bytes());
    (state, last)
}

/// [`sha256d`] of the message [`midstate`] split: one compression of `last`
/// from `state`, one of the digest under a 32-byte message's constant
/// padding (`0x80`, zeros, bit length 256) — no hasher to clone or pad.
pub fn sha256d_resumed(state: &[u32; 8], last: &[u8; 64]) -> Hash256 {
    let (mut first, mut second, mut block) = (*state, H0, [0u8; 64]);
    compress_blocks(&mut first, last);
    block[..32].copy_from_slice(&digest_bytes(&first));
    (block[32], block[62]) = (0x80, 1);
    compress_blocks(&mut second, &block);
    Hash256(digest_bytes(&second))
}

/// SHA-256 over the concatenation of two 32-byte values, applied twice —
/// the inner node combiner of a Bitcoin Merkle tree.
pub fn sha256d_pair(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&left.0);
    buf[32..].copy_from_slice(&right.0);
    sha256d(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::oracle::sha256_with;

    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    /// FIPS 180-4 / NIST CAVP test vectors.
    const NIST: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    type Compress = fn(&mut [u32; 8], &[u8]);

    /// The kernel by name, past the dispatcher (callers checked it exists).
    #[cfg(target_arch = "x86_64")]
    fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(ni::compress_blocks(state, blocks), "no SHA extensions");
    }

    /// Every implementation this host can run, by name: the portable one
    /// always — a SHA host never takes it in production, so only tests keep
    /// it honest there — and the kernel where the CPU has the instructions.
    fn implementations() -> Vec<(&'static str, Compress)> {
        let mut all: Vec<(&'static str, Compress)> = vec![("portable", compress_blocks_portable)];
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            all.push(("sha-ni", compress_blocks_ni));
        }
        if all.len() == 1 {
            println!("note: no SHA extensions on this host; the sha-ni kernel is not tested");
        }
        all
    }

    fn oracle(data: &[u8]) -> [u8; 32] {
        sha256_with(compress_blocks_portable, data)
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    #[test]
    fn nist_vectors() {
        for (input, expected) in NIST {
            assert_eq!(hex::encode(&sha256(input)), *expected);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex::encode(&sha256(&data)), MILLION_A);
    }

    #[test]
    fn each_implementation_passes_the_nist_vectors_and_million_a() {
        let million = vec![b'a'; 1_000_000];
        for (name, compress) in implementations() {
            for (input, expected) in NIST {
                let digest = sha256_with(compress, input);
                assert_eq!(hex::encode(&digest), *expected, "{name}");
            }
            let digest = sha256_with(compress, &million);
            assert_eq!(hex::encode(&digest), MILLION_A, "{name}");
        }
    }

    #[test]
    fn the_backend_named_is_the_best_this_cpu_offers() {
        let (name, _) = *implementations().last().unwrap();
        assert_eq!(backend(), name);
    }

    #[test]
    fn every_implementation_and_every_split_agree_on_every_length_to_257() {
        // Covers each padding shape of `finalize` (0..=55 one block, 56..=63
        // two, then again past each block boundary: 55 | 56, 63 | 64 | 65,
        // 119 | 120 …) and every way `update` can meet a part-filled buffer.
        let data = random_bytes(&mut StdRng::seed_from_u64(18), 257);
        for len in 0..=data.len() {
            let data = &data[..len];
            let expected = oracle(data);
            for (name, compress) in implementations() {
                assert_eq!(sha256_with(compress, data), expected, "{name}, len {len}");
            }
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expected, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn random_inputs_through_random_chunkings_match_the_portable_oracle() {
        let mut rng = StdRng::seed_from_u64(1818);
        for case in 0..64 {
            let len = rng.gen_range(0..=8192usize);
            let data = random_bytes(&mut rng, len);
            let (mut h, mut rest) = (Sha256::new(), &data[..]);
            while !rest.is_empty() {
                // Mostly short pieces, sometimes one spanning many blocks.
                let most = if rng.gen_bool(0.2) { rest.len() } else { 150 };
                let (piece, tail) = rest.split_at(rng.gen_range(0..=most.min(rest.len())));
                h.update(piece);
                rest = tail;
            }
            assert_eq!(h.finalize(), oracle(&data), "case {case}, len {len}");
            assert_eq!(sha256(&data), oracle(&data), "case {case}, len {len}");
        }
    }

    #[test]
    fn a_multi_block_call_equals_block_at_a_time() {
        let data = random_bytes(&mut StdRng::seed_from_u64(64), 64 * 9);
        let mut expected = H0;
        for block in data.chunks(64) {
            compress_blocks_portable(&mut expected, block);
        }
        for (name, compress) in implementations() {
            for first in 0..=9 {
                let (mut state, (head, tail)) = (H0, data.split_at(64 * first));
                compress(&mut state, head);
                compress(&mut state, tail);
                assert_eq!(state, expected, "{name}, {first} + {} blocks", 9 - first);
            }
        }
        let mut dispatched = H0;
        compress_blocks(&mut dispatched, &data);
        assert_eq!(dispatched, expected);
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u8).collect();
        let expected = sha256(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0..255u8).cycle().take(1000).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn length_boundary_paddings() {
        // Lengths straddling the 55/56/64 padding boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn sha256d_known_value() {
        // Double-SHA256 of "hello" (internal byte order, then displayed
        // reversed per Bitcoin convention).
        let h = sha256d(b"hello");
        assert_eq!(
            hex::encode(&h.0),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }

    #[test]
    fn the_resumed_form_equals_sha256d_of_the_whole_message() {
        let mut rng = StdRng::seed_from_u64(22);
        // An 88-byte block header: the nonce is its last eight bytes.
        let mut header = random_bytes(&mut rng, 88);
        let (state, mut last) = midstate(&header);
        for around in [0u64, 1 << 32, 1 << 56] {
            // Three below (wrapping to the top of the range at 0), three from.
            for nonce in (0..6).map(|i| around.wrapping_sub(3).wrapping_add(i)) {
                header[80..].copy_from_slice(&nonce.to_le_bytes());
                last[16..24].copy_from_slice(&nonce.to_le_bytes());
                assert_eq!(sha256d_resumed(&state, &last), sha256d(&header), "{nonce}");
            }
        }
        // Every remainder one block can hold, after zero to two whole ones.
        for len in (0..3).flat_map(|blocks| (0..=55).map(move |tail| 64 * blocks + tail)) {
            let message = random_bytes(&mut rng, len);
            let (state, last) = midstate(&message);
            assert_eq!(
                sha256d_resumed(&state, &last),
                sha256d(&message),
                "len {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "holds 55 bytes")]
    fn a_remainder_that_needs_a_second_padding_block_is_refused() {
        midstate(&[0u8; 64 + 56]);
    }

    #[test]
    fn sha256d_pair_matches_manual_concat() {
        let a = sha256d(b"left");
        let b = sha256d(b"right");
        let mut cat = Vec::new();
        cat.extend_from_slice(&a.0);
        cat.extend_from_slice(&b.0);
        assert_eq!(sha256d_pair(&a, &b), sha256d(&cat));
    }

    #[test]
    fn default_is_new() {
        let a = Sha256::default().finalize();
        let b = Sha256::new().finalize();
        assert_eq!(a, b);
    }
}
