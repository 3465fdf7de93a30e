//! Base58 and Base58Check (Bitcoin address) encoding.

const ALPHABET: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";

/// Encodes bytes as Base58.
pub fn encode(data: &[u8]) -> String {
    // Count leading zero bytes — they map to leading '1's.
    let zeros = data.iter().take_while(|&&b| b == 0).count();
    let mut digits: Vec<u8> = Vec::with_capacity(data.len() * 138 / 100 + 1);
    for &byte in data {
        let mut carry = byte as u32;
        for digit in digits.iter_mut() {
            carry += (*digit as u32) << 8;
            *digit = (carry % 58) as u8;
            carry /= 58;
        }
        while carry > 0 {
            digits.push((carry % 58) as u8);
            carry /= 58;
        }
    }
    let mut out = String::with_capacity(zeros + digits.len());
    for _ in 0..zeros {
        out.push('1');
    }
    for &d in digits.iter().rev() {
        out.push(ALPHABET[d as usize] as char);
    }
    out
}

/// Base58Check encode: `version || payload || first4(SHA256d(version||payload))`.
pub fn check_encode(version: u8, payload: &[u8]) -> String {
    let mut data = Vec::with_capacity(1 + payload.len() + 4);
    data.push(version);
    data.extend_from_slice(payload);
    let checksum = crate::sha256::sha256d(&data);
    data.extend_from_slice(&checksum.0[..4]);
    encode(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Vectors from the Bitcoin Core base58 test suite.
        let cases: &[(&[u8], &str)] = &[
            (b"", ""),
            (&[0x61], "2g"),
            (&[0x62, 0x62, 0x62], "a3gV"),
            (&[0x63, 0x63, 0x63], "aPEr"),
            (
                &[
                    0x73, 0x69, 0x6d, 0x70, 0x6c, 0x79, 0x20, 0x61, 0x20, 0x6c, 0x6f, 0x6e, 0x67,
                    0x20, 0x73, 0x74, 0x72, 0x69, 0x6e, 0x67,
                ],
                "2cFupjhnEsSn59qHXstmK2ffpLv2",
            ),
            (&[0x00, 0x00, 0x00, 0x28, 0x7f, 0xb4, 0xcd], "111233QC4"),
        ];
        for (input, expected) in cases {
            assert_eq!(encode(input), *expected);
        }
    }

    #[test]
    fn leading_zeros_preserved() {
        // Each leading zero byte is one leading '1'; the rest encodes the value.
        assert_eq!(
            encode(&[0, 0, 0, 1, 2, 3]),
            format!("111{}", encode(&[1, 2, 3]))
        );
        assert!(!encode(&[1, 2, 3]).starts_with('1'));
    }

    #[test]
    fn genesis_address_vector() {
        // The famous genesis-block address encodes hash160
        // 62e907b15cbf27d5425399ebf6f0fb50ebb88f18 with version 0.
        let payload = crate::hex::decode("62e907b15cbf27d5425399ebf6f0fb50ebb88f18").unwrap();
        assert_eq!(
            check_encode(0x00, &payload),
            "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
        );
    }
}
