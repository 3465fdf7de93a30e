//! A minimal deterministic binary codec for contract storage values and
//! call arguments.
//!
//! Contracts persist state as bytes (as on any real PSC chain); this codec
//! is the ABI. It is deliberately simple: little-endian fixed-width
//! integers, length-prefixed byte strings, and derived-by-hand composites.

use std::error::Error;
use std::fmt;

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A tag byte had no corresponding variant.
    BadTag(u8),
    /// Trailing bytes remained after decoding the value.
    TrailingBytes(usize),
    /// A length prefix exceeded the decoder's hard cap (hostile input).
    LengthCap {
        /// The length the input claimed.
        len: usize,
        /// The maximum the decoder accepts.
        max: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::LengthCap { len, max } => {
                write!(f, "length prefix {len} exceeds decoder cap {max}")
            }
        }
    }
}

impl Error for CodecError {}

/// A value that can be serialized into the storage/ABI format.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode_to(&self, out: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_to(&mut out);
        out
    }
}

/// A value that can be deserialized from the storage/ABI format.
pub trait Decode: Sized {
    /// Reads a value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed input.
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Decodes a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed input or leftovers.
    fn decode(mut input: &[u8]) -> Result<Self, CodecError> {
        let value = Self::decode_from(&mut input)?;
        if input.is_empty() {
            Ok(value)
        } else {
            Err(CodecError::TrailingBytes(input.len()))
        }
    }
}

/// Reads exactly `n` bytes from the front of the input.
#[inline]
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::UnexpectedEnd);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            #[inline]
            fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
                Decode::decode_from(input).map(<$t>::from_le_bytes)
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, u128);

impl Encode for bool {
    #[inline]
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

impl Encode for String {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_to(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        let bytes = Vec::<u8>::decode_from(input)?;
        String::from_utf8(bytes).map_err(|_| CodecError::BadTag(0xFF))
    }
}

impl<const N: usize> Encode for [u8; N] {
    #[inline]
    fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (bytes, rest) = input.split_first_chunk().ok_or(CodecError::UnexpectedEnd)?;
        *input = rest;
        Ok(*bytes)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_to(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(input)?)),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode_to(out);
        for item in self {
            item.encode_to(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode_from(input)? as usize;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode_from(input)?);
        }
        Ok(out)
    }
}

impl Encode for crate::account::AccountId {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
    }
}

impl Decode for crate::account::AccountId {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(crate::account::AccountId(<[u8; 20]>::decode_from(input)?))
    }
}

impl Encode for btcfast_crypto::Hash256 {
    #[inline]
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
    }
}

impl Decode for btcfast_crypto::Hash256 {
    #[inline]
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(btcfast_crypto::Hash256(<[u8; 32]>::decode_from(input)?))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.0.encode_to(out);
        self.1.encode_to(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode_from(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode_from(input)?, B::decode_from(input)?))
    }
}

/// Implements the codec of a composite from one table, so the encoding and
/// the decoding directions cannot disagree. Fields always travel in the
/// order listed. Three forms:
///
/// * `Enum { tag => Variant { fields }, .. }` — [`Encode`]/[`Decode`]: a
///   variant is its tag byte, then its fields; an unlisted tag is
///   [`CodecError::BadTag`].
/// * `struct Name { fields }` — [`Encode`]/[`Decode`]: the fields in turn.
/// * `Enum by method { "name" => Variant(args), .. }` — a contract ABI over
///   tuple variants: `method()` names the call, `args()` encodes its
///   fields, and `decode(method, args)` reads them back, `Ok(None)` for a
///   name outside the table and [`CodecError::TrailingBytes`] for
///   leftovers. Fields after a `;` ride beside the args (a transaction's
///   attached value): never encoded, they decode as their default.
#[macro_export]
macro_rules! tagged_codec {
    (struct $name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Encode for $name {
            fn encode_to(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode_to(&self.$field, out);)*
            }
        }

        impl $crate::codec::Decode for $name {
            fn decode_from(input: &mut &[u8]) -> Result<$name, $crate::codec::CodecError> {
                Ok($name { $($field: $crate::codec::Decode::decode_from(input)?,)* })
            }
        }
    };
    ($name:ident by method {
        $($method:literal => $variant:ident $(($($field:ident),* $(; $beside:ident)?))?,)*
    }) => {
        impl $name {
            /// The contract method this call invokes.
            pub fn method(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $method,)*
                }
            }

            /// The call's arguments: its fields, encoded in order.
            pub fn args(&self) -> Vec<u8> {
                let mut out = Vec::new();
                match self {
                    $($name::$variant $(($($field,)* ..))? => {
                        $($($crate::codec::Encode::encode_to($field, &mut out);)*)?
                    })*
                }
                out
            }

            /// Decodes a call from its method name and complete arguments.
            ///
            /// # Errors
            ///
            /// [`CodecError`] on malformed or trailing argument bytes.
            ///
            /// [`CodecError`]: $crate::codec::CodecError
            pub fn decode(
                method: &str,
                mut args: &[u8],
            ) -> Result<Option<$name>, $crate::codec::CodecError> {
                let input = &mut args;
                let call = match method {
                    $($method => $name::$variant $((
                        $({ let $field = $crate::codec::Decode::decode_from(input)?; $field },)*
                        $({ let $beside = Default::default(); $beside })?
                    ))?,)*
                    _ => return Ok(None),
                };
                match input.len() {
                    0 => Ok(Some(call)),
                    n => Err($crate::codec::CodecError::TrailingBytes(n)),
                }
            }
        }
    };
    ($name:ident { $($tag:literal => $variant:ident $({ $($field:ident),* })?,)* }) => {
        impl $crate::codec::Encode for $name {
            fn encode_to(&self, out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::codec::Encode::encode_to($field, out);)*)?
                    })*
                }
            }
        }

        impl $crate::codec::Decode for $name {
            fn decode_from(input: &mut &[u8]) -> Result<$name, $crate::codec::CodecError> {
                Ok(match <u8 as $crate::codec::Decode>::decode_from(input)? {
                    $($tag => $name::$variant $({ $($field: $crate::codec::Decode::decode_from(input)?),* })?,)*
                    t => return Err($crate::codec::CodecError::BadTag(t)),
                })
            }
        }
    };
}

pub use crate::tagged_codec;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn ints() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(12345u32);
        round_trip(u64::MAX);
        round_trip(u128::MAX);
    }

    #[test]
    fn bools_and_bad_tag() {
        round_trip(true);
        round_trip(false);
        assert_eq!(bool::decode(&[2]), Err(CodecError::BadTag(2)));
    }

    #[test]
    fn byte_vectors_and_strings() {
        round_trip(Vec::<u8>::new());
        round_trip(vec![1u8, 2, 3]);
        round_trip("hello".to_string());
        round_trip(String::new());
    }

    #[test]
    fn options() {
        round_trip(Option::<u64>::None);
        round_trip(Some(42u64));
    }

    #[test]
    fn vectors_of_values() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
    }

    #[test]
    fn tuples_and_ids() {
        round_trip((7u32, "x".to_string()));
        round_trip(crate::account::AccountId([9; 20]));
        round_trip(btcfast_crypto::Hash256([7; 32]));
    }

    #[test]
    fn truncated_input_fails() {
        assert_eq!(u64::decode(&[1, 2, 3]), Err(CodecError::UnexpectedEnd));
        let mut encoded = vec![5u8, 0, 0, 0]; // claims 5 bytes
        encoded.push(1);
        assert_eq!(Vec::<u8>::decode(&encoded), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = 7u32.encode();
        encoded.push(0);
        assert_eq!(u32::decode(&encoded), Err(CodecError::TrailingBytes(1)));
    }
}
