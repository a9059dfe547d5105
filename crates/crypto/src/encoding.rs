//! Compact length-prefixed encoding for keys and signed containers.
//!
//! TLC messages travel between the operator's OFCS and the edge applet, and
//! PoCs are later handed to third-party verifiers, so keys and signatures
//! need a stable wire form. We use a minimal tag-length-value scheme rather
//! than full ASN.1 DER: `u8` tag, `u32` big-endian length, raw bytes.
//!
//! Every byte grammar in the workspace (this one, `tlc_core::messages`, the
//! verifier's frame payloads) is read through [`Reader`] and written with
//! the `put_*` helpers, so a length check and the read it protects are one
//! call.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::rsa::PublicKey;

/// A checked big-endian cursor over borrowed bytes. A read that would run
/// past the end returns `None` and consumes nothing; nothing here can panic,
/// and nothing is copied but the integers themselves.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader(buf)
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_be_bytes)
    }

    /// The next big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// The next big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// The next big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// The trailing-bytes check: `Some` only if the input is used up.
    pub fn finish(self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

/// Appends a big-endian `u16` to `out`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32` to `out`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64` to `out`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// TLV tag for an RSA public key container.
const TAG_PUBLIC_KEY: u8 = 0x01;
/// TLV tag for a big integer field.
const TAG_INTEGER: u8 = 0x02;

/// Appends one TLV field.
pub fn put_field(out: &mut Vec<u8>, tag: u8, value: &[u8]) {
    out.push(tag);
    put_u32(out, u32::try_from(value.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(value);
}

/// Reads one TLV field, checking the tag.
pub fn get_field<'a>(r: &mut Reader<'a>, expected_tag: u8) -> Result<&'a [u8], CryptoError> {
    let header = r
        .array::<5>()
        .ok_or(CryptoError::Encoding("truncated TLV header"))?;
    let [tag, len @ ..] = header;
    if tag != expected_tag {
        return Err(CryptoError::Encoding("unexpected TLV tag"));
    }
    r.take(u32::from_be_bytes(len) as usize)
        .ok_or(CryptoError::Encoding("truncated TLV value"))
}

/// Serializes a public key as `TLV(pubkey, TLV(int, n) || TLV(int, e))`.
pub fn encode_public_key(key: &PublicKey) -> Vec<u8> {
    let mut inner = Vec::new();
    put_field(&mut inner, TAG_INTEGER, &key.n.to_bytes_be());
    put_field(&mut inner, TAG_INTEGER, &key.e.to_bytes_be());
    let mut out = Vec::with_capacity(inner.len().saturating_add(5));
    put_field(&mut out, TAG_PUBLIC_KEY, &inner);
    out
}

/// Parses a public key produced by [`encode_public_key`].
pub fn decode_public_key(data: &[u8]) -> Result<PublicKey, CryptoError> {
    let mut outer = Reader::new(data);
    let mut inner = Reader::new(get_field(&mut outer, TAG_PUBLIC_KEY)?);
    outer
        .finish()
        .ok_or(CryptoError::Encoding("trailing bytes after public key"))?;
    let n = BigUint::from_bytes_be(get_field(&mut inner, TAG_INTEGER)?);
    let e = BigUint::from_bytes_be(get_field(&mut inner, TAG_INTEGER)?);
    inner
        .finish()
        .ok_or(CryptoError::Encoding("trailing bytes inside public key"))?;
    if n.is_zero() || e.is_zero() {
        return Err(CryptoError::Encoding("zero modulus or exponent"));
    }
    Ok(PublicKey::new(n, e))
}

/// A stable short fingerprint of a public key (first 8 bytes of SHA-256 of
/// its encoding), used to identify parties in logs and PoC stores.
#[expect(clippy::expect_used, reason = "SHA-256 output is always 32 bytes")]
pub fn key_fingerprint(key: &PublicKey) -> u64 {
    let digest = crate::sha256::digest(&encode_public_key(key));
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::KeyPair;

    #[test]
    fn public_key_roundtrip() {
        let kp = KeyPair::generate_for_seed(512, 5).unwrap();
        let enc = encode_public_key(&kp.public);
        let dec = decode_public_key(&enc).unwrap();
        assert_eq!(dec, kp.public);
    }

    #[test]
    fn truncated_key_rejected() {
        let kp = KeyPair::generate_for_seed(512, 5).unwrap();
        let enc = encode_public_key(&kp.public);
        for cut in [0, 1, 4, 10, enc.len() - 1] {
            assert!(decode_public_key(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let kp = KeyPair::generate_for_seed(512, 5).unwrap();
        let mut enc = encode_public_key(&kp.public);
        enc.push(0xff);
        assert!(decode_public_key(&enc).is_err());
    }

    #[test]
    fn wrong_tag_rejected() {
        let kp = KeyPair::generate_for_seed(512, 5).unwrap();
        let mut enc = encode_public_key(&kp.public);
        enc[0] = 0x7f;
        assert!(decode_public_key(&enc).is_err());
    }

    #[test]
    fn zero_modulus_rejected() {
        let mut inner = Vec::new();
        put_field(&mut inner, TAG_INTEGER, &[]);
        put_field(&mut inner, TAG_INTEGER, &[1]);
        let mut out = Vec::new();
        put_field(&mut out, TAG_PUBLIC_KEY, &inner);
        assert!(decode_public_key(&out).is_err());
    }

    #[test]
    fn fingerprints_distinguish_keys() {
        let a = KeyPair::generate_for_seed(512, 1).unwrap();
        let b = KeyPair::generate_for_seed(512, 2).unwrap();
        assert_ne!(key_fingerprint(&a.public), key_fingerprint(&b.public));
        assert_eq!(key_fingerprint(&a.public), key_fingerprint(&a.public));
    }

    #[test]
    fn oversized_length_field_rejected() {
        // Header claims a huge value length the buffer can't hold.
        let data = [TAG_PUBLIC_KEY, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert!(decode_public_key(&data).is_err());
    }
}
