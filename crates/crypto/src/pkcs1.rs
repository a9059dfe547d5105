//! RSASSA-PKCS1-v1_5 signatures with SHA-256 (RFC 8017 §8.2 / §9.2).
//!
//! This is what `java.security`'s `SHA256withRSA` produces, i.e. the
//! signature scheme the paper's prototype uses for CDR/CDA/PoC messages.
//!
//! Both [`sign`] and [`verify`] go through the key's raw RSA operations,
//! which reuse the per-key cached [`crate::montgomery::MontgomeryCtx`]
//! (see [`crate::rsa`]) — no REDC constants are recomputed per signature.
//! On the IFMA signing route [`sign`] builds the EM in radix-2^52 digits
//! (`LANE_EM_HEAD | digest digits`) and hands its 20 digits to one
//! kernel call, and `ifma::be_from_digits` writes the 128 signature
//! bytes.
//!
//! # Batched verification: filled with whatever arrives
//!
//! [`verify_batch`] decides the structural failures per request
//! (`SignatureLength`, then `s ≥ n` → `MessageTooLarge`) and then picks a
//! kernel from three things it can observe — how many live requests
//! there are, the shape of each request's key, and the CPU — with no
//! knob, env var, cargo feature or config field:
//!
//! | live requests | key shape | host | kernel |
//! |---|---|---|---|
//! | any | `n` even or zero | any | per key, schoolbook `BigUint::modpow` (what `raw_encrypt` does) |
//! | any | odd `n`, but not (1024-bit and `e = 65537`) | any | per key, [`MontgomeryCtx::modpow_batch`](crate::montgomery::MontgomeryCtx::modpow_batch), scalar `modpow` per base |
//! | any | odd 1024-bit `n`, `e = 65537` | no AVX-512 IFMA | same per-key path |
//! | 1 | odd 1024-bit `n`, `e = 65537` | IFMA + `avx512vl` | one **one-lane** call: the lane's 20 digits across five 256-bit vectors (`lone_kernel` `avx512-ifma-one-lane-5x256`) |
//! | 2–4 | 〃 | IFMA + `avx512vl` | one **256-bit** call, 4 lanes |
//! | 1–4 | 〃 | IFMA, no `avx512vl` | one 512-bit call, 8 lanes |
//! | 5–8 | 〃 | IFMA | one **512-bit** call, 8 lanes |
//! | > 8 | 〃 | IFMA | chunks of 8 in request order, the last chunk by the rows above |
//!
//! The IFMA rows are [`crate::ifma`]'s any-key lanes: every lane carries
//! its own modulus, so requests ride in request order whatever their
//! keys, and one PoC's three signatures under two keys are one call
//! instead of three scalar exponentiations. There is no scalar row for
//! an F4 key on an IFMA host. A lone check — each of a negotiation's
//! three (`CdrMsg::verify`, both `verify_outer`s) goes through
//! [`verify_prehashed`] — takes a lane key's request straight to the
//! one-lane kernel (no `Vec`, no big integer), as a batch of one does.
//! Two lanes as two one-lane calls cost what one 4-lane call does, so
//! the route is by live count alone.
//!
//! *A digit-domain finish.* A lane request holds no heap value of its
//! own. Its signature bytes go straight into radix-2^52 digits
//! (`ifma::digits_from_be`, eight bytes to a limb, then the
//! limbs cut into digits); `s ≥ n` is decided on those digits against
//! the modulus digits the key's lane constants already hold; the kernel
//! writes its exact results into one digit array per batch; and the
//! expected EM is `LANE_EM_HEAD` — the 128-byte EM `00 01 FF…FF 00 ‖
//! DigestInfo prefix` with the digest bytes zero, digit-converted at
//! compile time — OR the digest's digits, since the digest is the EM's
//! low 256 bits. One OR of XORs over the 20 digits decides, so the
//! comparison takes the same time whatever the digits. A lane key is
//! exactly 128 bytes (a 16-limb modulus of fewer bits takes the per-key
//! path); the per-key path keeps the byte-domain encode-then-compare.
//! `lane_em_digits_are_the_em_bytes_digits` holds the built EM to the
//! byte EM's digits.
//!
//! *Oracles.* Error precedence (`SignatureLength` → `MessageTooLarge` →
//! `BadSignature`) matches the sequential verifier exactly.
//! [`verify_prehashed_scalar`] is [`verify_prehashed`] on the scalar route
//! whatever the host, and [`crate::rsa::PublicKey::raw_encrypt`] stays
//! scalar too: they are the oracles. `prop_crypto`'s
//! `batched_verify_matches_sequential` (random shapes, corrupted and
//! truncated signatures, two keys) and
//! `any_key_batch_matches_scalar_elementwise` (1–17 requests over 1–4 of
//! five keys in any interleaving — two RSA-1024 F4 keys, an RSA-512 key,
//! a non-F4 exponent, an even modulus — with flipped, mis-sized and
//! `s ≥ n` signatures) hold every element to both, so on an IFMA host
//! the lane kernels are still checked against scalar `modpow`, not only
//! against the one-lane kernel; `batch_structural_errors_match_scalar`
//! adds `s = n` itself and `s = n − 1`, the two sides of the digit
//! compare. `prop_crypto`'s `kernels_on_this_host` prints the sign,
//! batch, lone-check, SHA-256 and batch SHA-256 kernels first in CI's
//! crypto step, so a log says which paths that runner exercised, and a
//! runner without IFMA still covers the scalar route. The benchmark's
//! traced rows time this plane (`crypto.verify_batch32_us_per_sig`) and
//! its result names the batch kernel (`crypto.batch_kernel`).

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::ifma::{self, Digits, F4Lane, IfmaCtx1024};
use crate::montgomery;
use crate::rsa::{PrivateKey, PublicKey};
use crate::sha256;

/// DER prefix for the SHA-256 `DigestInfo` structure
/// (`SEQUENCE { AlgorithmIdentifier sha256, OCTET STRING (32) }`).
const SHA256_DIGEST_INFO_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// EMSA-PKCS1-v1_5 encoding of a message's SHA-256 digest into `em_len`
/// bytes.
fn emsa_encode_digest(
    digest: &[u8; sha256::DIGEST_LEN],
    em_len: usize,
) -> Result<Vec<u8>, CryptoError> {
    let t_len = SHA256_DIGEST_INFO_PREFIX.len() + digest.len();
    // RFC 8017: emLen must be at least tLen + 11.
    if em_len < t_len + 11 {
        return Err(CryptoError::KeyTooSmallForDigest);
    }
    let mut em = Vec::with_capacity(em_len);
    em.push(0x00);
    em.push(0x01);
    em.resize(em_len - t_len - 1, 0xff); // PS of 0xff, at least 8 bytes
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO_PREFIX);
    em.extend_from_slice(digest);
    debug_assert_eq!(em.len(), em_len);
    Ok(em)
}

/// Signs `message` with RSASSA-PKCS1-v1_5/SHA-256.
///
/// The returned signature is exactly `modulus_len` bytes. Under an
/// RSA-1024 key whose private-key operations run on the IFMA lanes
/// ([`PrivateKey::sign_kernel`]), no big integer is made: the EM is
/// `LANE_EM_HEAD` and the digest's digits, the private-key operation
/// one kernel call on them, and the signature bytes are written straight
/// from its digits.
pub fn sign(key: &PrivateKey, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
    let k = key.public.modulus_len();
    let digest = sha256::digest(message);
    if k == LANE_LEN {
        if let Some(s) = key.raw_decrypt_digits(&lane_em(&digest)) {
            return Ok(ifma::be_from_digits(&s).to_vec());
        }
    }
    let em = emsa_encode_digest(&digest, k)?;
    let m = BigUint::from_bytes_be(&em);
    let s = key.raw_decrypt(&m)?;
    s.to_bytes_be_padded(k).ok_or(CryptoError::Internal)
}

/// Verifies an RSASSA-PKCS1-v1_5/SHA-256 signature.
///
/// Returns `Ok(())` on success; any structural or cryptographic mismatch is
/// an error so callers cannot forget to check a boolean.
pub fn verify(key: &PublicKey, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
    verify_prehashed(key, &sha256::digest(message), signature)
}

/// Verifies a signature over a message whose SHA-256 digest the caller has
/// already computed. `verify(key, msg, sig)` is exactly
/// `verify_prehashed(key, &sha256::digest(msg), sig)`, and the result is
/// exactly that of the same request's element in [`verify_batch`].
///
/// Under a lane key (1024-bit, `e = 65537`) on an IFMA host the check
/// holds no heap value: it is one one-lane kernel call on the
/// signature's digits, compared in digits (`finish_lane`).
pub fn verify_prehashed(
    key: &PublicKey,
    digest: &[u8; sha256::DIGEST_LEN],
    signature: &[u8],
) -> Result<(), CryptoError> {
    match lane_ctx(key) {
        Some(ctx) if signature.len() == LANE_LEN => {
            let mut m = [[0; ifma::DIGITS]];
            ifma::modpow_f4(&[(ctx, lane_base(ctx, signature)?)], &mut m);
            finish_lane(&m[0], digest)
        }
        _ => verify_prehashed_scalar(key, digest, signature),
    }
}

/// [`verify_prehashed`] on the scalar route whatever the key and host:
/// `s^e mod n` by `BigUint` exponentiation, compared in bytes. Tests
/// check every IFMA kernel's verdict against this one.
#[doc(hidden)]
pub fn verify_prehashed_scalar(
    key: &PublicKey,
    digest: &[u8; sha256::DIGEST_LEN],
    signature: &[u8],
) -> Result<(), CryptoError> {
    let k = key.modulus_len();
    if signature.len() != k {
        return Err(CryptoError::SignatureLength {
            expected: k,
            got: signature.len(),
        });
    }
    let s = BigUint::from_bytes_be(signature);
    let m = key.raw_encrypt(&s)?;
    finish_verify(&m, digest, k)
}

/// Encode-then-compare tail shared by the scalar and batch paths.
fn finish_verify(
    m: &BigUint,
    digest: &[u8; sha256::DIGEST_LEN],
    k: usize,
) -> Result<(), CryptoError> {
    let em = m.to_bytes_be_padded(k).ok_or(CryptoError::Internal)?;
    let expected = emsa_encode_digest(digest, k)?;
    // Constant-time-style full comparison (encode-then-compare per RFC 8017).
    if constant_time_eq(&em, &expected) {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

/// One element of a [`verify_batch`] call.
pub struct VerifyRequest<'a> {
    /// Signer's public key. On an IFMA host, requests under 1024-bit
    /// F4 keys share kernel calls whatever their keys; other requests
    /// sharing a key (by `(n, e)` value) go to that key's
    /// `modpow_batch` together.
    pub key: &'a PublicKey,
    /// SHA-256 digest of the signed message.
    pub digest: [u8; sha256::DIGEST_LEN],
    /// Signature bytes.
    pub signature: &'a [u8],
}

/// Bytes of a lane key's modulus, and so of its signatures and EMs.
const LANE_LEN: usize = 128;

/// The key's lane constants when its signatures can ride the any-key
/// IFMA lanes: odd 1024-bit `n`, `e = 65537`, capable CPU.
fn lane_ctx(key: &PublicKey) -> Option<&IfmaCtx1024> {
    if key.e.limbs != [montgomery::F4] || key.modulus_len() != LANE_LEN {
        return None;
    }
    key.mont_ctx()?.ifma_ctx()
}

/// A lane key's EM with the digest bytes left zero — `00 01 FF…FF 00`
/// and the DigestInfo prefix — in radix-2^52 digits. The digest is the
/// EM's low 256 bits, so the whole EM is this OR the digest's digits.
const LANE_EM_HEAD: Digits = ifma::digits_from_be(&lane_em_head());

const fn lane_em_head() -> [u8; LANE_LEN] {
    let mut em = [0u8; LANE_LEN];
    em[1] = 0x01;
    let prefix_at = LANE_LEN - sha256::DIGEST_LEN - SHA256_DIGEST_INFO_PREFIX.len();
    let mut i = 2;
    while i < prefix_at - 1 {
        em[i] = 0xff;
        i += 1;
    }
    let mut i = 0;
    while i < SHA256_DIGEST_INFO_PREFIX.len() {
        em[prefix_at + i] = SHA256_DIGEST_INFO_PREFIX[i];
        i += 1;
    }
    em
}

/// A lane key's EM for `digest`, in radix-2^52 digits.
fn lane_em(digest: &[u8; sha256::DIGEST_LEN]) -> Digits {
    let digest = ifma::digits_from_be(digest);
    core::array::from_fn(|i| LANE_EM_HEAD[i] | digest[i])
}

/// A lane key's signature bytes (of the right length) as the kernel's
/// base, or the scalar path's error when `s >= n`.
fn lane_base(ctx: &IfmaCtx1024, signature: &[u8]) -> Result<Digits, CryptoError> {
    let s = ifma::digits_from_be(signature);
    if s.iter().rev().ge(ctx.modulus_digits().iter().rev()) {
        return Err(CryptoError::MessageTooLarge);
    }
    Ok(s)
}

/// [`finish_verify`] in the lanes' digits: the expected EM is built from
/// [`LANE_EM_HEAD`] and the digest, and compared with the kernel's exact
/// `s^e mod n` in constant time.
fn finish_lane(m: &Digits, digest: &[u8; sha256::DIGEST_LEN]) -> Result<(), CryptoError> {
    let diff = m
        .iter()
        .zip(&lane_em(digest))
        .fold(0, |acc, (m, em)| acc | (m ^ em));
    if diff == 0 {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

/// Verifies a batch of signatures through the widest kernel each request
/// can use: the any-key IFMA lanes in request order where the key and
/// the host allow, otherwise per key, amortizing the key's Montgomery
/// context and interleaving independent modpows.
///
/// A lane request holds no heap value of its own: its signature bytes
/// go straight into radix-2^52 digits, `s ≥ n` is decided on those, and
/// the kernel's exact result is compared with the expected EM in
/// digits (`finish_lane`).
///
/// Result `i` is exactly what
/// `verify_prehashed(reqs[i].key, &reqs[i].digest, reqs[i].signature)`
/// returns: a bad element fails alone without disturbing its neighbours,
/// and every error variant and precedence matches the scalar path.
pub fn verify_batch(reqs: &[VerifyRequest<'_>]) -> Vec<Result<(), CryptoError>> {
    // Default-deny: an element keeps this only if no kernel reports on it.
    let mut results = vec![Err(CryptoError::Internal); reqs.len()];

    // Requests that pass the scalar path's structural checks: lane ones
    // in request order (their indexes in `lane_of`), the rest grouped
    // by key as (key, request indexes, s). Batches are small (tens of
    // requests over a handful of keys), so a linear scan beats hashing
    // the moduli.
    let mut lane_of: Vec<usize> = Vec::with_capacity(reqs.len());
    let mut lanes: Vec<F4Lane<'_>> = Vec::with_capacity(reqs.len());
    let mut groups: Vec<(&PublicKey, Vec<usize>, Vec<BigUint>)> = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let k = req.key.modulus_len();
        if req.signature.len() != k {
            results[i] = Err(CryptoError::SignatureLength {
                expected: k,
                got: req.signature.len(),
            });
            continue;
        }
        // The scalar path rejects s >= n before exponentiating.
        if let Some(ctx) = lane_ctx(req.key) {
            match lane_base(ctx, req.signature) {
                Ok(s) => {
                    lane_of.push(i);
                    lanes.push((ctx, s));
                }
                Err(e) => results[i] = Err(e),
            }
            continue;
        }
        let s = BigUint::from_bytes_be(req.signature);
        if s.cmp_to(&req.key.n) != std::cmp::Ordering::Less {
            results[i] = Err(CryptoError::MessageTooLarge);
            continue;
        }
        match groups.iter_mut().find(|(key, ..)| *key == req.key) {
            Some((_, members, bases)) => {
                members.push(i);
                bases.push(s);
            }
            None => groups.push((req.key, vec![i], vec![s])),
        }
    }

    let mut exact = vec![[0; ifma::DIGITS]; lanes.len()];
    montgomery::modpow_f4_lanes(&lanes, &mut exact);
    for (&i, m) in lane_of.iter().zip(&exact) {
        results[i] = finish_lane(m, &reqs[i].digest);
    }
    for (key, members, bases) in &groups {
        let ms: Vec<BigUint> = match key.mont_ctx() {
            Some(ctx) => ctx.modpow_batch(bases, &key.e),
            // Even/zero modulus: mirror `raw_encrypt`'s schoolbook fallback.
            None => bases.iter().map(|s| s.modpow(&key.e, &key.n)).collect(),
        };
        for (&i, m) in members.iter().zip(&ms) {
            results[i] = finish_verify(m, &reqs[i].digest, key.modulus_len());
        }
    }
    results
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::KeyPair;

    fn kp() -> KeyPair {
        KeyPair::generate_for_seed(1024, 0xc0de).expect("keygen")
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = kp();
        let msg = b"CDR{T, c, seq, nonce, x_o}";
        let sig = sign(&kp.private, msg).unwrap();
        assert_eq!(sig.len(), 128); // RSA-1024 -> 128-byte signature
        verify(&kp.public, msg, &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = kp();
        let sig = sign(&kp.private, b"usage=1000").unwrap();
        assert!(matches!(
            verify(&kp.public, b"usage=9999", &sig),
            Err(CryptoError::BadSignature)
        ));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = kp();
        let mut sig = sign(&kp.private, b"hello").unwrap();
        sig[5] ^= 0x01;
        assert!(verify(&kp.public, b"hello", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let a = kp();
        let b = KeyPair::generate_for_seed(1024, 0xdead).unwrap();
        let sig = sign(&a.private, b"msg").unwrap();
        assert!(verify(&b.public, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_rejected_early() {
        let kp = kp();
        assert!(matches!(
            verify(&kp.public, b"msg", &[0u8; 64]),
            Err(CryptoError::SignatureLength {
                expected: 128,
                got: 64
            })
        ));
    }

    #[test]
    fn empty_message_signable() {
        let kp = kp();
        let sig = sign(&kp.private, b"").unwrap();
        verify(&kp.public, b"", &sig).unwrap();
    }

    #[test]
    fn signature_is_deterministic() {
        // PKCS#1 v1.5 signing is deterministic — same message, same bytes.
        let kp = kp();
        assert_eq!(
            sign(&kp.private, b"determinism").unwrap(),
            sign(&kp.private, b"determinism").unwrap()
        );
    }

    #[test]
    fn key_too_small_for_digest_rejected() {
        // 512-bit keys are big enough (64 >= 32+19+11=62); use the check
        // indirectly by encoding into a tiny em_len.
        assert!(matches!(
            emsa_encode_digest(&sha256::digest(b"x"), 40),
            Err(CryptoError::KeyTooSmallForDigest)
        ));
    }

    #[test]
    fn batch_mixed_keys_matches_scalar_and_isolates_failures() {
        let a = kp();
        let b = KeyPair::generate_for_seed(1024, 0xbeef).unwrap();
        let msgs: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 40 + i as usize]).collect();
        let mut sigs: Vec<Vec<u8>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let key = if i % 2 == 0 { &a.private } else { &b.private };
                sign(key, m).unwrap()
            })
            .collect();
        sigs[3][10] ^= 0x40; // corrupt one element only
        let reqs: Vec<VerifyRequest<'_>> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| VerifyRequest {
                key: if i % 2 == 0 { &a.public } else { &b.public },
                digest: sha256::digest(m),
                signature: &sigs[i],
            })
            .collect();
        let batch = verify_batch(&reqs);
        for (i, r) in batch.iter().enumerate() {
            let (key, digest, sig) = (reqs[i].key, &reqs[i].digest, reqs[i].signature);
            assert_eq!(*r, verify_prehashed_scalar(key, digest, sig), "element {i}");
            assert_eq!(*r, verify_prehashed(key, digest, sig), "element {i}");
            if i == 3 {
                assert_eq!(*r, Err(CryptoError::BadSignature));
            } else {
                assert!(r.is_ok(), "element {i}");
            }
        }
    }

    #[test]
    fn batch_structural_errors_match_scalar() {
        let kp = kp();
        let good_msg = b"ok".to_vec();
        let good_sig = sign(&kp.private, &good_msg).unwrap();
        // s >= n: an all-0xff "signature" of the right length, and n
        // itself, the first value too large; n - 1 is in range.
        let too_large = vec![0xffu8; 128];
        let short = vec![0u8; 64];
        let n = kp.public.n.to_bytes_be_padded(128).unwrap();
        let n_less_one = kp
            .public
            .n
            .sub(&BigUint::one())
            .to_bytes_be_padded(128)
            .unwrap();
        let reqs = vec![
            VerifyRequest {
                key: &kp.public,
                digest: sha256::digest(&good_msg),
                signature: &good_sig,
            },
            VerifyRequest {
                key: &kp.public,
                digest: sha256::digest(b"x"),
                signature: &too_large,
            },
            VerifyRequest {
                key: &kp.public,
                digest: sha256::digest(b"y"),
                signature: &short,
            },
            VerifyRequest {
                key: &kp.public,
                digest: sha256::digest(b"z"),
                signature: &n,
            },
            VerifyRequest {
                key: &kp.public,
                digest: sha256::digest(b"z"),
                signature: &n_less_one,
            },
        ];
        let batch = verify_batch(&reqs);
        assert_eq!(batch[0], Ok(()));
        assert_eq!(batch[1], Err(CryptoError::MessageTooLarge));
        assert_eq!(
            batch[2],
            Err(CryptoError::SignatureLength {
                expected: 128,
                got: 64
            })
        );
        assert_eq!(batch[3], Err(CryptoError::MessageTooLarge));
        assert_eq!(batch[4], Err(CryptoError::BadSignature));
        for (i, r) in batch.iter().enumerate() {
            let (key, digest, sig) = (reqs[i].key, &reqs[i].digest, reqs[i].signature);
            assert_eq!(*r, verify_prehashed_scalar(key, digest, sig), "element {i}");
            assert_eq!(*r, verify_prehashed(key, digest, sig), "element {i}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(verify_batch(&[]).is_empty());
    }

    /// The lanes' expected EM is the byte encoding's, digit for digit.
    #[test]
    fn lane_em_digits_are_the_em_bytes_digits() {
        for seed in [0u8, 0x5a, 0xff] {
            let digest = [seed; sha256::DIGEST_LEN];
            let em = emsa_encode_digest(&digest, LANE_LEN).unwrap();
            let d = ifma::digits_from_be(&digest);
            let built: Digits = core::array::from_fn(|i| LANE_EM_HEAD[i] | d[i]);
            assert_eq!(built, ifma::digits_from_be(&em), "digest {seed:#x}");
            assert_eq!(finish_lane(&built, &digest), Ok(()));
            let mut off = built;
            off[19] ^= 1;
            assert_eq!(finish_lane(&off, &digest), Err(CryptoError::BadSignature));
        }
    }

    #[test]
    fn em_structure_is_canonical() {
        let em = emsa_encode_digest(&sha256::digest(b"abc"), 128).unwrap();
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        let sep = em.iter().skip(2).position(|&b| b == 0x00).unwrap() + 2;
        assert!(em[2..sep].iter().all(|&b| b == 0xff));
        assert!(sep - 2 >= 8, "PS must be at least 8 bytes");
        assert_eq!(&em[sep + 1..sep + 1 + 19], &SHA256_DIGEST_INFO_PREFIX);
    }
}
