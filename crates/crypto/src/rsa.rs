//! RSA key generation and raw RSA operations.
//!
//! The paper signs TLC's CDR/CDA/PoC messages with RSA-1024 via
//! `java.security`; this module reproduces that primitive from scratch on
//! top of [`crate::bigint`] and [`crate::prime`]. Signature padding lives in
//! [`crate::pkcs1`].
//!
//! Private-key operations use the CRT (Garner recombination) for the usual
//! ~4x speedup, which matters for the Fig. 17 cost benchmarks. For an
//! RSA-1024 key on a CPU with AVX-512 IFMA + VL the whole operation is
//! one kernel call on radix-2^52 digits ([`crate::ifma`]): the CRT split,
//! both half-size exponentiations on one vector Montgomery ladder, and
//! Garner's recombination, for another ~2x; any other key or host runs
//! two scalar `modpow`s and recombines in `BigUint`s.
//! [`PrivateKey::sign_kernel`] names the route, the results are the same
//! bytes.
//!
//! # Per-key contexts
//!
//! A negotiated cycle signs three times and checks three signatures
//! between the two parties, and a third party checks three more, so RSA
//! latency is the simulator's hot loop and nothing a key can precompute
//! is paid per operation. [`PublicKey`] builds one [`MontgomeryCtx`] for
//! its modulus on first use ([`PublicKey::mont_ctx`]) in an
//! `Arc<OnceLock<_>>`: clones share the cell itself, so a clone taken
//! *before* first use — what every negotiator does with its long-term
//! keys, once per cycle — still finds the context a sibling built.
//! [`PrivateKey`] caches one context per CRT prime and, beside them, the
//! signing ladder's constants (an `ifma::CrtKey`: both primes' lane
//! constants, `2^512·R² mod p` and `R mod p` per prime, `dp` and `dq` as
//! fixed 512-bit arrays, `qinv·R mod p`), shared by every clone and
//! scrubbed when the last one drops.
//!
//! # Dispatch: one row, nothing to set
//!
//! | both primes exactly 8 limbs | CPU has `avx512ifma` + `avx512vl` | a private-key operation runs |
//! |---|---|---|
//! | yes | yes | one [`crate::ifma`] kernel call on digits — [`crate::pkcs1::sign`] from the digest, [`PrivateKey::raw_decrypt`] from `c`'s digits (`avx512-ifma-ladder-4x256`) |
//! | anything else — RSA-512 test keys, non-IFMA hosts, Miri, non-x86-64 | | `c mod p`, `c mod q`, two scalar sliding-window `modpow`s and Garner in `BigUint`s (`scalar-sliding-window`) |
//!
//! There is no knob, env var, cargo feature or config field; `pkcs1::sign`,
//! the protocol endpoints, Fig. 17 and the benchmark's pool set-up all
//! follow. Signatures are the same bytes on either route: the pinned
//! protocol transcript digest and the seeded-key goldens below hold on
//! both, and `prop_crypto`'s `one_call_private_op_is_the_scalar_crt`
//! holds the call to a scalar CRT recomputed from the factors and to
//! [`PrivateKey::raw_decrypt_no_crt`] on random EMs and on 0, 1, p, q,
//! n − 1, multiples of p and both orders of the halves. In test and debug
//! builds every private-key operation ends by re-encrypting its result
//! under the public key (`debug_assert!`, the Bellcore/Lenstra CRT-fault
//! check), so a wrong CRT half or Garner step panics in any test that
//! signs.
//!
//! # Secret limbs
//!
//! `d`, `p`, `q`, `dp`, `dq` and `qinv` are each a private `Secret`,
//! which implements neither `Debug` nor `Display`: `#[derive(Debug)]` on
//! [`PrivateKey`], or `format!("{:?}", self.dp)`, does not compile, and
//! its `Drop` zeroes the limbs with volatile stores. `PrivateKey`'s
//! hand-written `Debug`/`Display` print only the key fingerprint and the
//! modulus width.

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::ifma::{self, CrtKey, Digits};
use crate::montgomery::MontgomeryCtx;
use crate::prime::generate_prime;
use crate::rng::RngSource;
use std::sync::{Arc, OnceLock};

/// The public exponent used throughout (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// An RSA public key `(n, e)`.
///
/// Carries a lazily-built, shared [`MontgomeryCtx`] for `n`, so the REDC
/// constants are computed once per key lifetime rather than once per
/// exponentiation. Clones share the *cell*, not a copy of its contents:
/// whichever of a key and its clones is used first builds the context
/// for all of them, whether the clone was taken before or after.
#[derive(Clone)]
pub struct PublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
    /// Cached Montgomery context for `n` (built on first use).
    ctx: Arc<OnceLock<MontgomeryCtx>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The cached context is derived state; identity is (n, e).
        self.n == other.n && self.e == other.e
    }
}

impl Eq for PublicKey {}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// An RSA private key with CRT parameters.
///
/// Like [`PublicKey`], caches one Montgomery context per CRT prime so the
/// two half-size exponentiations of every signature reuse precomputed
/// REDC constants.
#[derive(Clone)]
pub struct PrivateKey {
    /// Matching public key.
    pub public: PublicKey,
    /// Private exponent.
    d: Secret,
    /// First prime factor.
    p: Secret,
    /// Second prime factor.
    q: Secret,
    /// `d mod (p-1)`.
    dp: Secret,
    /// `d mod (q-1)`.
    dq: Secret,
    /// `q^-1 mod p`.
    qinv: Secret,
    /// Cached Montgomery context for `p`.
    p_ctx: Arc<OnceLock<MontgomeryCtx>>,
    /// Cached Montgomery context for `q`.
    q_ctx: Arc<OnceLock<MontgomeryCtx>>,
    /// Cached constants of the IFMA signing ladder for this key (`None`
    /// once probed where it cannot run).
    crt_key: Arc<OnceLock<Option<CrtKey>>>,
}

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material: key id (public fingerprint)
        // and modulus size only. A derived `Debug` does not compile:
        // `Secret` has none.
        f.debug_struct("PrivateKey")
            .field("key_id", &format_args!("{:#018x}", self.key_id()))
            .field("modulus_bits", &self.public.n.bit_len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PrivateKey({:#018x}, {} bits)",
            self.key_id(),
            self.public.n.bit_len()
        )
    }
}

/// One number of private-key material. It implements neither `Debug`
/// nor `Display`, so no formatting path can print it, and it scrubs its
/// limbs when it drops.
///
/// The scrub is best effort: volatile writes keep the stores from being
/// elided as dead before the buffer returns to the allocator. Transient
/// `BigUint` temporaries inside an exponentiation are *not* covered,
/// nor are the per-prime Montgomery contexts (their cells are shared
/// via `Arc` with every clone of the key). The ladder constants in
/// `crt_key` scrub themselves when the last clone drops.
#[derive(Clone)]
struct Secret(BigUint);

impl Drop for Secret {
    fn drop(&mut self) {
        for limb in self.0.limbs.iter_mut() {
            // SAFETY: `limb` is a valid, aligned, exclusive reference
            // into a live Vec<u64>; writing 0 through it is an ordinary
            // store made volatile only to survive dead-store
            // elimination.
            unsafe { core::ptr::write_volatile(limb, 0) };
        }
    }
}

/// A public/private key pair.
#[derive(Clone)]
pub struct KeyPair {
    /// Public half, safe to publish.
    pub public: PublicKey,
    /// Private half.
    pub private: PrivateKey,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Hand-written (not derived) so the private half is visibly
        // routed through PrivateKey's redacted Debug.
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .field("private", &self.private)
            .finish()
    }
}

impl PublicKey {
    /// Builds a public key from its components.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        PublicKey {
            n,
            e,
            ctx: Arc::default(),
        }
    }

    /// Modulus length in whole bytes (e.g. 128 for RSA-1024).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The cached Montgomery context for `n`, built on first use.
    ///
    /// Returns `None` when `n` is even or zero (REDC requires an odd
    /// modulus); such keys never verify anything anyway.
    pub fn mont_ctx(&self) -> Option<&MontgomeryCtx> {
        if self.n.is_zero() || !self.n.bit(0) {
            return None;
        }
        Some(self.ctx.get_or_init(|| MontgomeryCtx::new(&self.n)))
    }

    /// Raw public-key operation `m^e mod n`.
    pub fn raw_encrypt(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::MessageTooLarge);
        }
        match self.mont_ctx() {
            Some(ctx) => Ok(m.modpow_with_ctx(&self.e, ctx)),
            None => Ok(m.modpow(&self.e, &self.n)),
        }
    }
}

impl PrivateKey {
    /// Stable identifier for logs and diagnostics: the fingerprint of
    /// the *public* half (safe to reveal by definition).
    pub fn key_id(&self) -> u64 {
        crate::encoding::key_fingerprint(&self.public)
    }

    /// Raw private-key operation `c^d mod n` *without* CRT; retained to
    /// cross-check the CRT path in tests and for constant-structure use.
    pub fn raw_decrypt_no_crt(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c.cmp_to(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::MessageTooLarge);
        }
        match self.public.mont_ctx() {
            Some(ctx) => Ok(c.modpow_with_ctx(&self.d.0, ctx)),
            None => Ok(c.modpow(&self.d.0, &self.public.n)),
        }
    }

    /// Cached Montgomery context for prime `p` (primes are always odd).
    fn p_ctx(&self) -> &MontgomeryCtx {
        self.p_ctx.get_or_init(|| MontgomeryCtx::new(&self.p.0))
    }

    /// Cached Montgomery context for prime `q`.
    fn q_ctx(&self) -> &MontgomeryCtx {
        self.q_ctx.get_or_init(|| MontgomeryCtx::new(&self.q.0))
    }

    /// The IFMA signing ladder's constants for this key, built on first
    /// use; `None` unless both primes are 512-bit and the CPU has AVX-512
    /// IFMA + VL.
    fn crt_key(&self) -> Option<&CrtKey> {
        self.crt_key
            .get_or_init(|| {
                CrtKey::new(
                    [self.p_ctx(), self.q_ctx()],
                    [&self.dp.0, &self.dq.0],
                    &self.qinv.0,
                )
            })
            .as_ref()
    }

    /// Human-readable name of the kernel this key's private-key
    /// operations run on, on this host (for benchmark reports).
    pub fn sign_kernel(&self) -> &'static str {
        if self.crt_key().is_some() {
            "avx512-ifma-ladder-4x256"
        } else {
            "scalar-sliding-window"
        }
    }

    /// `c^d mod n` for `c < n` in radix-2^52 digits, as one IFMA kernel
    /// call (see [`Self::raw_decrypt`]); `None` when this key's
    /// private-key operations run on the scalar route.
    pub(crate) fn raw_decrypt_digits(&self, c: &Digits) -> Option<Digits> {
        let s = ifma::private_op(self.crt_key()?, c);
        debug_assert!(self.inverts(&ifma::from_digits52(&s), &ifma::from_digits52(c)));
        Some(s)
    }

    /// Raw private-key operation `c^d mod n` via CRT: one IFMA kernel call
    /// on digits where [`Self::sign_kernel`] says so; otherwise
    /// `c mod p` and `c mod q`, one scalar sliding-window `modpow` each,
    /// and Garner's recombination in `BigUint`s. Same result either way.
    pub fn raw_decrypt(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c.cmp_to(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::MessageTooLarge);
        }
        if let Some(s) = self.raw_decrypt_digits(&ifma::to_digits52(&c.limbs)) {
            return Ok(ifma::from_digits52(&s));
        }
        // Garner: m1 = c^dp mod p, m2 = c^dq mod q,
        // h = qinv * (m1 - m2) mod p, m = m2 + h*q.
        let (cp, cq) = (c.rem(&self.p.0), c.rem(&self.q.0));
        let m1 = cp.modpow_with_ctx(&self.dp.0, self.p_ctx());
        let m2 = cq.modpow_with_ctx(&self.dq.0, self.q_ctx());
        let diff = m1.sub_mod(&m2.rem(&self.p.0), &self.p.0);
        let h = self.qinv.0.mul_mod(&diff, &self.p.0);
        let m = m2.add(&h.mul(&self.q.0));
        debug_assert!(self.inverts(&m, c));
        Ok(m)
    }

    /// The Bellcore/Lenstra check, run on every private-key operation of
    /// a debug build: `m` re-encrypts to `c`. A fault in either CRT half
    /// would hand a factor of `n` to whoever sees one deterministic
    /// signature.
    fn inverts(&self, m: &BigUint, c: &BigUint) -> bool {
        self.public.raw_encrypt(m).as_ref() == Ok(c)
    }
}

impl KeyPair {
    /// Generates an RSA key pair with a modulus of `bits` bits.
    ///
    /// `bits` must be even and at least 512 (the paper uses 1024).
    /// `rng` must be `Clone` because the prime search snapshots it (see
    /// [`generate_prime`]); the key and where `rng` is left are those of
    /// the sequential search.
    pub fn generate<R: RngSource + Clone>(
        bits: usize,
        rng: &mut R,
    ) -> Result<KeyPair, CryptoError> {
        if bits < 512 || !bits.is_multiple_of(2) {
            return Err(CryptoError::InvalidKeySize(bits));
        }
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = generate_prime(bits / 2, rng);
            let q = generate_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let one = BigUint::one();
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            // Use Carmichael's lambda = lcm(p-1, q-1) for a smaller d.
            let g = p1.gcd(&q1);
            let lambda = p1.mul(&q1).div_rem(&g).0;
            if !lambda.gcd(&e).is_one() {
                continue;
            }
            let d = match e.modinv(&lambda) {
                Some(d) => d,
                None => continue,
            };
            let n = p.mul(&q);
            debug_assert_eq!(n.bit_len(), bits);
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = match q.modinv(&p) {
                Some(v) => v,
                None => continue,
            };
            let public = PublicKey::new(n, e.clone());
            return Ok(KeyPair {
                public: public.clone(),
                private: PrivateKey {
                    public,
                    d: Secret(d),
                    p: Secret(p),
                    q: Secret(q),
                    dp: Secret(dp),
                    dq: Secret(dq),
                    qinv: Secret(qinv),
                    p_ctx: Arc::default(),
                    q_ctx: Arc::default(),
                    crt_key: Arc::default(),
                },
            });
        }
    }

    /// Generates a key pair deterministically from a seed — every actor in
    /// the simulator derives its keys this way so runs are reproducible.
    pub fn generate_for_seed(bits: usize, seed: u64) -> Result<KeyPair, CryptoError> {
        let mut rng = crate::rng::DeterministicRng::from_seed_bytes(
            &[b"tlc-keygen".as_slice(), &seed.to_be_bytes()].concat(),
        );
        Self::generate(bits, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    fn test_keypair(bits: usize) -> KeyPair {
        let mut rng = DeterministicRng::from_seed(0x5eed);
        KeyPair::generate(bits, &mut rng).expect("keygen")
    }

    #[test]
    fn roundtrip_encrypt_decrypt_512() {
        let kp = test_keypair(512);
        let m = BigUint::from_bytes_be(b"charging record for cycle 1001");
        let c = kp.public.raw_encrypt(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(kp.private.raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn roundtrip_decrypt_encrypt_is_identity() {
        // Sign-then-verify direction: m^d then ^e.
        let kp = test_keypair(512);
        let m = BigUint::from_u64(0xabcdef);
        let s = kp.private.raw_decrypt(&m).unwrap();
        assert_eq!(kp.public.raw_encrypt(&s).unwrap(), m);
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let kp = test_keypair(512);
        for seed in [1u64, 0xffff, u64::MAX] {
            let m = BigUint::from_u64(seed);
            assert_eq!(
                kp.private.raw_decrypt(&m).unwrap(),
                kp.private.raw_decrypt_no_crt(&m).unwrap()
            );
        }
    }

    #[test]
    fn modulus_has_requested_bits() {
        let kp = test_keypair(512);
        assert_eq!(kp.public.n.bit_len(), 512);
        assert_eq!(kp.public.modulus_len(), 64);
    }

    #[test]
    fn rsa_1024_roundtrip() {
        // The paper's exact parameter choice.
        let kp = test_keypair(1024);
        assert_eq!(kp.public.n.bit_len(), 1024);
        let m = BigUint::from_bytes_be(&[0x42; 100]);
        let c = kp.public.raw_encrypt(&m).unwrap();
        assert_eq!(kp.private.raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn message_as_large_as_modulus_rejected() {
        let kp = test_keypair(512);
        let too_big = kp.public.n.clone();
        assert!(matches!(
            kp.public.raw_encrypt(&too_big),
            Err(CryptoError::MessageTooLarge)
        ));
        assert!(matches!(
            kp.private.raw_decrypt(&too_big),
            Err(CryptoError::MessageTooLarge)
        ));
    }

    #[test]
    fn invalid_key_sizes_rejected() {
        let mut rng = DeterministicRng::from_seed(1);
        assert!(matches!(
            KeyPair::generate(256, &mut rng),
            Err(CryptoError::InvalidKeySize(256))
        ));
        assert!(matches!(
            KeyPair::generate(513, &mut rng),
            Err(CryptoError::InvalidKeySize(513))
        ));
    }

    #[test]
    fn deterministic_seeded_generation() {
        let a = KeyPair::generate_for_seed(512, 99).unwrap();
        let b = KeyPair::generate_for_seed(512, 99).unwrap();
        assert_eq!(a.public, b.public);
        let c = KeyPair::generate_for_seed(512, 100).unwrap();
        assert_ne!(a.public, c.public);
    }

    /// Seeded keys are a pure function of the seed, and must stay the
    /// same bytes whatever route the prime search takes: 7 is the
    /// ledger's seed, 9100 and 9101 the wire-conformance keys. The ids
    /// come from the sequential search, so they check the paired one.
    #[test]
    fn seeded_keys_are_golden() {
        for (bits, seed, key_id) in [
            (1024, 7, 0x1afa_5b46_0b9f_52d4),
            (1024, 9100, 0x119c_47e4_e846_6753),
            (1024, 9101, 0xe957_cd3d_1657_dea4),
            (1024, 41, 0x7aef_7c32_ec1a_e419),
            (1024, 0xF00D, 0xed7d_a673_71f6_a878),
            (512, 99, 0x987c_5a17_fc67_e58d),
            (512, 0x512, 0x2182_a2b6_061e_02cb),
        ] {
            let kp = KeyPair::generate_for_seed(bits, seed).unwrap();
            assert_eq!(kp.private.key_id(), key_id, "{bits}-bit key, seed {seed}");
        }
    }

    /// ... and leave the caller's stream where the sequential search did.
    #[test]
    fn keygen_leaves_the_stream_where_it_was_golden() {
        for (bits, key_id, next) in [
            (1024, 0x0b0c_ddc1_4803_1832, 0xa23e_0bde_01b3_786e),
            (512, 0xe6b5_e162_1cf4_d3b7, 0xbb6d_ad89_d2ba_4e2b),
        ] {
            let mut rng = DeterministicRng::from_seed(0x5eed);
            let kp = KeyPair::generate(bits, &mut rng).unwrap();
            assert_eq!(kp.private.key_id(), key_id, "{bits}-bit key");
            assert_eq!(rng.next_u64(), next, "{bits}-bit key");
        }
    }

    #[test]
    fn distinct_keys_do_not_interoperate() {
        let a = KeyPair::generate_for_seed(512, 1).unwrap();
        let b = KeyPair::generate_for_seed(512, 2).unwrap();
        let m = BigUint::from_u64(12345);
        let c = a.public.raw_encrypt(&m).unwrap();
        // Decrypting with the wrong key yields garbage, not the message.
        assert_ne!(b.private.raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn clone_taken_before_first_use_shares_the_contexts() {
        // Negotiators clone a never-used key per cycle; each clone must
        // find the contexts an earlier clone built, not rebuild them.
        let kp = test_keypair(512);
        let (private, public) = (kp.private.clone(), kp.public.clone());
        assert!(std::ptr::eq(private.p_ctx(), kp.private.p_ctx()));
        assert!(std::ptr::eq(private.q_ctx(), kp.private.q_ctx()));
        assert!(std::ptr::eq(
            public.mont_ctx().unwrap(),
            kp.public.mont_ctx().unwrap()
        ));
        // The pair's two copies of the public half are one key.
        assert!(std::ptr::eq(
            kp.private.public.mont_ctx().unwrap(),
            public.mont_ctx().unwrap()
        ));
    }

    #[test]
    fn debug_does_not_leak_private_material() {
        let kp = test_keypair(512);
        let s = format!("{:?}", kp.private);
        assert!(s.contains("key_id"));
        assert!(s.contains("modulus_bits"));
        assert!(s.contains(".."), "must be marked non-exhaustive: {s}");
        // A 512-bit modulus is 128 hex digits; the redacted form is a
        // 16-digit fingerprint plus field names. Anything long enough
        // to hold a limb dump fails.
        assert!(s.len() < 120, "suspiciously long debug output: {s}");
        let display = format!("{}", kp.private);
        assert!(display.starts_with("PrivateKey("), "{display}");
        assert!(display.len() < 60, "{display}");
    }
}
