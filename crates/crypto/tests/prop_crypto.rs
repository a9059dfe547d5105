//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use tlc_crypto::bigint::BigUint;
use tlc_crypto::{pkcs1, KeyPair};

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte serialization round-trips for arbitrary values.
    #[test]
    fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = big(&data);
        let back = BigUint::from_bytes_be(&v.to_bytes_be());
        prop_assert_eq!(back, v);
    }

    /// a + b - b == a.
    #[test]
    fn add_sub_inverse(a in proptest::collection::vec(any::<u8>(), 0..48),
                       b in proptest::collection::vec(any::<u8>(), 0..48)) {
        let a = big(&a);
        let b = big(&b);
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    /// (a * b) / b == a with zero remainder, for b != 0.
    #[test]
    fn mul_div_inverse(a in proptest::collection::vec(any::<u8>(), 0..40),
                       b in proptest::collection::vec(any::<u8>(), 1..40)) {
        let a = big(&a);
        let b = big(&b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.mul(&b).div_rem(&b);
        prop_assert_eq!(q, a);
        prop_assert!(r.is_zero());
    }

    /// Division invariant: a == q*d + r with r < d.
    #[test]
    fn div_rem_reconstructs(a in proptest::collection::vec(any::<u8>(), 0..48),
                            d in proptest::collection::vec(any::<u8>(), 1..24)) {
        let a = big(&a);
        let d = big(&d);
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert!(r.cmp_to(&d) == std::cmp::Ordering::Less);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    /// Multiplication is commutative and addition distributes over it.
    #[test]
    fn ring_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    /// modpow matches u128 square-and-multiply for small operands.
    #[test]
    fn modpow_matches_reference(base in 0u64..1_000_000, exp in 0u64..64,
                                modulus in 3u64..1_000_003) {
        let modulus = modulus | 1; // keep it odd (Montgomery path)
        let got = BigUint::from_u64(base)
            .modpow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
        let mut expect: u128 = 1;
        let mut b = base as u128 % modulus as u128;
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 { expect = expect * b % modulus as u128; }
            b = b * b % modulus as u128;
            e >>= 1;
        }
        prop_assert_eq!(got, BigUint::from_u64(expect as u64));
    }

    /// gcd divides both operands and is maximal for u64 pairs.
    #[test]
    fn gcd_matches_euclid(a in any::<u64>(), b in any::<u64>()) {
        fn euclid(mut a: u64, mut b: u64) -> u64 {
            while b != 0 { (a, b) = (b, a % b); }
            a
        }
        let got = BigUint::from_u64(a).gcd(&BigUint::from_u64(b));
        prop_assert_eq!(got, BigUint::from_u64(euclid(a, b)));
    }

    /// Shifting left then right is the identity.
    #[test]
    fn shift_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..32),
                       bits in 0usize..130) {
        let v = big(&data);
        prop_assert_eq!(v.shl(bits).shr(bits), v);
    }

    /// Wide products (12..40 limbs ≈ 96..320 bytes a side, uneven
    /// widths and trailing zero limbs included) divide back exactly
    /// and commute: `mul` against Knuth division, which shares no code
    /// with it.
    #[test]
    fn wide_products_divide_back_and_commute(a in proptest::collection::vec(any::<u8>(), 96..320),
                                             b in proptest::collection::vec(any::<u8>(), 96..320)) {
        let a = big(&a);
        let b = big(&b);
        prop_assume!(!b.is_zero());
        let ab = a.mul(&b);
        prop_assert_eq!(&ab, &b.mul(&a));
        let (q, r) = ab.div_rem(&b);
        prop_assert_eq!(q, a);
        prop_assert!(r.is_zero());
    }
}

proptest! {
    // Wide modular exponentiation is slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Montgomery fast paths agree with the plain square-and-multiply
    /// reference on arbitrary (base, exp, odd modulus) triples: a cached
    /// per-key context, a freshly built context, and the ctx-free entry
    /// point all produce the same residue. Modulus widths cross both
    /// fixed-width kernels (8/16 limbs) and the generic path.
    #[test]
    fn modpow_ctx_paths_agree(base in proptest::collection::vec(any::<u8>(), 0..96),
                              exp in proptest::collection::vec(any::<u8>(), 0..24),
                              modulus in proptest::collection::vec(any::<u8>(), 1..160)) {
        let base = big(&base);
        let exp = big(&exp);
        let mut modulus = big(&modulus);
        if !modulus.bit(0) {
            modulus = modulus.add(&BigUint::from_u64(1)); // odd -> Montgomery applies
        }
        prop_assume!(!modulus.is_one());
        let reference = base.modpow_simple(&exp, &modulus);
        let ctx = tlc_crypto::montgomery::MontgomeryCtx::new(&modulus);
        prop_assert_eq!(base.modpow_with_ctx(&exp, &ctx), reference.clone());
        // Second use of the same ctx (the per-key caching pattern).
        prop_assert_eq!(base.modpow_with_ctx(&exp, &ctx), reference.clone());
        prop_assert_eq!(base.modpow(&exp, &modulus), reference);
    }
}

/// An odd modulus of exactly 512 bits from 64 random bytes.
fn odd_512(bytes: &[u8]) -> BigUint {
    let mut m = big(bytes);
    m.set_bit(511);
    m.set_bit(0);
    m
}

/// The parent loop `prime::generate_prime` must reproduce draw for draw:
/// draw a candidate, `is_probable_prime`, repeat. `bits` is a multiple
/// of 8, so a drawn candidate needs no trimming.
fn sequential_prime(bits: usize, rng: &mut tlc_crypto::DeterministicRng) -> BigUint {
    loop {
        let mut buf = vec![0u8; bits / 8];
        tlc_crypto::RngSource::fill(rng, &mut buf);
        let mut candidate = big(&buf);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if tlc_crypto::prime::is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `modpow_pair` — the IFMA signing ladder where the CPU has it, two
    /// scalar exponentiations elsewhere — is `modpow_with_ctx` per lane:
    /// under two random odd 512-bit moduli with random bases and
    /// exponents, and with both lanes under one modulus as the prime
    /// search's rounds 2–30 run them, at bases 2 and n − 2 and the
    /// Miller–Rabin exponent `d`.
    #[test]
    fn modpow_pair_matches_modpow_with_ctx(
        moduli in proptest::collection::vec(any::<u8>(), 128),
        bases in proptest::collection::vec(any::<u8>(), 128),
        exps in proptest::collection::vec(any::<u8>(), 128),
    ) {
        use tlc_crypto::montgomery::{modpow_pair, MontgomeryCtx};
        let (m, n) = (odd_512(&moduli[..64]), odd_512(&moduli[64..]));
        let (m_ctx, n_ctx) = (MontgomeryCtx::new(&m), MontgomeryCtx::new(&n));
        let (a, b) = (big(&bases[..64]).rem(&m), big(&bases[64..]).rem(&n));
        let (e, f) = (big(&exps[..64]), big(&exps[64..]));
        let got = modpow_pair([(&m_ctx, &a, &e), (&n_ctx, &b, &f)]);
        prop_assert_eq!(&got[0], &a.modpow_with_ctx(&e, &m_ctx));
        prop_assert_eq!(&got[1], &b.modpow_with_ctx(&f, &n_ctx));

        let m_minus_1 = m.sub(&BigUint::one());
        let mut d = m_minus_1.clone();
        while !d.bit(0) {
            d = d.shr(1);
        }
        let (two, m_minus_2) = (BigUint::from_u64(2), m_minus_1.sub(&BigUint::one()));
        for (x, y) in [(&two, &m_minus_2), (&m_minus_2, &a), (&a, &two)] {
            let got = modpow_pair([(&m_ctx, x, &d), (&m_ctx, y, &d)]);
            prop_assert_eq!(&got[0], &x.modpow_with_ctx(&d, &m_ctx));
            prop_assert_eq!(&got[1], &y.modpow_with_ctx(&d, &m_ctx));
        }
    }

    /// `modpow_pair` is `modpow_with_ctx` per lane when the two
    /// exponents differ only in bit 511, where the ladder starts: the
    /// lanes take different operands at the first step and the same at
    /// every later one, so a lane that read the other's state would
    /// show. Both orders, under two moduli and under one.
    #[test]
    fn modpow_pair_lanes_whose_exponents_differ_only_in_the_top_bit(
        moduli in proptest::collection::vec(any::<u8>(), 128),
        bases in proptest::collection::vec(any::<u8>(), 128),
        exp in proptest::collection::vec(any::<u8>(), 64),
    ) {
        use tlc_crypto::montgomery::{modpow_pair, MontgomeryCtx};
        let (m, n) = (odd_512(&moduli[..64]), odd_512(&moduli[64..]));
        let (m_ctx, n_ctx) = (MontgomeryCtx::new(&m), MontgomeryCtx::new(&n));
        let top = BigUint::one().shl(511);
        let low = big(&exp).rem(&top);
        let high = low.add(&top);
        for (q, q_ctx) in [(&n, &n_ctx), (&m, &m_ctx)] {
            let (a, b) = (big(&bases[..64]).rem(&m), big(&bases[64..]).rem(q));
            for (e, f) in [(&low, &high), (&high, &low)] {
                let got = modpow_pair([(&m_ctx, &a, e), (q_ctx, &b, f)]);
                prop_assert_eq!(&got[0], &a.modpow_with_ctx(e, &m_ctx));
                prop_assert_eq!(&got[1], &b.modpow_with_ctx(f, q_ctx));
            }
        }
    }

    /// `generate_prime` is the sequential search bit for bit — the same
    /// prime, and the stream left where the search leaves it — on the
    /// scalar route (128 and 256 bits) and, on a CPU with the signing
    /// ladder, the paired route (512 bits).
    #[test]
    fn generate_prime_matches_the_sequential_search(seed in any::<u64>()) {
        use tlc_crypto::{DeterministicRng, RngSource};
        for bits in [128usize, 256, 512] {
            let mut paired = DeterministicRng::from_seed(seed);
            let mut sequential = paired.clone();
            let p = tlc_crypto::prime::generate_prime(bits, &mut paired);
            prop_assert_eq!(&p, &sequential_prime(bits, &mut sequential), "{} bits", bits);
            prop_assert_eq!(paired.next_u64(), sequential.next_u64(), "{} bits", bits);
        }
    }
}

/// Fixed key pair cache for the signature properties (generation is the
/// expensive part; the properties vary messages and batch shapes).
fn cached_keys() -> &'static (KeyPair, KeyPair) {
    use std::sync::OnceLock;
    static KEYS: OnceLock<(KeyPair, KeyPair)> = OnceLock::new();
    KEYS.get_or_init(|| {
        (
            KeyPair::generate_for_seed(1024, 0xF00D).unwrap(),
            KeyPair::generate_for_seed(1024, 0xBEEF).unwrap(),
        )
    })
}

proptest! {
    // Signatures are slow; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sign/verify round-trips for arbitrary messages; any flipped byte in
    /// the message is rejected.
    #[test]
    fn sign_verify_roundtrip_and_tamper(msg in proptest::collection::vec(any::<u8>(), 0..256),
                                        flip in any::<u8>()) {
        // Fixed key (generation is expensive); message varies.
        let kp = &cached_keys().0;
        let sig = pkcs1::sign(&kp.private, &msg).unwrap();
        prop_assert!(pkcs1::verify(&kp.public, &msg, &sig).is_ok());
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let idx = flip as usize % tampered.len();
            tampered[idx] ^= 0x01;
            if tampered != msg {
                prop_assert!(pkcs1::verify(&kp.public, &tampered, &sig).is_err());
            }
        }
    }
}

/// A key pair with the primes keygen drew for it. `PrivateKey` keeps
/// them to itself, so the seeded stream is replayed through
/// `generate_prime` until a pair multiplies to the modulus.
struct Factored {
    kp: KeyPair,
    p: BigUint,
    q: BigUint,
}

/// Two RSA-1024 keys (the IFMA signing lanes where the CPU has them) and
/// an RSA-512 key (always the scalar route).
fn factored_keys() -> &'static [Factored] {
    use std::sync::OnceLock;
    use tlc_crypto::DeterministicRng;
    static KEYS: OnceLock<Vec<Factored>> = OnceLock::new();
    KEYS.get_or_init(|| {
        [(1024usize, 0xC47u64), (1024, 0xC48), (512, 0xC49)]
            .into_iter()
            .map(|(bits, seed)| {
                let kp = KeyPair::generate(bits, &mut DeterministicRng::from_seed(seed)).unwrap();
                let mut rng = DeterministicRng::from_seed(seed);
                loop {
                    let p = tlc_crypto::prime::generate_prime(bits / 2, &mut rng);
                    let q = tlc_crypto::prime::generate_prime(bits / 2, &mut rng);
                    if p.mul(&q) == kp.public.n {
                        break Factored { kp, p, q };
                    }
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CRT private-key operation — one IFMA kernel call on digits,
    /// or two scalar `modpow`s — is `c^d mod n` for random `c`
    /// and for the inputs a half-size ladder could get wrong alone: 0, 1,
    /// `n - 1`, and multiples of one prime, whose CRT half is zero.
    #[test]
    fn crt_private_op_matches_plain_exponentiation(
        key in 0usize..3,
        bytes in proptest::collection::vec(any::<u8>(), 1..=128),
        k in 1u64..=u64::MAX,
    ) {
        let Factored { kp, p, q } = &factored_keys()[key];
        let n = &kp.public.n;
        let k = BigUint::from_u64(k);
        let inputs = [
            big(&bytes).rem(n),
            BigUint::zero(),
            BigUint::one(),
            n.sub(&BigUint::one()),
            p.clone(),
            q.clone(),
            p.mul(&k),
            q.mul(&k),
        ];
        for c in &inputs {
            let crt = kp.private.raw_decrypt(c).unwrap();
            prop_assert_eq!(&crt, &kp.private.raw_decrypt_no_crt(c).unwrap(), "c = {:?}", c);
        }
        let sig = pkcs1::sign(&kp.private, &bytes).unwrap();
        prop_assert!(pkcs1::verify(&kp.public, &bytes, &sig).is_ok());
    }
}

proptest! {
    // Each case runs up to two dozen 1024-bit verifications; few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched verification is element-for-element identical to calling
    /// the sequential verifier, and its scalar route, on each request,
    /// across random batch
    /// sizes, corrupted/truncated signatures, and batches mixing two
    /// keys (so the lane kernels see multi-key grouping).
    #[test]
    fn batched_verify_matches_sequential(
        n in 0usize..24,
        key_pick in proptest::collection::vec(any::<bool>(), 24),
        corrupt in proptest::collection::vec(0u8..3, 24),
        flip in proptest::collection::vec(any::<u8>(), 24),
    ) {
        let (ka, kb) = cached_keys();
        let mut digests = Vec::with_capacity(n);
        let mut sigs = Vec::with_capacity(n);
        for i in 0..n {
            let kp = if key_pick[i] { ka } else { kb };
            let msg = [i as u8, flip[i], 0xA5];
            digests.push(tlc_crypto::sha256::digest(&msg));
            let mut sig = pkcs1::sign(&kp.private, &msg).unwrap();
            match corrupt[i] {
                1 => {
                    let idx = flip[i] as usize % sig.len();
                    sig[idx] ^= 0x01; // bad signature, right length
                }
                2 => {
                    sig.truncate(sig.len() / 2); // wrong length
                }
                _ => {}
            }
            sigs.push(sig);
        }
        let reqs: Vec<pkcs1::VerifyRequest<'_>> = (0..n)
            .map(|i| pkcs1::VerifyRequest {
                key: if key_pick[i] { &ka.public } else { &kb.public },
                digest: digests[i],
                signature: &sigs[i],
            })
            .collect();
        let batched = pkcs1::verify_batch(&reqs);
        prop_assert_eq!(batched.len(), n);
        for (i, req) in reqs.iter().enumerate() {
            let sequential = pkcs1::verify_prehashed(req.key, &req.digest, req.signature);
            let scalar = pkcs1::verify_prehashed_scalar(req.key, &req.digest, req.signature);
            prop_assert_eq!(&batched[i], &sequential, "element {}", i);
            prop_assert_eq!(&batched[i], &scalar, "element {}", i);
            if corrupt[i] == 0 {
                prop_assert!(batched[i].is_ok(), "untouched element {} rejected", i);
            } else {
                prop_assert!(batched[i].is_err(), "corrupted element {} accepted", i);
            }
        }
    }
}

/// The keys [`any_key_batch_matches_scalar_elementwise`] draws from,
/// each with the private key that signs for it and 17 signatures made
/// once. Two ordinary RSA-1024 keys ride the any-key lanes; the RSA-512
/// key, the non-F4 exponent and the even modulus must each keep their
/// per-key path. The last two reuse key 0's modulus (plus one, for the
/// even one) and its signer: nothing verifies under them, which the
/// batch has to report exactly as the scalar path does.
struct PoolKey {
    public: tlc_crypto::PublicKey,
    verifies: bool,
    sigs: Vec<Vec<u8>>,
}

const POOL_MSGS: usize = 17;

fn pool_msg(i: usize) -> [u8; 3] {
    [i as u8, 0x5A, 0xC3]
}

fn key_pool() -> &'static [PoolKey] {
    use std::sync::OnceLock;
    use tlc_crypto::PublicKey;
    static POOL: OnceLock<Vec<PoolKey>> = OnceLock::new();
    POOL.get_or_init(|| {
        let (ka, kb) = cached_keys();
        let small = KeyPair::generate_for_seed(512, 0x512).unwrap();
        let a = &ka.public;
        let odd_exponent = PublicKey::new(a.n.clone(), BigUint::from_u64(3));
        let even_modulus = PublicKey::new(a.n.add(&BigUint::from_u64(1)), a.e.clone());
        [
            (ka.public.clone(), ka, true),
            (kb.public.clone(), kb, true),
            (small.public.clone(), &small, true),
            (odd_exponent, ka, false),
            (even_modulus, ka, false),
        ]
        .into_iter()
        .map(|(public, signer, verifies)| PoolKey {
            public,
            verifies,
            sigs: (0..POOL_MSGS)
                .map(|i| pkcs1::sign(&signer.private, &pool_msg(i)).unwrap())
                .collect(),
        })
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever arrives — 1 to 17 requests over 1 to 4 of the pool's
    /// keys in any interleaving, some with a flipped bit, a wrong length
    /// or `s >= n` — element `i` of the batch is exactly
    /// `verify_prehashed(reqs[i])` and its scalar route
    /// `verify_prehashed_scalar(reqs[i])`, and a bad element fails alone.
    #[test]
    fn any_key_batch_matches_scalar_elementwise(
        n in 1usize..=POOL_MSGS,
        first_key in 0usize..5,
        key_count in 1usize..=4,
        pick in proptest::collection::vec(0usize..4, POOL_MSGS),
        corrupt in proptest::collection::vec(0u8..6, POOL_MSGS),
        flip in proptest::collection::vec(any::<u8>(), POOL_MSGS),
    ) {
        let pool = key_pool();
        let key_of = |i: usize| &pool[(first_key + pick[i] % key_count) % pool.len()];
        let sigs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut sig = key_of(i).sigs[i].clone();
                match corrupt[i] {
                    1 => {
                        let idx = flip[i] as usize % sig.len();
                        sig[idx] ^= 0x01; // bad signature, right length
                    }
                    2 => sig.truncate(sig.len() / 2), // wrong length
                    3 => sig.fill(0xff),              // s >= n
                    _ => {}
                }
                sig
            })
            .collect();
        let reqs: Vec<pkcs1::VerifyRequest<'_>> = (0..n)
            .map(|i| pkcs1::VerifyRequest {
                key: &key_of(i).public,
                digest: tlc_crypto::sha256::digest(&pool_msg(i)),
                signature: &sigs[i],
            })
            .collect();
        let batched = pkcs1::verify_batch(&reqs);
        prop_assert_eq!(batched.len(), n);
        for (i, req) in reqs.iter().enumerate() {
            let alone = pkcs1::verify_prehashed(req.key, &req.digest, req.signature);
            let scalar = pkcs1::verify_prehashed_scalar(req.key, &req.digest, req.signature);
            prop_assert_eq!(&batched[i], &alone, "element {}", i);
            prop_assert_eq!(&batched[i], &scalar, "element {}", i);
            let untouched = !(1..=3).contains(&corrupt[i]);
            prop_assert_eq!(batched[i].is_ok(), untouched && key_of(i).verifies, "element {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `digest_many` is `digest` per message, and both are the portable
    /// rounds: 0–40 messages of 0–300 bytes with the padding edges (55,
    /// 56, 63, 64, 119, 120) forced in, as a mixed set whose messages
    /// fall in several padded lengths or as one group sharing the first
    /// message's padded length, so a set can fill several 16-lane calls
    /// and leave a remainder for the single-stream kernel.
    #[test]
    fn digest_many_matches_digest(
        lens in proptest::collection::vec(0usize..301, 0..41),
        forced in proptest::collection::vec(0usize..6, 0..8),
        one_group in any::<bool>(),
        seed in any::<u8>(),
    ) {
        use tlc_crypto::sha256;
        const EDGES: [usize; 6] = [55, 56, 63, 64, 119, 120];
        let mut lens = lens;
        lens.extend(forced.iter().map(|&e| EDGES[e]));
        if one_group && !lens.is_empty() {
            // The lengths that pad to as many blocks as the first.
            let blocks = (lens[0] + 8) / 64 + 1;
            let (lo, hi) = ((64 * blocks).saturating_sub(72), 64 * blocks - 9);
            for len in lens.iter_mut() {
                *len = lo + *len % (hi - lo + 1);
            }
        }
        let data: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (j as u8).wrapping_mul(31) ^ seed ^ i as u8).collect())
            .collect();
        let msgs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let got = sha256::digest_many(&msgs);
        prop_assert_eq!(got.len(), msgs.len());
        for (i, msg) in msgs.iter().enumerate() {
            prop_assert_eq!(got[i], sha256::digest(msg), "message {} of {}", i, msgs.len());
            prop_assert_eq!(got[i], sha256::digest_portable(msg), "message {} of {}", i, msgs.len());
        }
    }
}

/// The kernels this host runs, printed first by CI's crypto step: a
/// runner without AVX-512 IFMA shows as a scalar-only pass, not a silent
/// one.
#[test]
fn kernels_on_this_host() {
    let kp = &cached_keys().0;
    let ctx = kp.public.mont_ctx().expect("odd modulus");
    eprintln!(
        "kernels: sign {}, batch {}, lone check {}",
        kp.private.sign_kernel(),
        ctx.batch_kernel(),
        ctx.lone_kernel()
    );
}

/// The CRT private-key operation as the scalar route computes it, from
/// the factors alone: `d` from Carmichael's `λ` as keygen derives it,
/// one scalar `modpow` per half, Garner in `BigUint`s.
fn scalar_crt(f: &Factored, c: &BigUint) -> BigUint {
    use tlc_crypto::montgomery::MontgomeryCtx;
    let Factored { kp, p, q } = f;
    let one = BigUint::one();
    let (p1, q1) = (p.sub(&one), q.sub(&one));
    let lambda = p1.mul(&q1).div_rem(&p1.gcd(&q1)).0;
    let d = kp.public.e.modinv(&lambda).expect("e is a unit mod lambda");
    let m1 = c
        .rem(p)
        .modpow_with_ctx(&d.rem(&p1), &MontgomeryCtx::new(p));
    let m2 = c
        .rem(q)
        .modpow_with_ctx(&d.rem(&q1), &MontgomeryCtx::new(q));
    let qinv = q.modinv(p).expect("distinct primes");
    let h = qinv.mul_mod(&m1.sub_mod(&m2.rem(p), p), p);
    m2.add(&h.mul(q))
}

/// The EMSA-PKCS1-v1_5 encoding of `digest` for a 1024-bit key.
fn em_1024(digest: &[u8; 32]) -> BigUint {
    const PREFIX: [u8; 19] = [
        0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
        0x05, 0x00, 0x04, 0x20,
    ];
    let mut em = vec![0x00, 0x01];
    em.resize(128 - PREFIX.len() - digest.len() - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&PREFIX);
    em.extend_from_slice(digest);
    big(&em)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One signature as one kernel call (`pkcs1::sign`, and
    /// `raw_decrypt` on an IFMA host) is the scalar CRT route and
    /// `raw_decrypt_no_crt`: on the EM of a random message under the
    /// seeded RSA-1024 keys, and on the inputs its split and Garner step
    /// could get wrong — 0, 1, p, q, n − 1, multiples of p, and inputs
    /// whose halves come out `m1 < m2` and `m1 > m2` (powers of
    /// `s = k·p + 1` and `s = k·q + 1`), and `m2 > m1 + p` under the key
    /// whose `q` is the larger prime.
    #[test]
    fn one_call_private_op_is_the_scalar_crt(
        key in 0usize..2,
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        k in 1u64..=u64::MAX,
    ) {
        let f = &factored_keys()[key];
        let Factored { kp, p, q } = f;
        let n = &kp.public.n;
        let digest = tlc_crypto::sha256::digest(&msg);
        let em = em_1024(&digest);
        let sig = pkcs1::sign(&kp.private, &msg).unwrap();
        prop_assert_eq!(big(&sig), scalar_crt(f, &em));
        prop_assert_eq!(sig.len(), 128);

        let k = BigUint::from_u64(k);
        let one = BigUint::one();
        let below_p = p.mul(&k).add(&one).rem(n);
        let below_q = q.mul(&k).add(&one).rem(n);
        // s ≡ 1 mod p and s ≡ q − 1 mod q: under a key with q > p the
        // halves come out m2 > m1 + p, Garner's widest difference.
        let qinv = q.modinv(p).expect("distinct primes");
        let far = q.sub(&one).add(&q.mul(&qinv.mul_mod(&one.sub_mod(&q.sub(&one).rem(p), p), p)));
        let inputs = [
            em,
            BigUint::zero(),
            one.clone(),
            p.clone(),
            q.clone(),
            n.sub(&one),
            p.mul(&k).rem(n),
            p.mul(&BigUint::from_u64(2)),
            kp.public.raw_encrypt(&below_p).unwrap(),
            kp.public.raw_encrypt(&below_q).unwrap(),
            kp.public.raw_encrypt(&far).unwrap(),
        ];
        for c in &inputs {
            let got = kp.private.raw_decrypt(c).unwrap();
            prop_assert_eq!(&got, &scalar_crt(f, c), "c = {:?}", c);
            prop_assert_eq!(&got, &kp.private.raw_decrypt_no_crt(c).unwrap(), "c = {:?}", c);
        }
        prop_assert_eq!(kp.private.raw_decrypt(&inputs[8]).unwrap(), below_p);
        prop_assert_eq!(kp.private.raw_decrypt(&inputs[9]).unwrap(), below_q);
        prop_assert_eq!(kp.private.raw_decrypt(&inputs[10]).unwrap(), far);
    }

    /// A lone F4 exponentiation (the one-lane kernel on an IFMA host) is
    /// the same base's result in a batch of 2–4 (the 256-bit lanes) and
    /// of 5–8 (the 512-bit lanes), and the scalar `modpow`: on random
    /// bases, 0, 1, n − 1, and `2^1024 − 1` (reduced first, as every
    /// base at or above `n` is).
    #[test]
    fn lone_f4_is_the_lane_kernels(
        key in 0usize..2,
        bytes in proptest::collection::vec(any::<u8>(), 128),
        wide in 2usize..=8,
    ) {
        let kp = &factored_keys()[key].kp;
        let n = &kp.public.n;
        let ctx = kp.public.mont_ctx().expect("odd modulus");
        let f4 = BigUint::from_u64(65_537);
        let one = BigUint::one();
        let filler = big(&bytes).rem(n);
        for base in [big(&bytes).rem(n), BigUint::zero(), one.clone(), n.sub(&one), one.shl(1024).sub(&one)] {
            let alone = ctx.modpow_batch(std::slice::from_ref(&base), &f4);
            let mut batch = vec![filler.clone(); wide];
            batch[wide / 2] = base.clone();
            let in_batch = ctx.modpow_batch(&batch, &f4);
            prop_assert_eq!(&alone[0], &in_batch[wide / 2], "base {:?}, batch of {}", base, wide);
            prop_assert_eq!(&alone[0], &ctx.modpow(&base, &f4), "base {:?}", base);
        }
    }

    /// `verify_prehashed` — the one-lane check on an IFMA host — is the
    /// matching element of `verify_batch`, whether the request is alone
    /// or among others, and the scalar verdict (`s ≥ n` rejected, else
    /// `s^e mod n` by scalar `modpow` compared with the EM): on valid,
    /// tampered, `s ≥ n` (all ones, and `n` itself) and wrong-length
    /// signatures.
    #[test]
    fn verify_prehashed_is_its_batch_element(
        msg in proptest::collection::vec(any::<u8>(), 0..100),
        flip in any::<u8>(),
        kind in 0u8..5,
    ) {
        let (ka, kb) = cached_keys();
        let digest = tlc_crypto::sha256::digest(&msg);
        let mut sig = pkcs1::sign(&ka.private, &msg).unwrap();
        match kind {
            1 => sig[flip as usize % 128] ^= 1 << (flip % 8),
            2 => sig.fill(0xff),
            3 => sig = ka.public.n.to_bytes_be_padded(128).unwrap(),
            4 => sig.truncate(flip as usize % 128),
            _ => {}
        }
        let other = pkcs1::sign(&kb.private, &msg).unwrap();
        let req = |key, signature| pkcs1::VerifyRequest { key, digest, signature };
        let alone = pkcs1::verify_prehashed(&ka.public, &digest, &sig);
        prop_assert_eq!(&alone, &pkcs1::verify_batch(&[req(&ka.public, &sig)])[0]);
        let among = pkcs1::verify_batch(&[req(&kb.public, &other), req(&ka.public, &sig), req(&kb.public, &other)]);
        prop_assert_eq!(&alone, &among[1]);
        prop_assert_eq!(&among[0], &Ok(()));
        let scalar = if sig.len() != 128 {
            Err(tlc_crypto::CryptoError::SignatureLength { expected: 128, got: sig.len() })
        } else if big(&sig).cmp_to(&ka.public.n).is_ge() {
            Err(tlc_crypto::CryptoError::MessageTooLarge)
        } else {
            let m = big(&sig).modpow_with_ctx(&ka.public.e, ka.public.mont_ctx().unwrap());
            if m == em_1024(&digest) { Ok(()) } else { Err(tlc_crypto::CryptoError::BadSignature) }
        };
        prop_assert_eq!(&alone, &scalar);
        prop_assert_eq!(alone.is_ok(), kind == 0);
    }
}
