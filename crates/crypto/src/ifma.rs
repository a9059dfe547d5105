//! Multi-lane modular exponentiation on AVX-512 IFMA
//! (`vpmadd52{lo,hi}uq`), one modulus per lane: `base^65537 mod n` for
//! 1024-bit moduli (signature verification, up to eight keys per call)
//! and `base^exp mod p` for a pair of 512-bit moduli (the two CRT halves
//! of one RSA-1024 private-key operation).
//!
//! This is the multi-buffer RSA technique from Gueron & Krasnov's
//! vectorized modular arithmetic line of work: operands are recoded into
//! radix-2^52 (20 digits for a 1024-bit modulus, 10 for a 512-bit one),
//! independent exponentiations ride in the 64-bit elements of a vector,
//! and every digit-by-digit product uses the 52-bit fused multiply-add
//! instructions. The almost-Montgomery multiplication (AMM) step keeps
//! per-digit accumulators in redundant (unnormalized) 64-bit containers
//! so no carry propagates inside the hot loop; one short vectorized
//! carry-propagation pass renormalizes per AMM.
//!
//! Every lane carries its own modulus: the modulus digits, `R² mod n`
//! and `k0` are gathered per lane from each modulus's [`IfmaCtx`], so a
//! verification call serves whatever signatures arrived, in arrival
//! order, whichever keys they are under, and a signing call holds `p` in
//! two lanes and `q` in the other two. One kernel body (`lane_kernels!`)
//! is instantiated three times — 8 lanes of a 512-bit vector and 4 lanes
//! of a 256-bit one (`avx512vl`) at 20 digits, 4 lanes of a 256-bit one
//! at 10 — and each instantiation is closed by the ladder it serves.
//!
//! **Verification** (`f4_ladder!`, `modpow_f4`) picks its width by
//! live count: a lone 512-bit call drops the core into a lower frequency
//! licence that the scalar code around it then pays for, so up to four
//! lanes are both cheaper and kinder to their neighbours on 256-bit
//! vectors; there is no scalar route for an F4 key on an IFMA host. The
//! exponent is fixed at F4: into Montgomery
//! form, sixteen dedicated squarings (cross products computed once and
//! doubled), and one AMM by the *plain* base, which multiplies and
//! leaves Montgomery form at once. Bases come in and exact results go
//! out as radix-2^52 digits (`Digits`), so a caller that reads a
//! signature's bytes straight into digits (`digits_from_be`) and
//! compares in digits holds no big integer. A lone check — each of a
//! negotiation's three — would carry one live lane of four, so one lane
//! runs instead with its own 20 digits across five 256-bit vectors
//! (`x1`), still on 256-bit vectors: about half the time of the
//! four-lane call, and break-even with it at two lanes, which therefore
//! stay on the lanes.
//!
//! **Signing** (`mont_ladder!`, `private_op`) walks the CRT halves'
//! exponents on a Montgomery ladder (Montgomery 1987; Joye & Yen, CHES
//! 2002): the pair `(R0, R1)` with `R1 = R0·c`, and per exponent bit `b`
//! the product `R0·R1` and the square `R_b²`, which are independent.
//! Lanes `[p·mul, p·sqr, q·mul, q·sqr]` make both halves' product and
//! square in one 256-bit AMM. Each step swaps each half's two lanes
//! (`vpshufd`) and picks its operands with masked blends, the masks
//! being arithmetic on the two exponent bits. No table, and the plain
//! AMM for the square — both measured choices (CHANGES.md). A
//! signature is one kernel call on digits: the CRT split of `c` as
//! `AMM(c_lo, R²) + AMM(c_hi, 2^512·R² mod p)` per half (one AMM for
//! both halves, against constants cached per key in a `CrtKey`), 512
//! steps, one exit AMM, and Garner's recombination as one AMM by
//! `qinv·R mod p` and a 10×10 plain product — 515 AMMs in sequence, and
//! no big integer between the EM's digits and the signature's.
//! `modpow_crt` is the same ladder under any two 512-bit moduli with
//! `BigUint` operands, for the prime search's Miller–Rabin witnesses.
//!
//! *Posture* (what still varies with data, per route). On the IFMA
//! signing route, per signature: nothing in the source branches on or
//! addresses by `c`, `dp`, `dq`, `p`, `q` or an intermediate — the
//! ladder's AMMs, loads and branches are the same for every exponent,
//! `reduce_once` is a mask-select, Garner's difference and product are
//! fixed loops of arithmetic, and the exponents were copied into fixed
//! 512-bit arrays when the key's `CrtKey` was built. What varies is
//! outside the call: building the `CrtKey` (once per key: `BigUint`
//! `rem`s over the primes) and, in debug builds only, the fault check
//! that re-encrypts each signature. The prime search's `modpow_crt`
//! copies each `BigUint` exponent over its limb count and leaves in a
//! `BigUint`. On the scalar route everything in `montgomery.rs`'s
//! "Constant-time posture" applies.
//!
//! Values travel a chain in the almost-reduced range `[0, 2M)`; an AMM
//! takes operands below `4M` and still lands there, because
//! `R ≥ 2^8·M` (`2^1040` for a 1024-bit `M`, `2^520` for a 512-bit one)
//! keeps `a·b/R` below `M/16`. Only the last step fully reduces, so
//! results are bit-for-bit the canonical powers the scalar kernels
//! produce.
//!
//! Everything here is runtime-gated: an [`IfmaCtx`] exists only on a CPU
//! with the features its kernel is compiled for, and a `CrtKey` only
//! where both its primes hold one. `crate::montgomery` routes to
//! `modpow_f4` only lanes that hold an `IfmaCtx`; the signing ladder has
//! two entries, each with one caller: `private_op` from
//! `PrivateKey::raw_decrypt_digits` (every RSA-1024 signature) and
//! `modpow_crt` from `montgomery::modpow_pair` (the prime search, two
//! witnesses to a pass). On other architectures this module compiles to
//! a stub that never yields a context.

#[cfg(target_arch = "x86_64")]
pub use imp::{available, vl_available, IfmaCtx};
#[cfg(target_arch = "x86_64")]
pub(crate) use imp::{modpow_crt, modpow_f4, private_op, CrtKey};

#[cfg(not(target_arch = "x86_64"))]
pub use stub::{available, vl_available, IfmaCtx};
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use stub::{modpow_crt, modpow_f4, private_op, CrtKey};

/// Most exponentiations carried per kernel call (one per 64-bit element
/// of a 512-bit vector).
pub const IFMA_LANES: usize = 8;

/// Live lanes at or below which a call runs on 256-bit vectors.
pub const NARROW_LANES: usize = 4;

/// Exponentiations carried by the signing ladder: the two CRT halves of
/// one private-key operation.
pub(crate) const CRT_LANES: usize = 2;

/// Lanes of the signing ladder: a product and a square per CRT half, one
/// per 64-bit element of a 256-bit vector.
pub(crate) const LADDER_LANES: usize = 2 * CRT_LANES;

/// 64-bit limbs of a signing-ladder exponent: 512 bits, walked whatever
/// the exponent's length.
pub(crate) const EXP_LIMBS: usize = 8;

/// Radix-2^52 digits in a 1024-bit operand (`ceil(1040 / 52)`).
pub const DIGITS: usize = 20;

/// Radix-2^52 digits in a 512-bit operand — an RSA-1024 CRT prime
/// (`R = 2^520`).
pub(crate) const HALF_DIGITS: usize = 10;

/// Lane constants for a 1024-bit modulus (the verification lanes).
pub type IfmaCtx1024 = IfmaCtx<DIGITS>;

/// Lane constants for a 512-bit modulus (the signing lanes).
pub(crate) type IfmaCtx512 = IfmaCtx<HALF_DIGITS>;

/// A 1024-bit value in radix-2^52, least significant digit first: what
/// the verification lanes read and write.
pub(crate) type Digits = [u64; DIGITS];

/// One F4 exponentiation: the key's constants and a base below its
/// modulus.
pub(crate) type F4Lane<'a> = (&'a IfmaCtx1024, Digits);

/// Mask of one radix-2^52 digit.
const MASK52: u64 = (1u64 << 52) - 1;

/// Slices a little-endian u64 limb array into radix-2^52 digits.
pub(crate) const fn to_digits52<const D: usize>(limbs: &[u64]) -> [u64; D] {
    const fn limb(limbs: &[u64], i: usize) -> u64 {
        if i < limbs.len() {
            limbs[i]
        } else {
            0
        }
    }
    let mut out = [0u64; D];
    let mut d = 0;
    while d < D {
        let (idx, off) = (52 * d / 64, 52 * d % 64);
        let mut v = limb(limbs, idx) >> off;
        if off > 12 {
            v |= limb(limbs, idx + 1) << (64 - off);
        }
        out[d] = v & MASK52;
        d += 1;
    }
    out
}

/// Reassembles radix-2^52 digits into a normalized `BigUint`.
pub(crate) fn from_digits52<const D: usize>(digits: &[u64; D]) -> crate::bigint::BigUint {
    let mut limbs = vec![0u64; (52 * D).div_ceil(64)];
    for (d, &digit) in digits.iter().enumerate() {
        let bit = 52 * d;
        let idx = bit / 64;
        let off = bit % 64;
        limbs[idx] |= digit << off;
        if off > 12 {
            limbs[idx + 1] |= digit >> (64 - off);
        }
    }
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
    crate::bigint::BigUint { limbs }
}

/// The big-endian integer `bytes` — whole 8-byte limbs, at most 128
/// bytes: a 1024-bit signature or EM, or a SHA-256 digest — in
/// radix-2^52 digits, read straight from the bytes a limb at a time.
///
/// It runs on every signature a verifier checks, so it is written for
/// speed as well as for const context (`pkcs1`'s `LANE_EM_HEAD`): each
/// limb is one chunked `from_be_bytes` read, and a zero limb past the
/// top lets every digit read its two limbs without a bounds branch
/// (~13 ns a 128-byte signature, against ~62 ns read byte by byte and
/// sliced through [`to_digits52`]).
pub(crate) const fn digits_from_be(bytes: &[u8]) -> Digits {
    assert!(bytes.len() <= 128 && bytes.len().is_multiple_of(8));
    // Little-endian limbs: limb i is the eight bytes ending 8i bytes
    // from the end. Limb 16 stays zero.
    let mut limbs = [0u64; 17];
    let mut rest = bytes;
    let mut i = 0;
    while let Some((head, last)) = rest.split_last_chunk::<8>() {
        limbs[i] = u64::from_be_bytes(*last);
        rest = head;
        i += 1;
    }
    let mut out = [0u64; DIGITS];
    let mut d = 0;
    while d < DIGITS {
        let (idx, off) = (52 * d / 64, 52 * d % 64);
        // `(x << 1) << (63 - off)` is `x << (64 - off)`, and 0 at
        // `off == 0`, where the single shift would overflow.
        out[d] = ((limbs[idx] >> off) | ((limbs[idx + 1] << 1) << (63 - off))) & MASK52;
        d += 1;
    }
    out
}

/// The 128 big-endian bytes of a value below `2^1024` in radix-2^52
/// digits — a signature's wire form — written straight from the digits.
pub(crate) fn be_from_digits(digits: &Digits) -> [u8; 128] {
    let mut limbs = [0u64; 16];
    for (d, &digit) in digits.iter().enumerate() {
        let (idx, off) = (52 * d / 64, 52 * d % 64);
        limbs[idx] |= digit << off;
        if off > 12 && idx + 1 < limbs.len() {
            limbs[idx + 1] |= digit >> (64 - off);
        }
    }
    // Digit 19 starts at bit 988: only its low 36 bits are below 2^1024.
    debug_assert_eq!(digits[DIGITS - 1] >> 36, 0);
    let mut out = [0u8; 128];
    for (bytes, limb) in out.chunks_exact_mut(8).zip(limbs.iter().rev()) {
        bytes.copy_from_slice(&limb.to_be_bytes());
    }
    out
}

/// One exponentiation of the signing ladder: the prime's constants, a
/// base below the prime and an exponent of at most 512 bits.
pub(crate) type ExpLane<'a> = (
    &'a IfmaCtx512,
    &'a crate::bigint::BigUint,
    &'a crate::bigint::BigUint,
);

#[cfg(target_arch = "x86_64")]
mod imp {
    //! The kernels, on x86-64.
    //!
    //! **One kernel body, three instantiations.** `lane_kernels!` takes the
    //! vector type, lane count and digit count as parameters: [`w512`] (8
    //! lanes of `__m512i`, 20 digits) and [`w256`] (4 lanes of `__m256i`, 20
    //! digits) are closed by `f4_ladder!`, [`pair256`] (4 lanes of
    //! `__m256i`, 10 digits) by `mont_ladder!`. The same
    //! [`normalize`](pair256::normalize) / [`amm`](pair256::amm) text
    //! serves all three. Verification is 18 kernel calls per F4 —
    //! into Montgomery form, sixteen squarings, one AMM by the plain base —
    //! and its squaring product-scans the 40-column square with each cross
    //! product computed once (~1 240 IFMA against ~1 620 for a
    //! multiplication). [`x1`] is the lone check's kernel. The kernel
    //! tests hold the squaring to the multiplication digit for digit and
    //! the 18-step ladder to `modpow` at every live count, at both widths,
    //! and print a skip notice on a CPU without the feature.
    //!
    //! **The shared `amm` row.** A row is `4·DIGITS` multiply-adds and one
    //! add: 40 IFMA at 10 digits, with no `lo(m_0·y)` (see `amm`'s doc for
    //! why the carry `⌈u / 2^52⌉` replaces it). High halves in containers of
    //! their own, added at the shift, with `y = lo(r_0·k0) +
    //! lo(lo(a_0·k0)·b_i)`, would cost the 10-digit row 42 IFMA plus ten
    //! `vpaddq` and ten zeroing `vpxor`, and those take issue slots and
    //! ports the multiplies need: that row read 1.10–1.15× slower on a
    //! loaded host (ROADMAP, *Measured and closed*). [`x1`] does use that
    //! layout: its row is bound by its chain (`y` → the `m·y` halves → the
    //! next digit 0 → `y`, ~14 cycles), not by its 20 multiplies. `tests::amm_containers_stay_below_2_59_even_at_the_worst_case`
    //! runs a 128-bit model of the row beside every `amm` (20-digit lanes,
    //! one-lane kernel, 10-digit lanes) on `m = 2^k − 1` times operands
    //! `2m − 1` and `4m − 1` in all four pairings — the ladder's first step
    //! can square an `R1` near `4p` — and on random operands below `4m`,
    //! checks the kernels digit for digit against it, checks `⌈u / 2^52⌉`
    //! against the carry `lo(m_0·y)` would give, bounds its largest
    //! container (~2^57) below 2^59 and holds every result below `2m`.
    //!
    //! **The signing ladder's step.** [`pair256`]'s lanes are `[p·mul, p·sqr,
    //! q·mul, q·sqr]`; each half's two lanes hold `(R_{1−b}, R_b)` for the bit
    //! `b` walked last, exactly as `amm` left them. For the next bit,
    //! `vpshufd 0x4E` swaps the two 64-bit lanes of each 128-bit half; the
    //! mul lane multiplies the state's two lanes — `R0·R1` in either order,
    //! since an AMM's reduction multiple is the unique `−ab·m⁻¹ mod R` and so
    //! `amm(a, b) == amm(b, a)` digit for digit — by blending the swapped
    //! copy into the second operand only; the sqr lane squares `R_b`, the
    //! state's own sqr lane when `b` repeats the last bit and the swapped one
    //! when it flips. `vpblendmq` does both picks under masks `flip = bits ^
    //! last` and `flip | 0b0101`, so no branch and no address depends on a
    //! bit. Squarings are `amm(a, a)`, not `f4_ladder!`'s product-scanned
    //! `sqr`: the square lanes share each call with the product lanes, and a
    //! vector instruction does the same work in every lane. Four
    //! independent products per step is all there is at 256 bits;
    //! 128-bit vectors would leave half of each IFMA idle.
    //!
    //! **A signature is one call** ([`private_op`]): the CRT split of `c` as
    //! `AMM(c_lo, R²) + AMM(c_hi, 2^512·R² mod p)` per half (one AMM for both
    //! halves, one swap-add and one carry pass: a sum below `4p` that becomes
    //! `R1`, with `R mod p` as `R0`), 512 steps, one exit AMM by 1 and
    //! [`reduce_once`] per half, then Garner ([`garner`]): `h = AMM(m1 + 2p
    //! − m2, qinv·R mod p)` made exact (`m2 < q < 2p`, so the difference is in
    //! `(0, 3p)`) and `s = m2 + h·q` as a 10×10 plain product in 128-bit
    //! columns. That is 515 sequential `amm` calls and no big integer
    //! between the digest and the signature; [`modpow_crt`] walks the same
    //! ladder from `BigUint` operands (entry is one `amm`, `[R², c] × [1, R²]`,
    //! so 514 calls). The sequence is the same for every key, message and
    //! exponent length. `tests::pair256` walks exponents 0, 1, 2, 2^511,
    //! 2^512 − 1 and random ones over bases 0, 1, m − 1, both halves under
    //! one modulus too; writing back the wrong lane fails it.
    //!
    //! **Read the code, not only the clock**, after touching this module: a
    //! spill or a `memmove` in a row loop costs tens of percent and passes
    //! every test. `a[10] + m[10] + r[10]` is 30 of the 32 `ymm` registers
    //! AVX-512VL provides, so a constant or two is read from memory. In the
    //! release binary (`objdump -d`) `pair256::walk`, where `amm` is
    //! inlined at both sites, has a step row loop of 57 instructions — 40
    //! `vpmadd52`, three loads (`b_i`, `k0`, the `2^52 − 1` of the carry),
    //! no store and no `call` — and the exit AMM's is 60 with five loads;
    //! [`x1::modpow_f4`]'s row loops are 49 instructions, 22 `vpmadd52`
    //! and one load; the [`w512::modpow_f4`] / [`w256::modpow_f4`] loops
    //! have no `call` to `memmove`/`memcpy`. `walk` and [`private_op`]
    //! branch only on loop counters, and [`reduce_once`] not at all.

    use super::{
        from_digits52, to_digits52, ExpLane, F4Lane, CRT_LANES, DIGITS, EXP_LIMBS, HALF_DIGITS,
        IFMA_LANES, MASK52, NARROW_LANES,
    };
    use crate::bigint::BigUint;

    /// True when the running CPU can execute the 512-bit IFMA kernels.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
    }

    /// True when the running CPU can also execute them on 256-bit
    /// vectors.
    pub fn vl_available() -> bool {
        available() && std::arch::is_x86_feature_detected!("avx512vl")
    }

    /// Per-modulus constants for the radix-2^52 lanes at `D` digits,
    /// derived once per modulus (cached inside `MontgomeryCtx`). Holding
    /// one is the proof that the CPU has the features its kernel is
    /// compiled for: the `new` of each width is the only constructor and
    /// yields `None` elsewhere.
    #[derive(Clone)]
    pub struct IfmaCtx<const D: usize> {
        /// Modulus in radix-2^52.
        m: [u64; D],
        /// `2^(2·52·D) mod m` in radix-2^52: the Montgomery-entry
        /// constant for `R = 2^(52·D)`.
        r2: [u64; D],
        /// `-m^{-1} mod 2^52`.
        k0: u64,
    }

    /// `v -= m` when `v >= m`, on normalized radix-2^52 digits: the exact
    /// reduction of an almost-reduced (`< 2m`) value. The difference is
    /// always computed and kept or dropped by a mask, so no branch or
    /// address follows the comparison.
    fn reduce_once<const D: usize>(v: &mut [u64; D], m: &[u64; D]) {
        let mut borrow = 0u64;
        let diff: [u64; D] = core::array::from_fn(|d| {
            let t = v[d].wrapping_sub(m[d]).wrapping_sub(borrow);
            borrow = t >> 63;
            t & MASK52
        });
        // All ones when v < m (keep v), zero otherwise. The barrier
        // keeps the compiler from turning the select back into a branch
        // on the borrow, which it otherwise does.
        let keep = core::hint::black_box(borrow.wrapping_neg());
        for (d, x) in v.iter_mut().zip(diff) {
            *d = (*d & keep) | (x & !keep);
        }
    }

    impl<const D: usize> IfmaCtx<D> {
        /// The modulus in radix-2^52.
        pub(crate) fn modulus_digits(&self) -> &[u64; D] {
            &self.m
        }

        /// The constants for an odd modulus below `2^(52·D - 8)`.
        /// `n_prime64` is `-modulus^{-1} mod 2^64` from the scalar
        /// Montgomery context; its low 52 bits are the radix-2^52
        /// reduction factor.
        fn derive(modulus: &BigUint, n_prime64: u64) -> Self {
            let r2 = BigUint::one().shl(2 * 52 * D).rem(modulus);
            IfmaCtx {
                m: to_digits52(&modulus.limbs),
                r2: to_digits52(&r2.limbs),
                k0: n_prime64 & MASK52,
            }
        }
    }

    impl IfmaCtx<DIGITS> {
        /// Builds the constants for an odd 16-limb (1024-bit) modulus, or
        /// `None` when the CPU lacks AVX-512 IFMA.
        pub fn new(modulus: &BigUint, n_prime64: u64) -> Option<Self> {
            debug_assert_eq!(modulus.limbs.len(), 16);
            available().then(|| Self::derive(modulus, n_prime64))
        }
    }

    impl IfmaCtx<HALF_DIGITS> {
        /// Builds the constants for an odd 8-limb (512-bit) modulus, or
        /// `None` when the CPU lacks AVX-512 IFMA on 256-bit vectors.
        pub(crate) fn new(modulus: &BigUint, n_prime64: u64) -> Option<Self> {
            debug_assert_eq!(modulus.limbs.len(), 8);
            vl_available().then(|| Self::derive(modulus, n_prime64))
        }
    }

    /// Computes `base^65537 mod n` for 1 to [`IFMA_LANES`] lanes in one
    /// kernel call, each lane under its own key, and writes the exact
    /// results to `out` in lane order. Where the CPU has `avx512vl`, one
    /// lane runs with its digits across five 256-bit vectors (`x1`), and
    /// two to [`NARROW_LANES`] lanes a lane per 64-bit element of a
    /// 256-bit vector; otherwise, and above that, a lane per element of a
    /// 512-bit vector. Lanes past the live count compute on a copy of
    /// lane 0 and are dropped.
    pub(crate) fn modpow_f4(lanes: &[F4Lane<'_>], out: &mut [[u64; DIGITS]]) {
        debug_assert!((1..=IFMA_LANES).contains(&lanes.len()) && out.len() == lanes.len());
        match (lanes, out) {
            ([lane], [slot]) if vl_available() => unsafe {
                // SAFETY: `vl_available()` just confirmed AVX-512F + IFMA
                // + VL, the features the one-lane body is compiled for.
                x1::modpow_f4(lane, slot)
            },
            (lanes, out) if lanes.len() <= NARROW_LANES && vl_available() => unsafe {
                // SAFETY: as above, for the 256-bit lane body.
                w256::modpow_f4(lanes, out)
            },
            (lanes, out) => unsafe {
                // SAFETY: every lane holds an `IfmaCtx1024`, which only
                // exists after `available()` confirmed AVX-512F + IFMA.
                w512::modpow_f4(lanes, out)
            },
        }
    }

    /// Computes `base^exp mod m` for both lanes in one kernel call, each
    /// lane under its own 512-bit modulus and its own exponent. Results
    /// are bit-for-bit `MontgomeryCtx::modpow`'s.
    pub(crate) fn modpow_crt(lanes: &[ExpLane<'_>; CRT_LANES]) -> [BigUint; CRT_LANES] {
        // SAFETY: every lane holds an `IfmaCtx512`, which only exists
        // after `vl_available()` confirmed AVX-512F + IFMA + VL, the
        // features the 256-bit body is compiled for.
        unsafe { pair256::modpow_crt(lanes) }
    }

    /// One half of a [`CrtKey`]: the prime's lane constants and the two
    /// the one-call entry needs besides `R²`.
    struct CrtHalf {
        ctx: IfmaCtx<HALF_DIGITS>,
        /// `2^512·R² mod p`: `AMM(c_hi, ·)` is `2^512·c_hi·R mod p`.
        hi_r2: [u64; HALF_DIGITS],
        /// `R mod p`: 1 in Montgomery form, the ladder's first `R0`.
        mont_one: [u64; HALF_DIGITS],
    }

    /// An RSA-1024 private key as the signing ladder reads it, built once
    /// per key (cached beside its prime contexts): both primes' constants,
    /// `dp` and `dq` as fixed 512-bit arrays, and Garner's `qinv·R mod p`.
    /// Holding one is the proof that the CPU runs the 256-bit body.
    /// Scrubbed on drop, as the key's own limbs are.
    pub struct CrtKey {
        halves: [CrtHalf; CRT_LANES],
        exps: [[u64; EXP_LIMBS]; CRT_LANES],
        qinv_r: [u64; HALF_DIGITS],
    }

    impl CrtKey {
        /// The constants for primes `p`, `q` (their contexts), exponents
        /// `dp`, `dq` and `qinv = q^{-1} mod p`, or `None` unless both
        /// primes ride the signing lanes on this CPU.
        pub(crate) fn new(
            primes: [&crate::montgomery::MontgomeryCtx; CRT_LANES],
            exps: [&BigUint; CRT_LANES],
            qinv: &BigUint,
        ) -> Option<Self> {
            let half = |ctx: &crate::montgomery::MontgomeryCtx| {
                let ctx = ctx.ifma_crt_ctx()?.clone();
                let p = from_digits52(&ctx.m);
                let power = |bits: usize| to_digits52(&BigUint::one().shl(bits).rem(&p).limbs);
                Some(CrtHalf {
                    hi_r2: power(512 + 2 * 52 * HALF_DIGITS),
                    mont_one: power(52 * HALF_DIGITS),
                    ctx,
                })
            };
            let [p, q] = primes;
            let (p, q) = (half(p)?, half(q)?);
            let p_big = from_digits52(&p.ctx.m);
            let qinv_r = qinv.shl(52 * HALF_DIGITS).rem(&p_big);
            Some(CrtKey {
                halves: [p, q],
                exps: exps.map(|e| {
                    debug_assert!(e.limbs.len() <= EXP_LIMBS);
                    core::array::from_fn(|i| e.limbs.get(i).copied().unwrap_or(0))
                }),
                qinv_r: to_digits52(&qinv_r.limbs),
            })
        }
    }

    impl Drop for CrtKey {
        fn drop(&mut self) {
            let halves = self.halves.iter_mut().flat_map(|h| {
                h.ctx
                    .m
                    .iter_mut()
                    .chain(&mut h.ctx.r2)
                    .chain(&mut h.hi_r2)
                    .chain(&mut h.mont_one)
            });
            for word in halves
                .chain(self.exps.iter_mut().flatten())
                .chain(&mut self.qinv_r)
            {
                // SAFETY: `word` is a valid, aligned, exclusive reference
                // into this key; the store is volatile only so that it is
                // not elided as dead.
                unsafe { core::ptr::write_volatile(word, 0) };
            }
        }
    }

    /// `c^d mod n` for a `c < n` in radix-2^52 digits, in one kernel call:
    /// the CRT split of `c`, both halves' ladders and Garner's
    /// recombination, exact digits out. Bit-for-bit the scalar CRT.
    pub(crate) fn private_op(key: &CrtKey, c: &[u64; DIGITS]) -> [u64; DIGITS] {
        // SAFETY: a `CrtKey` holds two `IfmaCtx512`s, which only exist
        // after `vl_available()` confirmed AVX-512F + IFMA + VL.
        unsafe { pair256::private_op(key, c) }
    }

    /// Garner's recombination on the halves' exact digits, outside the
    /// vector lanes.
    mod garner {
        use super::{HALF_DIGITS, MASK52};

        /// `m1 + 2p - m2` for `m1 < p`, `m2 < 2p`, in normalized digits:
        /// a value in `(0, 3p)` congruent to `m1 - m2` mod `p`.
        pub(super) fn difference(
            m1: &[u64; HALF_DIGITS],
            m2: &[u64; HALF_DIGITS],
            p: &[u64; HALF_DIGITS],
        ) -> [u64; HALF_DIGITS] {
            let mut carry = 0i64;
            let out = core::array::from_fn(|j| {
                let v = m1[j] as i64 + 2 * p[j] as i64 - m2[j] as i64 + carry;
                carry = v >> 52;
                v as u64 & MASK52
            });
            debug_assert_eq!(carry, 0);
            out
        }

        /// `m2 + h·q` in 20 normalized digits: the 10×10 plain product
        /// in 128-bit columns, then one carry pass.
        pub(super) fn combine(
            h: &[u64; HALF_DIGITS],
            q: &[u64; HALF_DIGITS],
            m2: &[u64; HALF_DIGITS],
        ) -> [u64; 2 * HALF_DIGITS] {
            let mut columns = [0u128; 2 * HALF_DIGITS];
            for (i, &hi) in h.iter().enumerate() {
                for (j, &qj) in q.iter().enumerate() {
                    columns[i + j] += hi as u128 * qj as u128;
                }
            }
            for (column, &d) in columns.iter_mut().zip(m2) {
                *column += d as u128;
            }
            let mut carry = 0u128;
            let out = core::array::from_fn(|k| {
                let v = columns[k] + carry;
                carry = v >> 52;
                v as u64 & MASK52
            });
            debug_assert_eq!(carry, 0);
            out
        }
    }

    /// `$t[K] = $column::<K>($args..)` for each of the `2 * DIGITS` columns
    /// of a 20-digit square, in order — the compile-time loop `sqr` needs
    /// for its column bounds to be constants.
    macro_rules! each_square_column {
        ($t:ident, $column:ident, $($arg:expr),*) => {
            each_square_column!(@ $t, $column, ($($arg),*),
                0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19
                20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
        };
        (@ $t:ident, $column:ident, $args:tt, $($k:literal)*) => {
            $( $t[$k] = $column::<$k> $args; )*
        };
    }

    /// The kernel body at one vector width and operand size: `$lanes`
    /// 64-bit elements of `$vec`, `$digits` radix-2^52 digits, compiled
    /// for `$features`, closed by the exponentiation `$ladder` that
    /// instantiation serves.
    macro_rules! lane_kernels {
        (
            $width:ident, $vec:ident, $lanes:expr, $digits:expr, $features:literal,
            $setzero:ident, $set1:ident, $add:ident, $and:ident, $srli:ident,
            $madd_lo:ident, $madd_hi:ident, $ladder:ident
        ) => {
            pub(super) mod $width {
                use super::{reduce_once, MASK52};
                use core::arch::x86_64::{
                    $add, $and, $madd_hi, $madd_lo, $set1, $setzero, $srli, $vec,
                };

                pub(super) const LANES: usize = $lanes;

                pub(super) const DIGITS: usize = $digits;

                /// One digit (or constant) of every lane.
                pub(super) type V = $vec;

                /// A value per lane, digit-major.
                pub(super) type Digits = [V; DIGITS];

                /// Vector ↔ lane-array views (pure reinterpretation, no
                /// AVX instruction involved).
                pub(super) fn lanes_of(v: V) -> [u64; LANES] {
                    // SAFETY: the vector type and [u64; LANES] have
                    // identical size and every bit pattern is valid in
                    // both.
                    unsafe { core::mem::transmute::<V, [u64; LANES]>(v) }
                }

                pub(super) fn vec_of(lanes: [u64; LANES]) -> V {
                    // SAFETY: as in `lanes_of`.
                    unsafe { core::mem::transmute::<[u64; LANES], V>(lanes) }
                }

                /// Transposes one radix-2^52 value per lane into
                /// digit-major vectors: element `d` holds digit `d` of
                /// every lane.
                pub(super) fn gather<'a>(value: impl Fn(usize) -> &'a [u64; DIGITS]) -> Digits {
                    core::array::from_fn(|d| vec_of(core::array::from_fn(|l| value(l)[d])))
                }

                /// Lane `l` of a digit-major value.
                pub(super) fn scatter(v: &Digits, l: usize) -> [u64; DIGITS] {
                    core::array::from_fn(|d| lanes_of(v[d])[l])
                }

                /// Renormalizes the redundant containers of a value below
                /// `2^(52·DIGITS)` — the first `DIGITS` of `r` — to 52-bit
                /// digits.
                #[inline]
                #[target_feature(enable = $features)]
                pub(super) fn normalize<const N: usize>(r: &[V; N]) -> Digits {
                    const { assert!(N >= DIGITS) };
                    let mask = $set1(MASK52 as i64);
                    let mut out = [$setzero(); DIGITS];
                    let mut carry = $setzero();
                    for (j, slot) in out.iter_mut().enumerate() {
                        let v = $add(r[j], carry);
                        *slot = $and(v, mask);
                        carry = $srli::<52>(v);
                    }
                    // The value is < 2^(52·DIGITS) (an AMM's is < 2m),
                    // so nothing carries out of the top digit.
                    debug_assert_eq!(lanes_of(carry), [0u64; LANES]);
                    out
                }

                /// One almost-Montgomery multiplication over all lanes:
                /// `AMM(a, b) = a·b·2^(-52·DIGITS) mod m`, result in
                /// `[0, 2m)` with normalized 52-bit digits. Inputs must
                /// have 52-bit digits and values `< 4m`: `R ≥ 2^8·m`
                /// keeps the product's share of the result, `a·b/R`,
                /// below `16m²/(2^8·m) = m/16`.
                ///
                /// A row adds `a·b_i` and `m·y`. Digit `j - 1` of the
                /// shifted value is digit `j`'s container plus the low
                /// halves of digit `j` and the high halves of digit
                /// `j - 1`, accumulated in the multiply-adds themselves:
                /// the two halves of `a·b_i` first, while `y` is made,
                /// then the two of `m·y`. Digit 0 needs no `lo(m_0·y)`:
                /// with `u = r_0 + lo(a_0·b_i)` and `y = lo(u·k0)`,
                /// `lo(m_0·y)` is `-u mod 2^52`, which rounds `u` up to
                /// a multiple of 2^52, so the carry into digit 1 is
                /// `⌈u / 2^52⌉` — an add and a shift, off the path
                /// through `y`. That is `4·DIGITS` multiply-adds a row
                /// and nothing else but one add. Each row adds at most
                /// four sub-2^52 halves and a carry per container
                /// (`< 2^59` after 20 rows), so no carry propagates
                /// inside the hot loop.
                #[target_feature(enable = $features)]
                pub(super) fn amm(a: &Digits, b: &Digits, m: &Digits, k0: V) -> Digits {
                    let zero = $setzero();
                    let below_2_52 = $set1(MASK52 as i64);
                    let mut r = [zero; DIGITS];
                    for &bi in b {
                        let u = $madd_lo(r[0], a[0], bi);
                        let y = $madd_lo(zero, u, k0);
                        let carry = $srli::<52>($add(u, below_2_52));
                        // Digit j's low halves and digit j - 1's high
                        // halves make digit j - 1 of the shifted value:
                        // the two of `a·b_i` first, while `y` is made.
                        for j in 1..DIGITS {
                            let ab = $madd_hi($madd_lo(r[j], a[j], bi), a[j - 1], bi);
                            r[j - 1] = $madd_hi($madd_lo(ab, m[j], y), m[j - 1], y);
                        }
                        let top = DIGITS - 1;
                        r[top] = $madd_hi($madd_hi(zero, a[top], bi), m[top], y);
                        r[0] = $add(r[0], carry);
                    }
                    normalize(&r)
                }

                $ladder!($features, $setzero, $add, $srli, $madd_lo, $madd_hi);
            }
        };
    }

    /// The verification ladder on top of a 20-digit kernel body: a
    /// dedicated squaring and `base^65537`.
    macro_rules! f4_ladder {
        (
            $features:literal, $setzero:ident, $add:ident, $srli:ident, $madd_lo:ident,
            $madd_hi:ident
        ) => {
            /// One Montgomery reduction round of [`sqr`] on the
            /// sliding window `r`: adds the multiple of `m` that zeroes
            /// digit 0 (mod 2^52), divides by 2^52, and shifts
            /// `incoming` in as the new top container. The shift is folded into
            /// where each sum is written (a window shifted in place
            /// compiles to a `memmove` call per round that keeps the
            /// containers out of registers).
            #[inline]
            #[target_feature(enable = $features)]
            fn reduce_round(
                r: &[V; DIGITS + 1],
                m: &Digits,
                k0: V,
                incoming: V,
            ) -> [V; DIGITS + 1] {
                // y = r[0] · (-m^{-1}) mod 2^52.
                let y = $madd_lo($setzero(), r[0], k0);
                let mut out = [incoming; DIGITS + 1];
                for j in 0..DIGITS {
                    out[j] = $madd_hi(r[j + 1], m[j], y);
                }
                for j in 1..DIGITS {
                    out[j - 1] = $madd_lo(out[j - 1], m[j], y);
                }
                // Digit 0's container is ≡ 0 mod 2^52 once its low
                // half is in, so only its upper bits carry on.
                let carry = $srli::<52>($madd_lo(r[0], m[0], y));
                out[0] = $add(out[0], carry);
                out
            }

            /// Column `K` of the 40-column square `a²`: every cross
            /// product `a_i·a_j` (`i < j`, `i + j == K`) computed
            /// once and the column doubled, plus the diagonal
            /// `a_{K/2}²` — its low half on even columns, its high
            /// half on odd ones. `hi_below` carries the high halves
            /// of the cross products from column `K - 1` in and this
            /// column's out. `K` is a constant so the pair loop
            /// unrolls into straight-line code.
            #[inline]
            #[target_feature(enable = $features)]
            fn square_column<const K: usize>(a: &Digits, hi_below: &mut V) -> V {
                // Both chains start from zero so that no column waits
                // for the one below it.
                let mut lo = $setzero();
                let mut hi = $setzero();
                for i in K.saturating_sub(DIGITS - 1)..K.div_ceil(2) {
                    lo = $madd_lo(lo, a[i], a[K - i]);
                    hi = $madd_hi(hi, a[i], a[K - i]);
                }
                let cross = $add(lo, *hi_below);
                *hi_below = hi;
                let doubled = $add(cross, cross);
                let d = a[K / 2];
                if K % 2 == 0 {
                    $madd_lo(doubled, d, d)
                } else {
                    $madd_hi(doubled, d, d)
                }
            }

            /// `AMM(a, a)` with about three quarters of the
            /// multiplies: the 40-column square is product-scanned
            /// ([`square_column`]), then the `DIGITS` reduction
            /// rounds slide over the columns. Same contract and —
            /// `R⁻¹`-multiples being unique — the same digits as
            /// `amm(a, a, ..)`.
            ///
            /// A column takes at most 10 low and 10 high halves of
            /// cross products (doubled: `< 40·2^52`), one diagonal
            /// half, and 40 halves plus a carry from the reduction,
            /// so containers stay below 2^60.
            #[target_feature(enable = $features)]
            pub(super) fn sqr(a: &Digits, m: &Digits, k0: V) -> Digits {
                let zero = $setzero();
                let mut t = [zero; 2 * DIGITS + 1];
                let mut hi_below = zero;
                each_square_column!(t, square_column, a, &mut hi_below);
                let mut r: [V; DIGITS + 1] = core::array::from_fn(|j| t[j]);
                for i in 0..DIGITS {
                    r = reduce_round(&r, m, k0, t[i + DIGITS + 1]);
                }
                normalize(&r)
            }

            /// `base^65537 mod n` for `lanes.len()` (1..=LANES)
            /// lanes; see [`super::modpow_f4`].
            #[target_feature(enable = $features)]
            pub(super) fn modpow_f4(lanes: &[super::F4Lane<'_>], out: &mut [[u64; DIGITS]]) {
                debug_assert!((1..=LANES).contains(&lanes.len()));
                // Dead lanes repeat lane 0: valid operands whose
                // results are never read.
                let lane = |l: usize| lanes.get(l).unwrap_or(&lanes[0]);
                let a = gather(|l| &lane(l).1);
                let m = gather(|l| &lane(l).0.m);
                let r2 = gather(|l| &lane(l).0.r2);
                let k0 = vec_of(core::array::from_fn(|l| lane(l).0.k0));

                // Into Montgomery form, 16 squarings, and the last
                // multiply by the plain base: a·R · a^65536·R · R⁻¹…
                // leaves a^65537 itself, almost reduced.
                let mut acc = amm(&a, &r2, &m, k0);
                for _ in 0..16 {
                    acc = sqr(&acc, &m, k0);
                }
                let plain = amm(&acc, &a, &m, k0);

                for (l, (slot, (ctx, _))) in out.iter_mut().zip(lanes).enumerate() {
                    *slot = scatter(&plain, l);
                    reduce_once(slot, &ctx.m);
                }
            }
        };
    }

    /// The signing ladder on top of a 256-bit kernel body: a Montgomery
    /// ladder with a modulus and an exponent per CRT half. Lanes
    /// `2h, 2h + 1` hold half `h`'s pair `(R0, R1)` (`R1 = R0·c` all the
    /// way down), so one `amm` per exponent bit makes both halves' product
    /// `R0·R1` and square `R_b²` at once.
    macro_rules! mont_ladder {
        (
            $features:literal, $setzero:ident, $add:ident, $srli:ident, $madd_lo:ident,
            $madd_hi:ident
        ) => {
            use super::{from_digits52, garner, to_digits52, CrtKey, EXP_LIMBS};
            use crate::bigint::BigUint;
            use core::arch::x86_64::{_mm256_mask_blend_epi64, _mm256_shuffle_epi32};

            /// Exponent bits walked per call, top first: enough for any
            /// exponent below a 512-bit modulus, whatever its length.
            const BITS: usize = 64 * EXP_LIMBS;

            /// The lanes holding each half's `R0` and `R1` as the walk
            /// starts.
            const EVEN: u8 = 0b0101;
            const ODD: u8 = 0b1010;

            /// Lanes `l` with bit `l` of `mask` set from `b`, the rest
            /// from `a`.
            #[inline]
            #[target_feature(enable = $features)]
            fn blend(mask: u8, a: &Digits, b: &Digits) -> Digits {
                core::array::from_fn(|d| _mm256_mask_blend_epi64(mask, a[d], b[d]))
            }

            /// Each half's two lanes exchanged.
            #[inline]
            #[target_feature(enable = $features)]
            fn swap(a: &Digits) -> Digits {
                core::array::from_fn(|d| _mm256_shuffle_epi32::<0x4E>(a[d]))
            }

            /// Bit `i` of each half's exponent, as the mask bit of that
            /// half's second lane.
            #[inline]
            fn odd_lanes(exps: &[[u64; EXP_LIMBS]; 2], i: usize) -> u8 {
                let bit = |e: &[u64; EXP_LIMBS]| ((e[i / 64] >> (i % 64)) & 1) as u8;
                (bit(&exps[0]) << 1) | (bit(&exps[1]) << 3)
            }

            /// The 512 ladder steps from `(R0, R1)` = `(R, c·R)` in each
            /// half's (even, odd) lanes, then out of Montgomery form: `c^e`
            /// per half in its even lane, almost reduced. Every call runs
            /// the same 513 `amm`s and the same loads, whatever the
            /// exponents are: the masks are arithmetic on the bits, and no
            /// branch or address follows them.
            #[inline]
            #[target_feature(enable = $features)]
            fn walk(
                mut state: Digits,
                exps: &[[u64; EXP_LIMBS]; 2],
                m: &Digits,
                k0: V,
                one: &Digits,
            ) -> Digits {
                // The state holds (R_{1-b}, R_b) for the bit b last walked:
                // (R0, R1) as if it were a 1.
                let mut last = ODD;
                for i in (0..BITS).rev() {
                    // Bit b: R_{1-b} = R0·R1 in the even lane (the state's
                    // two lanes, in either order), R_b = R_b² in the odd
                    // one — the odd lane of the state when b repeats the
                    // last bit, the even lane when it flips.
                    let bits = odd_lanes(exps, i);
                    let flip = bits ^ last;
                    let swapped = swap(&state);
                    let x = blend(flip, &state, &swapped);
                    let y = blend(flip | EVEN, &state, &swapped);
                    state = amm(&x, &y, m, k0);
                    last = bits;
                }
                // R0 is the odd lane after a final 0 bit and the even one
                // after a 1: move it to the even lane and leave Montgomery
                // form.
                let r0 = blend((!last & ODD) >> 1, &state, &swap(&state));
                amm(&r0, one, m, k0)
            }

            /// `1` in every lane.
            #[inline]
            #[target_feature(enable = $features)]
            fn one() -> Digits {
                let mut one = [$setzero(); DIGITS];
                one[0] = vec_of([1; LANES]);
                one
            }

            /// `base^exp mod m` per CRT half; see [`super::modpow_crt`].
            #[target_feature(enable = $features)]
            pub(super) fn modpow_crt(
                lanes: &[super::ExpLane<'_>; super::CRT_LANES],
            ) -> [BigUint; super::CRT_LANES] {
                debug_assert!(lanes.iter().all(|(_, _, exp)| exp.bit_len() <= BITS));
                let half = |l: usize| &lanes[l / 2];
                let bases = lanes
                    .each_ref()
                    .map(|(_, base, _)| to_digits52(&base.limbs));
                let exps = lanes.each_ref().map(|(_, _, exp)| {
                    core::array::from_fn(|i| exp.limbs.get(i).copied().unwrap_or(0))
                });
                let a = gather(|l| &bases[l / 2]);
                let m = gather(|l| &half(l).0.m);
                let r2 = gather(|l| &half(l).0.r2);
                let k0 = vec_of(core::array::from_fn(|l| half(l).0.k0));
                let one = one();
                // Into Montgomery form in one call: R0 = 1·R = AMM(R², 1)
                // and R1 = c·R = AMM(c, R²).
                let state = amm(&blend(ODD, &r2, &a), &blend(ODD, &one, &r2), &m, k0);
                let plain = walk(state, &exps, &m, k0, &one);
                core::array::from_fn(|h| {
                    let mut digits = scatter(&plain, 2 * h);
                    reduce_once(&mut digits, &lanes[h].0.m);
                    from_digits52(&digits)
                })
            }

            /// `c^d mod n` by CRT; see [`super::private_op`].
            #[target_feature(enable = $features)]
            pub(super) fn private_op(key: &CrtKey, c: &[u64; 2 * DIGITS]) -> [u64; 2 * DIGITS] {
                let half = |l: usize| &key.halves[l / 2];
                let m = gather(|l| &half(l).ctx.m);
                let k0 = vec_of(core::array::from_fn(|l| half(l).ctx.k0));
                let one = one();
                // c = c_lo + 2^512·c_hi; bit 512 is bit 44 of digit 9.
                let low44 = (1u64 << 44) - 1;
                let c_lo: [u64; DIGITS] =
                    core::array::from_fn(|j| if j + 1 < DIGITS { c[j] } else { c[j] & low44 });
                let c_hi: [u64; DIGITS] = core::array::from_fn(|j| {
                    ((c[DIGITS - 1 + j] >> 44) | (c[DIGITS + j] << 8)) & super::MASK52
                });
                // Even lanes AMM(c_lo, R²) = c_lo·R, odd lanes
                // AMM(c_hi, 2^512·R²) = 2^512·c_hi·R, each below 2p; each
                // half's sum is c·R mod p, below 4p: R1. R0 is R mod p.
                let parts = amm(
                    &gather(|l| if l % 2 == 0 { &c_lo } else { &c_hi }),
                    &gather(|l| {
                        if l % 2 == 0 {
                            &half(l).ctx.r2
                        } else {
                            &half(l).hi_r2
                        }
                    }),
                    &m,
                    k0,
                );
                let swapped = swap(&parts);
                let sum: Digits = core::array::from_fn(|d| $add(parts[d], swapped[d]));
                let r1 = normalize(&sum);
                let state = blend(ODD, &gather(|l| &half(l).mont_one), &r1);
                let plain = walk(state, &key.exps, &m, k0, &one);
                let [m1, m2] = core::array::from_fn(|h| {
                    let mut digits = scatter(&plain, 2 * h);
                    reduce_once(&mut digits, &key.halves[h].ctx.m);
                    digits
                });
                // Garner: h = (m1 - m2)·qinv mod p as AMM(m1 + 2p - m2,
                // qinv·R), then s = m2 + h·q.
                let [p, q] = key.halves.each_ref().map(|half| &half.ctx.m);
                let diff = garner::difference(&m1, &m2, p);
                let times_qinv = amm(&gather(|_| &diff), &gather(|_| &key.qinv_r), &m, k0);
                let mut h = scatter(&times_qinv, 0);
                reduce_once(&mut h, p);
                garner::combine(&h, q, &m2)
            }
        };
    }

    lane_kernels!(
        w512,
        __m512i,
        crate::ifma::IFMA_LANES,
        crate::ifma::DIGITS,
        "avx512f,avx512ifma",
        _mm512_setzero_si512,
        _mm512_set1_epi64,
        _mm512_add_epi64,
        _mm512_and_si512,
        _mm512_srli_epi64,
        _mm512_madd52lo_epu64,
        _mm512_madd52hi_epu64,
        f4_ladder
    );

    lane_kernels!(
        w256,
        __m256i,
        crate::ifma::NARROW_LANES,
        crate::ifma::DIGITS,
        "avx512f,avx512ifma,avx512vl",
        _mm256_setzero_si256,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        _mm256_and_si256,
        _mm256_srli_epi64,
        _mm256_madd52lo_epu64,
        _mm256_madd52hi_epu64,
        f4_ladder
    );

    lane_kernels!(
        pair256,
        __m256i,
        crate::ifma::LADDER_LANES,
        crate::ifma::HALF_DIGITS,
        "avx512f,avx512ifma,avx512vl",
        _mm256_setzero_si256,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        _mm256_and_si256,
        _mm256_srli_epi64,
        _mm256_madd52lo_epu64,
        _mm256_madd52hi_epu64,
        mont_ladder
    );

    /// One F4 exponentiation with its 20 digits across five 256-bit
    /// vectors: a lone signature check, which on the lane kernels would
    /// carry one live lane of four. A row broadcasts `b_i` and `y` to all
    /// four elements and multiplies every digit at once; the one-digit
    /// shift moves each vector's elements down one (`valignq`) and pulls
    /// the next vector's first element in.
    mod x1 {
        use super::{reduce_once, F4Lane, DIGITS, MASK52};
        use core::arch::x86_64::{
            __m256i, _mm256_add_epi64, _mm256_alignr_epi64, _mm256_and_si256,
            _mm256_cmpeq_epu64_mask, _mm256_cmpgt_epu64_mask, _mm256_madd52hi_epu64,
            _mm256_madd52lo_epu64, _mm256_mask_add_epi64, _mm256_maskz_srli_epi64,
            _mm256_permute4x64_epi64, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_srli_epi64,
        };

        /// Vectors of one value: four digits to a vector.
        const VECS: usize = DIGITS / 4;

        /// One 1024-bit value, digit `4k + l` in element `l` of vector `k`.
        type Wide = [__m256i; VECS];

        fn vectors(d: &[u64; DIGITS]) -> Wide {
            // SAFETY: both types are 160 bytes and every bit pattern is
            // valid in both; the copy is by value.
            unsafe { core::mem::transmute::<[u64; DIGITS], Wide>(*d) }
        }

        fn digits(v: Wide) -> [u64; DIGITS] {
            // SAFETY: as in `vectors`.
            unsafe { core::mem::transmute::<Wide, [u64; DIGITS]>(v) }
        }

        /// Renormalizes redundant containers (a value below `2^1040`) to
        /// 52-bit digits: one pass that hands each digit's upper bits to
        /// the digit above, leaving every carry still owed 0 or 1, then
        /// those carries resolved at once on 20-bit masks — a digit above
        /// `2^52 - 1` generates one, a digit equal to it passes one on —
        /// as the carries of the integer sum `(G << 1) + P`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma,avx512vl")]
        pub(super) fn normalize(r: &Wide) -> Wide {
            let zero = _mm256_setzero_si256();
            let mask = _mm256_set1_epi64x(MASK52 as i64);
            let carry: Wide = core::array::from_fn(|k| _mm256_srli_epi64::<52>(r[k]));
            debug_assert_eq!(digits(carry)[DIGITS - 1], 0);
            let t: Wide = core::array::from_fn(|k| {
                let below = if k > 0 { carry[k - 1] } else { zero };
                _mm256_add_epi64(
                    _mm256_and_si256(r[k], mask),
                    _mm256_alignr_epi64::<3>(carry[k], below),
                )
            });
            // Digit 4k + l is bit 4k + l, vector 4 first into the top.
            let (mut generate, mut pass) = (0u32, 0u32);
            for v in t.iter().rev() {
                generate = (generate << 4) | u32::from(_mm256_cmpgt_epu64_mask(*v, mask));
                pass = (pass << 4) | u32::from(_mm256_cmpeq_epu64_mask(*v, mask));
            }
            let incoming = ((generate << 1) + pass) ^ pass;
            debug_assert_eq!(incoming >> DIGITS, 0);
            let one = _mm256_set1_epi64x(1);
            core::array::from_fn(|k| {
                let bits = (incoming >> (4 * k)) as u8 & 0xf;
                _mm256_and_si256(_mm256_mask_add_epi64(t[k], bits, t[k], one), mask)
            })
        }

        /// `AMM(a, b)` for one modulus, same contract and — the result
        /// being unique — the same digits as the lane kernels' `amm`,
        /// with `a`'s and `m`'s digits across the vectors and `b_i` and
        /// `y` broadcast. A row is bound by its chain, not by multiplies
        /// (20 to a row), so it is laid out for the chain: the high
        /// halves go to containers of their own, added in with the
        /// shift, and `y = lo(r_0·k0) + lo(lo(a_0·k0)·b_i)` waits for
        /// one multiply-add after digit 0, with `lo(a_0·k0)` made once
        /// per call.
        #[target_feature(enable = "avx512f,avx512ifma,avx512vl")]
        pub(super) fn amm(
            a: &[u64; DIGITS],
            b: &[u64; DIGITS],
            m: &Wide,
            k0: __m256i,
        ) -> [u64; DIGITS] {
            let zero = _mm256_setzero_si256();
            let av = vectors(a);
            let a0k0 = _mm256_madd52lo_epu64(zero, _mm256_set1_epi64x(a[0] as i64), k0);
            let mut r = [zero; VECS];
            // Digit 0 of `r` in every element: what `y` is made from.
            let mut r0 = zero;
            for &bi in b {
                let bi = _mm256_set1_epi64x(bi as i64);
                let y = _mm256_madd52lo_epu64(_mm256_madd52lo_epu64(zero, a0k0, bi), r0, k0);
                let mut hi = [zero; VECS];
                for k in 0..VECS {
                    let lo = _mm256_madd52lo_epu64(r[k], av[k], bi);
                    r[k] = _mm256_madd52lo_epu64(lo, m[k], y);
                    let h = _mm256_madd52hi_epu64(zero, av[k], bi);
                    hi[k] = _mm256_madd52hi_epu64(h, m[k], y);
                }
                // Digit 0's carry, in element 0 only.
                let carry = _mm256_maskz_srli_epi64::<52>(1, r[0]);
                // The next digit 0 (digit 1, digit 0's high halves and
                // the carry) broadcast straight from the unshifted
                // vectors, so the next `y` does not wait for the shift.
                r0 = _mm256_add_epi64(
                    _mm256_add_epi64(
                        _mm256_permute4x64_epi64::<0x55>(r[0]),
                        _mm256_permute4x64_epi64::<0>(hi[0]),
                    ),
                    _mm256_permute4x64_epi64::<0>(carry),
                );
                r = core::array::from_fn(|k| {
                    let above = if k + 1 < VECS { r[k + 1] } else { zero };
                    _mm256_add_epi64(_mm256_alignr_epi64::<1>(above, r[k]), hi[k])
                });
                r[0] = _mm256_add_epi64(r[0], carry);
            }
            digits(normalize(&r))
        }

        /// `base^65537 mod n` for one lane; see [`super::modpow_f4`]. The
        /// lane kernels' schedule, with `amm(a, a)` for the squarings.
        #[target_feature(enable = "avx512f,avx512ifma,avx512vl")]
        pub(super) fn modpow_f4((ctx, base): &F4Lane<'_>, out: &mut [u64; DIGITS]) {
            let m = vectors(&ctx.m);
            let k0 = _mm256_set1_epi64x(ctx.k0 as i64);
            let mut acc = amm(base, &ctx.r2, &m, k0);
            for _ in 0..16 {
                acc = amm(&acc, &acc, &m, k0);
            }
            *out = amm(&acc, base, &m, k0);
            reduce_once(out, &ctx.m);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::ifma::Digits;
        use crate::montgomery::MontgomeryCtx;

        /// Deterministic 1024-bit values: xorshift bytes, top bit set.
        fn pseudo(seed: u64) -> BigUint {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut bytes = Vec::with_capacity(128);
            for _ in 0..16 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                bytes.extend_from_slice(&x.to_be_bytes());
            }
            bytes[0] |= 0x80;
            BigUint::from_bytes_be(&bytes)
        }

        /// Eight distinct odd 1024-bit moduli with their contexts.
        fn moduli() -> Vec<(BigUint, MontgomeryCtx)> {
            (1..=8u64)
                .map(|i| {
                    let mut m = pseudo(i);
                    m.limbs[0] |= 1;
                    let ctx = MontgomeryCtx::new(&m);
                    (m, ctx)
                })
                .collect()
        }

        /// The shared `amm` row on 128-bit containers, each half taken as
        /// `vpmadd52{lo,hi}uq` takes it: the result's digits and the
        /// largest value any container held, so a bound that only holds
        /// on paper would show.
        fn amm_model<const D: usize>(
            a: &[u64; D],
            b: &[u64; D],
            m: &[u64; D],
            k0: u64,
        ) -> ([u64; D], u128) {
            let product = |x: u64, y: u64| u128::from(x & MASK52) * u128::from(y & MASK52);
            let lo = |x: u64, y: u64| product(x, y) & u128::from(MASK52);
            let hi = |x: u64, y: u64| product(x, y) >> 52;
            let mut r = [0u128; D];
            let mut peak = 0;
            for &bi in b {
                let u = r[0] + lo(a[0], bi);
                let y = lo(u as u64, k0) as u64;
                let digit0 = u + lo(m[0], y);
                assert_eq!(digit0 & u128::from(MASK52), 0);
                assert_eq!(digit0 >> 52, (u + u128::from(MASK52)) >> 52);
                peak = peak.max(digit0);
                for j in 1..D {
                    r[j - 1] =
                        r[j] + lo(a[j], bi) + lo(m[j], y) + hi(a[j - 1], bi) + hi(m[j - 1], y);
                }
                r[D - 1] = hi(a[D - 1], bi) + hi(m[D - 1], y);
                r[0] += digit0 >> 52;
                peak = r.iter().fold(peak, |p, &c| p.max(c));
            }
            let mut carry = 0;
            let digits = core::array::from_fn(|j| {
                let v = r[j] + carry;
                carry = v >> 52;
                v as u64 & MASK52
            });
            assert_eq!(carry, 0);
            (digits, peak)
        }

        /// Every `amm` — the 20-digit lanes, the one-lane kernel and the
        /// 10-digit signing lanes — is its container model digit for
        /// digit, the model's containers stay below 2^59 and its result
        /// below `2m`: at the worst case (`m = 2^k - 1`, whose digits and
        /// `k0` are all ones, times operands `2m - 1` and `4m - 1` in all
        /// four pairings over the rounds) and on random operands below
        /// `4m`, the bound of the contract.
        #[test]
        fn amm_containers_stay_below_2_59_even_at_the_worst_case() {
            if !crate::ifma::vl_available() {
                eprintln!("skipping: this CPU lacks avx512ifma + avx512vl");
                return;
            }
            let one = BigUint::one();
            let bound = 1u128 << 59;
            let mut keys = moduli();
            keys.truncate(3);
            keys.insert(0, {
                let m = one.shl(1024).sub(&one);
                let ctx = MontgomeryCtx::new(&m);
                (m, ctx)
            });
            // Lane 0's operand is `2m - 1` or `4m - 1` by a bit of the
            // round (`a`'s the low one, `b`'s the next).
            let operand = |m: &BigUint, l: usize, i: u64, top: u64| match l {
                0 => m.shl(1 + (top & 1) as usize).sub(&one),
                _ => pseudo(300 + 10 * i + l as u64).rem(&m.shl(2)),
            };
            for i in 0..4 {
                let ifma: Vec<_> = keys
                    .iter()
                    .map(|(_, c)| c.ifma_ctx().expect("ifma"))
                    .collect();
                let a: Vec<Digits> = (0..4)
                    .map(|l| to_digits52(&operand(&keys[l].0, l, i, i).limbs))
                    .collect();
                let b: Vec<Digits> = (0..4)
                    .map(|l| to_digits52(&operand(&keys[l].0, l, i + 7, i >> 1).limbs))
                    .collect();
                let lanes = unsafe {
                    // SAFETY: `vl_available()` confirmed the features.
                    super::w256::amm(
                        &super::w256::gather(|l| &a[l]),
                        &super::w256::gather(|l| &b[l]),
                        &super::w256::gather(|l| &ifma[l].m),
                        super::w256::vec_of(core::array::from_fn(|l| ifma[l].k0)),
                    )
                };
                for l in 0..4 {
                    let (want, peak) = amm_model(&a[l], &b[l], &ifma[l].m, ifma[l].k0);
                    assert!(peak < bound, "1024-bit lane {l}, round {i}: {peak:#x}");
                    assert!(
                        from_digits52(&want) < keys[l].0.shl(1),
                        "lane {l}, round {i}"
                    );
                    assert_eq!(
                        super::w256::scatter(&lanes, l),
                        want,
                        "1024-bit lane {l}, round {i}"
                    );
                    let m = x1_vectors(&ifma[l].m);
                    let one_lane = unsafe {
                        // SAFETY: as above.
                        let k0 = core::arch::x86_64::_mm256_set1_epi64x(ifma[l].k0 as i64);
                        super::x1::amm(&a[l], &b[l], &m, k0)
                    };
                    assert_eq!(one_lane, want, "one lane, key {l}, round {i}");
                }
            }
            // The signing lanes: 2^512 - 1 in lanes 0 and 1, a random
            // 512-bit modulus in lanes 2 and 3.
            let halves: [(BigUint, MontgomeryCtx); 2] = core::array::from_fn(|h| {
                let m = if h == 0 {
                    one.shl(512).sub(&one)
                } else {
                    let mut m = pseudo(77).shr(512);
                    m.limbs[0] |= 1;
                    m
                };
                let ctx = MontgomeryCtx::new(&m);
                (m, ctx)
            });
            let ifma = halves
                .each_ref()
                .map(|(_, c)| c.ifma_crt_ctx().expect("ifma"));
            for i in 0..4 {
                let pick = |l: usize, i: u64, top: u64| {
                    let m = &halves[l / 2].0;
                    let v = if l == 0 {
                        m.shl(1 + (top & 1) as usize).sub(&one)
                    } else {
                        pseudo(500 + 10 * i + l as u64).rem(&m.shl(2))
                    };
                    to_digits52::<HALF_DIGITS>(&v.limbs)
                };
                let a: [[u64; HALF_DIGITS]; 4] = core::array::from_fn(|l| pick(l, i, i));
                let b: [[u64; HALF_DIGITS]; 4] = core::array::from_fn(|l| pick(l, i + 7, i >> 1));
                let lanes = unsafe {
                    // SAFETY: as above.
                    super::pair256::amm(
                        &super::pair256::gather(|l| &a[l]),
                        &super::pair256::gather(|l| &b[l]),
                        &super::pair256::gather(|l| &ifma[l / 2].m),
                        super::pair256::vec_of(core::array::from_fn(|l| ifma[l / 2].k0)),
                    )
                };
                for l in 0..4 {
                    let (want, peak) = amm_model(&a[l], &b[l], &ifma[l / 2].m, ifma[l / 2].k0);
                    assert!(peak < bound, "512-bit lane {l}, round {i}: {peak:#x}");
                    assert!(
                        from_digits52(&want) < halves[l / 2].0.shl(1),
                        "lane {l}, round {i}"
                    );
                    assert_eq!(
                        super::pair256::scatter(&lanes, l),
                        want,
                        "512-bit lane {l}, round {i}"
                    );
                }
            }
        }

        /// A 20-digit value as the one-lane kernel holds it, and back.
        fn x1_vectors(d: &Digits) -> [core::arch::x86_64::__m256i; 5] {
            // SAFETY: both types are 160 bytes, every bit pattern valid.
            unsafe { core::mem::transmute::<Digits, [core::arch::x86_64::__m256i; 5]>(*d) }
        }

        fn x1_digits(v: [core::arch::x86_64::__m256i; 5]) -> Digits {
            // SAFETY: as in `x1_vectors`.
            unsafe { core::mem::transmute::<[core::arch::x86_64::__m256i; 5], Digits>(v) }
        }

        /// The one-lane carry pass is the digit-serial one: on random
        /// containers, and on the ones that make it resolve a carry on
        /// its masks — a carry rippling through every all-ones digit, and
        /// digits pushed to exactly 2^52 by the carry from below.
        #[test]
        fn one_lane_carry_pass_is_the_serial_one() {
            if !crate::ifma::vl_available() {
                eprintln!("skipping: this CPU lacks avx512ifma + avx512vl");
                return;
            }
            let serial = |r: &Digits| -> Digits {
                let mut carry = 0u64;
                core::array::from_fn(|j| {
                    let v = r[j] + carry;
                    carry = v >> 52;
                    v & MASK52
                })
            };
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut cases: Vec<Digits> = (0..64)
                .map(|_| {
                    core::array::from_fn(|j| {
                        if j + 1 < DIGITS {
                            next() >> 4
                        } else {
                            next() >> 30
                        }
                    })
                })
                .collect();
            // 2^52 at digit 0 and all ones above: one carry through 18
            // digits into digit 19.
            let mut ripple = [MASK52; DIGITS];
            ripple[0] = 1 << 52;
            ripple[DIGITS - 1] = 0;
            cases.push(ripple);
            // All ones under carries of 1 and 2 from below, every digit
            // landing on 2^52 or 2^52 + 1 after the first pass.
            for below in [1u64, 2] {
                let mut edge = [MASK52 + (below << 52); DIGITS];
                edge[DIGITS - 1] = 0;
                cases.push(edge);
            }
            for r in &cases {
                let got = unsafe {
                    // SAFETY: `vl_available()` confirmed the features.
                    x1_digits(super::x1::normalize(&x1_vectors(r)))
                };
                assert_eq!(got, serial(r), "containers {r:x?}");
            }
        }

        /// The one-lane F4 is the lane kernels' digit for digit: on
        /// random bases, 0, 1 and `n - 1`, and on all-`2^52 - 1` digits
        /// (above `n`, outside the contract, but an edge of every
        /// container and of the carry pass).
        #[test]
        fn one_lane_f4_is_the_lane_kernels_digit_for_digit() {
            if !crate::ifma::vl_available() {
                eprintln!("skipping: this CPU lacks avx512ifma + avx512vl");
                return;
            }
            let one = BigUint::one();
            for (k, (n, ctx)) in moduli().iter().enumerate() {
                let ifma = ctx.ifma_ctx().expect("ifma");
                let mut bases: Vec<Digits> = [BigUint::zero(), one.clone(), n.sub(&one)]
                    .iter()
                    .chain(&[pseudo(40 + k as u64).rem(n), pseudo(50 + k as u64).rem(n)])
                    .map(|v| to_digits52(&v.limbs))
                    .collect();
                bases.push([MASK52; DIGITS]);
                for base in &bases {
                    let lane = (ifma, *base);
                    let (mut alone, mut four, mut eight) =
                        ([0; DIGITS], [[0; DIGITS]], [[0; DIGITS]]);
                    unsafe {
                        // SAFETY: `vl_available()` confirmed the features
                        // of all three bodies.
                        super::x1::modpow_f4(&lane, &mut alone);
                        super::w256::modpow_f4(&[lane], &mut four);
                        super::w512::modpow_f4(&[lane], &mut eight);
                    }
                    assert_eq!(alone, four[0], "key {k}, base {base:x?}");
                    assert_eq!(alone, eight[0], "key {k}, base {base:x?}");
                }
            }
        }

        /// The kernel-level laws, at one width.
        macro_rules! width_tests {
            ($width:ident, $have:expr, $what:literal) => {
                mod $width {
                    use super::super::$width::{
                        amm, gather, modpow_f4, scatter, sqr, vec_of, LANES,
                    };
                    use super::super::{from_digits52, to_digits52, DIGITS};
                    use super::{moduli, pseudo};
                    use crate::bigint::BigUint;

                    fn skip() -> bool {
                        if !$have {
                            eprintln!("skipping: this CPU lacks {}", $what);
                        }
                        !$have
                    }

                    #[test]
                    fn squaring_matches_amm_digit_for_digit() {
                        if skip() {
                            return;
                        }
                        let keys = moduli();
                        let ifma: Vec<_> = keys
                            .iter()
                            .map(|(_, c)| c.ifma_ctx().expect("ifma"))
                            .collect();
                        let m = gather(|l| &ifma[l].m);
                        let k0 = vec_of(core::array::from_fn(|l| ifma[l].k0));
                        let one = BigUint::one();
                        for round in 0..4u64 {
                            // Per lane: 0, 1, m - 1, the almost-reduced
                            // 2m - 1, then random values below 2m.
                            let operands: [[u64; DIGITS]; LANES] = core::array::from_fn(|l| {
                                let modulus = &keys[l].0;
                                let v = match (l + round as usize) % 8 {
                                    0 => BigUint::zero(),
                                    1 => one.clone(),
                                    2 => modulus.sub(&one),
                                    3 => modulus.shl(1).sub(&one),
                                    _ => pseudo(100 * round + l as u64).rem(&modulus.shl(1)),
                                };
                                to_digits52(&v.limbs)
                            });
                            let a = gather(|l| &operands[l]);
                            let (squared, multiplied) = unsafe {
                                // SAFETY: `skip()` confirmed the features
                                // both kernels are compiled for.
                                (sqr(&a, &m, k0), amm(&a, &a, &m, k0))
                            };
                            for l in 0..LANES {
                                assert_eq!(
                                    scatter(&squared, l),
                                    scatter(&multiplied, l),
                                    "round {round} lane {l}"
                                );
                            }
                        }
                    }

                    #[test]
                    fn ladder_matches_scalar_modpow_at_every_live_count() {
                        if skip() {
                            return;
                        }
                        let keys = moduli();
                        let f4 = BigUint::from_u64(65_537);
                        let bases: Vec<BigUint> = keys
                            .iter()
                            .enumerate()
                            .map(|(l, (m, _))| match l {
                                0 => BigUint::zero(),
                                1 => BigUint::one(),
                                2 => m.sub(&BigUint::one()),
                                _ => pseudo(7 + l as u64).rem(m),
                            })
                            .collect();
                        for live in 1..=LANES {
                            // Rotate so every key meets every lane and
                            // lane 0 (which dead lanes copy) varies.
                            let lanes: Vec<_> = (0..live)
                                .map(|l| (l + live) % keys.len())
                                .map(|k| {
                                    let ctx = keys[k].1.ifma_ctx().expect("ifma");
                                    (ctx, to_digits52(&bases[k].limbs))
                                })
                                .collect();
                            // Dead lanes never reach the results.
                            let mut got = vec![[0u64; DIGITS]; live];
                            unsafe {
                                // SAFETY: `skip()` confirmed the features.
                                modpow_f4(&lanes, &mut got)
                            };
                            for (l, g) in got.iter().enumerate() {
                                let k = (l + live) % keys.len();
                                assert_eq!(
                                    from_digits52(g),
                                    keys[k].1.modpow(&bases[k], &f4),
                                    "live {live} lane {l}"
                                );
                            }
                        }
                    }
                }
            };
        }

        width_tests!(w512, crate::ifma::available(), "avx512f + avx512ifma");
        width_tests!(w256, crate::ifma::vl_available(), "avx512ifma + avx512vl");

        /// The signing lanes: two 512-bit moduli, 10 digits, a product
        /// and a square per modulus on a 256-bit vector.
        mod pair256 {
            use super::super::pair256::{amm, gather, modpow_crt, scatter, vec_of, DIGITS, LANES};
            use super::super::{from_digits52, reduce_once, to_digits52, CRT_LANES};
            use super::pseudo;
            use crate::bigint::BigUint;
            use crate::montgomery::MontgomeryCtx;

            fn skip() -> bool {
                let have = crate::ifma::vl_available();
                if !have {
                    eprintln!("skipping: this CPU lacks avx512ifma + avx512vl");
                }
                !have
            }

            /// Two distinct odd moduli of exactly 512 bits, one per CRT
            /// half.
            fn moduli() -> [(BigUint, MontgomeryCtx); CRT_LANES] {
                core::array::from_fn(|h| {
                    let mut m = pseudo(40 + h as u64).shr(512);
                    m.limbs[0] |= 1;
                    assert_eq!(m.bit_len(), 512);
                    let ctx = MontgomeryCtx::new(&m);
                    (m, ctx)
                })
            }

            #[test]
            fn amm_matches_bigint_arithmetic_under_two_moduli() {
                if skip() {
                    return;
                }
                let keys = moduli();
                // Lanes 2h and 2h + 1 are under modulus h.
                let modulus = |l: usize| &keys[l / 2].0;
                let ifma = keys
                    .each_ref()
                    .map(|(_, c)| c.ifma_crt_ctx().expect("ifma"));
                let m = gather(|l| &ifma[l / 2].m);
                let k0 = vec_of(core::array::from_fn(|l| ifma[l / 2].k0));
                let one = BigUint::one();
                // R⁻¹ mod m per lane, R = 2^(52·DIGITS).
                let r_inv: [BigUint; LANES] = core::array::from_fn(|l| {
                    let r = one.shl(52 * DIGITS).rem(modulus(l));
                    r.modinv(modulus(l)).expect("odd modulus")
                });
                // 0, 1, m - 1, the almost-reduced 2m - 1, then random
                // values below 2m; the lanes walk the list out of step.
                let operand = |l: usize, i: usize| match i % 7 {
                    0 => BigUint::zero(),
                    1 => one.clone(),
                    2 => modulus(l).sub(&one),
                    3 => modulus(l).shl(1).sub(&one),
                    _ => pseudo(1000 * l as u64 + i as u64).rem(&modulus(l).shl(1)),
                };
                for i in 0..7 {
                    for j in 0..7 {
                        let a: [BigUint; LANES] = core::array::from_fn(|l| operand(l, i + l));
                        let b: [BigUint; LANES] = core::array::from_fn(|l| operand(l, j + 3 * l));
                        let a52 = a.each_ref().map(|v| to_digits52::<DIGITS>(&v.limbs));
                        let b52 = b.each_ref().map(|v| to_digits52::<DIGITS>(&v.limbs));
                        let product = unsafe {
                            // SAFETY: `skip()` confirmed the features the
                            // kernel is compiled for.
                            amm(&gather(|l| &a52[l]), &gather(|l| &b52[l]), &m, k0)
                        };
                        for l in 0..LANES {
                            let modulus = modulus(l);
                            let mut got = scatter(&product, l);
                            let almost = from_digits52(&got);
                            assert!(
                                almost.cmp_to(&modulus.shl(1)).is_lt(),
                                "({i}, {j}) lane {l}"
                            );
                            reduce_once(&mut got, &ifma[l / 2].m);
                            let want = a[l].mul(&b[l]).rem(modulus).mul_mod(&r_inv[l], modulus);
                            assert_eq!(from_digits52(&got), want, "({i}, {j}) lane {l}");
                        }
                    }
                }
            }

            #[test]
            fn ladder_matches_scalar_modpow_with_an_exponent_per_lane() {
                if skip() {
                    return;
                }
                let keys = moduli();
                let one = BigUint::one();
                // The ladder walks all 512 bits whatever the length, so
                // the edges are lengths: 0 (whose power is 1), 1, 2, the
                // top bit alone, every bit set, a 512-bit pattern under
                // a run of 380 leading zeros, and random 512-, 509- and
                // 17-bit values. Paired by rotation, the two halves never
                // share a length.
                let exponents = [
                    BigUint::zero(),
                    one.clone(),
                    BigUint::from_u64(2),
                    one.shl(511),
                    pseudo(70).shr(892),
                    one.shl(512).sub(&one),
                    pseudo(72).shr(515),
                    pseudo(71).shr(512),
                    BigUint::from_u64(0x1_2345),
                ];
                let lengths = exponents.each_ref().map(BigUint::bit_len);
                assert_eq!(lengths, [0, 1, 2, 512, 132, 512, 509, 512, 17]);
                // Both halves under one modulus too: the prime search runs
                // a candidate's later rounds that way.
                let pairs = [[0, 1], [0, 0]];
                for (e, _) in exponents.iter().enumerate() {
                    for b in 0..4 {
                        for halves in pairs {
                            let exps: [&BigUint; CRT_LANES] =
                                core::array::from_fn(|h| &exponents[(e + h) % exponents.len()]);
                            let modulus = |h: usize| &keys[halves[h]];
                            // 0, 1, m - 1, then a random base below m.
                            let bases: [BigUint; CRT_LANES] =
                                core::array::from_fn(|h| match (b + h) % 4 {
                                    0 => BigUint::zero(),
                                    1 => one.clone(),
                                    2 => modulus(h).0.sub(&one),
                                    _ => pseudo(90 + (4 * e + b) as u64).rem(&modulus(h).0),
                                });
                            let lanes = core::array::from_fn(|h| {
                                let ctx = modulus(h).1.ifma_crt_ctx().expect("ifma");
                                (ctx, &bases[h], exps[h])
                            });
                            let got = unsafe {
                                // SAFETY: `skip()` confirmed the features.
                                modpow_crt(&lanes)
                            };
                            for h in 0..CRT_LANES {
                                assert_eq!(
                                    got[h],
                                    modulus(h).1.modpow(&bases[h], exps[h]),
                                    "exponent {e} base {b} moduli {halves:?} half {h}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod stub {
    use super::{ExpLane, F4Lane, CRT_LANES, DIGITS};
    use crate::bigint::BigUint;

    /// IFMA is an x86-64 extension; never available elsewhere.
    pub fn available() -> bool {
        false
    }

    /// As [`available`].
    pub fn vl_available() -> bool {
        false
    }

    /// Uninhabited on non-x86-64 targets.
    pub enum IfmaCtx<const D: usize> {}

    impl<const D: usize> IfmaCtx<D> {
        /// Never yields a context here.
        pub fn new(_modulus: &BigUint, _n_prime64: u64) -> Option<Self> {
            None
        }

        /// Unreachable: no context exists.
        pub(crate) fn modulus_digits(&self) -> &[u64; D] {
            match *self {}
        }
    }

    /// No lane can exist, so there is nothing to compute.
    pub(crate) fn modpow_f4(lanes: &[F4Lane<'_>], _out: &mut [[u64; DIGITS]]) {
        for (ctx, _) in lanes {
            match **ctx {}
        }
    }

    /// As [`modpow_f4`].
    pub(crate) fn modpow_crt(lanes: &[ExpLane<'_>; CRT_LANES]) -> [BigUint; CRT_LANES] {
        match *lanes[0].0 {}
    }

    /// Uninhabited on non-x86-64 targets.
    pub enum CrtKey {}

    impl CrtKey {
        /// Never yields a key here.
        pub(crate) fn new(
            _primes: [&crate::montgomery::MontgomeryCtx; CRT_LANES],
            _exps: [&BigUint; CRT_LANES],
            _qinv: &BigUint,
        ) -> Option<Self> {
            None
        }
    }

    /// As [`modpow_f4`].
    pub(crate) fn private_op(key: &CrtKey, _c: &[u64; DIGITS]) -> [u64; DIGITS] {
        match *key {}
    }
}

#[cfg(test)]
mod digit_tests {
    use super::{digits_from_be, to_digits52, Digits, DIGITS};
    use crate::bigint::BigUint;

    /// The chunked read agrees with the integer the bytes spell, sliced
    /// by [`to_digits52`], at every legal length and at the extremes.
    #[test]
    fn digits_from_be_reads_the_big_endian_integer() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = [0u8; 128];
        for round in 0..64 {
            for b in bytes.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x.to_le_bytes()[0];
            }
            if round == 0 {
                bytes = [0xff; 128];
            }
            for len in (0..=128).step_by(8) {
                let be = &bytes[128 - len..];
                let want: Digits = to_digits52(&BigUint::from_bytes_be(be).limbs);
                assert_eq!(digits_from_be(be), want, "round {round} length {len}");
            }
        }
        assert_eq!(digits_from_be(&[]), [0; DIGITS]);
    }
}
