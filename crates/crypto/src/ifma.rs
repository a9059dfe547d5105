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
//! vectors, one lane included (DESIGN §8.1). The exponent is fixed at
//! F4: into Montgomery form, sixteen dedicated squarings (cross products
//! computed once and doubled), and one AMM by the *plain* base, which
//! multiplies and leaves Montgomery form at once. Bases come in and
//! exact results go out as radix-2^52 digits (`Digits`), so a caller
//! that reads a signature's bytes straight into digits
//! (`digits_from_be`) and compares in digits holds no big integer.
//!
//! **Signing** (`mont_ladder!`, `modpow_crt`) takes an exponent per CRT
//! half as well, and walks it on a Montgomery ladder (Montgomery 1987;
//! Joye & Yen, CHES 2002): the pair `(R0, R1)` with `R1 = R0·c`, and per
//! exponent bit `b` the product `R0·R1` and the square `R_b²`, which are
//! independent. Lanes `[p·mul, p·sqr, q·mul, q·sqr]` make both halves'
//! product and square in one 256-bit AMM, so a signature is one entry
//! call, 512 steps and one exit call: 514 AMMs in sequence. Each step
//! swaps each half's two lanes (`vpshufd`) and picks its operands with
//! masked blends, the masks being arithmetic on the two exponent bits.
//! No table, and the plain AMM for the square — both measured choices
//! (DESIGN §8.2).
//!
//! *Posture.* The sequence of AMMs, the loads and the branches of the
//! ladder are the same for every exponent: no branch and no address
//! follows a bit. Still variable-time around it: copying the exponent
//! into the ladder's fixed 512 bits (its limb count), the final
//! `reduce_once` (a compare-and-subtract on the result), and, in
//! `rsa::raw_decrypt`, the two `rem`s before the ladder and Garner's
//! recombination after it (`montgomery.rs`, "Constant-time posture").
//!
//! Values travel a chain in the almost-reduced range `[0, 2M)` (valid
//! because `R > 4M`: `2^1040` for a 1024-bit `M`, `2^520` for a 512-bit
//! one); only the last step fully reduces, so results are bit-for-bit
//! the canonical powers the scalar kernels produce.
//!
//! Everything here is runtime-gated: an [`IfmaCtx`] exists only on a CPU
//! with the features its kernel is compiled for, `crate::montgomery`
//! routes to `modpow_f4` only lanes that hold one, and to the signing
//! ladder only through `montgomery::modpow_pair`, when both moduli do.
//! That router is the ladder's one caller, for two users: the CRT halves
//! of `PrivateKey::raw_decrypt`, and the Miller–Rabin witnesses of
//! `prime::generate_prime`, two to a pass. On other architectures this
//! module compiles to a stub that never yields a context.

#[cfg(target_arch = "x86_64")]
pub use imp::{available, vl_available, IfmaCtx};
#[cfg(target_arch = "x86_64")]
pub(crate) use imp::{modpow_crt, modpow_f4};

#[cfg(not(target_arch = "x86_64"))]
pub use stub::{available, vl_available, IfmaCtx};
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use stub::{modpow_crt, modpow_f4};

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
pub(crate) const fn digits_from_be(bytes: &[u8]) -> Digits {
    let n = bytes.len();
    assert!(n <= 128 && n.is_multiple_of(8));
    let mut limbs = [0u64; 16];
    let mut i = 0;
    while 8 * i < n {
        // Limb i is the eight bytes ending 8i bytes from the end.
        let b = n - 8 * (i + 1);
        limbs[i] = u64::from_be_bytes([
            bytes[b],
            bytes[b + 1],
            bytes[b + 2],
            bytes[b + 3],
            bytes[b + 4],
            bytes[b + 5],
            bytes[b + 6],
            bytes[b + 7],
        ]);
        i += 1;
    }
    to_digits52(&limbs)
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
    use super::{
        from_digits52, to_digits52, ExpLane, F4Lane, CRT_LANES, DIGITS, HALF_DIGITS, IFMA_LANES,
        MASK52, NARROW_LANES,
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
    /// reduction of an almost-reduced (`< 2m`) value.
    fn reduce_once<const D: usize>(v: &mut [u64; D], m: &[u64; D]) {
        if v.iter().rev().lt(m.iter().rev()) {
            return;
        }
        let mut borrow = 0u64;
        for (d, md) in v.iter_mut().zip(m) {
            let diff = d.wrapping_sub(*md).wrapping_sub(borrow);
            borrow = diff >> 63;
            *d = diff & MASK52;
        }
        debug_assert_eq!(borrow, 0);
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
    /// results to `out` in lane order: on 256-bit vectors for up to
    /// [`NARROW_LANES`] lanes where the CPU has `avx512vl`, on 512-bit
    /// vectors otherwise. Lanes past the live count compute on a copy of
    /// lane 0 and are dropped.
    pub(crate) fn modpow_f4(lanes: &[F4Lane<'_>], out: &mut [[u64; DIGITS]]) {
        debug_assert!((1..=IFMA_LANES).contains(&lanes.len()) && out.len() == lanes.len());
        if lanes.len() <= NARROW_LANES && vl_available() {
            // SAFETY: `vl_available()` just confirmed AVX-512F + IFMA +
            // VL, the features the 256-bit body is compiled for.
            unsafe { w256::modpow_f4(lanes, out) }
        } else {
            // SAFETY: every lane holds an `IfmaCtx1024`, which only
            // exists after `available()` confirmed AVX-512F + IFMA.
            unsafe { w512::modpow_f4(lanes, out) }
        }
    }

    /// Computes `base^exp mod m` for both lanes in one kernel call, each
    /// lane under its own 512-bit modulus and its own exponent — the two
    /// CRT halves of an RSA-1024 private-key operation. Results are
    /// bit-for-bit `MontgomeryCtx::modpow`'s.
    pub(crate) fn modpow_crt(lanes: &[ExpLane<'_>; CRT_LANES]) -> [BigUint; CRT_LANES] {
        // SAFETY: every lane holds an `IfmaCtx512`, which only exists
        // after `vl_available()` confirmed AVX-512F + IFMA + VL, the
        // features the 256-bit body is compiled for.
        unsafe { pair256::modpow_crt(lanes) }
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

                /// One Montgomery reduction round on the sliding window
                /// `r`: adds the multiple of `m` that zeroes digit 0
                /// (mod 2^52), divides by 2^52, and shifts `incoming` in
                /// as the new top container. The shift is folded into
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

                /// Renormalizes the redundant containers of an
                /// almost-reduced value to 52-bit digits.
                #[inline]
                #[target_feature(enable = $features)]
                fn normalize(r: &[V; DIGITS + 1]) -> Digits {
                    let mask = $set1(MASK52 as i64);
                    let mut out = [$setzero(); DIGITS];
                    let mut carry = $setzero();
                    for (j, slot) in out.iter_mut().enumerate() {
                        let v = $add(r[j], carry);
                        *slot = $and(v, mask);
                        carry = $srli::<52>(v);
                    }
                    // The value is < 2m < 2^(52·DIGITS), so nothing
                    // carries out of the top digit.
                    debug_assert_eq!(lanes_of(carry), [0u64; LANES]);
                    out
                }

                /// One almost-Montgomery multiplication over all lanes:
                /// `AMM(a, b) = a·b·2^(-52·DIGITS) mod m`, result in
                /// `[0, 2m)` with normalized 52-bit digits. Inputs must
                /// have 52-bit digits and value `< 2m`.
                ///
                /// Accumulators are redundant 64-bit containers: each of
                /// the `DIGITS` rounds adds at most four sub-2^52 terms
                /// per container before the one-digit shift, so
                /// containers peak well below 2^63 and no carry
                /// propagates inside the hot loop.
                #[target_feature(enable = $features)]
                pub(super) fn amm(a: &Digits, b: &Digits, m: &Digits, k0: V) -> Digits {
                    let zero = $setzero();
                    let mut r = [zero; DIGITS + 1];
                    for &bi in b {
                        for j in 0..DIGITS {
                            r[j] = $madd_lo(r[j], a[j], bi);
                            r[j + 1] = $madd_hi(r[j + 1], a[j], bi);
                        }
                        r = reduce_round(&r, m, k0, zero);
                    }
                    normalize(&r)
                }

                $ladder!($features, $setzero, $add, $madd_lo, $madd_hi);
            }
        };
    }

    /// The verification ladder on top of a 20-digit kernel body: a
    /// dedicated squaring and `base^65537`.
    macro_rules! f4_ladder {
        ($features:literal, $setzero:ident, $add:ident, $madd_lo:ident, $madd_hi:ident) => {
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
        ($features:literal, $setzero:ident, $add:ident, $madd_lo:ident, $madd_hi:ident) => {
            use super::{from_digits52, to_digits52};
            use crate::bigint::BigUint;
            use core::arch::x86_64::{_mm256_mask_blend_epi64, _mm256_shuffle_epi32};

            /// Exponent bits walked per call, top first: enough for any
            /// exponent below a 512-bit modulus, whatever its length.
            const BITS: usize = 512;

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
            fn odd_lanes(exps: &[[u64; BITS / 64]; 2], i: usize) -> u8 {
                let bit = |e: &[u64; BITS / 64]| ((e[i / 64] >> (i % 64)) & 1) as u8;
                (bit(&exps[0]) << 1) | (bit(&exps[1]) << 3)
            }

            /// `base^exp mod m` per CRT half; see [`super::modpow_crt`].
            /// Every call runs the same 514 `amm`s and the same loads,
            /// whatever the exponents are: the masks are arithmetic on
            /// the bits, and no branch or address follows them.
            #[target_feature(enable = $features)]
            pub(super) fn modpow_crt(
                lanes: &[super::ExpLane<'_>; super::CRT_LANES],
            ) -> [BigUint; super::CRT_LANES] {
                debug_assert!(lanes.iter().all(|(_, _, exp)| exp.bit_len() <= BITS));
                let half = |l: usize| &lanes[l / 2];
                let bases = lanes
                    .each_ref()
                    .map(|(_, base, _)| to_digits52(&base.limbs));
                let exps: [[u64; BITS / 64]; 2] = lanes.each_ref().map(|(_, _, exp)| {
                    core::array::from_fn(|i| exp.limbs.get(i).copied().unwrap_or(0))
                });
                let a = gather(|l| &bases[l / 2]);
                let m = gather(|l| &half(l).0.m);
                let r2 = gather(|l| &half(l).0.r2);
                let k0 = vec_of(core::array::from_fn(|l| half(l).0.k0));
                let mut one = [$setzero(); DIGITS];
                one[0] = vec_of([1; LANES]);

                // Into Montgomery form in one call: R0 = 1·R = AMM(R², 1)
                // and R1 = c·R = AMM(c, R²). The state holds
                // (R_{1-b}, R_b) for the bit b last walked: (R0, R1)
                // as if it were a 1.
                const EVEN: u8 = 0b0101;
                const ODD: u8 = 0b1010;
                let mut state = amm(&blend(ODD, &r2, &a), &blend(ODD, &one, &r2), &m, k0);
                let mut last = ODD;
                for i in (0..BITS).rev() {
                    // Bit b: R_{1-b} = R0·R1 in the even lane (the state's
                    // two lanes, in either order), R_b = R_b² in the odd
                    // one — the odd lane of the state when b repeats the
                    // last bit, the even lane when it flips.
                    let bits = odd_lanes(&exps, i);
                    let flip = bits ^ last;
                    let swapped = swap(&state);
                    let x = blend(flip, &state, &swapped);
                    let y = blend(flip | EVEN, &state, &swapped);
                    state = amm(&x, &y, &m, k0);
                    last = bits;
                }
                // R0 is the odd lane after a final 0 bit and the even one
                // after a 1: move it to the even lane, leave Montgomery
                // form, then the one exact reduction.
                let r0 = blend((!last & ODD) >> 1, &state, &swap(&state));
                let plain = amm(&r0, &one, &m, k0);
                core::array::from_fn(|h| {
                    let mut digits = scatter(&plain, 2 * h);
                    reduce_once(&mut digits, &lanes[h].0.m);
                    from_digits52(&digits)
                })
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

    #[cfg(test)]
    mod tests {
        use super::*;
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
}
