//! Montgomery-form modular arithmetic for odd moduli.
//!
//! RSA spends nearly all its time in modular exponentiation, and the modulus
//! is always odd, so Montgomery reduction (REDC) is the standard way to
//! avoid a full division per multiplication. The context precomputes
//! `n' = -n^{-1} mod 2^64` and `R^2 mod n` (with `R = 2^{64·k}` for a
//! `k`-limb modulus) once per modulus — and is designed to be built once
//! per *key* and reused across every exponentiation (see
//! [`crate::rsa::PublicKey::mont_ctx`]).
//!
//! Two dedicated compute kernels back [`MontgomeryCtx::modpow`]:
//!
//! * `mont_mul_to` — CIOS (coarsely integrated operand scanning)
//!   multiplication into caller-provided buffers, so the exponentiation
//!   loop performs no heap allocation per operation;
//! * `mont_sqr_to` — a squaring kernel that exploits the symmetry of the
//!   cross products (`a_i·a_j == a_j·a_i`), computing the full square
//!   with roughly half the limb multiplications and then reducing it in
//!   a separate SOS (separated operand scanning) pass.
//!
//! Both dispatch 8- and 16-limb moduli (RSA-1024's CRT primes and full
//! modulus) to const-generic kernels (`mont_mul_fixed::<K>`,
//! `mont_sqr_fixed::<K>`) whose loops LLVM fully unrolls; other widths
//! keep the generic slice path. The fixed multiplier is a finely
//! integrated (FIOS) product and reduction in one pass; the fixed
//! squarer computes only the upper cross-product triangle, doubles it
//! with one shift, adds the diagonal, then runs a two-row interleaved
//! REDC so two independent multiplies are in flight per iteration.
//! `squaring_kernel_matches_mul_kernel` and the `modpow_ctx_paths_agree`
//! proptest pin every path to the reference.
//!
//! [`MontgomeryCtx::modpow`] takes a plain left-to-right binary path for
//! short exponents (`e = 65537` skips the window table entirely) and
//! sliding windows over a table of odd powers otherwise (`w = 5` above
//! 160-bit exponents, 4 below). Squarings dominate that walk, so the
//! squaring kernel carries most of the scalar sign/verify path. This is
//! the scalar route: an RSA-1024 private-key operation on an AVX-512
//! IFMA + VL host takes the Montgomery ladder of [`crate::ifma`]
//! instead (see [`crate::rsa`]'s dispatch table).
//!
//! For verification workloads, [`MontgomeryCtx::modpow_batch`] takes
//! many bases at once: on an AVX-512 IFMA host the RSA-1024 verification
//! case (`e = 65537`) goes to the vector lanes of [`crate::ifma`], which
//! take a different modulus in every lane (`modpow_f4_lanes`); anywhere
//! else it is [`MontgomeryCtx::modpow`] per base.
//!
//! # Constant-time posture (ROADMAP audit)
//!
//! What still varies with secret data depends on the route a private-key
//! operation takes.
//!
//! **The scalar route** — every key on a host without AVX-512 IFMA + VL,
//! and every key that is not RSA-1024 anywhere — is **deliberately not
//! constant time**:
//!
//! * the final REDC step uses a *conditional* subtraction
//!   (`if t >= n { t -= n }`) whose branch depends on intermediate values;
//! * the short-exponent binary ladder and the sliding-window scan in
//!   [`MontgomeryCtx::modpow`] branch on exponent bits, and the window
//!   table is indexed by them;
//! * the carry-propagation tails in the separated-REDC squaring path run
//!   a data-dependent number of iterations;
//! * `PrivateKey::raw_decrypt`'s two `rem`s before the exponentiations
//!   and Garner's recombination after them are variable-time `BigUint`
//!   code.
//!
//! This is an explicit non-goal for this reproduction, not an oversight.
//! Private-key operations execute inside the charging parties' own
//! simulated endpoints — there is no co-resident adversary taking timing
//! measurements — and the hot path this crate optimises, third-party PoC
//! *verification*, touches only public inputs (public keys, signatures,
//! canonical message bytes), where data-dependent timing reveals nothing
//! secret. A deployment signing with real subscriber keys would need a
//! hardened ladder (fixed-window with masked table access, branchless
//! final subtraction, constant-trip carry loops) on this route.
//!
//! **The IFMA signing route** ([`crate::ifma`]; an RSA-1024 key on a CPU
//! with AVX-512 IFMA + VL) is one kernel call per signature, from the
//! EM's radix-2^52 digits to the signature's:
//!
//! * *Per signature, nothing in the source branches on or addresses by
//!   secret data.* The CRT split is fixed shifts and masks; a Montgomery
//!   ladder walks all 512 bits whatever `dp` and `dq` are, one AMM per
//!   bit for both halves, picking each step's operands from registers
//!   with masked blends whose masks are arithmetic on the bits — no
//!   table, no branch on a bit, no data-dependent branch inside a
//!   multiplication (carries stay in redundant containers); the exact
//!   reductions are mask-selects; Garner's difference and product are
//!   fixed loops of arithmetic; and `dp`, `dq` sit in fixed 512-bit
//!   arrays, so no signature copies an exponent over its limb count.
//!   (The source, not the silicon: a compiler could still emit a branch,
//!   which is why [`crate::ifma`]'s docs record the objdump of the row
//!   loops.)
//! * *What still varies.* Building the key's cached ladder constants
//!   (`ifma::CrtKey`, once per key: `BigUint` `rem`s over `p`, `q` and
//!   `qinv`), and, in debug builds only, the fault check below. The
//!   prime search's pairs ([`modpow_pair`]) copy each `BigUint`
//!   exponent over its limb count and leave the ladder as `BigUint`s.
//! * *Secrets in memory.* The ladder's state (`c^k mod p`, `c^(k+1)`
//!   and the same for `q`) lives on the stack for the duration of the
//!   call and is not scrubbed afterwards, exactly as the scalar path's
//!   heap-allocated table is not. The key's cached `CrtKey` (`p`, `q`,
//!   `dp`, `dq`, `qinv·R mod p` in radix 2^52) is scrubbed when the last
//!   clone of the key drops; the lane constants cached in a
//!   [`MontgomeryCtx`] (its modulus in radix 2^52 — `p` or `q` for a
//!   prime's context) are not. Neither implements `Debug`.
//! * *Fault check.* The private-key operation re-encrypts its result
//!   under the public key and compares with the input (the
//!   Bellcore/Lenstra CRT-fault check) under `debug_assert!` only — every
//!   test-profile signature is cross-checked against the public-key
//!   path, release builds pay nothing. A deployment would make it
//!   unconditional: one F4 check, ~4 µs on the one-lane kernel.
//!
//! [`modpow_pair`] is the router for pairs of exponentiations under two
//! 512-bit moduli: one pass of the IFMA signing ladder on a CPU with
//! AVX-512 IFMA + VL, two scalar `modpow`s anywhere else
//! (`pair_rides_ladder` is its rule). [`crate::prime::generate_prime`]
//! sends its Miller–Rabin witnesses through it, two at a time.
//! It is one of the signing ladder's two entries, each with one caller
//! ([`crate::ifma`] names both); CI's lint job pins that.

use crate::bigint::BigUint;
use crate::ifma::{from_digits52, to_digits52, Digits, F4Lane, DIGITS, IFMA_LANES};
use std::cmp::Ordering;

/// Exponents at or below this bit length use left-to-right binary
/// exponentiation instead of the 4-bit window: building the 16-entry
/// window table costs 14 multiplications, which dwarfs the work for a
/// short exponent such as the RSA public exponent `e = 65537`
/// (16 squarings + 1 multiplication on the binary path).
const SMALL_EXP_BITS: usize = 32;

/// Largest limb count served by the unrolled fixed-width kernels
/// (16 limbs = the 1024-bit RSA modulus).
const MAX_FIXED_LIMBS: usize = 16;

/// Precomputed state for Montgomery arithmetic modulo an odd `n`.
pub struct MontgomeryCtx {
    /// The (odd) modulus limbs, little-endian.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` in plain form, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// Lazily-built constants for the AVX-512 IFMA batch path (1024-bit
    /// moduli on capable CPUs only; `None` once probed elsewhere).
    ifma: std::sync::OnceLock<Option<crate::ifma::IfmaCtx1024>>,
    /// The same for the IFMA signing lanes (512-bit moduli — RSA-1024's
    /// CRT primes — on CPUs that run IFMA on 256-bit vectors).
    ifma_crt: std::sync::OnceLock<Option<crate::ifma::IfmaCtx512>>,
}

impl MontgomeryCtx {
    /// Builds a context; panics if the modulus is even or zero.
    pub fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_zero(), "Montgomery modulus must be nonzero");
        assert!(!modulus.is_even(), "Montgomery modulus must be odd");
        let n = modulus.limbs.clone();
        let k = n.len();

        // n' = -n^{-1} mod 2^64 by Newton iteration: each step doubles the
        // number of correct low bits of the inverse.
        let n0 = n[0];
        let mut inv = 1u64; // inverse mod 2
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();

        // R^2 mod n, with R = 2^(64k): shift-and-reduce 2^(128k).
        // Pad to k limbs: the kernels expect fixed-width operands.
        let mut r2 = BigUint::one().shl(128 * k).rem(modulus).limbs.clone();
        r2.resize(k, 0);

        MontgomeryCtx {
            n,
            n_prime,
            r2,
            ifma: std::sync::OnceLock::new(),
            ifma_crt: std::sync::OnceLock::new(),
        }
    }

    /// The radix-2^52 lane constants for this modulus, built on first
    /// use; `None` when the modulus is not 1024-bit or the CPU lacks
    /// AVX-512 IFMA.
    pub(crate) fn ifma_ctx(&self) -> Option<&crate::ifma::IfmaCtx1024> {
        self.ifma
            .get_or_init(|| {
                (self.k() == 16)
                    .then(|| crate::ifma::IfmaCtx1024::new(&self.modulus(), self.n_prime))
                    .flatten()
            })
            .as_ref()
    }

    /// The radix-2^52 constants of the signing lanes for this modulus,
    /// built on first use; `None` when the modulus is not exactly 8 limbs
    /// or the CPU lacks AVX-512 IFMA + VL.
    pub(crate) fn ifma_crt_ctx(&self) -> Option<&crate::ifma::IfmaCtx512> {
        self.ifma_crt
            .get_or_init(|| {
                (self.k() == 8)
                    .then(|| crate::ifma::IfmaCtx512::new(&self.modulus(), self.n_prime))
                    .flatten()
            })
            .as_ref()
    }

    /// Human-readable name of the kernel batched F4 exponentiations
    /// under this modulus run on, on this host (for benchmark reports).
    pub fn batch_kernel(&self) -> &'static str {
        match (self.ifma_ctx(), crate::ifma::vl_available()) {
            (Some(_), true) => "avx512-ifma-any-key-8x512+4x256",
            (Some(_), false) => "avx512-ifma-any-key-8x512",
            (None, _) => "scalar-per-base",
        }
    }

    /// Human-readable name of the kernel a lone F4 exponentiation under
    /// this modulus — one signature checked alone — runs on, on this host.
    pub fn lone_kernel(&self) -> &'static str {
        match (self.ifma_ctx(), crate::ifma::vl_available()) {
            (Some(_), true) => "avx512-ifma-one-lane-5x256",
            (Some(_), false) => "avx512-ifma-any-key-8x512",
            (None, _) => "scalar-per-base",
        }
    }

    fn k(&self) -> usize {
        self.n.len()
    }

    /// The modulus as a normalized `BigUint`.
    pub fn modulus(&self) -> BigUint {
        let mut m = BigUint {
            limbs: self.n.clone(),
        };
        normalize(&mut m);
        m
    }

    /// CIOS Montgomery multiplication into `out`: `out = a * b * R^-1 mod n`.
    ///
    /// `a`, `b`, `out` are `k`-limb little-endian slices (inputs reduced
    /// mod `n`); `t` is a `k + 2`-limb scratch buffer. `out` must not
    /// alias `a` or `b`.
    ///
    /// The RSA-relevant widths (8 limbs for a CRT prime of RSA-1024,
    /// 16 limbs for the full modulus) dispatch to fully-unrolled
    /// const-generic kernels; other widths take the generic loop.
    fn mont_mul_to(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        match self.k() {
            8 => self.mont_mul_fixed::<8>(a, b, out),
            16 => self.mont_mul_fixed::<16>(a, b, out),
            _ => self.mont_mul_generic(a, b, out, t),
        }
    }

    /// Fixed-width FIOS kernel: `K` is a compile-time constant so the limb
    /// loop unrolls and the running product stays in registers. The
    /// multiply-accumulate and REDC passes are finely interleaved — each
    /// inner step issues two independent limb multiplications, and the
    /// intermediate never grows past `K` limbs plus a carry (the running
    /// value stays below `2n` throughout).
    #[expect(clippy::expect_used, reason = "ctx fixes limb width at construction")]
    fn mont_mul_fixed<const K: usize>(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let a: &[u64; K] = a.try_into().expect("operand width");
        let b: &[u64; K] = b.try_into().expect("operand width");
        let n: &[u64; K] = self.n.as_slice().try_into().expect("modulus width");
        let mut t = [0u64; K];
        let mut t_hi = 0u64; // t[K], at most one bit
        for &ai in a {
            let ai = ai as u128;
            let cur = t[0] as u128 + ai * b[0] as u128;
            let mut c1 = cur >> 64;
            let m = (cur as u64).wrapping_mul(self.n_prime) as u128;
            // The low limb of t + ai*b + m*n is zero by construction.
            let mut c2 = (cur as u64 as u128 + m * n[0] as u128) >> 64;
            for j in 1..K {
                let cur = t[j] as u128 + ai * b[j] as u128 + c1;
                c1 = cur >> 64;
                let cur2 = cur as u64 as u128 + m * n[j] as u128 + c2;
                t[j - 1] = cur2 as u64;
                c2 = cur2 >> 64;
            }
            let cur = t_hi as u128 + c1 + c2;
            t[K - 1] = cur as u64;
            t_hi = (cur >> 64) as u64;
        }
        out.copy_from_slice(&t);
        if t_hi != 0 || cmp_limbs(out, &self.n) != Ordering::Less {
            sub_limbs_in_place(out, &self.n);
        }
    }

    /// Generic-width CIOS loop used for moduli outside the fixed kernels.
    fn mont_mul_generic(&self, a: &[u64], b: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.k();
        debug_assert!(a.len() == k && b.len() == k && out.len() == k && t.len() == k + 2);
        t.fill(0);
        for &ai in a {
            // t += ai * b
            let mut carry = 0u128;
            for j in 0..k {
                let cur = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k] = cur as u64;
            t[k + 1] = (cur >> 64) as u64;

            // m = t[0] * n' mod 2^64 ; t += m * n ; t >>= 64
            let m = t[0].wrapping_mul(self.n_prime);
            let cur = t[0] as u128 + m as u128 * self.n[0] as u128;
            let mut carry = cur >> 64;
            for j in 1..k {
                let cur = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k - 1] = cur as u64;
            t[k] = t[k + 1].wrapping_add((cur >> 64) as u64);
            t[k + 1] = 0;
        }
        // Conditional final subtraction to bring the result under n.
        out.copy_from_slice(&t[..k]);
        if t[k] != 0 || cmp_limbs(out, &self.n) != Ordering::Less {
            sub_limbs_in_place(out, &self.n);
        }
    }

    /// Montgomery squaring into `out`: `out = a^2 * R^-1 mod n`.
    ///
    /// Exploits cross-product symmetry: the off-diagonal products
    /// `a_i·a_j` (i < j) are computed once and doubled with a single
    /// 1-bit shift, then the diagonal squares are added — roughly half
    /// the limb multiplications of [`mont_mul_to`](Self). The full
    /// `2k`-limb square is then reduced with a separated REDC pass.
    ///
    /// `a` and `out` are `k`-limb slices; `t` is a `2k + 1`-limb scratch
    /// buffer. `out` must not alias `a`.
    ///
    /// Like [`mont_mul_to`](Self::mont_mul_to), the RSA widths dispatch to
    /// unrolled const-generic kernels.
    fn mont_sqr_to(&self, a: &[u64], out: &mut [u64], t: &mut [u64]) {
        match self.k() {
            8 => self.mont_sqr_fixed::<8>(a, out),
            16 => self.mont_sqr_fixed::<16>(a, out),
            _ => self.mont_sqr_generic(a, out, t),
        }
    }

    /// Fixed-width squaring kernel: same cross-product symmetry as the
    /// generic path, with compile-time loop bounds and a stack scratch
    /// buffer (sized for the largest fixed width).
    #[expect(clippy::expect_used, reason = "ctx fixes limb width at construction")]
    fn mont_sqr_fixed<const K: usize>(&self, a: &[u64], out: &mut [u64]) {
        const { assert!(K <= MAX_FIXED_LIMBS) };
        let a: &[u64; K] = a.try_into().expect("operand width");
        let n: &[u64; K] = self.n.as_slice().try_into().expect("modulus width");
        let mut t = [0u64; 2 * MAX_FIXED_LIMBS + 1];

        // Off-diagonal cross products a[i] * a[j] for i < j.
        for i in 0..K {
            let ai = a[i] as u128;
            let mut carry = 0u128;
            for j in (i + 1)..K {
                let cur = t[i + j] as u128 + ai * a[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            t[i + K] = carry as u64;
        }

        // Double the cross products (one whole-array 1-bit shift).
        let mut top = 0u64;
        for limb in t[..2 * K].iter_mut() {
            let new_top = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = new_top;
        }
        debug_assert_eq!(top, 0, "doubled cross products fit in 2K limbs");

        // Add the diagonal squares a[i]^2 at position 2i.
        let mut carry = 0u64;
        for i in 0..K {
            let sq = a[i] as u128 * a[i] as u128;
            let (lo, hi) = (sq as u64, (sq >> 64) as u64);
            let (s0, c0) = t[2 * i].overflowing_add(lo);
            let (s0, c0b) = s0.overflowing_add(carry);
            t[2 * i] = s0;
            let mid = c0 as u64 + c0b as u64;
            let (s1, c1) = t[2 * i + 1].overflowing_add(hi);
            let (s1, c1b) = s1.overflowing_add(mid);
            t[2 * i + 1] = s1;
            carry = c1 as u64 + c1b as u64;
        }
        debug_assert_eq!(carry, 0, "a^2 fits in 2K limbs");

        // Separated REDC of the full 2K-limb square, two rows per
        // iteration: row i+1's reduction factor only needs t[i+1] after
        // row i's j ≤ 1 terms have landed, so the bulk of both rows runs
        // in one loop with two independent multiplications per step.
        const { assert!(K.is_multiple_of(2)) };
        for i in (0..K).step_by(2) {
            let m0 = t[i].wrapping_mul(self.n_prime) as u128;
            let cur = t[i] as u128 + m0 * n[0] as u128;
            let mut c0 = cur >> 64;
            let cur = t[i + 1] as u128 + m0 * n[1] as u128 + c0;
            t[i + 1] = cur as u64;
            c0 = cur >> 64;
            let m1 = t[i + 1].wrapping_mul(self.n_prime) as u128;
            let cur = t[i + 1] as u128 + m1 * n[0] as u128;
            let mut c1 = cur >> 64;
            for j in 2..K {
                let cur = t[i + j] as u128 + m0 * n[j] as u128 + c0;
                c0 = cur >> 64;
                let cur2 = cur as u64 as u128 + m1 * n[j - 1] as u128 + c1;
                t[i + j] = cur2 as u64;
                c1 = cur2 >> 64;
            }
            // Both rows' final terms land at position i+K: row i's carry
            // c0 and row i+1's last product m1*n[K-1] plus carry c1.
            // Split the additions: product + limb + one carry tops out at
            // 2^128 - 1, but a fourth term could wrap the u128.
            let cur = t[i + K] as u128 + m1 * n[K - 1] as u128 + c0;
            let cur2 = cur as u64 as u128 + c1;
            t[i + K] = cur2 as u64;
            let mut carry = (cur >> 64) + (cur2 >> 64);
            let mut idx = i + K + 1;
            while carry != 0 {
                let cur = t[idx] as u128 + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        out.copy_from_slice(&t[K..2 * K]);
        if t[2 * K] != 0 || cmp_limbs(out, &self.n) != Ordering::Less {
            sub_limbs_in_place(out, &self.n);
        }
    }

    /// Generic-width squaring loop used for moduli outside the fixed
    /// kernels.
    fn mont_sqr_generic(&self, a: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.k();
        debug_assert!(a.len() == k && out.len() == k && t.len() == 2 * k + 1);
        t.fill(0);

        // Off-diagonal cross products a[i] * a[j] for i < j.
        for i in 0..k {
            let ai = a[i] as u128;
            let mut carry = 0u128;
            for j in (i + 1)..k {
                let cur = t[i + j] as u128 + ai * a[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Rows are processed in increasing i, so t[i + k] has not been
            // touched yet when row i's carry lands there.
            t[i + k] = carry as u64;
        }

        // Double the cross products (one whole-array 1-bit shift).
        let mut top = 0u64;
        for limb in t[..2 * k].iter_mut() {
            let new_top = *limb >> 63;
            *limb = (*limb << 1) | top;
            top = new_top;
        }
        debug_assert_eq!(top, 0, "doubled cross products fit in 2k limbs");

        // Add the diagonal squares a[i]^2 at position 2i.
        let mut carry = 0u64;
        for i in 0..k {
            let sq = a[i] as u128 * a[i] as u128;
            let (lo, hi) = (sq as u64, (sq >> 64) as u64);
            let (s0, c0) = t[2 * i].overflowing_add(lo);
            let (s0, c0b) = s0.overflowing_add(carry);
            t[2 * i] = s0;
            let mid = c0 as u64 + c0b as u64;
            let (s1, c1) = t[2 * i + 1].overflowing_add(hi);
            let (s1, c1b) = s1.overflowing_add(mid);
            t[2 * i + 1] = s1;
            carry = c1 as u64 + c1b as u64;
        }
        debug_assert_eq!(carry, 0, "a^2 fits in 2k limbs");

        // Separated REDC of the full 2k-limb square.
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n_prime);
            let mut carry = 0u128;
            for j in 0..k {
                let cur = t[i + j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = t[idx] as u128 + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        out.copy_from_slice(&t[k..2 * k]);
        if t[2 * k] != 0 || cmp_limbs(out, &self.n) != Ordering::Less {
            sub_limbs_in_place(out, &self.n);
        }
    }

    /// Converts a plain value (reduced mod n) to Montgomery form.
    fn to_mont(&self, v: &BigUint) -> Vec<u64> {
        let k = self.k();
        let mut limbs = v.limbs.clone();
        limbs.resize(k, 0);
        let mut out = vec![0u64; k];
        let mut t = vec![0u64; k + 2];
        self.mont_mul_to(&limbs, &self.r2, &mut out, &mut t);
        out
    }

    /// Converts out of Montgomery form into a normalized `BigUint`.
    fn to_plain(&self, v: &[u64]) -> BigUint {
        let k = self.k();
        let mut one = vec![0u64; k];
        one[0] = 1;
        let mut plain = vec![0u64; k];
        let mut t = vec![0u64; k + 2];
        self.mont_mul_to(v, &one, &mut plain, &mut t);
        let mut out = BigUint { limbs: plain };
        normalize(&mut out);
        out
    }

    /// Computes `base^exp mod n`.
    ///
    /// Short exponents (≤ `SMALL_EXP_BITS` bits, e.g. the RSA public
    /// exponent 65537) take a left-to-right binary path that skips the
    /// window table entirely; longer exponents use sliding-window
    /// exponentiation over a table of odd powers, with the squaring
    /// kernel on the window gaps.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let modulus = self.modulus();
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let k = self.k();
        // CRT callers pass already-reduced bases; skip the division then.
        let base = if base.cmp_to(&modulus) == Ordering::Less {
            base.clone()
        } else {
            base.rem(&modulus)
        };
        let base_m = self.to_mont(&base);
        let bits = exp.bit_len();

        let mut acc = vec![0u64; k];
        let mut tmp = vec![0u64; k];
        let mut mul_t = vec![0u64; k + 2];
        let mut sqr_t = vec![0u64; 2 * k + 1];

        if bits <= SMALL_EXP_BITS {
            // Left-to-right binary: bits-1 squarings plus one
            // multiplication per set bit below the top.
            acc.copy_from_slice(&base_m);
            for i in (0..bits - 1).rev() {
                self.mont_sqr_to(&acc, &mut tmp, &mut sqr_t);
                std::mem::swap(&mut acc, &mut tmp);
                if exp.bit(i) {
                    self.mont_mul_to(&acc, &base_m, &mut tmp, &mut mul_t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            return self.to_plain(&acc);
        }

        // Sliding windows of up to `w` bits: table holds only the odd
        // powers (a window always starts and ends on a set bit), so a
        // 5-bit window needs 16 entries and long exponents average one
        // multiplication per ~w+1 bits instead of one per 4.
        let w = if bits > 160 { 5 } else { 4 };
        let half = 1usize << (w - 1);

        // table[i] = base^(2i+1) in Montgomery form.
        let mut base2 = vec![0u64; k];
        self.mont_sqr_to(&base_m, &mut base2, &mut sqr_t);
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(half);
        table.push(base_m);
        for i in 1..half {
            let mut next = vec![0u64; k];
            self.mont_mul_to(&table[i - 1], &base2, &mut next, &mut mul_t);
            table.push(next);
        }

        let mut started = false;
        let mut i = bits as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                if started {
                    self.mont_sqr_to(&acc, &mut tmp, &mut sqr_t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                i -= 1;
                continue;
            }
            // Widest window [l, i] (≤ w bits) ending on a set bit, so the
            // digit is odd and indexes the half-size table.
            let mut l = (i - w as isize + 1).max(0);
            while !exp.bit(l as usize) {
                l += 1;
            }
            if started {
                for _ in 0..(i - l + 1) {
                    self.mont_sqr_to(&acc, &mut tmp, &mut sqr_t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            let mut digit = 0usize;
            for b in (l..=i).rev() {
                digit = (digit << 1) | exp.bit(b as usize) as usize;
            }
            if started {
                self.mont_mul_to(&acc, &table[digit >> 1], &mut tmp, &mut mul_t);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.copy_from_slice(&table[digit >> 1]);
                started = true;
            }
            i = l - 1;
        }
        debug_assert!(started, "nonzero exponent has a set top bit");
        self.to_plain(&acc)
    }

    /// Computes `base^exp mod n` for every element of `bases`, bit-for-bit
    /// identical to calling [`Self::modpow`] per element.
    ///
    /// The RSA-1024 verification case (`e = 65537` under a 1024-bit
    /// modulus) goes to the IFMA lanes of `modpow_f4_lanes` on capable
    /// CPUs; every other shape, and every other host, is the scalar path
    /// per base, so callers never need to special-case batch size or
    /// modulus width.
    pub fn modpow_batch(&self, bases: &[BigUint], exp: &BigUint) -> Vec<BigUint> {
        let ifma = match self.ifma_ctx() {
            Some(ifma) if exp.limbs == [F4] => ifma,
            _ => return bases.iter().map(|b| self.modpow(b, exp)).collect(),
        };
        let modulus = self.modulus();
        let lanes: Vec<F4Lane<'_>> = bases
            .iter()
            .map(|b| {
                let reduced = match b.cmp_to(&modulus) {
                    Ordering::Less => to_digits52(&b.limbs),
                    _ => to_digits52(&b.rem(&modulus).limbs),
                };
                (ifma, reduced)
            })
            .collect();
        let mut out = vec![[0; DIGITS]; lanes.len()];
        modpow_f4_lanes(&lanes, &mut out);
        out.iter().map(from_digits52).collect()
    }
}

/// The RSA public exponent the IFMA lanes are specialized for.
pub(crate) const F4: u64 = 65_537;

/// Computes `base^65537 mod n` per lane, every lane under its own
/// modulus, and writes the exact results to `out` in radix-2^52 digits:
/// bit-for-bit [`MontgomeryCtx::modpow`] per lane. Each base must be
/// below its modulus.
///
/// Lanes fill kernel calls in the order given, [`IFMA_LANES`] to a call;
/// the last call takes whatever is left. `ifma::modpow_f4` picks each
/// call's kernel by its live count: one lane is the one-lane kernel (its
/// digits across five 256-bit vectors), two to four the 256-bit lanes,
/// five to eight the 512-bit lanes ([`crate::pkcs1::verify_batch`]'s
/// dispatch table).
pub(crate) fn modpow_f4_lanes(lanes: &[F4Lane<'_>], out: &mut [Digits]) {
    debug_assert_eq!(lanes.len(), out.len());
    for (call, out) in lanes.chunks(IFMA_LANES).zip(out.chunks_mut(IFMA_LANES)) {
        crate::ifma::modpow_f4(call, out);
    }
}

/// Whether [`modpow_pair`] runs exponentiations under these two moduli
/// on the IFMA signing ladder: both 512-bit, on a CPU with AVX-512 IFMA
/// + VL.
pub(crate) fn pair_rides_ladder(a: &MontgomeryCtx, b: &MontgomeryCtx) -> bool {
    a.ifma_crt_ctx().is_some() && b.ifma_crt_ctx().is_some()
}

/// Computes `base^exp mod n` for two `(context, base, exp)` lanes, each
/// under its own modulus and exponent, bit-for-bit `modpow_with_ctx` per
/// lane: one pass of the IFMA signing ladder where [`pair_rides_ladder`]
/// says so, two scalar exponentiations otherwise. The route to that
/// ladder for `BigUint` operands, which the prime search's witnesses
/// take (a signature enters it on digits, from `PrivateKey`). Each base
/// is below its modulus, each exponent at most 512 bits.
///
/// Public only so the crate's equivalence tests can reach it.
#[doc(hidden)]
pub fn modpow_pair(lanes: [(&MontgomeryCtx, &BigUint, &BigUint); 2]) -> [BigUint; 2] {
    for (ctx, base, exp) in lanes {
        debug_assert!(base.cmp_to(&ctx.modulus()).is_lt() && exp.bit_len() <= 512);
    }
    let [(p, a, a_exp), (q, b, b_exp)] = lanes;
    match (p.ifma_crt_ctx(), q.ifma_crt_ctx()) {
        (Some(p), Some(q)) => crate::ifma::modpow_crt(&[(p, a, a_exp), (q, b, b_exp)]),
        _ => lanes.map(|(ctx, base, exp)| base.modpow_with_ctx(exp, ctx)),
    }
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

fn normalize(v: &mut BigUint) {
    while v.limbs.last() == Some(&0) {
        v.limbs.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn matches_simple_modpow_small() {
        let m = big(1_000_000_007); // odd prime
        let ctx = MontgomeryCtx::new(&m);
        for (b, e) in [
            (2u128, 10u128),
            (3, 100),
            (999_999_999, 12345),
            (1, 0),
            (0, 5),
        ] {
            let got = ctx.modpow(&big(b), &big(e));
            // Reference: square-and-multiply with u128 arithmetic.
            let mut expect = 1u128;
            let mut base = b % 1_000_000_007;
            let mut exp = e;
            while exp > 0 {
                if exp & 1 == 1 {
                    expect = expect * base % 1_000_000_007;
                }
                base = base * base % 1_000_000_007;
                exp >>= 1;
            }
            assert_eq!(got, big(expect), "base={b} exp={e}");
        }
    }

    #[test]
    fn matches_multi_limb_fermat() {
        // p = 2^89 - 1 is a Mersenne prime spanning two limbs.
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        let ctx = MontgomeryCtx::new(&p);
        let a = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc]);
        let p_minus_1 = p.sub(&BigUint::one());
        assert_eq!(ctx.modpow(&a, &p_minus_1), BigUint::one());
    }

    #[test]
    fn exponent_zero_and_one() {
        let m = big(0xffff_ffff_ffff_fff1); // odd
        let ctx = MontgomeryCtx::new(&m);
        let a = big(0x1234_5678);
        assert_eq!(ctx.modpow(&a, &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.modpow(&a, &BigUint::one()), a);
    }

    #[test]
    fn long_exponents_cross_window_path() {
        // Exponents beyond SMALL_EXP_BITS exercise the window table;
        // compare against the even-modulus-capable schoolbook fallback by
        // checking Fermat on a two-limb prime with a long exponent.
        let p = BigUint::one().shl(89).sub(&BigUint::one());
        let ctx = MontgomeryCtx::new(&p);
        // a^(2(p-1)) = 1 as well; 2(p-1) is 90 bits -> window path.
        let e = p.sub(&BigUint::one()).shl(1);
        let a = big(0xdead_beef_cafe);
        assert_eq!(ctx.modpow(&a, &e), BigUint::one());
    }

    #[test]
    fn squaring_kernel_matches_mul_kernel() {
        // a^2 computed by the squaring kernel must equal a*a from the
        // general kernel for values exercising carries in every limb.
        let m = BigUint::from_bytes_be(&[0xff; 33]).sub(&BigUint::from_u64(18)); // odd, 5 limbs
        assert!(!m.is_even());
        let ctx = MontgomeryCtx::new(&m);
        let k = ctx.k();
        for seed in [0x01u8, 0x7f, 0xaa, 0xfe] {
            let a = BigUint::from_bytes_be(&[seed; 31]).rem(&m);
            let mut a_limbs = a.limbs.clone();
            a_limbs.resize(k, 0);
            let mut sq = vec![0u64; k];
            let mut sq_t = vec![0u64; 2 * k + 1];
            ctx.mont_sqr_to(&a_limbs, &mut sq, &mut sq_t);
            let mut mu = vec![0u64; k];
            let mut mu_t = vec![0u64; k + 2];
            ctx.mont_mul_to(&a_limbs, &a_limbs.clone(), &mut mu, &mut mu_t);
            assert_eq!(sq, mu, "seed {seed:#x}");
        }
    }

    #[test]
    #[should_panic]
    fn even_modulus_rejected() {
        MontgomeryCtx::new(&big(100));
    }

    #[test]
    fn large_base_reduced_first() {
        let m = big(101);
        let ctx = MontgomeryCtx::new(&m);
        // 1000 mod 101 = 91; 91^2 mod 101 = 8281 mod 101 = 100... compute: 101*81=8181, 8281-8181=100.
        assert_eq!(ctx.modpow(&big(1000), &big(2)), big(100));
    }

    /// Deterministic pseudo-random K-limb value below the modulus.
    fn pseudo_base(modulus: &BigUint, seed: u64) -> BigUint {
        let mut bytes = Vec::with_capacity(8 * modulus.limbs.len());
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for _ in 0..modulus.limbs.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bytes.extend_from_slice(&x.to_be_bytes());
        }
        BigUint::from_bytes_be(&bytes).rem(modulus)
    }

    /// A deterministic odd modulus of exactly `limbs` limbs.
    fn odd_modulus(limbs: usize) -> BigUint {
        let mut bytes = vec![0xabu8; 8 * limbs];
        bytes[0] = 0xf3; // top byte nonzero -> exact width
        let last = bytes.len() - 1;
        bytes[last] = 0xc7; // odd
        BigUint::from_bytes_be(&bytes)
    }

    #[test]
    fn batch_matches_scalar_at_fixed_widths() {
        let e = big(65_537);
        for limbs in [8usize, 16] {
            let m = odd_modulus(limbs);
            let ctx = MontgomeryCtx::new(&m);
            assert_eq!(ctx.k(), limbs);
            // Lengths covering, at 16 limbs on an IFMA host, every
            // dispatch of `modpow_f4_lanes`: one 256-bit call at 1-4,
            // one 512-bit call at 5-8, and a full call plus a one-lane
            // 256-bit call at 9.
            for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 9] {
                let bases: Vec<BigUint> = (0..len).map(|i| pseudo_base(&m, i as u64 + 1)).collect();
                let batch = ctx.modpow_batch(&bases, &e);
                let scalar: Vec<BigUint> = bases.iter().map(|b| ctx.modpow(b, &e)).collect();
                assert_eq!(batch, scalar, "limbs={limbs} len={len}");
            }
        }
    }

    #[test]
    fn batch_matches_scalar_for_unreduced_bases_and_edge_exponents() {
        let m = odd_modulus(8);
        let ctx = MontgomeryCtx::new(&m);
        // Bases at and above the modulus must be reduced identically.
        let bases = vec![
            m.clone(),
            m.add(&BigUint::one()),
            BigUint::zero(),
            BigUint::one(),
            pseudo_base(&m, 42),
        ];
        for e in [BigUint::zero(), BigUint::one(), big(2), big(65_537)] {
            let batch = ctx.modpow_batch(&bases, &e);
            let scalar: Vec<BigUint> = bases.iter().map(|b| ctx.modpow(b, &e)).collect();
            assert_eq!(batch, scalar, "exp={e:?}");
        }
    }

    #[test]
    fn batch_falls_back_off_fixed_widths_and_long_exponents() {
        // 5-limb modulus: no fixed kernel; long exponent: window path.
        let m = BigUint::from_bytes_be(&[0xff; 33]).sub(&BigUint::from_u64(18));
        let ctx = MontgomeryCtx::new(&m);
        let bases: Vec<BigUint> = (0..5).map(|i| pseudo_base(&m, i + 7)).collect();
        let long_e = BigUint::one().shl(77).add(&big(65_537));
        for e in [big(65_537), long_e] {
            let batch = ctx.modpow_batch(&bases, &e);
            let scalar: Vec<BigUint> = bases.iter().map(|b| ctx.modpow(b, &e)).collect();
            assert_eq!(batch, scalar);
        }
    }
}
