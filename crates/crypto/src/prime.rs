//! Probabilistic prime testing and prime generation for RSA key material.
//!
//! Miller–Rabin with random bases, preceded by trial division over a small
//! prime table. 30 rounds gives an error probability far below 2^-64 for
//! the 512-bit primes RSA-1024 needs.
//!
//! [`generate_prime`] is a sequential search — draw a candidate, test it,
//! draw the next — whose witness exponentiations ride
//! [`modpow_pair`] two to a pass where the pair runs on the IFMA signing
//! ladder (512-bit candidates on a CPU with AVX-512 IFMA + VL). A pass
//! carries round 1 of the next two trial-division survivors, then the
//! survivor's other rounds two at a time. The second exponentiation of a
//! pass is drawn ahead of its turn, from a stream cloned just before;
//! when the first one settles the candidate, the clone is put back. So
//! every draw the sequential search would not have made is undone: each
//! seed yields the same primes, and leaves the stream where the
//! sequential search leaves it. Elsewhere the search is the sequential
//! one, one exponentiation at a time.

use crate::bigint::BigUint;
use crate::montgomery::{modpow_pair, pair_rides_ladder, MontgomeryCtx};
use crate::rng::RngSource;

/// Small primes for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// The longest run of [`SMALL_PRIMES`] from `start` whose product fits a
/// `u64`: `(product, end)`.
const fn prime_run(start: usize) -> (u64, usize) {
    let (mut product, mut end) = (1u64, start);
    while end < SMALL_PRIMES.len() {
        match product.checked_mul(SMALL_PRIMES[end]) {
            Some(p) => (product, end) = (p, end + 1),
            None => break,
        }
    }
    (product, end)
}

/// [`SMALL_PRIMES`] cut into consecutive runs by [`prime_run`]: trial
/// division takes one `div_rem_u64` per run and divides the `u64`
/// remainder by the run's primes.
const PRIME_RUNS: [(u64, usize); 7] = {
    let mut runs = [(0, 0); 7];
    let mut i = 0;
    while i < runs.len() {
        runs[i] = prime_run(if i == 0 { 0 } else { runs[i - 1].1 });
        i += 1;
    }
    assert!(runs[runs.len() - 1].1 == SMALL_PRIMES.len());
    runs
};

/// Number of Miller–Rabin rounds used by [`is_probable_prime`].
pub const MILLER_RABIN_ROUNDS: usize = 30;

/// Tests `n` for primality: trial division then Miller–Rabin rounds with
/// random bases drawn from `rng`.
pub fn is_probable_prime(n: &BigUint, rng: &mut dyn RngSource) -> bool {
    match trial_division(n) {
        Some(verdict) => verdict,
        None => Candidate::new(n.clone()).miller_rabin(MILLER_RABIN_ROUNDS, rng),
    }
}

/// The table's verdict on `n`, or `None` when `n` is past the table and
/// no table prime divides it.
fn trial_division(n: &BigUint) -> Option<bool> {
    let largest = SMALL_PRIMES[SMALL_PRIMES.len() - 1];
    if n.bit_len() <= 64 && n.low_u64() <= largest {
        return Some(SMALL_PRIMES.contains(&n.low_u64()));
    }
    let mut start = 0;
    for (product, end) in PRIME_RUNS {
        let (_, r) = n.div_rem_u64(product);
        if SMALL_PRIMES[start..end].iter().any(|&p| r % p == 0) {
            return Some(false);
        }
        start = end;
    }
    None
}

/// An odd `n > 4` under Miller–Rabin: `n − 1 = 2^s · d` with `d` odd, and
/// the REDC context every witness exponentiation under `n` shares.
struct Candidate {
    n: BigUint,
    n_minus_1: BigUint,
    d: BigUint,
    s: usize,
    ctx: MontgomeryCtx,
}

impl Candidate {
    fn new(n: BigUint) -> Self {
        debug_assert!(!n.is_even());
        let n_minus_1 = n.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let ctx = MontgomeryCtx::new(&n);
        Candidate {
            n,
            n_minus_1,
            d,
            s,
            ctx,
        }
    }

    /// A witness base uniform in `[2, n − 2]` (FIPS 186-5 B.3.1). Base
    /// `n − 1` would pass every odd `n`, so it is never drawn.
    fn draw_base(&self, rng: &mut dyn RngSource) -> BigUint {
        random_below(&self.n.sub(&BigUint::from_u64(4)), rng).add(&BigUint::from_u64(2))
    }

    /// Whether `x = a^d mod n` lets `n` through the round of base `a`.
    fn passes(&self, mut x: BigUint) -> bool {
        if x.is_one() || x == self.n_minus_1 {
            return true;
        }
        for _ in 1..self.s {
            x = x.mul_mod(&x, &self.n);
            if x == self.n_minus_1 {
                return true;
            }
        }
        false // composite witness found
    }

    /// One round on the scalar kernel.
    fn round(&self, rng: &mut dyn RngSource) -> bool {
        let a = self.draw_base(rng);
        self.passes(a.modpow_with_ctx(&self.d, &self.ctx))
    }

    /// `rounds` rounds, one at a time, up to the first witness.
    fn miller_rabin(&self, rounds: usize, rng: &mut dyn RngSource) -> bool {
        (0..rounds).all(|_| self.round(rng))
    }

    /// [`Self::miller_rabin`] two rounds to a [`modpow_pair`]: the second
    /// base is drawn from a snapshot that is put back when the first
    /// round finds a witness.
    fn miller_rabin_paired<R: RngSource + Clone>(&self, rounds: usize, rng: &mut R) -> bool {
        for _ in 0..rounds / 2 {
            let first = self.draw_base(rng);
            let before_second = rng.clone();
            let second = self.draw_base(rng);
            let [x1, x2] =
                modpow_pair([(&self.ctx, &first, &self.d), (&self.ctx, &second, &self.d)]);
            if !self.passes(x1) {
                *rng = before_second;
                return false;
            }
            if !self.passes(x2) {
                return false;
            }
        }
        rounds.is_multiple_of(2) || self.round(rng)
    }
}

/// Uniform value in `[0, bound]` (inclusive) via rejection sampling on the
/// bit length.
fn random_below(bound: &BigUint, rng: &mut dyn RngSource) -> BigUint {
    let bits = bound.bit_len();
    if bits == 0 {
        return BigUint::zero();
    }
    let bytes = bits.div_ceil(8);
    let top_mask = if bits.is_multiple_of(8) {
        0xffu8
    } else {
        (1u8 << (bits % 8)) - 1
    };
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf);
        buf[0] &= top_mask;
        let v = BigUint::from_bytes_be(&buf);
        if v.cmp_to(bound) != std::cmp::Ordering::Greater {
            return v;
        }
    }
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to one (so the product of two such primes has
/// exactly `2·bits` bits, as RSA needs) and the bottom bit is forced odd.
///
/// The prime, and where `rng` is left, are those of the sequential search
/// (draw a candidate, [`is_probable_prime`], repeat); `rng` is cloned only
/// to undo draws made ahead of their turn (see the module doc).
pub fn generate_prime<R: RngSource + Clone>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 16, "prime size too small to be meaningful");
    loop {
        let first = Candidate::new(survivor(bits, rng));
        // Every candidate has `bits` bits, so the first tells whether
        // pairs ride the ladder.
        if !pair_rides_ladder(&first.ctx, &first.ctx) {
            if first.miller_rabin(MILLER_RABIN_ROUNDS, rng) {
                return first.n;
            }
            continue;
        }
        let first_base = first.draw_base(rng);
        let before_second = rng.clone();
        let second = Candidate::new(survivor(bits, rng));
        let second_base = second.draw_base(rng);
        let [x1, x2] = modpow_pair([
            (&first.ctx, &first_base, &first.d),
            (&second.ctx, &second_base, &second.d),
        ]);
        let survived = if first.passes(x1) {
            *rng = before_second;
            first
        } else if second.passes(x2) {
            second
        } else {
            continue;
        };
        if survived.miller_rabin_paired(MILLER_RABIN_ROUNDS - 1, rng) {
            return survived.n;
        }
    }
}

/// Draws candidates of exactly `bits` bits until one passes trial
/// division.
fn survivor(bits: usize, rng: &mut dyn RngSource) -> BigUint {
    let bytes = bits.div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf);
        let mut candidate = BigUint::from_bytes_be(&buf);
        // Trim to exactly `bits` bits, set the two top bits and the low bit.
        candidate = trim_bits(&candidate, bits);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        // `bits >= 16` puts every candidate past the table.
        if trial_division(&candidate).is_none() {
            return candidate;
        }
    }
}

fn trim_bits(v: &BigUint, bits: usize) -> BigUint {
    if v.bit_len() <= bits {
        return v.clone();
    }
    // Keep only the low `bits` bits.
    let mut out = BigUint::zero();
    for i in 0..bits {
        if v.bit(i) {
            out.set_bit(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    fn rng() -> DeterministicRng {
        DeterministicRng::from_seed(0xbeef)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 257, 65537] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 91, 561, 65536, 1_000_000] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut r),
                "Carmichael {c} must be rejected"
            );
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&p, &mut rng()));
    }

    #[test]
    fn known_large_composite_rejected() {
        // 2^128 - 1 factors as 3 * 5 * 17 * ...
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, &mut rng()));
    }

    #[test]
    fn trial_division_runs_cover_the_table_exactly() {
        let mut start = 0;
        for (product, end) in PRIME_RUNS {
            assert!(end > start);
            assert_eq!(product, SMALL_PRIMES[start..end].iter().product::<u64>());
            start = end;
        }
        assert_eq!(start, SMALL_PRIMES.len());
        // Every table prime and every product of two is decided by the
        // table, as a per-prime loop decides it.
        for &p in &SMALL_PRIMES {
            assert_eq!(trial_division(&BigUint::from_u64(p)), Some(true), "{p}");
            for &q in &SMALL_PRIMES {
                assert_eq!(trial_division(&BigUint::from_u64(p * q)), Some(false));
            }
        }
        // 283 is the first prime past the table; 283^2 has no table factor.
        assert_eq!(trial_division(&BigUint::from_u64(283)), None);
        assert_eq!(trial_division(&BigUint::from_u64(283 * 283)), None);
    }

    #[test]
    fn witnesses_stay_in_two_to_n_minus_two() {
        // n = 7: bases 2..=5. Base 6 = n - 1 passes every odd n, so a
        // round that drew it would check nothing.
        let seven = Candidate::new(BigUint::from_u64(7));
        let mut r = rng();
        let mut seen = [false; 7];
        for _ in 0..400 {
            let a = seven.draw_base(&mut r).low_u64() as usize;
            assert!((2..=5).contains(&a), "base {a} outside [2, 5]");
            seen[a] = true;
        }
        assert_eq!(seen, [false, false, true, true, true, true, false]);
    }

    #[test]
    fn paired_rounds_leave_the_stream_where_sequential_rounds_do() {
        // 512-bit semiprimes (a witness in the first pair, whose second
        // base must be undrawn) and a 512-bit prime (every pair, then the
        // odd round out), over an odd and an even number of rounds.
        let mut r = rng();
        let halves: Vec<BigUint> = (0..4).map(|_| generate_prime(256, &mut r)).collect();
        let prime = generate_prime(512, &mut r);
        let numbers = [halves[0].mul(&halves[1]), halves[2].mul(&halves[3]), prime];
        for (i, n) in numbers.into_iter().enumerate() {
            let c = Candidate::new(n);
            for rounds in [29, 4] {
                let mut paired = DeterministicRng::from_seed(i as u64);
                let mut sequential = paired.clone();
                assert_eq!(
                    c.miller_rabin_paired(rounds, &mut paired),
                    c.miller_rabin(rounds, &mut sequential),
                    "number {i}, {rounds} rounds"
                );
                assert_eq!(paired.next_u64(), sequential.next_u64(), "number {i}");
            }
        }
    }

    #[test]
    fn generated_prime_has_exact_bit_len() {
        let mut r = rng();
        for bits in [64usize, 128, 256, 512] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            // Top two bits are set, guaranteeing full product width.
            assert!(p.bit(bits - 1) && p.bit(bits - 2));
        }
    }

    #[test]
    fn generated_primes_differ() {
        let mut r = rng();
        let a = generate_prime(128, &mut r);
        let b = generate_prime(128, &mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = DeterministicRng::from_seed(77);
        let mut r2 = DeterministicRng::from_seed(77);
        assert_eq!(generate_prime(96, &mut r1), generate_prime(96, &mut r2));
    }
}
