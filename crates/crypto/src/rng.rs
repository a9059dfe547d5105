//! Deterministic random byte source for key generation and nonces.
//!
//! The library never reads OS entropy itself; callers seed a generator
//! explicitly. This keeps every experiment in the reproduction fully
//! deterministic, mirroring the discrete-event simulator's design.
//! The construction is HMAC-DRBG-flavoured: a SHA-256 HMAC chain over a
//! counter.

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;

/// A source of (pseudo)random bytes.
///
/// Implemented by [`DeterministicRng`]; applications embedding this library
/// outside the simulator can implement it over an OS entropy source.
pub trait RngSource {
    /// Fills `buf` entirely with random bytes.
    fn fill(&mut self, buf: &mut [u8]);

    /// Convenience: a random u64.
    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// Uniform value in `[0, bound)` via rejection sampling; `bound > 0`.
    fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection zone keeps the distribution exactly uniform.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// HMAC-chain deterministic generator.
///
/// `Clone` snapshots the stream: a clone draws exactly the bytes the
/// original would have drawn next.
#[derive(Clone)]
pub struct DeterministicRng {
    /// HMAC keyed with the seed-derived key, cloned for every block.
    mac: HmacSha256,
    counter: u64,
    /// Unconsumed bytes from the last block.
    buffer: [u8; DIGEST_LEN],
    buffered: usize,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        Self::from_seed_bytes(&seed.to_be_bytes())
    }

    /// Creates a generator from arbitrary seed material.
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        let key = hmac_sha256(b"tlc-drbg-init", seed);
        DeterministicRng {
            mac: HmacSha256::new(&key),
            counter: 0,
            buffer: [0u8; DIGEST_LEN],
            buffered: 0,
        }
    }

    fn refill(&mut self) {
        let mut mac = self.mac.clone();
        mac.update(&self.counter.to_be_bytes());
        self.buffer = mac.finalize();
        self.counter += 1;
        self.buffered = DIGEST_LEN;
    }
}

impl RngSource for DeterministicRng {
    fn fill(&mut self, buf: &mut [u8]) {
        let mut written = 0;
        while written < buf.len() {
            if self.buffered == 0 {
                self.refill();
            }
            let take = self.buffered.min(buf.len() - written);
            let start = DIGEST_LEN - self.buffered;
            buf[written..written + take].copy_from_slice(&self.buffer[start..start + take]);
            self.buffered -= take;
            written += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DeterministicRng::from_seed(42);
        let mut b = DeterministicRng::from_seed(42);
        let mut ba = [0u8; 100];
        let mut bb = [0u8; 100];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DeterministicRng::from_seed(1);
        let mut b = DeterministicRng::from_seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_sizes_consistent() {
        // Drawing 10+22 bytes equals drawing 32 at once.
        let mut a = DeterministicRng::from_seed(7);
        let mut b = DeterministicRng::from_seed(7);
        let mut one = [0u8; 32];
        a.fill(&mut one);
        let mut p1 = [0u8; 10];
        let mut p2 = [0u8; 22];
        b.fill(&mut p1);
        b.fill(&mut p2);
        assert_eq!(&one[..10], &p1);
        assert_eq!(&one[10..], &p2);
    }

    #[test]
    fn blocks_are_the_hmac_chain_over_the_counter() {
        // The kept keyed state yields HMAC(key, counter) bytes.
        let key = hmac_sha256(b"tlc-drbg-init", &11u64.to_be_bytes());
        let mut r = DeterministicRng::from_seed(11);
        let mut blocks = [0u8; 2 * DIGEST_LEN];
        r.fill(&mut blocks);
        assert_eq!(blocks[..DIGEST_LEN], hmac_sha256(&key, &0u64.to_be_bytes()));
        assert_eq!(blocks[DIGEST_LEN..], hmac_sha256(&key, &1u64.to_be_bytes()));
    }

    #[test]
    fn a_clone_draws_what_the_original_draws_next() {
        let mut a = DeterministicRng::from_seed(13);
        a.next_u64();
        let mut b = a.clone();
        let (mut ba, mut bb) = ([0u8; 77], [0u8; 77]);
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn below_bound_is_in_range() {
        let mut r = DeterministicRng::from_seed(3);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..50 {
                assert!(r.next_u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_bound_hits_all_residues() {
        let mut r = DeterministicRng::from_seed(5);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.next_u64_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn zero_bound_panics() {
        DeterministicRng::from_seed(1).next_u64_below(0);
    }
}
