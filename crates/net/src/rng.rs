//! Deterministic simulation RNG (xoshiro256++).
//!
//! The simulator must replay identically for a given seed — every stochastic
//! component (loss models, workload jitter, RSS walks) draws from one of
//! these, split from a master seed, so experiments are exactly reproducible
//! and independent components do not perturb each other's streams.

use std::fmt;

/// A xoshiro256++ pseudo-random generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds the generator; the seed is expanded with splitmix64 so even
    /// small seeds give well-mixed initial state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        SimRng { s }
    }

    /// Derives an independent stream for a named component.
    ///
    /// Streams for different labels are decorrelated even under the same
    /// master seed, so adding a component never shifts another's draws.
    pub fn split(&self, label: &str) -> SimRng {
        self.split_fmt(format_args!("{label}"))
    }

    /// [`SimRng::split`] for a label that is formatted, hashing the
    /// bytes as they are written: the same stream as `split(&format!(..))`
    /// without the `String` (the twin splits one stream per session).
    pub fn split_fmt(&self, label: fmt::Arguments<'_>) -> SimRng {
        struct Fnv1a(u64);
        impl fmt::Write for Fnv1a {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                for b in s.bytes() {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x100000001b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv1a(0xcbf29ce484222325);
        // The adapter never errs, and a `Display` that does has
        // nothing further to write: hash what arrived.
        let _ = fmt::Write::write_fmt(&mut h, label);
        SimRng::new(self.s[0] ^ h.0.rotate_left(17))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, bound)`; `bound > 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.next_f64() < p
    }

    /// Exponential variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// Normal variate via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0);
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Picks an index in `[0, len)`, for slice sampling.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_fmt_hashes_the_bytes_split_would() {
        let master = SimRng::new(42);
        let mut formatted = master.split_fmt(format_args!("a{}/b{}", 3, 41));
        let mut plain = master.split("a3/b41");
        for _ in 0..8 {
            assert_eq!(formatted.next_u64(), plain.next_u64());
        }
    }

    #[test]
    fn split_streams_are_decorrelated_and_stable() {
        let master = SimRng::new(42);
        let mut loss1 = master.split("loss");
        let mut loss2 = master.split("loss");
        let mut radio = master.split("radio");
        let a = loss1.next_u64();
        assert_eq!(a, loss2.next_u64(), "same label, same stream");
        assert_ne!(a, radio.next_u64(), "different labels diverge");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut r = SimRng::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = SimRng::new(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::new(17);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..=20).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn index_covers_all_slots() {
        let mut r = SimRng::new(19);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
