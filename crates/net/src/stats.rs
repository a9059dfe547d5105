//! Traffic counters and time-bucketed usage series.
//!
//! Every vantage point in the charging pipeline (device app, modem,
//! gateway, server monitor) owns a [`ByteCounter`]; the per-second series
//! the paper records ("we record the data usage ... every 1s") is a
//! [`UsageSeries`].

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::time::{SimDuration, SimTime};

/// A monotone packet/byte counter.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ByteCounter {
    /// Total packets observed.
    pub packets: u64,
    /// Total bytes observed.
    pub bytes: u64,
}

impl ByteCounter {
    /// Fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one packet of `size` bytes. Saturating: a wrapped
    /// vantage counter would fabricate a charging gap out of thin air.
    pub fn record(&mut self, size: u32) {
        self.packets = self.packets.saturating_add(1);
        self.bytes = self.bytes.saturating_add(size as u64);
    }

    /// Difference vs. an earlier snapshot (saturating).
    pub fn since(&self, earlier: &ByteCounter) -> ByteCounter {
        ByteCounter {
            packets: self.packets.saturating_sub(earlier.packets),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Per-bucket byte usage over time (the 1 Hz usage log of the paper).
#[derive(Clone, Debug)]
pub struct UsageSeries {
    bucket: SimDuration,
    /// bytes[i] covers [i*bucket, (i+1)*bucket).
    buckets: Vec<u64>,
}

impl UsageSeries {
    /// Creates a series with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket > SimDuration::ZERO);
        UsageSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Adds `bytes` at instant `t`.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "divides by the bucket width, which `new` asserts is non-zero"
    )]
    pub fn record(&mut self, t: SimTime, bytes: u64) {
        let idx = usize::try_from(t.as_micros() / self.bucket.as_micros()).unwrap_or(usize::MAX);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx.saturating_add(1), 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(bytes);
    }

    /// Total bytes across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Number of buckets recorded so far.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Average throughput in Mbps over the first `n` buckets.
    pub fn mean_rate_mbps(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self.buckets.iter().take(n).sum();
        let secs = self.bucket.as_secs_f64() * n as f64;
        total as f64 * 8.0 / 1e6 / secs
    }

    /// Cumulative bytes recorded before instant `t`, pro-rating the bucket
    /// containing `t`. This is how a reader with a skewed clock sees a
    /// counter "at cycle end".
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "the bucket width is non-zero (asserted in `new`), a u64 × u64 product fits u128, and `frac_us < bw` keeps the pro-rated share below its bucket's u64"
    )]
    pub fn cumulative_until(&self, t: SimTime) -> u64 {
        let bw = self.bucket.as_micros();
        let idx = usize::try_from(t.as_micros() / bw).unwrap_or(usize::MAX);
        let whole: u64 = self.buckets.iter().take(idx.min(self.buckets.len())).sum();
        let frac_us = t.as_micros() % bw;
        let partial = if idx < self.buckets.len() && frac_us > 0 {
            (self.buckets[idx] as u128 * frac_us as u128 / bw as u128) as u64
        } else {
            0
        };
        whole.saturating_add(partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_records_and_diffs() {
        let mut c = ByteCounter::new();
        c.record(100);
        c.record(250);
        assert_eq!(c.packets, 2);
        assert_eq!(c.bytes, 350);
        let snap = c;
        c.record(50);
        let d = c.since(&snap);
        assert_eq!(d.packets, 1);
        assert_eq!(d.bytes, 50);
    }

    #[test]
    fn diff_saturates() {
        let a = ByteCounter {
            packets: 1,
            bytes: 10,
        };
        let b = ByteCounter {
            packets: 5,
            bytes: 100,
        };
        let d = a.since(&b);
        assert_eq!(d.packets, 0);
        assert_eq!(d.bytes, 0);
    }

    #[test]
    fn series_buckets_by_time() {
        let mut s = UsageSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_millis(100), 500);
        s.record(SimTime::from_millis(900), 500);
        s.record(SimTime::from_millis(1000), 250); // next bucket
                                                   // Whole buckets: 1000 B in the first second, 250 in the next,
                                                   // nothing after.
        assert_eq!(s.cumulative_until(SimTime::from_secs(1)), 1000);
        assert_eq!(s.cumulative_until(SimTime::from_secs(2)), 1250);
        assert_eq!(s.cumulative_until(SimTime::from_secs(3)), 1250);
        assert_eq!(s.total(), 1250);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mean_rate_computation() {
        let mut s = UsageSeries::new(SimDuration::from_secs(1));
        // 1 MB over 8 seconds = 1 Mbps.
        for i in 0..8 {
            s.record(SimTime::from_secs(i), 125_000);
        }
        assert!((s.mean_rate_mbps(8) - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_rate_mbps(0), 0.0);
    }

    #[test]
    fn cumulative_until_counts_whole_and_partial_buckets() {
        let mut s = UsageSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_millis(500), 1000); // bucket 0
        s.record(SimTime::from_millis(1500), 2000); // bucket 1
        assert_eq!(s.cumulative_until(SimTime::ZERO), 0);
        assert_eq!(s.cumulative_until(SimTime::from_secs(1)), 1000);
        // Halfway through bucket 1 pro-rates its 2000 bytes.
        assert_eq!(s.cumulative_until(SimTime::from_millis(1500)), 2000);
        assert_eq!(s.cumulative_until(SimTime::from_secs(10)), 3000);
    }

    #[test]
    fn empty_series() {
        let s = UsageSeries::new(SimDuration::from_secs(1));
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.cumulative_until(SimTime::from_secs(10)), 0);
    }
}
