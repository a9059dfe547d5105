//! Counting vantage points along the charging pipeline.
//!
//! The charging gap is, by definition, a disagreement between byte counters
//! placed at different points of the same datapath. A [`CountingPoint`]
//! couples a cumulative counter with a time series, so any vantage can be
//! read both "in total" and "as of instant t" (needed for clock-skew
//! effects).

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use tlc_net::stats::{ByteCounter, UsageSeries};
use tlc_net::time::{SimDuration, SimTime};

/// A counter plus its history at one vantage.
#[derive(Clone, Debug)]
pub struct CountingPoint {
    counter: ByteCounter,
    series: UsageSeries,
}

/// Resolution of the usage history. 100 ms is fine enough for the paper's
/// clock-skew effects (which span tens of ms to seconds) while keeping an
/// hour-long run to ~36k buckets.
pub const SERIES_BUCKET: SimDuration = SimDuration(100_000);

impl Default for CountingPoint {
    fn default() -> Self {
        Self::new()
    }
}

impl CountingPoint {
    /// Fresh zeroed point.
    pub fn new() -> Self {
        CountingPoint {
            counter: ByteCounter::new(),
            series: UsageSeries::new(SERIES_BUCKET),
        }
    }

    /// Records one packet observed at this vantage.
    pub fn record(&mut self, t: SimTime, size: u32) {
        self.counter.record(size);
        self.series.record(t, size as u64);
    }

    /// Total bytes observed.
    pub fn bytes(&self) -> u64 {
        self.counter.bytes
    }

    /// Bytes observed strictly before `t` (pro-rated within a bucket) —
    /// what a reader whose clock says "cycle end" at true time `t` sees.
    pub fn bytes_until(&self, t: SimTime) -> u64 {
        self.series.cumulative_until(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_counter_and_series() {
        let mut p = CountingPoint::new();
        p.record(SimTime::from_secs(1), 500);
        p.record(SimTime::from_secs(2), 700);
        assert_eq!(p.bytes(), 1200);
        assert_eq!(p.bytes_until(SimTime::from_millis(1500)), 500);
        assert_eq!(p.bytes_until(SimTime::from_secs(10)), 1200);
    }

    #[test]
    fn bytes_until_zero_at_start() {
        let mut p = CountingPoint::new();
        p.record(SimTime::from_secs(5), 100);
        assert_eq!(p.bytes_until(SimTime::ZERO), 0);
    }
}
