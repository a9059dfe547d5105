//! iperf-style UDP background traffic (the paper's congestion knob).
//!
//! §7.1 repeats every experiment "with [0, 1Gbps] iperf UDP background
//! traffic to a separate phone": constant-bit-rate full-MTU UDP datagrams
//! on the default bearer (QCI 9), sharing the cell with the app under
//! test.

use crate::traffic::{Emission, Workload};
use tlc_net::packet::{Direction, Qci};
use tlc_net::time::{SimDuration, SimTime};

/// Full-MTU iperf datagram size on the wire.
pub const IPERF_PKT_BYTES: u32 = 1470;

/// Constant-bit-rate UDP background load.
pub struct BackgroundTraffic {
    direction: Direction,
    rate_bps: u64,
    end: SimTime,
    next_at: SimTime,
    interval: SimDuration,
    seq: u64,
}

impl BackgroundTraffic {
    /// A CBR stream of `rate_mbps` for `duration` in the given direction.
    /// A rate of zero produces no packets.
    pub fn new(rate_mbps: f64, direction: Direction, duration: SimDuration) -> Self {
        assert!(rate_mbps >= 0.0 && rate_mbps.is_finite());
        let rate_bps = (rate_mbps * 1e6) as u64;
        let interval = if rate_bps == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(IPERF_PKT_BYTES as f64 * 8.0 / rate_bps as f64)
        };
        BackgroundTraffic {
            direction,
            rate_bps,
            end: SimTime::ZERO + duration,
            next_at: SimTime::ZERO,
            interval,
            seq: 0,
        }
    }
}

impl Workload for BackgroundTraffic {
    fn next(&mut self) -> Option<Emission> {
        if self.rate_bps == 0 || self.next_at >= self.end {
            return None;
        }
        let e = Emission {
            at: self.next_at,
            size: IPERF_PKT_BYTES,
            frame: self.seq,
        };
        self.seq += 1;
        self.next_at += self.interval;
        Some(e)
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn qci(&self) -> Qci {
        Qci::DEFAULT
    }

    fn name(&self) -> &'static str {
        "iperf UDP background"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_exact() {
        let mut w = BackgroundTraffic::new(100.0, Direction::Downlink, SimDuration::from_secs(2));
        let total: u64 = std::iter::from_fn(|| w.next()).map(|e| e.size as u64).sum();
        let mbps = total as f64 * 8.0 / 1e6 / 2.0;
        assert!((mbps - 100.0).abs() < 1.0, "rate {mbps}");
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut w = BackgroundTraffic::new(0.0, Direction::Uplink, SimDuration::from_secs(10));
        assert!(w.next().is_none());
    }

    #[test]
    fn cbr_spacing_constant() {
        let mut w = BackgroundTraffic::new(11.76, Direction::Downlink, SimDuration::from_secs(1));
        let all: Vec<_> = std::iter::from_fn(|| w.next()).collect();
        // 11.76 Mbps / 1470 B = 1 ms spacing.
        let d0 = all[1].at - all[0].at;
        for pair in all.windows(2) {
            assert_eq!(pair[1].at - pair[0].at, d0);
        }
        assert_eq!(d0, SimDuration::from_millis(1));
    }

    #[test]
    fn direction_respected() {
        let w = BackgroundTraffic::new(1.0, Direction::Uplink, SimDuration::from_secs(1));
        assert_eq!(w.direction(), Direction::Uplink);
    }
}
