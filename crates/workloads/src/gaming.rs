//! Online mobile gaming workload (§7.1 scenario 3).
//!
//! The paper replays a 1-hour King of Glory (Tencent) trace downlink with
//! QCI=7 (interactive gaming priority), against QCI=9 background traffic.
//! The game's player-control stream is tiny — 0.02 Mbps average — made of
//! frequent small UDP state-update packets on a fixed server tick, with
//! occasional larger snapshot packets.

use crate::traffic::{Emission, Workload};
use tlc_net::packet::{Direction, Qci};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

/// Parameters of the gaming stream.
#[derive(Clone, Copy, Debug)]
pub struct GamingParams {
    /// Server tick rate (updates per second).
    pub tick_hz: u32,
    /// Mean state-update packet size, bytes (incl. UDP/IP headers).
    pub update_size: u32,
    /// Snapshot packet size, bytes.
    pub snapshot_size: u32,
    /// A snapshot replaces the update every `snapshot_every` ticks.
    pub snapshot_every: u32,
}

impl GamingParams {
    /// King-of-Glory-like defaults tuned to the paper's 0.02 Mbps mean:
    /// 15 Hz tick, ~150 B updates, 500 B snapshots every 30 ticks.
    pub fn king_of_glory() -> Self {
        GamingParams {
            tick_hz: 15,
            update_size: 150,
            snapshot_size: 500,
            snapshot_every: 30,
        }
    }
}

/// The gaming workload (downlink, QCI 7).
pub struct GamingStream {
    params: GamingParams,
    rng: SimRng,
    end: SimTime,
    tick: u64,
}

impl GamingStream {
    /// A King-of-Glory-like stream for `duration`.
    pub fn king_of_glory(duration: SimDuration, rng: SimRng) -> Self {
        Self::new(GamingParams::king_of_glory(), duration, rng)
    }

    /// Custom parameters.
    pub fn new(params: GamingParams, duration: SimDuration, rng: SimRng) -> Self {
        GamingStream {
            params,
            rng,
            end: SimTime::ZERO + duration,
            tick: 0,
        }
    }
}

impl Workload for GamingStream {
    fn next(&mut self) -> Option<Emission> {
        let interval_us = 1_000_000 / self.params.tick_hz as u64;
        // Small timing jitter (±20% of a tick) models server scheduling.
        let jitter = self.rng.range_u64(0, interval_us / 5);
        let at = SimTime(self.tick * interval_us + jitter);
        if at >= self.end {
            return None;
        }
        let is_snapshot = self.tick.is_multiple_of(self.params.snapshot_every as u64);
        let mean = if is_snapshot {
            self.params.snapshot_size
        } else {
            self.params.update_size
        } as f64;
        // ±25% size variation around the mean.
        let size = (mean * self.rng.range_f64(0.75, 1.25)).round().max(40.0) as u32;
        let e = Emission {
            at,
            size,
            frame: self.tick,
        };
        self.tick += 1;
        Some(e)
    }

    fn direction(&self) -> Direction {
        Direction::Downlink
    }

    fn qci(&self) -> Qci {
        Qci::INTERACTIVE
    }

    fn name(&self) -> &'static str {
        "Gaming w/ QCI=7"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut dyn Workload) -> Vec<Emission> {
        std::iter::from_fn(|| w.next()).collect()
    }

    #[test]
    fn rate_matches_paper() {
        let mut w = GamingStream::king_of_glory(SimDuration::from_secs(300), SimRng::new(1));
        let total: u64 = drain(&mut w).iter().map(|e| e.size as u64).sum();
        let mbps = total as f64 * 8.0 / 1e6 / 300.0;
        // Paper: 0.02 Mbps average.
        assert!((0.015..=0.030).contains(&mbps), "gaming rate {mbps} Mbps");
    }

    #[test]
    fn tick_cadence() {
        let mut w = GamingStream::king_of_glory(SimDuration::from_secs(10), SimRng::new(2));
        let all = drain(&mut w);
        // 15 Hz for 10 s ≈ 150 packets (jitter may push the last over).
        assert!((145..=151).contains(&all.len()), "count {}", all.len());
    }

    #[test]
    fn snapshots_are_larger() {
        let mut w = GamingStream::king_of_glory(SimDuration::from_secs(60), SimRng::new(3));
        let all = drain(&mut w);
        let snap_mean: f64 = {
            let v: Vec<_> = all.iter().filter(|e| e.frame % 30 == 0).collect();
            v.iter().map(|e| e.size as f64).sum::<f64>() / v.len() as f64
        };
        let upd_mean: f64 = {
            let v: Vec<_> = all.iter().filter(|e| e.frame % 30 != 0).collect();
            v.iter().map(|e| e.size as f64).sum::<f64>() / v.len() as f64
        };
        assert!(snap_mean > upd_mean * 2.0, "{snap_mean} vs {upd_mean}");
    }

    #[test]
    fn uses_interactive_qci() {
        let w = GamingStream::king_of_glory(SimDuration::from_secs(1), SimRng::new(1));
        assert_eq!(w.qci(), Qci::INTERACTIVE);
        assert_eq!(w.direction(), Direction::Downlink);
    }

    #[test]
    fn monotone_timestamps() {
        let mut w = GamingStream::king_of_glory(SimDuration::from_secs(30), SimRng::new(4));
        let all = drain(&mut w);
        for pair in all.windows(2) {
            assert!(
                pair[1].at >= pair[0].at,
                "{:?} then {:?}",
                pair[0].at,
                pair[1].at
            );
        }
    }
}
