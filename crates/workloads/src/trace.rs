//! Packet-trace record and replay.
//!
//! The paper replays tcpdump captures (VRidge over operational LTE, a
//! 1-hour King of Glory session) through `tcprelay`. This module is the
//! equivalent machinery: capture any [`Workload`] into a [`PacketTrace`]
//! and replay it — optionally rescaled in time — as a new workload.

use crate::traffic::{Emission, Workload};
use tlc_net::packet::{Direction, Qci};
use tlc_net::time::{SimDuration, SimTime};

/// One captured packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission time, microseconds from trace start.
    pub t_us: u64,
    /// Bytes on the wire.
    pub size: u32,
    /// Application frame number.
    pub frame: u64,
}

/// A recorded packet trace with its flow metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketTrace {
    /// Workload name the trace was captured from.
    pub name: String,
    /// Flow direction.
    pub direction: Direction,
    /// Bearer QCI.
    pub qci: u8,
    /// The packets, time-ordered.
    pub records: Vec<TraceRecord>,
}

impl PacketTrace {
    /// Captures every emission of `workload` into a trace.
    pub fn record(workload: &mut dyn Workload) -> Self {
        let mut records = Vec::new();
        while let Some(e) = workload.next() {
            records.push(TraceRecord {
                t_us: e.at.as_micros(),
                size: e.size,
                frame: e.frame,
            });
        }
        PacketTrace {
            name: workload.name().to_string(),
            direction: workload.direction(),
            qci: workload.qci().0,
            records,
        }
    }

    /// Total bytes in the trace.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size as u64).sum()
    }

    /// Trace duration (time of last packet).
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_micros(self.records.last().map(|r| r.t_us).unwrap_or(0))
    }

    /// Mean rate in Mbps over the trace duration.
    pub fn mean_rate_mbps(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d == 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / 1e6 / d
    }

    /// A replaying workload over this trace (like `tcprelay`), with
    /// timestamps scaled by `time_scale`: 1 replays as recorded, > 1 slows
    /// the trace down, < 1 speeds it up (`tcprelay --multiplier`).
    pub fn replayer_scaled(&self, time_scale: f64) -> TraceReplayer<'_> {
        assert!(time_scale > 0.0 && time_scale.is_finite());
        TraceReplayer {
            trace: self,
            idx: 0,
            time_scale,
        }
    }
}

/// Replays a [`PacketTrace`] as a [`Workload`].
pub struct TraceReplayer<'a> {
    trace: &'a PacketTrace,
    idx: usize,
    time_scale: f64,
}

impl Workload for TraceReplayer<'_> {
    fn next(&mut self) -> Option<Emission> {
        let r = self.trace.records.get(self.idx)?;
        self.idx += 1;
        Some(Emission {
            at: SimTime((r.t_us as f64 * self.time_scale).round() as u64),
            size: r.size,
            frame: r.frame,
        })
    }

    fn direction(&self) -> Direction {
        self.trace.direction
    }

    fn qci(&self) -> Qci {
        Qci(self.trace.qci)
    }

    fn name(&self) -> &'static str {
        "trace replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaming::GamingStream;
    use tlc_net::rng::SimRng;

    fn sample_trace() -> PacketTrace {
        let mut w = GamingStream::king_of_glory(SimDuration::from_secs(10), SimRng::new(1));
        PacketTrace::record(&mut w)
    }

    #[test]
    fn record_captures_everything() {
        let t = sample_trace();
        assert!(!t.records.is_empty());
        assert_eq!(t.name, "Gaming w/ QCI=7");
        assert_eq!(t.qci, 7);
        assert_eq!(t.direction, Direction::Downlink);
    }

    #[test]
    fn replay_is_faithful() {
        let t = sample_trace();
        let mut w2 = GamingStream::king_of_glory(SimDuration::from_secs(10), SimRng::new(1));
        let mut replayed = t.replayer_scaled(1.0);
        while let Some(orig) = w2.next() {
            let rep = replayed.next().expect("same length");
            assert_eq!(rep, orig);
        }
        assert!(replayed.next().is_none());
    }

    #[test]
    fn scaled_replay_stretches_time() {
        let t = sample_trace();
        let orig: Vec<_> = std::iter::from_fn({
            let mut r = t.replayer_scaled(1.0);
            move || r.next()
        })
        .collect();
        let slow: Vec<_> = std::iter::from_fn({
            let mut r = t.replayer_scaled(2.0);
            move || r.next()
        })
        .collect();
        assert_eq!(orig.len(), slow.len());
        for (a, b) in orig.iter().zip(&slow) {
            assert_eq!(b.at.as_micros(), a.at.as_micros() * 2);
            assert_eq!(b.size, a.size);
        }
    }

    #[test]
    fn stats_helpers() {
        let t = sample_trace();
        assert!(t.total_bytes() > 0);
        assert!(t.duration() > SimDuration::ZERO);
        assert!(t.mean_rate_mbps() > 0.0);
        let empty = PacketTrace {
            name: "x".into(),
            direction: Direction::Uplink,
            qci: 9,
            records: vec![],
        };
        assert_eq!(empty.mean_rate_mbps(), 0.0);
    }
}
