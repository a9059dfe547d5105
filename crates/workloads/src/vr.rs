//! Edge-based VR workload (§7.1 scenario 2): VRidge-style GVSP streaming.
//!
//! The paper replays tcpdump traces of VRidge running Portal 2 over
//! operational LTE: 1920×1080p at 60 FPS, ~9.0 Mbps average, streamed
//! downlink (edge server renders, headset displays) via the GigE Vision
//! Stream Protocol. GVSP sends each video frame as a *leader* packet, a
//! burst of full-MTU payload packets, and a *trailer* packet.
//!
//! Without the original traces we synthesize an equivalent stream matched
//! to the published rate, frame cadence, and burst structure; the
//! `trace` module can replay recorded traces in the same format.

use crate::traffic::{Emission, Workload, INTRA_FRAME_SPACING_US};
use std::collections::VecDeque;
use tlc_net::packet::{Direction, Qci};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

/// GVSP leader/trailer packet size (headers only).
const GVSP_CONTROL_PKT: u32 = 64;
/// GVSP payload packet: full MTU payload plus GVSP+UDP+IP overhead.
const GVSP_PAYLOAD: u32 = 1400;
/// Per payload-packet overhead.
const GVSP_OVERHEAD: u32 = 36;

/// Parameters of the VR stream.
#[derive(Clone, Copy, Debug)]
pub struct VrParams {
    /// Target average bitrate, bits/second (paper: 9.0 Mbps).
    pub bitrate_bps: u64,
    /// Frame cadence (paper: 60 FPS).
    pub fps: u32,
    /// Log-normal σ of frame-size variation (rendered-scene complexity).
    pub jitter_sigma: f64,
}

impl VrParams {
    /// The paper's VRidge/Portal-2 stream.
    pub fn vridge() -> Self {
        VrParams {
            bitrate_bps: 9_000_000,
            fps: 60,
            jitter_sigma: 0.30,
        }
    }
}

/// The GVSP VR workload.
pub struct VrStream {
    params: VrParams,
    rng: SimRng,
    end: SimTime,
    frame_index: u64,
    pending: VecDeque<Emission>,
}

impl VrStream {
    /// A VRidge-like stream for `duration`.
    pub fn vridge(duration: SimDuration, rng: SimRng) -> Self {
        Self::new(VrParams::vridge(), duration, rng)
    }

    /// Custom parameters.
    pub fn new(params: VrParams, duration: SimDuration, rng: SimRng) -> Self {
        VrStream {
            params,
            rng,
            end: SimTime::ZERO + duration,
            frame_index: 0,
            pending: VecDeque::new(),
        }
    }

    fn generate_frame(&mut self) -> bool {
        let interval = SimDuration::from_micros(1_000_000 / self.params.fps as u64);
        let at = SimTime(self.frame_index * interval.as_micros());
        if at >= self.end {
            return false;
        }
        let mean_frame = self.params.bitrate_bps as f64 / 8.0 / self.params.fps as f64;
        let sigma = self.params.jitter_sigma;
        let factor = (self.rng.normal(-sigma * sigma / 2.0, sigma)).exp();
        let bytes = (mean_frame * factor).max(GVSP_PAYLOAD as f64) as u32;

        let mut k = 0u64;
        let mut push = |pending: &mut VecDeque<Emission>, size: u32, frame: u64| {
            pending.push_back(Emission {
                at: at + SimDuration::from_micros(k * INTRA_FRAME_SPACING_US),
                size,
                frame,
            });
            k += 1;
        };
        // Leader, payload burst, trailer.
        push(&mut self.pending, GVSP_CONTROL_PKT, self.frame_index);
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(GVSP_PAYLOAD);
            push(&mut self.pending, chunk + GVSP_OVERHEAD, self.frame_index);
            remaining -= chunk;
        }
        push(&mut self.pending, GVSP_CONTROL_PKT, self.frame_index);
        self.frame_index += 1;
        true
    }
}

impl Workload for VrStream {
    fn next(&mut self) -> Option<Emission> {
        while self.pending.is_empty() {
            if !self.generate_frame() {
                return None;
            }
        }
        self.pending.pop_front()
    }

    fn direction(&self) -> Direction {
        Direction::Downlink
    }

    fn qci(&self) -> Qci {
        Qci::DEFAULT
    }

    fn name(&self) -> &'static str {
        "VRidge (GVSP)"
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
        let mut w = VrStream::vridge(SimDuration::from_secs(60), SimRng::new(1));
        let total: u64 = drain(&mut w).iter().map(|e| e.size as u64).sum();
        let mbps = total as f64 * 8.0 / 1e6 / 60.0;
        assert!((8.5..=10.0).contains(&mbps), "VR rate {mbps} Mbps");
    }

    #[test]
    fn sixty_frames_per_second() {
        let mut w = VrStream::vridge(SimDuration::from_secs(10), SimRng::new(2));
        let all = drain(&mut w);
        let frames = all.iter().map(|e| e.frame).max().unwrap() + 1;
        // Integer microsecond intervals (16666 us) squeeze one extra frame
        // start just under the 10 s mark.
        assert!((600..=601).contains(&frames), "frames {frames}");
    }

    #[test]
    fn frame_burst_structure() {
        let mut w = VrStream::vridge(SimDuration::from_secs(1), SimRng::new(3));
        let all = drain(&mut w);
        let frame0: Vec<_> = all.iter().filter(|e| e.frame == 0).collect();
        // Leader + payloads + trailer.
        assert_eq!(frame0.first().unwrap().size, GVSP_CONTROL_PKT);
        assert_eq!(frame0.last().unwrap().size, GVSP_CONTROL_PKT);
        assert!(frame0.len() > 5, "payload burst expected");
        for p in &frame0[1..frame0.len() - 1] {
            assert!(p.size > GVSP_CONTROL_PKT);
        }
    }

    #[test]
    fn monotone_timestamps() {
        let mut w = VrStream::vridge(SimDuration::from_secs(2), SimRng::new(4));
        let all = drain(&mut w);
        for pair in all.windows(2) {
            assert!(pair[1].at >= pair[0].at);
        }
    }

    #[test]
    fn is_downlink_default_qci() {
        let w = VrStream::vridge(SimDuration::from_secs(1), SimRng::new(1));
        assert_eq!(w.direction(), Direction::Downlink);
        assert_eq!(w.qci(), Qci::DEFAULT);
        assert_eq!(w.params.bitrate_bps, 9_000_000);
    }
}
