//! WebCam streaming workloads (§7.1 scenario 1).
//!
//! The paper streams a 1920×1080p30 H.264 camera feed with VLC two ways:
//! over RTSP (RTP packetization, rate-controlled to ~0.77 Mbps average)
//! and over legacy UDP (~1.73 Mbps average). Both are uplink — roadside
//! camera to edge server, as in the targeted-advertisement deployment.
//!
//! The H.264 model: a closed GOP of one I-frame followed by P-frames.
//! I-frames are several times larger than P-frames; sizes jitter
//! log-normally around their means (scene activity).

use crate::traffic::{packetize, Emission, Workload, INTRA_FRAME_SPACING_US};
use std::collections::VecDeque;
use tlc_net::packet::{Direction, Qci};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

/// H.264 encoder model parameters.
#[derive(Clone, Copy, Debug)]
pub struct H264Params {
    /// Target average bitrate, bits/second.
    pub bitrate_bps: u64,
    /// Frames per second.
    pub fps: u32,
    /// GOP length in frames (one I-frame per GOP).
    pub gop: u32,
    /// I-frame size multiplier relative to P-frames.
    pub i_frame_ratio: f64,
    /// Log-normal σ of frame-size jitter.
    pub jitter_sigma: f64,
    /// Per-packet protocol overhead (RTP+UDP+IP = 12+8+20 = 40).
    pub overhead: u32,
}

impl H264Params {
    /// The paper's RTSP WebCam stream: 1080p30 at 0.77 Mbps average.
    pub fn rtsp_webcam() -> Self {
        H264Params {
            bitrate_bps: 770_000,
            fps: 30,
            gop: 30,
            i_frame_ratio: 6.0,
            jitter_sigma: 0.25,
            overhead: 40,
        }
    }

    /// The paper's legacy-UDP WebCam stream: 1.73 Mbps average (no RTSP
    /// rate control, higher-rate encode, shorter GOP).
    pub fn udp_webcam() -> Self {
        H264Params {
            bitrate_bps: 1_730_000,
            fps: 30,
            gop: 15,
            i_frame_ratio: 5.0,
            jitter_sigma: 0.35,
            overhead: 28, // UDP+IP only
        }
    }

    /// Mean P-frame payload bytes implied by the target bitrate.
    fn mean_p_frame_bytes(&self) -> f64 {
        // Per GOP: 1 I-frame (ratio × p) + (gop−1) P-frames.
        let frames_per_sec = self.fps as f64;
        let bytes_per_sec = self.bitrate_bps as f64 / 8.0;
        let mean_frame = bytes_per_sec / frames_per_sec;
        let gop = self.gop as f64;
        // mean_frame = (ratio·p + (gop−1)·p) / gop  ⇒  p = mean·gop/(ratio+gop−1)
        mean_frame * gop / (self.i_frame_ratio + gop - 1.0)
    }
}

/// A WebCam H.264 stream workload.
pub struct WebcamStream {
    params: H264Params,
    name: &'static str,
    rng: SimRng,
    end: SimTime,
    frame_index: u64,
    /// Pending packets of the current frame.
    pending: VecDeque<Emission>,
}

impl WebcamStream {
    /// RTSP variant for `duration`.
    pub fn rtsp(duration: SimDuration, rng: SimRng) -> Self {
        Self::new(H264Params::rtsp_webcam(), "WebCam (RTSP)", duration, rng)
    }

    /// Legacy-UDP variant for `duration`.
    pub fn udp(duration: SimDuration, rng: SimRng) -> Self {
        Self::new(H264Params::udp_webcam(), "WebCam (UDP)", duration, rng)
    }

    /// Custom parameters.
    pub fn new(params: H264Params, name: &'static str, duration: SimDuration, rng: SimRng) -> Self {
        WebcamStream {
            params,
            name,
            rng,
            end: SimTime::ZERO + duration,
            frame_index: 0,
            pending: VecDeque::new(),
        }
    }

    fn generate_frame(&mut self) -> bool {
        let frame_interval = SimDuration::from_micros(1_000_000 / self.params.fps as u64);
        let at = SimTime(self.frame_index * frame_interval.as_micros());
        if at >= self.end {
            return false;
        }
        let is_i = self.frame_index.is_multiple_of(self.params.gop as u64);
        let mean_p = self.params.mean_p_frame_bytes();
        let mean = if is_i {
            mean_p * self.params.i_frame_ratio
        } else {
            mean_p
        };
        // Log-normal jitter with unit mean: exp(N(−σ²/2, σ)).
        let sigma = self.params.jitter_sigma;
        let factor = (self.rng.normal(-sigma * sigma / 2.0, sigma)).exp();
        let bytes = (mean * factor).max(64.0) as u32;
        for (i, size) in packetize(bytes, 1400, self.params.overhead)
            .into_iter()
            .enumerate()
        {
            self.pending.push_back(Emission {
                at: at + SimDuration::from_micros(i as u64 * INTRA_FRAME_SPACING_US),
                size,
                frame: self.frame_index,
            });
        }
        self.frame_index += 1;
        true
    }
}

impl Workload for WebcamStream {
    fn next(&mut self) -> Option<Emission> {
        while self.pending.is_empty() {
            if !self.generate_frame() {
                return None;
            }
        }
        self.pending.pop_front()
    }

    fn direction(&self) -> Direction {
        Direction::Uplink
    }

    fn qci(&self) -> Qci {
        Qci::DEFAULT
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut dyn Workload) -> Vec<Emission> {
        std::iter::from_fn(|| w.next()).collect()
    }

    #[test]
    fn rtsp_rate_matches_paper() {
        let mut w = WebcamStream::rtsp(SimDuration::from_secs(120), SimRng::new(1));
        let all = drain(&mut w);
        let total: u64 = all.iter().map(|e| e.size as u64).sum();
        let mbps = total as f64 * 8.0 / 1e6 / 120.0;
        // 0.77 Mbps payload + packet overheads: allow ±15%.
        assert!((0.68..=0.95).contains(&mbps), "RTSP rate {mbps} Mbps");
    }

    #[test]
    fn udp_rate_matches_paper() {
        let mut w = WebcamStream::udp(SimDuration::from_secs(120), SimRng::new(2));
        let all = drain(&mut w);
        let total: u64 = all.iter().map(|e| e.size as u64).sum();
        let mbps = total as f64 * 8.0 / 1e6 / 120.0;
        assert!((1.55..=2.0).contains(&mbps), "UDP rate {mbps} Mbps");
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut w = WebcamStream::rtsp(SimDuration::from_secs(10), SimRng::new(3));
        let all = drain(&mut w);
        for pair in all.windows(2) {
            assert!(pair[1].at >= pair[0].at);
        }
        assert!(!all.is_empty());
    }

    #[test]
    fn emissions_stop_at_duration() {
        let mut w = WebcamStream::udp(SimDuration::from_secs(5), SimRng::new(4));
        let all = drain(&mut w);
        let last = all.last().unwrap().at;
        // Last frame starts before 5 s (its packets trail by microseconds).
        assert!(last < SimTime::from_millis(5100));
    }

    #[test]
    fn gop_structure_visible() {
        // I-frames (every GOP-th frame) should carry notably more bytes.
        let mut w = WebcamStream::rtsp(SimDuration::from_secs(30), SimRng::new(5));
        let all = drain(&mut w);
        let frame_bytes = |f: u64| -> u64 {
            all.iter()
                .filter(|e| e.frame == f)
                .map(|e| e.size as u64)
                .sum()
        };
        let mut i_total = 0u64;
        let mut p_total = 0u64;
        let mut i_n = 0u64;
        let mut p_n = 0u64;
        let frames = all.iter().map(|e| e.frame).max().unwrap();
        for f in 0..=frames {
            if f % 30 == 0 {
                i_total += frame_bytes(f);
                i_n += 1;
            } else {
                p_total += frame_bytes(f);
                p_n += 1;
            }
        }
        let i_mean = i_total as f64 / i_n as f64;
        let p_mean = p_total as f64 / p_n as f64;
        assert!(i_mean > p_mean * 3.0, "I {i_mean} vs P {p_mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = drain(&mut WebcamStream::rtsp(
            SimDuration::from_secs(5),
            SimRng::new(9),
        ));
        let b = drain(&mut WebcamStream::rtsp(
            SimDuration::from_secs(5),
            SimRng::new(9),
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn direction_and_qci() {
        let w = WebcamStream::rtsp(SimDuration::from_secs(1), SimRng::new(1));
        assert_eq!(w.direction(), Direction::Uplink);
        assert_eq!(w.qci(), Qci::DEFAULT);
        assert_eq!(w.name(), "WebCam (RTSP)");
    }
}
