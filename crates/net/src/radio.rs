//! Radio channel model: received signal strength and intermittent
//! connectivity.
//!
//! Reproduces the conditions of the paper's Fig. 4 / Fig. 14: a device's
//! RSS fluctuates (shadow fading), and when it falls below the no-service
//! threshold the device temporarily loses uplink and downlink service (the
//! "gray areas"). Short outages (< the ~5 s radio-link-failure detection
//! time) are invisible to the core network, which keeps charging — the
//! mechanism behind the intermittent-connectivity charging gap.
//!
//! The channel is materialised as a [`RadioTimeline`]: a precomputed,
//! deterministic sequence of constant-RSS segments for the whole
//! experiment. This makes every query (`rss_at`, `connected_at`, η) exact
//! and keeps the simulation replayable.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One constant-signal span of the timeline.
#[derive(Clone, Copy, Debug)]
pub struct RadioSegment {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// Received signal strength during the segment.
    pub rss_dbm: f64,
}

/// Parameters for the AR(1) shadow-fading RSS walk.
#[derive(Clone, Copy, Debug)]
pub struct RssWalkParams {
    /// Long-run mean RSS (the paper sweeps [-95, -120] dBm).
    pub mean_rss_dbm: f64,
    /// Standard deviation of shadow fading around the mean.
    pub std_dev_db: f64,
    /// Mean-reversion factor per sample in `(0, 1]` (1 = white noise).
    pub reversion: f64,
    /// Sampling interval of the walk.
    pub sample_interval: SimDuration,
}

impl Default for RssWalkParams {
    fn default() -> Self {
        RssWalkParams {
            mean_rss_dbm: -90.0,
            std_dev_db: 6.0,
            reversion: 0.25,
            sample_interval: SimDuration::from_millis(200),
        }
    }
}

/// RSS below which the device has no service.
pub const NO_SERVICE_THRESHOLD_DBM: f64 = -110.0;

/// Mean time for the network to detect a persistent outage via radio link
/// failure and detach the device (the paper's LTE core took ~5 s).
pub const RLF_DETACH: SimDuration = SimDuration(5_000_000);

/// The realised radio channel for one device over one experiment.
#[derive(Clone, Debug)]
pub struct RadioTimeline {
    segments: Vec<RadioSegment>,
    duration: SimTime,
}

impl RadioTimeline {
    /// A perfectly stable channel at the given RSS.
    pub fn constant(duration: SimDuration, rss_dbm: f64) -> Self {
        RadioTimeline {
            segments: vec![RadioSegment {
                start: SimTime::ZERO,
                end: SimTime::ZERO + duration,
                rss_dbm,
            }],
            duration: SimTime::ZERO + duration,
        }
    }

    /// Generates an AR(1) shadow-fading walk.
    pub fn rss_walk(duration: SimDuration, params: RssWalkParams, rng: &mut SimRng) -> Self {
        assert!(params.sample_interval > SimDuration::ZERO);
        assert!(params.reversion > 0.0 && params.reversion <= 1.0);
        let end = SimTime::ZERO + duration;
        let mut segments = Vec::new();
        let mut t = SimTime::ZERO;
        let mut rss = params.mean_rss_dbm;
        while t < end {
            let seg_end = (t + params.sample_interval).min(end);
            segments.push(RadioSegment {
                start: t,
                end: seg_end,
                rss_dbm: rss,
            });
            // AR(1): pull towards the mean, add fresh shadow-fading noise.
            let noise = rng.normal(0.0, params.std_dev_db * params.reversion.sqrt());
            rss += params.reversion * (params.mean_rss_dbm - rss) + noise;
            t = seg_end;
        }
        RadioTimeline {
            segments,
            duration: end,
        }
    }

    /// Generates an alternating connected/outage renewal process hitting a
    /// target disconnectivity ratio η with outages of the given mean
    /// duration (exponentially distributed, truncated below `max_outage`).
    ///
    /// Matches the Fig. 4 / Fig. 14 setup: η = t_disconn / t_total, mean
    /// outage ≈ 1.93 s, each outage shorter than the 5 s RLF detach window
    /// so the core keeps charging through them.
    pub fn intermittent(
        duration: SimDuration,
        connected_rss_dbm: f64,
        target_eta: f64,
        mean_outage: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        assert!((0.0..1.0).contains(&target_eta), "eta must be in [0,1)");
        assert!(mean_outage > SimDuration::ZERO);
        let end = SimTime::ZERO + duration;
        let mut segments = Vec::new();
        let mut t = SimTime::ZERO;
        if target_eta == 0.0 {
            return Self::constant(duration, connected_rss_dbm);
        }
        let max_outage = RLF_DETACH.as_secs_f64() * 0.96; // stay under RLF detach
        let min_outage = 0.2;
        // Outage draws are exponential clamped to [min, max]; compensate
        // for truncation so the realised mean matches the target:
        // E[clamp(X, lo, hi)] = lo + m·(e^{-lo/m} − e^{-hi/m}).
        let m = mean_outage.as_secs_f64();
        let eff_outage = min_outage + m * ((-min_outage / m).exp() - (-max_outage / m).exp());
        // Mean connected period chosen so E[outage]/(E[outage]+E[conn]) = η.
        let mean_connected_s = eff_outage * (1.0 - target_eta) / target_eta;
        let outage_rss = NO_SERVICE_THRESHOLD_DBM - 10.0;
        let mut connected = true;
        while t < end {
            let len_s = if connected {
                rng.exponential(mean_connected_s).max(0.05)
            } else {
                rng.exponential(mean_outage.as_secs_f64())
                    .clamp(min_outage, max_outage)
            };
            let seg_end = (t + SimDuration::from_secs_f64(len_s)).min(end);
            segments.push(RadioSegment {
                start: t,
                end: seg_end,
                rss_dbm: if connected {
                    connected_rss_dbm
                } else {
                    outage_rss
                },
            });
            t = seg_end;
            connected = !connected;
        }
        RadioTimeline {
            segments,
            duration: end,
        }
    }

    /// RSS at instant `t` (clamped to the final segment past the end).
    pub fn rss_at(&self, t: SimTime) -> f64 {
        self.segment_at(t).rss_dbm
    }

    /// Whether the device has service at instant `t`.
    pub fn connected_at(&self, t: SimTime) -> bool {
        self.rss_at(t) >= NO_SERVICE_THRESHOLD_DBM
    }

    fn segment_at(&self, t: SimTime) -> &RadioSegment {
        let idx = self
            .segments
            .partition_point(|s| s.end <= t)
            .min(self.segments.len() - 1);
        &self.segments[idx]
    }

    /// End of the segment containing `t` — the next instant the channel
    /// may change, for event scheduling. `None` at/after the end.
    pub fn next_transition_after(&self, t: SimTime) -> Option<SimTime> {
        if t >= self.duration {
            return None;
        }
        Some(self.segment_at(t).end)
    }

    /// Exact disconnectivity ratio η = t_disconn / t_total.
    pub fn disconnectivity_ratio(&self) -> f64 {
        let total = self.duration.as_micros() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let disconn: u64 = self
            .outage_intervals()
            .iter()
            .map(|(s, e)| (*e - *s).as_micros())
            .sum();
        disconn as f64 / total
    }

    /// Merged list of (start, end) outage intervals.
    pub fn outage_intervals(&self) -> Vec<(SimTime, SimTime)> {
        let mut out: Vec<(SimTime, SimTime)> = Vec::new();
        for s in &self.segments {
            if s.rss_dbm < NO_SERVICE_THRESHOLD_DBM {
                match out.last_mut() {
                    Some(last) if last.1 == s.start => last.1 = s.end,
                    _ => out.push((s.start, s.end)),
                }
            }
        }
        out
    }

    /// Mean outage duration in seconds (0 if none).
    pub fn mean_outage_secs(&self) -> f64 {
        let iv = self.outage_intervals();
        if iv.is_empty() {
            return 0.0;
        }
        iv.iter().map(|(s, e)| (*e - *s).as_secs_f64()).sum::<f64>() / iv.len() as f64
    }

    /// Returns the instant by which `connected_time` of *service time* has
    /// accumulated starting from `from`, skipping over outages.
    ///
    /// This lets a radio transmitter compute its exact completion time in
    /// one step: serialization suspends during outages and resumes when
    /// coverage returns. Past the end of the timeline the channel is
    /// treated as staying in its final state.
    pub fn advance_connected(&self, from: SimTime, connected_time: SimDuration) -> SimTime {
        let mut t = from;
        let mut remaining = connected_time;
        loop {
            let seg = self.segment_at(t);
            let connected = seg.rss_dbm >= NO_SERVICE_THRESHOLD_DBM;
            // After the timeline end the final segment persists forever.
            let seg_end = if t >= self.duration {
                None
            } else {
                Some(seg.end)
            };
            match seg_end {
                None => {
                    return if connected {
                        t + remaining
                    } else {
                        // Disconnected forever: completion never happens;
                        // saturate far in the future.
                        SimTime(u64::MAX / 2)
                    };
                }
                Some(end) => {
                    if connected {
                        let avail = end - t;
                        if avail >= remaining {
                            return t + remaining;
                        }
                        remaining = remaining - avail;
                    }
                    t = end;
                }
            }
        }
    }

    /// Full segment list (for plotting Fig. 4-style RSS traces).
    pub fn segments(&self) -> &[RadioSegment] {
        &self.segments
    }

    /// Timeline end.
    pub fn end(&self) -> SimTime {
        self.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_channel_always_connected() {
        let tl = RadioTimeline::constant(SimDuration::from_secs(10), -90.0);
        assert!(tl.connected_at(SimTime::ZERO));
        assert!(tl.connected_at(SimTime::from_secs(5)));
        assert_eq!(tl.disconnectivity_ratio(), 0.0);
        assert!(tl.outage_intervals().is_empty());
    }

    #[test]
    fn constant_below_threshold_never_connected() {
        let tl = RadioTimeline::constant(SimDuration::from_secs(10), -115.0);
        assert!(!tl.connected_at(SimTime::from_secs(3)));
        assert!((tl.disconnectivity_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn walk_covers_duration_contiguously() {
        let mut rng = SimRng::new(1);
        let tl = RadioTimeline::rss_walk(
            SimDuration::from_secs(30),
            RssWalkParams::default(),
            &mut rng,
        );
        let segs = tl.segments();
        assert_eq!(segs[0].start, SimTime::ZERO);
        assert_eq!(segs.last().unwrap().end, SimTime::from_secs(30));
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "no gaps between segments");
        }
    }

    #[test]
    fn walk_stays_near_mean() {
        let mut rng = SimRng::new(2);
        let params = RssWalkParams {
            mean_rss_dbm: -95.0,
            ..Default::default()
        };
        let tl = RadioTimeline::rss_walk(SimDuration::from_secs(600), params, &mut rng);
        let mean: f64 =
            tl.segments().iter().map(|s| s.rss_dbm).sum::<f64>() / tl.segments().len() as f64;
        assert!((mean + 95.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn intermittent_hits_target_eta() {
        let mut rng = SimRng::new(3);
        for target in [0.05, 0.10, 0.15] {
            let tl = RadioTimeline::intermittent(
                SimDuration::from_secs(3600),
                -90.0,
                target,
                SimDuration::from_millis(1930),
                &mut rng,
            );
            let eta = tl.disconnectivity_ratio();
            assert!(
                (eta - target).abs() < 0.04,
                "target {target}, realised {eta}"
            );
        }
    }

    #[test]
    fn intermittent_outages_below_rlf_window() {
        let mut rng = SimRng::new(4);
        let tl = RadioTimeline::intermittent(
            SimDuration::from_secs(1800),
            -90.0,
            0.10,
            SimDuration::from_millis(1930),
            &mut rng,
        );
        for (s, e) in tl.outage_intervals() {
            assert!((e - s) < RLF_DETACH, "outage {:?} exceeds RLF", e - s);
        }
        assert!(tl.mean_outage_secs() > 0.5 && tl.mean_outage_secs() < 4.0);
    }

    #[test]
    fn eta_zero_yields_constant() {
        let mut rng = SimRng::new(5);
        let tl = RadioTimeline::intermittent(
            SimDuration::from_secs(60),
            -90.0,
            0.0,
            SimDuration::from_secs(2),
            &mut rng,
        );
        assert_eq!(tl.disconnectivity_ratio(), 0.0);
    }

    #[test]
    fn next_transition_walks_segments() {
        let tl = RadioTimeline::constant(SimDuration::from_secs(10), -90.0);
        assert_eq!(
            tl.next_transition_after(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(tl.next_transition_after(SimTime::from_secs(10)), None);
    }

    #[test]
    fn advance_connected_no_outage_is_plain_addition() {
        let tl = RadioTimeline::constant(SimDuration::from_secs(100), -90.0);
        assert_eq!(
            tl.advance_connected(SimTime::from_secs(1), SimDuration::from_millis(500)),
            SimTime::from_micros(1_500_000)
        );
    }

    #[test]
    fn advance_connected_skips_outages() {
        // Hand-built timeline: connected [0,2s), outage [2s,5s), connected [5s,10s).
        let tl = RadioTimeline {
            segments: vec![
                RadioSegment {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(2),
                    rss_dbm: -90.0,
                },
                RadioSegment {
                    start: SimTime::from_secs(2),
                    end: SimTime::from_secs(5),
                    rss_dbm: -120.0,
                },
                RadioSegment {
                    start: SimTime::from_secs(5),
                    end: SimTime::from_secs(10),
                    rss_dbm: -90.0,
                },
            ],
            duration: SimTime::from_secs(10),
        };
        // Starting at 1s, 1.5s of service time: 1s before outage + 0.5s after.
        assert_eq!(
            tl.advance_connected(SimTime::from_secs(1), SimDuration::from_millis(1500)),
            SimTime::from_millis(5500)
        );
        // Starting inside the outage just waits for reconnection.
        assert_eq!(
            tl.advance_connected(SimTime::from_secs(3), SimDuration::from_millis(100)),
            SimTime::from_millis(5100)
        );
    }

    #[test]
    fn advance_connected_past_end_extends_final_state() {
        let tl = RadioTimeline::constant(SimDuration::from_secs(1), -90.0);
        assert_eq!(
            tl.advance_connected(SimTime::from_secs(5), SimDuration::from_secs(1)),
            SimTime::from_secs(6)
        );
    }

    #[test]
    fn queries_past_end_clamp() {
        let tl = RadioTimeline::constant(SimDuration::from_secs(1), -90.0);
        assert_eq!(tl.rss_at(SimTime::from_secs(100)), -90.0);
    }
}
