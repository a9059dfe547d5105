//! Session-churn generation for the charging digital twin.
//!
//! The per-packet generators in this crate drive one experiment's
//! worth of flows; the twin needs the *population* view instead: a
//! deterministic stream of session arrivals (which app, what rate,
//! which direction, how long it lives, how often it hands over) whose
//! mix matches the paper's §7.1 applications. [`ChurnGen`] produces
//! that stream from a seeded [`SimRng`] — same seed, same population,
//! regardless of how many shards or threads consume it.

use tlc_net::packet::Direction;
use tlc_net::rng::SimRng;
use tlc_net::time::SimDuration;

/// Which §7.1 application a twin session models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// WebCam over RTSP (uplink, 0.77 Mbps).
    WebcamRtsp,
    /// WebCam over legacy UDP (uplink, 1.73 Mbps).
    WebcamUdp,
    /// VRidge GVSP VR offload (downlink, 9.0 Mbps).
    Vr,
    /// King of Glory with QCI=7 (downlink, 0.02 Mbps).
    Gaming,
}

/// Rate/direction/loss profile of one twin session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionProfile {
    /// Application modelled.
    pub kind: ProfileKind,
    /// Mean application bitrate, bits per second.
    pub rate_bps: u64,
    /// Charged traffic direction.
    pub direction: Direction,
    /// Residual air-loss fraction on a good link (the paper's ~2–8%
    /// UDP baseline; QCI-7 gaming is protected).
    pub base_loss: f64,
    /// Frame-burst jitter: per-tick byte volume varies by ±this
    /// fraction around the mean.
    pub jitter: f64,
}

impl SessionProfile {
    /// The paper's Table 2 profile for `kind`.
    pub fn paper(kind: ProfileKind) -> Self {
        match kind {
            ProfileKind::WebcamRtsp => SessionProfile {
                kind,
                rate_bps: 770_000,
                direction: Direction::Uplink,
                base_loss: 0.05,
                jitter: 0.25,
            },
            ProfileKind::WebcamUdp => SessionProfile {
                kind,
                rate_bps: 1_730_000,
                direction: Direction::Uplink,
                base_loss: 0.07,
                jitter: 0.30,
            },
            ProfileKind::Vr => SessionProfile {
                kind,
                rate_bps: 9_000_000,
                direction: Direction::Downlink,
                base_loss: 0.04,
                jitter: 0.35,
            },
            ProfileKind::Gaming => SessionProfile {
                kind,
                rate_bps: 20_000,
                direction: Direction::Downlink,
                base_loss: 0.01,
                jitter: 0.15,
            },
        }
    }

    /// All four profiles in the paper's table order.
    pub const ALL: [ProfileKind; 4] = [
        ProfileKind::WebcamRtsp,
        ProfileKind::WebcamUdp,
        ProfileKind::Vr,
        ProfileKind::Gaming,
    ];
}

/// Workload-mix weights (relative, not normalised) plus churn shape.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Session arrivals per second (Poisson).
    pub arrivals_per_sec: f64,
    /// Mean session lifetime (exponential).
    pub mean_lifetime: SimDuration,
    /// Mix weights in [`SessionProfile::ALL`] order
    /// (WebcamRtsp, WebcamUdp, Vr, Gaming).
    pub mix: [u32; 4],
    /// Mean handovers per minute per session (Poisson; 0 disables).
    pub handovers_per_minute: f64,
}

impl ChurnConfig {
    /// A mixed-population default: mostly gaming + webcams, a VR tail,
    /// 2-minute mean lifetimes, occasional handovers.
    pub fn mixed() -> Self {
        ChurnConfig {
            arrivals_per_sec: 10.0,
            mean_lifetime: SimDuration::from_secs(120),
            mix: [3, 3, 1, 5],
            handovers_per_minute: 0.5,
        }
    }
}

/// One generated arrival.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// Gap to the previous arrival.
    pub inter_arrival: SimDuration,
    /// Session profile.
    pub profile: SessionProfile,
    /// Session lifetime.
    pub lifetime: SimDuration,
}

/// Deterministic session-churn stream.
pub struct ChurnGen {
    cfg: ChurnConfig,
    rng: SimRng,
}

impl ChurnGen {
    /// A stream for `cfg` driven by `rng` (split one per shard).
    pub fn new(cfg: ChurnConfig, rng: SimRng) -> Self {
        ChurnGen { cfg, rng }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Draws a profile from the configured mix.
    pub fn draw_profile(&mut self) -> SessionProfile {
        let total: u32 = self.cfg.mix.iter().sum();
        if total == 0 {
            return SessionProfile::paper(ProfileKind::Gaming);
        }
        let mut pick = self.rng.next_below(total as u64) as u32;
        for (kind, &weight) in SessionProfile::ALL.iter().zip(self.cfg.mix.iter()) {
            if pick < weight {
                return SessionProfile::paper(*kind);
            }
            pick -= weight;
        }
        SessionProfile::paper(ProfileKind::Gaming)
    }

    /// Draws a session lifetime (exponential around the mean, floored
    /// at one second so a session always sees at least one tick).
    pub fn draw_lifetime(&mut self) -> SimDuration {
        let mean = self.cfg.mean_lifetime.as_secs_f64().max(1.0);
        let secs = self.rng.exponential(mean).clamp(1.0, mean * 20.0);
        SimDuration::from_secs_f64(secs)
    }

    /// Next arrival, or `None` when churn is disabled.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.cfg.arrivals_per_sec <= 0.0 {
            return None;
        }
        let gap = self.rng.exponential(1.0 / self.cfg.arrivals_per_sec);
        let profile = self.draw_profile();
        let lifetime = self.draw_lifetime();
        Some(Arrival {
            inter_arrival: SimDuration::from_secs_f64(gap.min(3600.0)),
            profile,
            lifetime,
        })
    }

    /// Next handover gap for a session, or `None` if mobility is off.
    pub fn next_handover_gap(&mut self) -> Option<SimDuration> {
        if self.cfg.handovers_per_minute <= 0.0 {
            return None;
        }
        let mean_s = 60.0 / self.cfg.handovers_per_minute;
        Some(SimDuration::from_secs_f64(
            self.rng.exponential(mean_s).min(mean_s * 20.0),
        ))
    }

    /// Direct access to the generator's RNG (cell picks etc. stay on
    /// the same per-shard stream so shard runs replay exactly).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let gen = |seed: u64| -> Vec<(u64, u64)> {
            let mut g = ChurnGen::new(ChurnConfig::mixed(), SimRng::new(seed));
            (0..200)
                .filter_map(|_| g.next_arrival())
                .map(|a| (a.inter_arrival.as_micros(), a.lifetime.as_micros()))
                .collect()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn mix_weights_shape_population() {
        let mut g = ChurnGen::new(
            ChurnConfig {
                mix: [0, 0, 1, 3],
                ..ChurnConfig::mixed()
            },
            SimRng::new(3),
        );
        let mut vr = 0usize;
        let mut gaming = 0usize;
        for _ in 0..4000 {
            match g.draw_profile().kind {
                ProfileKind::Vr => vr += 1,
                ProfileKind::Gaming => gaming += 1,
                other => panic!("zero-weight profile drawn: {other:?}"),
            }
        }
        let ratio = gaming as f64 / vr as f64;
        assert!((2.0..4.5).contains(&ratio), "mix ratio {ratio}");
    }

    #[test]
    fn arrival_rate_matches_config() {
        let mut g = ChurnGen::new(
            ChurnConfig {
                arrivals_per_sec: 50.0,
                ..ChurnConfig::mixed()
            },
            SimRng::new(9),
        );
        let n = 5000;
        let total: f64 = (0..n)
            .filter_map(|_| g.next_arrival())
            .map(|a| a.inter_arrival.as_secs_f64())
            .sum();
        let rate = n as f64 / total;
        assert!((40.0..60.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn churn_off_yields_no_arrivals() {
        let off = ChurnConfig {
            arrivals_per_sec: 0.0,
            handovers_per_minute: 0.0,
            ..ChurnConfig::mixed()
        };
        let mut g = ChurnGen::new(off, SimRng::new(1));
        assert!(g.next_arrival().is_none());
        assert!(g.next_handover_gap().is_none());
    }

    #[test]
    fn profiles_match_paper_rates() {
        assert_eq!(
            SessionProfile::paper(ProfileKind::WebcamRtsp).rate_bps,
            770_000
        );
        assert_eq!(SessionProfile::paper(ProfileKind::Vr).rate_bps, 9_000_000);
        assert_eq!(
            SessionProfile::paper(ProfileKind::Vr).direction,
            Direction::Downlink
        );
        assert_eq!(
            SessionProfile::paper(ProfileKind::WebcamUdp).direction,
            Direction::Uplink
        );
    }
}
