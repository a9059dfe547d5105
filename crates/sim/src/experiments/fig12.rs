//! Fig. 12 — CDFs of the per-hour charging gap for each application under
//! legacy 4G/5G, TLC-random, and TLC-optimal (c = 0.5).

use super::sweep::SweepSample;
use crate::metrics::{bytes_to_mb_per_hr, Cdf};
use crate::scenario::{AppKind, ALL_APPS};

/// The three schemes compared throughout §7.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Honest legacy 4G/5G (gateway CDR billing).
    Legacy,
    /// TLC with random-selfish parties.
    TlcRandom,
    /// TLC with rational (optimal) parties.
    TlcOptimal,
}

/// All schemes, in the paper's legend order.
pub const SCHEMES: [Scheme; 3] = [Scheme::Legacy, Scheme::TlcRandom, Scheme::TlcOptimal];

impl Scheme {
    /// Legend label.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Legacy => "Legacy 4G/5G",
            Scheme::TlcRandom => "TLC-random",
            Scheme::TlcOptimal => "TLC-optimal",
        }
    }

    /// This scheme's charge in a sample.
    pub fn charge(&self, s: &SweepSample) -> u64 {
        match self {
            Scheme::Legacy => s.comparison.legacy.charge,
            Scheme::TlcRandom => s.comparison.tlc_random.charge,
            Scheme::TlcOptimal => s.comparison.tlc_optimal.charge,
        }
    }

    /// This scheme's gap (MB/hr) in a sample.
    pub fn gap_mb_per_hr(&self, s: &SweepSample) -> f64 {
        bytes_to_mb_per_hr(s.comparison.gap(self.charge(s)), s.cycle_secs)
    }
}

/// One (app, scheme) CDF of gap/hr.
pub struct Fig12Curve {
    /// Application.
    pub app: AppKind,
    /// Scheme.
    pub scheme: Scheme,
    /// Distribution of gap MB/hr across rounds and congestion levels.
    pub cdf: Cdf,
}

/// Builds the curves from a congestion sweep's samples.
pub fn from_samples(samples: &[SweepSample]) -> Vec<Fig12Curve> {
    let mut out = Vec::new();
    for app in ALL_APPS {
        for scheme in SCHEMES {
            let mut cdf = Cdf::new();
            for s in samples.iter().filter(|s| s.app == app) {
                cdf.push(scheme.gap_mb_per_hr(s));
            }
            out.push(Fig12Curve { app, scheme, cdf });
        }
    }
    out
}

/// Prints per-curve quantiles in the paper's subfigure order.
pub fn print(curves: &mut [Fig12Curve]) {
    println!("Fig. 12 — charging-gap/hr CDFs (c = 0.5)");
    println!(
        "{:<18} {:<14} {:>9} {:>9} {:>9} {:>9}",
        "app", "scheme", "p25 MB", "p50 MB", "p75 MB", "p95 MB"
    );
    for c in curves.iter_mut() {
        println!(
            "{:<18} {:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            c.app.name(),
            c.scheme.name(),
            c.cdf.quantile(0.25),
            c.cdf.quantile(0.50),
            c.cdf.quantile(0.75),
            c.cdf.quantile(0.95),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::sweep_over;
    use crate::experiments::RunScale;

    #[test]
    fn tlc_optimal_dominates_legacy() {
        // One congested configuration per app family is enough to see the
        // ordering the figure shows.
        let samples = sweep_over(
            RunScale::Quick,
            &[AppKind::WebcamUdp, AppKind::Vr],
            &[150.0],
        );
        let curves = from_samples(&samples);
        for app in [AppKind::WebcamUdp, AppKind::Vr] {
            let mean = |scheme: Scheme| {
                curves
                    .iter()
                    .find(|c| c.app == app && c.scheme == scheme)
                    .unwrap()
                    .cdf
                    .mean()
            };
            assert!(
                mean(Scheme::TlcOptimal) < mean(Scheme::Legacy),
                "{app:?}: optimal {} !< legacy {}",
                mean(Scheme::TlcOptimal),
                mean(Scheme::Legacy)
            );
        }
    }

    #[test]
    fn curves_cover_all_apps_and_schemes() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::Gaming], &[0.0]);
        let curves = from_samples(&samples);
        assert_eq!(curves.len(), ALL_APPS.len() * SCHEMES.len());
        // Apps not in the sample set have empty CDFs; Gaming has data.
        let gaming_legacy = curves
            .iter()
            .find(|c| c.app == AppKind::Gaming && c.scheme == Scheme::Legacy)
            .unwrap();
        assert!(!gaming_legacy.cdf.is_empty());
    }
}
