//! Fig. 14 — gap ratio vs intermittent disconnectivity ratio η.
//!
//! UDP-based WebCam streaming under η ∈ [5%, 15%] with ~1.93 s mean
//! outages: the legacy gap grows with η while TLC holds its small
//! residual, so "TLC reduces more gaps with heavier intermittent
//! connectivity levels".

use super::fig12::{Scheme, SCHEMES};
use super::sweep::rrc_period_for;
use super::RunScale;
use crate::measure::{compare_schemes, cycle_records};
use crate::scenario::{run_scenario, AppKind, RadioSpec, ScenarioConfig};
use tlc_core::plan::DataPlan;

/// One point: mean gap ratio at a disconnectivity level.
#[derive(Clone, Copy, Debug)]
pub struct Fig14Row {
    /// Target η (%).
    pub eta_pct: f64,
    /// Realised mean η (%).
    pub realised_eta_pct: f64,
    /// Scheme label.
    pub scheme: &'static str,
    /// Mean gap ratio ε.
    pub gap_ratio: f64,
}

/// The η sweep of the figure.
pub fn eta_levels(scale: RunScale) -> Vec<f64> {
    match scale {
        RunScale::Quick => vec![0.05, 0.10, 0.15],
        RunScale::Full => (5..=15).map(|p| p as f64 / 100.0).collect(),
    }
}

/// Regenerates the figure. The η levels fan out across the sweep thread
/// pool; each level's rounds stay sequential, so its three rows are
/// byte-identical to the single-threaded runner's.
#[expect(
    clippy::expect_used,
    reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
)]
pub fn run(scale: RunScale) -> Vec<Fig14Row> {
    let plan = DataPlan::paper_default();
    let levels = eta_levels(scale);
    let per_level = crate::par::par_map(&levels, |&eta| {
        let mut realised = 0.0;
        let mut sums = [0.0f64; 3];
        // Short cycles need more repetitions for the realised η to
        // concentrate (each 60 s cycle sees only a handful of outages).
        let rounds = match scale {
            RunScale::Quick => scale.rounds() * 3,
            RunScale::Full => scale.rounds(),
        };
        for round in 0..rounds {
            let mut cfg = ScenarioConfig::new(
                AppKind::WebcamUdp,
                0xF1614 + round * 733 + (eta * 1000.0) as u64,
                scale.cycle(),
            )
            .with_radio(RadioSpec::Intermittent { eta });
            cfg.datapath.rrc_periodic_check = rrc_period_for(scale.cycle());
            let r = run_scenario(&cfg);
            realised += r.eta;
            let records = cycle_records(&r);
            let cmp = compare_schemes(&records, &plan, cfg.seed).expect("pricing converges");
            for (i, scheme) in SCHEMES.iter().enumerate() {
                let charge = match scheme {
                    Scheme::Legacy => cmp.legacy.charge,
                    Scheme::TlcRandom => cmp.tlc_random.charge,
                    Scheme::TlcOptimal => cmp.tlc_optimal.charge,
                };
                sums[i] += cmp.gap_ratio(charge);
            }
        }
        let mut rows = Vec::with_capacity(SCHEMES.len());
        for (i, scheme) in SCHEMES.iter().enumerate() {
            rows.push(Fig14Row {
                eta_pct: eta * 100.0,
                realised_eta_pct: realised / rounds as f64 * 100.0,
                scheme: scheme.name(),
                gap_ratio: sums[i] / rounds as f64,
            });
        }
        rows
    });
    per_level.into_iter().flatten().collect()
}

/// Prints the figure's series.
pub fn print(rows: &[Fig14Row]) {
    println!("Fig. 14 — gap ratio vs intermittent disconnectivity η (UDP WebCam)");
    println!(
        "{:>7} {:>10} {:<14} {:>9}",
        "η tgt %", "η real %", "scheme", "ratio %"
    );
    for r in rows {
        println!(
            "{:>7.0} {:>10.1} {:<14} {:>8.2}%",
            r.eta_pct,
            r.realised_eta_pct,
            r.scheme,
            r.gap_ratio * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_grows_with_eta_and_tlc_wins() {
        let rows = run(RunScale::Quick);
        let pick = |scheme: &str, eta: f64| {
            rows.iter()
                .find(|r| r.scheme == scheme && (r.eta_pct - eta).abs() < 0.1)
                .unwrap()
                .gap_ratio
        };
        assert!(
            pick("Legacy 4G/5G", 15.0) > pick("Legacy 4G/5G", 5.0),
            "legacy must grow with η"
        );
        for eta in [5.0, 10.0, 15.0] {
            assert!(
                pick("TLC-optimal", eta) <= pick("Legacy 4G/5G", eta),
                "TLC must not exceed legacy at η={eta}"
            );
        }
    }

    #[test]
    fn realised_eta_tracks_target() {
        let rows = run(RunScale::Quick);
        for r in rows {
            assert!(
                (r.realised_eta_pct - r.eta_pct).abs() < 7.0,
                "target {} realised {}",
                r.eta_pct,
                r.realised_eta_pct
            );
        }
    }
}
