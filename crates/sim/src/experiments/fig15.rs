//! Fig. 15 — TLC-optimal's gap reduction under different data plans `c`.
//!
//! µ = (Δ_legacy − Δ_TLC)/Δ_legacy, as a CDF across experiment rounds,
//! for c ∈ {0, 0.25, 0.5, 0.75, 1}. Smaller c (less charging weight on
//! lost data) leaves legacy with larger gaps, so TLC reduces more; at
//! c = 1 the legacy downlink billing *is* the plan-intended charge and
//! the remaining reduction comes from measurement differences only.

use super::sweep::SweepSample;
use crate::metrics::Cdf;
use tlc_core::legacy::gap_reduction;
use tlc_core::plan::LossWeight;
use tlc_net::packet::Direction;

/// The plan weights of the figure.
const C_VALUES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One curve: the reduction distribution at a plan weight.
pub struct Fig15Curve {
    /// Plan weight c.
    pub c: f64,
    /// Distribution of µ across rounds.
    pub cdf: Cdf,
}

/// Re-prices a congestion sweep's downlink rounds at each plan weight.
/// The figure is about downlink apps (where legacy billing sits before
/// the loss, the paper's dominant case); uplink rounds are skipped
/// here, so every caller may hand over the whole sweep.
pub fn from_samples(samples: &[SweepSample]) -> Vec<Fig15Curve> {
    let downlink = |s: &&SweepSample| s.app.direction() == Direction::Downlink;
    C_VALUES
        .iter()
        .map(|&c| {
            let w = LossWeight::from_f64(c);
            let mut cdf = Cdf::new();
            for s in samples.iter().filter(downlink) {
                let cmp = s.reprice(w);
                let legacy_gap = cmp.gap(cmp.legacy.charge);
                let tlc_gap = cmp.gap(cmp.tlc_optimal.charge);
                // At c = 1 the legacy downlink bill *is* the plan-intended
                // charge (the paper: "TLC is the same as the honest legacy
                // 4G/5G"); reduction is only meaningful when legacy has a
                // material gap to reduce.
                if legacy_gap as f64 > cmp.intended as f64 * 0.002 {
                    cdf.push(gap_reduction(legacy_gap, tlc_gap) * 100.0);
                }
            }
            Fig15Curve { c, cdf }
        })
        .collect()
}

/// Prints each curve's quantiles.
pub fn print(curves: &mut [Fig15Curve]) {
    println!("Fig. 15 — TLC-optimal gap reduction µ (%) by plan weight c");
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>8}",
        "c", "p25", "p50", "p75", "mean"
    );
    for cu in curves.iter_mut() {
        println!(
            "{:>5.2} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            cu.c,
            cu.cdf.quantile(0.25),
            cu.cdf.quantile(0.50),
            cu.cdf.quantile(0.75),
            cu.cdf.mean(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::sweep_over;
    use crate::experiments::RunScale;
    use crate::scenario::AppKind;

    #[test]
    fn uplink_rounds_do_not_move_the_curves() {
        // `tlc eval` hands over the whole sweep, webcams included; the
        // figure must be the one the downlink rounds alone give.
        let curves = |samples: &[SweepSample]| -> Vec<Vec<(f64, f64)>> {
            let mut curves = from_samples(samples);
            curves.iter_mut().map(|cu| cu.cdf.points()).collect()
        };
        let mut samples = sweep_over(RunScale::Quick, &[AppKind::Vr], &[150.0]);
        let alone = curves(&samples);
        assert!(alone.iter().any(|points| !points.is_empty()));
        samples.extend(sweep_over(RunScale::Quick, &[AppKind::WebcamUdp], &[150.0]));
        assert_eq!(curves(&samples), alone);
    }

    #[test]
    fn smaller_c_means_more_reduction() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::Vr], &[150.0]);
        let curves = from_samples(&samples);
        let mean = |c: f64| curves.iter().find(|cu| cu.c == c).unwrap().cdf.mean();
        // Downlink: legacy gap = (1−c)·loss, so reduction shrinks as c→1.
        assert!(
            mean(0.0) >= mean(0.75),
            "c=0 mean {} !>= c=0.75 mean {}",
            mean(0.0),
            mean(0.75)
        );
    }

    #[test]
    fn reductions_are_mostly_positive() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::Vr], &[120.0]);
        let curves = from_samples(&samples);
        for cu in &curves {
            if cu.c < 1.0 && !cu.cdf.is_empty() {
                assert!(
                    cu.cdf.mean() > 0.0,
                    "c={}: mean reduction {}",
                    cu.c,
                    cu.cdf.mean()
                );
            }
        }
    }
}
