//! Fig. 13 — gap ratio (%) vs background traffic, per application and
//! scheme.
//!
//! The legacy gap ratio grows with congestion; TLC-optimal stays flat
//! (its residual is measurement error, independent of loss). The gaming
//! subfigure shows QCI=7 shielding even the legacy scheme.

use super::fig12::SCHEMES;
use super::sweep::SweepSample;
use crate::scenario::ALL_APPS;

/// One point: mean gap ratio for (app, scheme, background level).
#[derive(Clone, Copy, Debug)]
pub struct Fig13Row {
    /// Application name.
    pub app: &'static str,
    /// Scheme label.
    pub scheme: &'static str,
    /// Background load, Mbps.
    pub background_mbps: f64,
    /// Mean ε = Δ/x̂ across rounds.
    pub gap_ratio: f64,
}

/// Builds the rows from a congestion sweep's samples.
pub fn from_samples(samples: &[SweepSample]) -> Vec<Fig13Row> {
    let mut rows = Vec::new();
    for app in ALL_APPS {
        let mut bgs: Vec<f64> = samples
            .iter()
            .filter(|s| s.app == app)
            .map(|s| s.bg_mbps)
            .collect();
        bgs.sort_by(f64::total_cmp);
        bgs.dedup();
        for bg in bgs {
            for scheme in SCHEMES {
                let mine: Vec<&SweepSample> = samples
                    .iter()
                    .filter(|s| s.app == app && s.bg_mbps == bg)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                let eps = mine
                    .iter()
                    .map(|s| s.comparison.gap_ratio(scheme.charge(s)))
                    .sum::<f64>()
                    / mine.len() as f64;
                rows.push(Fig13Row {
                    app: app.name(),
                    scheme: scheme.name(),
                    background_mbps: bg,
                    gap_ratio: eps,
                });
            }
        }
    }
    rows
}

/// Prints the figure's series.
pub fn print(rows: &[Fig13Row]) {
    println!("Fig. 13 — gap ratio (%) under congestion");
    println!(
        "{:<18} {:<14} {:>8} {:>9}",
        "app", "scheme", "bg Mbps", "ratio %"
    );
    for r in rows {
        println!(
            "{:<18} {:<14} {:>8.0} {:>8.2}%",
            r.app,
            r.scheme,
            r.background_mbps,
            r.gap_ratio * 100.0
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
    fn legacy_ratio_grows_with_congestion_tlc_stays_low() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::Vr], &[0.0, 150.0]);
        let rows = from_samples(&samples);
        let pick = |scheme: &str, bg: f64| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.background_mbps == bg)
                .unwrap()
                .gap_ratio
        };
        assert!(pick("Legacy 4G/5G", 150.0) > pick("Legacy 4G/5G", 0.0) * 2.0);
        assert!(pick("TLC-optimal", 150.0) < pick("Legacy 4G/5G", 150.0));
        // TLC-optimal stays below a few percent even congested.
        assert!(pick("TLC-optimal", 150.0) < 0.05);
    }

    #[test]
    fn gaming_is_shielded_by_qci() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::Gaming], &[160.0]);
        let rows = from_samples(&samples);
        let legacy = rows
            .iter()
            .find(|r| r.scheme == "Legacy 4G/5G")
            .unwrap()
            .gap_ratio;
        // Paper Fig. 13d: negligible even for legacy (≈3% at worst).
        assert!(legacy < 0.06, "gaming legacy ratio {legacy}");
    }
}
