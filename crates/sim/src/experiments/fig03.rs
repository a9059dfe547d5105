//! Fig. 3 — the raw charging gap under various congestion levels.
//!
//! "The data charging gap in various congestion levels (RSS ≥ −95 dBm,
//! iperf UDP background traffic)." The y-axis is the per-hour gap between
//! the operator's gateway meter and the edge's endpoint meter — i.e. the
//! loss volume — for WebCam (RTSP, UL), WebCam (UDP, UL), and VRidge
//! (GVSP, DL), at background loads of 0–160 Mbps.

use super::sweep::run_one;
use super::RunScale;
use crate::metrics::bytes_to_mb_per_hr;
use crate::scenario::AppKind;
use tlc_core::plan::DataPlan;

/// Applications shown in Fig. 3.
pub const FIG03_APPS: [AppKind; 3] = [AppKind::WebcamRtsp, AppKind::WebcamUdp, AppKind::Vr];

/// One point of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Fig03Row {
    /// Application name.
    pub app: &'static str,
    /// Background traffic, Mbps.
    pub background_mbps: f64,
    /// Mean raw gap (loss volume), MB per hour.
    pub gap_mb_per_hr: f64,
    /// Mean gap as a fraction of the edge-side volume.
    pub gap_fraction: f64,
}

/// Regenerates the figure's series. The (app, background) cells fan out
/// across the sweep thread pool; each cell's rounds stay sequential, so
/// every row is byte-identical to the single-threaded runner's.
pub fn run(scale: RunScale) -> Vec<Fig03Row> {
    let plan = DataPlan::paper_default();
    let mut cells = Vec::new();
    for app in FIG03_APPS {
        for &bg in super::sweep::background_levels(scale) {
            cells.push((app, bg));
        }
    }
    crate::par::par_map(&cells, |&(app, bg)| {
        let mut gap_mb = 0.0;
        let mut frac = 0.0;
        let rounds = scale.rounds();
        for round in 0..rounds {
            let s = run_one(
                app,
                bg,
                0xF1603 + round * 977 + bg as u64,
                scale.cycle(),
                &plan,
            );
            let loss = s.records.truth.edge - s.records.truth.operator;
            gap_mb += bytes_to_mb_per_hr(loss, s.cycle_secs);
            frac += loss as f64 / s.records.truth.edge.max(1) as f64;
        }
        Fig03Row {
            app: app.name(),
            background_mbps: bg,
            gap_mb_per_hr: gap_mb / rounds as f64,
            gap_fraction: frac / rounds as f64,
        }
    })
}

/// Prints the series in the paper's layout.
pub fn print(rows: &[Fig03Row]) {
    println!("Fig. 3 — charging gap/hr (MB) vs background traffic (Mbps)");
    println!(
        "{:<18} {:>8} {:>14} {:>8}",
        "app", "bg Mbps", "gap MB/hr", "gap %"
    );
    for r in rows {
        println!(
            "{:<18} {:>8.0} {:>14.2} {:>7.1}%",
            r.app,
            r.background_mbps,
            r.gap_mb_per_hr,
            r.gap_fraction * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_grows_with_congestion() {
        let rows = run(RunScale::Quick);
        // For each app: gap at the top background level exceeds gap at 0.
        for app in FIG03_APPS {
            let series: Vec<_> = rows.iter().filter(|r| r.app == app.name()).collect();
            let at0 = series
                .iter()
                .find(|r| r.background_mbps == 0.0)
                .expect("bg=0 present");
            let at_max = series
                .iter()
                .max_by(|a, b| a.background_mbps.total_cmp(&b.background_mbps))
                .expect("nonempty");
            assert!(
                at_max.gap_mb_per_hr > at0.gap_mb_per_hr,
                "{}: {} !> {}",
                app.name(),
                at_max.gap_mb_per_hr,
                at0.gap_mb_per_hr
            );
        }
    }

    #[test]
    fn baseline_gap_is_small_in_good_radio() {
        let rows = run(RunScale::Quick);
        for r in rows.iter().filter(|r| r.background_mbps == 0.0) {
            // Paper: ~7-8% loss fraction in good radio; ours is residual
            // air loss only, well under 10%.
            assert!(r.gap_fraction < 0.10, "{}: {}", r.app, r.gap_fraction);
        }
    }
}
