//! Ablation: scheduler discipline vs congestion gap.
//!
//! DESIGN.md flags our biggest known deviation from the testbed: under a
//! shared drop-tail queue, a thin flow shares fate with an iperf flood,
//! overstating the congestion gap relative to an eNodeB's
//! proportional-fair scheduler. This ablation quantifies the choice by
//! running the same congested cycles under both disciplines:
//!
//! * **FIFO/drop-tail** (the default, worst case for the thin flow),
//! * **DRR per-flow fair queueing** (`tlc_net::fair`, the PF-like case).
//!
//! The paper's qualitative claims must hold under *both* — TLC's
//! negotiated charge tracks x̂ regardless of how much the cell loses.

use super::sweep::rrc_period_for;
use super::RunScale;
use crate::measure::{compare_schemes, cycle_records};
use crate::scenario::{run_scenario, AppKind, ScenarioConfig};
use tlc_core::plan::DataPlan;

/// One ablation cell.
#[derive(Clone, Copy, Debug)]
pub struct AblationRow {
    /// Application.
    pub app: &'static str,
    /// Background load, Mbps.
    pub background_mbps: f64,
    /// Scheduler under test.
    pub scheduler: &'static str,
    /// The app's raw loss fraction (the congestion gap's source).
    pub loss_fraction: f64,
    /// Legacy 4G/5G gap ratio ε.
    pub legacy_ratio: f64,
    /// TLC-optimal gap ratio ε.
    pub tlc_ratio: f64,
}

/// Runs the ablation for the two uplink webcams and VR under load.
#[expect(
    clippy::expect_used,
    reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
)]
pub fn run(scale: RunScale) -> Vec<AblationRow> {
    let plan = DataPlan::paper_default();
    let mut rows = Vec::new();
    for app in [AppKind::WebcamUdp, AppKind::Vr] {
        for bg in [120.0, 160.0] {
            for fair in [false, true] {
                let mut cfg =
                    ScenarioConfig::new(app, 0xAB1A + bg as u64, scale.cycle()).with_background(bg);
                if fair {
                    cfg = cfg.with_fair_queueing();
                }
                cfg.datapath.rrc_periodic_check = rrc_period_for(scale.cycle());
                let r = run_scenario(&cfg);
                let records = cycle_records(&r);
                let cmp = compare_schemes(&records, &plan, cfg.seed).expect("pricing");
                let loss = (records.truth.edge - records.truth.operator) as f64
                    / records.truth.edge.max(1) as f64;
                rows.push(AblationRow {
                    app: app.name(),
                    background_mbps: bg,
                    scheduler: if fair { "DRR fair" } else { "FIFO drop-tail" },
                    loss_fraction: loss,
                    legacy_ratio: cmp.gap_ratio(cmp.legacy.charge),
                    tlc_ratio: cmp.gap_ratio(cmp.tlc_optimal.charge),
                });
            }
        }
    }
    rows
}

/// Prints the ablation table.
pub fn print(rows: &[AblationRow]) {
    println!("Ablation — scheduler discipline vs congestion gap");
    println!(
        "{:<18} {:>8} {:<15} {:>8} {:>10} {:>9}",
        "app", "bg Mbps", "scheduler", "loss %", "legacy ε", "TLC ε"
    );
    for r in rows {
        println!(
            "{:<18} {:>8.0} {:<15} {:>7.1}% {:>9.2}% {:>8.3}%",
            r.app,
            r.background_mbps,
            r.scheduler,
            r.loss_fraction * 100.0,
            r.legacy_ratio * 100.0,
            r.tlc_ratio * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_queueing_softens_congestion_loss() {
        let rows = run(RunScale::Quick);
        for app in ["WebCam (UDP)", "VRidge (GVSP)"] {
            for bg in [120.0, 160.0] {
                let get = |sched: &str| {
                    rows.iter()
                        .find(|r| r.app == app && r.background_mbps == bg && r.scheduler == sched)
                        .unwrap()
                };
                let fifo = get("FIFO drop-tail");
                let fair = get("DRR fair");
                assert!(
                    fair.loss_fraction < fifo.loss_fraction,
                    "{app}@{bg}: fair {} !< fifo {}",
                    fair.loss_fraction,
                    fifo.loss_fraction
                );
            }
        }
    }

    #[test]
    fn tlc_tracks_intended_under_both_schedulers() {
        // The paper's claim must be scheduler-independent.
        for r in run(RunScale::Quick) {
            assert!(
                r.tlc_ratio < 0.02,
                "{} / {}: TLC ε {}",
                r.app,
                r.scheduler,
                r.tlc_ratio
            );
            assert!(r.tlc_ratio < r.legacy_ratio);
        }
    }
}
