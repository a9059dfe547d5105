//! §5.4's monitor strawmen, quantified end-to-end.
//!
//! The operator must learn the device's received downlink volume. The
//! paper compares three mechanisms; this experiment runs a selfish edge
//! (under-reporting by various factors) against each and measures the
//! operator's revenue loss per cycle:
//!
//! * **Strawman 1** (user-space API monitor): fully tamperable — the
//!   operator's record follows the edge's lie, and the negotiation's
//!   cross-check can no longer catch the under-claim (the operator's own
//!   "truth" is the tampered number).
//! * **Strawman 2** (rooted system monitor) and **TLC's RRC COUNTER
//!   CHECK**: tamper-resilient — the under-claim is caught by the
//!   cross-check and cancels out in the negotiation.

use super::sweep::rrc_period_for;
use super::RunScale;
use crate::measure::cycle_records;
use crate::scenario::{run_scenario, AppKind, ScenarioConfig};
use tlc_cell::monitor::{operator_downlink_report, MonitorKind, TamperPolicy};
use tlc_core::cancellation::{negotiate, DEFAULT_MAX_ROUNDS};
use tlc_core::plan::{intended_charge, DataPlan};
use tlc_core::strategy::OptimalStrategy;

/// One (monitor, tamper) cell.
#[derive(Clone, Copy, Debug)]
pub struct StrawmanRow {
    /// Monitor mechanism.
    pub monitor: &'static str,
    /// The selfish edge's under-report factor (1.0 = honest).
    pub edge_report_factor: f64,
    /// The negotiated charge, bytes.
    pub charge: u64,
    /// Plan-intended charge, bytes.
    pub intended: u64,
    /// Operator revenue lost to the tamper, fraction of intended.
    pub revenue_loss: f64,
}

fn monitor_name(kind: MonitorKind) -> &'static str {
    match kind {
        MonitorKind::UserSpaceApi => "strawman 1: user-space API",
        MonitorKind::RootedSystemMonitor => "strawman 2: rooted monitor",
        MonitorKind::RrcCounterCheck => "TLC: RRC COUNTER CHECK",
    }
}

/// Runs the comparison on one clean downlink VR cycle.
#[expect(
    clippy::expect_used,
    reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
)]
pub fn run(scale: RunScale) -> Vec<StrawmanRow> {
    let plan = DataPlan::paper_default();
    let mut cfg = ScenarioConfig::new(AppKind::Vr, 0x57AA, scale.cycle());
    cfg.datapath.rrc_periodic_check = rrc_period_for(scale.cycle());
    let r = run_scenario(&cfg);
    let base = cycle_records(&r);
    let modem_truth = r.app.modem_received.bytes();
    let intended = intended_charge(base.truth, plan.loss_weight);

    let mut rows = Vec::new();
    for kind in [
        MonitorKind::UserSpaceApi,
        MonitorKind::RootedSystemMonitor,
        MonitorKind::RrcCounterCheck,
    ] {
        for factor in [1.0, 0.5, 0.1] {
            // The selfish edge scales whatever the monitor lets it touch.
            let report = operator_downlink_report(kind, modem_truth, TamperPolicy::Scale(factor));
            // The operator's knowledge now rests on that report; for the
            // RRC mechanism substitute the scenario's lagging RRC view
            // (the realistic record), otherwise the raw report.
            let operator_truth = match kind {
                // The tamper attempt never reaches the modem: the record
                // stays the scenario's genuine (lagging) RRC view.
                MonitorKind::RrcCounterCheck => base.operator.own_truth,
                // The other monitors report whatever they saw — which for
                // strawman 1 is the edge's lie.
                _ => report.reported_bytes,
            };
            let operator = tlc_core::strategy::Knowledge {
                own_truth: operator_truth,
                ..base.operator
            };
            // The selfish edge also under-claims in the negotiation,
            // claiming exactly what the (possibly fooled) monitor shows.
            let edge = tlc_core::strategy::Knowledge {
                inferred_peer_truth: report.reported_bytes.min(base.edge.inferred_peer_truth),
                ..base.edge
            };
            let out = negotiate(
                &plan,
                &mut OptimalStrategy,
                &edge,
                &mut OptimalStrategy,
                &operator,
                DEFAULT_MAX_ROUNDS,
            )
            .expect("negotiation converges");
            rows.push(StrawmanRow {
                monitor: monitor_name(kind),
                edge_report_factor: factor,
                charge: out.charge,
                intended,
                revenue_loss: (intended.saturating_sub(out.charge)) as f64 / intended as f64,
            });
        }
    }
    rows
}

/// Prints the comparison.
pub fn print(rows: &[StrawmanRow]) {
    println!("§5.4 strawmen — selfish-edge under-reporting vs monitor mechanism");
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>10}",
        "monitor", "factor", "charge B", "intended B", "rev. loss"
    );
    for r in rows {
        println!(
            "{:<28} {:>8.1} {:>12} {:>12} {:>9.1}%",
            r.monitor,
            r.edge_report_factor,
            r.charge,
            r.intended,
            r.revenue_loss * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_strawman1_loses_revenue() {
        let rows = run(RunScale::Quick);
        for r in &rows {
            if r.edge_report_factor == 1.0 {
                // Honest edge: every monitor prices near intended.
                assert!(
                    r.revenue_loss.abs() < 0.02,
                    "{}: {}",
                    r.monitor,
                    r.revenue_loss
                );
                continue;
            }
            match (r.monitor, r.edge_report_factor) {
                // Tampered user-space monitor: real revenue loss.
                ("strawman 1: user-space API", _) => {
                    assert!(
                        r.revenue_loss > 0.2,
                        "strawman1 at {} lost only {}",
                        r.edge_report_factor,
                        r.revenue_loss
                    )
                }
                // Tamper-resilient monitors: loss stays negligible.
                _ => assert!(
                    r.revenue_loss < 0.02,
                    "{} at {} lost {}",
                    r.monitor,
                    r.edge_report_factor,
                    r.revenue_loss
                ),
            }
        }
    }

    #[test]
    fn deeper_tampering_loses_more_on_strawman1() {
        let rows = run(RunScale::Quick);
        let loss = |f: f64| {
            rows.iter()
                .find(|r| r.monitor.starts_with("strawman 1") && r.edge_report_factor == f)
                .unwrap()
                .revenue_loss
        };
        assert!(loss(0.1) > loss(0.5));
    }
}
