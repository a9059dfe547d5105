//! §8 / Appendix D — TLC in generic (non-edge) mobile data charging.
//!
//! When the server is an arbitrary Internet host rather than a co-located
//! edge server, downlink data can be lost *between the server and the
//! 4G/5G core*. The edge then reports `x̂'_e ≥ x̂_e` (server-sent instead
//! of core-received), and Appendix D proves the resulting over-charge is
//! bounded: `x̂' − x̂ = c · (x̂'_e − x̂_e)` — still better than legacy's
//! unbounded selfish charging.

use super::sweep::run_one;
use super::RunScale;
use crate::scenario::AppKind;
use tlc_core::game::generic_downlink_overcharge_bound;
use tlc_core::plan::{charge_for, DataPlan, LossWeight, UsagePair};

/// One internet-loss configuration's outcome.
#[derive(Clone, Copy, Debug)]
pub struct GenericRow {
    /// Internet-side loss rate between server and core.
    pub internet_loss: f64,
    /// Plan weight c.
    pub c: f64,
    /// The over-charge actually incurred, bytes.
    pub overcharge: u64,
    /// Appendix D's bound `c · (x̂'_e − x̂_e)`, bytes.
    pub bound: u64,
}

/// Regenerates the Appendix-D validation: a downlink VR cycle, with the
/// server moved to the Internet behind a lossy path.
pub fn run(scale: RunScale) -> Vec<GenericRow> {
    let plan = DataPlan::paper_default();
    let base = run_one(AppKind::Vr, 0.0, 0xD00D, scale.cycle(), &plan);
    // Core-received and device-received truth from the edge scenario.
    let core_received = base.records.truth.edge; // gateway ingress
    let device_received = base.records.truth.operator;

    let mut rows = Vec::new();
    for &p in &[0.0, 0.02, 0.05, 0.10] {
        for &c in &[0.0, 0.5, 1.0] {
            let w = LossWeight::from_f64(c);
            // The Internet server sent more than the core received:
            // x̂'_e = core_received / (1 − p).
            let server_sent = (core_received as f64 / (1.0 - p)).round() as u64;
            // Intended charge uses core-received (x̂_e at the core).
            let intended = charge_for(
                UsagePair {
                    edge: core_received,
                    operator: device_received,
                },
                w,
            );
            // The negotiation prices the edge's inflated report.
            let negotiated = charge_for(
                UsagePair {
                    edge: server_sent,
                    operator: device_received,
                },
                w,
            );
            let overcharge = negotiated.saturating_sub(intended);
            let bound = generic_downlink_overcharge_bound(server_sent, core_received, w);
            rows.push(GenericRow {
                internet_loss: p,
                c,
                overcharge,
                bound,
            });
        }
    }
    rows
}

/// Prints the validation table.
pub fn print(rows: &[GenericRow]) {
    println!("Appendix D — generic-charging over-charge vs bound");
    println!(
        "{:>9} {:>5} {:>14} {:>14}",
        "inet loss", "c", "overcharge B", "bound B"
    );
    for r in rows {
        println!(
            "{:>8.0}% {:>5.2} {:>14} {:>14}",
            r.internet_loss * 100.0,
            r.c,
            r.overcharge,
            r.bound
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overcharge_never_exceeds_bound() {
        for r in run(RunScale::Quick) {
            assert!(
                r.overcharge <= r.bound + 1, // +1 for rounding of x̂'_e
                "loss {} c {}: overcharge {} > bound {}",
                r.internet_loss,
                r.c,
                r.overcharge,
                r.bound
            );
        }
    }

    #[test]
    fn no_internet_loss_means_no_overcharge() {
        for r in run(RunScale::Quick)
            .iter()
            .filter(|r| r.internet_loss == 0.0)
        {
            assert_eq!(r.overcharge, 0);
            assert_eq!(r.bound, 0);
        }
    }

    #[test]
    fn c_zero_is_immune() {
        // Receiver-only charging ignores sender-side inflation entirely.
        for r in run(RunScale::Quick).iter().filter(|r| r.c == 0.0) {
            assert_eq!(r.overcharge, 0);
        }
    }
}
