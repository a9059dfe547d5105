//! Extension: the link-layer mobility gap (§3.1 cause 2).
//!
//! "The moving device may switch its base stations or radio
//! technologies, in which the data can be lost." The paper taxonomises
//! this loss cause but evaluates stationary devices; this extension
//! sweeps the handover rate and shows the same TLC result holds: the
//! mobility-induced gap inflates the legacy bill and cancels out in the
//! negotiation.

use super::sweep::rrc_period_for;
use super::RunScale;
use crate::measure::{compare_schemes, cycle_records};
use crate::scenario::{run_scenario, AppKind, ScenarioConfig};
use tlc_core::plan::DataPlan;

/// One mobility level's outcome.
#[derive(Clone, Copy, Debug)]
pub struct MobilityRow {
    /// Handover rate, events/minute.
    pub handovers_per_minute: f64,
    /// Mean loss fraction of the app's traffic.
    pub loss_fraction: f64,
    /// Legacy gap ratio ε.
    pub legacy_ratio: f64,
    /// TLC-optimal gap ratio ε.
    pub tlc_ratio: f64,
}

/// Sweeps handover rates for the downlink VR stream (buffered bursts are
/// the most handover-exposed traffic).
#[expect(
    clippy::expect_used,
    reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
)]
pub fn run(scale: RunScale) -> Vec<MobilityRow> {
    let plan = DataPlan::paper_default();
    let rates = match scale {
        RunScale::Quick => vec![0.0, 6.0, 20.0],
        RunScale::Full => vec![0.0, 2.0, 6.0, 12.0, 20.0, 30.0],
    };
    rates
        .into_iter()
        .map(|rate| {
            let mut loss = 0.0;
            let mut legacy = 0.0;
            let mut tlc = 0.0;
            let rounds = scale.rounds();
            for round in 0..rounds {
                let mut cfg = ScenarioConfig::new(
                    AppKind::Vr,
                    0x0B11 + round * 31 + rate as u64,
                    scale.cycle(),
                )
                .with_handovers_per_minute(rate);
                // A slower cell keeps a standing queue, so handovers have
                // something to flush (as in a loaded commercial cell).
                cfg.datapath.dl_capacity_bps = 12_000_000;
                cfg.datapath.rrc_periodic_check = rrc_period_for(scale.cycle());
                let r = run_scenario(&cfg);
                let records = cycle_records(&r);
                let cmp = compare_schemes(&records, &plan, cfg.seed).expect("pricing");
                loss += (records.truth.edge - records.truth.operator) as f64
                    / records.truth.edge.max(1) as f64;
                legacy += cmp.gap_ratio(cmp.legacy.charge);
                tlc += cmp.gap_ratio(cmp.tlc_optimal.charge);
            }
            let n = rounds as f64;
            MobilityRow {
                handovers_per_minute: rate,
                loss_fraction: loss / n,
                legacy_ratio: legacy / n,
                tlc_ratio: tlc / n,
            }
        })
        .collect()
}

/// Prints the sweep.
pub fn print(rows: &[MobilityRow]) {
    println!("Extension — handover (mobility) gap, downlink VR");
    println!(
        "{:>8} {:>8} {:>10} {:>9}",
        "HO/min", "loss %", "legacy ε", "TLC ε"
    );
    for r in rows {
        println!(
            "{:>8.0} {:>7.1}% {:>9.2}% {:>8.3}%",
            r.handovers_per_minute,
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
    fn handovers_grow_the_legacy_gap_not_tlcs() {
        let rows = run(RunScale::Quick);
        let at = |rate: f64| {
            rows.iter()
                .find(|r| r.handovers_per_minute == rate)
                .unwrap()
        };
        assert!(
            at(20.0).loss_fraction > at(0.0).loss_fraction,
            "mobility must add loss: {} vs {}",
            at(20.0).loss_fraction,
            at(0.0).loss_fraction
        );
        assert!(at(20.0).legacy_ratio > at(0.0).legacy_ratio);
        for r in &rows {
            assert!(
                r.tlc_ratio < 0.02,
                "TLC ε {} at {} HO/min",
                r.tlc_ratio,
                r.handovers_per_minute
            );
        }
    }
}
