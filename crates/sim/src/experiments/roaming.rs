//! Extension: three-party roaming settlement at twin scale
//! (DESIGN §14).
//!
//! Runs the roaming-enabled digital twin over a small scenario pack —
//! a home-only baseline, mid-cycle operator handovers, bonded
//! dual-link devices, and a congested visited network — and reports
//! the numbers a settlement auditor would check: how the charged
//! volume divides across home operator / visited operator / edge
//! vendor, the conservation residual (must be exactly zero), and the
//! same legacy-vs-TLC gap closure the two-party figures report.

use super::RunScale;
use crate::twin::{run_twin, NullSink, RoamingTwinConfig, TwinConfig, TwinReport};
use tlc_net::time::SimDuration;

/// One roaming scenario's outcome.
#[derive(Clone, Copy, Debug)]
pub struct RoamingRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Cycles settled through the three-party agreement.
    pub cycles: u64,
    /// Operator (home↔visited) handovers executed.
    pub operator_handovers: u64,
    /// Bonded cycles reconciled from per-link CDRs.
    pub bonded_cycles: u64,
    /// Total charged volume, bytes.
    pub charged: u64,
    /// Home operator's share of the charged volume.
    pub home_share: f64,
    /// Visited operator's share of the charged volume.
    pub visited_share: f64,
    /// Edge vendor's share of the charged volume.
    pub vendor_share: f64,
    /// `|home + visited + vendor − charged|` — conservation demands 0.
    pub conservation_residual: u64,
    /// Aggregate legacy gap ratio ε.
    pub legacy_ratio: f64,
    /// Aggregate TLC gap ratio ε.
    pub tlc_ratio: f64,
}

fn row(scenario: &'static str, r: &TwinReport) -> RoamingRow {
    let charged = r.roaming.charged;
    let share = |part: u64| {
        if charged == 0 {
            0.0
        } else {
            part as f64 / charged as f64
        }
    };
    let split_total = r
        .roaming
        .home
        .saturating_add(r.roaming.visited)
        .saturating_add(r.roaming.vendor);
    RoamingRow {
        scenario,
        cycles: r.roaming.cycles_settled,
        operator_handovers: r.roaming.operator_handovers,
        bonded_cycles: r.roaming.bonded_cycles,
        charged,
        home_share: share(r.roaming.home),
        visited_share: share(r.roaming.visited),
        vendor_share: share(r.roaming.vendor),
        conservation_residual: split_total.abs_diff(charged),
        legacy_ratio: r.sweep.legacy_gap_ratio(),
        tlc_ratio: r.sweep.tlc_gap_ratio(),
    }
}

fn base_config(scale: RunScale, seed: u64) -> TwinConfig {
    let mut cfg = TwinConfig::smoke(seed);
    cfg.roaming = Some(RoamingTwinConfig::paper_default());
    // Worker threads (TLC_TWIN_THREADS) may not change a single
    // settled byte: CI runs the pack at 1 and 2 and diffs the output.
    if let Ok(t) = std::env::var("TLC_TWIN_THREADS") {
        if let Ok(t) = t.parse::<usize>() {
            cfg.threads = t.clamp(1, 64);
        }
    }
    match scale {
        RunScale::Quick => {
            cfg.initial_sessions = 400;
            cfg.duration = SimDuration::from_secs(8);
        }
        RunScale::Full => {
            cfg.initial_sessions = 10_000;
            cfg.shards = 8;
            cfg.duration = SimDuration::from_secs(30);
        }
    }
    cfg
}

fn with_roaming(cfg: &mut TwinConfig, f: impl FnOnce(&mut RoamingTwinConfig)) {
    if let Some(rc) = cfg.roaming.as_mut() {
        f(rc);
    }
}

/// The scenario pack.
pub fn run(scale: RunScale) -> Vec<RoamingRow> {
    let seed = 0x4F_4D;
    let mut out = Vec::with_capacity(4);

    // Home-only baseline: nobody roams, so the visited operator must
    // earn exactly zero and the split is a pure vendor/home carve.
    let mut home_only = base_config(scale, seed);
    with_roaming(&mut home_only, |rc| {
        rc.roamer_fraction = 0.0;
        rc.bonded_fraction = 0.0;
    });
    out.push(row("home-only", &run_twin(&home_only, &mut NullSink)));

    // Every device roams and hands over mid-cycle.
    let mut handover = base_config(scale, seed + 1);
    with_roaming(&mut handover, |rc| {
        rc.roamer_fraction = 1.0;
        rc.bonded_fraction = 0.0;
        rc.operator_handover_gap = SimDuration::from_millis(900);
    });
    out.push(row(
        "mid-cycle-handover",
        &run_twin(&handover, &mut NullSink),
    ));

    // Bonded dual-link devices (half of them roaming too).
    let mut bonded = base_config(scale, seed + 2);
    with_roaming(&mut bonded, |rc| {
        rc.roamer_fraction = 0.5;
        rc.bonded_fraction = 1.0;
    });
    out.push(row("bonded-dual-link", &run_twin(&bonded, &mut NullSink)));

    // Roamers on a congested (lossy) visited network: the cell
    // capacity cap forces congestion loss, widening the legacy gap
    // that TLC then closes.
    let mut lossy = base_config(scale, seed + 3);
    lossy.cell_capacity_bytes_per_epoch = (lossy.initial_sessions as u64) * 40_000;
    with_roaming(&mut lossy, |rc| {
        rc.roamer_fraction = 1.0;
        rc.operator_handover_gap = SimDuration::from_millis(1_200);
    });
    out.push(row("visited-lossy", &run_twin(&lossy, &mut NullSink)));

    out
}

/// Prints the scenario pack in the evaluation's figure style.
pub fn print(rows: &[RoamingRow]) {
    println!("Extension — three-party roaming settlement (gap closure and split conservation)");
    println!(
        "{:>20} {:>8} {:>8} {:>8} {:>14} {:>7} {:>8} {:>7} {:>6} {:>9} {:>8}",
        "scenario",
        "cycles",
        "op-HOs",
        "bonded",
        "charged B",
        "home",
        "visited",
        "vendor",
        "resid",
        "legacy ε",
        "TLC ε"
    );
    for r in rows {
        println!(
            "{:>20} {:>8} {:>8} {:>8} {:>14} {:>6.1}% {:>7.1}% {:>6.1}% {:>6} {:>8.2}% {:>7.3}%",
            r.scenario,
            r.cycles,
            r.operator_handovers,
            r.bonded_cycles,
            r.charged,
            r.home_share * 100.0,
            r.visited_share * 100.0,
            r.vendor_share * 100.0,
            r.conservation_residual,
            r.legacy_ratio * 100.0,
            r.tlc_ratio * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_pack_conserves_and_closes_the_gap() {
        let rows = run(RunScale::Quick);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.cycles > 0, "{}: no cycles settled", r.scenario);
            assert_eq!(
                r.conservation_residual, 0,
                "{}: split leaked {} bytes",
                r.scenario, r.conservation_residual
            );
            assert!(
                r.tlc_ratio <= r.legacy_ratio,
                "{}: TLC ε {} must not exceed legacy ε {}",
                r.scenario,
                r.tlc_ratio,
                r.legacy_ratio
            );
        }
        let by_name = |n: &str| rows.iter().find(|r| r.scenario == n).copied();
        let home_only = by_name("home-only").expect("home-only row");
        assert_eq!(home_only.visited_share, 0.0, "nobody roamed");
        assert_eq!(home_only.operator_handovers, 0);
        let handover = by_name("mid-cycle-handover").expect("handover row");
        assert!(handover.operator_handovers > 0);
        assert!(handover.visited_share > 0.0);
        let bonded = by_name("bonded-dual-link").expect("bonded row");
        assert!(bonded.bonded_cycles > 0);
        let lossy = by_name("visited-lossy").expect("lossy row");
        assert!(
            lossy.legacy_ratio > home_only.legacy_ratio,
            "congestion must widen the legacy gap: {} !> {}",
            lossy.legacy_ratio,
            home_only.legacy_ratio
        );
    }
}
