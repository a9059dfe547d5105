//! The shared congestion × application sweep behind Fig. 12, Table 2,
//! Fig. 13, and Fig. 16b.
//!
//! §7.1 runs every application under background loads of 0–160 Mbps and
//! repeats each configuration over many one-hour rounds; the charging
//! schemes are then priced on each round's records. One simulated round
//! here feeds *all* schemes (the negotiation operates on end-of-cycle
//! aggregates, so schemes never perturb the packet trace).

use super::RunScale;
use crate::measure::{compare_schemes, cycle_records, Comparison, CycleRecords};
use crate::scenario::{run_scenario, AppKind, ScenarioConfig, ALL_APPS};
use tlc_core::plan::{DataPlan, LossWeight};
use tlc_net::time::SimDuration;

/// One (app, background, seed) simulation round with its priced schemes.
pub struct SweepSample {
    /// Application under test.
    pub app: AppKind,
    /// Background load, Mbps.
    pub bg_mbps: f64,
    /// Seed of the round.
    pub seed: u64,
    /// Cycle length in seconds.
    pub cycle_secs: f64,
    /// Both parties' records and ground truth.
    pub records: CycleRecords,
    /// Priced schemes at the default plan (c = 0.5).
    pub comparison: Comparison,
    /// COUNTER CHECK messages exchanged during the cycle.
    pub counter_check_msgs: u64,
}

impl SweepSample {
    /// Re-prices this round under a different loss weight `c` — the
    /// records do not depend on the plan, so no re-simulation is needed
    /// (used by Fig. 15).
    #[expect(
        clippy::expect_used,
        reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
    )]
    pub fn reprice(&self, c: LossWeight) -> Comparison {
        let plan = DataPlan {
            loss_weight: c,
            ..DataPlan::paper_default()
        };
        compare_schemes(&self.records, &plan, self.seed).expect("pricing converges")
    }
}

/// The background levels of Fig. 3 / Fig. 13.
pub fn background_levels(scale: RunScale) -> &'static [f64] {
    match scale {
        RunScale::Quick => &[0.0, 120.0, 160.0],
        RunScale::Full => &[0.0, 100.0, 120.0, 140.0, 160.0],
    }
}

/// The (app, background, seed) cross product of a sweep, in the
/// canonical (sequential) order. Seeds are a pure function of the point,
/// so the parallel and sequential runners price identical rounds.
pub fn sweep_points(scale: RunScale, apps: &[AppKind], bgs: &[f64]) -> Vec<(AppKind, f64, u64)> {
    let mut points = Vec::with_capacity(apps.len() * bgs.len() * scale.rounds() as usize);
    for &app in apps {
        for &bg in bgs {
            for round in 0..scale.rounds() {
                points.push((app, bg, seed_for(app, bg, round)));
            }
        }
    }
    points
}

/// Runs a sweep over chosen apps and background levels, fanning the
/// points across a scoped thread pool ([`crate::par::par_map`]). Results
/// come back in canonical point order, so the output is byte-identical
/// to [`sweep_over_sequential`] for the same inputs.
pub fn sweep_over(scale: RunScale, apps: &[AppKind], bgs: &[f64]) -> Vec<SweepSample> {
    let plan = DataPlan::paper_default();
    let points = sweep_points(scale, apps, bgs);
    crate::par::par_map(&points, |&(app, bg, seed)| {
        run_one(app, bg, seed, scale.cycle(), &plan)
    })
}

/// The sequential twin of [`sweep_over`]: same points, same seeds, same
/// order, one thread. Kept for determinism audits and profiling.
pub fn sweep_over_sequential(scale: RunScale, apps: &[AppKind], bgs: &[f64]) -> Vec<SweepSample> {
    let plan = DataPlan::paper_default();
    sweep_points(scale, apps, bgs)
        .into_iter()
        .map(|(app, bg, seed)| run_one(app, bg, seed, scale.cycle(), &plan))
        .collect()
}

/// Runs a single sweep round.
#[expect(
    clippy::expect_used,
    reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
)]
pub fn run_one(
    app: AppKind,
    bg_mbps: f64,
    seed: u64,
    cycle: SimDuration,
    plan: &DataPlan,
) -> SweepSample {
    let mut cfg = ScenarioConfig::new(app, seed, cycle).with_background(bg_mbps);
    // Keep the RRC record reasonably fresh relative to short cycles.
    cfg.datapath.rrc_periodic_check = rrc_period_for(cycle);
    let r = run_scenario(&cfg);
    let records = cycle_records(&r);
    let comparison = compare_schemes(&records, plan, seed).expect("pricing converges");
    SweepSample {
        app,
        bg_mbps,
        seed,
        cycle_secs: cycle.as_secs_f64(),
        records,
        comparison,
        counter_check_msgs: r.counter_check_msgs,
    }
}

/// The periodic COUNTER CHECK interval: the paper-scale 30 s for hour
/// cycles, proportionally less for shortened test cycles so the RRC
/// record keeps the same relative freshness (~1% of the cycle).
pub fn rrc_period_for(cycle: SimDuration) -> SimDuration {
    let secs = (cycle.as_secs_f64() / 120.0).clamp(0.5, 30.0);
    SimDuration::from_secs_f64(secs)
}

fn seed_for(app: AppKind, bg: f64, round: u64) -> u64 {
    let app_ix = ALL_APPS.iter().position(|a| *a == app).unwrap_or(7) as u64;
    0x51EE_D000 + app_ix * 1000 + bg as u64 * 3 + round * 131
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_round_prices_all_schemes() {
        let s = run_one(
            AppKind::WebcamUdp,
            120.0,
            42,
            SimDuration::from_secs(20),
            &DataPlan::paper_default(),
        );
        assert!(s.records.truth.edge > 0);
        assert!(s.comparison.intended > 0);
        assert!(s.comparison.tlc_optimal.charge > 0);
    }

    #[test]
    fn reprice_changes_with_c() {
        let s = run_one(
            AppKind::Vr,
            150.0,
            43,
            SimDuration::from_secs(20),
            &DataPlan::paper_default(),
        );
        let c0 = s.reprice(LossWeight::ZERO);
        let c1 = s.reprice(LossWeight::new(1, 1));
        // With loss present, intended charge grows with c.
        assert!(c1.intended > c0.intended);
    }

    #[test]
    fn rrc_period_scales_with_cycle() {
        assert_eq!(
            rrc_period_for(SimDuration::from_secs(3600)),
            SimDuration::from_secs(30)
        );
        assert!(rrc_period_for(SimDuration::from_secs(30)) < SimDuration::from_secs(1));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        // Force real multi-threading (the host may report 1 CPU) and
        // check the parallel runner reproduces the sequential twin
        // exactly, down to the printed experiment rows.
        let apps = [AppKind::Gaming];
        let bgs = [150.0];
        let plan = DataPlan::paper_default();
        let points = sweep_points(RunScale::Quick, &apps, &bgs);
        let par = crate::par::par_map_threads(3, &points, |&(app, bg, seed)| {
            run_one(app, bg, seed, RunScale::Quick.cycle(), &plan)
        });
        let seq = sweep_over_sequential(RunScale::Quick, &apps, &bgs);
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.app, s.app);
            assert_eq!(p.seed, s.seed);
            assert_eq!(p.counter_check_msgs, s.counter_check_msgs);
            assert_eq!(format!("{:?}", p.records), format!("{:?}", s.records));
            assert_eq!(format!("{:?}", p.comparison), format!("{:?}", s.comparison));
        }
        let rows_par = crate::experiments::fig13::from_samples(&par);
        let rows_seq = crate::experiments::fig13::from_samples(&seq);
        assert_eq!(
            format!("{rows_par:?}"),
            format!("{rows_seq:?}"),
            "experiment rows must be byte-identical"
        );
    }

    #[test]
    fn seeds_are_distinct_across_rounds() {
        let a = seed_for(AppKind::Vr, 100.0, 0);
        let b = seed_for(AppKind::Vr, 100.0, 1);
        let c = seed_for(AppKind::Gaming, 100.0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
