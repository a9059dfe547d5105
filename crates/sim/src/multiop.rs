//! Multi-access edge across several operators (§8).
//!
//! "Some edge scenarios combine multiple operators' 4G/5G to improve
//! coverage. TLC can be extended to this scenario: for each 4G/5G
//! operator, the edge nodes run TLC to negotiate the per-operator
//! charging. ... the edge should classify its data traffic by operators
//! when generating the charging records."
//!
//! Each operator gets its own emulated cell, its own tamper-resilient
//! monitors, its own TLC instance — and the edge's total bill is the sum
//! of independently negotiated, independently verifiable charges.

use crate::measure::{compare_schemes, cycle_records, Comparison, CycleRecords};
use crate::scenario::{run_scenario, AppKind, RadioSpec, ScenarioConfig};
use tlc_core::plan::DataPlan;
use tlc_net::time::SimDuration;

/// One operator's slice of the edge deployment.
#[derive(Clone, Debug)]
pub struct OperatorSlice {
    /// Operator name (for reporting).
    pub name: &'static str,
    /// The radio condition of this operator's cell at the device.
    pub radio: RadioSpec,
    /// Congestion on this operator's cell, Mbps.
    pub background_mbps: f64,
    /// The data plan agreed with this operator (plans may differ!).
    pub plan: DataPlan,
}

/// The per-operator outcome.
pub struct OperatorOutcome {
    /// Operator name.
    pub name: &'static str,
    /// That cell's cycle records.
    pub records: CycleRecords,
    /// Priced schemes under that operator's plan.
    pub comparison: Comparison,
}

/// The combined multi-operator cycle result.
pub struct MultiOperatorOutcome {
    /// One outcome per operator, in input order.
    pub per_operator: Vec<OperatorOutcome>,
}

impl MultiOperatorOutcome {
    /// The edge's total TLC-negotiated bill across operators.
    pub fn total_tlc_charge(&self) -> u64 {
        self.per_operator
            .iter()
            .map(|o| o.comparison.tlc_optimal.charge)
            .sum()
    }

    /// The total legacy bill across operators.
    pub fn total_legacy_charge(&self) -> u64 {
        self.per_operator
            .iter()
            .map(|o| o.comparison.legacy.charge)
            .sum()
    }

    /// The total plan-intended charge.
    pub fn total_intended(&self) -> u64 {
        self.per_operator
            .iter()
            .map(|o| o.comparison.intended)
            .sum()
    }
}

/// Runs one edge application's charging cycle across several operators.
///
/// The edge classifies its traffic per operator; here each operator
/// carries an independent instance of the application stream (its share
/// of the classified traffic), over its own cell conditions, with its
/// own plan — and TLC negotiates per operator.
#[expect(
    clippy::expect_used,
    reason = "in-process pricing has no faulty peer: every scheme converges within the round cap"
)]
pub fn run_multi_operator(
    app: AppKind,
    cycle: SimDuration,
    operators: &[OperatorSlice],
    seed: u64,
) -> MultiOperatorOutcome {
    let per_operator = operators
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut cfg = ScenarioConfig::new(app, seed ^ (0x0b0 + i as u64 * 7919), cycle)
                .with_background(op.background_mbps)
                .with_radio(op.radio);
            cfg.datapath.rrc_periodic_check = crate::experiments::sweep::rrc_period_for(cycle);
            let r = run_scenario(&cfg);
            let records = cycle_records(&r);
            let comparison =
                compare_schemes(&records, &op.plan, cfg.seed).expect("pricing converges");
            OperatorOutcome {
                name: op.name,
                records,
                comparison,
            }
        })
        .collect();
    MultiOperatorOutcome { per_operator }
}

#[cfg(test)]
impl OperatorOutcome {
    /// Test helper: the paper-default plan (operator A's).
    fn comparison_plan(&self) -> DataPlan {
        DataPlan::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::plan::LossWeight;

    fn operators() -> Vec<OperatorSlice> {
        vec![
            OperatorSlice {
                name: "Operator A",
                radio: RadioSpec::Good,
                background_mbps: 140.0,
                plan: DataPlan::paper_default(),
            },
            OperatorSlice {
                name: "Operator B",
                radio: RadioSpec::Intermittent { eta: 0.10 },
                background_mbps: 0.0,
                plan: DataPlan {
                    loss_weight: LossWeight::from_f64(0.25),
                    ..DataPlan::paper_default()
                },
            },
        ]
    }

    #[test]
    fn per_operator_charges_are_independent_and_bounded() {
        let out = run_multi_operator(AppKind::Vr, SimDuration::from_secs(30), &operators(), 0xAB);
        assert_eq!(out.per_operator.len(), 2);
        for o in &out.per_operator {
            let lo = (o.records.truth.operator as f64 * 0.99) as u64;
            let hi = (o.records.truth.edge as f64 * 1.01) as u64;
            assert!(
                (lo..=hi).contains(&o.comparison.tlc_optimal.charge),
                "{}: charge out of bounds",
                o.name
            );
        }
        // Different conditions and plans: charges differ.
        assert_ne!(
            out.per_operator[0].comparison.tlc_optimal.charge,
            out.per_operator[1].comparison.tlc_optimal.charge
        );
    }

    #[test]
    fn totals_sum_per_operator() {
        let out = run_multi_operator(
            AppKind::WebcamUdp,
            SimDuration::from_secs(30),
            &operators(),
            0xAC,
        );
        let sum: u64 = out
            .per_operator
            .iter()
            .map(|o| o.comparison.tlc_optimal.charge)
            .sum();
        assert_eq!(out.total_tlc_charge(), sum);
        assert!(out.total_intended() > 0);
        // Aggregate TLC bill closer to intended than aggregate legacy.
        let tlc_gap = out.total_tlc_charge().abs_diff(out.total_intended());
        let legacy_gap = out.total_legacy_charge().abs_diff(out.total_intended());
        assert!(tlc_gap <= legacy_gap);
    }

    #[test]
    fn plans_apply_per_operator() {
        // Operator B's c = 0.25 discounts lost data more than A's 0.5:
        // same truths would price differently. We check via the intended
        // values directly.
        let out = run_multi_operator(AppKind::Vr, SimDuration::from_secs(30), &operators(), 0xAD);
        let a = &out.per_operator[0];
        let b = &out.per_operator[1];
        // Reprice B's records under A's plan: must differ when loss > 0.
        let b_under_a = compare_schemes(&b.records, &a.comparison_plan(), 1)
            .unwrap()
            .intended;
        if b.records.truth.edge > b.records.truth.operator {
            assert_ne!(b_under_a, b.comparison.intended);
        }
    }
}
