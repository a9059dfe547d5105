//! The legacy 4G/5G charging baseline (§2.1, §3).
//!
//! In legacy charging the operator unilaterally bills from its gateway
//! CDRs: the edge has no say, no cross-check, and no proof. An honest
//! operator bills its gateway meter (which, for downlink, over-counts by
//! whatever the radio lost after the gateway); a selfish operator can bill
//! *anything* — the paper's point that legacy selfish charging is
//! unbounded.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

/// How the legacy operator sets the bill.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LegacyOperator {
    /// Bills exactly the gateway meter (the paper's "(Honest) legacy
    /// 4G/5G" baseline).
    Honest,
    /// Bills `factor ×` the gateway meter — nothing in legacy 4G/5G
    /// stops this.
    Selfish {
        /// Over-claim factor (> 1 over-bills).
        factor: f64,
    },
    /// Bills an arbitrary fixed volume, demonstrating unboundedness.
    Arbitrary {
        /// The invented bill, bytes.
        volume: u64,
    },
}

/// Computes the legacy bill from the gateway meter.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a selfish bill is a non-negative f64 rounded to u64 by `as`, which saturates"
)]
pub fn legacy_charge(gateway_metered: u64, operator: LegacyOperator) -> u64 {
    match operator {
        LegacyOperator::Honest => gateway_metered,
        LegacyOperator::Selfish { factor } => {
            assert!(factor >= 0.0 && factor.is_finite());
            (gateway_metered as f64 * factor).round() as u64
        }
        LegacyOperator::Arbitrary { volume } => volume,
    }
}

/// The charging gap Δ = |x − x̂| of §7.1, in bytes.
pub fn absolute_gap(charged: u64, intended: u64) -> u64 {
    charged.abs_diff(intended)
}

/// The relative gap ratio ε = Δ / x̂ (0 when x̂ = 0 and x = x̂).
pub fn gap_ratio(charged: u64, intended: u64) -> f64 {
    if intended == 0 {
        return if charged == 0 { 0.0 } else { f64::INFINITY };
    }
    absolute_gap(charged, intended) as f64 / intended as f64
}

/// The gap-reduction ratio µ = (x_legacy − x_TLC) / x_legacy of Fig. 15,
/// computed on the *gaps*, i.e. µ = (Δ_legacy − Δ_TLC) / Δ_legacy.
pub fn gap_reduction(legacy_gap: u64, tlc_gap: u64) -> f64 {
    if legacy_gap == 0 {
        return 0.0;
    }
    (legacy_gap as f64 - tlc_gap as f64) / legacy_gap as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_legacy_bills_gateway_meter() {
        assert_eq!(legacy_charge(123_456, LegacyOperator::Honest), 123_456);
    }

    #[test]
    fn selfish_legacy_is_unbounded() {
        assert_eq!(
            legacy_charge(1000, LegacyOperator::Selfish { factor: 100.0 }),
            100_000
        );
        assert_eq!(
            legacy_charge(0, LegacyOperator::Arbitrary { volume: u64::MAX }),
            u64::MAX
        );
    }

    #[test]
    fn gap_metrics() {
        assert_eq!(absolute_gap(900, 1000), 100);
        assert_eq!(absolute_gap(1100, 1000), 100);
        assert!((gap_ratio(900, 1000) - 0.1).abs() < 1e-12);
        assert_eq!(gap_ratio(0, 0), 0.0);
        assert!(gap_ratio(5, 0).is_infinite());
    }

    #[test]
    fn gap_reduction_ratio() {
        assert!((gap_reduction(100, 20) - 0.8).abs() < 1e-12);
        assert_eq!(gap_reduction(0, 0), 0.0);
        assert!(gap_reduction(10, 20) < 0.0); // TLC worse -> negative
    }
}
