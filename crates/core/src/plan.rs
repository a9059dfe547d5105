//! Data-plan and charging-model types (Table 1 of the paper).
//!
//! The plan fixes the charging cycle `T = (T_start, T_end)` and the lost-
//! data weight `c ∈ [0, 1]`. Given the *claimed* usage pair `(x_e, x_o)`,
//! the negotiated charging volume is
//!
//! ```text
//! x = x_o + c·(x_e − x_o)   if x_o ≤ x_e
//! x = x_e + c·(x_o − x_e)   otherwise        (Algorithm 1, line 8)
//! ```
//!
//! With honest reports `(x̂_e, x̂_o)` this is the plan-intended charge
//! `x̂ = x̂_o + c·(x̂_e − x̂_o)` of Eq. (1).

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use std::num::NonZeroU32;

/// The lost-data charging weight `c`, constrained to `[0, 1]`.
///
/// `c = 0` charges only received data; `c = 1` charges all sent data.
/// Internally a rational `numer/denom` so charging arithmetic is exact in
/// integers (no float drift in billing).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LossWeight {
    numer: u32,
    denom: u32,
}

impl LossWeight {
    /// Builds a weight `numer/denom`; panics unless `0 ≤ numer ≤ denom`
    /// and `denom > 0`.
    pub fn new(numer: u32, denom: u32) -> Self {
        assert!(denom > 0, "denominator must be positive");
        assert!(numer <= denom, "loss weight must be <= 1");
        LossWeight::reduced(numer, denom)
    }

    /// [`Self::new`] for a weight a peer sent: `None` where `new` would
    /// panic.
    pub fn try_new(numer: u32, denom: u32) -> Option<Self> {
        (denom > 0 && numer <= denom).then(|| LossWeight::reduced(numer, denom))
    }

    /// Canonical (reduced) form so equal weights compare equal
    /// regardless of how they were written (1/2 == 5000/10000).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "numer > 0 past the early return, so its gcd with denom is at least 1"
    )]
    fn reduced(numer: u32, denom: u32) -> Self {
        if numer == 0 {
            return LossWeight { numer: 0, denom: 1 };
        }
        let g = gcd(numer, denom);
        LossWeight {
            numer: numer / g,
            denom: denom / g,
        }
    }

    /// `c = 0`: charge only received data.
    pub const ZERO: LossWeight = LossWeight { numer: 0, denom: 1 };

    /// The paper's default evaluation setting, `c = 0.5`.
    pub fn half() -> Self {
        LossWeight::new(1, 2)
    }

    /// Builds from a float in `[0, 1]` with 1/10000 resolution.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "c is asserted in [0, 1], so the rounded product is in [0, 10 000]"
    )]
    pub fn from_f64(c: f64) -> Self {
        assert!((0.0..=1.0).contains(&c), "loss weight must be in [0,1]");
        LossWeight::new((c * 10_000.0).round() as u32, 10_000)
    }

    /// The weight as a float.
    pub fn as_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Exact `c·v` with round-half-up in integer arithmetic.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "u64 × u32 fits u128, denom > 0, and numer ≤ denom keeps the quotient ≤ v"
    )]
    pub fn scale(&self, v: u64) -> u64 {
        ((v as u128 * self.numer as u128 + (self.denom / 2) as u128) / self.denom as u128) as u64
    }

    /// Exact `⌊c·v⌋` (round down). Settlement splits use the floor form
    /// so the *remainder* side of a split can be assigned exactly
    /// (`v − scale_floor(v)`), making three-party conservation hold by
    /// construction instead of by rounding luck.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "u64 × u32 fits u128, denom > 0, and numer ≤ denom keeps the quotient ≤ v"
    )]
    pub fn scale_floor(&self, v: u64) -> u64 {
        ((v as u128 * self.numer as u128) / self.denom as u128) as u64
    }
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while let Some(nz) = NonZeroU32::new(b) {
        (a, b) = (b, a % nz);
    }
    a
}

/// A charging cycle `T = (T_start, T_end)` in seconds of simulation time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ChargingCycle {
    /// Cycle start (inclusive), seconds.
    pub start_secs: u64,
    /// Cycle end (exclusive), seconds.
    pub end_secs: u64,
}

impl ChargingCycle {
    /// Builds a cycle; panics unless `end > start`.
    pub fn new(start_secs: u64, end_secs: u64) -> Self {
        assert!(end_secs > start_secs, "cycle must have positive length");
        ChargingCycle {
            start_secs,
            end_secs,
        }
    }

    /// [`Self::new`] for a cycle a peer sent: `None` where `new` would
    /// panic.
    pub fn try_new(start_secs: u64, end_secs: u64) -> Option<Self> {
        (end_secs > start_secs).then_some(ChargingCycle {
            start_secs,
            end_secs,
        })
    }

    /// The paper's evaluation cycle: one hour starting at t=0.
    pub fn one_hour() -> Self {
        ChargingCycle::new(0, 3600)
    }
}

/// The agreed data plan shared by the operator and the edge app vendor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataPlan {
    /// Lost-data charging weight `c`.
    pub loss_weight: LossWeight,
    /// Charging cycle `T`.
    pub cycle: ChargingCycle,
}

impl DataPlan {
    /// Plan with the paper's defaults (`c = 0.5`, 1-hour cycle).
    pub fn paper_default() -> Self {
        DataPlan {
            loss_weight: LossWeight::half(),
            cycle: ChargingCycle::one_hour(),
        }
    }
}

/// A pair of usage claims: edge-sent (`x_e`) and operator/receiver
/// (`x_o`), in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UsagePair {
    /// The edge app vendor's claim (data its sender transmitted).
    pub edge: u64,
    /// The cellular operator's claim (data the receiver received).
    pub operator: u64,
}

/// Computes the negotiated charging volume of Algorithm 1 line 8.
///
/// Symmetric in the claims: whichever is smaller plays the "received"
/// role. (The paper writes the second branch for `x_o > x_e` — a claim
/// pattern that signals someone is cheating but must still price out.)
pub fn charge_for(claims: UsagePair, c: LossWeight) -> u64 {
    let lo = claims.edge.min(claims.operator);
    let hi = claims.edge.max(claims.operator);
    lo.saturating_add(c.scale(hi.abs_diff(lo)))
}

/// The plan-intended ("ground truth") charge `x̂` of Eq. (1), from the
/// true usage pair.
pub fn intended_charge(truth: UsagePair, c: LossWeight) -> u64 {
    charge_for(truth, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_weight_bounds() {
        assert_eq!(LossWeight::ZERO.as_f64(), 0.0);
        assert_eq!(LossWeight::new(1, 1).as_f64(), 1.0);
        assert_eq!(LossWeight::half().as_f64(), 0.5);
        assert!((LossWeight::from_f64(0.25).as_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn weight_above_one_rejected() {
        LossWeight::new(3, 2);
    }

    #[test]
    #[should_panic]
    fn float_weight_above_one_rejected() {
        LossWeight::from_f64(1.01);
    }

    #[test]
    fn scale_is_exact_at_extremes() {
        assert_eq!(LossWeight::ZERO.scale(1_000_000), 0);
        assert_eq!(LossWeight::new(1, 1).scale(1_000_000), 1_000_000);
        assert_eq!(LossWeight::half().scale(1000), 500);
        assert_eq!(LossWeight::half().scale(1001), 501); // round half up
    }

    #[test]
    fn scale_floor_never_exceeds_scale_and_splits_exactly() {
        let c = LossWeight::new(1, 3);
        for v in [0u64, 1, 2, 3, 999, 1000, u64::MAX] {
            let f = c.scale_floor(v);
            assert!(f <= c.scale(v));
            // The remainder side of a floor split reconstructs v exactly.
            assert_eq!(f + (v - f), v);
        }
        assert_eq!(c.scale_floor(1000), 333);
        assert_eq!(LossWeight::half().scale_floor(1001), 500); // floor, not half-up
    }

    #[test]
    fn scale_handles_large_volumes() {
        // 1 TB at c=0.75 must not overflow.
        let c = LossWeight::new(3, 4);
        assert_eq!(c.scale(1_000_000_000_000), 750_000_000_000);
    }

    #[test]
    fn charge_formula_normal_branch() {
        // x_o=800 received, x_e=1000 sent, c=0.5 -> 800 + 0.5*200 = 900.
        let x = charge_for(
            UsagePair {
                edge: 1000,
                operator: 800,
            },
            LossWeight::half(),
        );
        assert_eq!(x, 900);
    }

    #[test]
    fn charge_formula_inverted_branch() {
        // Operator claims more than the edge sent (x_o > x_e): line 8's
        // second branch: x_e + c*(x_o - x_e).
        let x = charge_for(
            UsagePair {
                edge: 800,
                operator: 1000,
            },
            LossWeight::half(),
        );
        assert_eq!(x, 900);
    }

    #[test]
    fn charge_bounded_by_claims() {
        for c in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let w = LossWeight::from_f64(c);
            let x = charge_for(
                UsagePair {
                    edge: 5000,
                    operator: 3000,
                },
                w,
            );
            assert!((3000..=5000).contains(&x), "c={c}, x={x}");
        }
    }

    #[test]
    fn equal_claims_charge_exactly() {
        let x = charge_for(
            UsagePair {
                edge: 4242,
                operator: 4242,
            },
            LossWeight::half(),
        );
        assert_eq!(x, 4242);
    }

    #[test]
    fn cycle_validations() {
        let t = ChargingCycle::one_hour();
        assert_eq!((t.start_secs, t.end_secs), (0, 3600));
    }

    #[test]
    #[should_panic]
    fn empty_cycle_rejected() {
        ChargingCycle::new(5, 5);
    }
}
