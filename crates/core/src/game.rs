//! Game-theoretic analysis utilities behind Theorems 2–4.
//!
//! The negotiation is a two-player zero-sum game over the claim pair
//! `(x_e, x_o)` with payoff `x` (the charge): the operator maximizes, the
//! edge minimizes. These helpers compute best responses and equilibria
//! numerically over the admissible claim grid, so the property-based tests
//! can check the minimax theorem's conclusions against the closed-form
//! strategies in [`crate::strategy`], and Appendix D's generic-charging
//! bound can be evaluated.

use crate::plan::{charge_for, LossWeight, UsagePair};

/// The admissible claim sets once cross-checks are in force (Theorem 2):
/// both claims live in `[x̂_o, x̂_e]`.
#[derive(Clone, Copy, Debug)]
pub struct ClaimSpace {
    /// True received volume `x̂_o`.
    pub received: u64,
    /// True sent volume `x̂_e`.
    pub sent: u64,
}

impl ClaimSpace {
    /// Builds the space; panics unless `received ≤ sent`.
    pub fn new(received: u64, sent: u64) -> Self {
        assert!(received <= sent, "x̂_o must not exceed x̂_e");
        ClaimSpace { received, sent }
    }

    /// The plan-intended charge `x̂`.
    pub fn intended(&self, c: LossWeight) -> u64 {
        charge_for(
            UsagePair {
                edge: self.sent,
                operator: self.received,
            },
            c,
        )
    }

    /// The operator's worst-case (maximal) charge against a fixed edge
    /// claim: `max_{x_o} x` over the admissible range.
    pub fn worst_case_for_edge(&self, edge_claim: u64, c: LossWeight) -> u64 {
        self.grid(32)
            .map(|xo| {
                charge_for(
                    UsagePair {
                        edge: edge_claim,
                        operator: xo,
                    },
                    c,
                )
            })
            .fold(0, u64::max)
    }

    /// The edge's worst-case (minimal) charge against a fixed operator
    /// claim: `min_{x_e} x`.
    pub fn worst_case_for_operator(&self, operator_claim: u64, c: LossWeight) -> u64 {
        self.grid(32)
            .map(|xe| {
                charge_for(
                    UsagePair {
                        edge: xe,
                        operator: operator_claim,
                    },
                    c,
                )
            })
            .fold(u64::MAX, u64::min)
    }

    /// The edge's minimax value: `min_{x_e} max_{x_o} x` over the grid.
    pub fn minimax(&self, c: LossWeight) -> u64 {
        self.grid(32)
            .map(|xe| self.worst_case_for_edge(xe, c))
            .fold(u64::MAX, u64::min)
    }

    /// The operator's maximin value: `max_{x_o} min_{x_e} x`.
    pub fn maximin(&self, c: LossWeight) -> u64 {
        self.grid(32)
            .map(|xo| self.worst_case_for_operator(xo, c))
            .fold(0, u64::max)
    }

    /// An evenly spaced sample of the admissible claim range, always
    /// including both endpoints.
    fn grid(&self, steps: u64) -> impl Iterator<Item = u64> + '_ {
        let lo = self.received;
        let hi = self.sent;
        let span = hi - lo;
        (0..=steps)
            .map(move |i| lo + span * i / steps.max(1))
            .chain(std::iter::once(hi))
    }
}

/// Appendix D: in generic (non-edge) downlink charging, data may be lost
/// between the Internet server and the 4G/5G core. The edge reports its
/// server-sent volume `x̂'_e ≥ x̂_e` (core-received), so the negotiated
/// charge over-shoots the intended `x̂` by at most `c · (x̂'_e − x̂_e)`.
pub fn generic_downlink_overcharge_bound(
    server_sent: u64,
    core_received: u64,
    c: LossWeight,
) -> u64 {
    assert!(server_sent >= core_received);
    c.scale(server_sent - core_received)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: f64) -> LossWeight {
        LossWeight::from_f64(v)
    }

    #[test]
    fn minimax_equals_maximin_equals_intended() {
        // Theorem 3: the game has a pure-strategy saddle point at x̂.
        for (recv, sent) in [(800u64, 1000u64), (0, 1000), (500, 500), (1, 1_000_000)] {
            for weight in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let space = ClaimSpace::new(recv, sent);
                let w = c(weight);
                let intended = space.intended(w);
                assert_eq!(
                    space.minimax(w),
                    intended,
                    "minimax {recv}..{sent} c={weight}"
                );
                assert_eq!(
                    space.maximin(w),
                    intended,
                    "maximin {recv}..{sent} c={weight}"
                );
            }
        }
    }

    #[test]
    fn edge_best_response_is_received_volume() {
        // Claiming x̂_o minimizes the worst case; any higher claim can only
        // do worse or equal.
        let space = ClaimSpace::new(800, 1000);
        let w = c(0.5);
        let at_truth_o = space.worst_case_for_edge(800, w);
        for claim in [850, 900, 1000] {
            assert!(space.worst_case_for_edge(claim, w) >= at_truth_o);
        }
    }

    #[test]
    fn operator_best_response_is_sent_volume() {
        let space = ClaimSpace::new(800, 1000);
        let w = c(0.5);
        let at_truth_e = space.worst_case_for_operator(1000, w);
        for claim in [800, 900, 950] {
            assert!(space.worst_case_for_operator(claim, w) <= at_truth_e);
        }
    }

    #[test]
    fn worst_cases_bracket_intended() {
        let space = ClaimSpace::new(300, 700);
        let w = c(0.5);
        let x_hat = space.intended(w);
        assert!(space.worst_case_for_edge(300, w) >= x_hat);
        assert!(space.worst_case_for_operator(700, w) <= x_hat);
    }

    #[test]
    fn no_loss_game_is_trivial() {
        let space = ClaimSpace::new(1234, 1234);
        for weight in [0.0, 0.5, 1.0] {
            assert_eq!(space.minimax(c(weight)), 1234);
        }
    }

    #[test]
    fn appendix_d_bound() {
        // 1 MB lost between server and core at c=0.5: over-charge ≤ 500 KB.
        assert_eq!(
            generic_downlink_overcharge_bound(10_000_000, 9_000_000, c(0.5)),
            500_000
        );
        assert_eq!(generic_downlink_overcharge_bound(5, 5, c(1.0)), 0);
        // c=0: receiver-only charging is immune to Internet-side loss.
        assert_eq!(generic_downlink_overcharge_bound(10_000_000, 1, c(0.0)), 0);
    }

    #[test]
    #[should_panic]
    fn claim_space_rejects_inverted_truth() {
        ClaimSpace::new(1000, 800);
    }
}
