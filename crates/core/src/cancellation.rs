//! Loss–selfishness cancellation — Algorithm 1 of the paper.
//!
//! The edge app vendor and cellular operator repeatedly exchange usage
//! claims `(x_e, x_o)` and accept/reject decisions. Rejection tightens the
//! claim bounds to the span of the rejected round (line 12); acceptance
//! prices the final pair through the plan formula (line 8).
//!
//! The engine here is strategy-agnostic: party behaviour is supplied via
//! [`crate::strategy::Strategy`] implementations, so honest, rational
//! (minimax), random-selfish, and misbehaving parties all run through the
//! same loop, and the theorems can be tested against all combinations.

use crate::plan::{charge_for, DataPlan, UsagePair};
use crate::strategy::{Decision, Knowledge, Strategy};

/// Claim bounds carried across rounds (Algorithm 1 line 1/12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Lower bound `x_L` (inclusive).
    pub lo: u64,
    /// Upper bound `x_U` (inclusive; `u64::MAX` stands in for ∞).
    pub hi: u64,
}

impl Bounds {
    /// The initial unbounded range.
    pub fn unbounded() -> Self {
        Bounds {
            lo: 0,
            hi: u64::MAX,
        }
    }

    /// Whether a claim is admissible under these bounds.
    pub fn admits(&self, claim: u64) -> bool {
        (self.lo..=self.hi).contains(&claim)
    }

    /// Clamps a desired claim into the admissible range.
    pub fn clamp(&self, claim: u64) -> u64 {
        claim.clamp(self.lo, self.hi)
    }

    /// Line 12: tighten to the span of the rejected round's claims.
    pub fn tighten(&self, edge_claim: u64, operator_claim: u64) -> Bounds {
        Bounds {
            lo: edge_claim.min(operator_claim),
            hi: edge_claim.max(operator_claim),
        }
    }
}

/// One round of the negotiation transcript.
#[derive(Clone, Copy, Debug)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: u32,
    /// Edge's claim `x_e`.
    pub edge_claim: u64,
    /// Operator's claim `x_o`.
    pub operator_claim: u64,
    /// Whether the edge accepted the operator's claim.
    pub edge_accepted: bool,
    /// Whether the operator accepted the edge's claim.
    pub operator_accepted: bool,
    /// Bounds in force during this round.
    pub bounds: Bounds,
}

/// Successful negotiation result.
#[derive(Clone, Debug)]
pub struct NegotiationOutcome {
    /// The negotiated charging volume `x`.
    pub charge: u64,
    /// Rounds taken to converge.
    pub rounds: u32,
    /// Final accepted claims.
    pub final_claims: UsagePair,
    /// Full round-by-round transcript.
    pub transcript: Vec<RoundRecord>,
}

/// Negotiation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NegotiationError {
    /// No convergence within the round cap — a party is misbehaving
    /// (§5.1: neither side benefits, but a buggy peer can stall).
    NoConvergence {
        /// Rounds attempted.
        rounds: u32,
    },
    /// A party emitted a claim outside the agreed bounds and the peer
    /// aborted (line 12's constraint is locally checkable).
    BoundViolation {
        /// Round of the violation.
        round: u32,
        /// Whether the edge (vs the operator) violated.
        by_edge: bool,
        /// The offending claim.
        claim: u64,
        /// Bounds in force.
        bounds: Bounds,
    },
}

impl std::fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NegotiationError::NoConvergence { rounds } => {
                write!(f, "negotiation did not converge within {rounds} rounds")
            }
            NegotiationError::BoundViolation {
                round,
                by_edge,
                claim,
                bounds,
            } => write!(
                f,
                "round {round}: {} claimed {claim} outside [{}, {}]",
                if *by_edge { "edge" } else { "operator" },
                bounds.lo,
                bounds.hi
            ),
        }
    }
}

impl std::error::Error for NegotiationError {}

/// Default cap on negotiation rounds before declaring a stall.
pub const DEFAULT_MAX_ROUNDS: u32 = 64;

/// Runs Algorithm 1 to completion.
///
/// `edge` and `operator` supply per-round claims and accept/reject
/// decisions; `edge_knowledge` / `operator_knowledge` carry each party's
/// locally measured ground truth.
pub fn negotiate(
    plan: &DataPlan,
    edge: &mut dyn Strategy,
    edge_knowledge: &Knowledge,
    operator: &mut dyn Strategy,
    operator_knowledge: &Knowledge,
    max_rounds: u32,
) -> Result<NegotiationOutcome, NegotiationError> {
    let mut bounds = Bounds::unbounded();
    let mut transcript = Vec::new();
    for round in 1..=max_rounds {
        // Line 4: exchange claims (order does not affect the result).
        let edge_claim = edge.claim(edge_knowledge, &bounds, round);
        let operator_claim = operator.claim(operator_knowledge, &bounds, round);

        // Line 12's constraint is visible to both sides: an out-of-bounds
        // claim is detected by the peer and aborts the negotiation.
        if !bounds.admits(edge_claim) {
            return Err(NegotiationError::BoundViolation {
                round,
                by_edge: true,
                claim: edge_claim,
                bounds,
            });
        }
        if !bounds.admits(operator_claim) {
            return Err(NegotiationError::BoundViolation {
                round,
                by_edge: false,
                claim: operator_claim,
                bounds,
            });
        }

        // Line 6: exchange decisions.
        let edge_decision = edge.decide(edge_knowledge, edge_claim, operator_claim);
        let operator_decision = operator.decide(operator_knowledge, operator_claim, edge_claim);
        let edge_accepted = edge_decision == Decision::Accept;
        let operator_accepted = operator_decision == Decision::Accept;

        transcript.push(RoundRecord {
            round,
            edge_claim,
            operator_claim,
            edge_accepted,
            operator_accepted,
            bounds,
        });

        if edge_accepted && operator_accepted {
            // Line 8: price the accepted pair.
            let charge = charge_for(
                UsagePair {
                    edge: edge_claim,
                    operator: operator_claim,
                },
                plan.loss_weight,
            );
            return Ok(NegotiationOutcome {
                charge,
                rounds: round,
                final_claims: UsagePair {
                    edge: edge_claim,
                    operator: operator_claim,
                },
                transcript,
            });
        }
        // Line 12: reclaim under tightened bounds.
        bounds = bounds.tighten(edge_claim, operator_claim);
    }
    Err(NegotiationError::NoConvergence { rounds: max_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LossWeight;
    use crate::strategy::{HonestStrategy, OptimalStrategy, RandomSelfishStrategy, Role};
    use tlc_net::rng::SimRng;

    fn plan(c: f64) -> DataPlan {
        DataPlan {
            loss_weight: LossWeight::from_f64(c),
            ..DataPlan::paper_default()
        }
    }

    fn knowledge(role: Role, sent: u64, received: u64) -> Knowledge {
        match role {
            Role::Edge => Knowledge {
                role,
                own_truth: sent,
                inferred_peer_truth: received,
            },
            Role::Operator => Knowledge {
                role,
                own_truth: received,
                inferred_peer_truth: sent,
            },
        }
    }

    /// Convenience: run a negotiation for truth (sent, received).
    fn run(
        c: f64,
        sent: u64,
        received: u64,
        edge: &mut dyn Strategy,
        operator: &mut dyn Strategy,
    ) -> Result<NegotiationOutcome, NegotiationError> {
        let ke = knowledge(Role::Edge, sent, received);
        let ko = knowledge(Role::Operator, sent, received);
        negotiate(&plan(c), edge, &ke, operator, &ko, DEFAULT_MAX_ROUNDS)
    }

    #[test]
    fn honest_vs_honest_converges_to_intended_charge_in_one_round() {
        let mut e = HonestStrategy;
        let mut o = HonestStrategy;
        let out = run(0.5, 1000, 800, &mut e, &mut o).unwrap();
        assert_eq!(out.rounds, 1); // Theorem 4 case (1)
        assert_eq!(out.charge, 900); // x̂ = 800 + 0.5*200
        assert_eq!(out.final_claims.edge, 1000);
        assert_eq!(out.final_claims.operator, 800);
    }

    #[test]
    fn optimal_vs_optimal_converges_to_intended_charge_in_one_round() {
        // Theorem 3 + Theorem 4 case (2): both rational.
        let mut e = OptimalStrategy;
        let mut o = OptimalStrategy;
        let out = run(0.5, 1000, 800, &mut e, &mut o).unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.charge, 900);
        // Claims are swapped relative to honest: x_e = x̂_o, x_o = x̂_e.
        assert_eq!(out.final_claims.edge, 800);
        assert_eq!(out.final_claims.operator, 1000);
    }

    #[test]
    fn honest_edge_vs_rational_operator_is_bounded() {
        // Mixed case: converges, possibly not to x̂, but within bounds
        // (Theorem 2).
        let mut e = HonestStrategy;
        let mut o = OptimalStrategy;
        let out = run(0.5, 1000, 800, &mut e, &mut o).unwrap();
        assert!(out.charge >= 800 && out.charge <= 1000);
        // Operator claims x̂_e=1000, edge claims x̂_e=1000: x = 1000.
        assert_eq!(out.charge, 1000);
    }

    #[test]
    fn rational_edge_vs_honest_operator_is_bounded() {
        let mut e = OptimalStrategy;
        let mut o = HonestStrategy;
        let out = run(0.5, 1000, 800, &mut e, &mut o).unwrap();
        // Edge claims x̂_o=800, operator claims x̂_o=800: x = 800.
        assert_eq!(out.charge, 800);
        assert!(out.charge >= 800 && out.charge <= 1000);
    }

    #[test]
    fn random_selfish_converges_within_bounds() {
        for seed in 0..50 {
            let mut e = RandomSelfishStrategy::new(SimRng::new(seed));
            let mut o = RandomSelfishStrategy::new(SimRng::new(seed + 1000));
            let out = run(0.5, 100_000, 80_000, &mut e, &mut o).unwrap();
            assert!(
                out.charge >= 80_000 && out.charge <= 100_000,
                "seed {seed}: charge {} out of [80000,100000]",
                out.charge
            );
            assert!(out.rounds >= 1);
        }
    }

    #[test]
    fn random_selfish_needs_more_rounds_than_optimal() {
        // Aggregate over seeds: the random strategy's mean round count
        // must exceed 1 (the optimal strategy's constant).
        let mut total = 0u32;
        let n = 100;
        for seed in 0..n {
            let mut e = RandomSelfishStrategy::new(SimRng::new(seed));
            let mut o = RandomSelfishStrategy::new(SimRng::new(seed + 5000));
            total += run(0.5, 1_000_000, 900_000, &mut e, &mut o).unwrap().rounds;
        }
        let mean = total as f64 / n as f64;
        assert!(mean > 1.5, "mean rounds {mean}");
        assert!(mean < 10.0, "mean rounds {mean}");
    }

    #[test]
    fn zero_usage_negotiates_zero() {
        let mut e = OptimalStrategy;
        let mut o = OptimalStrategy;
        let out = run(0.5, 0, 0, &mut e, &mut o).unwrap();
        assert_eq!(out.charge, 0);
    }

    #[test]
    fn no_loss_case_all_strategies_agree() {
        // sent == received: x̂ = that value for every c and strategy pair.
        for c in [0.0, 0.5, 1.0] {
            let mut e = OptimalStrategy;
            let mut o = HonestStrategy;
            let out = run(c, 5000, 5000, &mut e, &mut o).unwrap();
            assert_eq!(out.charge, 5000, "c={c}");
        }
    }

    #[test]
    fn c_extremes_price_to_received_or_sent() {
        let mut e = OptimalStrategy;
        let mut o = OptimalStrategy;
        let out0 = run(0.0, 1000, 800, &mut e, &mut o).unwrap();
        assert_eq!(out0.charge, 800);
        let out1 = run(1.0, 1000, 800, &mut e, &mut o).unwrap();
        assert_eq!(out1.charge, 1000);
    }

    #[test]
    fn transcript_records_every_round() {
        let mut e = RandomSelfishStrategy::new(SimRng::new(42));
        let mut o = RandomSelfishStrategy::new(SimRng::new(43));
        let out = run(0.5, 1_000_000, 700_000, &mut e, &mut o).unwrap();
        assert_eq!(out.transcript.len() as u32, out.rounds);
        let last = out.transcript.last().unwrap();
        assert!(last.edge_accepted && last.operator_accepted);
        for (i, r) in out.transcript.iter().enumerate() {
            assert_eq!(r.round as usize, i + 1);
        }
    }

    #[test]
    fn bounds_tighten_monotonically() {
        let mut e = RandomSelfishStrategy::new(SimRng::new(7));
        let mut o = RandomSelfishStrategy::new(SimRng::new(8));
        let out = run(0.5, 2_000_000, 1_000_000, &mut e, &mut o).unwrap();
        for w in out.transcript.windows(2) {
            assert!(w[1].bounds.lo >= w[0].bounds.lo);
            assert!(w[1].bounds.hi <= w[0].bounds.hi);
        }
    }

    #[test]
    fn bounds_helpers() {
        let b = Bounds::unbounded();
        assert!(b.admits(0) && b.admits(u64::MAX));
        let t = b.tighten(500, 300);
        assert_eq!(t, Bounds { lo: 300, hi: 500 });
        assert_eq!(t.clamp(100), 300);
        assert_eq!(t.clamp(1000), 500);
        assert_eq!(t.clamp(400), 400);
    }
}
