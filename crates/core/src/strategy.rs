//! Negotiation strategies (§5.1–§5.2 and the §7.1 evaluation variants).
//!
//! Each party enters the negotiation knowing two numbers (§5.2): its own
//! metered truth and an inference of the peer's. For the edge vendor these
//! are `x̂_e` (its send counter) and `x̂_o` (its delivery monitor); for the
//! operator, `x̂_o` (gateway/RRC meter) and `x̂_e` (gateway-observed
//! offered traffic).
//!
//! * [`HonestStrategy`] — claims its own truth (the paper's honest case),
//! * [`OptimalStrategy`] — the rational minimax/maximin play of Theorem 3:
//!   the edge claims `x̂_o`, the operator claims `x̂_e`; converges in one
//!   round (Theorem 4),
//! * [`RandomSelfishStrategy`] — §7.1's "TLC-random": selfish but unaware
//!   of the optimal play; uniformly over-/under-claims and re-draws under
//!   tightening bounds,
//! * misbehaving strategies ([`RejectAllStrategy`], [`InsistStrategy`],
//!   [`BoundViolatorStrategy`]) — the §5.1 "potential misbehaviors",
//!   which stall or abort but never extract a better price.

use crate::cancellation::Bounds;
use tlc_net::rng::SimRng;

/// Which side of the negotiation a party is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The edge application vendor (pays; wants a smaller `x`).
    Edge,
    /// The cellular operator (is paid; wants a larger `x`).
    Operator,
}

/// What a party knows entering the negotiation.
#[derive(Clone, Copy, Debug)]
pub struct Knowledge {
    /// This party's role.
    pub role: Role,
    /// Its own metered truth: `x̂_e` for the edge, `x̂_o` for the operator.
    pub own_truth: u64,
    /// Its inference of the peer-side truth: `x̂_o` for the edge,
    /// `x̂_e` for the operator.
    pub inferred_peer_truth: u64,
}

impl Knowledge {
    /// The cross-check threshold this party holds against peer claims
    /// (Theorem 2's proof): the edge rejects operator claims above its
    /// sent volume; the operator rejects edge claims below its received
    /// volume.
    fn cross_check_ok(&self, peer_claim: u64) -> bool {
        match self.role {
            Role::Edge => peer_claim <= self.own_truth,
            Role::Operator => peer_claim >= self.own_truth,
        }
    }
}

/// A party's accept/reject decision (Algorithm 1 line 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Accept the peer's claim; negotiation can conclude.
    Accept,
    /// Reject; re-claim under tightened bounds.
    Reject,
}

/// A negotiation behaviour: produce claims, judge peer claims.
pub trait Strategy {
    /// The claim for this round, given the party's knowledge and the
    /// bounds in force.
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, round: u32) -> u64;

    /// Whether to accept the peer's claim this round.
    fn decide(&mut self, k: &Knowledge, own_claim: u64, peer_claim: u64) -> Decision;
}

/// Reports the truth; accepts anything that passes the cross-check.
#[derive(Clone, Copy, Debug, Default)]
pub struct HonestStrategy;

impl Strategy for HonestStrategy {
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, _round: u32) -> u64 {
        bounds.clamp(k.own_truth)
    }

    fn decide(&mut self, k: &Knowledge, _own: u64, peer_claim: u64) -> Decision {
        if k.cross_check_ok(peer_claim) {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }
}

/// The rational play of Theorem 3: claim the peer-side truth.
///
/// Edge minimax: for any `x_e`, the operator's worst response prices at
/// `(1−c)·x_e + c·x̂_e`, minimized at the lowest undetectable claim
/// `x_e = x̂_o`. Operator maximin symmetric: `x_o = x̂_e`.
///
/// With perfect records this converges in one round (Theorem 4). Real
/// records carry small measurement errors (Fig. 18), so a first-round
/// claim can land just past the peer's cross-check threshold and be
/// rejected; on later rounds the strategy concedes geometrically through
/// the tightened bounds toward the peer's side, restoring convergence in
/// O(log error) rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimalStrategy;

impl Strategy for OptimalStrategy {
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, round: u32) -> u64 {
        if round <= 1 {
            return bounds.clamp(k.inferred_peer_truth);
        }
        // Concede: move from our end of the bounds toward the peer's end,
        // halving the remaining distance each round — but never past our
        // own measured truth (the edge never over-claims its sent volume,
        // the operator never under-claims its received volume; doing so
        // could only worsen its own charge).
        let span = bounds.hi - bounds.lo;
        let step = span >> (round - 1).min(63);
        let concession = span - step;
        let target = match k.role {
            Role::Edge => bounds
                .lo
                .saturating_add(concession)
                .min(k.own_truth.max(bounds.lo)),
            Role::Operator => bounds
                .hi
                .saturating_sub(concession)
                .max(k.own_truth.min(bounds.hi)),
        };
        bounds.clamp(target)
    }

    fn decide(&mut self, k: &Knowledge, _own: u64, peer_claim: u64) -> Decision {
        if k.cross_check_ok(peer_claim) {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }
}

/// §7.1's "TLC-random": selfish but strategy-naive. Each round the edge
/// uniformly under-claims below its truth and the operator uniformly
/// over-claims above its truth, both within the current bounds; the
/// cross-check prunes detectable claims and the tightening bounds drive
/// convergence in a few rounds (Fig. 16b).
#[derive(Clone, Debug)]
pub struct RandomSelfishStrategy {
    rng: SimRng,
    /// How far beyond the truth the first-round draw may range, as a
    /// fraction of the truth (default 0.5 — a 50% initial over/under
    /// reach).
    pub reach: f64,
}

impl RandomSelfishStrategy {
    /// Default reach of 0.5.
    pub fn new(rng: SimRng) -> Self {
        RandomSelfishStrategy { rng, reach: 0.5 }
    }
}

impl Strategy for RandomSelfishStrategy {
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, _round: u32) -> u64 {
        let reach_bytes = (k.own_truth as f64 * self.reach) as u64;
        let (lo, hi) = match k.role {
            // Edge: draw in [truth - reach, truth], i.e. under-claim.
            Role::Edge => (k.own_truth.saturating_sub(reach_bytes), k.own_truth),
            // Operator: draw in [truth, truth + reach], i.e. over-claim.
            Role::Operator => (k.own_truth, k.own_truth.saturating_add(reach_bytes)),
        };
        let lo = lo.max(bounds.lo);
        let hi = hi.min(bounds.hi);
        if lo >= hi {
            return bounds.clamp(lo);
        }
        self.rng.range_u64(lo, hi)
    }

    fn decide(&mut self, k: &Knowledge, _own: u64, peer_claim: u64) -> Decision {
        if k.cross_check_ok(peer_claim) {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }
}

/// Misbehavior: always rejects, stalling the negotiation (§5.1 — hurts
/// itself: no PoC means no payment / no service).
#[derive(Clone, Copy, Debug, Default)]
pub struct RejectAllStrategy;

impl Strategy for RejectAllStrategy {
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, _round: u32) -> u64 {
        bounds.clamp(k.own_truth)
    }

    fn decide(&mut self, _k: &Knowledge, _own: u64, _peer: u64) -> Decision {
        Decision::Reject
    }
}

/// Misbehavior: insists on a fixed untruthful claim each round (clamped
/// into bounds so the peer cannot abort, but never accepted if it fails
/// the peer's cross-check).
#[derive(Clone, Copy, Debug)]
pub struct InsistStrategy {
    /// The claim insisted upon.
    pub claim: u64,
}

impl Strategy for InsistStrategy {
    fn claim(&mut self, _k: &Knowledge, bounds: &Bounds, _round: u32) -> u64 {
        bounds.clamp(self.claim)
    }

    fn decide(&mut self, k: &Knowledge, _own: u64, peer_claim: u64) -> Decision {
        if k.cross_check_ok(peer_claim) {
            Decision::Accept
        } else {
            Decision::Reject
        }
    }
}

/// Misbehavior: ignores the bound constraint of line 12 outright. The
/// peer detects this locally and aborts the negotiation.
#[derive(Clone, Copy, Debug)]
pub struct BoundViolatorStrategy {
    /// Claim emitted regardless of bounds.
    pub claim: u64,
}

impl Strategy for BoundViolatorStrategy {
    fn claim(&mut self, _k: &Knowledge, _bounds: &Bounds, _round: u32) -> u64 {
        self.claim
    }

    fn decide(&mut self, _k: &Knowledge, _own: u64, _peer: u64) -> Decision {
        Decision::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_k(sent: u64, recv: u64) -> Knowledge {
        Knowledge {
            role: Role::Edge,
            own_truth: sent,
            inferred_peer_truth: recv,
        }
    }

    fn op_k(sent: u64, recv: u64) -> Knowledge {
        Knowledge {
            role: Role::Operator,
            own_truth: recv,
            inferred_peer_truth: sent,
        }
    }

    #[test]
    fn cross_check_direction_per_role() {
        let e = edge_k(1000, 800);
        assert!(e.cross_check_ok(1000));
        assert!(e.cross_check_ok(900));
        assert!(!e.cross_check_ok(1001)); // operator claims more than edge sent
        let o = op_k(1000, 800);
        assert!(o.cross_check_ok(800));
        assert!(o.cross_check_ok(900));
        assert!(!o.cross_check_ok(799)); // edge claims less than operator received
    }

    #[test]
    fn honest_claims_truth() {
        let mut s = HonestStrategy;
        assert_eq!(s.claim(&edge_k(1000, 800), &Bounds::unbounded(), 1), 1000);
        assert_eq!(s.claim(&op_k(1000, 800), &Bounds::unbounded(), 1), 800);
    }

    #[test]
    fn optimal_claims_peer_truth() {
        let mut s = OptimalStrategy;
        assert_eq!(s.claim(&edge_k(1000, 800), &Bounds::unbounded(), 1), 800);
        assert_eq!(s.claim(&op_k(1000, 800), &Bounds::unbounded(), 1), 1000);
    }

    #[test]
    fn claims_respect_bounds() {
        let b = Bounds { lo: 900, hi: 950 };
        let mut h = HonestStrategy;
        assert_eq!(h.claim(&edge_k(1000, 800), &b, 2), 950);
        let mut o = OptimalStrategy;
        assert_eq!(o.claim(&edge_k(1000, 800), &b, 1), 900);
    }

    #[test]
    fn optimal_concedes_geometrically_after_rejection() {
        // Rounds > 1 move from the party's own end of the bounds toward
        // the peer's end, halving the remaining distance each round.
        let b = Bounds { lo: 1000, hi: 2000 };
        let mut o = OptimalStrategy;
        let e = edge_k(5000, 100); // inferred peer truth outside bounds
        assert_eq!(o.claim(&e, &b, 2), 1500);
        assert_eq!(o.claim(&e, &b, 3), 1750);
        assert!(o.claim(&e, &b, 10) > 1990);
        // The operator concedes downward symmetrically.
        let ko = op_k(5000, 100);
        assert_eq!(o.claim(&ko, &b, 2), 1500);
        assert_eq!(o.claim(&ko, &b, 3), 1250);
    }

    #[test]
    fn random_edge_never_over_claims() {
        let mut s = RandomSelfishStrategy::new(SimRng::new(1));
        let k = edge_k(10_000, 8_000);
        for round in 1..100 {
            let c = s.claim(&k, &Bounds::unbounded(), round);
            assert!(c <= 10_000, "edge over-claimed {c}");
        }
    }

    #[test]
    fn random_operator_never_under_claims() {
        let mut s = RandomSelfishStrategy::new(SimRng::new(2));
        let k = op_k(10_000, 8_000);
        for round in 1..100 {
            let c = s.claim(&k, &Bounds::unbounded(), round);
            assert!(c >= 8_000, "operator under-claimed {c}");
        }
    }

    #[test]
    fn random_respects_tight_bounds() {
        let mut s = RandomSelfishStrategy::new(SimRng::new(3));
        let b = Bounds {
            lo: 9_000,
            hi: 9_500,
        };
        for round in 1..50 {
            let c = s.claim(&edge_k(10_000, 8_000), &b, round);
            assert!(b.admits(c), "claim {c} outside bounds");
        }
    }

    #[test]
    fn reject_all_always_rejects() {
        let mut s = RejectAllStrategy;
        assert_eq!(s.decide(&edge_k(1, 1), 1, 1), Decision::Reject);
    }

    #[test]
    fn insist_claims_fixed_value_clamped() {
        let mut s = InsistStrategy { claim: 5 };
        assert_eq!(s.claim(&edge_k(1000, 800), &Bounds::unbounded(), 1), 5);
        let b = Bounds { lo: 100, hi: 200 };
        assert_eq!(s.claim(&edge_k(1000, 800), &b, 2), 100);
    }

    #[test]
    fn bound_violator_ignores_bounds() {
        let mut s = BoundViolatorStrategy { claim: 999_999 };
        let b = Bounds { lo: 0, hi: 10 };
        assert_eq!(s.claim(&edge_k(1000, 800), &b, 1), 999_999);
    }
}
