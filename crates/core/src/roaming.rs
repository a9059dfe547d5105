//! Three-party roaming settlement (DESIGN §14).
//!
//! The paper's charging game is two-party — one operator, one edge app
//! vendor. When a device roams, the cycle's traffic is served partly by
//! the subscriber's *home* operator and partly by a *visited* operator,
//! and the charged volume must settle across **three** parties:
//!
//! * the **edge vendor**, which keeps a fixed revenue share of every
//!   charged byte (its cut of the service it delivered),
//! * the **visited operator**, which is owed a wholesale fraction of
//!   the operator-side revenue for the bytes it carried,
//! * the **home operator**, which bills the subscriber and retains the
//!   remainder.
//!
//! Each serving segment is priced by the *same* loss–selfishness
//! cancellation as the two-party game (`charge_for` over the segment's
//! claim pair), so the gap-closure guarantees carry over unchanged; the
//! roaming plane only *splits* the already-negotiated volume.
//!
//! ## Exact conservation by construction
//!
//! Splits use [`LossWeight::scale_floor`] plus remainder assignment:
//! `vendor = ⌊share·x⌋`, `operator_part = x − vendor`, and (for
//! visited-served segments) `visited = ⌊wholesale·operator_part⌋`,
//! `home = operator_part − visited`. Every subtraction removes a value
//! floor-bounded by its minuend, so
//!
//! ```text
//! home + visited + vendor == x        (exactly, for every segment)
//! ```
//!
//! holds with no rounding slack — the `roaming_conformance` proptests
//! pin this for arbitrary volumes, shares, and handover schedules.
//!
//! ## Bonded multi-link devices
//!
//! A bonded device stripes one logical session over several links with
//! heterogeneous RTT/loss (cellular + satellite, dual-SIM, …). Each
//! link negotiates its own CDR; [`reconcile_bonded`] prices every link
//! with the shared loss weight and reconciles them into one charged
//! volume — the exact sum of the per-link charges, so
//! `Σ per-link charge == bonded charge` under any loss/reorder
//! schedule.
//!
//! ## Replay across home and visited
//!
//! This module verifies nothing. A proof's signatures bind it to one
//! `(plan, edge key, operator key)` triple, and a
//! [`Relationships`](crate::verify::stage::Relationships) table holds
//! one replay window per triple. So a proof settled under the home
//! relationship is accepted at most once there, and through the
//! visited relationship it fails its signature check at any age
//! (`tests/prop_stage.rs`).

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::plan::{charge_for, DataPlan, LossWeight, UsagePair};

/// Which operator served a segment of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Serving {
    /// The subscriber's own operator carried the traffic.
    Home,
    /// A visited (roaming partner) operator carried the traffic.
    Visited,
}

impl Serving {
    /// Stable wire code (`SETTLE` frames carry it as one byte).
    pub fn code(self) -> u8 {
        match self {
            Serving::Home => 0,
            Serving::Visited => 1,
        }
    }

    /// Decodes a wire code; `None` for anything but 0/1.
    pub fn from_code(code: u8) -> Option<Serving> {
        match code {
            0 => Some(Serving::Home),
            1 => Some(Serving::Visited),
            _ => None,
        }
    }
}

/// The three-party commercial agreement a roaming relationship runs
/// under: the shared data plan plus the two revenue-split weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoamingAgreement {
    /// The data plan all three parties agreed to (fixes `c` and `T`).
    pub plan: DataPlan,
    /// The edge vendor's share of every charged byte.
    pub vendor_share: LossWeight,
    /// The visited operator's wholesale fraction of the operator-side
    /// revenue for bytes it carried.
    pub visited_wholesale: LossWeight,
}

impl RoamingAgreement {
    /// Evaluation defaults: the paper's plan (`c = 0.5`, 1-hour cycle),
    /// a 20 % vendor share, and a 75 % visited wholesale rate.
    pub fn paper_default() -> Self {
        RoamingAgreement {
            plan: DataPlan::paper_default(),
            vendor_share: LossWeight::new(1, 5),
            visited_wholesale: LossWeight::new(3, 4),
        }
    }

    /// Splits one segment's charged volume across the three parties.
    ///
    /// Exact: `home + visited + vendor == charged` always (floor-scale
    /// plus remainder assignment; the saturating subtractions never
    /// actually saturate because each cut is floor-bounded by its
    /// minuend).
    pub fn split_volume(&self, charged: u64, serving: Serving) -> SettlementSplit {
        let vendor_cut = self.vendor_share.scale_floor(charged);
        let operator_part = charged.saturating_sub(vendor_cut);
        match serving {
            Serving::Home => SettlementSplit {
                home: operator_part,
                visited: 0,
                vendor: vendor_cut,
            },
            Serving::Visited => {
                let visited_cut = self.visited_wholesale.scale_floor(operator_part);
                SettlementSplit {
                    home: operator_part.saturating_sub(visited_cut),
                    visited: visited_cut,
                    vendor: vendor_cut,
                }
            }
        }
    }

    /// Prices and splits every serving segment of one session's cycle.
    pub fn settle(&self, segments: &[Segment]) -> RoamingSettlement {
        let mut split = SettlementSplit::ZERO;
        let mut charged = 0u64;
        let mut settled = Vec::with_capacity(segments.len());
        for seg in segments {
            let x = charge_for(seg.claims, self.plan.loss_weight);
            let s = self.split_volume(x, seg.serving);
            charged = charged.saturating_add(x);
            split.merge(&s);
            settled.push(SegmentSettlement {
                serving: seg.serving,
                charged: x,
                split: s,
            });
        }
        RoamingSettlement {
            charged,
            split,
            segments: settled,
        }
    }
}

/// How one charged volume divides across the three parties, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SettlementSplit {
    /// The home operator's retained volume.
    pub home: u64,
    /// The visited operator's wholesale volume.
    pub visited: u64,
    /// The edge vendor's revenue-share volume.
    pub vendor: u64,
}

impl SettlementSplit {
    /// The all-zero split.
    pub const ZERO: SettlementSplit = SettlementSplit {
        home: 0,
        visited: 0,
        vendor: 0,
    };

    /// `home + visited + vendor` — equals the charged volume the split
    /// was derived from (the conservation law).
    pub fn total(&self) -> u64 {
        self.home
            .saturating_add(self.visited)
            .saturating_add(self.vendor)
    }

    /// Accumulates another split (saturating, like every charging
    /// counter in the workspace).
    pub fn merge(&mut self, other: &SettlementSplit) {
        self.home = self.home.saturating_add(other.home);
        self.visited = self.visited.saturating_add(other.visited);
        self.vendor = self.vendor.saturating_add(other.vendor);
    }
}

/// One serving segment of a cycle: who carried the traffic, and the
/// two parties' usage claims for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The operator that served this segment.
    pub serving: Serving,
    /// The claim pair negotiated for this segment.
    pub claims: UsagePair,
}

/// One segment priced and split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSettlement {
    /// The operator that served the segment.
    pub serving: Serving,
    /// The segment's negotiated charging volume.
    pub charged: u64,
    /// Its three-party split (`split.total() == charged`).
    pub split: SettlementSplit,
}

/// A whole cycle settled: the total charged volume, its aggregate
/// split, and the per-segment breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoamingSettlement {
    /// Total negotiated charging volume across all segments.
    pub charged: u64,
    /// Aggregate split (`split.total() == charged`).
    pub split: SettlementSplit,
    /// Per-segment settlements, in serving order.
    pub segments: Vec<SegmentSettlement>,
}

/// One link's CDR in a bonded multi-link session: the link's claim
/// pair plus the path characteristics that explain *why* its loss
/// differs from its siblings'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCdr {
    /// The link's negotiated claim pair (sent / delivered on this link).
    pub claims: UsagePair,
    /// Round-trip time of the link, microseconds (reporting only —
    /// pricing depends solely on the claims).
    pub rtt_us: u32,
    /// Loss rate of the link in basis points (reporting only).
    pub loss_bp: u32,
}

/// The per-link CDRs of a bonded session reconciled into one charged
/// volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BondedReconciliation {
    /// The bonded session's single charged volume — the exact sum of
    /// the per-link charges.
    pub charged: u64,
    /// Each link's charge, in link order (`Σ == charged`).
    pub per_link: Vec<u64>,
}

/// Prices every link of a bonded session with the shared loss weight
/// and reconciles them into one charged volume. Each link runs the
/// same loss–selfishness cancellation as a standalone session; the
/// bonded charge is their exact sum, so per-link loss heterogeneity
/// (and any delivery reordering across links) cannot open a gap the
/// two-party analysis didn't already bound.
pub fn reconcile_bonded(links: &[LinkCdr], c: LossWeight) -> BondedReconciliation {
    let per_link: Vec<u64> = links.iter().map(|l| charge_for(l.claims, c)).collect();
    let mut charged = 0u64;
    for x in &per_link {
        charged = charged.saturating_add(*x);
    }
    BondedReconciliation { charged, per_link }
}

/// Total volume the bonded session's links claim as sent (the edge
/// side of every link CDR, saturating).
pub fn bonded_volume(links: &[LinkCdr]) -> u64 {
    let mut v = 0u64;
    for l in links {
        v = v.saturating_add(l.claims.edge);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agreement() -> RoamingAgreement {
        RoamingAgreement::paper_default()
    }

    #[test]
    fn serving_codes_round_trip() {
        for s in [Serving::Home, Serving::Visited] {
            assert_eq!(Serving::from_code(s.code()), Some(s));
        }
        assert_eq!(Serving::from_code(2), None);
        assert_eq!(Serving::from_code(0xFF), None);
    }

    #[test]
    fn home_split_is_exact() {
        // x = 1000, vendor 20% -> 200; home keeps 800; visited gets 0.
        let s = agreement().split_volume(1000, Serving::Home);
        assert_eq!(
            s,
            SettlementSplit {
                home: 800,
                visited: 0,
                vendor: 200
            }
        );
        assert_eq!(s.total(), 1000);
    }

    #[test]
    fn visited_split_is_exact() {
        // x = 1000: vendor 200, operator part 800, visited 75% -> 600,
        // home retains 200.
        let s = agreement().split_volume(1000, Serving::Visited);
        assert_eq!(
            s,
            SettlementSplit {
                home: 200,
                visited: 600,
                vendor: 200
            }
        );
        assert_eq!(s.total(), 1000);
    }

    #[test]
    fn awkward_volumes_still_conserve() {
        let ag = RoamingAgreement {
            plan: DataPlan::paper_default(),
            vendor_share: LossWeight::new(1, 3),
            visited_wholesale: LossWeight::new(2, 7),
        };
        for x in [0u64, 1, 2, 6, 7, 999, 1_000_003, u64::MAX] {
            for serving in [Serving::Home, Serving::Visited] {
                let s = ag.split_volume(x, serving);
                assert_eq!(s.total(), x, "x={x} serving={serving:?}");
            }
        }
    }

    #[test]
    fn settle_prices_each_segment_with_the_two_party_formula() {
        // Home segment: (1000, 800) at c=0.5 -> 900.
        // Visited segment: (500, 400) at c=0.5 -> 450.
        let segs = [
            Segment {
                serving: Serving::Home,
                claims: UsagePair {
                    edge: 1000,
                    operator: 800,
                },
            },
            Segment {
                serving: Serving::Visited,
                claims: UsagePair {
                    edge: 500,
                    operator: 400,
                },
            },
        ];
        let out = agreement().settle(&segs);
        assert_eq!(out.charged, 1350);
        assert_eq!(out.segments.len(), 2);
        assert_eq!(out.segments[0].charged, 900);
        assert_eq!(out.segments[1].charged, 450);
        assert_eq!(out.split.total(), 1350);
        // Golden split: 900 home-served -> vendor 180, home 720;
        // 450 visited-served -> vendor 90, op part 360, visited 270,
        // home 90.
        assert_eq!(
            out.split,
            SettlementSplit {
                home: 810,
                visited: 270,
                vendor: 270
            }
        );
    }

    #[test]
    fn bonded_links_reconcile_to_exact_sum() {
        let links = [
            LinkCdr {
                claims: UsagePair {
                    edge: 1000,
                    operator: 900,
                },
                rtt_us: 20_000,
                loss_bp: 1000,
            },
            LinkCdr {
                claims: UsagePair {
                    edge: 400,
                    operator: 200,
                },
                rtt_us: 550_000,
                loss_bp: 5000,
            },
        ];
        let r = reconcile_bonded(&links, LossWeight::half());
        // 900 + 0.5*100 = 950; 200 + 0.5*200 = 300.
        assert_eq!(r.per_link, vec![950, 300]);
        assert_eq!(r.charged, 1250);
        assert_eq!(bonded_volume(&links), 1400);
    }

    #[test]
    fn empty_inputs_settle_to_zero() {
        let out = agreement().settle(&[]);
        assert_eq!(out.charged, 0);
        assert_eq!(out.split, SettlementSplit::ZERO);
        let r = reconcile_bonded(&[], LossWeight::half());
        assert_eq!(r.charged, 0);
        assert!(r.per_link.is_empty());
    }
}
