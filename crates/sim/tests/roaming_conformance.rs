//! Conformance suite for the three-party roaming settlement plane
//! (DESIGN §14).
//!
//! Three contracts, pinned hard:
//!
//! 1. **Golden settlement splits** — a fixed-seed roaming twin run
//!    produces exactly the recorded home/visited/vendor volumes; any
//!    drift in split arithmetic or the roaming event order moves them.
//! 2. **Conservation laws** (proptest) — for arbitrary volumes,
//!    agreement shares, and handover segmentations,
//!    `home + visited + vendor == charged` holds *exactly*; and for a
//!    bonded device, the per-link CDR volumes sum to the session
//!    volume under any loss/reorder schedule, with the reconciled
//!    charge equal to the exact sum of per-link charges.
//! 3. **Equivalence axes** — roaming-enabled runs digest identically
//!    at any thread count, and to the values the wheel and a
//!    binary-heap scheduler agreed on in the last commit that had both.

use proptest::prelude::*;
use tlc_core::plan::{charge_for, DataPlan, LossWeight, UsagePair};
use tlc_core::roaming::{
    bonded_volume, reconcile_bonded, LinkCdr, RoamingAgreement, Segment, Serving,
};
use tlc_net::time::SimDuration;
use tlc_sim::twin::{run_twin, NullSink, RoamingSweep, RoamingTwinConfig, TwinConfig};

fn roaming_cfg(seed: u64) -> TwinConfig {
    let mut cfg = TwinConfig::smoke(seed);
    cfg.initial_sessions = 250;
    cfg.duration = SimDuration::from_secs(6);
    cfg.roaming = Some(RoamingTwinConfig::paper_default());
    cfg
}

/// Fixed-seed golden splits: the exact three-party volumes a seed-42
/// roaming run settles. If any number moves, the settlement
/// arithmetic (or the event/RNG order feeding it) changed — update
/// deliberately, alongside `twin_equiv`'s roaming golden digest.
#[test]
fn golden_settlement_splits_are_pinned() {
    let r = run_twin(&roaming_cfg(42), &mut NullSink);
    let g = r.roaming;
    assert!(g.cycles_settled > 0);
    assert_eq!(
        g.home.saturating_add(g.visited).saturating_add(g.vendor),
        g.charged,
        "conservation broke before the golden even applies"
    );
    assert_eq!(
        g, GOLDEN_SWEEP,
        "golden roaming splits moved: settlement arithmetic or event order changed"
    );
}

const GOLDEN_SWEEP: RoamingSweep = RoamingSweep {
    roamers_admitted: 150,
    bonded_admitted: 84,
    operator_handovers: 94,
    cycles_settled: 1196,
    charged: 415_499_104,
    home: 322_345_285,
    visited: 10_054_504,
    vendor: 83_099_315,
    bonded_cycles: 201,
    bonded_link_charged: 88_560_693,
};

/// Both equivalence axes at once, with the conservation law asserted
/// at every point. The thread axis is live; the backend axis is the
/// constant: `roaming_cfg(77)` digested to this on the wheel and on a
/// binary-heap scheduler (1, 2 and 4 threads each) in the last commit
/// that had both.
#[test]
fn backends_and_threads_agree_on_settlement() {
    for threads in [1usize, 2, 4] {
        let mut cfg = roaming_cfg(77);
        cfg.threads = threads;
        let r = run_twin(&cfg, &mut NullSink);
        assert_eq!(r.digest, 0x44f0_19e1_e4cc_95ce, "{threads} threads");
        assert_eq!(
            r.roaming
                .home
                .saturating_add(r.roaming.visited)
                .saturating_add(r.roaming.vendor),
            r.roaming.charged,
            "{threads} threads leaked settlement bytes"
        );
    }
    for (seed, sessions, shards, roamer_pct, bonded_pct, digest) in HEAP_AGREED_RUNS {
        let cfg = small_roaming_cfg(seed, sessions, shards, roamer_pct, bonded_pct);
        assert_eq!(run_twin(&cfg, &mut NullSink).digest, digest, "seed {seed}");
    }
}

/// The eight cases `prop_roaming_twin_conserves_across_axes` drew when
/// it still had a backend leg, with the digest both schedulers
/// produced: `(seed, sessions, shards, roamer_pct, bonded_pct, digest)`.
const HEAP_AGREED_RUNS: [(u64, usize, usize, u32, u32, u64); 8] = [
    (266, 102, 2, 7, 0, 0xe2dc_512d_46c4_dea7),
    (39, 72, 2, 5, 6, 0x34fc_a4ed_2912_064e),
    (87, 70, 1, 0, 7, 0x682f_600f_aec1_95e4),
    (120, 130, 3, 0, 8, 0x5269_3df8_be65_a214),
    (208, 136, 3, 8, 9, 0xe0d6_73c8_5edc_8368),
    (55, 100, 2, 5, 10, 0x1dc0_27b8_6a5d_6fb8),
    (256, 63, 1, 7, 10, 0x319a_9d3e_f006_6849),
    (353, 115, 2, 7, 8, 0xe190_d843_d328_029f),
];

fn small_roaming_cfg(
    seed: u64,
    sessions: usize,
    shards: usize,
    roamer_pct: u32,
    bonded_pct: u32,
) -> TwinConfig {
    let mut cfg = TwinConfig::smoke(seed);
    cfg.initial_sessions = sessions;
    cfg.shards = shards;
    cfg.duration = SimDuration::from_secs(4);
    cfg.roaming = Some(RoamingTwinConfig {
        agreement: RoamingAgreement::paper_default(),
        roamer_fraction: roamer_pct as f64 / 10.0,
        bonded_fraction: bonded_pct as f64 / 10.0,
        operator_handover_gap: SimDuration::from_millis(1_100),
    });
    cfg
}

/// Strategy: a reduced-rational share in [0, 1].
fn arb_share() -> impl Strategy<Value = LossWeight> {
    (1u32..5000).prop_flat_map(|d| (0..=d).prop_map(move |n| LossWeight::new(n, d)))
}

fn arb_agreement() -> impl Strategy<Value = RoamingAgreement> {
    (arb_share(), arb_share()).prop_map(|(vendor_share, visited_wholesale)| RoamingAgreement {
        plan: DataPlan::paper_default(),
        vendor_share,
        visited_wholesale,
    })
}

/// Strategy: an ordered claim pair (operator ≤ edge).
fn arb_claims() -> impl Strategy<Value = UsagePair> {
    (0u64..2_000_000_000)
        .prop_flat_map(|edge| (0..=edge).prop_map(move |operator| UsagePair { edge, operator }))
}

fn arb_serving() -> impl Strategy<Value = Serving> {
    (0u8..2).prop_map(|b| {
        if b == 0 {
            Serving::Home
        } else {
            Serving::Visited
        }
    })
}

/// Strategy: a charged volume mixing the ordinary range with the
/// saturation edge (`u64::MAX` and just below it).
fn arb_charged() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..=1_000_000, 0u64..10_000).prop_map(|(sel, small, delta)| match sel {
        0 | 1 => small,
        2 => u64::MAX,
        _ => u64::MAX - delta,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation law 1, pure form: any volume, any agreement
    /// shares, either serving side — the split is exact.
    #[test]
    fn prop_split_conserves_exactly(
        ag in arb_agreement(),
        charged in arb_charged(),
        serving in arb_serving(),
    ) {
        let s = ag.split_volume(charged, serving);
        prop_assert_eq!(s.total(), charged);
        if serving == Serving::Home {
            prop_assert_eq!(s.visited, 0);
        }
    }

    /// Conservation law 1, cycle form: any handover segmentation of a
    /// cycle settles to the exact sum of its segments' charges, and
    /// the aggregate split conserves it byte for byte. This is the
    /// "home + visited + vendor == twin analytic volume" law — the
    /// analytic volume *is* Σ charge_for(segment claims).
    #[test]
    fn prop_segmented_cycle_settles_exactly(
        ag in arb_agreement(),
        segs in proptest::collection::vec((arb_serving(), arb_claims()), 0..6),
    ) {
        let segments: Vec<Segment> = segs
            .iter()
            .map(|&(serving, claims)| Segment { serving, claims })
            .collect();
        let analytic: u64 = segments
            .iter()
            .map(|s| charge_for(s.claims, ag.plan.loss_weight))
            .fold(0u64, |a, x| a.saturating_add(x));
        let out = ag.settle(&segments);
        prop_assert_eq!(out.charged, analytic);
        prop_assert_eq!(out.split.total(), out.charged);
        // Per-segment exactness too: each piece conserves on its own.
        for s in &out.segments {
            prop_assert_eq!(s.split.total(), s.charged);
        }
    }

    /// Conservation law 2: a bonded session's per-link CDR volumes sum
    /// to the session volume under any loss/reorder schedule, and the
    /// reconciled charge is the exact sum of per-link charges.
    #[test]
    fn prop_bonded_links_reconcile_exactly(
        volume in 0u64..1_000_000_000,
        cuts in proptest::collection::vec(0.0f64..=1.0, 1..5),
        losses in proptest::collection::vec(0.0f64..=1.0, 5),
        reorder_seed in 0u64..1000,
        c in arb_share(),
    ) {
        // Partition `volume` across the links at arbitrary cut points
        // (the striping schedule), then apply an arbitrary loss rate
        // per link (the loss schedule).
        let mut links: Vec<LinkCdr> = Vec::new();
        let mut remaining = volume;
        for (i, cut) in cuts.iter().enumerate() {
            let take = if i + 1 == cuts.len() {
                remaining
            } else {
                ((remaining as f64) * cut) as u64
            };
            remaining -= take;
            let delivered = ((take as f64) * (1.0 - losses[i % losses.len()])) as u64;
            links.push(LinkCdr {
                claims: UsagePair { edge: take, operator: delivered.min(take) },
                rtt_us: 10_000 + (i as u32) * 17_000,
                loss_bp: (losses[i % losses.len()] * 10_000.0) as u32,
            });
        }
        if remaining > 0 {
            links.push(LinkCdr {
                claims: UsagePair { edge: remaining, operator: remaining },
                rtt_us: 9_000,
                loss_bp: 0,
            });
        }
        // Reorder schedule: delivery order across links must not
        // change anything — rotate the link list arbitrarily.
        let n = links.len();
        links.rotate_left((reorder_seed as usize) % n.max(1));

        prop_assert_eq!(bonded_volume(&links), volume, "striping must partition exactly");
        let rec = reconcile_bonded(&links, c);
        let sum = rec.per_link.iter().fold(0u64, |a, x| a.saturating_add(*x));
        prop_assert_eq!(rec.charged, sum, "bonded charge must be the exact per-link sum");
        prop_assert_eq!(rec.per_link.len(), links.len());
        // Each link's charge brackets inside its own claims.
        for (l, x) in links.iter().zip(&rec.per_link) {
            prop_assert!(*x >= l.claims.operator && *x <= l.claims.edge);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Twin-level conservation and equivalence: random small roaming
    /// configurations conserve exactly and digest identically in a
    /// multi-threaded run.
    #[test]
    fn prop_roaming_twin_conserves_across_axes(
        seed in 1u64..500,
        sessions in 40usize..140,
        shards in 1usize..4,
        roamer_pct in 0u32..=10,
        bonded_pct in 0u32..=10,
        threads in 2usize..5,
    ) {
        let cfg = small_roaming_cfg(seed, sessions, shards, roamer_pct, bonded_pct);
        let reference = run_twin(&cfg, &mut NullSink);
        prop_assert_eq!(reference.stale_events, 0);
        prop_assert_eq!(
            reference.roaming.home
                .saturating_add(reference.roaming.visited)
                .saturating_add(reference.roaming.vendor),
            reference.roaming.charged
        );

        let mut mt = cfg.clone();
        mt.threads = threads;
        let rt = run_twin(&mt, &mut NullSink);
        prop_assert_eq!(rt.digest, reference.digest);
        prop_assert_eq!(rt.roaming, reference.roaming);
    }
}
