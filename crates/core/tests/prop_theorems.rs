//! Property-based tests of the paper's theorems over the whole parameter
//! space: arbitrary true usage pairs, plan weights, and strategy pairings.

use proptest::prelude::*;
use std::sync::OnceLock;
use tlc_core::cancellation::{negotiate, Bounds, DEFAULT_MAX_ROUNDS};
use tlc_core::game::ClaimSpace;
use tlc_core::plan::{charge_for, intended_charge, ChargingCycle, DataPlan, LossWeight, UsagePair};
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{
    Decision, HonestStrategy, Knowledge, OptimalStrategy, RandomSelfishStrategy, Role,
    Strategy as TlcStrategy,
};
use tlc_core::verify::verify_poc;
use tlc_crypto::KeyPair;
use tlc_net::rng::SimRng;

/// Claims like `inner`, but rejects the decisions `reject_mask` names
/// (bit 0 = its first decision) whatever `inner` would have said —
/// arbitrary extra rejections, never an extra acceptance, so the
/// cross-check behind Theorem 2 stays in force.
struct Contrary {
    inner: Box<dyn TlcStrategy>,
    reject_mask: u8,
    decisions: u32,
}

impl TlcStrategy for Contrary {
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, round: u32) -> u64 {
        self.inner.claim(k, bounds, round)
    }

    fn decide(&mut self, k: &Knowledge, own: u64, peer: u64) -> Decision {
        let forced = self.decisions < 8 && self.reject_mask >> self.decisions & 1 == 1;
        self.decisions += 1;
        if forced {
            Decision::Reject
        } else {
            self.inner.decide(k, own, peer)
        }
    }
}

/// `(edge, operator)` key pairs for the wire-protocol property.
fn wire_keys() -> &'static (KeyPair, KeyPair) {
    static KEYS: OnceLock<(KeyPair, KeyPair)> = OnceLock::new();
    KEYS.get_or_init(|| {
        (
            KeyPair::generate_for_seed(1024, 0x7E0).unwrap(),
            KeyPair::generate_for_seed(1024, 0x7E1).unwrap(),
        )
    })
}

fn plan(c_e4: u32) -> DataPlan {
    DataPlan {
        loss_weight: LossWeight::new(c_e4, 10_000),
        cycle: ChargingCycle::one_hour(),
    }
}

fn kn(sent: u64, received: u64) -> (Knowledge, Knowledge) {
    (
        Knowledge {
            role: Role::Edge,
            own_truth: sent,
            inferred_peer_truth: received,
        },
        Knowledge {
            role: Role::Operator,
            own_truth: received,
            inferred_peer_truth: sent,
        },
    )
}

/// (received ≤ sent) pairs over a wide dynamic range.
fn truth_pair() -> impl Strategy<Value = (u64, u64)> {
    (0u64..u64::MAX / 4).prop_flat_map(|sent| (Just(sent), 0..=sent))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pricing formula is always bounded by the claims and monotone
    /// in each claim (the lemma behind Theorem 2).
    #[test]
    fn charge_bounded_and_monotone(
        (xe, xo) in truth_pair(),
        c_e4 in 0u32..=10_000,
        bump in 1u64..1_000_000,
    ) {
        let w = LossWeight::new(c_e4, 10_000);
        let x = charge_for(UsagePair { edge: xe, operator: xo }, w);
        prop_assert!(x >= xo && x <= xe);
        // Monotone in the edge claim.
        let x_up = charge_for(UsagePair { edge: xe.saturating_add(bump), operator: xo }, w);
        prop_assert!(x_up >= x);
        // Monotone in the operator claim (stays within [xo, xe]).
        let xo_up = (xo.saturating_add(bump)).min(xe);
        let x_up2 = charge_for(UsagePair { edge: xe, operator: xo_up }, w);
        prop_assert!(x_up2 >= x);
    }

    /// Theorem 3: rational (optimal) pairs converge to the plan-intended
    /// charge for every truth pair and plan weight.
    #[test]
    fn theorem3_optimal_pair_reaches_intended(
        (sent, received) in truth_pair(),
        c_e4 in 0u32..=10_000,
    ) {
        let p = plan(c_e4);
        let (ke, ko) = kn(sent, received);
        let out = negotiate(
            &p, &mut OptimalStrategy, &ke, &mut OptimalStrategy, &ko, DEFAULT_MAX_ROUNDS,
        ).unwrap();
        prop_assert_eq!(out.charge, intended_charge(UsagePair { edge: sent, operator: received }, p.loss_weight));
        // Theorem 4: and in exactly one round.
        prop_assert_eq!(out.rounds, 1);
    }

    /// Honest pairs also converge to x̂ in one round (Theorem 4 case 1).
    #[test]
    fn honest_pair_reaches_intended(
        (sent, received) in truth_pair(),
        c_e4 in 0u32..=10_000,
    ) {
        let p = plan(c_e4);
        let (ke, ko) = kn(sent, received);
        let out = negotiate(
            &p, &mut HonestStrategy, &ke, &mut HonestStrategy, &ko, DEFAULT_MAX_ROUNDS,
        ).unwrap();
        prop_assert_eq!(out.charge, intended_charge(UsagePair { edge: sent, operator: received }, p.loss_weight));
        prop_assert_eq!(out.rounds, 1);
    }

    /// Theorem 2: for every pairing of {honest, optimal, random} the
    /// negotiated charge lies in [x̂_o, x̂_e].
    #[test]
    fn theorem2_bound_for_all_pairings(
        (sent, received) in truth_pair(),
        c_e4 in 0u32..=10_000,
        seed in any::<u64>(),
        edge_kind in 0u8..3,
        op_kind in 0u8..3,
    ) {
        let p = plan(c_e4);
        let (ke, ko) = kn(sent, received);
        let mk = |kind: u8, s: u64| -> Box<dyn TlcStrategy> {
            match kind {
                0 => Box::new(HonestStrategy),
                1 => Box::new(OptimalStrategy),
                _ => Box::new(RandomSelfishStrategy::new(SimRng::new(s))),
            }
        };
        let out = negotiate(
            &p, mk(edge_kind, seed).as_mut(), &ke, mk(op_kind, seed ^ 0xFFFF).as_mut(), &ko,
            DEFAULT_MAX_ROUNDS,
        ).unwrap();
        prop_assert!(out.charge >= received && out.charge <= sent,
            "charge {} outside [{received}, {sent}]", out.charge);
    }

    /// Mixed honest/rational pairings still converge (possibly not to x̂)
    /// and the transcript's bounds shrink monotonically.
    #[test]
    fn transcript_bounds_shrink(
        (sent, received) in truth_pair(),
        seed in any::<u64>(),
    ) {
        let p = plan(5000);
        let (ke, ko) = kn(sent, received);
        let out = negotiate(
            &p,
            &mut RandomSelfishStrategy::new(SimRng::new(seed)),
            &ke,
            &mut RandomSelfishStrategy::new(SimRng::new(seed ^ 1)),
            &ko,
            DEFAULT_MAX_ROUNDS,
        ).unwrap();
        for w in out.transcript.windows(2) {
            prop_assert!(w[1].bounds.lo >= w[0].bounds.lo);
            prop_assert!(w[1].bounds.hi <= w[0].bounds.hi);
        }
    }

    /// The numeric game matches the closed form: minimax == maximin == x̂
    /// over sampled claim spaces (Von Neumann's theorem instantiated).
    #[test]
    fn minimax_equals_maximin(
        received in 0u64..1_000_000,
        loss in 0u64..1_000_000,
        c_e4 in 0u32..=10_000,
    ) {
        let space = ClaimSpace::new(received, received + loss);
        let w = LossWeight::new(c_e4, 10_000);
        let x_hat = space.intended(w);
        prop_assert_eq!(space.minimax(w), x_hat);
        prop_assert_eq!(space.maximin(w), x_hat);
    }

    /// Bounds helpers: tighten always yields a sub-range containing both
    /// inputs; clamp lands inside.
    #[test]
    fn bounds_algebra(a in any::<u64>(), b in any::<u64>(), v in any::<u64>()) {
        let t = Bounds::unbounded().tighten(a, b);
        prop_assert!(t.admits(a) && t.admits(b));
        prop_assert!(t.admits(t.clamp(v)));
        let t2 = t.tighten(t.clamp(v), a);
        prop_assert!(t2.lo >= t.lo && t2.hi <= t.hi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The wire protocol under arbitrary accept/reject behaviour on both
    /// sides: Theorems 2–4 hold on the signed messages as they do on the
    /// abstract algorithm, an endpoint signs exactly what it sends, and
    /// in an undisturbed run checks exactly one signature per message it
    /// receives — while the proof still carries the full three-signature
    /// chain a third party verifies.
    #[test]
    fn wire_protocol_keeps_theorems_and_signs_only_what_it_sends(
        (sent, received) in truth_pair(),
        c_e4 in 0u32..=10_000,
        seed in any::<u64>(),
        edge_kind in 0u8..3,
        op_kind in 0u8..3,
        edge_rejects in 0u8..8,
        op_rejects in 0u8..8,
        edge_initiates in any::<bool>(),
    ) {
        let (edge_keys, op_keys) = wire_keys();
        let p = plan(c_e4);
        let (ke, ko) = kn(sent, received);
        let mk = |kind: u8, s: u64, reject_mask: u8| -> Box<dyn TlcStrategy> {
            let inner: Box<dyn TlcStrategy> = match kind {
                0 => Box::new(HonestStrategy),
                1 => Box::new(OptimalStrategy),
                _ => Box::new(RandomSelfishStrategy::new(SimRng::new(s))),
            };
            Box::new(Contrary { inner, reject_mask, decisions: 0 })
        };
        let mut edge = Endpoint::new(
            Role::Edge, p, ke, mk(edge_kind, seed, edge_rejects),
            edge_keys.private.clone(), op_keys.public.clone(), [0xEE; 16], DEFAULT_MAX_ROUNDS,
        );
        let mut op = Endpoint::new(
            Role::Operator, p, ko, mk(op_kind, seed ^ 0xFFFF, op_rejects),
            op_keys.private.clone(), edge_keys.public.clone(), [0x00; 16], DEFAULT_MAX_ROUNDS,
        );
        let outcome = if edge_initiates {
            run_negotiation(&mut edge, &mut op)
        } else {
            run_negotiation(&mut op, &mut edge)
        };
        let (es, os) = (edge.stats(), op.stats());
        // Converged or stalled: a signature exists only for a sent message.
        prop_assert_eq!(es.signatures_made, es.msgs_sent);
        prop_assert_eq!(os.signatures_made, os.msgs_sent);
        if let Ok((poc, msgs)) = outcome {
            prop_assert_eq!(u64::from(msgs), es.msgs_sent + os.msgs_sent);
            // One check per message received.
            prop_assert_eq!(es.signatures_checked, os.msgs_sent);
            prop_assert_eq!(os.signatures_checked, es.msgs_sent);
            // The third party still finds all three signatures.
            prop_assert!(verify_poc(&poc, &p, &edge_keys.public, &op_keys.public).is_ok());
            // Theorem 2.
            prop_assert!(poc.charge >= received && poc.charge <= sent,
                "charge {} outside [{received}, {sent}]", poc.charge);
            if edge_rejects == 0 && op_rejects == 0 && edge_kind == op_kind && edge_kind < 2 {
                // Theorem 3: x̂; Theorem 4: one round — three messages,
                // three signatures made, three checked.
                let x_hat = intended_charge(
                    UsagePair { edge: sent, operator: received }, p.loss_weight);
                prop_assert_eq!(poc.charge, x_hat);
                prop_assert_eq!((edge.rounds(), op.rounds(), msgs), (1, 1, 3));
                prop_assert_eq!(es.signatures_checked + os.signatures_checked, 3);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wire codec fuzz: CDR encode/decode round-trips for arbitrary field
    /// values, and arbitrary byte soup never panics the decoders.
    #[test]
    fn message_codec_roundtrip_and_fuzz(
        seq in any::<u64>(),
        usage in any::<u64>(),
        nonce in any::<[u8; 16]>(),
        soup in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        use tlc_core::messages::{CdaMsg, CdrMsg, PocMsg};
        let kp = KeyPair::generate_for_seed(1024, 0xBEEF).unwrap();
        let p = DataPlan::paper_default();
        let cdr = CdrMsg::sign(Role::Edge, p, seq, nonce, usage, &kp.private).unwrap();
        prop_assert_eq!(CdrMsg::decode(&cdr.encode()).unwrap(), cdr);
        // Decoders must reject or parse garbage without panicking.
        let _ = CdrMsg::decode(&soup);
        let _ = CdaMsg::decode(&soup);
        let _ = PocMsg::decode(&soup);
    }
}
