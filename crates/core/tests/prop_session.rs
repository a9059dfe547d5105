//! Property-based tests of the loss-tolerant session layer: honest and
//! optimal pairs driven through arbitrary fault schedules (loss,
//! duplication, reordering, byte corruption) must always terminate, and
//! every terminating outcome is either a PoC obeying Theorem 2's bound
//! (Theorem 3's exact value for these strategy pairs) or a deterministic
//! fallback to the legacy charge shared by both parties.

use proptest::prelude::*;
use std::sync::OnceLock;
use tlc_core::cancellation::Bounds;
use tlc_core::plan::{intended_charge, DataPlan, UsagePair};
use tlc_core::protocol::Endpoint;
use tlc_core::session::{run_session_pair, FallbackReason, PairReport, Session, SessionOutcome};
use tlc_core::strategy::{
    Decision, HonestStrategy, Knowledge, OptimalStrategy, Role, Strategy as TlcStrategy,
};
use tlc_crypto::KeyPair;
use tlc_net::channel::{FaultSpec, FaultyChannel};
use tlc_net::loss::{LossModel, NoLoss, UniformLoss};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

fn keys() -> &'static (KeyPair, KeyPair) {
    static KEYS: OnceLock<(KeyPair, KeyPair)> = OnceLock::new();
    KEYS.get_or_init(|| {
        (
            KeyPair::generate_for_seed(1024, 0x5E55).unwrap(),
            KeyPair::generate_for_seed(1024, 0x5E56).unwrap(),
        )
    })
}

/// Claims and decides like `inner`, except that its first `reject_first`
/// decisions are rejections: forces the multi-round paths (counter-CDR,
/// re-claim after a CDA) through the fault schedules too.
struct RejectFirst {
    inner: Box<dyn TlcStrategy>,
    reject_first: u8,
}

impl TlcStrategy for RejectFirst {
    fn claim(&mut self, k: &Knowledge, bounds: &Bounds, round: u32) -> u64 {
        self.inner.claim(k, bounds, round)
    }

    fn decide(&mut self, k: &Knowledge, own: u64, peer: u64) -> Decision {
        if self.reject_first > 0 {
            self.reject_first -= 1;
            return Decision::Reject;
        }
        self.inner.decide(k, own, peer)
    }
}

fn strategy_of(kind: u8, reject_first: u8) -> Box<dyn TlcStrategy> {
    let inner: Box<dyn TlcStrategy> = if kind == 0 {
        Box::new(HonestStrategy)
    } else {
        Box::new(OptimalStrategy)
    };
    Box::new(RejectFirst {
        inner,
        reject_first,
    })
}

fn channel(loss: f64, spec: &FaultSpec, seed: u64) -> FaultyChannel {
    let model: Box<dyn LossModel> = if loss == 0.0 {
        Box::new(NoLoss)
    } else {
        Box::new(UniformLoss::new(loss))
    };
    FaultyChannel::new(spec.clone(), model, SimRng::new(seed))
}

/// Runs one honest/optimal session pair — `(kind, forced rejections)`
/// per side — through a fault schedule. Whatever the schedule did, each
/// endpoint must come out having signed exactly the messages it sent:
/// retransmissions re-send bytes, they never re-sign.
fn run_faulty_session(
    sent: u64,
    received: u64,
    (edge_kind, edge_rejects): (u8, u8),
    (op_kind, op_rejects): (u8, u8),
    loss: f64,
    spec: &FaultSpec,
    seed: u64,
) -> PairReport {
    let (edge_keys, op_keys) = keys();
    let plan = DataPlan::paper_default();
    let edge = Endpoint::new(
        Role::Edge,
        plan,
        Knowledge {
            role: Role::Edge,
            own_truth: sent,
            inferred_peer_truth: received,
        },
        strategy_of(edge_kind, edge_rejects),
        edge_keys.private.clone(),
        op_keys.public.clone(),
        [0xEE; 16],
        32,
    );
    let op = Endpoint::new(
        Role::Operator,
        plan,
        Knowledge {
            role: Role::Operator,
            own_truth: received,
            inferred_peer_truth: sent,
        },
        strategy_of(op_kind, op_rejects),
        op_keys.private.clone(),
        edge_keys.public.clone(),
        [0x00; 16],
        32,
    );
    let mut initiator = Session::new(op);
    let mut responder = Session::new(edge);
    let mut rng = SimRng::new(seed);
    let mut fwd = channel(loss, spec, rng.next_u64());
    let mut back = channel(loss, spec, rng.next_u64());
    let report = run_session_pair(
        &mut initiator,
        &mut responder,
        &mut fwd,
        &mut back,
        SimTime::from_millis(0),
        SimDuration::from_secs(120),
    )
    .expect("fresh endpoints always initiate");
    for session in [&initiator, &responder] {
        let stats = session.endpoint().stats();
        assert_eq!(
            stats.signatures_made, stats.msgs_sent,
            "a signature exists only for a transmitted message"
        );
    }
    report
}

/// (received ≤ sent) truth pairs, bounded so the test stays fast.
fn truth_pair() -> impl Strategy<Value = (u64, u64)> {
    (0u64..10_000_000).prop_flat_map(|sent| (Just(sent), 0..=sent))
}

/// What every terminated pair must satisfy: a shared proof obeying
/// Theorem 2 (and, with `exact`, Theorem 3's x̂), or a fallback for
/// channel reasons only, at the gateway meter's charge.
fn check_outcome(report: &PairReport, sent: u64, received: u64, exact: bool) {
    match (&report.initiator, &report.responder) {
        (SessionOutcome::Proof(a), SessionOutcome::Proof(b)) => {
            assert_eq!(a.charge, b.charge, "both sides hold the same proof");
            // Theorem 2: the charge lies within [x̂_o, x̂_e].
            assert!(
                a.charge >= received && a.charge <= sent,
                "charge {} outside [{received}, {sent}]",
                a.charge
            );
            if exact {
                let x_hat = intended_charge(
                    UsagePair {
                        edge: sent,
                        operator: received,
                    },
                    DataPlan::paper_default().loss_weight,
                );
                assert_eq!(a.charge, x_hat);
            }
        }
        _ => {
            // One side may hold the proof while the other's final ack
            // window died. Honest parties only abandon for channel
            // reasons — retry exhaustion or the peer going silent —
            // never detected misbehavior; any fallback charge is the
            // gateway meter.
            for outcome in [&report.initiator, &report.responder] {
                if let SessionOutcome::Fallback { reason, charge } = outcome {
                    assert!(
                        matches!(
                            reason,
                            FallbackReason::RetryBudgetExhausted | FallbackReason::Abandoned
                        ),
                        "honest pair fell back with {reason:?}"
                    );
                    assert_eq!(*charge, received);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Through any fault schedule, both sides terminate, and a completed
    /// negotiation satisfies Theorem 2 (charge within the truth claims)
    /// and Theorem 3 (honest/optimal pairs land exactly on x̂).
    #[test]
    fn theorems_survive_fault_schedules(
        (sent, received) in truth_pair(),
        edge_kind in 0u8..2,
        op_kind in 0u8..2,
        loss in 0.0f64..0.35,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        corrupt in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let spec = FaultSpec::with_faults(dup, reorder, corrupt);
        let report =
            run_faulty_session(sent, received, (edge_kind, 0), (op_kind, 0), loss, &spec, seed);
        // run_session_pair returning at all proves termination; every
        // outcome is set. Theorem 3/4: pure honest and pure optimal pairs
        // reach exactly x̂ (mixed pairings only guarantee the bound).
        check_outcome(&report, sent, received, edge_kind == op_kind);
    }

    /// The same, with either side made to reject its first decisions:
    /// counter-CDRs and re-claims after a CDA cross the faulty channel
    /// too, and only Theorem 2's bound is owed.
    #[test]
    fn forced_rejections_survive_fault_schedules(
        (sent, received) in truth_pair(),
        (edge_kind, edge_rejects) in (0u8..2, 0u8..3),
        (op_kind, op_rejects) in (0u8..2, 0u8..3),
        loss in 0.0f64..0.35,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        corrupt in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let spec = FaultSpec::with_faults(dup, reorder, corrupt);
        let report = run_faulty_session(
            sent, received, (edge_kind, edge_rejects), (op_kind, op_rejects), loss, &spec, seed,
        );
        check_outcome(&report, sent, received, false);
    }

    /// A channel that drops everything exhausts the initiator's retry
    /// budget — fallback fires exactly then, deterministically, with both
    /// parties agreeing on the legacy charge.
    #[test]
    fn total_loss_exhausts_retry_budget(
        (sent, received) in truth_pair(),
        seed in any::<u64>(),
    ) {
        let spec = FaultSpec::clean();
        let report = run_faulty_session(sent, received, (1, 0), (1, 0), 1.0, &spec, seed);
        prop_assert!(!report.converged());
        prop_assert!(matches!(
            report.initiator,
            SessionOutcome::Fallback { reason: FallbackReason::RetryBudgetExhausted, .. }
        ));
        prop_assert_eq!(report.initiator.charge(), report.responder.charge());
        prop_assert_eq!(report.settled_charge(), received);
    }

    /// Fault schedules are deterministic: the same seed replays the exact
    /// same session, frame for frame.
    #[test]
    fn fault_schedules_replay_deterministically(
        (sent, received) in truth_pair(),
        loss in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let spec = FaultSpec::with_faults(0.1, 0.1, 0.1);
        let a = run_faulty_session(sent, received, (1, 0), (1, 0), loss, &spec, seed);
        let b = run_faulty_session(sent, received, (1, 0), (1, 0), loss, &spec, seed);
        prop_assert_eq!(a.converged(), b.converged());
        prop_assert_eq!(a.settled_charge(), b.settled_charge());
        prop_assert_eq!(a.frames_sent, b.frames_sent);
        prop_assert_eq!(a.retransmits, b.retransmits);
        prop_assert_eq!(a.elapsed.as_micros(), b.elapsed.as_micros());
    }
}
