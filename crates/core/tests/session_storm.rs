//! Acceptance storm: 1000 honest-vs-optimal negotiations over a control
//! channel with 20% loss plus duplication and reordering, fixed seed.
//! Every session must terminate — no panics, no hangs — and every outcome
//! is either a PoC within Theorem 2's bounds or a deterministic fallback
//! to the legacy charge agreed by both parties.

use tlc_core::plan::DataPlan;
use tlc_core::protocol::Endpoint;
use tlc_core::session::{run_session_pair, Session, SessionOutcome};
use tlc_core::strategy::{HonestStrategy, Knowledge, OptimalStrategy, Role};
use tlc_crypto::KeyPair;
use tlc_net::channel::{FaultSpec, FaultyChannel};
use tlc_net::loss::UniformLoss;
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

const SESSIONS: u64 = 1000;
const LOSS: f64 = 0.20;
const MASTER_SEED: u64 = 0x20_25_08_05;

#[test]
fn thousand_sessions_at_20pct_loss_all_terminate() {
    let edge_keys = KeyPair::generate_for_seed(1024, 0xACCE).unwrap();
    let op_keys = KeyPair::generate_for_seed(1024, 0xACC0).unwrap();
    let plan = DataPlan::paper_default();
    let spec = FaultSpec::with_faults(0.10, 0.10, 0.0);
    let mut master = SimRng::new(MASTER_SEED);

    let mut converged = 0u64;
    let mut fallbacks = 0u64;
    for i in 0..SESSIONS {
        let sent = 1_000_000 + i * 1_000;
        let received = sent - (i % 100) * 1_000; // loss of 0–9.9%
        let edge = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: sent,
                inferred_peer_truth: received,
            },
            Box::new(HonestStrategy),
            edge_keys.private.clone(),
            op_keys.public.clone(),
            [(i % 251) as u8; 16],
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
            Box::new(OptimalStrategy),
            op_keys.private.clone(),
            edge_keys.public.clone(),
            [(i % 251) as u8 ^ 0xFF; 16],
            32,
        );
        let mut initiator = Session::new(op);
        let mut responder = Session::new(edge);
        let mut fwd = FaultyChannel::new(
            spec.clone(),
            Box::new(UniformLoss::new(LOSS)),
            SimRng::new(master.next_u64()),
        );
        let mut back = FaultyChannel::new(
            spec.clone(),
            Box::new(UniformLoss::new(LOSS)),
            SimRng::new(master.next_u64()),
        );
        let report = run_session_pair(
            &mut initiator,
            &mut responder,
            &mut fwd,
            &mut back,
            SimTime::from_millis(0),
            SimDuration::from_secs(120),
        )
        .expect("session {i} failed to start");

        match (&report.initiator, &report.responder) {
            (SessionOutcome::Proof(a), SessionOutcome::Proof(b)) => {
                assert_eq!(a.charge, b.charge, "session {i}: proofs disagree");
                assert!(
                    a.charge >= received && a.charge <= sent,
                    "session {i}: charge {} outside [{received}, {sent}]",
                    a.charge
                );
                converged += 1;
            }
            (a, b) => {
                // At least one side fell back; every fallback charge is
                // the deterministic gateway meter.
                for outcome in [a, b] {
                    if let SessionOutcome::Fallback { charge, .. } = outcome {
                        assert_eq!(*charge, received, "session {i}: fallback charge");
                    }
                }
                fallbacks += 1;
            }
        }
    }

    assert_eq!(converged + fallbacks, SESSIONS);
    // 20% loss with an 8-retry budget: the overwhelming majority converge.
    assert!(
        converged >= SESSIONS * 95 / 100,
        "only {converged}/{SESSIONS} sessions converged"
    );
    println!("storm: {converged} converged, {fallbacks} fallbacks");
}
