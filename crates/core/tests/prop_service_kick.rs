//! Flush policy is invisible in the verdicts (DESIGN §8.1).
//!
//! Whatever mix of size-triggered flushes and idle kicks cuts a
//! relationship's submissions into batches, the service must return
//! exactly what one sequential [`Verifier`] would: the same verdict for
//! every proof — replays of earlier proofs included — in per-
//! relationship submission order. The deadline is set out of reach, so
//! every result here was flushed by size, by a kick, or by the kick
//! `collect_results` sends itself.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::service::{RelationshipId, ServiceConfig, VerifierService};
use tlc_core::verify::{Verdict, Verifier, VerifyError};
use tlc_crypto::KeyPair;

const RELS: usize = 3;
const POCS_PER_REL: usize = 4;

struct Relationship {
    edge: KeyPair,
    op: KeyPair,
    /// A small pool, so arbitrary picks repeat and replays occur.
    pocs: Vec<PocMsg>,
}

fn negotiate(edge: &KeyPair, op: &KeyPair, plan: DataPlan, nonce: u8) -> PocMsg {
    let endpoint = |role, own, peer, key: &KeyPair, other: &KeyPair, n| {
        Endpoint::new(
            role,
            plan,
            Knowledge {
                role,
                own_truth: own,
                inferred_peer_truth: peer,
            },
            Box::new(OptimalStrategy),
            key.private.clone(),
            other.public.clone(),
            [n; NONCE_LEN],
            32,
        )
    };
    let mut e = endpoint(Role::Edge, 1000, 800, edge, op, nonce);
    let mut o = endpoint(Role::Operator, 800, 1000, op, edge, nonce.wrapping_add(1));
    run_negotiation(&mut o, &mut e).unwrap().0
}

/// Keys and proofs are expensive and pure data: made once.
fn corpus() -> &'static Vec<Relationship> {
    static CORPUS: OnceLock<Vec<Relationship>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let plan = DataPlan::paper_default();
        (0..RELS as u64)
            .map(|r| {
                let edge = KeyPair::generate_for_seed(1024, 61_000 + 2 * r).unwrap();
                let op = KeyPair::generate_for_seed(1024, 61_001 + 2 * r).unwrap();
                let pocs = (0..POCS_PER_REL as u8)
                    .map(|k| negotiate(&edge, &op, plan, 32 * r as u8 + 2 * k + 1))
                    .collect();
                Relationship { edge, op, pocs }
            })
            .collect()
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit { rel: usize, poc: usize },
    Kick,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..4, 0usize..RELS, 0usize..POCS_PER_REL).prop_map(|(kind, rel, poc)| {
        if kind == 0 {
            Op::Kick
        } else {
            Op::Submit { rel, poc }
        }
    });
    proptest::collection::vec(op, 1..40)
}

type Outcome = Result<Verdict, VerifyError>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_any_submit_kick_interleaving_matches_sequential_verify(
        ops in arb_ops(),
        workers in 1usize..3,
        batch_size in 1usize..5,
    ) {
        let plan = DataPlan::paper_default();
        let corpus = corpus();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers,
            batch_size,
            flush_deadline: Duration::from_secs(600),
            stage_queue_depth: 4,
        });
        let mut rels = Vec::new();
        let mut oracles = Vec::new();
        for r in corpus {
            rels.push(svc.register(plan, r.edge.public.clone(), r.op.public.clone()).unwrap());
            oracles.push(Verifier::new(plan, r.edge.public.clone(), r.op.public.clone()));
        }

        let mut want: HashMap<RelationshipId, Vec<(u64, Outcome)>> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Kick => svc.kick(),
                Op::Submit { rel, poc } => {
                    let proof = &corpus[rel].pocs[poc];
                    let tag = svc.submit(rels[rel], proof.clone()).unwrap();
                    want.entry(rels[rel]).or_default().push((tag, oracles[rel].verify(proof)));
                }
            }
        }

        let mut got: HashMap<RelationshipId, Vec<(u64, Outcome)>> = HashMap::new();
        for r in svc.collect_results().unwrap() {
            got.entry(r.relationship).or_default().push((r.tag, r.result));
        }
        prop_assert_eq!(got, want);
        let report = svc.finish();
        prop_assert_eq!(report.deadline_flushes, 0);
        prop_assert_eq!(report.unclaimed_results, 0);
    }
}
