//! Flush policy is invisible in the verdicts (`tlc_core::verify::stage`).
//!
//! Whatever mix of size-triggered batches and flushes cuts a
//! relationship's submissions into batches, the batching core
//! ([`Stage`]) must return exactly what one sequential [`Verifier`]
//! would: the same verdict for every proof — replays of earlier proofs
//! included — in per-relationship submission order. The stage has no
//! thread and no clock, so the property is checked on it directly, many
//! cases fast — on one stage, and on two stages presenting one
//! relationship's proofs to one table, where the sequential verifier is
//! fed in the order the batches were judged; one smaller run drives the
//! same property through the in-process `VerifierService`, whose
//! `collect_results` is the flush.
//!
//! Proofs are also presented under relationships they were not made in.
//! Relationships 0 and 1 share an edge key — a roaming vendor's home and
//! visited relationships (DESIGN §14) — so the table must accept every
//! distinct proof at most once, and only under its own relationship: a
//! cross-operator resubmission fails its signatures however old it is.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::service::{RelationshipId, ServiceConfig, SubmissionResult, VerifierService};
use tlc_core::verify::stage::{Relationships, Stage};
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
/// Relationships 0 and 1 share an edge key: one vendor's home and
/// visited relationships.
fn corpus() -> &'static Vec<Relationship> {
    static CORPUS: OnceLock<Vec<Relationship>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let plan = DataPlan::paper_default();
        let mut corpus: Vec<Relationship> = Vec::with_capacity(RELS);
        for r in 0..RELS as u64 {
            let edge = if r == 1 {
                corpus[0].edge.clone()
            } else {
                KeyPair::generate_for_seed(1024, 61_000 + 2 * r).unwrap()
            };
            let op = KeyPair::generate_for_seed(1024, 61_001 + 2 * r).unwrap();
            let pocs = (0..POCS_PER_REL as u8)
                .map(|k| negotiate(&edge, &op, plan, 32 * r as u8 + 2 * k + 1))
                .collect();
            corpus.push(Relationship { edge, op, pocs });
        }
        corpus
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Proof `poc` made in relationship `rel`, presented under `under`.
    Submit {
        rel: usize,
        poc: usize,
        under: usize,
    },
    Flush,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // `under` is the proof's own relationship on two draws in three.
    let op = (0u8..4, 0usize..RELS, 0usize..POCS_PER_REL, 0usize..2 * RELS).prop_map(
        |(kind, rel, poc, under)| {
            if kind == 0 {
                Op::Flush
            } else {
                let under = if under < RELS { under } else { rel };
                Op::Submit { rel, poc, under }
            }
        },
    );
    proptest::collection::vec(op, 1..40)
}

type Outcome = Result<Verdict, VerifyError>;
type PerRelationship = HashMap<RelationshipId, Vec<(u64, Outcome)>>;

/// One sequential `Verifier` per relationship: the oracle.
fn oracles() -> Vec<Verifier> {
    let plan = DataPlan::paper_default();
    corpus()
        .iter()
        .map(|r| Verifier::new(plan, r.edge.public.clone(), r.op.public.clone()))
        .collect()
}

fn grouped(results: impl IntoIterator<Item = SubmissionResult>) -> PerRelationship {
    let mut got = PerRelationship::new();
    for r in results {
        got.entry(r.relationship)
            .or_default()
            .push((r.tag, r.result));
    }
    got
}

/// Every distinct proof is accepted at most once in the whole table,
/// and only under the relationship it was made in. `made_in` maps a
/// submission's tag to its proof's `(rel, poc)`.
fn assert_accepted_once_under_own(
    got: &PerRelationship,
    rels: &[RelationshipId],
    made_in: &HashMap<u64, (usize, usize)>,
) {
    let mut accepted = HashSet::new();
    for (under, results) in got {
        for (tag, result) in results {
            if result.is_ok() {
                let (rel, poc) = made_in[tag];
                prop_assert_eq!(*under, rels[rel], "tag {} accepted under another id", tag);
                prop_assert!(accepted.insert((rel, poc)), "tag {} accepted twice", tag);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_any_submit_flush_interleaving_matches_sequential_verify(
        ops in arb_ops(),
        batch_size in 1usize..5,
    ) {
        let plan = DataPlan::paper_default();
        let corpus = corpus();
        let mut stage = Stage::new(0, batch_size, Arc::default());
        let rels: Vec<RelationshipId> = corpus
            .iter()
            .map(|r| stage.register(plan, r.edge.public.clone(), r.op.public.clone(), 1 << 10))
            .collect();
        let mut oracles = oracles();

        let mut want = PerRelationship::new();
        let mut got = Vec::new();
        let mut made_in = HashMap::new();
        for (tag, op) in ops.iter().enumerate() {
            match *op {
                Op::Flush => stage.flush(),
                Op::Submit { rel, poc, under } => {
                    let proof = &corpus[rel].pocs[poc];
                    stage.submit(rels[under], tag as u64, proof.clone(), &proof.encode());
                    made_in.insert(tag as u64, (rel, poc));
                    want.entry(rels[under]).or_default().push((tag as u64, oracles[under].verify(proof)));
                }
            }
            // Taking results at arbitrary points must not disturb them.
            if tag % 3 == 0 {
                got.extend(stage.take_results());
            }
        }
        let submitted: u64 = want.values().map(|v| v.len() as u64).sum();
        let (stats, rest) = stage.finish();
        got.extend(rest);
        let got = grouped(got);
        assert_accepted_once_under_own(&got, &rels, &made_in);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats.accepted + stats.rejected, submitted);
    }

    /// One relationship live on two stages over one table (two ingress
    /// shards holding a connection each): its verdicts are one
    /// sequential verifier's over the order the batches were judged in,
    /// so a proof is accepted once, whichever stage judges it first.
    #[test]
    fn prop_two_stages_over_one_table_match_one_sequential_verifier(
        ops in proptest::collection::vec((0usize..2, 0u8..4, 0usize..POCS_PER_REL), 1..40),
        batch_size in 1usize..5,
    ) {
        let plan = DataPlan::paper_default();
        let r = &corpus()[0];
        let table = Arc::new(Relationships::default());
        let mut stages = [0, 1].map(|shard| Stage::new(shard, batch_size, Arc::clone(&table)));
        let rel = stages[0].register(plan, r.edge.public.clone(), r.op.public.clone(), 1 << 10);

        // Results are taken after every step, so `got` is in judging order.
        let mut got = Vec::new();
        let mut distinct = HashSet::new();
        for (tag, &(s, kind, poc)) in ops.iter().enumerate() {
            if kind == 0 {
                stages[s].flush();
            } else {
                // Submitted as a shard submits: the bytes received, and
                // the value decoded from them.
                let bytes = r.pocs[poc].encode();
                let proof = PocMsg::decode(&bytes).unwrap();
                stages[s].submit(rel, tag as u64, proof, &bytes);
                distinct.insert(poc);
            }
            got.extend(stages[s].take_results());
        }
        let mut accepted = 0;
        for stage in stages {
            let (stats, rest) = stage.finish();
            accepted += stats.accepted;
            got.extend(rest);
        }

        let mut oracle = Verifier::new(plan, r.edge.public.clone(), r.op.public.clone());
        for result in &got {
            let (s, _, poc) = ops[result.tag as usize];
            prop_assert_eq!(result.shard, s);
            prop_assert_eq!(&result.result, &oracle.verify(&r.pocs[poc]));
        }
        prop_assert_eq!(got.len(), ops.iter().filter(|op| op.1 != 0).count());
        prop_assert_eq!(accepted, distinct.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same property through the service's API: it hashes the
    /// value, tags the proof itself, and flushes when its caller
    /// collects.
    #[test]
    fn prop_service_matches_sequential_verify(ops in arb_ops(), batch_size in 1usize..5) {
        let plan = DataPlan::paper_default();
        let corpus = corpus();
        let mut svc = VerifierService::with_config(ServiceConfig {
            batch_size,
            ..ServiceConfig::default()
        });
        let mut rels = Vec::new();
        for r in corpus {
            rels.push(svc.register(plan, r.edge.public.clone(), r.op.public.clone()).unwrap());
        }
        let mut oracles = oracles();

        let mut want = PerRelationship::new();
        let mut got = Vec::new();
        let mut made_in = HashMap::new();
        for op in &ops {
            match *op {
                Op::Flush => got.extend(svc.collect_results().unwrap()),
                Op::Submit { rel, poc, under } => {
                    let proof = &corpus[rel].pocs[poc];
                    let tag = svc.submit(rels[under], proof.clone()).unwrap();
                    made_in.insert(tag, (rel, poc));
                    want.entry(rels[under]).or_default().push((tag, oracles[under].verify(proof)));
                }
            }
        }
        got.extend(svc.collect_results().unwrap());
        let got = grouped(got);
        assert_accepted_once_under_own(&got, &rels, &made_in);
        prop_assert_eq!(got, want);
        prop_assert_eq!(svc.finish().unclaimed_results, 0);
    }
}
