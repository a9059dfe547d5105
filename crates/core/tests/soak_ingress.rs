//! Concurrency soak for the verifier ingress: N client threads × M
//! relationships submitting interleaved valid / tampered / replayed
//! PoCs over real sockets. Every per-relationship verdict sequence
//! must match an in-process `VerifierService` run bit-for-bit, and
//! `collect_results` must preserve per-relationship submission order.
//!
//! Scale with `TLC_SOAK_SESSIONS` (client thread count, default 3; CI
//! uses 2).

use std::collections::HashMap;
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::remote::{IngressConfig, IngressServer, RemoteVerifier};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_core::verify::{Verdict, VerifyError};
use tlc_crypto::KeyPair;

fn sessions() -> usize {
    std::env::var("TLC_SOAK_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(3)
}

const RELS_PER_CLIENT: usize = 2;

fn negotiate(edge: &KeyPair, op: &KeyPair, plan: DataPlan, ne: u8, no: u8) -> PocMsg {
    let mut e = Endpoint::new(
        Role::Edge,
        plan,
        Knowledge {
            role: Role::Edge,
            own_truth: 1000,
            inferred_peer_truth: 800,
        },
        Box::new(OptimalStrategy),
        edge.private.clone(),
        op.public.clone(),
        [ne; NONCE_LEN],
        32,
    );
    let mut o = Endpoint::new(
        Role::Operator,
        plan,
        Knowledge {
            role: Role::Operator,
            own_truth: 800,
            inferred_peer_truth: 1000,
        },
        Box::new(OptimalStrategy),
        op.private.clone(),
        edge.public.clone(),
        [no; NONCE_LEN],
        32,
    );
    run_negotiation(&mut o, &mut e).unwrap().0
}

/// One relationship's worth of test material: distinct keys (so the
/// service's dedup registry cannot merge relationships) and a proof
/// schedule mixing valid, tampered, and replayed submissions.
struct RelMaterial {
    edge: KeyPair,
    op: KeyPair,
    plan: DataPlan,
    pocs: Vec<PocMsg>,
}

fn build_material(client: usize, rel: usize) -> RelMaterial {
    let plan = DataPlan::paper_default();
    let idx = (client * RELS_PER_CLIENT + rel) as u64;
    let edge = KeyPair::generate_for_seed(1024, 20_000 + idx * 2).unwrap();
    let op = KeyPair::generate_for_seed(1024, 20_001 + idx * 2).unwrap();
    let base = (idx as u8).wrapping_mul(16);
    let a = negotiate(&edge, &op, plan, base.wrapping_add(1), base.wrapping_add(2));
    let b = negotiate(&edge, &op, plan, base.wrapping_add(3), base.wrapping_add(4));
    let mut tampered = negotiate(&edge, &op, plan, base.wrapping_add(5), base.wrapping_add(6));
    tampered.charge += 1; // invalidates the outer signature
    let replay = a.clone();
    let c = negotiate(&edge, &op, plan, base.wrapping_add(7), base.wrapping_add(8));
    RelMaterial {
        edge,
        op,
        plan,
        pocs: vec![a, b, tampered, replay, c],
    }
}

type VerdictSeq = Vec<Result<Verdict, VerifyError>>;
type TaggedVerdicts = Vec<(u64, Result<Verdict, VerifyError>)>;

/// Reference run through the in-process service: per-(client, rel)
/// ordered verdict sequences.
fn in_process_reference(
    material: &HashMap<(usize, usize), RelMaterial>,
) -> HashMap<(usize, usize), VerdictSeq> {
    let mut svc = VerifierService::new();
    let mut rel_ids = HashMap::new();
    let mut keys: Vec<&(usize, usize)> = material.keys().collect();
    keys.sort();
    for key in &keys {
        let m = &material[key];
        let rel = svc
            .register(m.plan, m.edge.public.clone(), m.op.public.clone())
            .unwrap();
        rel_ids.insert(**key, rel);
    }
    // Interleave across relationships round-robin, like the clients do.
    let mut tag_owner = HashMap::new();
    for k in 0..material.values().map(|m| m.pocs.len()).max().unwrap_or(0) {
        for key in &keys {
            let m = &material[key];
            if let Some(poc) = m.pocs.get(k) {
                let tag = svc.submit(rel_ids[key], poc.clone()).unwrap();
                tag_owner.insert(tag, **key);
            }
        }
    }
    let results = svc.collect_results().unwrap();
    svc.finish();
    let mut by_rel: HashMap<(usize, usize), TaggedVerdicts> = HashMap::new();
    for r in results {
        by_rel
            .entry(tag_owner[&r.tag])
            .or_default()
            .push((r.tag, r.result));
    }
    by_rel
        .into_iter()
        .map(|(key, mut seq)| {
            seq.sort_by_key(|(tag, _)| *tag);
            (key, seq.into_iter().map(|(_, v)| v).collect())
        })
        .collect()
}

#[test]
fn soak_remote_matches_in_process_bit_for_bit() {
    let n_clients = sessions();

    // Generate all material up front (keygen + negotiation dominate).
    let mut material = HashMap::new();
    for c in 0..n_clients {
        for r in 0..RELS_PER_CLIENT {
            material.insert((c, r), build_material(c, r));
        }
    }
    let reference = in_process_reference(&material);

    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig {
            // A tight window exercises the backpressure path under load.
            window: 4,
            ..IngressConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();

    // N concurrent sessions over real sockets.
    let mut remote: HashMap<(usize, usize), VerdictSeq> = HashMap::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..n_clients {
            let material = &material;
            joins.push(scope.spawn(move || {
                let mut client = RemoteVerifier::connect(addr, 0).unwrap();
                let mut rels = Vec::new();
                for r in 0..RELS_PER_CLIENT {
                    let m = &material[&(c, r)];
                    let rel = client
                        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
                        .unwrap();
                    rels.push(rel);
                }
                // Interleave submissions across this client's rels.
                let mut tag_map: HashMap<u64, (usize, u64)> = HashMap::new();
                let mut per_rel_seq: HashMap<usize, u64> = HashMap::new();
                let depth = material[&(c, 0)].pocs.len();
                for k in 0..depth {
                    for (r, rel) in rels.iter().enumerate() {
                        if let Some(poc) = material[&(c, r)].pocs.get(k) {
                            let tag = client.submit(*rel, poc).unwrap();
                            let seq = per_rel_seq.entry(r).or_insert(0);
                            tag_map.insert(tag, (r, *seq));
                            *seq += 1;
                        }
                    }
                }
                let results = client.collect_results().unwrap();
                client.goodbye().unwrap();
                // Ordering guarantee: per relationship, verdicts arrive
                // in submission order.
                let mut last_seq: HashMap<usize, i64> = HashMap::new();
                let mut by_rel: HashMap<usize, VerdictSeq> = HashMap::new();
                for res in results {
                    let (r, seq) = tag_map[&res.tag];
                    let prev = last_seq.entry(r).or_insert(-1);
                    assert!(
                        (seq as i64) > *prev,
                        "relationship {r} verdicts out of submission order"
                    );
                    *prev = seq as i64;
                    by_rel.entry(r).or_default().push(res.result);
                }
                (c, by_rel)
            }));
        }
        for j in joins {
            let (c, by_rel) = j.join().unwrap();
            for (r, seq) in by_rel {
                remote.insert((c, r), seq);
            }
        }
    });

    let report = handle.shutdown().unwrap();

    // Bit-for-bit: every relationship's verdict sequence matches the
    // in-process run exactly.
    assert_eq!(remote.len(), reference.len());
    for (key, expected) in &reference {
        let got = remote.get(key).unwrap_or_else(|| {
            panic!("relationship {key:?} produced no remote verdicts");
        });
        assert_eq!(
            got, expected,
            "verdicts diverged from in-process service for {key:?}"
        );
    }

    // Counters reconcile: every submission produced exactly one verdict
    // that reached its client.
    let total: u64 = (n_clients * RELS_PER_CLIENT * 5) as u64;
    assert_eq!(report.ingress.submissions, total);
    assert_eq!(report.ingress.verdicts, total);
    assert_eq!(report.ingress.orphaned_verdicts, 0);
    assert_eq!(report.service.unclaimed_results, 0);
    assert_eq!(report.ingress.protocol_errors, 0);
    // Per relationship: 4 accepted (one of them lowers to a reject? no:
    // a, b, c valid = 3 accepted; tampered + replay rejected = 2).
    assert_eq!(
        report.ingress.accepted,
        (n_clients * RELS_PER_CLIENT * 3) as u64
    );
    assert_eq!(
        report.ingress.rejected_malformed,
        (n_clients * RELS_PER_CLIENT * 2) as u64
    );
}

/// Tight-window backpressure under a single bulk batch: the client
/// chunks, the server pauses reads, and everything still completes
/// with exact counts.
#[test]
fn batch_submission_respects_window_and_completes() {
    let m = build_material(90, 0);
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig {
            batch_size: 2,
            ..ServiceConfig::default()
        },
        IngressConfig {
            window: 2,
            ..IngressConfig::default()
        },
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    assert_eq!(client.window(), 2);
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    let (first, count) = client.submit_batch(rel, m.pocs.iter()).unwrap();
    assert_eq!((first, count), (0, 5));
    let results = client.collect_results().unwrap();
    assert_eq!(results.len(), 5);
    let verdicts: VerdictSeq = results.into_iter().map(|r| r.result).collect();
    assert!(verdicts[0].is_ok());
    assert!(verdicts[1].is_ok());
    assert!(verdicts[2].is_err()); // tampered
    assert_eq!(verdicts[3], Err(VerifyError::Replayed));
    assert!(verdicts[4].is_ok());
    client.goodbye().unwrap();
    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.submissions, 5);
    assert_eq!(report.ingress.verdicts, 5);
}
