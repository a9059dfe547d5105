//! Concurrency model for the verification plane, compiled only under
//! `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p tlc-core --test loom_service
//! ```
//!
//! One cross-thread protocol is left, so one model: two [`Stage`]s on
//! two threads (two ingress shards) judging one relationship's proofs
//! under one [`Relationships`] table, where each proof must be accepted
//! by exactly one of them. (The in-process `VerifierService` is one
//! stage on its caller's thread and has no protocol to model.)
//!
//! `loom::model` re-runs the body under perturbed schedules
//! (`LOOM_ITERS` controls how many), so the assertions hold across
//! interleavings, not just the lucky one.

#![cfg(loom)]

use std::sync::{Arc, OnceLock};

use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::stage::{Relationships, Stage};
use tlc_core::verify::VerifyError;
use tlc_core::PocMsg;
use tlc_crypto::KeyPair;

/// Keys and proofs are expensive to make and pure data — generate them
/// once, clone per iteration.
fn proof_corpus() -> &'static (DataPlan, KeyPair, KeyPair, Vec<PocMsg>) {
    static CORPUS: OnceLock<(DataPlan, KeyPair, KeyPair, Vec<PocMsg>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 9400).unwrap();
        let op = KeyPair::generate_for_seed(1024, 9401).unwrap();
        let pocs = (0..3u8)
            .map(|i| {
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
                    [2 * i + 1; 16],
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
                    [2 * i + 2; 16],
                    32,
                );
                run_negotiation(&mut o, &mut e).unwrap().0
            })
            .collect();
        (plan, edge, op, pocs)
    })
}

#[test]
fn two_stages_over_one_table_accept_each_proof_once() {
    let (plan, edge, op, pocs) = proof_corpus();
    loom::model(move || {
        let table = Arc::new(Relationships::default());
        // Batch size 2 of 3 proofs: one batch fills at a submit, one is
        // flushed, so the two threads meet at the relationship's lock
        // with batches cut differently from run to run.
        let threads: Vec<_> = (0..2)
            .map(|shard| {
                let table = Arc::clone(&table);
                loom::thread::spawn(move || {
                    // Both register, as two connections would: one id.
                    let mut stage = Stage::new(shard, 2, table);
                    let rel = stage.register(*plan, edge.public.clone(), op.public.clone(), 64);
                    for (tag, poc) in pocs.iter().enumerate() {
                        stage.submit(rel, tag as u64, &poc.encode());
                        loom::thread::explore();
                    }
                    (rel, stage.finish())
                })
            })
            .collect();
        let done: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(done[0].0, done[1].0, "one triple, one id");
        assert_eq!(Stage::new(2, 2, table).issued(), 1);
        for tag in 0..pocs.len() as u64 {
            let verdicts: Vec<_> = done
                .iter()
                .flat_map(|(_, (_, results))| results.iter().filter(|r| r.tag == tag))
                .map(|r| &r.result)
                .collect();
            assert_eq!(verdicts.len(), 2);
            assert_eq!(verdicts.iter().filter(|v| v.is_ok()).count(), 1);
            assert!(verdicts.contains(&&Err(VerifyError::Replayed)));
        }
        let (accepted, replayed) = done.iter().fold((0, 0), |(a, r), (_, (stats, _))| {
            (a + stats.accepted, r + stats.replayed)
        });
        assert_eq!((accepted, replayed), (pocs.len() as u64, pocs.len() as u64));
    });
}
