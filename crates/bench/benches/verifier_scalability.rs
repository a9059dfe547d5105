//! Verifier scalability (the paper's "230K PoCs/hour on one Z840"):
//! single-thread verification cost and multi-worker throughput via the
//! sharded [`tlc_core::verify::service::VerifierService`].

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tlc_core::messages::{Nonce, PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_core::verify::{verify_poc, verify_poc_batch};
use tlc_crypto::KeyPair;

fn make_proofs(n: usize, ek: &KeyPair, ok: &KeyPair, plan: &DataPlan) -> Vec<PocMsg> {
    (0..n)
        .map(|i| {
            let mut ne: Nonce = [0; NONCE_LEN];
            ne[..8].copy_from_slice(&(i as u64).to_be_bytes());
            let mut no = ne;
            no[15] = 1;
            let mut e = Endpoint::new(
                Role::Edge,
                *plan,
                Knowledge {
                    role: Role::Edge,
                    own_truth: 1_000_000 + i as u64,
                    inferred_peer_truth: 900_000,
                },
                Box::new(OptimalStrategy),
                ek.private.clone(),
                ok.public.clone(),
                ne,
                16,
            );
            let mut o = Endpoint::new(
                Role::Operator,
                *plan,
                Knowledge {
                    role: Role::Operator,
                    own_truth: 900_000,
                    inferred_peer_truth: 1_000_000 + i as u64,
                },
                Box::new(OptimalStrategy),
                ok.private.clone(),
                ek.public.clone(),
                no,
                16,
            );
            run_negotiation(&mut o, &mut e).unwrap().0
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let plan = DataPlan::paper_default();
    let ek = KeyPair::generate_for_seed(1024, 201).unwrap();
    let ok = KeyPair::generate_for_seed(1024, 202).unwrap();
    let proofs = make_proofs(64, &ek, &ok, &plan);

    // Four independent relationships × 16 proofs for the sharded service:
    // with 4 workers every shard owns one relationship.
    let rels: Vec<(KeyPair, KeyPair, Vec<PocMsg>)> = (0..4u64)
        .map(|i| {
            let e = KeyPair::generate_for_seed(1024, 300 + i * 2).unwrap();
            let o = KeyPair::generate_for_seed(1024, 301 + i * 2).unwrap();
            let proofs = make_proofs(16, &e, &o, &plan);
            (e, o, proofs)
        })
        .collect();

    let mut g = c.benchmark_group("verifier");
    g.throughput(Throughput::Elements(proofs.len() as u64));
    g.sample_size(10);
    g.bench_function("single_thread_batch64", |b| {
        b.iter(|| {
            for p in &proofs {
                verify_poc(black_box(p), &plan, &ek.public, &ok.public).unwrap();
            }
        })
    });
    // Same 64 proofs through the batch entry point at several signature
    // batch sizes — isolates the wide-kernel win from service overheads.
    for batch in [8usize, 32, 64] {
        g.bench_function(format!("single_thread_batched_{batch}"), |b| {
            b.iter(|| {
                for chunk in proofs.chunks(batch) {
                    let refs: Vec<&PocMsg> = chunk.iter().collect();
                    let r = verify_poc_batch(black_box(&refs), &plan, &ek.public, &ok.public);
                    assert!(r.iter().all(|v| v.is_ok()));
                }
            })
        });
    }
    // Full service lifecycle per iteration (spawn, register, batch-submit,
    // drain, join) over 4 relationships — the shard workers verify in
    // parallel, replay caches stay shard-local.
    for workers in [1usize, 2, 4] {
        g.bench_function(format!("service_{workers}_workers_batch64"), |b| {
            b.iter(|| {
                let mut svc = VerifierService::new(workers);
                for (e, o, proofs) in &rels {
                    let rel = svc
                        .register(plan, e.public.clone(), o.public.clone())
                        .unwrap();
                    svc.submit_batch(rel, proofs.iter().cloned()).unwrap();
                }
                let results = svc.collect_results().unwrap();
                assert!(results.iter().all(|r| r.result.is_ok()));
                black_box(svc.finish());
            })
        });
    }
    // Signature-batch-size sensitivity inside the pool (workers fixed
    // at 2).
    for batch_size in [1usize, 16, 64] {
        g.bench_function(format!("service_2_workers_sigbatch_{batch_size}"), |b| {
            b.iter(|| {
                let mut svc = VerifierService::with_config(ServiceConfig {
                    workers: 2,
                    batch_size,
                });
                for (e, o, proofs) in &rels {
                    let rel = svc
                        .register(plan, e.public.clone(), o.public.clone())
                        .unwrap();
                    svc.submit_batch(rel, proofs.iter().cloned()).unwrap();
                }
                let results = svc.collect_results().unwrap();
                assert!(results.iter().all(|r| r.result.is_ok()));
                black_box(svc.finish());
            })
        });
    }
    g.finish();

    // Report the headline number the paper quotes.
    let t0 = std::time::Instant::now();
    for p in &proofs {
        verify_poc(p, &plan, &ek.public, &ok.public).unwrap();
    }
    let per_hour = proofs.len() as f64 / t0.elapsed().as_secs_f64() * 3600.0;
    println!("single-thread verifier throughput: {per_hour:.0} PoCs/hour (paper: 230K/hour)");
}

criterion_group!(benches, bench);
criterion_main!(benches);
