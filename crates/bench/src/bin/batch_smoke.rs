//! CI smoke check for the batched verification plane: bounded iteration
//! counts, no stored baselines. Exercises the batched RSA verification
//! path, checks the batched results bit-for-bit against the scalar path,
//! and prints the measured speedups; checks the CRT private-key
//! operation against plain exponentiation. Exits nonzero on any mismatch.

use std::time::Instant;
use tlc_core::messages::{Nonce, PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::service::VerifierService;
use tlc_core::verify::{verify_poc, verify_poc_batch};
use tlc_crypto::pkcs1::{self, VerifyRequest};
use tlc_crypto::{sha256, BigUint, KeyPair};

/// Signature-level check: `verify_batch` vs scalar `verify_prehashed`,
/// returning (scalar ns/op, batch ns/op at batch size 128).
fn signature_level(iters: usize) -> (f64, f64) {
    let kp = KeyPair::generate_for_seed(1024, 0x57_0CE).expect("keygen");
    let msgs: Vec<Vec<u8>> = (0..128usize)
        .map(|i| format!("datavolumeDownlink={}", 33_604_032 + i).into_bytes())
        .collect();
    let sigs: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| pkcs1::sign(&kp.private, m).expect("sign"))
        .collect();
    let reqs: Vec<VerifyRequest<'_>> = msgs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| VerifyRequest {
            key: &kp.public,
            digest: sha256::digest(m),
            signature: s,
        })
        .collect();

    // Correctness before speed: batched == scalar on every element,
    // including a corrupted one.
    let mut bad_sig = sigs[5].clone();
    bad_sig[17] ^= 0x08;
    let mut check_reqs: Vec<VerifyRequest<'_>> = msgs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| VerifyRequest {
            key: &kp.public,
            digest: sha256::digest(m),
            signature: s,
        })
        .collect();
    check_reqs[5].signature = &bad_sig;
    let batch = pkcs1::verify_batch(&check_reqs);
    for (i, r) in batch.iter().enumerate() {
        let scalar = pkcs1::verify_prehashed(
            check_reqs[i].key,
            &check_reqs[i].digest,
            check_reqs[i].signature,
        );
        assert_eq!(*r, scalar, "batch/scalar divergence at element {i}");
    }
    assert!(batch[5].is_err(), "corrupted signature must fail");
    assert!(batch.iter().enumerate().all(|(i, r)| i == 5 || r.is_ok()));

    let t0 = Instant::now();
    for _ in 0..iters {
        for r in &reqs {
            pkcs1::verify_prehashed(r.key, &r.digest, r.signature).expect("valid");
        }
    }
    let scalar_ns = t0.elapsed().as_nanos() as f64 / (iters * reqs.len()) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        let out = pkcs1::verify_batch(&reqs);
        assert!(out.iter().all(|r| r.is_ok()));
    }
    let batch_ns = t0.elapsed().as_nanos() as f64 / (iters * reqs.len()) as f64;
    (scalar_ns, batch_ns)
}

fn negotiate(n: usize, ek: &KeyPair, ok: &KeyPair, plan: &DataPlan) -> Vec<PocMsg> {
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

/// PoC-level check: `verify_poc_batch` matches `verify_poc` element for
/// element on a batch with one tampered proof, then times both paths.
fn poc_level(iters: usize) -> (f64, f64) {
    let plan = DataPlan::paper_default();
    let ek = KeyPair::generate_for_seed(1024, 0xED9E).expect("keygen");
    let ok = KeyPair::generate_for_seed(1024, 0xCE11).expect("keygen");
    let proofs = negotiate(32, &ek, &ok, &plan);

    let mut tampered = proofs[3].clone();
    tampered.signature[9] ^= 0x40;
    let mut refs: Vec<&PocMsg> = proofs.iter().collect();
    refs[3] = &tampered;
    let batch = verify_poc_batch(&refs, &plan, &ek.public, &ok.public);
    for (i, r) in batch.iter().enumerate() {
        let sequential = verify_poc(refs[i], &plan, &ek.public, &ok.public);
        assert_eq!(
            r.is_ok(),
            sequential.is_ok(),
            "PoC batch/sequential divergence at element {i}"
        );
    }
    assert!(batch[3].is_err(), "tampered PoC must fail");

    let refs: Vec<&PocMsg> = proofs.iter().collect();
    let t0 = Instant::now();
    for _ in 0..iters {
        for p in &refs {
            verify_poc(p, &plan, &ek.public, &ok.public).expect("valid");
        }
    }
    let scalar_ns = t0.elapsed().as_nanos() as f64 / (iters * refs.len()) as f64;

    let t0 = Instant::now();
    for _ in 0..iters {
        let out = verify_poc_batch(&refs, &plan, &ek.public, &ok.public);
        assert!(out.iter().all(|r| r.is_ok()));
    }
    let batch_ns = t0.elapsed().as_nanos() as f64 / (iters * refs.len()) as f64;
    (scalar_ns, batch_ns)
}

/// Service-level smoke: the in-process service accepts a batch
/// across relationships on this thread and reports every proof exactly
/// once.
fn service_level() -> f64 {
    let plan = DataPlan::paper_default();
    let rels: Vec<(KeyPair, KeyPair, Vec<PocMsg>)> = (0..2u64)
        .map(|i| {
            let e = KeyPair::generate_for_seed(1024, 0x5E00 + i * 2).expect("keygen");
            let o = KeyPair::generate_for_seed(1024, 0x5E01 + i * 2).expect("keygen");
            let proofs = negotiate(16, &e, &o, &plan);
            (e, o, proofs)
        })
        .collect();
    let total: usize = rels.iter().map(|(_, _, p)| p.len()).sum();
    let t0 = Instant::now();
    let mut svc = VerifierService::new();
    for (e, o, proofs) in &rels {
        let rel = svc
            .register(plan, e.public.clone(), o.public.clone())
            .unwrap();
        svc.submit_batch(rel, proofs.iter().cloned()).unwrap();
    }
    let results = svc.collect_results().unwrap();
    assert_eq!(results.len(), total, "every proof reported exactly once");
    assert!(results.iter().all(|r| r.result.is_ok()));
    let report = svc.finish();
    assert_eq!(report.accepted, total as u64);
    assert!(report.batches >= 1, "service must flush signature batches");
    total as f64 / t0.elapsed().as_secs_f64()
}

/// Private-key check: the CRT operation — whichever kernel this host
/// routes it to — against plain `c^d mod n`, over rotating messages.
fn sign_level(kp: &KeyPair) {
    for i in 0..64u64 {
        let c = BigUint::from_bytes_be(&sha256::digest(&i.to_be_bytes()));
        let key = &kp.private;
        let (crt, plain) = (key.raw_decrypt(&c), key.raw_decrypt_no_crt(&c));
        assert_eq!(crt, plain, "CRT/plain divergence at message {i}");
    }
}

fn main() {
    // Which paths this runner exercises: the checks below hold on every
    // kernel, but only the ones named here were actually run.
    let probe = KeyPair::generate_for_seed(1024, 0x57_0CE).expect("keygen");
    let sign_kernel = probe.private.sign_kernel();
    println!(
        "kernels: sign {sign_kernel}, batch {}, sha256 {}",
        probe.public.mont_ctx().map_or("none", |c| c.batch_kernel()),
        sha256::kernel()
    );
    sign_level(&probe);

    let (scalar_ns, batch_ns) = signature_level(8);
    println!(
        "signature level: scalar {scalar_ns:.0} ns/verify, batched {batch_ns:.0} ns/verify, speedup {:.2}x",
        scalar_ns / batch_ns
    );
    // Without the IFMA lanes a batch is the scalar path per signature:
    // the two sides run the same code and only the results are compared.
    let lanes = tlc_crypto::ifma::available();
    assert!(
        !lanes || batch_ns < scalar_ns,
        "batched path must not be slower"
    );

    let (poc_scalar_ns, poc_batch_ns) = poc_level(4);
    println!(
        "PoC level: sequential {poc_scalar_ns:.0} ns/PoC, batched {poc_batch_ns:.0} ns/PoC, speedup {:.2}x",
        poc_scalar_ns / poc_batch_ns
    );
    assert!(
        !lanes || poc_batch_ns < poc_scalar_ns,
        "batched PoC path must not be slower"
    );

    let per_sec = service_level();
    println!("service level: one stage, 32 proofs -> {per_sec:.0} PoCs/sec submit->drain");
}
