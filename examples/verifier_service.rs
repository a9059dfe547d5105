//! A public-verifier service (§5.3.4): FCC / court / MVNO.
//!
//! The paper sizes verification throughput at 230K PoCs/hour on one HP
//! Z840. This example builds a batch of proofs from many edge-operator
//! pairs, then feeds them through [`tlc_core::verify::service`] — one
//! batching stage on this thread, one replay window per relationship —
//! measuring throughput and demonstrating the rejection paths: replays,
//! forgeries, plan mismatches, and charge tampering.
//!
//! ```sh
//! cargo run --release --example verifier_service
//! ```
//!
//! The same service is also reachable over TCP (`verify::remote`):
//!
//! ```sh
//! # terminal 1 — the verifier listens for edge/operator submissions
//! cargo run --release --example verifier_service -- --serve 127.0.0.1:7070
//! # terminal 2 — an edge node streams its proofs to the verifier
//! cargo run --release --example verifier_service -- --connect 127.0.0.1:7070
//! ```

use std::time::Instant;
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::remote::{IngressConfig, IngressServer, RemoteVerifier};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_core::verify::VerifyError;
use tlc_crypto::{KeyPair, PublicKey};

struct Relationship {
    edge_pub: PublicKey,
    op_pub: PublicKey,
    proofs: Vec<PocMsg>,
}

fn build_relationship(id: u64, cycles: usize) -> Relationship {
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 9000 + id * 2).expect("keygen");
    let op = KeyPair::generate_for_seed(1024, 9001 + id * 2).expect("keygen");
    let mut proofs = Vec::with_capacity(cycles);
    for c in 0..cycles {
        let sent = 1_000_000 + id * 1000 + c as u64;
        let recv = sent - 50_000;
        let mut e = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: sent,
                inferred_peer_truth: recv,
            },
            Box::new(OptimalStrategy),
            edge.private.clone(),
            op.public.clone(),
            nonce(id, c as u64, 0),
            16,
        );
        let mut o = Endpoint::new(
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: recv,
                inferred_peer_truth: sent,
            },
            Box::new(OptimalStrategy),
            op.private.clone(),
            edge.public.clone(),
            nonce(id, c as u64, 1),
            16,
        );
        let (poc, _) = run_negotiation(&mut o, &mut e).expect("negotiation");
        proofs.push(poc);
    }
    Relationship {
        edge_pub: edge.public,
        op_pub: op.public,
        proofs,
    }
}

fn nonce(id: u64, cycle: u64, side: u8) -> [u8; NONCE_LEN] {
    let mut n = [side; NONCE_LEN];
    n[..8].copy_from_slice(&id.to_be_bytes());
    n[8..16].copy_from_slice(&cycle.to_be_bytes());
    n
}

/// `--serve [addr]`: expose verification on a TCP listener and verify
/// whatever remote peers submit, until killed. Verification runs on
/// the server's shard threads (`TLC_INGRESS_SHARDS`, default 1).
fn serve(addr: &str) {
    let config = IngressConfig::default();
    let server =
        IngressServer::bind(addr, ServiceConfig::default(), config).expect("bind ingress listener");
    println!(
        "verifier listening on {} ({} shards); Ctrl-C to stop",
        server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string()),
        config.shards
    );
    // The example has no signal handling; the process runs until killed.
    let stop = server.stopper();
    server.run(&stop);
}

/// `--connect <addr>`: act as an edge node — negotiate proofs locally,
/// stream them (plus one replay and one tampered proof) to a remote
/// verifier, and report the verdicts it returns.
fn connect(addr: &str) {
    let plan = DataPlan::paper_default();
    println!("building 2 relationships × 10 cycles…");
    let rels: Vec<Relationship> = (0..2).map(|id| build_relationship(id, 10)).collect();

    let mut client = RemoteVerifier::connect(addr, 0).expect("connect to verifier");
    println!(
        "connected to {} (in-flight window {})",
        addr,
        client.window()
    );
    let mut total = 0usize;
    for r in &rels {
        let rel = client
            .register(plan, r.edge_pub.clone(), r.op_pub.clone())
            .expect("register relationship");
        // Hold the last proof back from the valid batch and tamper it,
        // so its rejection exercises the signature path rather than the
        // replay cache (which would fire first on a reused nonce pair).
        let valid = &r.proofs[..r.proofs.len() - 1];
        let (_, count) = client.submit_batch(rel, valid.iter()).expect("batch");
        client.submit(rel, &r.proofs[0]).expect("replay submit");
        let mut tampered = r.proofs[r.proofs.len() - 1].clone();
        tampered.charge += 1;
        client.submit(rel, &tampered).expect("tampered submit");
        total += count + 2;
    }
    let results = client.collect_results().expect("collect verdicts");
    let accepted = results.iter().filter(|r| r.result.is_ok()).count();
    let replayed = results
        .iter()
        .filter(|r| r.result == Err(VerifyError::Replayed))
        .count();
    println!(
        "submitted {} proofs -> {} accepted, {} rejected ({} replays, {} bad signatures)",
        total,
        accepted,
        results.len() - accepted,
        replayed,
        results.len() - accepted - replayed,
    );
    let stats = client.stats().expect("server stats");
    println!(
        "server counters: {} submissions, {} verdicts, {} registers, {} pauses",
        stats.submissions, stats.verdicts, stats.registers, stats.pauses
    );
    println!(
        "overload ladder: {} shed submits, {} shed connections, {} quarantines, {} misbehavior closes (client saw {} BUSYs, {} retries)",
        stats.shed_overload,
        stats.shed_connections,
        stats.quarantines,
        stats.misbehavior_closes,
        client.shed_notices(),
        client.retries(),
    );
    client.goodbye().expect("clean goodbye");
}

#[expect(
    clippy::disallowed_methods,
    reason = "the example reports its wall-clock throughput"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            let addr = args.get(1).map(String::as_str).unwrap_or("127.0.0.1:7070");
            serve(addr);
            return;
        }
        Some("--connect") => {
            let addr = args.get(1).expect("--connect needs an address");
            connect(addr);
            return;
        }
        Some(other) => {
            eprintln!("unknown flag {other}; running the in-process demo");
        }
        None => {}
    }
    let plan = DataPlan::paper_default();
    let relationships = 4usize;
    let cycles = 25;
    println!(
        "building {} edge↔operator relationships × {} cycles…",
        relationships, cycles
    );
    let rels: Vec<Relationship> = (0..relationships)
        .map(|id| build_relationship(id as u64, cycles))
        .collect();

    let mut svc = VerifierService::new();

    // Register every relationship, then batch-submit its proofs plus one
    // replay — the relationship's replay window must reject exactly that
    // one.
    let t0 = Instant::now();
    let mut total = 0usize;
    let mut handles = Vec::with_capacity(rels.len());
    for r in &rels {
        let rel = svc
            .register(plan, r.edge_pub.clone(), r.op_pub.clone())
            .unwrap();
        let (_, count) = svc.submit_batch(rel, r.proofs.iter().cloned()).unwrap();
        svc.submit(rel, r.proofs[0].clone()).unwrap();
        total += count + 1;
        handles.push(rel);
    }
    let results = svc.collect_results().unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let accepted = results.iter().filter(|r| r.result.is_ok()).count();
    let replayed = results
        .iter()
        .filter(|r| r.result == Err(VerifyError::Replayed))
        .count();
    let report = svc.finish();
    println!(
        "verified {} proofs: accepted {}, rejected {} replays in {:.3} s -> {:.0} verifications/hour",
        total,
        accepted,
        replayed,
        secs,
        total as f64 * 3600.0 / secs,
    );
    for s in &report.shards {
        println!(
            "  shard {}: {} relationships, {} accepted, {} rejected ({} replays)",
            s.shard, s.relationships, s.accepted, s.rejected, s.replayed
        );
    }
    assert_eq!(accepted, relationships * cycles);
    assert_eq!(replayed, relationships);
    assert_eq!(report.accepted as usize, accepted);

    // ── Rejection paths ─────────────────────────────────────────────────
    // All four flow through the same service as acceptances.
    println!("\nrejection paths:");
    let victim = &rels[0];
    let mut svc = VerifierService::new();
    let rel = svc
        .register(plan, victim.edge_pub.clone(), victim.op_pub.clone())
        .unwrap();

    // Tampered charge: the signature chain breaks.
    let mut tampered = victim.proofs[1].clone();
    tampered.charge *= 2;
    let t_tamper = svc.submit(rel, tampered).unwrap();

    // Plan mismatch: a proof presented against the wrong agreement.
    let other_plan = DataPlan {
        loss_weight: tlc_core::plan::LossWeight::from_f64(0.25),
        ..plan
    };
    let wrong_rel = svc
        .register(other_plan, victim.edge_pub.clone(), victim.op_pub.clone())
        .unwrap();
    let t_plan = svc.submit(wrong_rel, victim.proofs[2].clone()).unwrap();

    // Forgery: a proof from a different key pair presented as this pair's.
    let t_forge = svc.submit(rel, rels[1].proofs[0].clone()).unwrap();

    // Replay: the same proof twice through the same relationship.
    let t_first = svc.submit(rel, victim.proofs[3].clone()).unwrap();
    let t_replay = svc.submit(rel, victim.proofs[3].clone()).unwrap();

    let results = svc.collect_results().unwrap();
    let by_tag = |t: u64| {
        &results
            .iter()
            .find(|r| r.tag == t)
            .expect("every tag resolves")
            .result
    };
    assert!(by_tag(t_first).is_ok());
    println!(
        "  tampered charge      -> {:?}",
        by_tag(t_tamper).clone().unwrap_err()
    );
    println!(
        "  wrong plan           -> {:?}",
        by_tag(t_plan).clone().unwrap_err()
    );
    println!(
        "  forged identity      -> {:?}",
        by_tag(t_forge).clone().unwrap_err()
    );
    println!(
        "  replayed proof       -> {:?}",
        by_tag(t_replay).clone().unwrap_err()
    );
    let report = svc.finish();
    assert_eq!(
        (report.accepted, report.rejected, report.replayed),
        (1, 4, 1)
    );
}
