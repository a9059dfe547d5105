//! Equivalence and resource-bound tests for the readiness
//! (epoll/`SO_REUSEPORT`) ingress, `tlc_core::verify::remote`.
//!
//! `wire_conformance` and `soak_overload` pin the protocol; this suite
//! pins the properties of the server loop itself:
//!
//! * the server returns the same verdicts as the in-process service
//!   for the same proof set — accept and reject alike;
//! * a multi-shard server (distinct `SO_REUSEPORT` listeners, one
//!   connection table slice each) accounts every submission across
//!   concurrent clients, and the merged report reconciles;
//! * `max_conns` caps the server, not each shard;
//! * a table full of idle handshaken connections does not block a
//!   working one;
//! * buffer-pool exhaustion defers reads instead of allocating
//!   unboundedly or dropping connections: with more partial frames in
//!   flight than pooled buffers, every connection still completes once
//!   buffers recycle, and the report shows the deferrals;
//! * a framing violation poisons only its own connection — the typed
//!   `ERROR`/`Protocol` close, with neighbours unaffected;
//! * the loop runs to completion: a depth-1 verdict is flushed by the
//!   iteration that read it (no timer, no second thread), a session
//!   that submits nothing flushes nothing, a thin relationship is not
//!   starved behind a flooding one, the same proof on two connections
//!   is accepted once, and a frame longer than one wakeup's reads still
//!   yields every verdict in order;
//! * a client making single submits writes them half a window at a
//!   time, or before it reads, not one per proof;
//! * a well-framed SUBMIT whose PoC does not parse draws the typed
//!   fault and no verdict, after the verdicts of the proofs before it;
//! * shutdown wakes a loop that waits with no timeout.
//!
//! Tests construct `IngressConfig { shards, .. }` directly so they hold
//! regardless of the environment's `TLC_INGRESS_SHARDS`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::roaming::{RoamingAgreement, Serving};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::remote::codec::{
    Fault, Hello, HelloAck, Register, Registered, SettleResult, Submit, VerdictMsg, MAGIC,
    PROTOCOL_VERSION,
};
use tlc_core::verify::remote::{
    BackoffConfig, IngressConfig, IngressHandle, IngressServer, RemoteError, RemoteVerifier,
};
use tlc_core::verify::service::{ServiceConfig, ServiceError, SubmissionResult, VerifierService};
use tlc_core::verify::VerifyError;
use tlc_crypto::KeyPair;
use tlc_net::wire::{FrameDecoder, FrameKind, DEFAULT_MAX_PAYLOAD};

// ---------------------------------------------------------------------
// Material (seed range 60_000.. — disjoint from the other soak suites)
// ---------------------------------------------------------------------

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

struct Material {
    edge: KeyPair,
    op: KeyPair,
    plan: DataPlan,
    pocs: Vec<PocMsg>,
}

fn material(idx: u64, n: usize) -> Material {
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 60_000 + idx * 2).unwrap();
    let op = KeyPair::generate_for_seed(1024, 60_001 + idx * 2).unwrap();
    let base = (idx as u8).wrapping_mul(16).wrapping_add(7);
    let pocs = (0..n)
        .map(|k| {
            let k = k as u8;
            negotiate(
                &edge,
                &op,
                plan,
                base.wrapping_add(k.wrapping_mul(2)),
                base.wrapping_add(k.wrapping_mul(2)).wrapping_add(1),
            )
        })
        .collect();
    Material {
        edge,
        op,
        plan,
        pocs,
    }
}

fn spawn_server(shards: usize, ingress: IngressConfig) -> IngressHandle {
    IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig { shards, ..ingress },
    )
    .unwrap()
    .spawn()
    .unwrap()
}

// ---------------------------------------------------------------------
// Transport equivalence: same proofs, same verdicts
// ---------------------------------------------------------------------

/// Renders results as tag-ordered (tag, result) pairs.
fn rendered(results: Vec<SubmissionResult>) -> Vec<(u64, String)> {
    let mut out: Vec<(u64, String)> = results
        .into_iter()
        .map(|r| (r.tag, format!("{:?}", r.result)))
        .collect();
    out.sort();
    out
}

/// The TCP front-end must be a drop-in for the in-process service:
/// identical verdicts (accepts and the typed rejection for a
/// cross-relationship proof) for the same submissions, in the same
/// tag order.
#[test]
fn ingress_matches_in_process_verdicts() {
    let m = material(0, 4);
    // A proof from a different relationship: valid bytes, wrong keys —
    // the service rejects it for cause, exercising the error path.
    let stranger = material(1, 1);
    let bad = &stranger.pocs[0];

    let mut svc = VerifierService::new();
    let rel = svc
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    for poc in m.pocs.iter().chain([bad]) {
        svc.submit(rel, poc.clone()).unwrap();
    }
    let local = rendered(svc.collect_results().unwrap());
    svc.finish();

    let handle = spawn_server(1, IngressConfig::default());
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    for poc in m.pocs.iter().chain([bad]) {
        client.submit(rel, poc).unwrap();
    }
    let remote = rendered(client.collect_results().unwrap());
    client.goodbye().unwrap();
    let report = handle.shutdown().unwrap();

    assert_eq!(local, remote, "TCP and in-process verdicts disagreed");
    // One rejection (the stranger's proof) and m.pocs accepts.
    assert_eq!(report.ingress.accepted, m.pocs.len() as u64);
    assert_eq!(report.ingress.rejected_malformed, 1);
    assert_eq!(report.ingress.submissions, m.pocs.len() as u64 + 1);
    // The loop pooled buffers for its reads and returned every one.
    assert!(report.pool.checkouts > 0, "loop never pooled");
    assert_eq!(report.pool.checkouts, report.pool.recycles);
}

// ---------------------------------------------------------------------
// Multi-shard soak: concurrent clients over SO_REUSEPORT listeners
// ---------------------------------------------------------------------

/// Several clients drive a two-shard server concurrently; every
/// proof draws an accept, and the merged report accounts connections,
/// registrations, and submissions across shard-local counters.
#[test]
fn multi_shard_soak_accounts_every_submission() {
    const CLIENTS: usize = 4;
    const POCS_EACH: usize = 3;
    let handle = spawn_server(2, IngressConfig::default());
    let addr = handle.addr();

    let mats: Vec<Material> = (10..10 + CLIENTS as u64)
        .map(|i| material(i, POCS_EACH))
        .collect();

    std::thread::scope(|scope| {
        for m in &mats {
            scope.spawn(move || {
                let mut client = RemoteVerifier::connect(addr, 0).unwrap();
                let rel = client
                    .register(m.plan, m.edge.public.clone(), m.op.public.clone())
                    .unwrap();
                for poc in &m.pocs {
                    client.submit(rel, poc).unwrap();
                }
                let results = client.collect_results().unwrap();
                assert_eq!(results.len(), POCS_EACH);
                for r in &results {
                    assert!(r.result.is_ok(), "sharded verdict: {:?}", r.result);
                }
                client.goodbye().unwrap();
            });
        }
    });

    let report = handle.shutdown().unwrap();
    let total = (CLIENTS * POCS_EACH) as u64;
    assert_eq!(report.ingress.connections, CLIENTS as u64);
    assert_eq!(report.ingress.registers, CLIENTS as u64);
    assert_eq!(report.ingress.submissions, total);
    assert_eq!(report.ingress.accepted, total);
    assert_eq!(report.ingress.rejected_malformed, 0);
    assert_eq!(report.ingress.protocol_errors, 0);
    // Service-side accounting agrees with the wire-side tally.
    assert_eq!(report.service.accepted, total);
    assert_eq!(report.service.rejected, 0);
}

/// `max_conns` is the server's cap, not each shard's: with one session
/// held open on a two-shard server, every later handshake is shed with
/// a typed BUSY whichever listener the kernel hands it to.
#[test]
fn max_conns_caps_the_server_not_each_shard() {
    let handle = spawn_server(
        2,
        IngressConfig {
            max_conns: 1,
            ..IngressConfig::default()
        },
    );
    let no_retry = BackoffConfig { max_attempts: 0 };
    let incumbent = RemoteVerifier::connect_with(handle.addr(), 0, no_retry).unwrap();
    for k in 0..7 {
        match RemoteVerifier::connect_with(handle.addr(), 0, no_retry) {
            Err(RemoteError::Service(ServiceError::Overloaded { .. })) => {}
            other => panic!("handshake {k}: {:?}", other.map(|_| "admitted")),
        }
    }
    incumbent.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.connections, 1);
    assert_eq!(report.ingress.shed_connections, 7);
}

/// Reads `stream` until its first frame, which must be a HELLO_ACK.
fn expect_hello_ack(stream: &mut TcpStream) {
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    let ack = loop {
        if let Some(f) = decoder.next_frame() {
            break f;
        }
        let mut buf = [0u8; 256];
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed a handshaking connection");
        decoder.push(&buf[..n]).unwrap();
    };
    assert_eq!(ack.kind, FrameKind::HelloAck);
    HelloAck::decode(&ack.payload).unwrap();
}

/// One blocking connect and HELLO/HELLO_ACK exchange, on this thread.
fn handshake(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 0,
    };
    stream
        .write_all(&hello.to_frame().encode().unwrap())
        .unwrap();
    expect_hello_ack(&mut stream);
    stream
}

/// A two-shard server holding `HELD` idle handshaken connections still
/// verifies one client's batch, every verdict `Ok`. The connections are
/// opened one after another on this thread, and both ends of all of
/// them stay under the default soft limit of 1 024 descriptors, with
/// room for this suite's other tests.
#[test]
fn held_idle_connections_do_not_block_a_working_one() {
    const HELD: usize = 256;
    let m = material(46, 8);
    let handle = spawn_server(2, IngressConfig::default());
    let held: Vec<TcpStream> = (0..HELD).map(|_| handshake(handle.addr())).collect();

    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    assert_eq!(
        client.submit_batch(rel, &m.pocs).unwrap(),
        (0, m.pocs.len())
    );
    let results = client.collect_results().unwrap();
    assert_eq!(results.len(), m.pocs.len());
    for r in &results {
        assert!(r.result.is_ok(), "verdict beside held connections: {r:?}");
    }
    client.goodbye().unwrap();
    drop(held);

    let report = handle.shutdown().unwrap();
    assert!(report.ingress.connections > HELD as u64);
}

// ---------------------------------------------------------------------
// Pool exhaustion: defer reads, never drop or balloon
// ---------------------------------------------------------------------

/// More partial frames in flight than pooled buffers: the shard must
/// defer the overflow reads (counted in `pool.exhausted`) and finish
/// every handshake once buffers recycle — no connection is dropped,
/// no unpooled allocation papers over the shortage.
#[test]
fn pool_exhaustion_defers_reads_without_losing_connections() {
    // max_conns 128 clamps the pool to its 64-buffer floor; 96 partial
    // HELLOs then oversubscribe the pool by 32.
    const CONNS: usize = 96;
    let handle = spawn_server(
        1,
        IngressConfig {
            max_conns: 128,
            ..IngressConfig::default()
        },
    );
    let addr = handle.addr();

    let hello = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 0,
    }
    .to_frame()
    .encode()
    .unwrap();
    // Split inside the payload so the retained partial holds a buffer.
    let cut = 7;

    let mut streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            s.write_all(&hello[..cut]).unwrap();
            s
        })
        .collect();
    // Let every partial land: 64 buffers retained, 32 reads deferred.
    std::thread::sleep(Duration::from_millis(300));
    for s in &mut streams {
        s.write_all(&hello[cut..]).unwrap();
    }
    // Every connection — deferred or not — must complete its HELLO.
    for s in &mut streams {
        expect_hello_ack(s);
    }
    drop(streams);

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.connections, CONNS as u64);
    assert!(
        report.pool.exhausted > 0,
        "pool never ran dry: the test lost its oversubscription"
    );
    // Every checkout was eventually returned — nothing leaked.
    assert_eq!(report.pool.checkouts, report.pool.recycles);
}

// ---------------------------------------------------------------------
// Decode poisoning: a framing violation closes only its connection
// ---------------------------------------------------------------------

/// A garbage kind byte mid-stream draws the typed `ERROR`/`Protocol`
/// fault and a close on that connection alone; a neighbour connected
/// to the same shard keeps its session, and the poisoned bytes never
/// leak into a recycled buffer's next parse.
#[test]
fn framing_violation_poisons_only_its_connection() {
    let handle = spawn_server(1, IngressConfig::default());
    let addr = handle.addr();
    let m = material(30, 2);

    // Neighbour: a healthy session opened first.
    let mut good = RemoteVerifier::connect(addr, 0).unwrap();
    let rel = good
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();

    // Offender: handshake, then a frame with an unknown kind byte.
    let mut bad = TcpStream::connect(addr).unwrap();
    bad.set_nodelay(true).unwrap();
    bad.write_all(
        &Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            window: 0,
        }
        .to_frame()
        .encode()
        .unwrap(),
    )
    .unwrap();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    // 0xFF is no FrameKind; the bytes after it must be discarded with
    // the buffer, not reinterpreted once the buffer is recycled.
    bad.write_all(&[0xFF, 0, 0, 0, 4, 0xDE, 0xAD, 0xBE, 0xEF])
        .unwrap();
    loop {
        match bad.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if decoder.push(&buf[..n]).is_err() {
                    break;
                }
                while let Some(f) = decoder.next_frame() {
                    frames.push(f);
                }
            }
            Err(_) => break,
        }
    }
    assert!(
        frames.iter().any(|f| {
            f.kind == FrameKind::Error
                && matches!(Fault::decode(&f.payload), Ok(Fault::Protocol(_)))
        }),
        "offender saw no typed protocol fault: {frames:?}"
    );

    // The neighbour's session survived the other connection's close.
    for poc in &m.pocs {
        good.submit(rel, poc).unwrap();
    }
    let results = good.collect_results().unwrap();
    assert_eq!(results.len(), m.pocs.len());
    for r in &results {
        assert!(r.result.is_ok(), "neighbour verdict: {:?}", r.result);
    }
    good.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.protocol_errors, 1);
    assert_eq!(report.ingress.accepted, m.pocs.len() as u64);
}

// ---------------------------------------------------------------------
// Run to completion: what one wakeup gathered is verified before the next
// ---------------------------------------------------------------------

/// Depth-1 submit→verdict: each proof is a partial batch (one of 32)
/// that nothing but the end of its own loop iteration flushes — there
/// is no timer and no other thread. A server that waited for the batch
/// to fill hangs here.
#[test]
fn depth_one_verdicts_need_no_timer() {
    let m = material(40, 3);
    let handle = spawn_server(1, IngressConfig::default());
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    for poc in &m.pocs {
        let tag = client.submit(rel, poc).unwrap();
        let results = client.collect_results().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].tag, tag);
        assert!(results[0].result.is_ok(), "{:?}", results[0]);
    }
    client.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    let n = m.pocs.len() as u64;
    let svc = &report.service;
    assert_eq!((svc.batches, svc.idle_flushes), (n, n));
    let text = report.to_prometheus();
    assert!(text.contains(&format!("tlc_service_idle_flushes_total {n}\n")));
}

/// A session that only settles relays no submission, so no iteration
/// of the loop has anything to verify: the bypass workloads pay
/// nothing for the verdict path.
#[test]
fn settle_only_session_verifies_nothing() {
    let m = material(41, 0);
    let agreement = RoamingAgreement::paper_default();
    let handle = spawn_server(1, IngressConfig::default());
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    for i in 0..32u64 {
        let charged = 1_000_000 + i;
        let split = agreement.split_volume(charged, Serving::Visited);
        let got = client
            .settle(rel, Serving::Visited, charged, split)
            .unwrap();
        assert_eq!(got, SettleResult::Conserved);
    }
    client.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    let svc = &report.service;
    assert_eq!((svc.idle_flushes, svc.batches), (0, 0));
}

/// Connection A keeps relationship 1's window full for as long as
/// connection B needs to complete 32 depth-1 verdicts on relationship
/// 2. No clock in the assertion: A floods *until B is done*, so a
/// server that made B's lone proof wait for a batch to fill, or for
/// A's input to pause, hangs here.
#[test]
fn thin_relationship_is_not_starved_by_a_flood() {
    const ROUNDS: usize = 32;
    let flood = material(42, 8);
    let thin = material(43, ROUNDS);
    // The flood cycles a small pool, so most of it is replays; keep the
    // misbehavior ladder out of the way.
    let handle = spawn_server(
        1,
        IngressConfig {
            quarantine_threshold: u32::MAX,
            goodbye_threshold: u32::MAX,
            ..IngressConfig::default()
        },
    );
    let addr = handle.addr();
    let done = AtomicBool::new(false);

    let flooded = std::thread::scope(|scope| {
        let flooder = scope.spawn(|| {
            let mut a = RemoteVerifier::connect(addr, 0).unwrap();
            let rel = a
                .register(
                    flood.plan,
                    flood.edge.public.clone(),
                    flood.op.public.clone(),
                )
                .unwrap();
            let mut sent = 0u64;
            // `submit` blocks on a full window, so A always has its
            // whole window in flight.
            for poc in flood.pocs.iter().cycle() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                a.submit(rel, poc).unwrap();
                sent += 1;
            }
            a.collect_results().unwrap();
            a.goodbye().unwrap();
            sent
        });

        let mut b = RemoteVerifier::connect(addr, 0).unwrap();
        let rel = b
            .register(thin.plan, thin.edge.public.clone(), thin.op.public.clone())
            .unwrap();
        for poc in &thin.pocs {
            let tag = b.submit(rel, poc).unwrap();
            let results = b.collect_results().unwrap();
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].tag, tag);
            assert!(results[0].result.is_ok(), "{:?}", results[0]);
        }
        done.store(true, Ordering::SeqCst);
        b.goodbye().unwrap();
        flooder.join().unwrap()
    });

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.submissions, flooded + ROUNDS as u64);
    assert_eq!(report.ingress.verdicts, flooded + ROUNDS as u64);
    assert_eq!(report.ingress.shed_overload, 0);
}

/// The same proof submitted on two connections back to back: both
/// registrations resolve to one relationship and one replay window, so
/// exactly one submission is accepted and the other is `Replayed` —
/// whether the two land in one gather (and one batch) or in two, and,
/// on a two-shard server, with the two connections on different shards.
/// Which shard the kernel gave a connection is read off a warm-up
/// verdict; connections are opened until one is held per shard.
#[test]
fn one_proof_on_two_connections_is_accepted_once() {
    const TRIES: usize = 24;
    let m = material(44, 1 + TRIES);
    let (twice, mut warmups) = (&m.pocs[0], m.pocs[1..].iter());
    for shards in [1, 2] {
        let handle = spawn_server(shards, IngressConfig::default());
        let mut clients: Vec<(RemoteVerifier, usize)> = Vec::new();
        let mut rels = Vec::new();
        let mut warmed = 0;
        while clients.len() < 2 {
            let warmup = warmups
                .next()
                .expect("every connection landed on one shard");
            let mut c = RemoteVerifier::connect(handle.addr(), 0).unwrap();
            let rel = c
                .register(m.plan, m.edge.public.clone(), m.op.public.clone())
                .unwrap();
            rels.push(rel);
            c.submit(rel, warmup).unwrap();
            let verdict = c.collect_results().unwrap().pop().unwrap();
            assert!(verdict.result.is_ok(), "warm-up: {:?}", verdict.result);
            warmed += 1;
            if shards == 1 || clients.iter().all(|(_, held)| *held != verdict.shard) {
                clients.push((c, verdict.shard));
            } else {
                c.goodbye().unwrap();
            }
        }
        assert!(rels.iter().all(|r| *r == rels[0]), "one id: {rels:?}");

        for (c, _) in &mut clients {
            c.submit(rels[0], twice).unwrap();
        }
        let mut outcomes = Vec::new();
        for (mut c, _) in clients {
            outcomes.extend(c.collect_results().unwrap().into_iter().map(|r| r.result));
            c.goodbye().unwrap();
        }
        assert_eq!(outcomes.len(), 2);
        assert_eq!(
            outcomes.iter().filter(|r| r.is_ok()).count(),
            1,
            "{shards} shards: {outcomes:?}"
        );
        assert!(outcomes.contains(&Err(VerifyError::Replayed)));

        let report = handle.shutdown().unwrap();
        let (svc, wire) = (&report.service, &report.ingress);
        assert_eq!(
            (svc.accepted, svc.rejected, svc.replayed),
            (warmed + 1, 1, 1)
        );
        assert_eq!(
            (wire.accepted, wire.rejected_malformed, wire.registers),
            (warmed + 1, 1, warmed)
        );
        assert_eq!(svc.shards.len(), shards);
        assert!(svc.shards.iter().all(|s| s.accepted + s.rejected > 0));
    }
}

/// A transport that remembers the longest buffer it was asked to
/// write: the client hands each frame to one `write_all`, so this is
/// the widest frame it sent.
struct WidestWrite {
    inner: TcpStream,
    widest: usize,
}

impl Read for WidestWrite {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for WidestWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.widest = self.widest.max(buf.len());
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One SUBMIT_BATCH frame longer than a wakeup's read budget for its
/// connection (4 reads × 8 KiB): the frame completes on a later wakeup
/// and every verdict still comes back, in submission order. The client
/// cuts frames at half its window, so the server grants 128 to keep 64
/// proofs in one frame, and the test checks that premise on the wire.
#[test]
fn a_frame_longer_than_one_wakeup_yields_every_verdict_in_order() {
    const N: usize = 64;
    let m = material(45, N);
    let ingress = IngressConfig {
        window: 128,
        ..IngressConfig::default()
    };
    let handle = spawn_server(1, ingress);
    let inner = TcpStream::connect(handle.addr()).unwrap();
    inner.set_nodelay(true).unwrap();
    let transport = WidestWrite { inner, widest: 0 };
    let mut client = RemoteVerifier::handshake(transport, 0, BackoffConfig::default()).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    assert_eq!(client.submit_batch(rel, &m.pocs).unwrap(), (0, N));
    let widest = client.stream().widest;
    assert!(
        widest > 32 * 1024,
        "widest frame {widest} B fits one wakeup"
    );
    let results = client.collect_results().unwrap();
    let tags: Vec<u64> = results.iter().map(|r| r.tag).collect();
    assert_eq!(tags, (0..N as u64).collect::<Vec<_>>());
    assert!(results.iter().all(|r| r.result.is_ok()));
    client.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    assert_eq!(report.service.accepted, N as u64);
    // 64 proofs of one relationship: two size-triggered batches of 32,
    // nothing left for the end of the gather.
    assert_eq!(
        (report.service.batches, report.service.idle_flushes),
        (2, 0)
    );
}

/// A transport that counts the client's `write` and `read` calls, as
/// the ledger's `Tap` counts them around its socket.
struct Counted {
    inner: TcpStream,
    writes: usize,
    reads: usize,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        self.inner.read(buf)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The `cycle_e2e` shape: one client at the default window makes N
/// single `submit`s rotating over four relationships, then collects
/// once. Every verdict comes back with its tag and charge, and the
/// client buffers its SUBMITs. Each write is a half window of them,
/// the flush before a read syscall, or one of the five set-up frames
/// (HELLO, four REGISTERs), so the writes are at most N/32 + reads + 5
/// where one write per submit would be N + 5. (The server reads at
/// most 32 KiB of a connection per wakeup, about 55 SUBMITs, so a
/// burst of verdicts is about 55 long and each ends with a remainder
/// flush.)
#[test]
fn single_submits_go_out_half_a_window_to_a_write() {
    const RELS: usize = 4;
    const EACH: usize = 128;
    const N: usize = RELS * EACH;
    let mats: Vec<Material> = (50..50 + RELS as u64).map(|i| material(i, EACH)).collect();
    let handle = spawn_server(1, IngressConfig::default());
    let inner = TcpStream::connect(handle.addr()).unwrap();
    inner.set_nodelay(true).unwrap();
    let transport = Counted {
        inner,
        writes: 0,
        reads: 0,
    };
    let mut client = RemoteVerifier::handshake(transport, 0, BackoffConfig::default()).unwrap();
    let rels: Vec<_> = mats
        .iter()
        .map(|m| {
            client
                .register(m.plan, m.edge.public.clone(), m.op.public.clone())
                .unwrap()
        })
        .collect();
    let mut charges = std::collections::HashMap::new();
    for k in 0..EACH {
        for (m, rel) in mats.iter().zip(&rels) {
            let tag = client.submit(*rel, &m.pocs[k]).unwrap();
            charges.insert(tag, m.pocs[k].charge);
        }
    }
    let results = client.collect_results().unwrap();
    let Counted { writes, reads, .. } = *client.stream();
    assert_eq!(results.len(), N);
    for r in &results {
        let charge = charges.remove(&r.tag).expect("one verdict per tag");
        let got = r.result.as_ref().map(|v| v.charge);
        assert_eq!(got, Ok(charge), "tag {}", r.tag);
    }
    assert!(
        writes <= N / 32 + reads + 5,
        "{writes} writes and {reads} reads for {N} submits"
    );
    client.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.submissions, N as u64);
}

// ---------------------------------------------------------------------
// Admission faults and shutdown
// ---------------------------------------------------------------------

/// Every frame the server sends on `stream` until it closes it.
fn frames_until_close(stream: &mut TcpStream) -> Vec<tlc_net::wire::Frame> {
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => decoder.push(&buf[..n]).unwrap(),
        }
    }
    std::iter::from_fn(|| decoder.next_frame()).collect()
}

/// A SUBMIT that frames correctly but carries a PoC one byte short is a
/// client bug, not a verdict: the session gets the typed
/// `undecodable PoC payload` fault and no VERDICT for it. The two
/// proofs written ahead of it in the same write sit in a partial batch
/// when the fault closes the session, and still get their verdicts,
/// before the fault; the proof behind it is never read.
#[test]
fn an_undecodable_poc_draws_a_typed_fault_after_the_verdicts_before_it() {
    let handle = spawn_server(1, IngressConfig::default());
    let m = material(47, 3);
    let mut s = handshake(handle.addr());
    s.set_nodelay(true).unwrap();
    let register = Register {
        req: 1,
        capacity: 0,
        plan: m.plan,
        edge_key: m.edge.public.clone(),
        operator_key: m.op.public.clone(),
    };
    s.write_all(&register.to_frame().encode().unwrap()).unwrap();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    let registered = loop {
        if let Some(f) = decoder.next_frame() {
            break f;
        }
        let mut buf = [0u8; 256];
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before REGISTERED");
        decoder.push(&buf[..n]).unwrap();
    };
    assert_eq!(registered.kind, FrameKind::Registered);
    let rel = Registered::decode(&registered.payload).unwrap().rel;

    let mut short = m.pocs[2].encode();
    short.pop();
    assert!(PocMsg::decode(&short).is_err());
    let submits = [
        (1, m.pocs[0].encode()),
        (2, m.pocs[1].encode()),
        (3, short),
        (4, m.pocs[2].encode()),
    ];
    let wire: Vec<u8> = submits
        .into_iter()
        .flat_map(|(tag, poc)| Submit { rel, tag, poc }.to_frame().encode().unwrap())
        .collect();
    s.write_all(&wire).unwrap();

    let frames = frames_until_close(&mut s);
    let kinds: Vec<FrameKind> = frames.iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        [FrameKind::Verdict, FrameKind::Verdict, FrameKind::Error]
    );
    for (f, tag) in frames.iter().zip([1, 2]) {
        let v = VerdictMsg::decode(&f.payload).unwrap();
        assert_eq!((v.rel, v.tag), (rel, tag));
        assert!(v.result.is_ok(), "verdict {tag}: {:?}", v.result);
    }
    assert_eq!(
        Fault::decode(&frames[2].payload),
        Ok(Fault::Protocol("undecodable PoC payload"))
    );

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.protocol_errors, 1);
    assert_eq!(
        (report.ingress.submissions, report.ingress.verdicts),
        (2, 2)
    );
    assert_eq!(report.ingress.orphaned_verdicts, 0);
}

/// The shard loops wait with no timeout, so shutdown must wake them:
/// an idle one-shard and an idle two-shard server, twenty of each, are
/// spawned and shut down. A lost wake hangs a shutdown, so the work
/// runs on its own thread under a 10 s watchdog.
#[test]
fn shutdown_wakes_idle_shard_loops() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for shards in [1, 2] {
            for _ in 0..20 {
                let report = spawn_server(shards, IngressConfig::default()).shutdown();
                assert!(report.is_some(), "a shard loop panicked");
            }
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("40 idle servers shut down within 10 s");
}
