//! Overload, fairness, and chaos soak for the verifier ingress.
//!
//! Where `soak_ingress` proves the happy path matches the in-process
//! service bit-for-bit, this suite drives the server through its
//! admission ladder (`tlc_core::verify::remote`'s docs) and asserts the
//! robustness pins:
//!
//! * overload is never a silent drop — every shed submission draws a
//!   typed BUSY, and server shed counters reconcile with what clients
//!   observed;
//! * one abusive client cannot starve well-behaved ones — their
//!   goodput stays at 100% of demand (the ISSUE floor is 80%);
//! * the misbehavior ladder escalates: oversize bursts quarantine,
//!   repeat offenders draw a typed goodbye;
//! * `finish()` accounts every submission exactly once across
//!   verdicts, orphans, and unclaimed results — including mid-batch
//!   connection death and server crash/restart;
//! * chaos faults (slow-loris dribble, mid-frame resets, stalled
//!   readers) replay deterministically per seed and never wedge the
//!   server.
//!
//! Pin a single chaos seed with `TLC_CHAOS_SEED=<n>`; by default the
//! determinism test sweeps the three seeds CI pins.

use std::io::{Read, Write};
use std::net::TcpStream;
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::remote::codec::{
    BusyMsg, BusyScope, Fault, Hello, HelloAck, Register, Registered, Submit, SubmitBatch,
    VerdictMsg, MAGIC, PROTOCOL_VERSION,
};
use tlc_core::verify::remote::{
    BackoffConfig, IngressConfig, IngressHandle, IngressServer, RemoteError, RemoteVerifier,
};
use tlc_core::verify::service::{ServiceConfig, ServiceError};
use tlc_crypto::KeyPair;
use tlc_net::chaos::{ChaosSpec, ChaosStream};
use tlc_net::wire::{Frame, FrameDecoder, FrameKind, DEFAULT_MAX_PAYLOAD};

// ---------------------------------------------------------------------
// Material
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

/// One relationship's material: its own keys plus `n` distinct valid
/// proofs. `idx` keeps key seeds and nonces disjoint across callers
/// (and from the other soak suites, which use the 20_000 range).
struct Material {
    edge: KeyPair,
    op: KeyPair,
    plan: DataPlan,
    pocs: Vec<PocMsg>,
}

fn material(idx: u64, n: usize) -> Material {
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 40_000 + idx * 2).unwrap();
    let op = KeyPair::generate_for_seed(1024, 40_001 + idx * 2).unwrap();
    let base = (idx as u8).wrapping_mul(32);
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

fn spawn_server(ingress: IngressConfig, workers: usize) -> IngressHandle {
    IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        ingress,
    )
    .unwrap()
    .spawn()
    .unwrap()
}

// ---------------------------------------------------------------------
// A raw frame-level client, for driving the protocol off the paved path
// (oversize bursts, stalled reads) the typed client refuses to take.
// ---------------------------------------------------------------------

struct RawClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl RawClient {
    /// Connects and completes the HELLO exchange; returns the granted
    /// window alongside the client.
    fn handshake(addr: std::net::SocketAddr) -> (RawClient, u32) {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut c = RawClient {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
        };
        c.send(
            &Hello {
                magic: MAGIC,
                version: PROTOCOL_VERSION,
                window: 0,
            }
            .to_frame(),
        );
        let ack = c.recv();
        assert_eq!(ack.kind, FrameKind::HelloAck);
        let ack = HelloAck::decode(&ack.payload).unwrap();
        let window = ack.window;
        (c, window)
    }

    /// Registers `m`'s relationship and returns its raw id.
    fn register(&mut self, m: &Material) -> u64 {
        self.send(
            &Register {
                req: 1,
                capacity: 0,
                plan: m.plan,
                edge_key: m.edge.public.clone(),
                operator_key: m.op.public.clone(),
            }
            .to_frame(),
        );
        let frame = self.recv();
        assert_eq!(frame.kind, FrameKind::Registered);
        Registered::decode(&frame.payload).unwrap().rel
    }

    fn send(&mut self, frame: &Frame) {
        self.stream.write_all(&frame.encode().unwrap()).unwrap();
    }

    /// Blocks until one whole frame arrives.
    fn recv(&mut self) -> Frame {
        loop {
            if let Some(f) = self.decoder.next_frame() {
                return f;
            }
            let mut buf = [0u8; 4096];
            let n = self.stream.read(&mut buf).unwrap();
            assert!(n > 0, "peer closed mid-read");
            self.decoder.push(&buf[..n]).unwrap();
        }
    }

    /// Reads until EOF, returning every frame seen on the way.
    fn drain_to_eof(&mut self) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            while let Some(f) = self.decoder.next_frame() {
                frames.push(f);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.decoder.push(&buf[..n]).unwrap(),
                Err(_) => break,
            }
        }
        while let Some(f) = self.decoder.next_frame() {
            frames.push(f);
        }
        frames
    }
}

// ---------------------------------------------------------------------
// Graceful degradation: one abusive client, N well-behaved ones.
// ---------------------------------------------------------------------

/// One client blasts an oversize burst (quarantine-grade misbehavior)
/// and then keeps submitting; three well-behaved clients run their
/// full workload alongside. The pins: well-behaved goodput is 100% of
/// demand (ISSUE floor: 80%), every response the abuser gets is typed
/// (BUSY or a verdict, never silence), the abuser is quarantined, and
/// the final report accounts every submission and every shed exactly.
#[test]
fn abusive_client_cannot_starve_the_well_behaved() {
    const WELL_BEHAVED: usize = 3;
    const POCS_EACH: usize = 5;
    let handle = spawn_server(
        IngressConfig {
            window: 8,
            max_batch: 4,
            quarantine_threshold: 8,
            // Long enough that the quarantine outlives the burst, short
            // enough that a read-race never wedges the test.
            quarantine_polls: 200,
            goodbye_threshold: 1_000_000,
            ..IngressConfig::default()
        },
        2,
    );
    let addr = handle.addr();

    let mats: Vec<Material> = (0..WELL_BEHAVED)
        .map(|c| material(c as u64, POCS_EACH))
        .collect();
    let abuse_mat = material(100, 1);

    let mut abusive_busys = 0u64;
    let mut well_behaved_sheds = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for m in &mats {
            joins.push(scope.spawn(move || {
                let mut client = RemoteVerifier::connect(addr, 0).unwrap();
                let rel = client
                    .register(m.plan, m.edge.public.clone(), m.op.public.clone())
                    .unwrap();
                for poc in &m.pocs {
                    client.submit(rel, poc).unwrap();
                }
                let results = client.collect_results().unwrap();
                assert_eq!(results.len(), POCS_EACH, "goodput below demand");
                for r in &results {
                    assert!(
                        r.result.is_ok(),
                        "well-behaved proof rejected: {:?}",
                        r.result
                    );
                }
                let sheds = client.shed_notices();
                client.goodbye().unwrap();
                sheds
            }));
        }

        // The abuser: an oversize burst (5 > max_batch 4) followed by
        // six copies of one proof, all in a single write.
        let abuser = scope.spawn(|| {
            const FOLLOW_UPS: usize = 6;
            let (mut raw, _window) = RawClient::handshake(addr);
            let rel = raw.register(&abuse_mat);
            let poc = abuse_mat.pocs[0].encode();
            let mut blast = SubmitBatch {
                rel,
                first_tag: 0,
                pocs: vec![vec![0xEE; 8]; 5],
            }
            .to_frame()
            .encode()
            .unwrap();
            for k in 0..FOLLOW_UPS {
                blast.extend(
                    Submit {
                        rel,
                        tag: 100 + k as u64,
                        poc: poc.clone(),
                    }
                    .to_frame()
                    .encode()
                    .unwrap(),
                );
            }
            raw.stream.write_all(&blast).unwrap();
            // Every submission must draw a typed answer: the burst an
            // ERROR, each follow-up either BUSY (shed while
            // quarantined) or a verdict (admitted after the sentence
            // expires) — silence is the one forbidden outcome.
            let mut errors = 0u32;
            let mut busys = 0u64;
            let mut verdicts = 0u32;
            while errors < 1 || (busys as usize + verdicts as usize) < FOLLOW_UPS {
                let frame = raw.recv();
                match frame.kind {
                    FrameKind::Error => {
                        assert_eq!(
                            Fault::decode(&frame.payload),
                            Ok(Fault::Protocol("batch exceeds server limit"))
                        );
                        errors += 1;
                    }
                    FrameKind::Busy => {
                        let busy = BusyMsg::decode(&frame.payload).unwrap();
                        assert_eq!(busy.scope, BusyScope::Submit);
                        assert_eq!(busy.rel, rel);
                        assert!(busy.retry_after_ms > 0);
                        busys += 1;
                    }
                    FrameKind::Verdict => {
                        VerdictMsg::decode(&frame.payload).unwrap();
                        verdicts += 1;
                    }
                    other => panic!("unexpected frame under abuse: {other:?}"),
                }
            }
            busys
        });

        abusive_busys = abuser.join().unwrap();
        for j in joins {
            well_behaved_sheds += j.join().unwrap();
        }
    });

    let report = handle.shutdown().unwrap();
    let ing = &report.ingress;
    // The burst was a protocol error and a quarantine, not a close.
    assert!(ing.protocol_errors >= 1);
    assert!(ing.quarantines >= 1, "oversize burst must quarantine");
    assert_eq!(ing.misbehavior_closes, 0);
    // Every BUSY the server counted was received by some client.
    assert_eq!(
        ing.shed_overload,
        abusive_busys + well_behaved_sheds,
        "shed counters must reconcile with client-observed BUSYs"
    );
    // Exact submission accounting: everything admitted was resolved.
    assert_eq!(
        ing.submissions,
        ing.verdicts + ing.orphaned_verdicts + report.service.unclaimed_results as u64
    );
    assert_eq!(report.service.unclaimed_results, 0);
}

// ---------------------------------------------------------------------
// The ShedSubmits rung: deterministic sheds, transparent recovery.
// ---------------------------------------------------------------------

/// With the shed watermark at half of one frame, one batch of 8 proofs
/// (one frame: the client cuts frames at half its window of 16)
/// deterministically sheds its tail. The typed client retries behind
/// capped backoff and still completes the full batch — and the
/// server's shed counter equals the client's BUSY count.
#[test]
fn shed_submits_draw_busy_and_retry_to_completion() {
    let handle = spawn_server(
        IngressConfig {
            window: 16,
            shed_submit_watermark: 4,
            retry_after_ms: 2,
            ..IngressConfig::default()
        },
        1,
    );
    let m = material(200, 8);
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    let (first, count) = client.submit_batch(rel, &m.pocs).unwrap();
    assert_eq!((first, count), (0, 8));
    let results = client.collect_results().unwrap();
    assert_eq!(results.len(), 8);
    for r in &results {
        assert!(
            r.result.is_ok(),
            "shed-and-retried proof rejected: {:?}",
            r.result
        );
    }
    // Relaying an 8-proof frame against a watermark of 4 must shed: one
    // gather reads the whole frame, and the watermark budgets the
    // gather.
    assert!(client.shed_notices() >= 4, "expected the batch tail shed");
    assert!(client.retries() >= client.shed_notices());
    assert_eq!(client.shed_pending(), 0);
    let sheds = client.shed_notices();
    client.goodbye().unwrap();

    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.shed_overload, sheds);
    assert_eq!(report.ingress.submissions, 8);
    assert_eq!(report.ingress.verdicts, 8);
    assert_eq!(report.ingress.accepted, 8);
    assert_eq!(report.ingress.orphaned_verdicts, 0);
}

// ---------------------------------------------------------------------
// The connection cap.
// ---------------------------------------------------------------------

/// At the connection cap, a new arrival draws BUSY (scope Connection),
/// surfaced as the same typed `ServiceError::Overloaded` the rest of
/// the ladder uses — and once the incumbent leaves, reconnection with
/// backoff succeeds.
#[test]
fn connection_shed_is_typed_and_recoverable() {
    let handle = spawn_server(
        IngressConfig {
            max_conns: 1,
            retry_after_ms: 2,
            ..IngressConfig::default()
        },
        1,
    );
    let addr = handle.addr();
    let m = material(300, 1);
    let mut incumbent = RemoteVerifier::connect(addr, 0).unwrap();
    let rel = incumbent
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    incumbent.submit(rel, &m.pocs[0]).unwrap();

    // A bare handshake (no reconnect loop) sees the typed shed.
    let stream = TcpStream::connect(addr).unwrap();
    let got = RemoteVerifier::handshake(stream, 0, BackoffConfig::default());
    match got {
        Err(RemoteError::Service(ServiceError::Overloaded { retry_after_ms })) => {
            assert!(retry_after_ms > 0)
        }
        Err(other) => panic!("expected typed Overloaded, got {other:?}"),
        Ok(_) => panic!("handshake must be shed at the connection cap"),
    }

    // Incumbent leaves; the reconnect loop gets in within its budget.
    incumbent.collect_results().unwrap();
    incumbent.goodbye().unwrap();
    let late = RemoteVerifier::connect_with(addr, 0, BackoffConfig { max_attempts: 50 }).unwrap();
    drop(late);
    let report = handle.shutdown().unwrap();
    assert!(report.ingress.shed_connections >= 1);
}

// ---------------------------------------------------------------------
// Misbehavior goodbye.
// ---------------------------------------------------------------------

/// Past the goodbye threshold the server closes with a typed protocol
/// fault, not a bare reset — and counts the close.
#[test]
fn misbehavior_limit_draws_typed_goodbye() {
    let handle = spawn_server(
        IngressConfig {
            max_batch: 4,
            quarantine_threshold: 4,
            goodbye_threshold: 8,
            ..IngressConfig::default()
        },
        1,
    );
    let m = material(400, 0);
    let (mut raw, _) = RawClient::handshake(handle.addr());
    let rel = raw.register(&m);
    // One oversize burst scores 8 — straight past goodbye.
    raw.send(
        &SubmitBatch {
            rel,
            first_tag: 0,
            pocs: vec![vec![0xEE; 8]; 5],
        }
        .to_frame(),
    );
    let frames = raw.drain_to_eof();
    let faults: Vec<_> = frames
        .iter()
        .filter(|f| f.kind == FrameKind::Error)
        .map(|f| Fault::decode(&f.payload).unwrap())
        .collect();
    assert!(faults.contains(&Fault::Protocol("batch exceeds server limit")));
    assert!(
        faults.contains(&Fault::Protocol("misbehavior limit exceeded")),
        "close must carry the typed goodbye, got {faults:?}"
    );
    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.misbehavior_closes, 1);
    assert_eq!(report.ingress.submissions, 0);
}

// ---------------------------------------------------------------------
// Stalled reader: the per-connection debt cap, with exact counters.
// ---------------------------------------------------------------------

/// A client that submits far past its window and never reads verdicts
/// is capped at `window × debt_factor` in-flight; the overflow is shed
/// with BUSY. A normal client alongside is untouched. All counters are
/// exact because the whole burst is one frame.
#[test]
fn stalled_reader_is_capped_and_accounted_exactly() {
    const BURST: usize = 20;
    let handle = spawn_server(
        IngressConfig {
            window: 4,
            debt_factor: 2,
            max_batch: 64,
            ..IngressConfig::default()
        },
        1,
    );
    let addr = handle.addr();
    let stalled_mat = material(500, 1);
    let normal_mat = material(501, 2);

    // The stalled reader: 20 copies of one proof in a single batch
    // frame, then never reads. Debt cap = 4 × 2 = 8, so exactly 8 are
    // relayed (1 accept + 7 replays) and 12 shed.
    let (mut stalled, window) = RawClient::handshake(addr);
    assert_eq!(window, 4);
    let rel = stalled.register(&stalled_mat);
    let poc = stalled_mat.pocs[0].encode();
    stalled.send(
        &SubmitBatch {
            rel,
            first_tag: 0,
            pocs: vec![poc; BURST],
        }
        .to_frame(),
    );

    // A normal client alongside completes its full workload.
    let mut client = RemoteVerifier::connect(addr, 0).unwrap();
    let nrel = client
        .register(
            normal_mat.plan,
            normal_mat.edge.public.clone(),
            normal_mat.op.public.clone(),
        )
        .unwrap();
    for p in &normal_mat.pocs {
        client.submit(nrel, p).unwrap();
    }
    let results = client.collect_results().unwrap();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.result.is_ok()));
    client.goodbye().unwrap();

    // Give the server time to resolve the stalled client's debt (its
    // verdicts land in the unread socket buffer), then stop.
    std::thread::sleep(std::time::Duration::from_millis(300));
    drop(stalled);
    let report = handle.shutdown().unwrap();
    let ing = &report.ingress;
    let debt_cap = (BURST - 12) as u64; // window 4 × debt_factor 2
    assert_eq!(ing.shed_overload, BURST as u64 - debt_cap);
    assert_eq!(ing.submissions, debt_cap + 2);
    assert_eq!(ing.accepted, 1 + 2, "one accept from the burst, two normal");
    assert_eq!(ing.rejected_malformed, debt_cap - 1, "burst copies replay");
    assert_eq!(
        ing.submissions,
        ing.verdicts + ing.orphaned_verdicts + report.service.unclaimed_results as u64
    );
}

// ---------------------------------------------------------------------
// Mid-batch connection death: exact orphan accounting (ISSUE item).
// ---------------------------------------------------------------------

/// A client submits a batch and dies before collecting anything. Every
/// one of its submissions must land in exactly one bucket — streamed
/// verdict, orphaned verdict, or unclaimed result — with nothing lost
/// and nothing double-counted.
#[test]
fn mid_batch_death_accounts_every_orphan() {
    const N: usize = 5;
    let m = material(600, N);
    // The whole session is pipelined into the listener's backlog and
    // the socket dropped before the server thread exists, so the death
    // precedes every verdict by construction. (Against a running server
    // it is a race the client loses: a batch of five is verified sooner
    // than a preempted client gets to close.) The first relationship a
    // server issues is 0.
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr().unwrap()).unwrap();
    let hello = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 0,
    };
    let register = Register {
        req: 1,
        capacity: 0,
        plan: m.plan,
        edge_key: m.edge.public.clone(),
        operator_key: m.op.public.clone(),
    };
    let batch = SubmitBatch {
        rel: 0,
        first_tag: 0,
        pocs: m.pocs.iter().map(|p| p.encode()).collect(),
    };
    for frame in [hello.to_frame(), register.to_frame(), batch.to_frame()] {
        stream.write_all(&frame.encode().unwrap()).unwrap();
    }
    // Death, mid-batch: nothing collected, socket dropped.
    drop(stream);
    let handle = server.spawn().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    let report = handle.shutdown().unwrap();
    let ing = &report.ingress;
    assert_eq!(ing.submissions, N as u64, "the whole batch was relayed");
    assert_eq!(
        ing.verdicts + ing.orphaned_verdicts + report.service.unclaimed_results as u64,
        N as u64,
        "every submission must be verdict, orphan, or unclaimed"
    );
    // The client was gone before anything could stream back.
    assert!(ing.orphaned_verdicts + report.service.unclaimed_results as u64 >= 1);
}

// ---------------------------------------------------------------------
// Server crash/restart between frames.
// ---------------------------------------------------------------------

/// The server dies with work outstanding; the client surfaces the same
/// typed `ResultsClosed` the in-process API uses, then re-registers
/// against a restarted server and completes the same proofs.
#[test]
fn server_restart_resubmits_and_completes() {
    let m = material(700, 2);
    let handle = spawn_server(IngressConfig::default(), 1);
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    for p in &m.pocs {
        client.submit(rel, p).unwrap();
    }
    // Crash: the server tears down mid-session. Whatever it admitted
    // before dying must still be accounted, not lost.
    let report = handle.shutdown().unwrap();
    assert_eq!(
        report.ingress.submissions,
        report.ingress.verdicts
            + report.ingress.orphaned_verdicts
            + report.service.unclaimed_results as u64
    );
    match client.collect_results() {
        // The shutdown raced the verdict stream and lost: typed close.
        Err(RemoteError::Service(ServiceError::ResultsClosed { .. })) => {}
        // ... or won: results complete before the goodbye landed.
        Ok(results) if results.len() == m.pocs.len() => return,
        other => panic!("expected ResultsClosed or full results, got {other:?}"),
    }

    // Restart: fresh server, fresh replay cache — resubmit everything.
    let handle = spawn_server(IngressConfig::default(), 1);
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    for p in &m.pocs {
        client.submit(rel, p).unwrap();
    }
    let results = client.collect_results().unwrap();
    assert_eq!(results.len(), m.pocs.len());
    assert!(results.iter().all(|r| r.result.is_ok()));
    client.goodbye().unwrap();
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Chaos: deterministic replay, and resets that don't hurt the server.
// ---------------------------------------------------------------------

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("TLC_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![1, 2, 3],
    }
}

/// One slow-loris session's write-side chaos decisions, replayed twice
/// per seed against fresh servers, must be identical: same accepted-
/// write count, same bytes. (Read-side chunking depends on socket
/// timing, so only the write side is pinned.)
#[test]
fn chaos_seeds_replay_deterministically() {
    let m = material(800, 3);
    let spec = ChaosSpec {
        write_dribble: Some(5),
        read_dribble: None,
        reset_after: None,
    };
    let run = |seed: u64| {
        let handle = spawn_server(IngressConfig::default(), 1);
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let chaos = ChaosStream::new(stream, spec, seed);
        let mut client = RemoteVerifier::handshake(chaos, 0, BackoffConfig::default()).unwrap();
        let rel = client
            .register(m.plan, m.edge.public.clone(), m.op.public.clone())
            .unwrap();
        for p in &m.pocs {
            client.submit(rel, p).unwrap();
        }
        let results = client.collect_results().unwrap();
        assert_eq!(results.len(), m.pocs.len());
        assert!(results.iter().all(|r| r.result.is_ok()));
        let stats = client.stream().stats();
        client.goodbye().unwrap();
        handle.shutdown().unwrap();
        (stats.writes, stats.bytes_tx)
    };
    for seed in chaos_seeds() {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed} did not replay deterministically");
        // Dribble really happened: more writes than frames sent.
        assert!(a.0 > a.1 / 5, "write dribble was not exercised");
    }
}

/// A connection reset mid-frame (the chaos stream kills the session
/// partway through REGISTER) surfaces as a typed I/O error on the
/// client and leaves the server fully healthy for the next client.
#[test]
fn mid_frame_reset_leaves_server_healthy() {
    let m = material(900, 1);
    let handle = spawn_server(IngressConfig::default(), 1);
    let addr = handle.addr();

    // Budget of 40 bytes: past the 15-byte HELLO exchange, inside the
    // several-hundred-byte REGISTER frame.
    let stream = TcpStream::connect(addr).unwrap();
    let chaos = ChaosStream::new(
        stream,
        ChaosSpec {
            write_dribble: None,
            read_dribble: None,
            reset_after: Some(40),
        },
        7,
    );
    let mut doomed = RemoteVerifier::handshake(chaos, 0, BackoffConfig::default()).unwrap();
    let got = doomed.register(m.plan, m.edge.public.clone(), m.op.public.clone());
    match got {
        Err(RemoteError::Io(kind)) => {
            assert_eq!(kind, std::io::ErrorKind::ConnectionReset)
        }
        other => panic!("expected injected reset, got {other:?}"),
    }
    assert!(doomed.stream().is_reset());
    drop(doomed);

    // The server shrugs it off: a clean client completes normally.
    let mut client = RemoteVerifier::connect(addr, 0).unwrap();
    let rel = client
        .register(m.plan, m.edge.public.clone(), m.op.public.clone())
        .unwrap();
    client.submit(rel, &m.pocs[0]).unwrap();
    let results = client.collect_results().unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].result.is_ok());
    client.goodbye().unwrap();
    let report = handle.shutdown().unwrap();
    assert_eq!(report.ingress.submissions, 1);
    assert_eq!(report.ingress.verdicts, 1);
}

/// Mixed-fleet soak driven by the chaos plan: `plan_roles` assigns
/// each slot a deterministic role; clean clients must complete their
/// workload no matter what the chaotic ones do.
#[test]
fn planned_chaos_fleet_never_starves_clean_clients() {
    use tlc_net::chaos::{plan_roles, ChaosRole};
    const FLEET: usize = 6;
    let seed = chaos_seeds()[0];
    let roles = plan_roles(seed, FLEET);
    assert!(roles.contains(&ChaosRole::Clean));
    let mats: Vec<Material> = (0..FLEET).map(|i| material(1000 + i as u64, 2)).collect();
    let handle = spawn_server(
        IngressConfig {
            window: 4,
            debt_factor: 2,
            ..IngressConfig::default()
        },
        2,
    );
    let addr = handle.addr();

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (i, role) in roles.iter().enumerate() {
            let m = &mats[i];
            let role = *role;
            joins.push(scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let chaos = ChaosStream::new(stream, role.spec(), seed.wrapping_add(i as u64));
                let client = RemoteVerifier::handshake(chaos, 0, BackoffConfig::default());
                let mut client = match client {
                    Ok(c) => c,
                    // A reset role can die in the handshake; that is
                    // its job.
                    Err(RemoteError::Io(_)) => return,
                    Err(e) => panic!("unexpected handshake failure: {e:?}"),
                };
                let rel = match client.register(m.plan, m.edge.public.clone(), m.op.public.clone())
                {
                    Ok(rel) => rel,
                    Err(RemoteError::Io(_)) => return,
                    Err(e) => panic!("unexpected register failure: {e:?}"),
                };
                let mut submitted = 0usize;
                for p in &m.pocs {
                    match client.submit(rel, p) {
                        Ok(_) => submitted += 1,
                        Err(RemoteError::Io(_)) => return,
                        Err(e) => panic!("unexpected submit failure: {e:?}"),
                    }
                }
                if role == ChaosRole::StalledReader {
                    // Submits, never collects, then hangs up: the
                    // harness half of the role. The server's debt cap
                    // and orphan accounting absorb it.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    return;
                }
                match client.collect_results() {
                    Ok(results) => {
                        if role == ChaosRole::Clean {
                            assert_eq!(results.len(), submitted);
                            assert!(results.iter().all(|r| r.result.is_ok()));
                        }
                    }
                    Err(RemoteError::Io(_)) => (),
                    Err(e) => panic!("unexpected collect failure: {e:?}"),
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    });

    std::thread::sleep(std::time::Duration::from_millis(300));
    let report = handle.shutdown().unwrap();
    let ing = &report.ingress;
    assert_eq!(
        ing.submissions,
        ing.verdicts + ing.orphaned_verdicts + report.service.unclaimed_results as u64,
        "chaos fleet broke submission accounting"
    );
}
