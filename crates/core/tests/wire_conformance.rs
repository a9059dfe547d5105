//! Golden-payload conformance for the verifier ingress protocol
//! (`verify::remote::codec`), plus the end-to-end guarantee the ISSUE
//! pins: a tampered PoC submitted over TCP is rejected with the same
//! `VerifyError` the in-process service returns.
//!
//! Fixtures are hand-assembled from the documented grammars — if an
//! encoder drifts, the mismatch points at the exact field. Keys in
//! fixtures are synthetic (`PublicKey::new` over fixed bytes), never
//! generated, so fixture bytes cannot move when keygen changes.

use tlc_core::messages::{MessageError, PocMsg, NONCE_LEN};
use tlc_core::plan::{ChargingCycle, DataPlan, LossWeight};
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::remote::codec::{
    Fault, Hello, HelloAck, Register, Registered, StatsSnapshot, Submit, SubmitBatch,
    SubmitBatchRef, SubmitRef, VerdictMsg, MAGIC, PROTOCOL_VERSION,
};
use tlc_core::verify::remote::{IngressConfig, IngressServer, RemoteVerifier};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_core::verify::{Verdict, VerifyError};
use tlc_crypto::encoding::encode_public_key;
use tlc_crypto::{BigUint, KeyPair, PublicKey};
use tlc_net::wire::FrameKind;

/// A tiny synthetic key with a hand-computable TLV encoding.
fn tiny_key() -> PublicKey {
    PublicKey::new(
        BigUint::from_bytes_be(&[0x0B, 0xAD, 0xC0, 0xDE]),
        BigUint::from_bytes_be(&[0x01, 0x00, 0x01]),
    )
}

/// The TLV bytes of [`tiny_key`], written out by hand from the spec:
/// `01 | len | (02 | len | n) (02 | len | e)`.
fn tiny_key_tlv() -> Vec<u8> {
    vec![
        0x01, 0, 0, 0, 17, // public-key container, 17 inner bytes
        0x02, 0, 0, 0, 4, 0x0B, 0xAD, 0xC0, 0xDE, // n
        0x02, 0, 0, 0, 3, 0x01, 0x00, 0x01, // e
    ]
}

fn fixture_plan() -> DataPlan {
    DataPlan {
        cycle: ChargingCycle::new(0x1122, 0x3344),
        loss_weight: LossWeight::new(5000, 10_000),
    }
}

#[test]
fn hello_payload_golden() {
    let h = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 7,
    };
    let frame = h.to_frame();
    assert_eq!(frame.kind, FrameKind::Hello);
    assert_eq!(
        frame.payload,
        vec![0x54, 0x4C, 0x43, 0x56, 0, 3, 0, 0, 0, 7],
        "HELLO drifted: magic|version|window"
    );
    assert_eq!(Hello::decode(&frame.payload), Ok(h));
}

#[test]
fn hello_ack_payload_golden() {
    let a = HelloAck {
        version: 1,
        window: 64,
        max_payload: 0x0004_0000,
    };
    let frame = a.to_frame();
    assert_eq!(frame.kind, FrameKind::HelloAck);
    assert_eq!(frame.payload, vec![0, 1, 0, 0, 0, 64, 0, 4, 0, 0]);
    assert_eq!(HelloAck::decode(&frame.payload), Ok(a));
}

#[test]
fn register_payload_golden() {
    let reg = Register {
        req: 3,
        capacity: 0x100,
        plan: fixture_plan(),
        edge_key: tiny_key(),
        operator_key: tiny_key(),
    };
    // Sanity: the synthetic key really has the hand-written TLV form.
    assert_eq!(encode_public_key(&tiny_key()), tiny_key_tlv());
    let frame = reg.to_frame();
    assert_eq!(frame.kind, FrameKind::Register);
    let mut expect = vec![0, 0, 0, 3]; // req
    expect.extend([0, 0, 0, 0, 0, 0, 1, 0]); // capacity
    expect.extend([0, 0, 0, 0, 0, 0, 0x11, 0x22]); // cycle start
    expect.extend([0, 0, 0, 0, 0, 0, 0x33, 0x44]); // cycle end
    expect.extend([0, 0, 0x13, 0x88]); // loss weight x 1e4 = 5000
    expect.extend((tiny_key_tlv().len() as u32).to_be_bytes());
    expect.extend(tiny_key_tlv());
    expect.extend((tiny_key_tlv().len() as u32).to_be_bytes());
    expect.extend(tiny_key_tlv());
    assert_eq!(frame.payload, expect, "REGISTER grammar drifted");
    let back = Register::decode(&frame.payload).unwrap();
    assert_eq!(back.req, 3);
    assert_eq!(back.capacity, 0x100);
    assert_eq!(back.plan, fixture_plan());
    assert_eq!(encode_public_key(&back.edge_key), tiny_key_tlv());
}

#[test]
fn registered_payload_golden() {
    let r = Registered {
        req: 9,
        rel: 0x0A0B,
    };
    let frame = r.to_frame();
    assert_eq!(frame.kind, FrameKind::Registered);
    assert_eq!(
        frame.payload,
        vec![0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0x0A, 0x0B]
    );
    assert_eq!(Registered::decode(&frame.payload), Ok(r));
}

#[test]
fn submit_payload_golden() {
    let s = Submit {
        rel: 1,
        tag: 0x0203,
        poc: vec![0xAA, 0xBB, 0xCC],
    };
    let frame = s.to_frame();
    assert_eq!(frame.kind, FrameKind::Submit);
    assert_eq!(
        frame.payload,
        vec![
            0, 0, 0, 0, 0, 0, 0, 1, // rel
            0, 0, 0, 0, 0, 0, 2, 3, // tag
            0, 0, 0, 3, 0xAA, 0xBB, 0xCC, // poc
        ]
    );
    let d = SubmitRef::decode(&frame.payload).unwrap();
    assert_eq!((d.rel, d.tag, d.poc), (s.rel, s.tag, &s.poc[..]));
}

#[test]
fn submit_batch_payload_golden() {
    let b = SubmitBatch {
        rel: 2,
        first_tag: 5,
        pocs: vec![vec![0x01], vec![0x02, 0x03]],
    };
    let frame = b.to_frame();
    assert_eq!(frame.kind, FrameKind::SubmitBatch);
    assert_eq!(
        frame.payload,
        vec![
            0, 0, 0, 0, 0, 0, 0, 2, // rel
            0, 0, 0, 0, 0, 0, 0, 5, // first_tag
            0, 0, 0, 2, // count
            0, 0, 0, 1, 0x01, // poc 0
            0, 0, 0, 2, 0x02, 0x03, // poc 1
        ]
    );
    let d = SubmitBatchRef::decode(&frame.payload).unwrap();
    assert_eq!((d.rel, d.first_tag), (b.rel, b.first_tag));
    assert_eq!(d.pocs, b.pocs);
}

#[test]
fn verdict_payload_golden_accept() {
    let v = VerdictMsg {
        rel: 1,
        tag: 2,
        shard: 3,
        result: Ok(Verdict {
            charge: 0x10,
            edge_claim: 0x20,
            operator_claim: 0x30,
            rounds: 0x40,
        }),
    };
    let frame = v.to_frame();
    assert_eq!(frame.kind, FrameKind::Verdict);
    assert_eq!(
        frame.payload,
        vec![
            0, 0, 0, 0, 0, 0, 0, 1, // rel
            0, 0, 0, 0, 0, 0, 0, 2, // tag
            0, 0, 0, 3, // shard
            0, // result code: Ok
            0, 0, 0, 0, 0, 0, 0, 0x10, // charge
            0, 0, 0, 0, 0, 0, 0, 0x20, // edge claim
            0, 0, 0, 0, 0, 0, 0, 0x30, // operator claim
            0, 0, 0, 0, 0, 0, 0, 0x40, // rounds
        ]
    );
    assert_eq!(VerdictMsg::decode(&frame.payload), Ok(v));
}

#[test]
fn verdict_payload_golden_rejections() {
    // BadSignature: the commonest rejection, byte-pinned.
    let v = VerdictMsg {
        rel: 0,
        tag: 0,
        shard: 0,
        result: Err(VerifyError::Signature(MessageError::BadSignature)),
    };
    assert_eq!(
        v.to_frame().payload,
        vec![
            0, 0, 0, 0, 0, 0, 0, 0, // rel
            0, 0, 0, 0, 0, 0, 0, 0, // tag
            0, 0, 0, 0, // shard
            1, 0, // Signature / BadSignature
        ]
    );
    // ChargeMismatch carries its operands.
    let v = VerdictMsg {
        rel: 0,
        tag: 0,
        shard: 0,
        result: Err(VerifyError::ChargeMismatch {
            claimed: 9,
            expected: 7,
        }),
    };
    assert_eq!(
        v.to_frame().payload[20..],
        [
            5, // ChargeMismatch
            0, 0, 0, 0, 0, 0, 0, 9, // claimed
            0, 0, 0, 0, 0, 0, 0, 7, // expected
        ]
    );
    // Replayed is a bare code.
    let v = VerdictMsg {
        rel: 0,
        tag: 0,
        shard: 0,
        result: Err(VerifyError::Replayed),
    };
    assert_eq!(v.to_frame().payload[20..], [6]);
}

#[test]
fn stats_payload_golden() {
    let s = StatsSnapshot {
        connections: 1,
        submissions: 2,
        service_outstanding: 3,
        ..StatsSnapshot::default()
    };
    let frame = s.to_frame(FrameKind::Stats);
    assert_eq!(frame.kind, FrameKind::Stats);
    assert_eq!(
        frame.payload.len(),
        8 * 16,
        "STATS field count is wire format"
    );
    assert_eq!(frame.payload[..8], [0, 0, 0, 0, 0, 0, 0, 1]);
    assert_eq!(frame.payload[4 * 8..5 * 8], [0, 0, 0, 0, 0, 0, 0, 2]);
    assert_eq!(frame.payload[11 * 8..12 * 8], [0, 0, 0, 0, 0, 0, 0, 3]);
    assert_eq!(StatsSnapshot::decode(&frame.payload), Ok(s));
}

#[test]
fn busy_payload_golden() {
    use tlc_core::verify::remote::codec::{BusyMsg, BusyScope};
    let b = BusyMsg {
        scope: BusyScope::Submit,
        retry_after_ms: 50,
        rel: 2,
        tag: 0x0304,
    };
    let frame = b.to_frame();
    assert_eq!(frame.kind, FrameKind::Busy);
    assert_eq!(
        frame.payload,
        vec![
            1, // scope: Submit
            0, 0, 0, 50, // retry_after_ms
            0, 0, 0, 0, 0, 0, 0, 2, // rel
            0, 0, 0, 0, 0, 0, 3, 4, // tag
        ],
        "BUSY grammar drifted: scope|retry_after_ms|rel|tag"
    );
    assert_eq!(BusyMsg::decode(&frame.payload), Ok(b));
}

#[test]
fn fault_payload_golden() {
    assert_eq!(
        Fault::ShardDown { shard: 2 }.to_frame().payload,
        vec![0, 0, 0, 0, 2]
    );
    assert_eq!(
        Fault::ResultsClosed { outstanding: 5 }.to_frame().payload,
        vec![1, 0, 0, 0, 5]
    );
    assert_eq!(
        Fault::UnknownRelationship(7).to_frame().payload,
        vec![2, 0, 0, 0, 0, 0, 0, 0, 7]
    );
    assert_eq!(
        Fault::BadVersion { server: 1 }.to_frame().payload,
        vec![3, 0, 1]
    );
    // "bad magic" interns at index 2 of PROTOCOL_STRINGS.
    assert_eq!(
        Fault::Protocol("bad magic").to_frame().payload,
        vec![4, 0, 2]
    );
    assert_eq!(Fault::Shutdown.to_frame().payload, vec![5]);
}

// ---------------------------------------------------------------------
// End-to-end: same rejections over TCP as in-process.
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

/// A valid, a tampered, and a replayed PoC take the exact same verdicts
/// over TCP as through the in-process service.
#[test]
fn remote_verdicts_match_in_process_bit_for_bit() {
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 9100).unwrap();
    let op = KeyPair::generate_for_seed(1024, 9101).unwrap();
    let valid = negotiate(&edge, &op, plan, 0x61, 0x62);
    let mut tampered = negotiate(&edge, &op, plan, 0x63, 0x64);
    tampered.charge += 1; // breaks the PoC signature
    let replay = valid.clone();
    let pocs = [valid, tampered, replay];

    // In-process reference run.
    let mut svc = VerifierService::new();
    let rel = svc
        .register(plan, edge.public.clone(), op.public.clone())
        .unwrap();
    for poc in &pocs {
        svc.submit(rel, poc.clone()).unwrap();
    }
    let mut reference = svc.collect_results().unwrap();
    reference.sort_by_key(|r| r.tag);
    svc.finish();

    // Same proofs over a real socket.
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let remote_rel = client
        .register(plan, edge.public.clone(), op.public.clone())
        .unwrap();
    for poc in &pocs {
        client.submit(remote_rel, poc).unwrap();
    }
    let mut remote = client.collect_results().unwrap();
    remote.sort_by_key(|r| r.tag);
    client.goodbye().unwrap();
    let report = handle.shutdown().unwrap();

    assert_eq!(reference.len(), 3);
    assert_eq!(remote.len(), 3);
    for (r, e) in remote.iter().zip(reference.iter()) {
        assert_eq!(r.tag, e.tag);
        assert_eq!(r.result, e.result, "verdict diverged across the wire");
    }
    // The pinned acceptance case: the tampered PoC is rejected with the
    // same typed error on both paths.
    assert_eq!(
        remote[1].result,
        Err(VerifyError::Signature(MessageError::BadSignature))
    );
    assert_eq!(remote[2].result, Err(VerifyError::Replayed));
    assert_eq!(report.ingress.submissions, 3);
    assert_eq!(report.ingress.verdicts, 3);
    assert_eq!(report.service.unclaimed_results, 0);
}

/// Submitting under a relationship the server never issued surfaces the
/// same `ServiceError::UnknownRelationship` the in-process API returns.
#[test]
fn unknown_relationship_is_mirrored_client_side() {
    use tlc_core::verify::remote::RemoteError;
    use tlc_core::verify::service::ServiceError;

    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 9200).unwrap();
    let op = KeyPair::generate_for_seed(1024, 9201).unwrap();
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(plan, edge.public.clone(), op.public.clone())
        .unwrap();
    // A different client session that never registered anything.
    let mut stranger = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let poc = negotiate(&edge, &op, plan, 0x71, 0x72);
    let got = stranger.submit(rel, &poc);
    assert!(matches!(
        got,
        Err(RemoteError::Service(ServiceError::UnknownRelationship(_)))
    ));
    drop(stranger);
    client.goodbye().unwrap();
    handle.shutdown().unwrap();
}

/// A protocol violation (first frame is not HELLO) draws a typed ERROR
/// frame and a close, not a hang or a panic.
#[test]
fn non_hello_opening_is_rejected() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use tlc_net::wire::{Frame, FrameDecoder};

    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(
        &Frame::new(FrameKind::StatsReq, Vec::new())
            .encode()
            .unwrap(),
    )
    .unwrap();
    let mut decoder = FrameDecoder::new(1 << 20);
    let mut frame = None;
    let mut buf = [0u8; 4096];
    loop {
        let n = raw.read(&mut buf).unwrap();
        if n == 0 {
            break; // server closed after the error, as specified
        }
        decoder.push(&buf[..n]).unwrap();
        if let Some(f) = decoder.next_frame() {
            frame = Some(f);
            break;
        }
    }
    let frame = frame.expect("expected an ERROR frame before close");
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(
        Fault::decode(&frame.payload),
        Ok(Fault::Protocol("expected HELLO"))
    );
    handle.shutdown().unwrap();
}

/// The stop flag alone shuts the server down even with clients mid-
/// session; their outstanding results are drained and accounted.
#[test]
fn shutdown_accounts_for_unclaimed_results() {
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 9300).unwrap();
    let op = KeyPair::generate_for_seed(1024, 9301).unwrap();
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = RemoteVerifier::connect(handle.addr(), 0).unwrap();
    let rel = client
        .register(plan, edge.public.clone(), op.public.clone())
        .unwrap();
    let poc = negotiate(&edge, &op, plan, 0x81, 0x82);
    client.submit(rel, &poc).unwrap();
    // Disconnect without collecting: the verdict is now orphaned.
    drop(client);
    // Give the server a moment to relay and observe the hangup, then
    // stop. The counters must reconcile no matter which side of the
    // race the verdict landed on.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let report = handle.shutdown().unwrap();
    let accounted = report.ingress.orphaned_verdicts
        + report.ingress.verdicts
        + report.service.unclaimed_results as u64;
    assert_eq!(report.ingress.submissions, 1);
    assert_eq!(
        accounted, 1,
        "the verdict must be drained or orphaned, not lost"
    );
}
