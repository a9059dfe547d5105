//! Payload grammars for the verifier ingress protocol.
//!
//! Each frame kind's payload is a fixed big-endian grammar over the
//! envelope provided by [`tlc_net::wire`]. This module is the byte-
//! exact conformance surface: `tests/wire_conformance.rs` pins golden
//! fixtures against these encoders, so any accidental drift in the
//! wire format fails a test rather than silently strands deployed
//! clients.
//!
//! ```text
//! HELLO        magic:u32 | version:u16 | window:u32
//! HELLO_ACK    version:u16 | window:u32 | max_payload:u32
//! REGISTER     req:u32 | capacity:u64 | plan:20B | ek_len:u32 | ek | ok_len:u32 | ok
//! REGISTERED   req:u32 | rel:u64
//! SUBMIT       rel:u64 | tag:u64 | poc_len:u32 | poc
//! SUBMIT_BATCH rel:u64 | first_tag:u64 | count:u32 | count x (len:u32 | poc)
//! VERDICT      rel:u64 | tag:u64 | shard:u32 | result (see below)
//! STATS_REQ    (empty)
//! STATS        16 x u64 counters
//! ERROR        code:u8 | operands (see below)
//! GOODBYE      (empty)
//! GOODBYE_ACK  (empty)
//! BUSY         scope:u8 | retry_after_ms:u32 | rel:u64 | tag:u64
//! SETTLE       rel:u64 | tag:u64 | serving:u8 | charged:u64 | home:u64 | visited:u64 | vendor:u64
//! SETTLE_VERDICT rel:u64 | tag:u64 | result:u8
//! ```
//!
//! Verdict result encoding — code byte, then operands:
//!
//! ```text
//! 0 Ok               charge:u64 | edge_claim:u64 | operator_claim:u64 | rounds:u64
//! 1 Signature        sub:u8 -> 0 BadSignature
//!                              1 Malformed       idx:u16 (string table)
//!                              2 Crypto          crypto encoding below
//! 2 PlanMismatch
//! 3 NonceMismatch
//! 4 SequenceMismatch
//! 5 ChargeMismatch   claimed:u64 | expected:u64
//! 6 Replayed
//! 7 Unregistered
//! ```
//!
//! `Malformed` and `Encoding` carry `&'static str` details in-process;
//! on the wire they are interned against tables of the known strings
//! ([`MALFORMED_STRINGS`], [`ENCODING_STRINGS`]). An index the decoder
//! does not know resolves to a stable fallback string instead of
//! failing, so old clients keep working when a server learns new
//! detail strings.

use crate::messages::{get_plan, put_plan, MessageError};
use crate::plan::DataPlan;
use crate::roaming::{Serving, SettlementSplit};
use crate::verify::{Verdict, VerifyError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tlc_crypto::encoding::{decode_public_key, encode_public_key};
use tlc_crypto::{CryptoError, PublicKey};
use tlc_net::wire::{Frame, FrameKind};

/// Protocol magic ("TLCV") leading every HELLO.
pub const MAGIC: u32 = 0x544C_4356;

/// Wire protocol version carried in HELLO / HELLO_ACK.
///
/// v2 added the BUSY frame (typed load shedding) and widened STATS
/// from 12 to 16 counters. v3 added the SETTLE / SETTLE_VERDICT pair
/// (three-party roaming settlement audit).
pub const PROTOCOL_VERSION: u16 = 3;

/// Known [`MessageError::Malformed`] detail strings, in interning
/// order. Append-only: indexes are wire format.
pub const MALFORMED_STRINGS: &[&str] = &[
    "CDA role matches finalizer",
    "embedded CDR role mismatch",
    "invalid plan fields",
    "missing role",
    "not a CDA",
    "not a CDR",
    "not a PoC",
    "trailing bytes after CDA",
    "trailing bytes after CDR",
    "trailing bytes after PoC",
    "truncated CDA seq",
    "truncated CDA usage",
    "truncated CDR seq",
    "truncated CDR usage",
    "truncated PoC charge",
    "truncated embedded CDA header",
    "truncated embedded CDA",
    "truncated embedded CDR header",
    "truncated embedded CDR",
    "truncated nonce",
    "truncated plan",
    "truncated signature header",
    "truncated signature",
    "unknown role",
];

/// Fallback when a `Malformed` index is newer than this decoder.
pub const MALFORMED_FALLBACK: &str = "unrecognized malformed detail";

/// Known [`CryptoError::Encoding`] detail strings, in interning order.
/// Append-only: indexes are wire format.
pub const ENCODING_STRINGS: &[&str] = &[
    "EME header",
    "EME padding too short",
    "EME separator",
    "RSA block length",
    "sealed blob too short",
    "session key length",
    "trailing bytes after public key",
    "trailing bytes inside public key",
    "truncated TLV header",
    "truncated TLV value",
    "unexpected TLV tag",
    "zero modulus or exponent",
];

/// Fallback when an `Encoding` index is newer than this decoder.
pub const ENCODING_FALLBACK: &str = "unrecognized encoding detail";

/// Protocol-violation detail strings an ERROR/Protocol frame can
/// carry, in interning order. Append-only: indexes are wire format.
pub const PROTOCOL_STRINGS: &[&str] = &[
    "framing violation",
    "expected HELLO",
    "bad magic",
    "unexpected frame kind",
    "undecodable PoC payload",
    "batch exceeds server limit",
    "truncated HELLO",
    "truncated HELLO_ACK",
    "truncated REGISTER",
    "bad key in REGISTER",
    "truncated REGISTERED",
    "truncated SUBMIT",
    "truncated SUBMIT_BATCH",
    "truncated VERDICT",
    "unknown verdict code",
    "unknown signature sub-code",
    "unknown crypto code",
    "truncated STATS",
    "truncated ERROR",
    "unknown error code",
    "bad plan in REGISTER",
    "misbehavior limit exceeded",
    "truncated BUSY",
    "unknown BUSY scope",
    "truncated SETTLE",
    "unknown serving code",
    "truncated SETTLE_VERDICT",
    "unknown settlement result",
    "settlement split mismatch",
];

/// Fallback when a protocol-detail index is newer than this decoder.
pub const PROTOCOL_FALLBACK: &str = "unrecognized protocol detail";

fn intern(table: &[&str], s: &str) -> u16 {
    table
        .iter()
        .position(|t| *t == s)
        .map(|i| i as u16)
        .unwrap_or(u16::MAX)
}

fn resolve(table: &'static [&'static str], idx: u16, fallback: &'static str) -> &'static str {
    table.get(idx as usize).copied().unwrap_or(fallback)
}

/// HELLO payload: the client's opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Must be [`MAGIC`].
    pub magic: u32,
    /// Client protocol version.
    pub version: u16,
    /// Requested in-flight window; 0 asks for the server default.
    pub window: u32,
}

impl Hello {
    /// Encodes into a HELLO frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(10);
        b.put_u32(self.magic);
        b.put_u16(self.version);
        b.put_u32(self.window);
        Frame::new(FrameKind::Hello, b.to_vec())
    }

    /// Decodes a HELLO payload.
    pub fn decode(payload: &[u8]) -> Result<Hello, &'static str> {
        if payload.len() != 10 {
            return Err("truncated HELLO");
        }
        let mut b = Bytes::copy_from_slice(payload);
        Ok(Hello {
            magic: b.get_u32(),
            version: b.get_u16(),
            window: b.get_u32(),
        })
    }
}

/// HELLO_ACK payload: the server's session grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Server protocol version.
    pub version: u16,
    /// Granted in-flight window (at least 1).
    pub window: u32,
    /// Largest frame payload the server accepts.
    pub max_payload: u32,
}

impl HelloAck {
    /// Encodes into a HELLO_ACK frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(10);
        b.put_u16(self.version);
        b.put_u32(self.window);
        b.put_u32(self.max_payload);
        Frame::new(FrameKind::HelloAck, b.to_vec())
    }

    /// Decodes a HELLO_ACK payload.
    pub fn decode(payload: &[u8]) -> Result<HelloAck, &'static str> {
        if payload.len() != 10 {
            return Err("truncated HELLO_ACK");
        }
        let mut b = Bytes::copy_from_slice(payload);
        Ok(HelloAck {
            version: b.get_u16(),
            window: b.get_u32(),
            max_payload: b.get_u32(),
        })
    }
}

/// REGISTER payload: a charging relationship to verify under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Client-chosen request id, echoed in REGISTERED.
    pub req: u32,
    /// Replay-cache capacity for the relationship. `0` requests the
    /// server's default capacity (the cache itself requires at least
    /// one slot).
    pub capacity: u64,
    /// The negotiated data plan.
    pub plan: DataPlan,
    /// Edge (vendor) public key.
    pub edge_key: PublicKey,
    /// Operator public key.
    pub operator_key: PublicKey,
}

impl Register {
    /// Encodes into a REGISTER frame.
    pub fn to_frame(&self) -> Frame {
        let ek = encode_public_key(&self.edge_key);
        let ok = encode_public_key(&self.operator_key);
        let mut b = BytesMut::with_capacity(40 + ek.len() + ok.len());
        b.put_u32(self.req);
        b.put_u64(self.capacity);
        put_plan(&mut b, &self.plan);
        b.put_u32(ek.len() as u32);
        b.put_slice(&ek);
        b.put_u32(ok.len() as u32);
        b.put_slice(&ok);
        Frame::new(FrameKind::Register, b.to_vec())
    }

    /// Decodes a REGISTER payload.
    pub fn decode(payload: &[u8]) -> Result<Register, &'static str> {
        let mut b = Bytes::copy_from_slice(payload);
        if b.remaining() < 12 {
            return Err("truncated REGISTER");
        }
        let req = b.get_u32();
        let capacity = b.get_u64();
        let plan = get_plan(&mut b).map_err(|_| "bad plan in REGISTER")?;
        let edge_key = get_key(&mut b)?;
        let operator_key = get_key(&mut b)?;
        if b.has_remaining() {
            return Err("truncated REGISTER");
        }
        Ok(Register {
            req,
            capacity,
            plan,
            edge_key,
            operator_key,
        })
    }
}

fn get_key(b: &mut Bytes) -> Result<PublicKey, &'static str> {
    if b.remaining() < 4 {
        return Err("truncated REGISTER");
    }
    let len = b.get_u32() as usize;
    if b.remaining() < len {
        return Err("truncated REGISTER");
    }
    let raw = b.copy_to_bytes(len);
    decode_public_key(raw.chunk()).map_err(|_| "bad key in REGISTER")
}

/// REGISTERED payload: the relationship id grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// Echo of the client's request id.
    pub req: u32,
    /// The issued relationship id.
    pub rel: u64,
}

impl Registered {
    /// Encodes into a REGISTERED frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(12);
        b.put_u32(self.req);
        b.put_u64(self.rel);
        Frame::new(FrameKind::Registered, b.to_vec())
    }

    /// Decodes a REGISTERED payload.
    pub fn decode(payload: &[u8]) -> Result<Registered, &'static str> {
        if payload.len() != 12 {
            return Err("truncated REGISTERED");
        }
        let mut b = Bytes::copy_from_slice(payload);
        Ok(Registered {
            req: b.get_u32(),
            rel: b.get_u64(),
        })
    }
}

/// SUBMIT payload: one proof under a relationship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Relationship id from REGISTERED.
    pub rel: u64,
    /// Client-chosen correlation tag, echoed in the VERDICT.
    pub tag: u64,
    /// The PoC message, in its canonical signed encoding.
    pub poc: Vec<u8>,
}

impl Submit {
    /// Encodes into a SUBMIT frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(20 + self.poc.len());
        b.put_u64(self.rel);
        b.put_u64(self.tag);
        b.put_u32(self.poc.len() as u32);
        b.put_slice(&self.poc);
        Frame::new(FrameKind::Submit, b.to_vec())
    }
}

/// Decoded view of a SUBMIT payload ([`Submit`]'s grammar): the PoC
/// bytes stay in the input buffer — the ingress relays them to the
/// service without an intermediate copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitRef<'a> {
    /// Relationship id from REGISTERED.
    pub rel: u64,
    /// Client-chosen correlation tag, echoed in the VERDICT.
    pub tag: u64,
    /// The PoC message bytes, borrowed from the frame payload.
    pub poc: &'a [u8],
}

impl<'a> SubmitRef<'a> {
    /// Decodes a SUBMIT payload without copying the PoC bytes.
    pub fn decode(payload: &'a [u8]) -> Result<SubmitRef<'a>, &'static str> {
        if payload.len() < 20 {
            return Err("truncated SUBMIT");
        }
        let rel = be_u64(payload);
        let tag = be_u64(&payload[8..]);
        let len = be_u32(&payload[16..]) as usize;
        if payload.len() - 20 != len {
            return Err("truncated SUBMIT");
        }
        Ok(SubmitRef {
            rel,
            tag,
            poc: &payload[20..],
        })
    }
}

/// Big-endian u64 from the first 8 bytes. Callers length-check first.
fn be_u64(b: &[u8]) -> u64 {
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Big-endian u32 from the first 4 bytes. Callers length-check first.
fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// SUBMIT_BATCH payload: contiguously tagged proofs under one
/// relationship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitBatch {
    /// Relationship id from REGISTERED.
    pub rel: u64,
    /// Tag of the first proof; the k-th proof gets `first_tag + k`.
    pub first_tag: u64,
    /// Canonical PoC encodings, in submission order.
    pub pocs: Vec<Vec<u8>>,
}

impl SubmitBatch {
    /// Encodes into a SUBMIT_BATCH frame.
    pub fn to_frame(&self) -> Frame {
        let total: usize = self.pocs.iter().map(|p| p.len() + 4).sum();
        let mut b = BytesMut::with_capacity(20 + total);
        b.put_u64(self.rel);
        b.put_u64(self.first_tag);
        b.put_u32(self.pocs.len() as u32);
        for poc in &self.pocs {
            b.put_u32(poc.len() as u32);
            b.put_slice(poc);
        }
        Frame::new(FrameKind::SubmitBatch, b.to_vec())
    }
}

/// Decoded view of a SUBMIT_BATCH payload ([`SubmitBatch`]'s grammar),
/// with each PoC a slice of the frame payload instead of a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitBatchRef<'a> {
    /// Relationship id from REGISTERED.
    pub rel: u64,
    /// Tag of the first proof; the k-th proof gets `first_tag + k`.
    pub first_tag: u64,
    /// Canonical PoC encodings, borrowed, in submission order.
    pub pocs: Vec<&'a [u8]>,
}

impl<'a> SubmitBatchRef<'a> {
    /// Decodes a SUBMIT_BATCH payload without copying any PoC bytes.
    /// The full grammar is validated (including the trailing-bytes
    /// check) before the caller sees the batch, so size-limit
    /// enforcement downstream happens strictly after decode.
    pub fn decode(payload: &'a [u8]) -> Result<SubmitBatchRef<'a>, &'static str> {
        if payload.len() < 20 {
            return Err("truncated SUBMIT_BATCH");
        }
        let rel = be_u64(payload);
        let first_tag = be_u64(&payload[8..]);
        let count = be_u32(&payload[16..]) as usize;
        let mut rest = &payload[20..];
        // The frame length is already capped by the decoder, so `count`
        // cannot smuggle an over-allocation past this arithmetic: each
        // item needs at least its 4-byte length prefix.
        if count > rest.len() / 4 + 1 {
            return Err("truncated SUBMIT_BATCH");
        }
        let mut pocs = Vec::with_capacity(count);
        for _ in 0..count {
            if rest.len() < 4 {
                return Err("truncated SUBMIT_BATCH");
            }
            let len = be_u32(rest) as usize;
            rest = &rest[4..];
            if rest.len() < len {
                return Err("truncated SUBMIT_BATCH");
            }
            pocs.push(&rest[..len]);
            rest = &rest[len..];
        }
        if !rest.is_empty() {
            return Err("truncated SUBMIT_BATCH");
        }
        Ok(SubmitBatchRef {
            rel,
            first_tag,
            pocs,
        })
    }
}

/// VERDICT payload: one verification result streamed back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictMsg {
    /// Relationship the proof was submitted under.
    pub rel: u64,
    /// The client's correlation tag.
    pub tag: u64,
    /// Shard that processed the proof.
    pub shard: u32,
    /// The full in-process result, bit-for-bit.
    pub result: Result<Verdict, VerifyError>,
}

impl VerdictMsg {
    /// Encodes into a VERDICT frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(64);
        b.put_u64(self.rel);
        b.put_u64(self.tag);
        b.put_u32(self.shard);
        put_verify_result(&mut b, &self.result);
        Frame::new(FrameKind::Verdict, b.to_vec())
    }

    /// Decodes a VERDICT payload.
    pub fn decode(payload: &[u8]) -> Result<VerdictMsg, &'static str> {
        let mut b = Bytes::copy_from_slice(payload);
        if b.remaining() < 21 {
            return Err("truncated VERDICT");
        }
        let rel = b.get_u64();
        let tag = b.get_u64();
        let shard = b.get_u32();
        let result = get_verify_result(&mut b)?;
        if b.has_remaining() {
            return Err("truncated VERDICT");
        }
        Ok(VerdictMsg {
            rel,
            tag,
            shard,
            result,
        })
    }
}

fn put_verify_result(b: &mut BytesMut, result: &Result<Verdict, VerifyError>) {
    match result {
        Ok(v) => {
            b.put_u8(0);
            b.put_u64(v.charge);
            b.put_u64(v.edge_claim);
            b.put_u64(v.operator_claim);
            b.put_u64(v.rounds);
        }
        Err(VerifyError::Signature(m)) => {
            b.put_u8(1);
            put_message_error(b, m);
        }
        Err(VerifyError::PlanMismatch) => b.put_u8(2),
        Err(VerifyError::NonceMismatch) => b.put_u8(3),
        Err(VerifyError::SequenceMismatch) => b.put_u8(4),
        Err(VerifyError::ChargeMismatch { claimed, expected }) => {
            b.put_u8(5);
            b.put_u64(*claimed);
            b.put_u64(*expected);
        }
        Err(VerifyError::Replayed) => b.put_u8(6),
        Err(VerifyError::Unregistered) => b.put_u8(7),
    }
}

fn get_verify_result(b: &mut Bytes) -> Result<Result<Verdict, VerifyError>, &'static str> {
    if !b.has_remaining() {
        return Err("truncated VERDICT");
    }
    match b.get_u8() {
        0 => {
            if b.remaining() < 32 {
                return Err("truncated VERDICT");
            }
            Ok(Ok(Verdict {
                charge: b.get_u64(),
                edge_claim: b.get_u64(),
                operator_claim: b.get_u64(),
                rounds: b.get_u64(),
            }))
        }
        1 => Ok(Err(VerifyError::Signature(get_message_error(b)?))),
        2 => Ok(Err(VerifyError::PlanMismatch)),
        3 => Ok(Err(VerifyError::NonceMismatch)),
        4 => Ok(Err(VerifyError::SequenceMismatch)),
        5 => {
            if b.remaining() < 16 {
                return Err("truncated VERDICT");
            }
            Ok(Err(VerifyError::ChargeMismatch {
                claimed: b.get_u64(),
                expected: b.get_u64(),
            }))
        }
        6 => Ok(Err(VerifyError::Replayed)),
        7 => Ok(Err(VerifyError::Unregistered)),
        _ => Err("unknown verdict code"),
    }
}

fn put_message_error(b: &mut BytesMut, m: &MessageError) {
    match m {
        MessageError::BadSignature => b.put_u8(0),
        MessageError::Malformed(s) => {
            b.put_u8(1);
            b.put_u16(intern(MALFORMED_STRINGS, s));
        }
        MessageError::Crypto(c) => {
            b.put_u8(2);
            put_crypto_error(b, c);
        }
    }
}

fn get_message_error(b: &mut Bytes) -> Result<MessageError, &'static str> {
    if !b.has_remaining() {
        return Err("truncated VERDICT");
    }
    match b.get_u8() {
        0 => Ok(MessageError::BadSignature),
        1 => {
            if b.remaining() < 2 {
                return Err("truncated VERDICT");
            }
            let idx = b.get_u16();
            Ok(MessageError::Malformed(resolve(
                MALFORMED_STRINGS,
                idx,
                MALFORMED_FALLBACK,
            )))
        }
        2 => Ok(MessageError::Crypto(get_crypto_error(b)?)),
        _ => Err("unknown signature sub-code"),
    }
}

fn put_crypto_error(b: &mut BytesMut, c: &CryptoError) {
    match c {
        CryptoError::MessageTooLarge => b.put_u8(0),
        CryptoError::InvalidKeySize(bits) => {
            b.put_u8(1);
            b.put_u64(*bits as u64);
        }
        CryptoError::KeyTooSmallForDigest => b.put_u8(2),
        CryptoError::SignatureLength { expected, got } => {
            b.put_u8(3);
            b.put_u64(*expected as u64);
            b.put_u64(*got as u64);
        }
        CryptoError::BadSignature => b.put_u8(4),
        CryptoError::Encoding(s) => {
            b.put_u8(5);
            b.put_u16(intern(ENCODING_STRINGS, s));
        }
        CryptoError::Internal => b.put_u8(6),
    }
}

fn get_crypto_error(b: &mut Bytes) -> Result<CryptoError, &'static str> {
    if !b.has_remaining() {
        return Err("truncated VERDICT");
    }
    match b.get_u8() {
        0 => Ok(CryptoError::MessageTooLarge),
        1 => {
            if b.remaining() < 8 {
                return Err("truncated VERDICT");
            }
            Ok(CryptoError::InvalidKeySize(b.get_u64() as usize))
        }
        2 => Ok(CryptoError::KeyTooSmallForDigest),
        3 => {
            if b.remaining() < 16 {
                return Err("truncated VERDICT");
            }
            Ok(CryptoError::SignatureLength {
                expected: b.get_u64() as usize,
                got: b.get_u64() as usize,
            })
        }
        4 => Ok(CryptoError::BadSignature),
        5 => {
            if b.remaining() < 2 {
                return Err("truncated VERDICT");
            }
            let idx = b.get_u16();
            Ok(CryptoError::Encoding(resolve(
                ENCODING_STRINGS,
                idx,
                ENCODING_FALLBACK,
            )))
        }
        6 => Ok(CryptoError::Internal),
        _ => Err("unknown crypto code"),
    }
}

/// STATS payload: ingress counters. Also the type the server reports
/// at shutdown (`IngressReport::ingress`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections fully closed and reaped.
    pub connections_closed: u64,
    /// Connections currently open (snapshot-only; 0 in final reports).
    pub open_connections: u64,
    /// REGISTER requests granted.
    pub registers: u64,
    /// Proofs relayed into the service.
    pub submissions: u64,
    /// Verdicts streamed back to clients.
    pub verdicts: u64,
    /// Verdicts that were `Ok`.
    pub accepted: u64,
    /// Verdicts that were rejections for cause (bad signature, replay,
    /// plan mismatch, …) — a malformed *proof*, never a shed.
    pub rejected_malformed: u64,
    /// Verdicts whose client was already gone (discarded, counted).
    pub orphaned_verdicts: u64,
    /// Protocol violations observed (each closes its connection).
    pub protocol_errors: u64,
    /// Transitions of some connection into the paused (backpressured)
    /// state.
    pub pauses: u64,
    /// Submissions in flight inside the service at snapshot time.
    pub service_outstanding: u64,
    /// Submissions shed by admission control with a BUSY frame. Every
    /// shed is answered, so `shed_overload` equals the BUSY frames
    /// (scope Submit) sent — never a silent drop.
    pub shed_overload: u64,
    /// Connections turned away at accept time with BUSY (scope
    /// Connection).
    pub shed_connections: u64,
    /// Connections placed in quarantine by the misbehavior score.
    pub quarantines: u64,
    /// Connections closed for exceeding the misbehavior limit.
    pub misbehavior_closes: u64,
}

impl StatsSnapshot {
    const FIELDS: usize = 16;

    /// Encodes into a frame of the given kind (STATS).
    pub fn to_frame(&self, kind: FrameKind) -> Frame {
        let mut b = BytesMut::with_capacity(8 * Self::FIELDS);
        for v in [
            self.connections,
            self.connections_closed,
            self.open_connections,
            self.registers,
            self.submissions,
            self.verdicts,
            self.accepted,
            self.rejected_malformed,
            self.orphaned_verdicts,
            self.protocol_errors,
            self.pauses,
            self.service_outstanding,
            self.shed_overload,
            self.shed_connections,
            self.quarantines,
            self.misbehavior_closes,
        ] {
            b.put_u64(v);
        }
        Frame::new(kind, b.to_vec())
    }

    /// Decodes a STATS payload.
    pub fn decode(payload: &[u8]) -> Result<StatsSnapshot, &'static str> {
        if payload.len() != 8 * Self::FIELDS {
            return Err("truncated STATS");
        }
        let mut b = Bytes::copy_from_slice(payload);
        Ok(StatsSnapshot {
            connections: b.get_u64(),
            connections_closed: b.get_u64(),
            open_connections: b.get_u64(),
            registers: b.get_u64(),
            submissions: b.get_u64(),
            verdicts: b.get_u64(),
            accepted: b.get_u64(),
            rejected_malformed: b.get_u64(),
            orphaned_verdicts: b.get_u64(),
            protocol_errors: b.get_u64(),
            pauses: b.get_u64(),
            service_outstanding: b.get_u64(),
            shed_overload: b.get_u64(),
            shed_connections: b.get_u64(),
            quarantines: b.get_u64(),
            misbehavior_closes: b.get_u64(),
        })
    }

    /// Renders the counters in Prometheus text exposition format.
    ///
    /// Counter names are prefixed `tlc_ingress_`; the two point-in-time
    /// values (`open_connections`, `service_outstanding`) are gauges.
    pub fn to_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        let counters = [
            ("connections_total", self.connections),
            ("connections_closed_total", self.connections_closed),
            ("registers_total", self.registers),
            ("submissions_total", self.submissions),
            ("verdicts_total", self.verdicts),
            ("accepted_total", self.accepted),
            ("rejected_malformed_total", self.rejected_malformed),
            ("orphaned_verdicts_total", self.orphaned_verdicts),
            ("protocol_errors_total", self.protocol_errors),
            ("pauses_total", self.pauses),
            ("shed_overload_total", self.shed_overload),
            ("shed_connections_total", self.shed_connections),
            ("quarantines_total", self.quarantines),
            ("misbehavior_closes_total", self.misbehavior_closes),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE tlc_ingress_{name} counter");
            let _ = writeln!(out, "tlc_ingress_{name} {v}");
        }
        let gauges = [
            ("open_connections", self.open_connections),
            ("service_outstanding", self.service_outstanding),
        ];
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE tlc_ingress_{name} gauge");
            let _ = writeln!(out, "tlc_ingress_{name} {v}");
        }
    }
}

/// Whether a BUSY frame shed one submission or the whole connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyScope {
    /// The connection itself was refused (sent at accept time, before
    /// any HELLO exchange); reconnect after the delay.
    Connection = 0,
    /// One submission was shed; `rel`/`tag` identify it. Resubmitting
    /// after the delay is safe — a shed proof never reached the
    /// replay cache.
    Submit = 1,
}

/// BUSY payload: typed load shedding — the overload answer that
/// replaces a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyMsg {
    /// What was shed.
    pub scope: BusyScope,
    /// Server's suggested backoff before retrying, in milliseconds.
    pub retry_after_ms: u32,
    /// Relationship of the shed submission (0 for Connection scope).
    pub rel: u64,
    /// Client tag of the shed submission (0 for Connection scope).
    pub tag: u64,
}

impl BusyMsg {
    /// Encodes into a BUSY frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(21);
        b.put_u8(self.scope as u8);
        b.put_u32(self.retry_after_ms);
        b.put_u64(self.rel);
        b.put_u64(self.tag);
        Frame::new(FrameKind::Busy, b.to_vec())
    }

    /// Decodes a BUSY payload.
    pub fn decode(payload: &[u8]) -> Result<BusyMsg, &'static str> {
        let mut b = Bytes::copy_from_slice(payload);
        if b.remaining() < 21 {
            return Err("truncated BUSY");
        }
        let scope = match b.get_u8() {
            0 => BusyScope::Connection,
            1 => BusyScope::Submit,
            _ => return Err("unknown BUSY scope"),
        };
        Ok(BusyMsg {
            scope,
            retry_after_ms: b.get_u32(),
            rel: b.get_u64(),
            tag: b.get_u64(),
        })
    }
}

/// SETTLE payload: a three-party roaming settlement record submitted
/// for conservation audit (DESIGN §14). The server replays the
/// conservation law `home + visited + vendor == charged` and answers
/// with a SETTLE_VERDICT; a split that fails the law is the roaming
/// analogue of a charge that does not replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettleMsg {
    /// Relationship id from REGISTERED.
    pub rel: u64,
    /// Client-chosen correlation tag, echoed in the SETTLE_VERDICT.
    pub tag: u64,
    /// Which operator served the settled volume.
    pub serving: Serving,
    /// The negotiated charging volume being split.
    pub charged: u64,
    /// The proposed three-party split.
    pub split: SettlementSplit,
}

impl SettleMsg {
    /// Encodes into a SETTLE frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(49);
        b.put_u64(self.rel);
        b.put_u64(self.tag);
        b.put_u8(self.serving.code());
        b.put_u64(self.charged);
        b.put_u64(self.split.home);
        b.put_u64(self.split.visited);
        b.put_u64(self.split.vendor);
        Frame::new(FrameKind::Settle, b.to_vec())
    }

    /// Decodes a SETTLE payload.
    pub fn decode(payload: &[u8]) -> Result<SettleMsg, &'static str> {
        if payload.len() != 49 {
            return Err("truncated SETTLE");
        }
        let mut b = Bytes::copy_from_slice(payload);
        let rel = b.get_u64();
        let tag = b.get_u64();
        let serving = Serving::from_code(b.get_u8()).ok_or("unknown serving code")?;
        Ok(SettleMsg {
            rel,
            tag,
            serving,
            charged: b.get_u64(),
            split: SettlementSplit {
                home: b.get_u64(),
                visited: b.get_u64(),
                vendor: b.get_u64(),
            },
        })
    }
}

/// What the server concluded about a submitted settlement split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleResult {
    /// `home + visited + vendor == charged`: the split conserves.
    Conserved = 0,
    /// The split does not sum to the charged volume.
    SplitMismatch = 1,
}

/// SETTLE_VERDICT payload: the conservation audit's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettleVerdictMsg {
    /// Relationship the settlement was submitted under.
    pub rel: u64,
    /// The client's correlation tag.
    pub tag: u64,
    /// The audit result.
    pub result: SettleResult,
}

impl SettleVerdictMsg {
    /// Encodes into a SETTLE_VERDICT frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(17);
        b.put_u64(self.rel);
        b.put_u64(self.tag);
        b.put_u8(self.result as u8);
        Frame::new(FrameKind::SettleVerdict, b.to_vec())
    }

    /// Decodes a SETTLE_VERDICT payload.
    pub fn decode(payload: &[u8]) -> Result<SettleVerdictMsg, &'static str> {
        if payload.len() != 17 {
            return Err("truncated SETTLE_VERDICT");
        }
        let mut b = Bytes::copy_from_slice(payload);
        let rel = b.get_u64();
        let tag = b.get_u64();
        let result = match b.get_u8() {
            0 => SettleResult::Conserved,
            1 => SettleResult::SplitMismatch,
            _ => return Err("unknown settlement result"),
        };
        Ok(SettleVerdictMsg { rel, tag, result })
    }
}

/// ERROR payload: session- and service-level failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Mirrors [`ServiceError::ShardDown`](crate::verify::service::ServiceError::ShardDown).
    ShardDown {
        /// Index of the unreachable shard.
        shard: u32,
    },
    /// Mirrors [`ServiceError::ResultsClosed`](crate::verify::service::ServiceError::ResultsClosed).
    ResultsClosed {
        /// Submissions that will never produce a result.
        outstanding: u32,
    },
    /// Mirrors [`ServiceError::UnknownRelationship`](crate::verify::service::ServiceError::UnknownRelationship).
    UnknownRelationship(u64),
    /// The server speaks a different protocol version.
    BadVersion {
        /// The server's version.
        server: u16,
    },
    /// The peer broke the session protocol; the connection closes.
    Protocol(&'static str),
    /// The server is shutting down.
    Shutdown,
}

impl Fault {
    /// Encodes into an ERROR frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = BytesMut::with_capacity(12);
        match self {
            Fault::ShardDown { shard } => {
                b.put_u8(0);
                b.put_u32(*shard);
            }
            Fault::ResultsClosed { outstanding } => {
                b.put_u8(1);
                b.put_u32(*outstanding);
            }
            Fault::UnknownRelationship(rel) => {
                b.put_u8(2);
                b.put_u64(*rel);
            }
            Fault::BadVersion { server } => {
                b.put_u8(3);
                b.put_u16(*server);
            }
            Fault::Protocol(detail) => {
                b.put_u8(4);
                b.put_u16(intern(PROTOCOL_STRINGS, detail));
            }
            Fault::Shutdown => b.put_u8(5),
        }
        Frame::new(FrameKind::Error, b.to_vec())
    }

    /// Decodes an ERROR payload.
    pub fn decode(payload: &[u8]) -> Result<Fault, &'static str> {
        let mut b = Bytes::copy_from_slice(payload);
        if !b.has_remaining() {
            return Err("truncated ERROR");
        }
        match b.get_u8() {
            0 => {
                if b.remaining() < 4 {
                    return Err("truncated ERROR");
                }
                Ok(Fault::ShardDown { shard: b.get_u32() })
            }
            1 => {
                if b.remaining() < 4 {
                    return Err("truncated ERROR");
                }
                Ok(Fault::ResultsClosed {
                    outstanding: b.get_u32(),
                })
            }
            2 => {
                if b.remaining() < 8 {
                    return Err("truncated ERROR");
                }
                Ok(Fault::UnknownRelationship(b.get_u64()))
            }
            3 => {
                if b.remaining() < 2 {
                    return Err("truncated ERROR");
                }
                Ok(Fault::BadVersion {
                    server: b.get_u16(),
                })
            }
            4 => {
                if b.remaining() < 2 {
                    return Err("truncated ERROR");
                }
                let idx = b.get_u16();
                Ok(Fault::Protocol(resolve(
                    PROTOCOL_STRINGS,
                    idx,
                    PROTOCOL_FALLBACK,
                )))
            }
            5 => Ok(Fault::Shutdown),
            _ => Err("unknown error code"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::service::ServiceError;

    #[test]
    fn every_verify_error_round_trips() {
        let samples: Vec<Result<Verdict, VerifyError>> = vec![
            Ok(Verdict {
                charge: 1,
                edge_claim: 2,
                operator_claim: 3,
                rounds: 4,
            }),
            Err(VerifyError::Signature(MessageError::BadSignature)),
            Err(VerifyError::Signature(MessageError::Malformed(
                "CDA role matches finalizer",
            ))),
            Err(VerifyError::Signature(MessageError::Crypto(
                CryptoError::SignatureLength {
                    expected: 128,
                    got: 96,
                },
            ))),
            Err(VerifyError::Signature(MessageError::Crypto(
                CryptoError::Encoding("EME header"),
            ))),
            Err(VerifyError::PlanMismatch),
            Err(VerifyError::NonceMismatch),
            Err(VerifyError::SequenceMismatch),
            Err(VerifyError::ChargeMismatch {
                claimed: 7,
                expected: 9,
            }),
            Err(VerifyError::Replayed),
            Err(VerifyError::Unregistered),
        ];
        for result in samples {
            let msg = VerdictMsg {
                rel: 3,
                tag: 42,
                shard: 1,
                result: result.clone(),
            };
            let frame = msg.to_frame();
            let back = VerdictMsg::decode(&frame.payload).unwrap();
            assert_eq!(back.result, result);
            assert_eq!((back.rel, back.tag, back.shard), (3, 42, 1));
        }
    }

    #[test]
    fn unknown_string_index_resolves_to_fallback() {
        // A server newer than this client may intern strings we don't
        // know; the decode must stay total.
        let mut b = BytesMut::new();
        b.put_u8(1); // Signature
        b.put_u8(1); // Malformed
        b.put_u16(u16::MAX);
        let mut bytes = Bytes::copy_from_slice(&b.to_vec());
        let got = get_verify_result(&mut bytes).unwrap();
        assert_eq!(
            got,
            Err(VerifyError::Signature(MessageError::Malformed(
                MALFORMED_FALLBACK
            )))
        );
    }

    #[test]
    fn fault_round_trips() {
        let faults = [
            Fault::ShardDown { shard: 2 },
            Fault::ResultsClosed { outstanding: 17 },
            Fault::UnknownRelationship(5),
            Fault::BadVersion { server: 9 },
            Fault::Protocol("bad magic"),
            Fault::Shutdown,
        ];
        for f in faults {
            let frame = f.to_frame();
            assert_eq!(frame.kind, FrameKind::Error);
            assert_eq!(Fault::decode(&frame.payload), Ok(f));
        }
    }

    #[test]
    fn protocol_strings_cover_every_server_detail() {
        // Each &'static str the server or codec can put in a
        // Fault::Protocol must intern, or clients would see only the
        // fallback. This test keeps the table honest.
        for s in PROTOCOL_STRINGS {
            assert_ne!(intern(PROTOCOL_STRINGS, s), u16::MAX);
        }
        // ServiceError is a distinct surface; Fault codes 0..=2 mirror
        // the first three variants and BUSY frames carry Overloaded.
        let _exhaustive = |e: ServiceError| match e {
            ServiceError::ShardDown { .. }
            | ServiceError::ResultsClosed { .. }
            | ServiceError::UnknownRelationship(_)
            | ServiceError::Overloaded { .. } => {}
        };
    }

    #[test]
    fn busy_round_trips_and_rejects_garbage() {
        for msg in [
            BusyMsg {
                scope: BusyScope::Connection,
                retry_after_ms: 200,
                rel: 0,
                tag: 0,
            },
            BusyMsg {
                scope: BusyScope::Submit,
                retry_after_ms: 50,
                rel: 7,
                tag: 0xDEAD_BEEF,
            },
        ] {
            let frame = msg.to_frame();
            assert_eq!(frame.kind, FrameKind::Busy);
            assert_eq!(frame.payload.len(), 21);
            assert_eq!(BusyMsg::decode(&frame.payload), Ok(msg));
        }
        assert_eq!(BusyMsg::decode(&[1, 0, 0]), Err("truncated BUSY"));
        let mut bad = BusyMsg {
            scope: BusyScope::Submit,
            retry_after_ms: 1,
            rel: 1,
            tag: 1,
        }
        .to_frame()
        .payload;
        bad[0] = 9;
        assert_eq!(BusyMsg::decode(&bad), Err("unknown BUSY scope"));
    }

    #[test]
    fn settle_round_trips_and_rejects_garbage() {
        for msg in [
            SettleMsg {
                rel: 7,
                tag: 99,
                serving: Serving::Home,
                charged: 1000,
                split: SettlementSplit {
                    home: 800,
                    visited: 0,
                    vendor: 200,
                },
            },
            SettleMsg {
                rel: u64::MAX,
                tag: 0,
                serving: Serving::Visited,
                charged: u64::MAX,
                split: SettlementSplit {
                    home: 1,
                    visited: 2,
                    vendor: 3,
                },
            },
        ] {
            let frame = msg.to_frame();
            assert_eq!(frame.kind, FrameKind::Settle);
            assert_eq!(frame.payload.len(), 49);
            assert_eq!(SettleMsg::decode(&frame.payload), Ok(msg));
        }
        // Truncation at every prefix length.
        let whole = SettleMsg {
            rel: 1,
            tag: 2,
            serving: Serving::Home,
            charged: 3,
            split: SettlementSplit::ZERO,
        }
        .to_frame()
        .payload;
        for cut in 0..whole.len() {
            assert_eq!(
                SettleMsg::decode(&whole[..cut]),
                Err("truncated SETTLE"),
                "cut {cut}"
            );
        }
        // Trailing bytes are a truncation-class violation too.
        let mut long = whole.clone();
        long.push(0);
        assert_eq!(SettleMsg::decode(&long), Err("truncated SETTLE"));
        // Unknown serving code.
        let mut bad = whole;
        bad[16] = 2;
        assert_eq!(SettleMsg::decode(&bad), Err("unknown serving code"));
    }

    #[test]
    fn settle_verdict_round_trips_and_rejects_garbage() {
        for result in [SettleResult::Conserved, SettleResult::SplitMismatch] {
            let msg = SettleVerdictMsg {
                rel: 5,
                tag: 77,
                result,
            };
            let frame = msg.to_frame();
            assert_eq!(frame.kind, FrameKind::SettleVerdict);
            assert_eq!(frame.payload.len(), 17);
            assert_eq!(SettleVerdictMsg::decode(&frame.payload), Ok(msg));
        }
        assert_eq!(
            SettleVerdictMsg::decode(&[0; 5]),
            Err("truncated SETTLE_VERDICT")
        );
        let mut bad = SettleVerdictMsg {
            rel: 1,
            tag: 1,
            result: SettleResult::Conserved,
        }
        .to_frame()
        .payload;
        bad[16] = 7;
        assert_eq!(
            SettleVerdictMsg::decode(&bad),
            Err("unknown settlement result")
        );
    }

    #[test]
    fn stats_snapshot_round_trips_all_sixteen_fields() {
        let s = StatsSnapshot {
            connections: 1,
            connections_closed: 2,
            open_connections: 3,
            registers: 4,
            submissions: 5,
            verdicts: 6,
            accepted: 7,
            rejected_malformed: 8,
            orphaned_verdicts: 9,
            protocol_errors: 10,
            pauses: 11,
            service_outstanding: 12,
            shed_overload: 13,
            shed_connections: 14,
            quarantines: 15,
            misbehavior_closes: 16,
        };
        let frame = s.to_frame(FrameKind::Stats);
        assert_eq!(frame.payload.len(), 8 * 16);
        assert_eq!(StatsSnapshot::decode(&frame.payload), Ok(s));
        assert_eq!(
            StatsSnapshot::decode(&frame.payload[..8 * 12]),
            Err("truncated STATS")
        );
    }

    #[test]
    fn prometheus_dump_names_every_field() {
        let s = StatsSnapshot {
            shed_overload: 3,
            ..StatsSnapshot::default()
        };
        let mut out = String::new();
        s.to_prometheus(&mut out);
        assert!(out.contains("tlc_ingress_shed_overload_total 3\n"));
        assert!(out.contains("# TYPE tlc_ingress_open_connections gauge"));
        // One TYPE line and one sample line per field.
        assert_eq!(out.lines().count(), 2 * 16);
    }
}
