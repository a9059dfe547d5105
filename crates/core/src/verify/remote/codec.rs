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
//! Every kind rejects trailing bytes: a payload decodes only if the
//! grammar consumes all of it, so one value has one byte string. The
//! seven fixed-width kinds (HELLO, HELLO_ACK, REGISTERED, STATS, BUSY,
//! SETTLE, SETTLE_VERDICT) are declared once each through `flat_kind!`,
//! which derives encoder, decoder and length from the field list.
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

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::messages::{get_plan, put_plan, MessageError};
use crate::plan::DataPlan;
use crate::roaming::{Serving, SettlementSplit};
use crate::verify::{Verdict, VerifyError};
use tlc_crypto::encoding::{
    decode_public_key, encode_public_key, put_u16, put_u32, put_u64, Reader,
};
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
/// Append-only: indexes are wire format. No code produces entries 0–5
/// ("EME header" through "session key length"); they hold their slots
/// so that every later index keeps naming the same string.
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
        .and_then(|i| u16::try_from(i).ok())
        .unwrap_or(u16::MAX)
}

fn resolve(table: &'static [&'static str], idx: u16, fallback: &'static str) -> &'static str {
    table.get(idx as usize).copied().unwrap_or(fallback)
}

/// One fixed-width field of a flat payload.
trait Field: Sized {
    /// Bytes on the wire.
    const LEN: usize;

    fn put(&self, out: &mut Vec<u8>);

    /// `None` when the payload ends first; `Some(Err(_))` when the bytes
    /// are there but name no value of this type.
    fn get(r: &mut Reader<'_>) -> Option<Result<Self, &'static str>>;
}

macro_rules! int_field {
    ($($int:ident)+) => {$(
        impl Field for $int {
            const LEN: usize = std::mem::size_of::<$int>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Option<Result<Self, &'static str>> {
                r.$int().map(Ok)
            }
        }
    )+};
}

int_field!(u16 u32 u64);

/// Declares a flat payload: a struct whose `pub` fields, in wire order,
/// are the whole grammar. The length, the encoder (`to_frame` when a
/// frame kind is named) and `decode` all derive from that one list.
/// `decode` reports any other payload length as `$truncated` before it
/// looks at a value.
macro_rules! flat_kind {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(as $kind:ident)?, $truncated:literal {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }

        impl $name {
            const LEN: usize = 0 $(+ <$ty as Field>::LEN)+;

            fn payload(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(Self::LEN);
                $(self.$field.put(&mut out);)+
                out
            }

            $(
                /// Encodes into a frame of this payload's kind.
                pub fn to_frame(&self) -> Frame {
                    Frame::new(FrameKind::$kind, self.payload())
                }
            )?

            /// Decodes a payload; anything but exactly the grammar's
            /// length is a truncation.
            pub fn decode(payload: &[u8]) -> Result<$name, &'static str> {
                let mut r = Reader::new(payload);
                $(let $field = <$ty as Field>::get(&mut r).ok_or($truncated)?;)+
                r.finish().ok_or($truncated)?;
                Ok($name { $($field: $field?,)+ })
            }
        }
    };
}

/// A [`flat_kind!`] payload whose every field is a `u64` count: the one
/// field list also names the counts and sums them, so a field added to
/// the grammar cannot be missing from a merge or a rendering.
macro_rules! flat_counts {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, $truncated:literal {
            $($(#[$fmeta:meta])* pub $field:ident: u64,)+
        }
    ) => {
        flat_kind! {
            $(#[$meta])*
            pub struct $name, $truncated {
                $($(#[$fmeta])* pub $field: u64,)+
            }
        }

        impl $name {
            /// Every count under its field name, in wire order.
            pub(crate) fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)+].into_iter()
            }

            /// Adds `other`'s counts to this one's, field by field.
            pub(crate) fn add(&mut self, other: &$name) {
                $(self.$field = self.$field.saturating_add(other.$field);)+
            }
        }
    };
}

/// Appends a `u32`-length-prefixed byte string (a key or a PoC).
fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).unwrap_or(u32::MAX));
    out.extend_from_slice(bytes);
}

/// Reads what [`put_blob`] wrote, borrowed from the payload.
fn get_blob<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.u32()?;
    r.take(len as usize)
}

flat_kind! {
    /// HELLO payload: the client's opening.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Hello as Hello, "truncated HELLO" {
        /// Must be [`MAGIC`].
        pub magic: u32,
        /// Client protocol version.
        pub version: u16,
        /// Requested in-flight window; 0 asks for the server default.
        pub window: u32,
    }
}

flat_kind! {
    /// HELLO_ACK payload: the server's session grant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct HelloAck as HelloAck, "truncated HELLO_ACK" {
        /// Server protocol version.
        pub version: u16,
        /// Granted in-flight window (at least 1).
        pub window: u32,
        /// Largest frame payload the server accepts.
        pub max_payload: u32,
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
        let mut b = Vec::with_capacity(ek.len().saturating_add(ok.len()).saturating_add(40));
        put_u32(&mut b, self.req);
        put_u64(&mut b, self.capacity);
        put_plan(&mut b, &self.plan);
        put_blob(&mut b, &ek);
        put_blob(&mut b, &ok);
        Frame::new(FrameKind::Register, b)
    }

    /// Decodes a REGISTER payload.
    pub fn decode(payload: &[u8]) -> Result<Register, &'static str> {
        const CUT: &str = "truncated REGISTER";
        fn get_key(r: &mut Reader<'_>) -> Result<PublicKey, &'static str> {
            decode_public_key(get_blob(r).ok_or(CUT)?).map_err(|_| "bad key in REGISTER")
        }
        let mut r = Reader::new(payload);
        let msg = Register {
            req: r.u32().ok_or(CUT)?,
            capacity: r.u64().ok_or(CUT)?,
            plan: get_plan(&mut r).map_err(|_| "bad plan in REGISTER")?,
            edge_key: get_key(&mut r)?,
            operator_key: get_key(&mut r)?,
        };
        r.finish().ok_or(CUT)?;
        Ok(msg)
    }
}

flat_kind! {
    /// REGISTERED payload: the relationship id grant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Registered as Registered, "truncated REGISTERED" {
        /// Echo of the client's request id.
        pub req: u32,
        /// The issued relationship id.
        pub rel: u64,
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
        let mut b = Vec::new();
        put_submit(&mut b, self.rel, self.tag, &self.poc);
        Frame::new(FrameKind::Submit, b)
    }
}

/// Appends a SUBMIT payload — what [`SubmitRef::decode`] reads back. The
/// client writes the PoC bytes it keeps for retries straight through
/// this, without building a [`Submit`].
pub(super) fn put_submit(out: &mut Vec<u8>, rel: u64, tag: u64, poc: &[u8]) {
    out.reserve(poc.len().saturating_add(20));
    put_u64(out, rel);
    put_u64(out, tag);
    put_blob(out, poc);
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
        const CUT: &str = "truncated SUBMIT";
        let mut r = Reader::new(payload);
        let msg = SubmitRef {
            rel: r.u64().ok_or(CUT)?,
            tag: r.u64().ok_or(CUT)?,
            poc: get_blob(&mut r).ok_or(CUT)?,
        };
        r.finish().ok_or(CUT)?;
        Ok(msg)
    }
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
        let mut b = Vec::new();
        put_submit_batch(&mut b, self.rel, self.first_tag, &self.pocs);
        Frame::new(FrameKind::SubmitBatch, b)
    }
}

/// Appends a SUBMIT_BATCH payload — what [`SubmitBatchRef::decode`]
/// reads back; the client's counterpart of [`put_submit`].
pub(super) fn put_submit_batch(out: &mut Vec<u8>, rel: u64, first_tag: u64, pocs: &[Vec<u8>]) {
    out.reserve(
        pocs.iter()
            .map(|p| p.len().saturating_add(4))
            .fold(20, usize::saturating_add),
    );
    put_u64(out, rel);
    put_u64(out, first_tag);
    put_u32(out, u32::try_from(pocs.len()).unwrap_or(u32::MAX));
    for poc in pocs {
        put_blob(out, poc);
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
        const CUT: &str = "truncated SUBMIT_BATCH";
        let mut r = Reader::new(payload);
        let rel = r.u64().ok_or(CUT)?;
        let first_tag = r.u64().ok_or(CUT)?;
        let count = r.u32().ok_or(CUT)? as usize;
        // Each item needs at least its 4-byte length prefix, so a
        // hostile `count` cannot reserve more than the (already capped)
        // frame could hold.
        let mut pocs = Vec::with_capacity(count.min(payload.len() / 4));
        for _ in 0..count {
            pocs.push(get_blob(&mut r).ok_or(CUT)?);
        }
        r.finish().ok_or(CUT)?;
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

/// What every short read inside a VERDICT payload reports.
const VERDICT_CUT: &str = "truncated VERDICT";

impl VerdictMsg {
    /// Encodes into a VERDICT frame.
    pub fn to_frame(&self) -> Frame {
        let mut b = Vec::with_capacity(64);
        put_verdict(&mut b, self.rel, self.tag, self.shard, &self.result);
        Frame::new(FrameKind::Verdict, b)
    }

    /// Decodes a VERDICT payload.
    pub fn decode(payload: &[u8]) -> Result<VerdictMsg, &'static str> {
        let mut r = Reader::new(payload);
        let msg = VerdictMsg {
            rel: r.u64().ok_or(VERDICT_CUT)?,
            tag: r.u64().ok_or(VERDICT_CUT)?,
            shard: r.u32().ok_or(VERDICT_CUT)?,
            result: get_verify_result(&mut r)?,
        };
        r.finish().ok_or(VERDICT_CUT)?;
        Ok(msg)
    }
}

/// Appends a VERDICT payload — what [`VerdictMsg::decode`] reads back.
/// The server writes each verdict through this straight into the
/// connection's outbox, without building a [`VerdictMsg`] frame.
pub(super) fn put_verdict(
    out: &mut Vec<u8>,
    rel: u64,
    tag: u64,
    shard: u32,
    result: &Result<Verdict, VerifyError>,
) {
    put_u64(out, rel);
    put_u64(out, tag);
    put_u32(out, shard);
    put_verify_result(out, result);
}

fn put_verify_result(b: &mut Vec<u8>, result: &Result<Verdict, VerifyError>) {
    match result {
        Ok(v) => {
            b.push(0);
            put_u64(b, v.charge);
            put_u64(b, v.edge_claim);
            put_u64(b, v.operator_claim);
            put_u64(b, v.rounds);
        }
        Err(VerifyError::Signature(m)) => {
            b.push(1);
            put_message_error(b, m);
        }
        Err(VerifyError::PlanMismatch) => b.push(2),
        Err(VerifyError::NonceMismatch) => b.push(3),
        Err(VerifyError::SequenceMismatch) => b.push(4),
        Err(VerifyError::ChargeMismatch { claimed, expected }) => {
            b.push(5);
            put_u64(b, *claimed);
            put_u64(b, *expected);
        }
        Err(VerifyError::Replayed) => b.push(6),
        Err(VerifyError::Unregistered) => b.push(7),
    }
}

fn get_verify_result(r: &mut Reader<'_>) -> Result<Result<Verdict, VerifyError>, &'static str> {
    Ok(match r.u8().ok_or(VERDICT_CUT)? {
        0 => Ok(Verdict {
            charge: r.u64().ok_or(VERDICT_CUT)?,
            edge_claim: r.u64().ok_or(VERDICT_CUT)?,
            operator_claim: r.u64().ok_or(VERDICT_CUT)?,
            rounds: r.u64().ok_or(VERDICT_CUT)?,
        }),
        1 => Err(VerifyError::Signature(get_message_error(r)?)),
        2 => Err(VerifyError::PlanMismatch),
        3 => Err(VerifyError::NonceMismatch),
        4 => Err(VerifyError::SequenceMismatch),
        5 => Err(VerifyError::ChargeMismatch {
            claimed: r.u64().ok_or(VERDICT_CUT)?,
            expected: r.u64().ok_or(VERDICT_CUT)?,
        }),
        6 => Err(VerifyError::Replayed),
        7 => Err(VerifyError::Unregistered),
        _ => return Err("unknown verdict code"),
    })
}

fn put_message_error(b: &mut Vec<u8>, m: &MessageError) {
    match m {
        MessageError::BadSignature => b.push(0),
        MessageError::Malformed(s) => {
            b.push(1);
            put_u16(b, intern(MALFORMED_STRINGS, s));
        }
        MessageError::Crypto(c) => {
            b.push(2);
            put_crypto_error(b, c);
        }
    }
}

fn get_message_error(r: &mut Reader<'_>) -> Result<MessageError, &'static str> {
    Ok(match r.u8().ok_or(VERDICT_CUT)? {
        0 => MessageError::BadSignature,
        1 => MessageError::Malformed(resolve(
            MALFORMED_STRINGS,
            r.u16().ok_or(VERDICT_CUT)?,
            MALFORMED_FALLBACK,
        )),
        2 => MessageError::Crypto(get_crypto_error(r)?),
        _ => return Err("unknown signature sub-code"),
    })
}

fn put_crypto_error(b: &mut Vec<u8>, c: &CryptoError) {
    match c {
        CryptoError::MessageTooLarge => b.push(0),
        CryptoError::InvalidKeySize(bits) => {
            b.push(1);
            put_u64(b, *bits as u64);
        }
        CryptoError::KeyTooSmallForDigest => b.push(2),
        CryptoError::SignatureLength { expected, got } => {
            b.push(3);
            put_u64(b, *expected as u64);
            put_u64(b, *got as u64);
        }
        CryptoError::BadSignature => b.push(4),
        CryptoError::Encoding(s) => {
            b.push(5);
            put_u16(b, intern(ENCODING_STRINGS, s));
        }
        CryptoError::Internal => b.push(6),
    }
}

/// A size sent as a `u64`, saturated to this host's `usize`.
fn get_size(r: &mut Reader<'_>) -> Result<usize, &'static str> {
    let size = r.u64().ok_or(VERDICT_CUT)?;
    Ok(usize::try_from(size).unwrap_or(usize::MAX))
}

fn get_crypto_error(r: &mut Reader<'_>) -> Result<CryptoError, &'static str> {
    Ok(match r.u8().ok_or(VERDICT_CUT)? {
        0 => CryptoError::MessageTooLarge,
        1 => CryptoError::InvalidKeySize(get_size(r)?),
        2 => CryptoError::KeyTooSmallForDigest,
        3 => CryptoError::SignatureLength {
            expected: get_size(r)?,
            got: get_size(r)?,
        },
        4 => CryptoError::BadSignature,
        5 => CryptoError::Encoding(resolve(
            ENCODING_STRINGS,
            r.u16().ok_or(VERDICT_CUT)?,
            ENCODING_FALLBACK,
        )),
        6 => CryptoError::Internal,
        _ => return Err("unknown crypto code"),
    })
}

flat_counts! {
    /// STATS payload: ingress counters. Also the type the server reports
    /// at shutdown (`IngressReport::ingress`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StatsSnapshot, "truncated STATS" {
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
}

impl StatsSnapshot {
    /// Encodes into a frame of the given kind (STATS).
    pub fn to_frame(&self, kind: FrameKind) -> Frame {
        Frame::new(kind, self.payload())
    }

    /// Renders the counters in Prometheus text exposition format.
    ///
    /// Counter names are prefixed `tlc_ingress_`; the two point-in-time
    /// values (`open_connections`, `service_outstanding`) are gauges.
    pub fn to_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        const GAUGES: [&str; 2] = ["open_connections", "service_outstanding"];
        // The counters, then the gauges, each in wire order.
        for (gauge, suffix, kind) in [(false, "_total", "counter"), (true, "", "gauge")] {
            for (name, v) in self.named().filter(|(n, _)| GAUGES.contains(n) == gauge) {
                let _ = writeln!(out, "# TYPE tlc_ingress_{name}{suffix} {kind}");
                let _ = writeln!(out, "tlc_ingress_{name}{suffix} {v}");
            }
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

impl Field for BusyScope {
    const LEN: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn get(r: &mut Reader<'_>) -> Option<Result<Self, &'static str>> {
        Some(match r.u8()? {
            0 => Ok(BusyScope::Connection),
            1 => Ok(BusyScope::Submit),
            _ => Err("unknown BUSY scope"),
        })
    }
}

flat_kind! {
    /// BUSY payload: typed load shedding — the overload answer that
    /// replaces a silent drop.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BusyMsg as Busy, "truncated BUSY" {
        /// What was shed.
        pub scope: BusyScope,
        /// Server's suggested backoff before retrying, in milliseconds.
        pub retry_after_ms: u32,
        /// Relationship of the shed submission (0 for Connection scope).
        pub rel: u64,
        /// Client tag of the shed submission (0 for Connection scope).
        pub tag: u64,
    }
}

impl Field for Serving {
    const LEN: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.code());
    }

    fn get(r: &mut Reader<'_>) -> Option<Result<Self, &'static str>> {
        Some(Serving::from_code(r.u8()?).ok_or("unknown serving code"))
    }
}

impl Field for SettlementSplit {
    const LEN: usize = 24;

    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.home);
        put_u64(out, self.visited);
        put_u64(out, self.vendor);
    }

    fn get(r: &mut Reader<'_>) -> Option<Result<Self, &'static str>> {
        Some(Ok(SettlementSplit {
            home: r.u64()?,
            visited: r.u64()?,
            vendor: r.u64()?,
        }))
    }
}

flat_kind! {
    /// SETTLE payload: a three-party roaming settlement record submitted
    /// for conservation audit (DESIGN §14). The server replays the
    /// conservation law `home + visited + vendor == charged` and answers
    /// with a SETTLE_VERDICT; a split that fails the law is the roaming
    /// analogue of a charge that does not replay.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SettleMsg as Settle, "truncated SETTLE" {
        /// Relationship id from REGISTERED.
        pub rel: u64,
        /// Client-chosen correlation tag, echoed in the SETTLE_VERDICT.
        pub tag: u64,
        /// Which operator served the settled volume.
        pub serving: Serving,
        /// The negotiated charging volume being split.
        pub charged: u64,
        /// The proposed three-party split (`home | visited | vendor`).
        pub split: SettlementSplit,
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

impl Field for SettleResult {
    const LEN: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn get(r: &mut Reader<'_>) -> Option<Result<Self, &'static str>> {
        Some(match r.u8()? {
            0 => Ok(SettleResult::Conserved),
            1 => Ok(SettleResult::SplitMismatch),
            _ => Err("unknown settlement result"),
        })
    }
}

flat_kind! {
    /// SETTLE_VERDICT payload: the conservation audit's answer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SettleVerdictMsg as SettleVerdict, "truncated SETTLE_VERDICT" {
        /// Relationship the settlement was submitted under.
        pub rel: u64,
        /// The client's correlation tag.
        pub tag: u64,
        /// The audit result.
        pub result: SettleResult,
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
        let mut b = Vec::with_capacity(9);
        match self {
            Fault::ShardDown { shard } => {
                b.push(0);
                put_u32(&mut b, *shard);
            }
            Fault::ResultsClosed { outstanding } => {
                b.push(1);
                put_u32(&mut b, *outstanding);
            }
            Fault::UnknownRelationship(rel) => {
                b.push(2);
                put_u64(&mut b, *rel);
            }
            Fault::BadVersion { server } => {
                b.push(3);
                put_u16(&mut b, *server);
            }
            Fault::Protocol(detail) => {
                b.push(4);
                put_u16(&mut b, intern(PROTOCOL_STRINGS, detail));
            }
            Fault::Shutdown => b.push(5),
        }
        Frame::new(FrameKind::Error, b)
    }

    /// Decodes an ERROR payload.
    pub fn decode(payload: &[u8]) -> Result<Fault, &'static str> {
        const CUT: &str = "truncated ERROR";
        let mut r = Reader::new(payload);
        let fault = match r.u8().ok_or(CUT)? {
            0 => Fault::ShardDown {
                shard: r.u32().ok_or(CUT)?,
            },
            1 => Fault::ResultsClosed {
                outstanding: r.u32().ok_or(CUT)?,
            },
            2 => Fault::UnknownRelationship(r.u64().ok_or(CUT)?),
            3 => Fault::BadVersion {
                server: r.u16().ok_or(CUT)?,
            },
            4 => Fault::Protocol(resolve(
                PROTOCOL_STRINGS,
                r.u16().ok_or(CUT)?,
                PROTOCOL_FALLBACK,
            )),
            5 => Fault::Shutdown,
            _ => return Err("unknown error code"),
        };
        r.finish().ok_or(CUT)?;
        Ok(fault)
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
        // Signature, Malformed, index u16::MAX.
        let got = get_verify_result(&mut Reader::new(&[1, 1, 0xFF, 0xFF])).unwrap();
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
            // No slack bytes after any variant's operands.
            let mut long = frame.payload;
            long.push(0);
            assert_eq!(Fault::decode(&long), Err("truncated ERROR"), "{f:?}");
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
            // Trailing bytes are a truncation-class violation too.
            let mut long = frame.payload;
            long.push(0);
            assert_eq!(BusyMsg::decode(&long), Err("truncated BUSY"));
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
