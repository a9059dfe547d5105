//! Length-prefixed binary framing for the verifier ingress (DESIGN.md §10).
//!
//! The public-verification service (tlc-core's `verify::service`) becomes
//! network-reachable through a minimal, dependency-free wire protocol:
//! every message is one *frame*,
//!
//! ```text
//! frame := kind:u8 | len:u32 (big-endian) | payload[len]
//! ```
//!
//! This module owns the *envelope* only — the fifteen frame kinds, their
//! tag bytes, and one framing grammar ([`split_frame`]) with a hard
//! payload cap enforced from the header alone. Payload grammars (what the bytes of
//! a `REGISTER` or `VERDICT` mean) belong to the protocol layer in
//! `tlc-core::verify::remote`, which keeps this crate free of any
//! dependency on the charging types.
//!
//! Decoding is adversary-facing (the ingress listens on a public socket),
//! so the decoder never panics, never holds more than [`HEADER_LEN`]
//! plus its payload cap in bytes of a partial
//! frame between calls, and turns every malformed input into a typed
//! [`WireError`].
//! After an error the decoder is *poisoned*: the byte stream has lost
//! framing and cannot be resynchronised, so the connection must be torn
//! down.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use std::collections::VecDeque;

/// Bytes in a frame header: 1 kind byte + 4 length bytes.
pub const HEADER_LEN: usize = 5;

/// Default cap on a frame payload (256 KiB): comfortably above the
/// largest legitimate frame (a `SUBMIT_BATCH` of 256 ~800-byte PoCs) and
/// small enough that a hostile peer cannot balloon per-connection memory.
pub const DEFAULT_MAX_PAYLOAD: u32 = 256 * 1024;

/// Frame type tags of the verifier-ingress protocol.
///
/// The discriminants are the on-the-wire kind bytes and are part of the
/// frozen wire format (pinned by the golden-frame conformance tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: protocol magic, version, requested window.
    Hello = 1,
    /// Server → client: accepted version, granted window, payload cap.
    HelloAck = 2,
    /// Client → server: register a (plan, edge key, operator key)
    /// relationship.
    Register = 3,
    /// Server → client: the relationship id a `REGISTER` was issued.
    Registered = 4,
    /// Client → server: one PoC for verification under a relationship.
    Submit = 5,
    /// Client → server: a batch of PoCs under one relationship.
    SubmitBatch = 6,
    /// Server → client: one verification result, streamed as the service
    /// produces it.
    Verdict = 7,
    /// Client → server: request a service statistics snapshot.
    StatsReq = 8,
    /// Server → client: the statistics snapshot.
    Stats = 9,
    /// Server → client: a typed failure (service error, protocol fault).
    Error = 10,
    /// Client → server: drain my outstanding verdicts, then close.
    Goodbye = 11,
    /// Server → client: all verdicts delivered; closing now.
    GoodbyeAck = 12,
    /// Server → client: overload notice — the submission (or the whole
    /// connection) was shed by admission control; retry after the
    /// carried delay. Never a silent drop.
    Busy = 13,
    /// Client → server: a three-party roaming settlement record
    /// (home/visited/vendor split of a charged volume) for audit.
    Settle = 14,
    /// Server → client: the settlement's conservation verdict.
    SettleVerdict = 15,
}

impl FrameKind {
    /// Every frame kind, in tag order (fixture tests iterate this).
    pub const ALL: [FrameKind; 15] = [
        FrameKind::Hello,
        FrameKind::HelloAck,
        FrameKind::Register,
        FrameKind::Registered,
        FrameKind::Submit,
        FrameKind::SubmitBatch,
        FrameKind::Verdict,
        FrameKind::StatsReq,
        FrameKind::Stats,
        FrameKind::Error,
        FrameKind::Goodbye,
        FrameKind::GoodbyeAck,
        FrameKind::Busy,
        FrameKind::Settle,
        FrameKind::SettleVerdict,
    ];

    /// The wire tag byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        Self::ALL.get(b.wrapping_sub(1) as usize).copied()
    }
}

/// Typed framing failures. Every adversarial input maps to one of these;
/// the codec has no panicking path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The length prefix exceeds the decoder's payload cap. Raised from
    /// the 5-byte header alone, before any payload is buffered.
    Oversize {
        /// Length the peer declared.
        len: u32,
        /// The configured cap.
        max: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownKind(b) => write!(f, "unknown frame kind byte 0x{b:02x}"),
            WireError::Oversize { len, max } => {
                write!(f, "frame payload length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded (or to-be-encoded) frame: a kind plus an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// Payload bytes; their grammar is the protocol layer's business.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Frame {
        Frame { kind, payload }
    }

    /// Encoded size on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN.saturating_add(self.payload.len())
    }

    /// Serialises the frame, appending to `out`. Fails (without writing)
    /// if the payload cannot be length-prefixed in a `u32`.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.reserve(self.wire_len());
        encode_with(self.kind, out, |out| out.extend_from_slice(&self.payload))
    }

    /// Serialises the frame to a fresh buffer.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out)?;
        Ok(out)
    }
}

/// Appends one frame to `out` whose payload `put` writes in place
/// behind the envelope header — the one place the five header bytes
/// are written. `put` may only append. If what it appended cannot be
/// length-prefixed in a `u32`, `out` is cut back to the length it had
/// on entry and nothing of the frame remains.
pub fn encode_with(
    kind: FrameKind,
    out: &mut Vec<u8>,
    put: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    encode_capped(kind, u32::MAX, out, put)
}

/// [`encode_with`] against an explicit payload cap (the unit tests
/// cannot append 4 GiB to watch `u32::MAX` refuse it).
fn encode_capped(
    kind: FrameKind,
    max: u32,
    out: &mut Vec<u8>,
    put: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&[kind.as_u8(), 0, 0, 0, 0]);
    let body = out.len();
    put(out);
    let n = out.len().saturating_sub(body);
    let len = u32::try_from(n).unwrap_or(u32::MAX);
    match out.get_mut(start.saturating_add(1)..body) {
        Some(field) if n as u64 <= u64::from(max) => {
            field.copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        _ => {
            out.truncate(start);
            Err(WireError::Oversize { len, max })
        }
    }
}

/// A streaming frame decoder: feed it byte chunks of any size (including
/// frames split across reads), pop completed frames. It is a buffer
/// over [`split_frame`], so there is one framing grammar.
///
/// Memory is bounded by construction: between calls the buffer holds
/// less than one frame (at most `HEADER_LEN + max_payload` bytes);
/// during a call, that plus the caller's chunk.
/// Completed frames queue in arrival order until drained with
/// [`next_frame`](Self::next_frame); callers bound that queue by bounding
/// how many bytes they feed per call.
pub struct FrameDecoder {
    max_payload: u32,
    /// Bytes received that do not yet make a frame.
    buf: Vec<u8>,
    done: VecDeque<Frame>,
    poison: Option<WireError>,
}

impl FrameDecoder {
    /// A decoder enforcing the given payload cap.
    pub fn new(max_payload: u32) -> FrameDecoder {
        FrameDecoder {
            max_payload,
            buf: Vec::new(),
            done: VecDeque::new(),
            poison: None,
        }
    }

    /// Bytes currently buffered for the in-progress frame (header +
    /// partial payload). Always ≤ `HEADER_LEN + max_payload`.
    pub fn partial_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The error that poisoned this decoder, if any. Frames completed
    /// before the poisoning byte remain poppable.
    pub fn poisoned(&self) -> Option<WireError> {
        self.poison
    }

    /// Pops the next completed frame, in arrival order.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.done.pop_front()
    }

    /// Consumes a chunk of stream bytes. On a framing violation the
    /// decoder poisons itself (dropping the bytes it can no longer
    /// frame) and every subsequent call returns the same error; the
    /// connection should be closed.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if let Some(e) = self.poison {
            return Err(e);
        }
        self.buf.extend_from_slice(bytes);
        let mut off = 0;
        loop {
            match split_frame(&self.buf[off..], self.max_payload) {
                Ok(Some((view, used))) => {
                    self.done.push_back(view.to_owned());
                    off = off.saturating_add(used);
                }
                Ok(None) => {
                    self.buf.drain(..off);
                    return Ok(());
                }
                Err(e) => {
                    self.poison = Some(e);
                    self.buf.clear();
                    return Err(e);
                }
            }
        }
    }
}

/// A decoded frame *view*: the kind plus a payload slice borrowed from
/// the read buffer it arrived in. The zero-copy twin of [`Frame`] —
/// the readiness ingress parses pooled read buffers with
/// [`split_frame`] and hands these borrows straight to the payload
/// codec, so a PoC is never copied between socket and verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// The frame type.
    pub kind: FrameKind,
    /// Payload bytes, borrowed from the caller's buffer.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// Copies the view into an owned [`Frame`].
    pub fn to_owned(self) -> Frame {
        Frame::new(self.kind, self.payload.to_vec())
    }
}

/// Attempts to split one frame off the front of `buf` without copying.
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; `consumed` bytes
///   (header + payload) belong to it and the caller advances past them.
/// * `Ok(None)` — `buf` holds only a partial frame; read more bytes.
/// * `Err(_)` — framing violation: a bad kind byte is rejected the
///   moment it is visible (even with the length word missing), an
///   over-cap length from the 5-byte header alone.
///   [`FrameDecoder::push`] decides with this function, chunk by chunk;
///   `tests/prop_wire.rs` checks the two agree however a stream is cut.
pub fn split_frame(
    buf: &[u8],
    max_payload: u32,
) -> Result<Option<(FrameRef<'_>, usize)>, WireError> {
    let Some(&kind_byte) = buf.first() else {
        return Ok(None);
    };
    let Some(kind) = FrameKind::from_u8(kind_byte) else {
        return Err(WireError::UnknownKind(kind_byte));
    };
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    if len > max_payload {
        return Err(WireError::Oversize {
            len,
            max: max_payload,
        });
    }
    let Some(total) = HEADER_LEN.checked_add(len as usize) else {
        return Err(WireError::Oversize {
            len,
            max: max_payload,
        });
    };
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        FrameRef {
            kind,
            payload: &buf[HEADER_LEN..total],
        },
        total,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bytes_roundtrip() {
        for k in FrameKind::ALL {
            assert_eq!(FrameKind::from_u8(k.as_u8()), Some(k));
        }
        assert_eq!(FrameKind::from_u8(0), None);
        assert_eq!(FrameKind::from_u8(16), None);
        assert_eq!(FrameKind::from_u8(0xFF), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = Frame::new(FrameKind::Submit, vec![1, 2, 3, 4, 5]);
        let bytes = f.encode().unwrap();
        assert_eq!(bytes.len(), f.wire_len());
        let mut d = FrameDecoder::new(1024);
        d.push(&bytes).unwrap();
        assert_eq!(d.next_frame(), Some(f));
        assert_eq!(d.next_frame(), None);
        assert_eq!(d.partial_bytes(), 0);
    }

    #[test]
    fn oversize_put_leaves_out_as_it_found_it() {
        let mut out = vec![0xAA, 0xBB];
        let nine = |out: &mut Vec<u8>| out.extend_from_slice(&[7; 9]);
        assert_eq!(
            encode_capped(FrameKind::Submit, 8, &mut out, nine),
            Err(WireError::Oversize { len: 9, max: 8 })
        );
        assert_eq!(out, [0xAA, 0xBB]);
        // One byte less fits, behind whatever `out` already held.
        encode_capped(FrameKind::Submit, 8, &mut out, |out| {
            out.extend_from_slice(&[7; 8])
        })
        .unwrap();
        assert_eq!(out[..2], [0xAA, 0xBB]);
        assert_eq!(
            out[2..],
            Frame::new(FrameKind::Submit, vec![7; 8]).encode().unwrap()
        );
    }

    #[test]
    fn split_across_pushes() {
        let f = Frame::new(FrameKind::Verdict, (0..100u8).collect());
        let bytes = f.encode().unwrap();
        for split in 1..bytes.len() {
            let mut d = FrameDecoder::new(1024);
            d.push(&bytes[..split]).unwrap();
            d.push(&bytes[split..]).unwrap();
            assert_eq!(d.next_frame().as_ref(), Some(&f), "split at {split}");
        }
    }

    #[test]
    fn zero_length_and_coalesced_frames() {
        let a = Frame::new(FrameKind::StatsReq, Vec::new());
        let b = Frame::new(FrameKind::Goodbye, Vec::new());
        let mut bytes = a.encode().unwrap();
        bytes.extend(b.encode().unwrap());
        let mut d = FrameDecoder::new(16);
        d.push(&bytes).unwrap();
        assert_eq!(d.next_frame(), Some(a));
        assert_eq!(d.next_frame(), Some(b));
        assert_eq!(d.next_frame(), None);
    }

    #[test]
    fn oversize_rejected_from_header_alone() {
        let mut d = FrameDecoder::new(8);
        // Header declares 9 bytes: rejected before any payload arrives.
        let hdr = [FrameKind::Hello.as_u8(), 0, 0, 0, 9];
        assert_eq!(d.push(&hdr), Err(WireError::Oversize { len: 9, max: 8 }));
        assert!(d.poisoned().is_some());
        // Poisoned: same error forever.
        assert_eq!(d.push(&[0]), Err(WireError::Oversize { len: 9, max: 8 }));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut d = FrameDecoder::new(8);
        assert_eq!(d.push(&[0x7F]), Err(WireError::UnknownKind(0x7F)));
    }

    #[test]
    fn split_frame_matches_decoder() {
        // Complete frame: same bytes, same kind/payload, exact consume.
        let f = Frame::new(FrameKind::Submit, (0..50u8).collect());
        let mut bytes = f.encode().unwrap();
        bytes.extend_from_slice(b"trailing");
        let (view, used) = split_frame(&bytes, 1024).unwrap().expect("complete");
        assert_eq!(view.kind, f.kind);
        assert_eq!(view.payload, &f.payload[..]);
        assert_eq!(used, f.wire_len());
        assert_eq!(view.to_owned(), f);

        // Every partial prefix: needs more bytes, never an error.
        let whole = f.encode().unwrap();
        for cut in 1..whole.len() {
            assert_eq!(split_frame(&whole[..cut], 1024).unwrap(), None, "cut {cut}");
        }

        // Bad kind byte: rejected from the first byte, like the decoder.
        assert_eq!(
            split_frame(&[0xEE], 1024),
            Err(WireError::UnknownKind(0xEE))
        );

        // Oversize: rejected from the header alone.
        let hdr = [FrameKind::Hello.as_u8(), 0, 0, 0, 9];
        assert_eq!(
            split_frame(&hdr, 8),
            Err(WireError::Oversize { len: 9, max: 8 })
        );
        // The largest length word under the largest cap: more bytes to
        // come, not an overflowing frame end.
        let hdr = [FrameKind::Submit.as_u8(), 0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(split_frame(&hdr, u32::MAX).unwrap(), None);

        // Empty and zero-length cases.
        assert_eq!(split_frame(&[], 8).unwrap(), None);
        let empty = Frame::new(FrameKind::StatsReq, Vec::new())
            .encode()
            .unwrap();
        let (view, used) = split_frame(&empty, 8).unwrap().expect("zero-len frame");
        assert_eq!(used, HEADER_LEN);
        assert!(view.payload.is_empty());
    }

    #[test]
    fn frames_before_poison_survive() {
        let good = Frame::new(FrameKind::Hello, vec![9]);
        let mut bytes = good.encode().unwrap();
        bytes.push(0xEE); // bad kind byte right after
        let mut d = FrameDecoder::new(16);
        assert!(d.push(&bytes).is_err());
        assert_eq!(d.next_frame(), Some(good));
    }
}
