//! Adversarial decoder properties: the framing codec and the
//! connection driver must return typed errors (never panic) and keep
//! buffering bounded no matter how bytes are truncated, corrupted, or
//! split across reads.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use tlc_net::ingress::{ConnDriver, DriverError};
use tlc_net::wire::{Frame, FrameDecoder, FrameKind, WireError, HEADER_LEN};

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    (1u8..=15).prop_map(|b| FrameKind::from_u8(b).unwrap())
}

fn arb_frame(max_payload: usize) -> impl Strategy<Value = Frame> {
    (
        arb_kind(),
        proptest::collection::vec(0u8..=255, 0..=max_payload),
    )
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

/// Splits `bytes` into chunks at cut points derived from `cuts`.
fn chunked(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|i| i % (bytes.len() + 1)).collect();
    points.push(0);
    points.push(bytes.len());
    points.sort_unstable();
    points.dedup();
    points
        .windows(2)
        .map(|w| bytes[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any frame stream, split at arbitrary byte boundaries, decodes to
    /// exactly the original frames — and partial buffering never
    /// exceeds one frame's worth of bytes.
    #[test]
    fn split_across_reads_is_lossless(
        frames in proptest::collection::vec(arb_frame(200), 1..10),
        cuts in proptest::collection::vec(any::<usize>(), 0..20),
    ) {
        let max_payload = 256u32;
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend(f.encode().unwrap());
        }
        let mut d = FrameDecoder::new(max_payload);
        let mut got = Vec::new();
        for chunk in chunked(&stream, &cuts) {
            d.push(&chunk).unwrap();
            prop_assert!(d.partial_bytes() <= HEADER_LEN + max_payload as usize);
            while let Some(f) = d.next_frame() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
    }

    /// A length prefix over the cap is rejected from the header alone —
    /// before any payload allocation — and poisons the decoder with a
    /// typed error.
    #[test]
    fn oversized_length_prefix_rejected_before_payload(
        kind in arb_kind(),
        over in 1u32..1_000_000,
        max in 1u32..4096,
    ) {
        let len = max.saturating_add(over);
        let mut header = vec![kind.as_u8()];
        header.extend(len.to_be_bytes());
        let mut d = FrameDecoder::new(max);
        let got = d.push(&header);
        prop_assert_eq!(got, Err(WireError::Oversize { len, max }));
        prop_assert!(d.partial_bytes() <= HEADER_LEN);
        // Poisoned permanently: later pushes keep failing typed.
        prop_assert!(d.push(&[0, 0]).is_err());
    }

    /// Arbitrary garbage never panics the decoder: every outcome is
    /// either decoded frames or a typed error, with bounded buffering
    /// throughout.
    #[test]
    fn garbage_never_panics_and_stays_bounded(
        chunks in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..300), 1..12),
        max in 16u32..2048,
    ) {
        let mut d = FrameDecoder::new(max);
        for chunk in &chunks {
            let _ = d.push(chunk);
            prop_assert!(d.partial_bytes() <= HEADER_LEN + max as usize);
            while let Some(f) = d.next_frame() {
                prop_assert!(f.payload.len() <= max as usize);
            }
            if d.poisoned().is_some() {
                break;
            }
        }
    }

    /// Corrupting the kind byte of a valid stream yields a typed
    /// UnknownKind error (16.. can never be a valid kind).
    #[test]
    fn corrupted_kind_byte_is_typed(
        frame in arb_frame(64),
        bad in 16u8..=255,
    ) {
        let mut bytes = frame.encode().unwrap();
        bytes[0] = bad;
        let mut d = FrameDecoder::new(256);
        prop_assert_eq!(d.push(&bytes), Err(WireError::UnknownKind(bad)));
        prop_assert_eq!(d.poisoned(), Some(WireError::UnknownKind(bad)));
    }

    /// The zero-copy `split_frame` view parser agrees with the
    /// streaming `FrameDecoder` on arbitrary byte soup: same frames in
    /// the same order, and an error exactly when (and what) the decoder
    /// poisons with. This is the equivalence the readiness ingress
    /// leans on to keep wire conformance while decoding in place.
    #[test]
    fn split_frame_agrees_with_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
        max in 16u32..512,
    ) {
        // Reference: the streaming decoder over the whole input.
        let mut d = FrameDecoder::new(max);
        let decoder_err = d.push(&bytes).err();
        let mut decoder_frames = Vec::new();
        while let Some(f) = d.next_frame() {
            decoder_frames.push(f);
        }

        // Subject: repeatedly split views off the front.
        let mut view_frames = Vec::new();
        let mut view_err = None;
        let mut rest: &[u8] = &bytes;
        loop {
            match tlc_net::wire::split_frame(rest, max) {
                Ok(Some((view, used))) => {
                    view_frames.push(view.to_owned());
                    rest = &rest[used..];
                }
                Ok(None) => break,
                Err(e) => {
                    view_err = Some(e);
                    break;
                }
            }
        }

        prop_assert_eq!(view_frames, decoder_frames);
        // The decoder fail-fasts on a bad kind byte before the length
        // word completes; split_frame sees the same byte first, so the
        // verdicts line up exactly.
        prop_assert_eq!(view_err, decoder_err);
    }

    /// Valid frame streams split anywhere: the view parser consumes
    /// complete frames and reports "need more" (never an error) for the
    /// partial tail, byte-for-byte matching what the decoder buffers.
    #[test]
    fn split_frame_handles_partial_tails(
        frames in proptest::collection::vec(arb_frame(100), 1..6),
        cut in any::<usize>(),
    ) {
        let max = 256u32;
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend(f.encode().unwrap());
        }
        let cut = cut % (stream.len() + 1);
        let mut rest = &stream[..cut];
        let mut whole = 0usize;
        loop {
            match tlc_net::wire::split_frame(rest, max) {
                Ok(Some((view, used))) => {
                    prop_assert_eq!(view.to_owned(), frames[whole].clone());
                    whole += 1;
                    rest = &rest[used..];
                }
                Ok(None) => break,
                Err(e) => prop_assert!(false, "prefix errored: {e}"),
            }
        }
        // The tail is smaller than one max frame — the bound that lets
        // a single pooled buffer carry any partial.
        prop_assert!(rest.len() < HEADER_LEN + max as usize);
    }

    /// The settlement frames introduced for the roaming plane
    /// (SETTLE = 14, SETTLE_VERDICT = 15) ride the same framing as
    /// every other kind: hand-assembled grammar-length payloads
    /// (49 B / 17 B) reassemble across arbitrary read splits with
    /// their kinds intact.
    #[test]
    fn settle_frames_survive_adversarial_chunking(
        rel in any::<u64>(),
        tag in any::<u64>(),
        serving in 0u8..2,
        volumes in proptest::collection::vec(any::<u64>(), 4),
        result in 0u8..2,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        // SETTLE grammar: rel | tag | serving | charged | home |
        // visited | vendor — 49 bytes.
        let mut settle = Vec::with_capacity(49);
        settle.extend(rel.to_be_bytes());
        settle.extend(tag.to_be_bytes());
        settle.push(serving);
        for v in &volumes {
            settle.extend(v.to_be_bytes());
        }
        // SETTLE_VERDICT grammar: rel | tag | result — 17 bytes.
        let mut verdict = Vec::with_capacity(17);
        verdict.extend(rel.to_be_bytes());
        verdict.extend(tag.to_be_bytes());
        verdict.push(result);
        let frames = vec![
            Frame::new(FrameKind::Settle, settle),
            Frame::new(FrameKind::SettleVerdict, verdict),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend(f.encode().unwrap());
        }
        let mut d = FrameDecoder::new(256);
        let mut got = Vec::new();
        for chunk in chunked(&stream, &cuts) {
            d.push(&chunk).unwrap();
            while let Some(f) = d.next_frame() {
                got.push(f);
            }
        }
        prop_assert_eq!(got[0].kind, FrameKind::Settle);
        prop_assert_eq!(got[0].payload.len(), 49);
        prop_assert_eq!(got[1].kind, FrameKind::SettleVerdict);
        prop_assert_eq!(got[1].payload.len(), 17);
        prop_assert_eq!(got, frames);
    }

    /// Adversarial settle frames at the framing layer: any strict
    /// prefix of a SETTLE frame waits rather than errs, and an
    /// oversize length prefix under a settle kind byte poisons the
    /// decoder before any payload is buffered.
    #[test]
    fn settle_truncation_waits_and_oversize_poisons(
        payload in proptest::collection::vec(0u8..=255, 49),
        cut in any::<usize>(),
        over in 1u32..1_000_000,
        max in 1u32..4096,
    ) {
        let frame = Frame::new(FrameKind::Settle, payload);
        let bytes = frame.encode().unwrap();
        let cut = cut % bytes.len();
        let mut d = FrameDecoder::new(256);
        d.push(&bytes[..cut]).unwrap();
        prop_assert_eq!(d.next_frame(), None);
        prop_assert!(d.poisoned().is_none());
        d.push(&bytes[cut..]).unwrap();
        prop_assert_eq!(d.next_frame(), Some(frame));

        // Oversize settle-verdict length prefix: typed rejection from
        // the header alone, decoder poisoned for good.
        let len = max.saturating_add(over);
        let mut header = vec![FrameKind::SettleVerdict.as_u8()];
        header.extend(len.to_be_bytes());
        let mut d = FrameDecoder::new(max);
        prop_assert_eq!(d.push(&header), Err(WireError::Oversize { len, max }));
        prop_assert!(d.push(&[0]).is_err());
    }

    /// A truncated stream (any strict prefix) never yields the final
    /// frame and never errors: the decoder just waits for more bytes.
    #[test]
    fn truncation_waits_rather_than_errs(
        frame in arb_frame(100),
        cut in any::<usize>(),
    ) {
        let bytes = frame.encode().unwrap();
        let cut = cut % bytes.len().max(1);
        let mut d = FrameDecoder::new(256);
        d.push(&bytes[..cut]).unwrap();
        prop_assert_eq!(d.next_frame(), None);
        prop_assert!(d.poisoned().is_none());
        // Completing the stream completes the frame.
        d.push(&bytes[cut..]).unwrap();
        prop_assert_eq!(d.next_frame(), Some(frame));
    }
}

/// An in-memory stream feeding pre-chunked data, for driving the
/// connection state machine the way a socket would.
struct ChunkStream {
    rx: VecDeque<Vec<u8>>,
    closed_after: bool,
}

impl Read for ChunkStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.rx.pop_front() {
            Some(chunk) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    self.rx.push_front(chunk[n..].to_vec());
                }
                Ok(n)
            }
            None if self.closed_after => Ok(0),
            None => Err(io::Error::new(io::ErrorKind::WouldBlock, "drained")),
        }
    }
}

impl Write for ChunkStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The ingress loop's parse step: every complete frame in `buf` is
/// split out in place and appended to `out`; a partial tail stays.
fn parse_buffered(
    buf: &mut Vec<u8>,
    max_payload: u32,
    out: &mut Vec<Frame>,
) -> Result<(), WireError> {
    let mut off = 0;
    while let Some((view, used)) = tlc_net::wire::split_frame(&buf[off..], max_payload)? {
        out.push(view.to_owned());
        off += used;
    }
    buf.drain(..off);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The connection driver's read path (one `read_step` into a
    /// buffer sized for one max frame, parsed in place) surfaces
    /// framing violations as typed `WireError` values and never panics
    /// or outgrows its buffer, for arbitrary chunkings of arbitrary
    /// bytes.
    #[test]
    fn conn_driver_is_total_over_garbage(
        chunks in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..200), 0..10),
        closed in any::<bool>(),
    ) {
        let stream = ChunkStream { rx: chunks.into(), closed_after: closed };
        let mut driver = ConnDriver::new(stream);
        let mut buf = Vec::with_capacity(HEADER_LEN + 512);
        let mut frames = Vec::new();
        for _ in 0..50 {
            match driver.read_step(&mut buf) {
                Ok(_) => {}
                Err(DriverError::Io(k)) => {
                    prop_assert_ne!(k, io::ErrorKind::WouldBlock);
                    break;
                }
            }
            if parse_buffered(&mut buf, 512, &mut frames).is_err() {
                break;
            }
            prop_assert!(buf.len() <= HEADER_LEN + 512);
            if driver.at_eof() {
                break;
            }
        }
        for f in &frames {
            prop_assert!(f.payload.len() <= 512);
        }
    }

    /// Frames pushed through the driver in arbitrary socket-sized
    /// chunks arrive intact and in order.
    #[test]
    fn conn_driver_reassembles_chunked_frames(
        frames in proptest::collection::vec(arb_frame(150), 1..8),
        cuts in proptest::collection::vec(any::<usize>(), 0..15),
    ) {
        let mut stream_bytes = Vec::new();
        for f in &frames {
            stream_bytes.extend(f.encode().unwrap());
        }
        let stream = ChunkStream {
            rx: chunked(&stream_bytes, &cuts).into(),
            closed_after: true,
        };
        let mut driver = ConnDriver::new(stream);
        let mut buf = Vec::with_capacity(HEADER_LEN + 256);
        let mut got = Vec::new();
        while !driver.at_eof() {
            driver.read_step(&mut buf).unwrap();
            parse_buffered(&mut buf, 256, &mut got).unwrap();
        }
        prop_assert_eq!(got, frames);
    }
}
