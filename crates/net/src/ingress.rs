//! Non-blocking connection driver for the verifier ingress.
//!
//! [`ConnDriver`] owns one byte stream (a `TcpStream` in deployment, any
//! `Read + Write` in tests) and adapts it to the frame world of
//! [`wire`](crate::wire): it appends readable bytes to a caller-owned
//! buffer that the caller parses in place with
//! [`split_frame`](crate::wire::split_frame), stages outbound frames in
//! a write buffer that drains as the peer accepts bytes, and exposes an
//! explicit *pause* switch — the backpressure primitive the ingress
//! server flips while a connection is quarantined or is not draining
//! the replies already queued for it. While paused the driver stops
//! *reading*, so the kernel receive buffer fills and TCP flow control
//! pushes back on the submitting client; no frame is ever dropped.
//!
//! The driver is sans-IO-scheduler: it never blocks and never sleeps.
//! `WouldBlock` from the stream simply ends the current read, which is
//! what lets one thread drive many connections.

use crate::wire::{encode_with, Frame, FrameKind, WireError};
use std::io::{self, Read, Write};

/// Failures surfaced by a connection read or flush: the transport
/// failed. (Framing violations are the parser's to report — the driver
/// never looks inside the bytes it moves.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverError {
    /// Transport-level I/O failure (reset, broken pipe, …).
    Io(io::ErrorKind),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Io(k) => write!(f, "connection i/o error: {k:?}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Per-connection byte/frame counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Bytes read from the stream.
    pub bytes_rx: u64,
    /// Bytes written to the stream.
    pub bytes_tx: u64,
    /// Frames queued for sending.
    pub frames_tx: u64,
    /// Transitions into the paused state.
    pub pauses: u64,
}

/// What one [`ConnDriver::read_step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadStep {
    /// Bytes appended to the buffer.
    pub bytes: usize,
    /// The stream returned less than there was room for: it had nothing
    /// more just then, so another read would only meet `WouldBlock`.
    /// Readiness is level-triggered, so bytes arriving later are
    /// reported again. False when nothing was asked for (paused, a
    /// full buffer).
    pub short: bool,
}

/// Read chunk size per `read` call. Small enough to keep per-wakeup work
/// bounded, large enough to drain a window of verdict-sized frames.
const READ_CHUNK: usize = 8 * 1024;

/// One framed, pausable, non-blocking connection.
pub struct ConnDriver<S> {
    stream: S,
    out_buf: Vec<u8>,
    out_pos: usize,
    paused: bool,
    eof: bool,
    stats: ConnStats,
}

impl<S> ConnDriver<S> {
    /// Wraps a stream. For a `TcpStream` the caller must have set it
    /// non-blocking.
    pub fn new(stream: S) -> ConnDriver<S> {
        ConnDriver {
            stream,
            out_buf: Vec::new(),
            out_pos: 0,
            paused: false,
            eof: false,
            stats: ConnStats::default(),
        }
    }

    /// The wrapped stream (e.g. for `peer_addr`).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    #[cfg(test)]
    fn stream_mut_for_tests(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Counters so far.
    pub fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Whether reads are currently paused (backpressure engaged).
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// Pauses reads: buffered bytes stay in the kernel, TCP flow control
    /// propagates to the peer.
    pub fn pause(&mut self) {
        if !self.paused {
            self.paused = true;
            self.stats.pauses += 1;
        }
    }

    /// Resumes reads after a [`pause`](Self::pause).
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// Whether the peer has closed its sending half.
    pub fn at_eof(&self) -> bool {
        self.eof
    }

    /// Unsent bytes staged in the write buffer.
    pub fn outbox_bytes(&self) -> usize {
        self.out_buf.len() - self.out_pos
    }

    /// Stages a frame for sending; bytes move on the next
    /// [`flush`](Self::flush). Fails if the payload exceeds the codec's
    /// length-prefix range (never for protocol-layer frames).
    pub fn queue(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.queue_with(frame.kind, |out| out.extend_from_slice(&frame.payload))
    }

    /// [`queue`](Self::queue) for a frame whose payload `put` writes
    /// straight into the outbox behind its header
    /// ([`encode_with`]), so no payload is built first.
    pub fn queue_with(
        &mut self,
        kind: FrameKind,
        put: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WireError> {
        // Compact the buffer once the unsent tail is small relative to
        // the consumed prefix, so long-lived connections don't grow it
        // without bound.
        if self.out_pos > 4096 && self.out_pos * 2 > self.out_buf.len() {
            self.out_buf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        encode_with(kind, &mut self.out_buf, put)?;
        self.stats.frames_tx += 1;
        Ok(())
    }
}

impl<S: Read + Write> ConnDriver<S> {
    /// Writes as much of the staged outbox as the stream accepts right
    /// now. Returns `true` when the outbox is fully drained.
    pub fn flush(&mut self) -> Result<bool, DriverError> {
        while self.out_pos < self.out_buf.len() {
            match self.stream.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => return Err(DriverError::Io(io::ErrorKind::WriteZero)),
                Ok(n) => {
                    self.out_pos += n;
                    self.stats.bytes_tx += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(DriverError::Io(e.kind())),
            }
        }
        self.out_buf.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// One raw read appended to `buf`, which the ingress loop parses in
    /// place with [`crate::wire::split_frame`]. At most `READ_CHUNK`
    /// bytes per call, never growing `buf` past its capacity (pooled
    /// buffers are sized to hold any legal frame, so a full buffer
    /// means a complete frame is parseable or the peer is over-cap).
    ///
    /// Returns the bytes appended and whether the read came up short.
    /// Zero bytes is either `WouldBlock` (kernel has nothing), a paused
    /// driver, a full buffer, or EOF — distinguish the last with
    /// [`at_eof`](Self::at_eof).
    pub fn read_step(&mut self, buf: &mut Vec<u8>) -> Result<ReadStep, DriverError> {
        let asked_nothing = ReadStep {
            bytes: 0,
            short: false,
        };
        if self.paused || self.eof {
            return Ok(asked_nothing);
        }
        let start = buf.len();
        let room = buf.capacity().saturating_sub(start).min(READ_CHUNK);
        if room == 0 {
            return Ok(asked_nothing);
        }
        // Zero-fill the landing zone so the read target is initialised;
        // an 8 KiB memset is noise next to the syscall it precedes.
        buf.resize(start + room, 0);
        let got = |bytes: usize| ReadStep {
            bytes,
            short: bytes < room,
        };
        loop {
            match self.stream.read(&mut buf[start..]) {
                Ok(0) => {
                    buf.truncate(start);
                    self.eof = true;
                    return Ok(got(0));
                }
                Ok(n) => {
                    buf.truncate(start + n);
                    self.stats.bytes_rx += n as u64;
                    return Ok(got(n));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    buf.truncate(start);
                    return Ok(got(0));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    buf.truncate(start);
                    return Err(DriverError::Io(e.kind()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{split_frame, FrameKind};
    use std::collections::VecDeque;

    /// An in-memory stream: reads pop from `rx` (empty → WouldBlock),
    /// writes append to `tx` accepting at most `write_quota` per call.
    struct MemStream {
        rx: VecDeque<Vec<u8>>,
        tx: Vec<u8>,
        write_quota: usize,
        closed: bool,
    }

    impl MemStream {
        fn new() -> Self {
            MemStream {
                rx: VecDeque::new(),
                tx: Vec::new(),
                write_quota: usize::MAX,
                closed: false,
            }
        }
    }

    impl Read for MemStream {
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
                None if self.closed => Ok(0),
                None => Err(io::Error::new(io::ErrorKind::WouldBlock, "empty")),
            }
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_quota == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.write_quota);
            self.tx.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What the ingress loop does with a readable connection: read
    /// until the stream has nothing more, then parse every complete
    /// frame out of `buf` in place, leaving a partial tail behind.
    fn pump(
        d: &mut ConnDriver<MemStream>,
        buf: &mut Vec<u8>,
        max_payload: u32,
    ) -> Result<Vec<Frame>, WireError> {
        while d.read_step(buf).unwrap().bytes > 0 {}
        let mut frames = Vec::new();
        let mut off = 0;
        while let Some((view, used)) = split_frame(&buf[off..], max_payload)? {
            frames.push(view.to_owned());
            off += used;
        }
        buf.drain(..off);
        Ok(frames)
    }

    #[test]
    fn frames_flow_both_ways() {
        let mut s = MemStream::new();
        let inbound = Frame::new(FrameKind::Submit, vec![1, 2, 3]);
        s.rx.push_back(inbound.encode().unwrap());
        let mut d = ConnDriver::new(s);
        let mut buf = Vec::with_capacity(64);
        assert_eq!(pump(&mut d, &mut buf, 1024), Ok(vec![inbound]));
        assert!(buf.is_empty());
        let outbound = Frame::new(FrameKind::Verdict, vec![9]);
        d.queue(&outbound).unwrap();
        assert!(d.flush().unwrap());
        assert_eq!(d.stream().tx, outbound.encode().unwrap());
        assert_eq!(d.stats().bytes_rx, 8);
        assert_eq!(d.stats().frames_tx, 1);
    }

    #[test]
    fn paused_driver_reads_nothing_and_loses_nothing() {
        let mut s = MemStream::new();
        let f = Frame::new(FrameKind::Submit, vec![7; 10]);
        s.rx.push_back(f.encode().unwrap());
        let mut d = ConnDriver::new(s);
        let mut buf = Vec::with_capacity(64);
        d.pause();
        assert_eq!(pump(&mut d, &mut buf, 1024), Ok(vec![]));
        assert_eq!(d.stats().bytes_rx, 0);
        d.resume();
        assert_eq!(pump(&mut d, &mut buf, 1024), Ok(vec![f]));
        assert_eq!(d.stats().pauses, 1);
    }

    #[test]
    fn partial_writes_drain_incrementally() {
        let mut s = MemStream::new();
        s.write_quota = 3;
        let mut d = ConnDriver::new(s);
        d.queue(&Frame::new(FrameKind::Stats, vec![1, 2, 3, 4, 5, 6, 7]))
            .unwrap();
        // 12 wire bytes at 3 per call: needs four successful writes.
        let mut flushes = 0;
        while !d.flush().unwrap() {
            flushes += 1;
            assert!(flushes < 100, "flush diverged");
        }
        assert_eq!(d.outbox_bytes(), 0);
        assert_eq!(d.stats().bytes_tx, 12);
    }

    #[test]
    fn eof_detected() {
        let mut s = MemStream::new();
        s.closed = true;
        let mut d = ConnDriver::new(s);
        let mut buf = Vec::with_capacity(64);
        assert_eq!(pump(&mut d, &mut buf, 64), Ok(vec![]));
        assert!(d.at_eof());
    }

    #[test]
    fn read_step_appends_and_respects_capacity() {
        let mut s = MemStream::new();
        let f = Frame::new(FrameKind::Submit, vec![5; 32]);
        s.rx.push_back(f.encode().unwrap());
        let mut d = ConnDriver::new(s);
        let mut buf = Vec::with_capacity(64);
        let n = d.read_step(&mut buf).unwrap();
        assert_eq!(n.bytes, f.wire_len());
        assert_eq!(buf.len(), f.wire_len());
        let (view, used) = split_frame(&buf, 1024).unwrap().expect("frame");
        assert_eq!(view.to_owned(), f);
        assert_eq!(used, buf.len());

        // Nothing pending: WouldBlock maps to 0 without EOF.
        assert_eq!(d.read_step(&mut buf).unwrap().bytes, 0);
        assert!(!d.at_eof());

        // A full buffer asks for nothing (caller must parse/compact first).
        let mut full = Vec::with_capacity(4);
        full.extend_from_slice(&[0; 4]);
        let nothing = ReadStep {
            bytes: 0,
            short: false,
        };
        assert_eq!(d.read_step(&mut full).unwrap(), nothing);

        // Paused driver reads nothing.
        d.pause();
        let mut spare = Vec::with_capacity(16);
        assert_eq!(d.read_step(&mut spare).unwrap(), nothing);

        // EOF is latched and distinguishable.
        d.resume();
        d.stream_mut_for_tests().closed = true;
        assert_eq!(d.read_step(&mut spare).unwrap().bytes, 0);
        assert!(d.at_eof());
    }

    /// A read that returns less than it asked for says so, and the
    /// bytes that arrive after it are read by the next wakeup's step:
    /// stopping at a short read loses nothing.
    #[test]
    fn a_short_read_is_reported_and_the_rest_is_read_next_wakeup() {
        let f = Frame::new(FrameKind::Submit, vec![3; 40]).encode().unwrap();
        let mut s = MemStream::new();
        s.rx.push_back(f[..10].to_vec());
        let mut d = ConnDriver::new(s);
        let mut buf = Vec::with_capacity(64);
        let first = d.read_step(&mut buf).unwrap();
        assert_eq!(
            first,
            ReadStep {
                bytes: 10,
                short: true
            }
        );
        assert!(matches!(split_frame(&buf, 1024), Ok(None)), "half a frame");

        // More bytes arrive; level-triggered readiness reports them and
        // the next wakeup's first read takes the rest.
        d.stream_mut_for_tests().rx.push_back(f[10..].to_vec());
        let next = d.read_step(&mut buf).unwrap();
        assert_eq!((next.bytes, next.short), (f.len() - 10, true));
        assert_eq!(buf, f);

        // A read that fills the room it was given is not short: more
        // may be waiting.
        d.stream_mut_for_tests().rx.push_back(vec![0; 64]);
        let mut exact = Vec::with_capacity(16);
        let full = d.read_step(&mut exact).unwrap();
        assert_eq!((full.bytes, full.short), (exact.capacity(), false));
    }

    #[test]
    fn framing_violation_surfaces_as_wire_error() {
        let mut s = MemStream::new();
        s.rx.push_back(vec![0xEE, 0, 0, 0, 0]);
        let mut d = ConnDriver::new(s);
        let mut buf = Vec::with_capacity(64);
        assert_eq!(
            pump(&mut d, &mut buf, 64),
            Err(WireError::UnknownKind(0xEE))
        );
    }
}
