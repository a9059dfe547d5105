//! Deterministic fault injection for real byte streams.
//!
//! The simulation side of this crate already has [`crate::channel`]'s
//! `FaultyChannel` for datagram faults; this module is its counterpart
//! for the *stream* transports used by the verifier ingress. A
//! [`ChaosStream`] wraps any `Read + Write` transport (a `TcpStream`,
//! a test double) and degrades it the way hostile networks and clients
//! do:
//!
//! * **slow-loris byte dribble** — every read/write is capped at a
//!   small, seeded-random chunk size, so frames trickle across many
//!   syscalls and exercise every partial-frame path;
//! * **connection reset mid-frame** — after a byte budget is spent the
//!   stream fails with `ConnectionReset`, landing (for a suitable
//!   budget) in the middle of an envelope.
//!
//! All randomness comes from a [`SimRng`] stream split off a caller
//! seed, following the same discipline as `FaultyChannel`: the same
//! seed replays byte-for-byte the same chunking decisions, so a chaos
//! failure reproduces under a debugger. "Stalled reader" and server
//! crash/restart faults need no stream support — they are behaviors a
//! harness drives (never call read; drop the server) — but
//! [`ChaosRole`] names them so a fault *plan* can assign every client
//! a role deterministically via [`plan_roles`].

use crate::rng::SimRng;
use std::io::{self, Read, Write};

/// What a [`ChaosStream`] does to the transport it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Cap on bytes accepted per `write` call, chosen uniformly in
    /// `[1, max]` per call. `None` passes writes through untouched.
    pub write_dribble: Option<usize>,
    /// Cap on bytes returned per `read` call, chosen uniformly in
    /// `[1, max]` per call. `None` passes reads through untouched.
    pub read_dribble: Option<usize>,
    /// Fail with `ConnectionReset` once this many bytes (reads plus
    /// writes) have crossed the stream. `None` never resets.
    pub reset_after: Option<u64>,
}

impl ChaosSpec {
    /// A spec that changes nothing — useful as the `Clean` role.
    pub fn clean() -> Self {
        ChaosSpec {
            write_dribble: None,
            read_dribble: None,
            reset_after: None,
        }
    }
}

/// Counters describing what a [`ChaosStream`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// `read` calls that returned data.
    pub reads: u64,
    /// `write` calls that accepted data.
    pub writes: u64,
    /// Total bytes returned by reads.
    pub bytes_rx: u64,
    /// Total bytes accepted by writes.
    pub bytes_tx: u64,
    /// Injected `ConnectionReset` failures (counted per failing call).
    pub resets: u64,
}

/// A `Read + Write` wrapper that injects deterministic stream faults.
///
/// Chunk-size decisions are drawn from a seeded [`SimRng`]; wrapping
/// the same byte traffic with the same seed reproduces the same
/// sequence of dribble caps. (Bytes *available* on the inner transport
/// may still vary run-to-run — only the write side is fully
/// deterministic when the peer's timing is not.)
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    spec: ChaosSpec,
    rng: SimRng,
    stats: ChaosStats,
    total: u64,
    tripped: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `spec`, drawing chunk sizes from a stream
    /// split off `seed`.
    pub fn new(inner: S, spec: ChaosSpec, seed: u64) -> Self {
        ChaosStream {
            inner,
            spec,
            rng: SimRng::new(seed).split("chaos-stream"),
            stats: ChaosStats::default(),
            total: 0,
            tripped: false,
        }
    }

    /// What this stream has done so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Shared access to the wrapped transport.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// True once the reset budget has been spent: every further call
    /// fails with `ConnectionReset`.
    pub fn is_reset(&self) -> bool {
        self.tripped
    }

    /// Draws this call's chunk cap from the dribble setting, clamped
    /// by the remaining reset budget. `None` means the stream must
    /// fail with `ConnectionReset` instead of transferring bytes.
    fn budget(&mut self, dribble: Option<usize>, want: usize) -> Option<usize> {
        if self.tripped {
            return None;
        }
        if let Some(after) = self.spec.reset_after {
            if self.total >= after {
                self.tripped = true;
                return None;
            }
        }
        let cap = match dribble {
            Some(max) => self.rng.range_u64(1, max.max(1) as u64) as usize,
            None => want,
        };
        Some(cap.min(want).max(1))
    }

    fn reset_err(&mut self) -> io::Error {
        self.stats.resets += 1;
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected reset")
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = match self.budget(self.spec.read_dribble, buf.len()) {
            Some(cap) => cap,
            None => return Err(self.reset_err()),
        };
        let n = self.inner.read(&mut buf[..cap])?;
        if n > 0 {
            self.stats.reads += 1;
            self.stats.bytes_rx += n as u64;
            self.total += n as u64;
        }
        Ok(n)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = match self.budget(self.spec.write_dribble, buf.len()) {
            Some(cap) => cap,
            None => return Err(self.reset_err()),
        };
        let n = self.inner.write(&buf[..cap])?;
        if n > 0 {
            self.stats.writes += 1;
            self.stats.bytes_tx += n as u64;
            self.total += n as u64;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A client role in a chaos fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosRole {
    /// Behaves normally; its goodput is the degradation baseline.
    Clean,
    /// Dribbles writes `chunk` bytes at a time (slow-loris).
    SlowLoris {
        /// Maximum bytes per write call.
        chunk: usize,
    },
    /// Connection resets after `after` bytes — mid-frame for budgets
    /// that do not align with an envelope boundary.
    ResetMidFrame {
        /// Byte budget before the injected reset.
        after: u64,
    },
    /// Submits work but never collects verdicts, leaving the server
    /// to bound the per-connection verdict debt.
    StalledReader,
}

impl ChaosRole {
    /// The stream spec implementing this role ([`ChaosRole::StalledReader`]
    /// is harness behavior, so its spec is clean).
    pub fn spec(&self) -> ChaosSpec {
        match *self {
            ChaosRole::Clean | ChaosRole::StalledReader => ChaosSpec::clean(),
            ChaosRole::SlowLoris { chunk } => ChaosSpec {
                write_dribble: Some(chunk.max(1)),
                ..ChaosSpec::clean()
            },
            ChaosRole::ResetMidFrame { after } => ChaosSpec {
                reset_after: Some(after),
                ..ChaosSpec::clean()
            },
        }
    }
}

/// Deterministically assigns a chaos role to each of `n` clients.
///
/// The same `(seed, n)` always yields the same plan; each slot draws
/// from its own labelled RNG split so inserting a client does not
/// reshuffle the others. Roughly half the slots stay clean so every
/// plan retains a goodput baseline.
pub fn plan_roles(seed: u64, n: usize) -> Vec<ChaosRole> {
    let base = SimRng::new(seed);
    (0..n)
        .map(|i| {
            let mut r = base.split(&format!("chaos-role-{i}"));
            match r.next_below(6) {
                0 => ChaosRole::SlowLoris {
                    chunk: r.range_u64(1, 7) as usize,
                },
                1 => ChaosRole::ResetMidFrame {
                    // Past the 10-byte HELLO exchange, inside later frames.
                    after: r.range_u64(16, 256),
                },
                2 => ChaosRole::StalledReader,
                _ => ChaosRole::Clean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// In-memory transport: reads from a script, collects writes.
    struct Mem {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Read for Mem {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for Mem {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn mem(rx: Vec<u8>) -> Mem {
        Mem {
            rx: Cursor::new(rx),
            tx: Vec::new(),
        }
    }

    /// Drives `data` through a dribbling writer and records the chunk
    /// size of every accepted write.
    fn write_trace(seed: u64, dribble: usize, data: &[u8]) -> Vec<usize> {
        let mut s = ChaosStream::new(
            mem(Vec::new()),
            ChaosSpec {
                write_dribble: Some(dribble),
                ..ChaosSpec::clean()
            },
            seed,
        );
        let mut trace = Vec::new();
        let mut off = 0;
        while off < data.len() {
            let n = s.write(&data[off..]).unwrap();
            trace.push(n);
            off += n;
        }
        assert_eq!(s.inner().tx, data);
        trace
    }

    #[test]
    fn same_seed_replays_the_same_chunking() {
        let data: Vec<u8> = (0..200u8).collect();
        let a = write_trace(7, 5, &data);
        let b = write_trace(7, 5, &data);
        assert_eq!(a, b);
        assert!(a.iter().all(|&n| (1..=5).contains(&n)));
        // A different seed gives a different trace (overwhelmingly).
        let c = write_trace(8, 5, &data);
        assert_ne!(a, c);
    }

    #[test]
    fn read_dribble_trickles_but_loses_nothing() {
        let data: Vec<u8> = (0..100u8).collect();
        let mut s = ChaosStream::new(
            mem(data.clone()),
            ChaosSpec {
                read_dribble: Some(3),
                ..ChaosSpec::clean()
            },
            42,
        );
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 3);
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, data);
        assert_eq!(s.stats().bytes_rx, 100);
    }

    #[test]
    fn reset_fires_once_budget_is_spent_and_sticks() {
        let mut s = ChaosStream::new(
            mem(vec![0; 64]),
            ChaosSpec {
                reset_after: Some(10),
                ..ChaosSpec::clean()
            },
            1,
        );
        let mut moved = 0u64;
        let mut buf = [0u8; 4];
        let err = loop {
            match s.read(&mut buf) {
                Ok(n) => moved += n as u64,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The reset lands at the first call crossing the 10-byte mark.
        assert!((10..=13).contains(&moved), "moved {moved}");
        assert!(s.is_reset());
        assert!(s.write(&[1, 2]).is_err());
        assert_eq!(s.stats().resets, 2);
    }

    #[test]
    fn plan_is_deterministic_and_keeps_a_baseline() {
        let a = plan_roles(99, 12);
        let b = plan_roles(99, 12);
        assert_eq!(a, b);
        // Extending the plan keeps earlier assignments stable.
        let longer = plan_roles(99, 20);
        assert_eq!(&longer[..12], &a[..]);
        assert!(a.contains(&ChaosRole::Clean));
    }
}
