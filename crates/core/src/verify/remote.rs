//! Network ingress for the PoC verifier service (§5.3 deployed).
//!
//! The paper positions public verification as something a third party —
//! an MVNO, a regulator, an FCC-style auditor — runs against operator
//! and vendor claims. [`VerifierService`](crate::verify::service::VerifierService)
//! batches that verification on its caller's thread and is only
//! callable in-process; this module puts the same batching core
//! ([`crate::verify::stage`]) behind a TCP boundary, one stage per shard
//! thread, with explicit framing, backpressure, and failure semantics:
//!
//! * [`codec`] — payload grammars for every
//!   [`FrameKind`](tlc_net::wire::FrameKind); the byte-exact
//!   conformance surface pinned by `tests/wire_conformance.rs`,
//! * [`IngressServer`] (`server`) — a readiness-driven,
//!   run-to-completion event loop multiplexing many client connections
//!   onto per-shard verification stages; a connection's reads pause
//!   while it is quarantined or is not draining its replies,
//! * [`RemoteVerifier`] (`client`) — a blocking client mirroring the
//!   in-process API: `register` / `submit` / `submit_batch` /
//!   `collect_results` with the same typed [`ServiceError`] /
//!   [`VerifyError`](crate::verify::VerifyError) surface.
//!
//! The split keeps anything protocol-shaped out of `tlc-net` and
//! anything socket-shaped out of this crate's verification core:
//! [`tlc_net::wire`] owns the frame envelope,
//! [`tlc_net::readiness`] the syscalls, [`tlc_net::bufpool`] the read
//! buffers and [`tlc_net::ingress::ConnDriver`] one connection's
//! non-blocking reads and writes; [`codec`] states each payload grammar
//! once on one checked cursor, trailing bytes rejected. ERROR frames
//! carry interned string indexes, so a tampered PoC rejected over TCP
//! yields the *same* typed [`VerifyError`](crate::verify::VerifyError),
//! `&'static str` detail included, that the in-process service returns.
//!
//! ## Overload ladder
//!
//! A shard verifies everything one wakeup gathered before it looks at
//! the kernel again, so its backlog is the work of the gather in
//! progress and the ladder is a per-gather work budget with two rungs:
//! **Accept** → **ShedSubmits** (new submits answered with a typed BUSY
//! once the gather holds `shed_submit_watermark` proofs). A gather's
//! backlog never grows past that budget, so connections are shed by
//! `max_conns` alone: a new one past the open-connection cap is
//! answered BUSY and dropped.
//! Admission below the ShedSubmits rung is a deficit-round-robin credit
//! budget across registered relationships, so one flooding relationship
//! starves its own lane, not its neighbors. A per-connection misbehavior score
//! (rejected proofs by the RSA checks they cost, replays, oversize
//! bursts, window abuse) escalates to quarantine
//! and, past a second threshold, a typed goodbye. Every shed is
//! answered — overload is never a silent drop — and the client turns
//! BUSY into seeded-jitter capped exponential backoff, surfacing
//! [`ServiceError::Overloaded`] only when the retry budget is spent.
//!
//! | rung | trigger (proofs admitted in this gather) | behavior |
//! |---|---|---|
//! | `Accept` | below [`shed_submit_watermark`](IngressConfig::shed_submit_watermark) | all work admitted |
//! | `ShedSubmits` | ≥ `shed_submit_watermark` | further submits answered `BUSY(Submit)`, not relayed |
//!
//! A BUSY frame is `scope:u8 | retry_after_ms:u32 | rel:u64 | tag:u64`,
//! so a client can tell "rejected" from "lost" without a timeout. A
//! backlog is the proofs admitted in this gather, answered mid-gather
//! or not, and it grows only after the `ShedSubmits` check, so it never
//! passes the watermark and there is no backlog rung for connections:
//! a popular-but-healthy server does not shed the sessions already in.
//! A shed submission never reached the stage, and so never touched the
//! replay window, which is what makes the client's verbatim retry safe.
//!
//! ## Proof obligations
//!
//! Envelope and payloads: `golden_frames`, `prop_wire` (garbage,
//! truncation and chunking never panic and keep buffering bounded),
//! `wire_conformance`, `prop_codec`. The loop (`readiness_ingress`):
//! equivalence with the in-process service, multi-shard accounting, the
//! server-wide connection cap, exhaustion-defers-not-drops,
//! decode-poisoning isolation, depth-1 verdicts with no timer
//! (`batches == idle_flushes == n`), a thin relationship completing 32
//! depth-1 verdicts while a neighbour floods *until it is done* (no
//! clock in the assertion — a starved verdict hangs the test), one proof
//! on two connections accepted exactly once, a SUBMIT_BATCH longer than
//! one wakeup's reads answered in order, and 256 idle handshaken
//! connections held on a two-shard server while one client's batch is
//! verified. The shard's and the client's own unit tests turn their
//! loops by hand (see `server` and `client`). Overload
//! (`soak_overload`, three pinned seeds in CI): [`tlc_net::chaos`]
//! wraps any `Read + Write` with seeded faults (slow-loris dribble,
//! reset mid-frame), and the suite checks exact shed/orphan/unclaimed
//! accounting under stalled readers and mid-batch death, typed recovery
//! across a server restart, and identical write-side traces when a seed
//! is replayed. `soak_ingress` and `soak_overload` run with one shard
//! and with two, and under ThreadSanitizer.
//!
//! ## Session shape
//!
//! ```text
//! client                                server
//!   | -- HELLO{magic,version,window} -->  |
//!   | <-- HELLO_ACK{version,window,max} --|
//!   | -- REGISTER{req,...} ------------>  |
//!   | <-- REGISTERED{req,rel} -----------|
//!   | -- SUBMIT / SUBMIT_BATCH -------->  |
//!   | <-- VERDICT (streamed, per rel in  |
//!   |      submission order) ------------|
//!   | -- GOODBYE ---------------------->  |
//!   | <-- GOODBYE_ACK -------------------|
//! ```
//!
//! Errors the in-process API returns as values travel as ERROR frames
//! and are mapped back to the same types client-side. Verdict payloads
//! round-trip the full `VerifyError` structure (including
//! `ChargeMismatch` operands) so a tampered PoC rejected over TCP is
//! indistinguishable from one rejected in-process.
//!
//! ## Server and client
//!
//! `server` is one struct per shard thread and one loop whose
//! iteration is gather → verify → reply (its module docs);
//! `client` shares nothing with it but the [`codec`].

use crate::verify::service::ServiceError;
use std::io;
use tlc_net::wire::WireError;

mod client;
pub mod codec;
mod server;

pub use client::{BackoffConfig, RemoteVerifier};
pub use server::{IngressConfig, IngressHandle, IngressReport, IngressServer, IngressStats};

use codec::PROTOCOL_VERSION;

/// Failures surfaced by the remote client (and, internally, the
/// server). The `Service` variant carries the exact in-process error
/// type so callers can match on one surface regardless of transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteError {
    /// The far side reported a service-level failure; identical to what
    /// the in-process API would have returned.
    Service(ServiceError),
    /// The byte stream violated the framing layer.
    Wire(WireError),
    /// Transport-level I/O failure.
    Io(io::ErrorKind),
    /// The peer broke the session protocol (bad payload, wrong frame
    /// for the current phase, bad magic, …).
    Protocol(&'static str),
    /// The server speaks a different protocol version.
    BadVersion {
        /// Version the server offered.
        server: u16,
    },
    /// The server shut down while the session was open.
    ServerShutdown,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Service(e) => write!(f, "service error: {e}"),
            RemoteError::Wire(e) => write!(f, "framing error: {e}"),
            RemoteError::Io(k) => write!(f, "i/o error: {k:?}"),
            RemoteError::Protocol(s) => write!(f, "protocol violation: {s}"),
            RemoteError::BadVersion { server } => {
                write!(
                    f,
                    "server speaks protocol version {server}, not {PROTOCOL_VERSION}"
                )
            }
            RemoteError::ServerShutdown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

impl From<ServiceError> for RemoteError {
    fn from(e: ServiceError) -> Self {
        RemoteError::Service(e)
    }
}
