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
//! ## Overload ladder (DESIGN §10)
//!
//! A shard verifies everything one wakeup gathered before it looks at
//! the kernel again, so its backlog is the work of the gather in
//! progress and the [`ShedLevel`] ladder is a per-gather work budget:
//! **Accept** → **ShedSubmits** (new submits answered with a typed BUSY
//! once the gather holds `shed_submit_watermark` proofs) →
//! **ShedConnections** (new connections answered BUSY and dropped).
//! Admission below the ShedSubmits rung is a deficit-round-robin credit
//! budget across registered relationships, so one flooding relationship
//! starves its own lane, not its neighbors. A per-connection misbehavior score
//! (replays, oversize bursts, window abuse) escalates to quarantine
//! and, past a second threshold, a typed goodbye. Every shed is
//! answered — overload is never a silent drop — and the client turns
//! BUSY into seeded-jitter capped exponential backoff, surfacing
//! [`ServiceError::Overloaded`] only when the retry budget is spent.
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
//! iteration is gather → verify → reply (its module docs, DESIGN §10);
//! `client` shares nothing with it but the [`codec`].

use crate::verify::service::ServiceError;
use std::io;
use tlc_net::wire::WireError;

mod client;
pub mod codec;
mod server;

pub use client::{BackoffConfig, RemoteVerifier};
pub use server::{
    IngressConfig, IngressHandle, IngressReport, IngressServer, IngressStats, ShedLevel,
};

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
