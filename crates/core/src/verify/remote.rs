//! Network ingress for the PoC verifier service (§5.3 deployed).
//!
//! The paper positions public verification as something a third party —
//! an MVNO, a regulator, an FCC-style auditor — runs against operator
//! and vendor claims. [`VerifierService`](crate::verify::service::VerifierService)
//! batches that verification across cores but is only callable
//! in-process; this module puts the same batching core
//! ([`crate::verify::stage`]) behind a TCP boundary with explicit
//! framing, backpressure, and failure semantics:
//!
//! * [`codec`] — payload grammars for every [`FrameKind`]; the byte-
//!   exact conformance surface pinned by `tests/wire_conformance.rs`,
//! * [`IngressServer`] — a readiness-driven, run-to-completion event
//!   loop multiplexing many client connections onto per-shard
//!   verification stages, pausing reads per connection when its
//!   in-flight window is exceeded,
//! * [`RemoteVerifier`] — a blocking client mirroring the in-process
//!   API: `register` / `submit` / `submit_batch` / `collect_results`
//!   with the same typed [`ServiceError`] / [`VerifyError`] surface.
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
//! round-trip the full [`VerifyError`] structure (including
//! `ChargeMismatch` operands) so a tampered PoC rejected over TCP is
//! indistinguishable from one rejected in-process.
//!
//! ## Server loop (DESIGN §10)
//!
//! The server blocks in `tlc_net::readiness` (epoll on Linux, poll(2)
//! on other Unix) on `SO_REUSEPORT`-sharded acceptor/event threads,
//! each owning its slice of the connection table and its own
//! verification [`Stage`], reading into pooled buffers that the codec
//! decodes zero-copy. One loop iteration is gather → verify → reply, all
//! on the shard's thread: nothing is pending when it blocks, so a
//! light-load verdict costs a verify and two syscalls, and no timer or
//! second thread exists to get it out. Every shard dispatches into its
//! own [`IngressCore`]: the shed ladder, DRR lanes, misbehavior scoring,
//! and every protocol handler.
//!
//! No wall-clock time is read anywhere here (tlc-lint's determinism
//! rule): the loop blocks in the kernel under a fixed wait bound, and
//! all ordering comes from the sockets.

use crate::messages::PocMsg;
use crate::plan::DataPlan;
use crate::verify::service::{
    RelationshipId, ServiceConfig, ServiceError, ServiceReport, SubmissionResult,
};
use crate::verify::stage::{Registry, Stage};
use crate::verify::{VerifyError, DEFAULT_REPLAY_CAPACITY};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tlc_net::bufpool::{PoolStats, PooledBuf};
use tlc_net::ingress::ConnDriver;
use tlc_net::readiness::Interest;
use tlc_net::rng::SimRng;
use tlc_net::wire::{encode_with, Frame, FrameDecoder, FrameKind, WireError, DEFAULT_MAX_PAYLOAD};

pub mod codec;
mod event_loop;

use codec::{
    BusyMsg, BusyScope, Fault, Hello, HelloAck, Register, Registered, SettleMsg, SettleResult,
    SettleVerdictMsg, StatsSnapshot, SubmitBatchRef, SubmitRef, VerdictMsg, MAGIC,
    PROTOCOL_VERSION,
};

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

fn shards_from_env() -> usize {
    std::env::var("TLC_INGRESS_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Tuning knobs for [`IngressServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressConfig {
    /// Per-connection in-flight submission window granted in HELLO_ACK;
    /// reads pause once a connection has this many verdicts pending.
    pub window: u32,
    /// Frame payload cap enforced by the decoder before allocation.
    pub max_payload: u32,
    /// Maximum proofs accepted in one SUBMIT_BATCH frame.
    pub max_batch: u32,
    /// Watermark for the [`ShedLevel::ShedSubmits`] rung: once one
    /// gather has admitted this many proofs, further submits in it are
    /// answered with BUSY instead of relayed.
    pub shed_submit_watermark: usize,
    /// Watermark for [`ShedLevel::ShedConnections`]: at or above it,
    /// connections arriving in the same gather are answered BUSY and
    /// dropped.
    pub shed_conn_watermark: usize,
    /// Open-connection cap across every shard (accept-queue pressure
    /// proxy); at or above it new connections are shed regardless of
    /// backlog.
    pub max_conns: usize,
    /// Base retry-after hint carried in BUSY frames, milliseconds.
    pub retry_after_ms: u32,
    /// Deficit-round-robin quantum: admission credits dealt to each
    /// relationship lane per round while capacity is scarce.
    pub lane_quantum: u32,
    /// Multiplier on a connection's granted window giving its verdict
    /// debt cap; submits beyond it are shed and scored as misbehavior.
    pub debt_factor: u32,
    /// Misbehavior score at which a connection is quarantined (reads
    /// paused, submits shed) for `quarantine_polls` loop iterations.
    pub quarantine_threshold: u32,
    /// Misbehavior score at which a connection receives a typed
    /// goodbye and closes.
    pub goodbye_threshold: u32,
    /// Shard-loop iterations a quarantined connection stays paused
    /// before its score decays. The loop waits at most 1 ms per
    /// iteration while a sentence runs, so a sentence lasts at most
    /// this many milliseconds of waiting plus the verification work of
    /// the iterations it spans.
    pub quarantine_polls: u32,
    /// Acceptor/event shards, and so verifier threads: each owns a
    /// `SO_REUSEPORT` listener, its slice of the connection table, and
    /// its own verification stage; where the platform cannot share the
    /// address the server runs one. Defaults from `TLC_INGRESS_SHARDS`.
    pub shards: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            window: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_batch: 1024,
            shed_submit_watermark: 8192,
            shed_conn_watermark: 16384,
            max_conns: 1024,
            retry_after_ms: 50,
            lane_quantum: 64,
            debt_factor: 4,
            quarantine_threshold: 32,
            goodbye_threshold: 128,
            quarantine_polls: 256,
            shards: shards_from_env(),
        }
    }
}

/// Rungs of the overload ladder, from healthy to hardest shedding.
/// Ordered: a higher rung implies every lower rung's behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedLevel {
    /// Below every watermark: all work admitted.
    Accept,
    /// Backlog reached `shed_submit_watermark`: new submits are
    /// answered with BUSY (scope Submit).
    ShedSubmits,
    /// Backlog reached `shed_conn_watermark` (or `max_conns` open):
    /// new connections are answered with BUSY (scope Connection) and
    /// dropped.
    ShedConnections,
}

/// Ingress-side counters, reported at shutdown and over STATS frames.
pub type IngressStats = StatsSnapshot;

/// Aggregate report returned by [`IngressServer::run`]: the shards'
/// verification counters plus ingress counters.
#[derive(Debug, Clone)]
pub struct IngressReport {
    /// Verification counters, one [`ShardStats`] per ingress shard.
    /// The shards read no clock: `elapsed` and `pocs_per_hour` are zero.
    ///
    /// [`ShardStats`]: crate::verify::service::ShardStats
    pub service: ServiceReport,
    /// Ingress counters accumulated over the server's lifetime.
    pub ingress: IngressStats,
    /// Read-buffer pool counters, summed across shards. `exhausted`
    /// counts deferred reads — wakeups where a connection's read was
    /// postponed because every buffer was in flight. These live
    /// outside [`IngressStats`] because the STATS wire snapshot is a
    /// frozen 16-field format.
    pub pool: PoolStats,
}

impl IngressReport {
    /// Renders every ingress counter plus the service totals and
    /// per-shard breakdown in Prometheus text exposition format
    /// (`ingress_throughput --metrics` prints this).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        self.ingress.to_prometheus(&mut out);
        let pool = [
            ("bufpool_checkouts", self.pool.checkouts),
            ("bufpool_exhausted", self.pool.exhausted),
            ("bufpool_recycles", self.pool.recycles),
        ];
        for (name, v) in pool {
            let _ = writeln!(out, "# TYPE tlc_ingress_{name}_total counter");
            let _ = writeln!(out, "tlc_ingress_{name}_total {v}");
        }
        let totals = [
            ("accepted", self.service.accepted),
            ("rejected", self.service.rejected),
            ("replayed", self.service.replayed),
            ("unclaimed_results", self.service.unclaimed_results as u64),
            ("batches", self.service.batches),
            ("idle_flushes", self.service.idle_flushes),
        ];
        for (name, v) in totals {
            let _ = writeln!(out, "# TYPE tlc_service_{name}_total counter");
            let _ = writeln!(out, "tlc_service_{name}_total {v}");
        }
        for s in &self.service.shards {
            let _ = writeln!(
                out,
                "tlc_shard_accepted_total{{shard=\"{}\"}} {}",
                s.shard, s.accepted
            );
            let _ = writeln!(
                out,
                "tlc_shard_rejected_total{{shard=\"{}\"}} {}",
                s.shard, s.rejected
            );
            let _ = writeln!(
                out,
                "tlc_shard_relationships{{shard=\"{}\"}} {}",
                s.shard, s.relationships
            );
        }
        out
    }
}

/// Connection phases of the ingress state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing accepted yet but HELLO.
    AwaitHello,
    /// Session established; submissions flow.
    Ready,
    /// Marked for removal at the end of the iteration.
    Closed,
}

struct Conn {
    id: u64,
    driver: ConnDriver<TcpStream>,
    phase: Phase,
    /// Submissions relayed to the service, verdicts not yet returned.
    in_flight: u32,
    /// Window granted to this connection in HELLO_ACK.
    window: u32,
    /// Peer sent GOODBYE: drain in-flight verdicts, ack, close.
    goodbye: bool,
    /// Misbehavior score: replays, oversize bursts, window abuse.
    /// Crossing `quarantine_threshold` quarantines the connection;
    /// crossing `goodbye_threshold` closes it with a typed fault.
    score: u32,
    /// Loop iterations left in quarantine (0 = not quarantined).
    quarantine: u32,
    /// Pooled buffer holding a partial frame between wakeups.
    buf: Option<PooledBuf>,
    /// Interest currently registered with the kernel, to skip no-op
    /// `modify` syscalls.
    armed: Interest,
    /// A read was postponed because the buffer pool was empty; read
    /// interest stays masked until buffers return.
    deferred: bool,
}

struct Route {
    conn_id: u64,
    client_tag: u64,
}

/// The protocol and admission engine: the connection table, verdict
/// routes, DRR lanes, shed ladder, and every frame handler. Each
/// `SO_REUSEPORT` shard has its own instance (own verification stage,
/// own connection slice), so shed/DRR/misbehavior decisions stay
/// shard-local and lock-free; only the open-connection count is
/// shared.
struct IngressCore {
    /// Issues this shard's relationship ids, densely from 0.
    registry: Registry,
    /// Verifies what a gather admitted; flushed by the shard loop
    /// before it blocks, so empty whenever the loop waits.
    stage: Stage,
    next_tag: u64,
    config: IngressConfig,
    conns: Vec<Conn>,
    /// conn id -> current index in `conns`, kept exact across removals
    /// so routing a verdict costs one lookup, not a table scan.
    index: HashMap<u64, usize>,
    /// stage tag -> originating connection + the tag it used. One
    /// entry per admitted proof whose verdict has not been pumped: its
    /// size is the shard's backlog.
    routes: HashMap<u64, Route>,
    /// Per-relationship admission lanes for deficit-round-robin
    /// fairness, indexed by raw relationship id: the credits left until
    /// the next deal. A submit needs one to be admitted.
    credits: Vec<u32>,
    /// Rotates the deal's start so remainder quanta spread fairly.
    rr_cursor: usize,
    /// Credits were dealt in the current loop iteration.
    dealt: bool,
    next_conn: u64,
    /// Connections open across every shard of this server, checked
    /// against `max_conns` at admission. A bare count: it publishes no
    /// other data, so every access is `Relaxed`.
    open: Arc<AtomicUsize>,
    stats: IngressStats,
    /// Connections currently serving a quarantine sentence — lets the
    /// event loop skip quarantine ticking entirely in the (typical)
    /// case of zero quarantined peers.
    quarantined: usize,
}

impl IngressCore {
    fn new(stage: Stage, config: IngressConfig, open: Arc<AtomicUsize>) -> IngressCore {
        IngressCore {
            registry: Registry::default(),
            stage,
            next_tag: 0,
            config,
            conns: Vec::new(),
            index: HashMap::new(),
            routes: HashMap::new(),
            credits: Vec::new(),
            rr_cursor: 0,
            dealt: false,
            next_conn: 0,
            open,
            stats: IngressStats::default(),
            quarantined: 0,
        }
    }
}

/// TCP front-end for PoC verification.
///
/// [`run`](Self::run) drives one readiness-driven thread per shard,
/// each owning a disjoint slice of the connections and its own
/// verification stage, so no locking is needed anywhere. Use
/// [`spawn`](Self::spawn) to run it on a background thread with a stop
/// handle.
pub struct IngressServer {
    /// One per bound listener; never empty.
    shards: Vec<event_loop::Shard>,
}

impl IngressServer {
    /// Binds the listeners and builds one shard — readiness registry,
    /// buffer pool, verification stage — per listener.
    ///
    /// Of `service_config` only `batch_size` is read: verification runs
    /// on the shard threads, so the server scales across cores by
    /// `config.shards` and `workers` means nothing here. (The parameter
    /// keeps its type until the benchmark harness, which passes one,
    /// can change with it — ROADMAP IOU list.)
    ///
    /// The address is bound with `SO_REUSEPORT` where the platform
    /// allows, once per configured shard; where it doesn't, or an
    /// extra shard cannot be built, the server runs the shards it has.
    /// Failing to build the first is the returned error
    /// ([`io::ErrorKind::Unsupported`] off Unix).
    pub fn bind(
        addr: impl ToSocketAddrs,
        service_config: ServiceConfig,
        config: IngressConfig,
    ) -> io::Result<IngressServer> {
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to bind"))?;
        let mut listeners = Vec::new();
        match tlc_net::try_bind_reuseport(resolved) {
            Some(first) => {
                // A failed extra bind just shrinks the shard count (the
                // kernel only balances across sockets that exist).
                let shared = first.local_addr();
                listeners.push(first);
                if let Ok(addr) = shared {
                    for _ in 1..config.shards {
                        match tlc_net::try_bind_reuseport(addr) {
                            Some(l) => listeners.push(l),
                            None => break,
                        }
                    }
                }
            }
            None => {
                let only = TcpListener::bind(resolved)?;
                only.set_nonblocking(true)?;
                listeners.push(only);
            }
        }
        let open = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(listeners.len());
        for listener in listeners {
            let stage = Stage::new(shards.len(), service_config.batch_size);
            match event_loop::Shard::new(listener, stage, config, Arc::clone(&open)) {
                Ok(shard) => shards.push(shard),
                Err(e) if shards.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(IngressServer { shards })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        match self.shards.first() {
            Some(shard) => shard.listener.local_addr(),
            None => Err(io::ErrorKind::NotConnected.into()),
        }
    }

    /// Runs every shard's loop until `stop` is set, then returns the
    /// combined report. Open sessions
    /// receive an ERROR/Shutdown frame (best-effort) before their
    /// sockets drop.
    pub fn run(self, stop: &AtomicBool) -> IngressReport {
        event_loop::run(self, stop)
    }

    /// Spawns [`run`](Self::run) on a background thread.
    pub fn spawn(self) -> io::Result<IngressHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("tlc-ingress".into())
            .spawn(move || self.run(&flag))?;
        Ok(IngressHandle { addr, stop, thread })
    }
}

impl IngressCore {
    /// Teardown: a best-effort shutdown notice to every open session,
    /// then the stage's final counters.
    fn into_report(mut self, pool: PoolStats) -> IngressReport {
        let bye = Fault::Shutdown.to_frame();
        for conn in &mut self.conns {
            if conn.phase == Phase::Ready {
                let _ = conn.driver.queue(&bye);
                let _ = conn.driver.flush();
            }
        }
        let (shard, unclaimed) = self.stage.finish();
        IngressReport {
            service: ServiceReport::from_shards(vec![shard], 0, unclaimed.len(), Duration::ZERO),
            ingress: self.stats,
            pool,
        }
    }

    /// Proofs admitted whose verdicts have not been pumped yet. The
    /// loop pumps before it blocks, so this is the work of the gather
    /// in progress.
    fn outstanding(&self) -> usize {
        self.routes.len()
    }

    /// Accepts every connection currently pending on `listener` and
    /// returns the ids of those admitted (arrivals can also be shed).
    /// Ids, not table indices: removing one connection reorders the
    /// table under the rest of the batch.
    fn accept_pending(&mut self, listener: &TcpListener) -> Vec<u64> {
        let mut admitted = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => admitted.extend(self.admit(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        admitted
    }

    /// Current rung of the overload ladder, from the shard's backlog.
    /// (`max_conns` is a separate accept-time check — a full but
    /// healthy connection table sheds new arrivals without touching
    /// admission for the sessions already in.)
    fn shed_level(&self) -> ShedLevel {
        let backlog = self.outstanding();
        if backlog >= self.config.shed_conn_watermark {
            ShedLevel::ShedConnections
        } else if backlog >= self.config.shed_submit_watermark {
            ShedLevel::ShedSubmits
        } else {
            ShedLevel::Accept
        }
    }

    /// Admits (or sheds) one freshly accepted stream. Returns the new
    /// connection's id, or `None` when the arrival was shed (typed
    /// BUSY answer) or rejected.
    fn admit(&mut self, mut stream: TcpStream) -> Option<u64> {
        let cap = self.config.max_conns.max(1);
        // The slot is claimed in the same step that checks the cap, so
        // shards admitting at once cannot overshoot it together.
        let claimed = self.shed_level() < ShedLevel::ShedConnections
            && self
                .open
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < cap).then_some(n + 1)
                })
                .is_ok();
        if !claimed {
            // ShedConnections rung: answer with a typed BUSY (blocking
            // write of one tiny frame) and drop, rather than resetting
            // the peer with no explanation. The longer hint reflects
            // that a whole-connection shed signals deeper trouble than
            // a single shed submit.
            self.stats.shed_connections += 1;
            let busy = BusyMsg {
                scope: BusyScope::Connection,
                retry_after_ms: self.config.retry_after_ms.saturating_mul(4),
                rel: 0,
                tag: 0,
            };
            if let Ok(bytes) = busy.to_frame().encode() {
                let _ = stream.write_all(&bytes);
            }
            return None;
        }
        // A socket stuck in blocking mode would stall the entire loop
        // on its next read, so a stream whose mode cannot be set is
        // rejected outright and counted — never admitted half-broken.
        if stream.set_nonblocking(true).is_err() {
            self.open.fetch_sub(1, Ordering::Relaxed);
            self.stats.rejected_malformed += 1;
            return None;
        }
        // Low latency is best-effort; failure leaves default options.
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.push(Conn {
            id,
            driver: ConnDriver::new(stream),
            phase: Phase::AwaitHello,
            in_flight: 0,
            window: self.config.window,
            goodbye: false,
            score: 0,
            quarantine: 0,
            buf: None,
            armed: Interest::NONE,
            deferred: false,
        });
        self.stats.connections += 1;
        self.index.insert(id, self.conns.len() - 1);
        Some(id)
    }

    /// Drops connection `i` from the table (`swap_remove`, so the last
    /// connection takes its slot; its pooled buffer goes back with it)
    /// and accounts the close.
    fn remove_conn(&mut self, i: usize) {
        let conn = self.conns.swap_remove(i);
        self.index.remove(&conn.id);
        self.open.fetch_sub(1, Ordering::Relaxed);
        if conn.quarantine > 0 {
            self.quarantined -= 1;
        }
        self.stats.connections_closed += 1;
        if let Some(moved) = self.conns.get(i) {
            self.index.insert(moved.id, i);
        }
    }

    /// Queues an ERROR/Protocol frame and closes the connection.
    fn protocol_fault(&mut self, i: usize, detail: &'static str) {
        self.stats.protocol_errors += 1;
        let frame = Fault::Protocol(detail).to_frame();
        let _ = self.conns[i].driver.queue(&frame);
        let _ = self.conns[i].driver.flush();
        self.conns[i].phase = Phase::Closed;
    }

    /// Queues a frame on connection `i`, closing it if the outbox
    /// rejects the frame (payload over the codec's length range —
    /// impossible for protocol-layer frames, but stay total).
    fn send(&mut self, i: usize, frame: &Frame) {
        if self.conns[i].driver.queue(frame).is_err() {
            self.conns[i].phase = Phase::Closed;
        }
    }

    /// Dispatches one inbound frame. Takes the kind and a borrowed
    /// payload so the shard loop can hand in zero-copy views
    /// ([`tlc_net::wire::FrameRef`]) straight out of a pooled buffer.
    fn handle_frame(&mut self, i: usize, kind: FrameKind, payload: &[u8]) {
        match (self.conns[i].phase, kind) {
            (Phase::AwaitHello, FrameKind::Hello) => self.handle_hello(i, payload),
            (Phase::AwaitHello, _) => self.protocol_fault(i, "expected HELLO"),
            (Phase::Ready, FrameKind::Register) => self.handle_register(i, payload),
            (Phase::Ready, FrameKind::Submit) => self.handle_submit(i, payload),
            (Phase::Ready, FrameKind::SubmitBatch) => self.handle_submit_batch(i, payload),
            (Phase::Ready, FrameKind::StatsReq) => {
                let snapshot = self.stats_snapshot();
                self.send(i, &snapshot.to_frame(FrameKind::Stats));
            }
            (Phase::Ready, FrameKind::Settle) => self.handle_settle(i, payload),
            (Phase::Ready, FrameKind::Goodbye) => {
                self.conns[i].goodbye = true;
                self.maybe_finish_goodbye(i);
            }
            (Phase::Ready, _) => self.protocol_fault(i, "unexpected frame kind"),
            (Phase::Closed, _) => {}
        }
    }

    fn handle_hello(&mut self, i: usize, payload: &[u8]) {
        let hello = match Hello::decode(payload) {
            Ok(h) => h,
            Err(detail) => return self.protocol_fault(i, detail),
        };
        if hello.magic != MAGIC {
            return self.protocol_fault(i, "bad magic");
        }
        if hello.version != PROTOCOL_VERSION {
            self.stats.protocol_errors += 1;
            let frame = Fault::BadVersion {
                server: PROTOCOL_VERSION,
            }
            .to_frame();
            let _ = self.conns[i].driver.queue(&frame);
            let _ = self.conns[i].driver.flush();
            self.conns[i].phase = Phase::Closed;
            return;
        }
        // Window 0 means "server's choice"; otherwise grant at most the
        // configured window.
        let granted = if hello.window == 0 {
            self.config.window
        } else {
            hello.window.min(self.config.window)
        };
        self.conns[i].window = granted.max(1);
        self.conns[i].phase = Phase::Ready;
        let ack = HelloAck {
            version: PROTOCOL_VERSION,
            window: self.conns[i].window,
            max_payload: self.config.max_payload,
        };
        self.send(i, &ack.to_frame());
    }

    /// Audits a three-party roaming settlement record: replays the
    /// conservation law `home + visited + vendor == charged` and
    /// answers with a SETTLE_VERDICT (DESIGN §14). The audit is
    /// stateless — a split either conserves the charged volume or it
    /// does not — so it costs no crypto and never touches the stage.
    fn handle_settle(&mut self, i: usize, payload: &[u8]) {
        let settle = match SettleMsg::decode(payload) {
            Ok(s) => s,
            Err(detail) => return self.protocol_fault(i, detail),
        };
        let result = if settle.split.total() == settle.charged {
            SettleResult::Conserved
        } else {
            SettleResult::SplitMismatch
        };
        let verdict = SettleVerdictMsg {
            rel: settle.rel,
            tag: settle.tag,
            result,
        };
        self.send(i, &verdict.to_frame());
    }

    fn handle_register(&mut self, i: usize, payload: &[u8]) {
        let reg = match Register::decode(payload) {
            Ok(r) => r,
            Err(detail) => return self.protocol_fault(i, detail),
        };
        // Capacity 0 means "server default", mirroring window 0 in
        // HELLO. This is also hardening: the in-process API asserts a
        // positive replay capacity, and wire input must never be able
        // to trip an assert on the shard's thread.
        let capacity = if reg.capacity == 0 {
            DEFAULT_REPLAY_CAPACITY
        } else {
            reg.capacity as usize
        };
        let (plan, edge_key, operator_key) = (reg.plan, reg.edge_key, reg.operator_key);
        let rel = match self.registry.find(&plan, &edge_key, &operator_key) {
            Some(rel) => rel,
            None => {
                let rel = self.registry.record(plan, &edge_key, &operator_key);
                self.stage
                    .register(rel, plan, edge_key, operator_key, capacity);
                // Ids are issued densely, so the new lane's index is
                // its id. Seeded with one quantum so a client
                // pipelining REGISTER+SUBMIT is not shed before the
                // next credit deal.
                self.credits.push(self.config.lane_quantum.max(1));
                rel
            }
        };
        self.stats.registers += 1;
        let ack = Registered {
            req: reg.req,
            rel: rel.raw(),
        };
        self.send(i, &ack.to_frame());
    }

    /// Deals the free admission pool (`shed_submit_watermark` minus the
    /// shard's backlog) to relationship lanes, deficit-round-robin:
    /// whole-quantum shares, the remainder's quanta rotating across
    /// lanes from deal to deal. One flooding relationship therefore
    /// exhausts only its own credits — thin lanes keep their full share
    /// and their submits keep flowing. Dealt once per loop iteration,
    /// by the first submission that needs a credit: an iteration that
    /// relays nothing (SETTLE, STATS, an idle tick) deals nothing.
    fn deal_credits(&mut self) {
        self.dealt = true;
        let n = self.credits.len();
        if n == 0 {
            return;
        }
        let pool = self
            .config
            .shed_submit_watermark
            .saturating_sub(self.outstanding());
        let quantum = (self.config.lane_quantum.max(1)) as usize;
        let per_round = quantum.saturating_mul(n).max(1);
        let mut rem = pool % per_round;
        let clamp = |share: usize| share.min(u32::MAX as usize) as u32;
        let base = (pool / per_round).saturating_mul(quantum);
        self.credits.fill(clamp(base));
        self.rr_cursor = (self.rr_cursor + 1) % n;
        let mut k = self.rr_cursor;
        while rem > 0 {
            let give = quantum.min(rem);
            self.credits[k] = clamp(base.saturating_add(give));
            rem -= give;
            k = (k + 1) % n;
        }
    }

    /// Sheds one submission with a typed BUSY answer — the ladder's
    /// guarantee that overload is never a silent drop. The shed proof
    /// never reached the service (or its replay cache), so the client
    /// can resubmit it verbatim after the delay.
    fn shed_submit(&mut self, i: usize, rel: u64, tag: u64) {
        self.stats.shed_overload += 1;
        let busy = BusyMsg {
            scope: BusyScope::Submit,
            retry_after_ms: self.config.retry_after_ms,
            rel,
            tag,
        };
        self.send(i, &busy.to_frame());
    }

    /// Raises connection `i`'s misbehavior score and escalates:
    /// quarantine at the first threshold, a typed goodbye at the
    /// second.
    fn bump_score(&mut self, i: usize, points: u32) {
        let quarantine_at = self.config.quarantine_threshold.max(1);
        let goodbye_at = self.config.goodbye_threshold.max(1);
        let c = &mut self.conns[i];
        c.score = c.score.saturating_add(points);
        if c.score >= goodbye_at {
            self.stats.misbehavior_closes += 1;
            let frame = Fault::Protocol("misbehavior limit exceeded").to_frame();
            let _ = c.driver.queue(&frame);
            let _ = c.driver.flush();
            c.phase = Phase::Closed;
        } else if c.score >= quarantine_at && c.quarantine == 0 {
            c.quarantine = self.config.quarantine_polls.max(1);
            self.stats.quarantines += 1;
            self.quarantined += 1;
        }
    }

    fn handle_submit(&mut self, i: usize, payload: &[u8]) {
        // Borrowed decode: the PoC bytes go straight from the frame
        // payload (a pooled read buffer) into the service without an
        // intermediate copy.
        let sub = match SubmitRef::decode(payload) {
            Ok(s) => s,
            Err(detail) => return self.protocol_fault(i, detail),
        };
        self.relay_submission(i, sub.rel, sub.tag, sub.poc);
    }

    fn handle_submit_batch(&mut self, i: usize, payload: &[u8]) {
        let batch = match SubmitBatchRef::decode(payload) {
            Ok(b) => b,
            Err(detail) => return self.protocol_fault(i, detail),
        };
        if batch.pocs.len() as u64 > self.config.max_batch as u64 {
            // An oversize burst is misbehavior, not a framing fault:
            // answer with a typed error, score it, and let escalation
            // (quarantine, then goodbye) close repeat offenders.
            self.stats.protocol_errors += 1;
            self.send(i, &Fault::Protocol("batch exceeds server limit").to_frame());
            return self.bump_score(i, 8);
        }
        for (k, poc) in batch.pocs.iter().enumerate() {
            if self.conns[i].phase == Phase::Closed {
                break;
            }
            self.relay_submission(i, batch.rel, batch.first_tag.wrapping_add(k as u64), poc);
        }
    }

    /// Decodes one PoC and hands it to the stage, recording the route
    /// for the verdict on the way back.
    fn relay_submission(&mut self, i: usize, rel_raw: u64, client_tag: u64, poc_bytes: &[u8]) {
        let poc = match PocMsg::decode(poc_bytes) {
            Ok(p) => p,
            // An undecodable PoC is a client bug, not a verdict: the
            // in-process API takes `PocMsg` values, so decode failures
            // cannot reach `submit` there either.
            Err(_) => return self.protocol_fault(i, "undecodable PoC payload"),
        };
        // Admission ladder, checked before the stage sees the proof:
        // quarantine, per-conn verdict debt, the shard's ShedSubmits
        // rung, then the relationship lane's DRR credit.
        if self.conns[i].quarantine > 0 {
            return self.shed_submit(i, rel_raw, client_tag);
        }
        let debt_cap = self.conns[i]
            .window
            .saturating_mul(self.config.debt_factor.max(1));
        if self.conns[i].in_flight >= debt_cap {
            // A client this deep past its granted window is ignoring
            // flow control: shed and score.
            self.shed_submit(i, rel_raw, client_tag);
            return self.bump_score(i, 1);
        }
        if self.shed_level() >= ShedLevel::ShedSubmits {
            return self.shed_submit(i, rel_raw, client_tag);
        }
        if !self.dealt {
            self.deal_credits();
        }
        let lane = usize::try_from(rel_raw)
            .ok()
            .and_then(|k| self.credits.get_mut(k));
        let Some(credits) = lane else {
            // No lane: an id this shard never issued. The session stays
            // open (its other relationships still work), mirroring the
            // in-process API where this is a recoverable `Err` return.
            return self.send(i, &Fault::UnknownRelationship(rel_raw).to_frame());
        };
        if *credits == 0 {
            return self.shed_submit(i, rel_raw, client_tag);
        }
        *credits -= 1;
        let tag = self.next_tag;
        self.next_tag += 1;
        self.stage
            .submit(RelationshipId::from_raw(rel_raw), tag, poc);
        self.stats.submissions += 1;
        self.conns[i].in_flight += 1;
        self.routes.insert(
            tag,
            Route {
                conn_id: self.conns[i].id,
                client_tag,
            },
        );
    }

    /// Streams verified verdicts back to their connections, recording the
    /// id of every connection that had a frame queued (or its phase
    /// changed) so the shard loop can refresh exactly those — flush,
    /// re-arm write interest, reap — without an O(conns) sweep. Ids
    /// may repeat.
    fn pump_verdicts(&mut self, touched: &mut Vec<u64>) {
        for r in self.stage.take_results() {
            let Some(route) = self.routes.remove(&r.tag) else {
                // A tag the server never issued cannot come back; stay
                // total and count it rather than panic.
                self.stats.orphaned_verdicts += 1;
                continue;
            };
            match r.result {
                Ok(_) => self.stats.accepted += 1,
                Err(_) => self.stats.rejected_malformed += 1,
            }
            let Some(&i) = self.index.get(&route.conn_id) else {
                // Client disconnected mid-batch: the verdict is
                // discarded deterministically and counted.
                self.stats.orphaned_verdicts += 1;
                continue;
            };
            self.conns[i].in_flight = self.conns[i].in_flight.saturating_sub(1);
            touched.push(route.conn_id);
            if self.conns[i].phase == Phase::Closed {
                self.stats.orphaned_verdicts += 1;
                continue;
            }
            let replayed = matches!(r.result, Err(VerifyError::Replayed));
            let msg = VerdictMsg {
                rel: r.relationship.raw(),
                tag: route.client_tag,
                shard: r.shard as u32,
                result: r.result,
            };
            self.stats.verdicts += 1;
            self.send(i, &msg.to_frame());
            if replayed {
                // Replays feed the misbehavior score: a client cycling
                // old proofs burns verifier capacity for guaranteed
                // rejections.
                self.bump_score(i, 1);
            }
            if self.conns[i].phase != Phase::Closed {
                self.maybe_finish_goodbye(i);
            }
        }
    }

    /// After GOODBYE, once every in-flight verdict has been streamed,
    /// acknowledge and close.
    fn maybe_finish_goodbye(&mut self, i: usize) {
        if self.conns[i].goodbye && self.conns[i].in_flight == 0 {
            self.send(i, &Frame::new(FrameKind::GoodbyeAck, Vec::new()));
            self.conns[i].phase = Phase::Closed;
        }
    }

    /// Whether connection `i` should have reads paused right now: over
    /// its verdict window, or in quarantine.
    fn desired_pause(&self, i: usize) -> bool {
        let conn = &self.conns[i];
        conn.in_flight >= conn.window || conn.quarantine > 0
    }

    /// Ticks every active quarantine sentence down by one; at expiry
    /// the score halves, so a reformed client recovers while a repeat
    /// offender re-escalates. Ids of freshly expired sentences are
    /// appended to `expired` (the shard loop re-arms exactly those).
    fn tick_quarantines(&mut self, expired: &mut Vec<u64>) {
        if self.quarantined == 0 {
            return;
        }
        for conn in &mut self.conns {
            if conn.quarantine > 0 {
                conn.quarantine -= 1;
                if conn.quarantine == 0 {
                    conn.score /= 2;
                    self.quarantined -= 1;
                    expired.push(conn.id);
                }
            }
        }
    }

    fn stats_snapshot(&self) -> IngressStats {
        let mut s = self.stats;
        s.open_connections = self.conns.len() as u64;
        s.service_outstanding = self.outstanding() as u64;
        s
    }
}

/// Handle to a server spawned with [`IngressServer::spawn`].
pub struct IngressHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<IngressReport>,
}

impl IngressHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the shard loops to stop and joins them, returning the
    /// combined report. A worker panic inside the loop yields a report
    /// with an empty service section rather than propagating.
    pub fn shutdown(self) -> Option<IngressReport> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().ok()
    }
}

/// Read chunk for the blocking client.
const CLIENT_READ_CHUNK: usize = 8 * 1024;

/// Retry policy for overload (BUSY) handling in [`RemoteVerifier`]:
/// capped exponential backoff with jitter from a seeded RNG, per
/// tlc-lint's determinism rule (no ambient randomness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First retry delay; doubles per attempt up to `cap`.
    pub base: Duration,
    /// Ceiling on any single delay.
    pub cap: Duration,
    /// Sheds tolerated per submission (or per connection attempt)
    /// before [`ServiceError::Overloaded`] surfaces to the caller.
    pub max_attempts: u32,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            max_attempts: 10,
            seed: 0x7E1C_0FF5,
        }
    }
}

/// Delay before retry number `attempt`: uniform in `[d/2, d]` where
/// `d = min(cap, base << attempt)`, floored at the server's
/// retry-after hint (itself capped). Half the delay is deterministic
/// spacing, half is jitter so a fleet of shed clients decorrelates.
fn backoff_delay(rng: &mut SimRng, cfg: &BackoffConfig, attempt: u32, hint_ms: u32) -> Duration {
    let base = cfg.base.max(Duration::from_micros(100));
    let cap = cfg.cap.max(base);
    let capped = base.saturating_mul(1u32 << attempt.min(16)).min(cap);
    let half = capped / 2;
    let jitter_ns = half.as_nanos().min(u64::MAX as u128) as u64;
    let jitter = Duration::from_nanos(rng.next_below(jitter_ns.saturating_add(1)));
    let hint = Duration::from_millis(hint_ms as u64).min(cap);
    (half + jitter).max(hint)
}

/// A submission awaiting its verdict, kept so a BUSY shed can be
/// retried transparently with the same tag.
struct Pending {
    rel: u64,
    tag: u64,
    poc: Vec<u8>,
    attempts: u32,
}

/// Blocking client mirroring the in-process [`VerifierService`] API.
/// One instance is one session; it is not `Sync` — run one per thread
/// (the soak test does exactly that). Generic over the transport so
/// chaos tests can interpose a fault-injecting stream; `connect`
/// produces the ordinary `TcpStream`-backed client.
///
/// Server sheds are handled transparently: a BUSY (scope Submit)
/// moves that submission to a retry queue and it is re-sent — with
/// its original tag — after capped, jittered backoff. Only when a
/// submission exhausts [`BackoffConfig::max_attempts`] does
/// [`ServiceError::Overloaded`] reach the caller. Shed-and-retried
/// submissions re-enter at retry time, so per-relationship
/// submission order is preserved only among never-shed proofs.
pub struct RemoteVerifier<S = TcpStream> {
    stream: S,
    decoder: FrameDecoder,
    /// The outgoing frame under construction, reused across sends.
    tx: Vec<u8>,
    /// Window granted by the server; `submit` drains verdicts once this
    /// many submissions are outstanding.
    window: u32,
    /// Max frame payload the server accepts; batches are chunked to it.
    max_payload: u32,
    outstanding: usize,
    next_tag: u64,
    /// Verdicts read while waiting for some other frame.
    ready: VecDeque<SubmissionResult>,
    /// Relationships the server has confirmed, for the client-side
    /// `UnknownRelationship` mirror of the in-process API.
    rels: HashSet<u64>,
    next_req: u32,
    /// Submissions awaiting verdicts (bounded by the window), so a
    /// BUSY shed can be retried without the caller resubmitting.
    pending: HashMap<u64, Pending>,
    /// Shed submissions queued for backoff-and-retry.
    shed_q: VecDeque<Pending>,
    backoff: BackoffConfig,
    rng: SimRng,
    shed_notices: u64,
    retries: u64,
    /// Latest retry-after hint from the server, milliseconds.
    retry_hint_ms: u32,
}

impl RemoteVerifier {
    /// Connects and performs the HELLO handshake with the default
    /// overload policy. `window_hint` of 0 accepts the server's
    /// default window.
    pub fn connect(
        addr: impl ToSocketAddrs,
        window_hint: u32,
    ) -> Result<RemoteVerifier, RemoteError> {
        Self::connect_with(addr, window_hint, BackoffConfig::default())
    }

    /// [`connect`](Self::connect) with an explicit overload policy. A
    /// BUSY (scope Connection) answer — the server's ShedConnections
    /// rung — is retried with backoff up to `backoff.max_attempts`
    /// times before [`ServiceError::Overloaded`] surfaces.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        window_hint: u32,
        backoff: BackoffConfig,
    ) -> Result<RemoteVerifier, RemoteError> {
        let mut rng = SimRng::new(backoff.seed).split("connect-jitter");
        let mut attempt = 0u32;
        loop {
            let stream = TcpStream::connect(&addr).map_err(|e| RemoteError::Io(e.kind()))?;
            let _ = stream.set_nodelay(true);
            match RemoteVerifier::handshake(stream, window_hint, backoff) {
                Err(RemoteError::Service(ServiceError::Overloaded { retry_after_ms }))
                    if attempt < backoff.max_attempts =>
                {
                    std::thread::sleep(backoff_delay(&mut rng, &backoff, attempt, retry_after_ms));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

impl<S: Read + Write> RemoteVerifier<S> {
    /// Performs the HELLO handshake over an already-connected
    /// transport. A BUSY answer here means the server shed the whole
    /// connection; it surfaces as [`ServiceError::Overloaded`] (this
    /// entry point does not retry — [`RemoteVerifier::connect_with`]
    /// wraps it with reconnection backoff).
    pub fn handshake(
        stream: S,
        window_hint: u32,
        backoff: BackoffConfig,
    ) -> Result<RemoteVerifier<S>, RemoteError> {
        let mut client = RemoteVerifier {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
            tx: Vec::new(),
            window: 1,
            max_payload: DEFAULT_MAX_PAYLOAD,
            outstanding: 0,
            next_tag: 0,
            ready: VecDeque::new(),
            rels: HashSet::new(),
            next_req: 0,
            pending: HashMap::new(),
            shed_q: VecDeque::new(),
            backoff,
            rng: SimRng::new(backoff.seed).split("retry-jitter"),
            shed_notices: 0,
            retries: 0,
            retry_hint_ms: 0,
        };
        let hello = Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
            window: window_hint,
        };
        client.send_frame(&hello.to_frame())?;
        let frame = client.read_non_verdict()?;
        if frame.kind != FrameKind::HelloAck {
            return Err(RemoteError::Protocol("expected HELLO_ACK"));
        }
        let ack = HelloAck::decode(&frame.payload).map_err(RemoteError::Protocol)?;
        if ack.version != PROTOCOL_VERSION {
            return Err(RemoteError::BadVersion {
                server: ack.version,
            });
        }
        client.window = ack.window.max(1);
        client.max_payload = ack.max_payload;
        Ok(client)
    }

    /// Registers a relationship with the default replay window;
    /// idempotent for the same `(plan, keys)` triple, like the
    /// in-process API.
    pub fn register(
        &mut self,
        plan: DataPlan,
        edge_key: tlc_crypto::PublicKey,
        operator_key: tlc_crypto::PublicKey,
    ) -> Result<RelationshipId, RemoteError> {
        self.register_with_capacity(plan, edge_key, operator_key, DEFAULT_REPLAY_CAPACITY)
    }

    /// [`register`](Self::register) with an explicit replay-cache bound.
    pub fn register_with_capacity(
        &mut self,
        plan: DataPlan,
        edge_key: tlc_crypto::PublicKey,
        operator_key: tlc_crypto::PublicKey,
        capacity: usize,
    ) -> Result<RelationshipId, RemoteError> {
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        let msg = Register {
            req,
            capacity: capacity as u64,
            plan,
            edge_key,
            operator_key,
        };
        self.send_frame(&msg.to_frame())?;
        let frame = self.read_non_verdict()?;
        if frame.kind != FrameKind::Registered {
            return Err(RemoteError::Protocol("expected REGISTERED"));
        }
        let ack = Registered::decode(&frame.payload).map_err(RemoteError::Protocol)?;
        if ack.req != req {
            return Err(RemoteError::Protocol("REGISTERED for a different request"));
        }
        self.rels.insert(ack.rel);
        Ok(RelationshipId::from_raw(ack.rel))
    }

    /// Submits one proof; returns its tag, exactly like the in-process
    /// `submit`. Blocks draining verdicts when the window is full, and
    /// retries any previously shed submissions first.
    pub fn submit(&mut self, rel: RelationshipId, poc: &PocMsg) -> Result<u64, RemoteError> {
        if !self.rels.contains(&rel.raw()) {
            return Err(RemoteError::Service(ServiceError::UnknownRelationship(rel)));
        }
        self.drain_sheds()?;
        while self.outstanding >= self.window as usize {
            self.pull_verdict()?;
        }
        let tag = self.next_tag;
        let p = Pending {
            rel: rel.raw(),
            tag,
            poc: poc.encode(),
            attempts: 0,
        };
        self.send_submit(&p)?;
        self.next_tag += 1;
        self.outstanding += 1;
        self.pending.insert(tag, p);
        Ok(tag)
    }

    /// Submits a batch under one relationship; returns `(first_tag,
    /// count)`. Chunked to respect both the server's frame payload cap
    /// and the per-connection verdict window — a batch wider than the
    /// window is split so it can never wedge against a paused server
    /// that is waiting for this client to drain verdicts.
    pub fn submit_batch<'a>(
        &mut self,
        rel: RelationshipId,
        pocs: impl IntoIterator<Item = &'a PocMsg>,
    ) -> Result<(u64, usize), RemoteError> {
        if !self.rels.contains(&rel.raw()) {
            return Err(RemoteError::Service(ServiceError::UnknownRelationship(rel)));
        }
        let first = self.next_tag;
        let mut count = 0usize;
        let mut chunk: Vec<Vec<u8>> = Vec::new();
        let mut chunk_bytes = 0usize;
        // Stay well under the payload cap: the batch header plus
        // per-item length prefixes ride along.
        let budget = (self.max_payload as usize).saturating_sub(1024);
        let max_items = (self.window as usize).max(1);
        for poc in pocs {
            let bytes = poc.encode();
            if !chunk.is_empty()
                && (chunk_bytes + bytes.len() + 4 > budget || chunk.len() >= max_items)
            {
                self.send_batch_chunk(rel, &mut chunk, &mut chunk_bytes, &mut count)?;
            }
            chunk_bytes += bytes.len() + 4;
            chunk.push(bytes);
        }
        if !chunk.is_empty() {
            self.send_batch_chunk(rel, &mut chunk, &mut chunk_bytes, &mut count)?;
        }
        Ok((first, count))
    }

    fn send_batch_chunk(
        &mut self,
        rel: RelationshipId,
        chunk: &mut Vec<Vec<u8>>,
        chunk_bytes: &mut usize,
        count: &mut usize,
    ) -> Result<(), RemoteError> {
        self.drain_sheds()?;
        // Drain until the whole chunk fits in the window, not merely
        // until one slot opens: the server pauses reads at the window,
        // so sending past it would deadlock submit against verdicts.
        let n = chunk.len();
        while self.outstanding > 0 && self.outstanding + n > self.window as usize {
            self.pull_verdict()?;
        }
        let first = self.next_tag;
        self.send_payload(FrameKind::SubmitBatch, |out| {
            codec::put_submit_batch(out, rel.raw(), first, chunk)
        })?;
        for (k, poc) in chunk.drain(..).enumerate() {
            let tag = first.wrapping_add(k as u64);
            self.pending.insert(
                tag,
                Pending {
                    rel: rel.raw(),
                    tag,
                    poc,
                    attempts: 0,
                },
            );
        }
        self.next_tag += n as u64;
        self.outstanding += n;
        *count += n;
        *chunk_bytes = 0;
        Ok(())
    }

    /// Blocks until every submitted proof has a verdict and returns
    /// them (per relationship, in submission order — the service's own
    /// guarantee, preserved by the ordered byte stream; shed-and-
    /// retried proofs re-enter at retry time, so under overload only
    /// never-shed proofs keep that order).
    ///
    /// If the server goes away first, the same
    /// [`ServiceError::ResultsClosed`] the in-process API raises is
    /// returned, carrying the number of results lost.
    pub fn collect_results(&mut self) -> Result<Vec<SubmissionResult>, RemoteError> {
        let mut out = Vec::with_capacity(self.outstanding + self.ready.len());
        while let Some(r) = self.ready.pop_front() {
            out.push(r);
        }
        while self.outstanding > 0 || !self.shed_q.is_empty() {
            self.drain_sheds()?;
            if self.outstanding == 0 {
                continue;
            }
            match self.pull_verdict() {
                Ok(()) => {
                    while let Some(r) = self.ready.pop_front() {
                        out.push(r);
                    }
                }
                Err(RemoteError::Io(io::ErrorKind::UnexpectedEof))
                | Err(RemoteError::ServerShutdown) => {
                    let outstanding = self.outstanding;
                    self.outstanding = 0;
                    return Err(RemoteError::Service(ServiceError::ResultsClosed {
                        outstanding,
                    }));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Verdicts received so far without blocking for the rest.
    pub fn take_ready(&mut self) -> Vec<SubmissionResult> {
        self.ready.drain(..).collect()
    }

    /// Submissions awaiting verdicts.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The in-flight window granted by the server.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// BUSY (scope Submit) notices received from the server.
    pub fn shed_notices(&self) -> u64 {
        self.shed_notices
    }

    /// Transparent re-submissions performed after sheds.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Shed submissions still queued for retry.
    pub fn shed_pending(&self) -> usize {
        self.shed_q.len()
    }

    /// Shared access to the underlying transport (chaos tests read
    /// fault-injection stats through this).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Requests the server's ingress counters.
    pub fn stats(&mut self) -> Result<IngressStats, RemoteError> {
        self.send_frame(&Frame::new(FrameKind::StatsReq, Vec::new()))?;
        let frame = self.read_non_verdict()?;
        if frame.kind != FrameKind::Stats {
            return Err(RemoteError::Protocol("expected STATS"));
        }
        StatsSnapshot::decode(&frame.payload).map_err(RemoteError::Protocol)
    }

    /// Submits a three-party roaming settlement record for the
    /// server's conservation audit and returns its verdict. Verdicts
    /// and sheds arriving while waiting are absorbed as usual.
    pub fn settle(
        &mut self,
        rel: RelationshipId,
        serving: crate::roaming::Serving,
        charged: u64,
        split: crate::roaming::SettlementSplit,
    ) -> Result<SettleResult, RemoteError> {
        if !self.rels.contains(&rel.raw()) {
            return Err(RemoteError::Service(ServiceError::UnknownRelationship(rel)));
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        let msg = SettleMsg {
            rel: rel.raw(),
            tag,
            serving,
            charged,
            split,
        };
        self.send_frame(&msg.to_frame())?;
        let frame = self.read_non_verdict()?;
        if frame.kind != FrameKind::SettleVerdict {
            return Err(RemoteError::Protocol("expected SETTLE_VERDICT"));
        }
        let v = SettleVerdictMsg::decode(&frame.payload).map_err(RemoteError::Protocol)?;
        if v.tag != tag {
            return Err(RemoteError::Protocol(
                "SETTLE_VERDICT for a different request",
            ));
        }
        Ok(v.result)
    }

    /// Ends the session: the server streams any remaining verdicts
    /// (returned here), acks, and closes. Consumes the client. Shed
    /// submissions are retried first so nothing is silently dropped.
    pub fn goodbye(mut self) -> Result<Vec<SubmissionResult>, RemoteError> {
        self.drain_sheds()?;
        self.send_frame(&Frame::new(FrameKind::Goodbye, Vec::new()))?;
        let frame = self.read_non_verdict()?;
        if frame.kind != FrameKind::GoodbyeAck {
            return Err(RemoteError::Protocol("expected GOODBYE_ACK"));
        }
        self.outstanding = 0;
        Ok(self.ready.drain(..).collect())
    }

    /// Reads frames until one that is not a VERDICT or BUSY arrives;
    /// verdicts encountered on the way are buffered (and count against
    /// `outstanding`), sheds are queued for retry. ERROR frames become
    /// typed errors.
    fn read_non_verdict(&mut self) -> Result<Frame, RemoteError> {
        loop {
            let frame = self.read_frame()?;
            match frame.kind {
                FrameKind::Verdict => self.absorb_verdict(&frame.payload)?,
                FrameKind::Busy => self.absorb_busy(&frame.payload)?,
                FrameKind::Error => return Err(self.map_fault(&frame.payload)),
                _ => return Ok(frame),
            }
        }
    }

    /// Reads exactly one VERDICT into the ready buffer (ERRORs
    /// mapped). A BUSY also counts as progress: it frees a window
    /// slot by moving the shed submission to the retry queue.
    fn pull_verdict(&mut self) -> Result<(), RemoteError> {
        let frame = self.read_frame()?;
        match frame.kind {
            FrameKind::Verdict => self.absorb_verdict(&frame.payload),
            FrameKind::Busy => self.absorb_busy(&frame.payload),
            FrameKind::Error => Err(self.map_fault(&frame.payload)),
            _ => Err(RemoteError::Protocol("expected VERDICT")),
        }
    }

    fn absorb_verdict(&mut self, payload: &[u8]) -> Result<(), RemoteError> {
        let v = VerdictMsg::decode(payload).map_err(RemoteError::Protocol)?;
        self.outstanding = self.outstanding.saturating_sub(1);
        self.pending.remove(&v.tag);
        self.ready.push_back(SubmissionResult {
            relationship: RelationshipId::from_raw(v.rel),
            tag: v.tag,
            shard: v.shard as usize,
            result: v.result,
        });
        Ok(())
    }

    /// Handles a BUSY frame: a Submit-scope shed moves that submission
    /// to the retry queue (typed, never silent); a Connection-scope
    /// shed is the server refusing this whole session, surfaced as
    /// [`ServiceError::Overloaded`].
    fn absorb_busy(&mut self, payload: &[u8]) -> Result<(), RemoteError> {
        let busy = BusyMsg::decode(payload).map_err(RemoteError::Protocol)?;
        self.retry_hint_ms = busy.retry_after_ms;
        match busy.scope {
            BusyScope::Submit => {
                self.shed_notices += 1;
                if let Some(p) = self.pending.remove(&busy.tag) {
                    self.outstanding = self.outstanding.saturating_sub(1);
                    self.shed_q.push_back(p);
                }
                Ok(())
            }
            BusyScope::Connection => Err(RemoteError::Service(ServiceError::Overloaded {
                retry_after_ms: busy.retry_after_ms,
            })),
        }
    }

    /// Re-sends shed submissions after capped, jittered backoff,
    /// reusing each one's original tag so caller-side correlation
    /// holds. Surfaces [`ServiceError::Overloaded`] once a submission
    /// exhausts its retry budget (the submission stays queued, so a
    /// later call can still try again).
    fn drain_sheds(&mut self) -> Result<(), RemoteError> {
        while let Some(mut p) = self.shed_q.pop_front() {
            if p.attempts >= self.backoff.max_attempts {
                let hint = self.retry_hint_ms;
                self.shed_q.push_front(p);
                return Err(RemoteError::Service(ServiceError::Overloaded {
                    retry_after_ms: hint,
                }));
            }
            let delay = backoff_delay(&mut self.rng, &self.backoff, p.attempts, self.retry_hint_ms);
            std::thread::sleep(delay);
            p.attempts += 1;
            self.retries += 1;
            while self.outstanding >= self.window as usize {
                self.pull_verdict()?;
            }
            self.send_submit(&p)?;
            self.outstanding += 1;
            self.pending.insert(p.tag, p);
        }
        Ok(())
    }

    fn map_fault(&self, payload: &[u8]) -> RemoteError {
        match Fault::decode(payload) {
            Ok(Fault::ShardDown { shard }) => RemoteError::Service(ServiceError::ShardDown {
                shard: shard as usize,
            }),
            Ok(Fault::ResultsClosed { outstanding }) => {
                RemoteError::Service(ServiceError::ResultsClosed {
                    outstanding: outstanding as usize,
                })
            }
            Ok(Fault::UnknownRelationship(rel)) => RemoteError::Service(
                ServiceError::UnknownRelationship(RelationshipId::from_raw(rel)),
            ),
            Ok(Fault::BadVersion { server }) => RemoteError::BadVersion { server },
            Ok(Fault::Protocol(detail)) => RemoteError::Protocol(detail),
            Ok(Fault::Shutdown) => RemoteError::ServerShutdown,
            Err(detail) => RemoteError::Protocol(detail),
        }
    }

    fn send_frame(&mut self, frame: &Frame) -> Result<(), RemoteError> {
        self.send_payload(frame.kind, |out| out.extend_from_slice(&frame.payload))
    }

    /// (Re-)sends one submission from the bytes kept for its retry.
    fn send_submit(&mut self, p: &Pending) -> Result<(), RemoteError> {
        self.send_payload(FrameKind::Submit, |out| {
            codec::put_submit(out, p.rel, p.tag, &p.poc)
        })
    }

    /// Sends one frame whose payload `put` writes in place behind the
    /// envelope header, so PoC bytes are copied once: into the buffer
    /// handed to `write_all`.
    fn send_payload(
        &mut self,
        kind: FrameKind,
        put: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), RemoteError> {
        self.tx.clear();
        encode_with(kind, &mut self.tx, put)?;
        self.stream
            .write_all(&self.tx)
            .map_err(|e| RemoteError::Io(e.kind()))
    }

    fn read_frame(&mut self) -> Result<Frame, RemoteError> {
        loop {
            if let Some(f) = self.decoder.next_frame() {
                return Ok(f);
            }
            if let Some(e) = self.decoder.poisoned() {
                return Err(RemoteError::Wire(e));
            }
            let mut buf = [0u8; CLIENT_READ_CHUNK];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(RemoteError::Io(io::ErrorKind::UnexpectedEof)),
                Ok(n) => self.decoder.push(&buf[..n])?,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(RemoteError::Io(e.kind())),
            }
        }
    }
}
