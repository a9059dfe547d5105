//! The verifier's TCP server: one run-to-completion loop per shard,
//! one struct per loop.
//!
//! [`IngressServer::bind`] opens one `SO_REUSEPORT` listener per
//! configured shard and the kernel spreads connections across them. A
//! [`Shard`] owns what its thread touches — listener, readiness
//! registry, buffer pool, connection table, DRR lanes, counters and its
//! own verification [`Stage`]. A connection lives and dies on the shard
//! that accepted it. A relationship does not: the server has one
//! [`Relationships`] table, every shard's stage verifies under it, and
//! a triple registered on any connection of any shard is one id, one
//! verifier, one replay window — a proof presented twice is accepted
//! once wherever the kernel put the two connections. So two things are
//! shared between shards: the open-connection count (a bare atomic) and
//! the table, whose lock order `verify::stage` states — the table's
//! lock for a lookup or a REGISTER, released, then one relationship's
//! lock per batch. A shard waits on another only while both judge
//! batches of the same relationship.
//!
//! One [`Shard::turn`] is gather → verify → reply. It blocks in
//! `tlc_net::readiness` and touches only sockets with something to
//! say: each readable connection is read into a pooled buffer (at most
//! [`READS_PER_WAKEUP`] reads, fewer once one comes up short; an empty
//! pool *defers* the read rather than allocate) and parsed in place
//! with [`split_frame`]; every admitted proof goes to the stage, which
//! verifies a relationship's batch on the spot when it fills, and that
//! batch's verdicts are routed and written before the next frame is
//! parsed; then whatever is still buffered is verified, its verdicts
//! are routed and flushed, and only then does the loop look at the
//! kernel again. Nothing is pending when it blocks, so there is
//! nothing to time out or hand to another thread.
//! A connection that is quarantined, or is not draining the replies
//! queued for it, has its read interest masked and costs no wakeups.
//!
//! No wall-clock time is read anywhere here (clippy's
//! `disallowed_methods`): the loop blocks in the kernel under a fixed
//! wait bound ([`STOP_CHECK_MS`] so the `stop` flag is noticed,
//! [`QUARANTINE_TICK_MS`] while any connection is quarantined), and all
//! ordering comes from the sockets.
//!
//! # Threads
//!
//! A server has exactly [`IngressConfig::shards`] threads (or
//! `TLC_INGRESS_SHARDS`), and `shards` is how it scales across cores —
//! where there are cores to scale across: on a 2-vCPU VM two threads get
//! one CPU's worth of work, which is why a second shard and a worker
//! pool behind a shard both measured worse there (CHANGES.md; ROADMAP's
//! closed list). Neither reading says what they do on a host with free
//! cores. An address that cannot be shared, or an
//! extra shard that cannot be built, shrinks the count; failing to
//! build the first is [`IngressServer::bind`]'s error. `bind` takes a
//! [`ServiceConfig`] because the benchmark passes one, and reads only
//! its `batch_size`.
//!
//! A shard's connection table is a slab whose slot index is the low half
//! of a connection's readiness token and whose high half is a
//! generation ([`slot_of`]), so a verdict finds its connection by
//! indexing and a stale token is one compare. The routes of the turn in
//! progress are a `Vec` whose position is the stage tag, cleared once,
//! in [`Shard::reply`]. A shard grows its DRR lanes to any id the server
//! has issued the first time it meets it. Shutdown sums the 16 frozen
//! [`IngressStats`] counters (the sum and the Prometheus names derive
//! from the codec's one field list) and lines the shards' stage
//! counters up by shard id.
//!
//! *Replay windows are per server.* REGISTER the same triple over two
//! connections and both get the same id whichever shards they landed
//! on, and a proof submitted on both draws one accept and one
//! `Replayed`. So [`IngressConfig::shards`] sets how many threads
//! verify and nothing a client can observe; `UnknownRelationship` means
//! this *server* never issued the id. (Handing the connection to a
//! relationship's home shard at REGISTER was the alternative; it needs
//! a cross-thread wake, which run-to-completion deleted, and a
//! connection may register many relationships.)
//!
//! # One turn
//!
//! A read that returns less than it asked for ends the connection's
//! reads for this wakeup, since the next would only meet `WouldBlock`
//! and readiness is level-triggered — unless the peer hung up, when the
//! next read is the EOF that reaps it. When a frame makes the stage
//! judge a batch, the connection being read is held out of its slot, so
//! routing serves it directly, and the client refills its window while
//! the shard reads on. Flushing the stage before blocking means proofs
//! of one relationship that arrived on different connections in the
//! same gather share a batch. So a depth-1 verdict costs one
//! `epoll_wait`, one read, one ~6 µs verify and one write; a thin
//! relationship's lone proof never waits for a flooding neighbour's
//! batch to fill; under load batches size themselves, because the
//! sockets fill while a batch verifies; and a bulk client and its shard
//! work at once rather than in turns. A frame longer than one wakeup's
//! reads completes on a later wakeup. Not put behind a shard, both
//! measured (CHANGES.md): an idle probe before the flush
//! (flushing every iteration cannot starve a thin relationship behind a
//! flooding one) and a worker pool.
//!
//! # Buffers and backpressure
//!
//! Reads land in [`BufferPool`] buffers sized `HEADER_LEN +
//! max_payload`, so a full buffer always holds a complete frame or a
//! typed oversize violation; a partial frame keeps its buffer across
//! wakeups; a decode error poisons and clears the buffer first. Three
//! things mask a connection's read interest, and a masked connection
//! costs no wakeups: a quarantine sentence, an empty pool (the read is
//! *deferred*, counted in `tlc_ingress_bufpool_exhausted_total`, never
//! allocated for), and an outbox the peer is not draining — more unsent
//! reply bytes than one maximum frame plus its window of the largest
//! VERDICT ([`Conn::outbox_high_water`]). Write interest is armed while
//! the outbox is non-empty, so the writable event that follows the
//! peer's next read re-derives the pause and reads resume as it drains;
//! a peer that never reads is never read, and what the server holds for
//! it stays within one gather of that mark (counted in `pauses`). The
//! in-flight window negotiated at HELLO is the *client's* pipelining
//! budget: every admitted proof is answered before the loop blocks, so
//! the server enforces it only through the debt cap; a client that
//! keeps to its window never reaches the outbox mark. Writes never
//! block the loop. Verdicts for a connection that died are counted:
//! `orphaned + streamed + unclaimed == submissions`.
//!
//! # Fairness and misbehaviour
//!
//! Each registered relationship gets a DRR lane: a credit counter
//! indexed by its dense id. The free admission pool
//! (`shed_submit_watermark − backlog`) is dealt across lanes ([`deal`])
//! in quanta of [`LANE_QUANTUM`] credits (a new lane starts with one
//! quantum), rotating the remainder cursor once per iteration, by the
//! first submission that needs a credit, so an iteration that relays
//! nothing (SETTLE, STATS, an idle tick) deals nothing. A submit spends
//! one credit of its own lane, so a flooding relationship starves only
//! itself (`soak_overload`: one abusive client, well-behaved goodput
//! still 100 % of demand).
//!
//! Protocol-legal-but-hostile behaviour accumulates a per-connection
//! score: submits past the verdict-debt cap (`window × debt_factor`)
//! and replayed proofs score 1, an oversize batch 8, and a proof
//! rejected after it reached the signature batch 3 — one per RSA check
//! it cost, whichever check then failed ([`cost`]). So at the default
//! threshold of 32 the 11th such proof quarantines its connection: reads
//! paused and submits shed for `quarantine_polls` iterations, the score
//! halving at expiry so a reformed client recovers. At
//! `goodbye_threshold` the server sends a typed `ERROR/Protocol` and
//! closes.
//!
//! The unit tests below turn the loop by hand: one credit deal per turn
//! and none for a SETTLE-only one, a refused registration inside an
//! accept batch, a dead connection's verdicts orphaned when its slot
//! already has a new tenant, a judged batch's verdicts readable on the
//! client before the turn's reply (with half the next frame still
//! unread), proofs answered mid-gather still counted toward the
//! watermark, a peer that never reads paused within one gather of the
//! outbox mark and then answered in full, all 16 STATS fields summed
//! across shards, and the DRR deal as a pure function.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use super::codec::{
    BusyMsg, BusyScope, Fault, Hello, HelloAck, Register, Registered, SettleMsg, SettleResult,
    SettleVerdictMsg, StatsSnapshot, SubmitBatchRef, SubmitRef, VerdictMsg, MAGIC,
    PROTOCOL_VERSION,
};
use crate::messages::PocMsg;
use crate::verify::service::{RelationshipId, ServiceConfig, ServiceReport, SubmissionResult};
use crate::verify::stage::{Relationships, Stage};
use crate::verify::{Verdict, VerifyError, DEFAULT_REPLAY_CAPACITY};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tlc_net::bufpool::{BufferPool, PoolStats, PooledBuf};
use tlc_net::ingress::ConnDriver;
use tlc_net::readiness::{raw_fd, Event, Interest, Readiness, Token};
use tlc_net::wire::{split_frame, Frame, FrameKind, DEFAULT_MAX_PAYLOAD, HEADER_LEN};

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
    /// Per-connection in-flight submission window granted in
    /// HELLO_ACK: the client's pipelining budget. The server enforces
    /// it through the debt cap (`debt_factor`), not by masking reads.
    pub window: u32,
    /// Frame payload cap enforced by the decoder before allocation.
    pub max_payload: u32,
    /// Maximum proofs accepted in one SUBMIT_BATCH frame.
    pub max_batch: u32,
    /// Per-gather submit budget: once one gather has admitted this
    /// many proofs, further submits in it are answered with BUSY
    /// instead of relayed.
    pub shed_submit_watermark: usize,
    /// Open-connection cap across every shard (accept-queue pressure
    /// proxy); at or above it new connections are answered with BUSY
    /// and dropped.
    pub max_conns: usize,
    /// Base retry-after hint carried in BUSY frames, milliseconds.
    pub retry_after_ms: u32,
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
    /// address the server runs one. The count changes how many threads
    /// verify and nothing a client can observe: relationship ids,
    /// replay windows and verdicts are the server's, whichever shard a
    /// connection lands on. Defaults from `TLC_INGRESS_SHARDS`.
    pub shards: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            window: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_batch: 1024,
            shed_submit_watermark: 8192,
            max_conns: 1024,
            retry_after_ms: 50,
            debt_factor: 4,
            quarantine_threshold: 32,
            goodbye_threshold: 128,
            quarantine_polls: 256,
            shards: shards_from_env(),
        }
    }
}

/// Ingress-side counters, reported at shutdown and over STATS frames.
pub type IngressStats = StatsSnapshot;

/// Aggregate report returned by [`IngressServer::run`]: the shards'
/// verification counters plus ingress counters.
#[derive(Debug, Clone)]
pub struct IngressReport {
    /// Verification counters, one [`ShardStats`] per ingress shard.
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
    /// (`readiness_ingress` reads its service counters from it).
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
            let per_shard = [
                ("accepted_total", s.accepted),
                ("rejected_total", s.rejected),
                ("relationships", s.relationships as u64),
            ];
            for (name, v) in per_shard {
                let _ = writeln!(out, "tlc_shard_{name}{{shard=\"{}\"}} {v}", s.shard);
            }
        }
        out
    }
}

/// Merges per-shard reports: ingress counters and pool counters sum;
/// the shards' verification counters line up under their shard ids.
fn merge_reports(parts: Vec<IngressReport>, join_panics: usize) -> IngressReport {
    let mut shards = Vec::with_capacity(parts.len());
    let mut unclaimed = 0usize;
    let mut ingress = IngressStats::default();
    let mut pool = PoolStats::default();
    for part in parts {
        shards.extend(part.service.shards);
        unclaimed = unclaimed.saturating_add(part.service.unclaimed_results);
        // The two gauges are zero in a shard's final report, so
        // summing is right for them too.
        ingress.add(&part.ingress);
        pool.checkouts = pool.checkouts.saturating_add(part.pool.checkouts);
        pool.exhausted = pool.exhausted.saturating_add(part.pool.exhausted);
        pool.recycles = pool.recycles.saturating_add(part.pool.recycles);
    }
    IngressReport {
        service: ServiceReport::from_shards(shards, join_panics, unclaimed),
        ingress,
        pool,
    }
}

/// TCP front-end for PoC verification.
///
/// [`run`](Self::run) drives one readiness-driven thread per shard,
/// each owning a disjoint slice of the connections and its own
/// verification stage over the server's one table of relationships.
/// Use [`spawn`](Self::spawn) to run it on a background thread with a
/// stop handle.
pub struct IngressServer {
    /// One per bound listener; never empty.
    shards: Vec<Shard>,
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
        let relationships = Arc::new(Relationships::default());
        let mut shards = Vec::with_capacity(listeners.len());
        for listener in listeners {
            let batch_size = service_config.batch_size;
            let stage = Stage::new(shards.len(), batch_size, Arc::clone(&relationships));
            match Shard::new(listener, stage, config, Arc::clone(&open)) {
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

    /// Runs every shard's loop until `stop` is set — the first on this
    /// thread, the rest on scoped threads of their own — then returns
    /// the combined report. Open sessions receive an ERROR/Shutdown
    /// frame (best-effort) before their sockets drop.
    pub fn run(self, stop: &AtomicBool) -> IngressReport {
        let mut shards = self.shards.into_iter();
        let first = shards.next();
        let mut parts = Vec::new();
        let mut join_panics = 0usize;
        std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .map(|shard| s.spawn(move || shard.run(stop)))
                .collect();
            parts.extend(first.map(|shard| shard.run(stop)));
            for h in handles {
                match h.join() {
                    Ok(part) => parts.push(part),
                    Err(_) => join_panics = join_panics.saturating_add(1),
                }
            }
        });
        merge_reports(parts, join_panics)
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
    /// combined report. The first shard runs on the spawned thread
    /// itself, so a panic there yields `None`; a panic on a later
    /// shard's thread is counted in the report's
    /// `service.worker_panics` and the other shards still report.
    pub fn shutdown(self) -> Option<IngressReport> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().ok()
    }
}

/// Deficit-round-robin quantum: admission credits dealt to each
/// relationship lane per round while capacity is scarce, and the
/// credits a new lane starts with.
const LANE_QUANTUM: u32 = 64;

/// Socket reads per connection per wakeup. Bounds how long one
/// chatty peer can hold the loop; level-triggered readiness
/// re-reports whatever is left.
const READS_PER_WAKEUP: usize = 4;

/// Longest the loop sleeps with nothing to do: the only thing left
/// that the kernel cannot wake it for is the `stop` flag.
const STOP_CHECK_MS: i32 = 10;

/// Wait bound while any connection is quarantined. Sentences are
/// counted in loop iterations (`quarantine_polls`), so bounding the
/// wait whenever one is running bounds every sentence's wall-clock
/// length at `quarantine_polls` milliseconds plus the work of the
/// iterations it spans.
const QUARANTINE_TICK_MS: i32 = 1;

/// Pause after a failed `wait`: a broken registry would otherwise spin.
const BROKEN_REGISTRY_BACKOFF: Duration = Duration::from_micros(200);

/// The largest VERDICT frame (`codec`'s grammar: rel, tag, shard, code
/// byte, the four `u64`s of an accepted verdict). A BUSY is smaller.
const MAX_VERDICT_FRAME: usize = HEADER_LEN + 8 + 8 + 4 + 1 + 4 * 8;

/// Unsent reply bytes every connection may hold before its reads
/// pause, whatever its window: one maximum frame, which covers the
/// replies that are not answers to proofs (REGISTERED, STATS, ...).
const OUTBOX_FLOOR: usize = HEADER_LEN + DEFAULT_MAX_PAYLOAD as usize;

/// Connection phases of the ingress state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing accepted yet but HELLO.
    AwaitHello,
    /// Session established; submissions flow.
    Ready,
    /// Marked for removal at the next refresh.
    Closed,
}

struct Conn {
    /// The readiness token the socket is registered under, and the
    /// connection's id: `generation << 32 | slot`.
    token: Token,
    driver: ConnDriver<TcpStream>,
    phase: Phase,
    /// Submissions relayed to the stage, verdicts not yet returned.
    in_flight: u32,
    /// Window granted to this connection in HELLO_ACK.
    window: u32,
    /// Peer sent GOODBYE: drain in-flight verdicts, ack, close.
    goodbye: bool,
    /// Misbehavior score: rejected proofs (by what they cost), oversize
    /// bursts, window abuse.
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

impl Conn {
    /// Queues a frame, closing the connection if the outbox rejects it
    /// (payload over the codec's length range — impossible for
    /// protocol-layer frames, but stay total).
    fn send(&mut self, frame: &Frame) {
        if self.driver.queue(frame).is_err() {
            self.phase = Phase::Closed;
        }
    }

    /// The typed farewell: queues the fault, pushes it at the socket
    /// now (best-effort), and closes.
    fn close_with(&mut self, fault: Fault) {
        let _ = self.driver.queue(&fault.to_frame());
        let _ = self.driver.flush();
        self.phase = Phase::Closed;
    }

    /// After GOODBYE, once every in-flight verdict has been streamed,
    /// acknowledge and close.
    fn maybe_finish_goodbye(&mut self) {
        if self.goodbye && self.in_flight == 0 {
            self.send(&Frame::new(FrameKind::GoodbyeAck, Vec::new()));
            self.phase = Phase::Closed;
        }
    }

    /// Unsent reply bytes above which reads pause until the peer
    /// drains: the floor plus a window of the largest answer a proof
    /// can draw. A client with at most `window` proofs unanswered
    /// therefore never reaches it, and cannot deadlock a blocking
    /// write against it.
    fn outbox_high_water(&self) -> usize {
        OUTBOX_FLOOR.saturating_add((self.window as usize).saturating_mul(MAX_VERDICT_FRAME))
    }
}

/// Where an admitted proof's verdict goes: the connection that sent
/// it, and the tag that connection knows it by.
struct Route {
    conn: Token,
    client_tag: u64,
}

fn slot_of(token: Token) -> usize {
    usize::try_from(token.0 & u64::from(u32::MAX)).unwrap_or(usize::MAX)
}

/// Deals `pool` admission credits across `credits`' lanes,
/// deficit-round-robin: every lane gets the same whole number of
/// `quantum`s, and the remainder goes out a quantum at a time (the last
/// one possibly short) to the lanes from `cursor` on. `quantum` is at
/// least 1.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "divides by quantum·n ≥ 1 and by n > 0, takes `give ≤ rem` from `rem`, and keeps k < n"
)]
fn deal(pool: usize, quantum: usize, credits: &mut [u32], cursor: usize) {
    let n = credits.len();
    if n == 0 {
        return;
    }
    let per_round = quantum.saturating_mul(n);
    let clamp = |share: usize| u32::try_from(share).unwrap_or(u32::MAX);
    let base = (pool / per_round).saturating_mul(quantum);
    credits.fill(clamp(base));
    let mut rem = pool % per_round;
    let mut k = cursor % n;
    while rem > 0 {
        let give = quantum.min(rem);
        credits[k] = clamp(base.saturating_add(give));
        rem -= give;
        k = (k + 1) % n;
    }
}

/// Misbehavior points a verdict scores against the connection that
/// sent the proof: what rejecting it cost. A proof that reached the
/// signature batch cost three RSA checks and scores three, whichever
/// check then failed; a replay, caught by one window lookup, scores
/// one. An accepted proof scores nothing, and neither does an unknown
/// relationship id, which costs one table lookup.
fn cost(result: &Result<Verdict, VerifyError>) -> u32 {
    match result {
        Err(
            VerifyError::Signature(_)
            | VerifyError::PlanMismatch
            | VerifyError::NonceMismatch
            | VerifyError::SequenceMismatch
            | VerifyError::ChargeMismatch { .. },
        ) => 3,
        Err(VerifyError::Replayed) => 1,
        Ok(_) | Err(VerifyError::Unregistered) => 0,
    }
}

/// One shard: what one event thread touches. The admission ladder,
/// the frame handlers and [`turn`](Self::turn) are its methods, so
/// shed/DRR/misbehavior decisions stay shard-local and lock-free.
struct Shard {
    listener: TcpListener,
    ready: Readiness,
    pool: BufferPool,
    config: IngressConfig,
    /// The connection table, a slab: a connection stays in its slot
    /// for life and is found by the low half of its token. While the
    /// loop works on a connection it holds it *out* of its slot
    /// ([`take`](Self::take) … [`put`](Self::put) or
    /// [`release`](Self::release)); boxed, so that moves a pointer
    /// (moving the 136-byte `Conn` itself read 3 % off `verify_single`).
    slots: Vec<Option<Box<Conn>>>,
    /// Vacant slots, reused last-freed-first.
    free: Vec<usize>,
    /// High half of the next token: bumped per admission, so a slot's
    /// next tenant never answers to its last one's token.
    generation: u32,
    /// Connections open across every shard of this server, checked
    /// against `max_conns` at admission. A bare count: it publishes no
    /// other data, so every access is `Relaxed`.
    open: Arc<AtomicUsize>,
    /// Connections whose read was deferred because the pool was empty;
    /// re-armed as buffers return.
    deferred: Vec<Token>,
    /// Connections currently serving a quarantine sentence — lets the
    /// loop skip quarantine ticking entirely in the (typical) case of
    /// zero quarantined peers.
    quarantined: usize,
    /// Verifies what a gather admitted, under the server's table of
    /// relationships; flushed before the loop blocks, so empty whenever
    /// it waits.
    stage: Stage,
    /// One entry per proof admitted in this turn, answered or not; its
    /// position is the tag the stage knows the proof by, and its length
    /// the shard's backlog. Cleared once per turn, after the reply.
    routes: Vec<Route>,
    /// Per-relationship admission lanes for deficit-round-robin
    /// fairness, indexed by raw relationship id: the credits left until
    /// the next deal. A submit needs one to be admitted. Grown to cover
    /// an id when this shard first meets it ([`lane`](Self::lane)).
    credits: Vec<u32>,
    /// Rotates the deal's start so remainder quanta spread fairly.
    rr_cursor: usize,
    /// Credits were dealt in the current turn.
    dealt: bool,
    stats: IngressStats,
    /// Scratch, empty between turns: what `wait` reported, and the
    /// connections the reply phase must refresh (may repeat).
    events: Vec<Event>,
    touched: Vec<Token>,
}

impl Shard {
    /// A shard verifying on `stage`; fails only if the readiness
    /// registry cannot be built.
    fn new(
        listener: TcpListener,
        stage: Stage,
        config: IngressConfig,
        open: Arc<AtomicUsize>,
    ) -> io::Result<Shard> {
        let mut ready = Readiness::new()?;
        ready.register(raw_fd(&listener), Token::LISTENER, Interest::READ)?;
        // One max-size frame per buffer: a full buffer therefore
        // always contains a complete frame or an oversize error, so
        // parsing can never deadlock on "need more room".
        let buf_size = HEADER_LEN.saturating_add(config.max_payload as usize);
        let capacity = (config.max_conns / 4).clamp(64, 512);
        Ok(Shard {
            listener,
            ready,
            pool: BufferPool::new(capacity, buf_size),
            config,
            slots: Vec::new(),
            free: Vec::new(),
            generation: 0,
            open,
            deferred: Vec::new(),
            quarantined: 0,
            stage,
            routes: Vec::new(),
            credits: Vec::new(),
            rr_cursor: 0,
            dealt: false,
            stats: IngressStats::default(),
            events: Vec::new(),
            touched: Vec::new(),
        })
    }

    /// The loop, until `stop`; then a best-effort shutdown notice to
    /// every open session and the shard's final report.
    fn run(mut self, stop: &AtomicBool) -> IngressReport {
        while !stop.load(Ordering::Relaxed) {
            self.turn();
        }
        for conn in self.slots.iter_mut().flatten() {
            if conn.phase == Phase::Ready {
                conn.close_with(Fault::Shutdown);
            }
        }
        let (shard, unclaimed) = self.stage.finish();
        IngressReport {
            service: ServiceReport::from_shards(vec![shard], 0, unclaimed.len()),
            ingress: self.stats,
            // Taken while the connections still hold their buffers:
            // those are intentionally *not* recycles.
            pool: self.pool.stats(),
        }
    }

    /// One iteration: gather → verify → reply. Blocks until a socket is
    /// ready (or the wait bound passes) and returns with nothing
    /// pending: every proof the wakeup admitted has its verdict queued
    /// and flushed towards its socket.
    fn turn(&mut self) {
        let timeout = if self.quarantined > 0 {
            QUARANTINE_TICK_MS
        } else {
            STOP_CHECK_MS
        };
        let mut events = std::mem::take(&mut self.events);
        if self.ready.wait(&mut events, timeout).is_err() {
            std::thread::sleep(BROKEN_REGISTRY_BACKOFF);
        } else {
            // Gather. Full batches verify as they fill.
            self.dealt = false;
            for ev in events.iter().copied() {
                match ev.token {
                    Token::LISTENER => self.accept_ready(),
                    _ => self.conn_event(ev),
                }
            }
            self.reply();
        }
        self.events = events;
    }

    /// The second half of a turn: verify what the gather left buffered,
    /// route every verdict, and refresh exactly the connections that
    /// got frames queued. The turn's routes go here, and with them the
    /// backlog the shed ladder reads.
    fn reply(&mut self) {
        self.stage.flush();
        let results = self.stage.take_results();
        self.pump_verdicts(results, None);
        self.routes.clear();
        self.refresh_touched();

        // Quarantine sentences tick per loop iteration; the wait is
        // bounded while any is running.
        if self.quarantined > 0 {
            self.tick_quarantines();
            self.refresh_touched();
        }

        // Buffers came back: wake the starved readers.
        if !self.deferred.is_empty() && self.pool.available() > 0 {
            for token in std::mem::take(&mut self.deferred) {
                if let Some(mut conn) = self.take(token) {
                    conn.deferred = false;
                    self.refresh(conn);
                }
            }
        }
    }

    /// Takes the connection `token` names out of its slot; `None` for
    /// a token whose connection is gone, even if the slot has a new
    /// tenant.
    fn take(&mut self, token: Token) -> Option<Box<Conn>> {
        let slot = self.slots.get_mut(slot_of(token))?;
        if slot.as_ref()?.token != token {
            return None;
        }
        slot.take()
    }

    /// Returns a connection to the slot [`take`](Self::take) found it in.
    fn put(&mut self, conn: Box<Conn>) {
        if let Some(slot) = self.slots.get_mut(slot_of(conn.token)) {
            *slot = Some(conn);
        }
    }

    /// The end of a connection: deregisters the socket, frees the slot
    /// and accounts the close. The caller drops `conn`, which closes
    /// the socket and hands any pooled buffer back.
    fn release(&mut self, conn: &Conn) {
        let _ = self.ready.deregister(raw_fd(conn.driver.stream()));
        self.free.push(slot_of(conn.token));
        self.open.fetch_sub(1, Ordering::Relaxed);
        if conn.quarantine > 0 {
            self.quarantined = self.quarantined.saturating_sub(1);
        }
        self.stats.connections_closed = self.stats.connections_closed.saturating_add(1);
    }

    /// Proofs admitted in the gather in progress, including those whose
    /// batch was already judged and answered mid-gather: the turn's
    /// work, which the shed ladder budgets. Zero whenever the loop
    /// blocks.
    fn outstanding(&self) -> usize {
        self.routes.len()
    }

    /// Accepts and admits every connection pending on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Whether this gather has spent its submit budget: every further
    /// submit in it draws BUSY.
    fn shedding_submits(&self) -> bool {
        self.outstanding() >= self.config.shed_submit_watermark
    }

    /// Admits one freshly accepted stream — a slot, a token, read
    /// interest — or sheds it with a typed BUSY answer.
    fn admit(&mut self, mut stream: TcpStream) {
        // The table never outgrows the cap, so a slot index always
        // fits a token's low half and no token is `Token::LISTENER`.
        let cap = self.config.max_conns.clamp(1, u32::MAX as usize);
        // The slot is claimed in the same step that checks the cap, so
        // shards admitting at once cannot overshoot it together.
        let claimed = self
            .open
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n.saturating_add(1))
            })
            .is_ok();
        if !claimed {
            // A full table: answer with a typed BUSY (blocking write of
            // one tiny frame) and drop, rather than resetting the peer
            // with no explanation. The longer hint reflects that a
            // whole-connection shed signals deeper trouble than a
            // single shed submit.
            self.stats.shed_connections = self.stats.shed_connections.saturating_add(1);
            let busy = BusyMsg {
                scope: BusyScope::Connection,
                retry_after_ms: self.config.retry_after_ms.saturating_mul(4),
                rel: 0,
                tag: 0,
            };
            if let Ok(bytes) = busy.to_frame().encode() {
                let _ = stream.write_all(&bytes);
            }
            return;
        }
        // A socket stuck in blocking mode would stall the entire loop
        // on its next read, so a stream whose mode cannot be set is
        // rejected outright and counted — never admitted half-broken.
        if stream.set_nonblocking(true).is_err() {
            self.open.fetch_sub(1, Ordering::Relaxed);
            self.stats.rejected_malformed = self.stats.rejected_malformed.saturating_add(1);
            return;
        }
        // Low latency is best-effort; failure leaves default options.
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len().saturating_sub(1)
        });
        let token = Token(u64::from(self.generation) << 32 | slot as u64);
        self.generation = self.generation.wrapping_add(1);
        let fd = raw_fd(&stream);
        let conn = Box::new(Conn {
            token,
            driver: ConnDriver::new(stream),
            phase: Phase::AwaitHello,
            in_flight: 0,
            window: self.config.window,
            goodbye: false,
            score: 0,
            quarantine: 0,
            buf: None,
            armed: Interest::READ,
            deferred: false,
        });
        self.stats.connections = self.stats.connections.saturating_add(1);
        if self.ready.register(fd, token, Interest::READ).is_ok() {
            self.put(conn);
        } else {
            // Unwatchable socket: close it now rather than carrying a
            // connection that can never wake us.
            self.release(&conn);
        }
    }

    /// One readiness notification for a connection.
    fn conn_event(&mut self, ev: Event) {
        // A stale token: reaped earlier in this same batch.
        let Some(mut conn) = self.take(ev.token) else {
            return;
        };
        if ev.readable || ev.closed {
            self.read_conn(&mut conn, ev.closed);
        }
        // Writable (outbox draining), closed, or post-read state
        // changes all funnel through one refresh.
        self.refresh(conn);
    }

    /// Reads and processes inbound bytes for `conn`, zero-copy out of
    /// a pooled buffer. `hangup`: the kernel reported the peer closed,
    /// so a read after a short one meets EOF rather than `WouldBlock`
    /// and is worth making — the connection is reaped this wakeup.
    fn read_conn(&mut self, conn: &mut Conn, hangup: bool) {
        if conn.phase == Phase::Closed || conn.driver.paused() {
            return;
        }
        let Some(mut buf) = conn.buf.take().or_else(|| self.pool.checkout()) else {
            // Pool dry: defer — never allocate around the pool.
            // Level-triggered readiness re-reports the socket once we
            // re-arm.
            if !conn.deferred {
                conn.deferred = true;
                self.deferred.push(conn.token);
            }
            return;
        };
        for _ in 0..READS_PER_WAKEUP {
            match conn.driver.read_step(&mut buf) {
                Ok(step) if step.bytes == 0 => break,
                // A short read drained the socket: a further read would
                // only return `WouldBlock`, and anything arriving later
                // is reported again (level-triggered).
                Ok(step) => {
                    if self.parse_frames(conn, &mut buf) || (step.short && !hangup) {
                        break;
                    }
                }
                Err(_) => {
                    conn.phase = Phase::Closed;
                    break;
                }
            }
        }
        // An empty buffer drops here, back to the pool.
        if !buf.is_empty() {
            conn.buf = Some(buf);
        }
    }

    /// Parses every complete frame out of `buf` in place and handles
    /// each as a borrowed view, answering any batch a frame filled
    /// before parsing the next. Returns true when the connection
    /// closed (fault or handler decision) and reading should stop.
    fn parse_frames(&mut self, conn: &mut Conn, buf: &mut Vec<u8>) -> bool {
        let mut off = 0;
        let mut fault = false;
        while conn.phase != Phase::Closed {
            match split_frame(&buf[off..], self.config.max_payload) {
                Ok(Some((view, used))) => {
                    self.handle_frame(conn, view.kind, view.payload);
                    off = off.saturating_add(used);
                    self.stream_verdicts(conn);
                }
                Ok(None) => break,
                Err(_) => {
                    fault = true;
                    break;
                }
            }
        }
        buf.drain(..off);
        if fault {
            // The stream cannot be resynced: typed close, and the
            // poisoned bytes never touch another connection — the
            // buffer is cleared before recycling.
            self.protocol_fault(conn, "framing violation");
            buf.clear();
        }
        conn.phase == Phase::Closed
    }

    /// Re-derives `conn`'s liveness, pause state, and kernel interest
    /// after anything changed: flushes the outbox, reaps if finished,
    /// otherwise updates pause bookkeeping and the registered interest
    /// (skipping no-op syscalls) and puts the connection back.
    fn refresh(&mut self, mut conn: Box<Conn>) {
        if conn.driver.flush().is_err() {
            conn.phase = Phase::Closed;
        }
        let at_eof = conn.driver.at_eof();
        let outbox = conn.driver.outbox_bytes();
        let closed = conn.phase == Phase::Closed;
        // Reap when closed with nothing left to drain (or a dead
        // socket), or on clean EOF with an empty outbox. A closed
        // connection stays while its farewell bytes are still
        // draining and the socket is healthy.
        if (closed && (outbox == 0 || at_eof)) || (at_eof && outbox == 0) {
            return self.release(&conn);
        }
        // Reads pause for a quarantine sentence, and while the peer is
        // not draining what it has already been sent — the writable
        // event that follows its next read of the socket lands here
        // again and lifts the pause.
        let want_pause = conn.quarantine > 0 || outbox > conn.outbox_high_water();
        if want_pause {
            if !conn.driver.paused() {
                self.stats.pauses = self.stats.pauses.saturating_add(1);
            }
            conn.driver.pause();
        } else if !closed {
            conn.driver.resume();
        }
        let interest = Interest {
            readable: !want_pause && !closed && !at_eof && !conn.deferred,
            writable: outbox > 0,
        };
        if conn.armed != interest {
            let fd = raw_fd(conn.driver.stream());
            if self.ready.modify(fd, conn.token, interest).is_ok() {
                conn.armed = interest;
            }
        }
        self.put(conn);
    }

    /// Refreshes every connection the reply phase touched.
    fn refresh_touched(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        for token in touched.drain(..) {
            if let Some(conn) = self.take(token) {
                self.refresh(conn);
            }
        }
        self.touched = touched;
    }

    /// Counts a protocol violation and closes with a typed fault.
    fn protocol_fault(&mut self, conn: &mut Conn, detail: &'static str) {
        self.stats.protocol_errors = self.stats.protocol_errors.saturating_add(1);
        conn.close_with(Fault::Protocol(detail));
    }

    /// Dispatches one inbound frame: the kind and a payload borrowed
    /// ([`tlc_net::wire::FrameRef`]) straight out of a pooled buffer.
    fn handle_frame(&mut self, conn: &mut Conn, kind: FrameKind, payload: &[u8]) {
        match (conn.phase, kind) {
            (Phase::AwaitHello, FrameKind::Hello) => self.handle_hello(conn, payload),
            (Phase::AwaitHello, _) => self.protocol_fault(conn, "expected HELLO"),
            (Phase::Ready, FrameKind::Register) => self.handle_register(conn, payload),
            (Phase::Ready, FrameKind::Submit) => self.handle_submit(conn, payload),
            (Phase::Ready, FrameKind::SubmitBatch) => self.handle_submit_batch(conn, payload),
            (Phase::Ready, FrameKind::StatsReq) => {
                conn.send(&self.stats_snapshot().to_frame(FrameKind::Stats));
            }
            (Phase::Ready, FrameKind::Settle) => self.handle_settle(conn, payload),
            (Phase::Ready, FrameKind::Goodbye) => {
                conn.goodbye = true;
                conn.maybe_finish_goodbye();
            }
            (Phase::Ready, _) => self.protocol_fault(conn, "unexpected frame kind"),
            (Phase::Closed, _) => {}
        }
    }

    fn handle_hello(&mut self, conn: &mut Conn, payload: &[u8]) {
        let hello = match Hello::decode(payload) {
            Ok(h) => h,
            Err(detail) => return self.protocol_fault(conn, detail),
        };
        if hello.magic != MAGIC {
            return self.protocol_fault(conn, "bad magic");
        }
        if hello.version != PROTOCOL_VERSION {
            self.stats.protocol_errors = self.stats.protocol_errors.saturating_add(1);
            return conn.close_with(Fault::BadVersion {
                server: PROTOCOL_VERSION,
            });
        }
        // Window 0 means "server's choice"; otherwise grant at most the
        // configured window.
        let granted = if hello.window == 0 {
            self.config.window
        } else {
            hello.window.min(self.config.window)
        };
        conn.window = granted.max(1);
        conn.phase = Phase::Ready;
        let ack = HelloAck {
            version: PROTOCOL_VERSION,
            window: conn.window,
            max_payload: self.config.max_payload,
        };
        conn.send(&ack.to_frame());
    }

    /// Audits a three-party roaming settlement record: replays the
    /// conservation law `home + visited + vendor == charged` and
    /// answers with a SETTLE_VERDICT (DESIGN §14). The audit is
    /// stateless — a split either conserves the charged volume or it
    /// does not — so it costs no crypto and never touches the stage.
    fn handle_settle(&mut self, conn: &mut Conn, payload: &[u8]) {
        let settle = match SettleMsg::decode(payload) {
            Ok(s) => s,
            Err(detail) => return self.protocol_fault(conn, detail),
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
        conn.send(&verdict.to_frame());
    }

    fn handle_register(&mut self, conn: &mut Conn, payload: &[u8]) {
        let reg = match Register::decode(payload) {
            Ok(r) => r,
            Err(detail) => return self.protocol_fault(conn, detail),
        };
        // Capacity 0 means "server default", mirroring window 0 in
        // HELLO, and so does anything above the default. This is also
        // hardening: the in-process API asserts a replay capacity that
        // is positive and fits the window's `u32` index, and wire input
        // must never be able to trip an assert on the shard's thread
        // (the window grows as it fills, so the ceiling costs a client
        // that never reaches it nothing).
        let capacity = match usize::try_from(reg.capacity) {
            Ok(n) if (1..=DEFAULT_REPLAY_CAPACITY).contains(&n) => n,
            _ => DEFAULT_REPLAY_CAPACITY,
        };
        let rel = self
            .stage
            .register(reg.plan, reg.edge_key, reg.operator_key, capacity);
        // Seeds the lane now, whichever shard issued the id first.
        self.lane(rel.raw());
        self.stats.registers = self.stats.registers.saturating_add(1);
        let ack = Registered {
            req: reg.req,
            rel: rel.raw(),
        };
        conn.send(&ack.to_frame());
    }

    /// The admission lane of relationship `rel_raw`, if the server has
    /// issued that id. Ids are dense, so the lanes grow to the highest
    /// one met — issued here or by another shard — each new lane seeded
    /// with one quantum so a client pipelining REGISTER+SUBMIT is not
    /// shed before the next credit deal.
    fn lane(&mut self, rel_raw: u64) -> Option<&mut u32> {
        let k = usize::try_from(rel_raw).ok()?;
        if k >= self.credits.len() && rel_raw < self.stage.issued() {
            self.credits.resize(k.saturating_add(1), LANE_QUANTUM);
        }
        self.credits.get_mut(k)
    }

    /// Deals the free admission pool (`shed_submit_watermark` minus the
    /// shard's backlog) to relationship lanes ([`deal`]), the
    /// remainder's start rotating from deal to deal. One flooding
    /// relationship therefore exhausts only its own credits — thin
    /// lanes keep their full share and their submits keep flowing.
    /// Dealt once per turn, by the first submission that needs a
    /// credit: a turn that relays nothing (SETTLE, STATS, an idle tick)
    /// deals nothing.
    fn deal_credits(&mut self) {
        self.dealt = true;
        let pool = self
            .config
            .shed_submit_watermark
            .saturating_sub(self.outstanding());
        self.rr_cursor = NonZeroUsize::new(self.credits.len())
            .map_or(0, |n| self.rr_cursor.saturating_add(1) % n);
        deal(
            pool,
            LANE_QUANTUM as usize,
            &mut self.credits,
            self.rr_cursor,
        );
    }

    /// Sheds one submission with a typed BUSY answer — the ladder's
    /// guarantee that overload is never a silent drop. The shed proof
    /// never reached the stage (or its replay window), so the client
    /// can resubmit it verbatim after the delay.
    fn shed_submit(&mut self, conn: &mut Conn, rel: u64, tag: u64) {
        self.stats.shed_overload = self.stats.shed_overload.saturating_add(1);
        let busy = BusyMsg {
            scope: BusyScope::Submit,
            retry_after_ms: self.config.retry_after_ms,
            rel,
            tag,
        };
        conn.send(&busy.to_frame());
    }

    /// Raises `conn`'s misbehavior score and escalates: quarantine at
    /// the first threshold, a typed goodbye at the second.
    fn bump_score(&mut self, conn: &mut Conn, points: u32) {
        let quarantine_at = self.config.quarantine_threshold.max(1);
        let goodbye_at = self.config.goodbye_threshold.max(1);
        conn.score = conn.score.saturating_add(points);
        if conn.score >= goodbye_at {
            self.stats.misbehavior_closes = self.stats.misbehavior_closes.saturating_add(1);
            conn.close_with(Fault::Protocol("misbehavior limit exceeded"));
        } else if conn.score >= quarantine_at && conn.quarantine == 0 {
            conn.quarantine = self.config.quarantine_polls.max(1);
            self.stats.quarantines = self.stats.quarantines.saturating_add(1);
            self.quarantined = self.quarantined.saturating_add(1);
        }
    }

    fn handle_submit(&mut self, conn: &mut Conn, payload: &[u8]) {
        // Borrowed decode: the PoC bytes go straight from the frame
        // payload (a pooled read buffer) into the stage without an
        // intermediate copy.
        let sub = match SubmitRef::decode(payload) {
            Ok(s) => s,
            Err(detail) => return self.protocol_fault(conn, detail),
        };
        self.relay_submission(conn, sub.rel, sub.tag, sub.poc);
    }

    fn handle_submit_batch(&mut self, conn: &mut Conn, payload: &[u8]) {
        let batch = match SubmitBatchRef::decode(payload) {
            Ok(b) => b,
            Err(detail) => return self.protocol_fault(conn, detail),
        };
        if batch.pocs.len() as u64 > self.config.max_batch as u64 {
            // An oversize burst is misbehavior, not a framing fault:
            // answer with a typed error, score it, and let escalation
            // (quarantine, then goodbye) close repeat offenders.
            self.stats.protocol_errors = self.stats.protocol_errors.saturating_add(1);
            conn.send(&Fault::Protocol("batch exceeds server limit").to_frame());
            return self.bump_score(conn, 8);
        }
        for (k, poc) in batch.pocs.iter().enumerate() {
            if conn.phase == Phase::Closed {
                break;
            }
            self.relay_submission(conn, batch.rel, batch.first_tag.wrapping_add(k as u64), poc);
        }
    }

    /// Decodes one PoC and hands it to the stage with the bytes it was
    /// decoded from, recording the route for the verdict on the way
    /// back. Nothing is hashed here: the stage hashes a whole batch's
    /// received bytes when it judges the batch.
    fn relay_submission(
        &mut self,
        conn: &mut Conn,
        rel_raw: u64,
        client_tag: u64,
        poc_bytes: &[u8],
    ) {
        let poc = match PocMsg::decode(poc_bytes) {
            Ok(poc) => poc,
            // An undecodable PoC is a client bug, not a verdict: the
            // in-process API takes `PocMsg` values, so decode failures
            // cannot reach `submit` there either.
            Err(_) => return self.protocol_fault(conn, "undecodable PoC payload"),
        };
        // Admission ladder, checked before the stage sees the proof:
        // quarantine, per-conn verdict debt, the gather's submit
        // budget, then the relationship lane's DRR credit.
        if conn.quarantine > 0 {
            return self.shed_submit(conn, rel_raw, client_tag);
        }
        let debt_cap = conn.window.saturating_mul(self.config.debt_factor.max(1));
        if conn.in_flight >= debt_cap {
            // A client this deep past its granted window is ignoring
            // flow control: shed and score.
            self.shed_submit(conn, rel_raw, client_tag);
            return self.bump_score(conn, 1);
        }
        if self.shedding_submits() {
            return self.shed_submit(conn, rel_raw, client_tag);
        }
        if !self.dealt {
            self.deal_credits();
        }
        let Some(credits) = self.lane(rel_raw) else {
            // No lane: an id this server never issued. The session
            // stays open (its other relationships still work),
            // mirroring the in-process API where this is a recoverable
            // `Err` return.
            return conn.send(&Fault::UnknownRelationship(rel_raw).to_frame());
        };
        if *credits == 0 {
            return self.shed_submit(conn, rel_raw, client_tag);
        }
        *credits = credits.saturating_sub(1);
        let tag = self.routes.len() as u64;
        self.routes.push(Route {
            conn: conn.token,
            client_tag,
        });
        self.stage
            .submit(RelationshipId::from_raw(rel_raw), tag, poc, poc_bytes);
        self.stats.submissions = self.stats.submissions.saturating_add(1);
        conn.in_flight = conn.in_flight.saturating_add(1);
    }

    /// Mid-gather: the frame just handled made the stage judge a batch.
    /// Its verdicts are routed and written now, before the next frame
    /// is parsed, so the client refills its window while the shard
    /// reads on. `conn` is the connection being read, out of its slot;
    /// its own refresh follows the read.
    fn stream_verdicts(&mut self, conn: &mut Conn) {
        let results = self.stage.take_results();
        if results.is_empty() {
            return;
        }
        self.pump_verdicts(results, Some(conn));
        if conn.driver.flush().is_err() {
            conn.phase = Phase::Closed;
        }
        self.refresh_touched();
    }

    /// Routes verdicts back to their connections, noting every
    /// connection that had one queued so the caller can refresh
    /// exactly those — flush, re-arm write interest, reap — without an
    /// O(conns) sweep. A verdict for `held`, the connection the gather
    /// holds out of its slot, is queued on it directly. Routes stay
    /// until the turn ends.
    fn pump_verdicts(&mut self, results: Vec<SubmissionResult>, mut held: Option<&mut Conn>) {
        for r in results {
            let route = usize::try_from(r.tag)
                .ok()
                .and_then(|tag| self.routes.get(tag));
            let Some(&Route { conn, client_tag }) = route else {
                // A tag the server never issued cannot come back; stay
                // total and count it rather than panic.
                self.stats.orphaned_verdicts = self.stats.orphaned_verdicts.saturating_add(1);
                continue;
            };
            match r.result {
                Ok(_) => self.stats.accepted = self.stats.accepted.saturating_add(1),
                Err(_) => {
                    self.stats.rejected_malformed = self.stats.rejected_malformed.saturating_add(1)
                }
            }
            match held.as_deref_mut() {
                Some(held) if held.token == conn => self.answer(held, client_tag, r),
                _ => match self.take(conn) {
                    Some(mut conn) => {
                        self.answer(&mut conn, client_tag, r);
                        self.put(conn);
                    }
                    // Client disconnected mid-batch: the verdict is
                    // discarded deterministically and counted.
                    None => {
                        self.stats.orphaned_verdicts =
                            self.stats.orphaned_verdicts.saturating_add(1)
                    }
                },
            }
        }
    }

    /// Queues one verdict on the connection that submitted the proof,
    /// under the tag that connection knows it by.
    fn answer(&mut self, conn: &mut Conn, client_tag: u64, r: SubmissionResult) {
        conn.in_flight = conn.in_flight.saturating_sub(1);
        self.touched.push(conn.token);
        if conn.phase == Phase::Closed {
            self.stats.orphaned_verdicts = self.stats.orphaned_verdicts.saturating_add(1);
            return;
        }
        let points = cost(&r.result);
        let msg = VerdictMsg {
            rel: r.relationship.raw(),
            tag: client_tag,
            shard: u32::try_from(r.shard).unwrap_or(u32::MAX),
            result: r.result,
        };
        self.stats.verdicts = self.stats.verdicts.saturating_add(1);
        conn.send(&msg.to_frame());
        if points > 0 {
            self.bump_score(conn, points);
        }
        if conn.phase != Phase::Closed {
            conn.maybe_finish_goodbye();
        }
    }

    /// Ticks every active quarantine sentence down by one; at expiry
    /// the score halves, so a reformed client recovers while a repeat
    /// offender re-escalates. Freshly released connections are noted
    /// for a refresh, which re-arms their reads.
    fn tick_quarantines(&mut self) {
        for conn in self.slots.iter_mut().flatten() {
            if conn.quarantine > 0 {
                conn.quarantine = conn.quarantine.saturating_sub(1);
                if conn.quarantine == 0 {
                    conn.score /= 2;
                    self.quarantined = self.quarantined.saturating_sub(1);
                    self.touched.push(conn.token);
                }
            }
        }
    }

    fn stats_snapshot(&self) -> IngressStats {
        let mut s = self.stats;
        s.open_connections = self.slots.len().saturating_sub(self.free.len()) as u64;
        s.service_outstanding = self.outstanding() as u64;
        s
    }
}

#[cfg(test)]
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "test counts and sizes are small fixed values; the test profile checks overflow"
)]
mod tests {
    use super::*;
    use crate::plan::DataPlan;
    use crate::roaming::{RoamingAgreement, Serving};
    use crate::verify::remote::codec::{Submit, SubmitBatch};
    use crate::verify::stage::tests::negotiate;
    use std::io::Read;
    use tlc_crypto::KeyPair;
    use tlc_net::wire::FrameDecoder;

    fn shard_on_loopback() -> (Shard, SocketAddr) {
        shard_with(IngressConfig::default())
    }

    /// A shard verifying batches of 32.
    fn shard_with(config: IngressConfig) -> (Shard, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let open = Arc::new(AtomicUsize::new(0));
        let stage = Stage::new(0, 32, Arc::default());
        let shard = Shard::new(listener, stage, config, open);
        (shard.unwrap(), addr)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        client.set_nonblocking(true).unwrap();
        client
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(|f| f.encode().unwrap()).collect()
    }

    fn keys(seed: u64) -> KeyPair {
        KeyPair::generate_for_seed(1024, seed).unwrap()
    }

    const HELLO: Hello = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 0,
    };

    fn register(req: u32, edge: &KeyPair, op: &KeyPair) -> Register {
        Register {
            req,
            capacity: 0,
            plan: DataPlan::paper_default(),
            edge_key: edge.public.clone(),
            operator_key: op.public.clone(),
        }
    }

    /// `k` distinct proofs between `edge` and `op`, encoded.
    fn proofs(edge: &KeyPair, op: &KeyPair, k: u8) -> Vec<Vec<u8>> {
        let plan = DataPlan::paper_default();
        (0..k)
            .map(|i| negotiate(edge, op, plan, 2 * i + 1, 2 * i + 2).encode())
            .collect()
    }

    /// `k` distinct proofs between `edge` and `op`, one SUBMIT each
    /// under relationship 0, tagged from 1.
    fn submits(edge: &KeyPair, op: &KeyPair, k: u8) -> Vec<Frame> {
        let submit = |(i, poc)| Submit {
            rel: 0,
            tag: 1 + i as u64,
            poc,
        };
        let proofs = proofs(edge, op, k).into_iter().enumerate();
        proofs.map(|p| submit(p).to_frame()).collect()
    }

    /// A connection's first and only event of a gather, as epoll
    /// reports bytes waiting.
    fn readable(token: Token) -> Event {
        Event {
            token,
            readable: true,
            writable: false,
            closed: false,
        }
    }

    /// The kinds of every frame the client can read right now.
    fn read_now(client: &mut TcpStream) -> Vec<FrameKind> {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match client.read(&mut buf) {
                Ok(0) => panic!("server closed the session"),
                Ok(n) => decoder.push(&buf[..n]).unwrap(),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    break;
                }
            }
        }
        std::iter::from_fn(|| decoder.next_frame())
            .map(|f| f.kind)
            .collect()
    }

    fn live(shard: &Shard) -> Vec<&Conn> {
        shard.slots.iter().flatten().map(|c| &**c).collect()
    }

    /// Writes `frames` in one burst, then turns the loop until the
    /// iteration that answers: replies are flushed by the iteration
    /// that read the request, so on return the shard's state is what
    /// that iteration left. Returns the kinds of the frames it flushed.
    fn turn_until_reply(
        shard: &mut Shard,
        client: &mut TcpStream,
        frames: &[Frame],
    ) -> Vec<FrameKind> {
        client.write_all(&wire(frames)).unwrap();
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        let mut buf = [0u8; 4096];
        for _ in 0..500 {
            shard.turn();
            match client.read(&mut buf) {
                Ok(0) => panic!("server closed the session"),
                Ok(n) => {
                    decoder.push(&buf[..n]).unwrap();
                    let replies = std::iter::from_fn(|| decoder.next_frame());
                    return replies.map(|f| f.kind).collect();
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        panic!("no reply in 500 iterations");
    }

    /// REGISTER's capacity is the peer's to choose, all 64 bits of it;
    /// one the replay window cannot index is the server's default, not
    /// an assert on the shard's thread with the table's lock held.
    #[test]
    fn an_absurd_replay_capacity_is_clamped_not_asserted() {
        let (mut shard, addr) = shard_on_loopback();
        let mut client = connect(addr);
        let (edge, op) = (keys(7970), keys(7971));
        let register = Register {
            capacity: u64::MAX,
            ..register(0, &edge, &op)
        };
        let session = [HELLO.to_frame(), register.to_frame()];
        let replies = turn_until_reply(&mut shard, &mut client, &session);
        assert_eq!(replies, [FrameKind::HelloAck, FrameKind::Registered]);
        let stats_req = Frame::new(FrameKind::StatsReq, Vec::new());
        let replies = turn_until_reply(&mut shard, &mut client, &[stats_req]);
        assert_eq!(replies, [FrameKind::Stats], "the shard outlived it");
    }

    /// A rejected proof scores what it cost. One that reached the
    /// signature batch is three RSA checks and scores three, so at the
    /// default threshold (32) a connection presenting such proofs is
    /// quarantined by its 11th and not before — whether it forges
    /// signatures or presents one relationship's valid proofs under
    /// another.
    #[test]
    fn rejected_proofs_score_their_cost_and_quarantine_by_the_eleventh() {
        let (mut shard, addr) = shard_on_loopback();
        let mut client = connect(addr);
        let keys: Vec<KeyPair> = (7990..7994).map(keys).collect();
        let session = [
            HELLO.to_frame(),
            register(0, &keys[0], &keys[1]).to_frame(),
            register(1, &keys[2], &keys[3]).to_frame(),
        ];
        let replies = turn_until_reply(&mut shard, &mut client, &session);
        assert_eq!(replies.len(), 3, "{replies:?}");

        // Relationship 0's proofs, one signature bit flipped in each.
        let plan = DataPlan::paper_default();
        let forged = (0..6u8).map(|i| {
            let mut poc = negotiate(&keys[0], &keys[1], plan, 2 * i + 1, 2 * i + 2);
            let last = poc.signature.len() - 1;
            poc.signature[last] ^= 1;
            (0, poc.encode())
        });
        // Relationship 0's valid proofs, presented under relationship 1.
        let crossed = proofs(&keys[0], &keys[1], 5)
            .into_iter()
            .map(|poc| (1, poc));
        let mut frames: Vec<Frame> = forged
            .chain(crossed)
            .enumerate()
            .map(|(i, (rel, poc))| {
                let tag = 1 + i as u64;
                Submit { rel, tag, poc }.to_frame()
            })
            .collect();
        let eleventh = frames.remove(5);

        turn_until_reply(&mut shard, &mut client, &frames);
        assert_eq!(shard.stats.verdicts, 10);
        assert_eq!(live(&shard)[0].score, 30, "three points a rejection");
        assert_eq!(shard.stats.quarantines, 0, "10 rejections: not yet");

        turn_until_reply(&mut shard, &mut client, &[eleventh]);
        assert_eq!(shard.stats.verdicts, 11);
        assert_eq!(live(&shard)[0].score, 33);
        assert!(live(&shard)[0].quarantine > 0, "the 11th quarantines");
        assert_eq!(shard.stats.quarantines, 1);
    }

    /// Credits are dealt by the first submission of an iteration that
    /// needs one, once: an iteration that only settles deals nothing
    /// (the cursor that rotates with every deal stays put), and one that
    /// relays two submissions deals once.
    #[test]
    fn a_settle_only_iteration_deals_no_credits() {
        let (mut shard, addr) = shard_on_loopback();
        let mut client = connect(addr);
        let keys: Vec<KeyPair> = (7980..7984).map(keys).collect();
        // Two lanes, so the deal's rotating cursor has somewhere to go.
        let mut session = vec![HELLO.to_frame()];
        for (req, pair) in keys.chunks(2).enumerate() {
            session.push(register(req as u32, &pair[0], &pair[1]).to_frame());
        }
        turn_until_reply(&mut shard, &mut client, &session);
        assert_eq!(shard.credits.len(), 2);
        assert!(!shard.dealt, "REGISTER needs no credit");
        let cursor = shard.rr_cursor;

        let charged = 1_000_000;
        let settle = SettleMsg {
            rel: 0,
            tag: 0,
            serving: Serving::Visited,
            charged,
            split: RoamingAgreement::paper_default().split_volume(charged, Serving::Visited),
        };
        turn_until_reply(&mut shard, &mut client, &[settle.to_frame()]);
        assert!(!shard.dealt, "a SETTLE-only iteration dealt credits");
        assert_eq!(shard.rr_cursor, cursor);

        turn_until_reply(&mut shard, &mut client, &submits(&keys[0], &keys[1], 2));
        assert!(shard.dealt);
        assert_eq!(shard.rr_cursor, (cursor + 1) % 2, "one deal, not two");
        assert_eq!(shard.stats.verdicts, 2);
        assert_eq!(shard.outstanding(), 0, "nothing pending after a turn");
    }

    /// One connection of an accept batch that the registry refuses is
    /// released (its slot goes to the next arrival) without disturbing
    /// the rest of the batch: the others still resolve and are
    /// registered.
    #[test]
    fn refused_registration_leaves_the_rest_of_the_batch_watched() {
        let (mut shard, addr) = shard_on_loopback();
        let open = Arc::clone(&shard.open);

        let clients: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        shard.listener.set_nonblocking(false).unwrap();
        let streams: Vec<TcpStream> = clients
            .iter()
            .map(|_| shard.listener.accept().unwrap().0)
            .collect();

        // Occupy the first connection's fd so its registration fails.
        let fd = raw_fd(&streams[0]);
        shard
            .ready
            .register(fd, Token(u64::MAX - 2), Interest::NONE)
            .unwrap();
        for stream in streams {
            shard.admit(stream);
        }

        assert_eq!(live(&shard).len(), 2);
        assert_eq!(open.load(Ordering::Relaxed), 2);
        // Generation 0 held slot 0 and is gone; generation 1 took the
        // slot over, generation 2 opened the next.
        assert!(shard.take(Token(0)).is_none());
        for token in [Token(1 << 32), Token(2 << 32 | 1)] {
            let conn = shard.take(token).expect("admitted connection resolves");
            assert_eq!((conn.token, conn.armed), (token, Interest::READ));
            shard.put(conn);
        }
    }

    /// A connection that dies with proofs staged and whose slot is
    /// taken over before the flush: every one of its verdicts is an
    /// orphan, and none reaches the slot's new tenant. The gather is
    /// driven event by event so the order (read A, accept B, reply) is
    /// the test's, not the kernel's.
    #[test]
    fn a_reused_slot_never_receives_its_last_tenants_verdicts() {
        const K: u8 = 3;
        let (mut shard, addr) = shard_on_loopback();
        let (edge, op) = (keys(7990), keys(7991));
        let mut session = vec![HELLO.to_frame(), register(0, &edge, &op).to_frame()];
        session.extend(submits(&edge, &op, K));

        let mut a = TcpStream::connect(addr).unwrap();
        shard.accept_ready();
        let token_a = live(&shard)[0].token;
        a.write_all(&wire(&session)).unwrap();
        drop(a);
        let _b = TcpStream::connect(addr).unwrap();

        // What epoll reports for a peer that wrote and hung up.
        shard.conn_event(Event {
            token: token_a,
            readable: true,
            writable: false,
            closed: true,
        });
        assert!(live(&shard).is_empty(), "A's read did not reap it");
        assert_eq!(shard.outstanding(), K as usize, "proofs staged");

        shard.accept_ready();
        let token_b = live(&shard)[0].token;
        assert_eq!(slot_of(token_b), slot_of(token_a));
        assert_ne!(token_b, token_a);

        shard.reply();
        assert_eq!(shard.outstanding(), 0);
        let stats = shard.stats;
        assert_eq!((stats.submissions, stats.accepted), (K as u64, K as u64));
        assert_eq!((stats.orphaned_verdicts, stats.verdicts), (K as u64, 0));
        let b = live(&shard)[0];
        assert_eq!((b.token, b.in_flight), (token_b, 0));
        assert_eq!(
            (b.driver.outbox_bytes(), b.driver.stats().frames_tx),
            (0, 0)
        );
    }

    /// A frame that fills a batch is answered before the next frame is
    /// read: with one whole one-batch SUBMIT_BATCH and half of a second
    /// on the socket, the first batch's verdicts are readable on the
    /// client as soon as the gather has read — before the turn's
    /// reply. The turn is driven half by half so the test can look in
    /// between.
    #[test]
    fn a_judged_batch_is_answered_before_the_next_frame_is_read() {
        let (mut shard, addr) = shard_on_loopback();
        let mut client = connect(addr);
        let (edge, op) = (keys(7992), keys(7993));
        let session = [HELLO.to_frame(), register(0, &edge, &op).to_frame()];
        turn_until_reply(&mut shard, &mut client, &session);
        let token = live(&shard)[0].token;

        let pocs = proofs(&edge, &op, 32);
        let batch = |first_tag| SubmitBatch {
            rel: 0,
            first_tag,
            pocs: pocs.clone(),
        };
        let first = wire(&[batch(0).to_frame()]);
        let second = wire(&[batch(32).to_frame()]);
        client
            .write_all(&[&first[..], &second[..second.len() / 2]].concat())
            .unwrap();

        shard.conn_event(readable(token));
        assert_eq!(read_now(&mut client), [FrameKind::Verdict; 32]);
        assert_eq!(shard.stats.verdicts, 32);
        assert_eq!(
            shard.outstanding(),
            32,
            "answered, and still the turn's work"
        );
        assert!(live(&shard)[0].buf.is_some(), "half a frame kept");

        shard.reply();
        assert_eq!(read_now(&mut client), [], "nothing left to answer");
        assert_eq!(shard.outstanding(), 0);
    }

    /// The submit budget counts every proof a gather admitted, answered
    /// or not: after a full batch has been judged and answered
    /// mid-gather, the budget is still spent, and a submit in the same
    /// gather draws BUSY.
    #[test]
    fn proofs_answered_mid_gather_still_count_toward_the_shed_watermark() {
        let (mut shard, addr) = shard_with(IngressConfig {
            shed_submit_watermark: 32,
            ..IngressConfig::default()
        });
        let mut client = connect(addr);
        let (edge, op) = (keys(7994), keys(7995));
        let session = [HELLO.to_frame(), register(0, &edge, &op).to_frame()];
        turn_until_reply(&mut shard, &mut client, &session);
        let token = live(&shard)[0].token;

        let mut pocs = proofs(&edge, &op, 33);
        let last = Submit {
            rel: 0,
            tag: 32,
            poc: pocs.pop().unwrap(),
        };
        let batch = SubmitBatch {
            rel: 0,
            first_tag: 0,
            pocs,
        };
        client
            .write_all(&wire(&[batch.to_frame(), last.to_frame()]))
            .unwrap();

        shard.conn_event(readable(token));
        let mut want = vec![FrameKind::Verdict; 32];
        want.push(FrameKind::Busy);
        assert_eq!(read_now(&mut client), want);
        assert!(shard.shedding_submits());
        assert_eq!(
            (shard.stats.submissions, shard.stats.shed_overload),
            (32, 1)
        );

        shard.reply();
        assert!(!shard.shedding_submits(), "a new turn, a new budget");
    }

    /// The backlog a gather builds stops at the submit budget, however
    /// wide the frame that brings it: a 200-proof SUBMIT_BATCH against
    /// a budget of 32 leaves exactly 32 routes and 168 BUSY answers.
    /// So no gather's backlog outgrows `shed_submit_watermark`, and a
    /// connection arriving mid-gather is turned away only by
    /// `max_conns`.
    #[test]
    fn a_gather_backlog_stops_at_the_submit_budget() {
        const WIDE: usize = 200;
        let (mut shard, addr) = shard_with(IngressConfig {
            shed_submit_watermark: 32,
            ..IngressConfig::default()
        });
        let mut client = connect(addr);
        let (edge, op) = (keys(7996), keys(7997));
        let session = [HELLO.to_frame(), register(0, &edge, &op).to_frame()];
        turn_until_reply(&mut shard, &mut client, &session);
        let token = live(&shard)[0].token;

        // Proofs past the budget never reach the stage, so 32 distinct
        // ones repeated fill the frame.
        let distinct = proofs(&edge, &op, 32);
        let pocs = distinct.iter().cycle().take(WIDE).cloned().collect();
        let bytes = wire(&[SubmitBatch {
            rel: 0,
            first_tag: 0,
            pocs,
        }
        .to_frame()]);
        // The frame is wider than one wakeup's reads: feed it and turn
        // the gather's reads until every proof is admitted or shed,
        // without ending the gather.
        let (mut sent, mut replies) = (0, Vec::new());
        for _ in 0..10_000 {
            if shard.stats.submissions + shard.stats.shed_overload == WIDE as u64 {
                break;
            }
            match client.write(&bytes[sent..]) {
                Ok(n) => sent += n,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
            shard.conn_event(readable(token));
            replies.extend(read_now(&mut client));
        }
        replies.extend(read_now(&mut client));
        assert_eq!(shard.outstanding(), 32);
        assert_eq!(
            (shard.stats.submissions, shard.stats.shed_overload),
            (32, WIDE as u64 - 32)
        );
        let busy = replies.iter().filter(|&&k| k == FrameKind::Busy).count();
        assert_eq!((replies.len(), busy), (WIDE, WIDE - 32));

        let _late = connect(addr);
        shard.accept_ready();
        assert_eq!(live(&shard).len(), 2, "admitted mid-gather");
        assert_eq!(shard.stats.shed_connections, 0);
        shard.reply();
        assert_eq!(shard.outstanding(), 0);
    }

    /// A peer that keeps asking and never reads its answers stops
    /// being read once a high-water mark of replies is queued for it,
    /// and loses nothing: when it does read, every answer is there.
    #[test]
    fn a_peer_that_does_not_drain_its_replies_stops_being_read() {
        const N: usize = 100_000;
        let (mut shard, addr) = shard_on_loopback();
        let mut client = connect(addr);
        turn_until_reply(&mut shard, &mut client, &[HELLO.to_frame()]);
        let mark = live(&shard)[0].outbox_high_water();
        let reply_len = shard.stats.to_frame(FrameKind::Stats).wire_len();
        // What one wakeup's reads can hold, answered.
        let per_gather = (READS_PER_WAKEUP * 8 * 1024 / HEADER_LEN + 1) * reply_len;

        let requests = wire(&[Frame::new(FrameKind::StatsReq, Vec::new())]).repeat(N);
        let mut sent = 0;
        let mut write_some = |client: &mut TcpStream| match client.write(&requests[sent..]) {
            Ok(n) => sent += n,
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
        };

        // Writing, never reading: the kernel's buffers fill, then the
        // outbox, then the server stops listening.
        let mut peak = 0;
        for _ in 0..10_000 {
            write_some(&mut client);
            shard.turn();
            peak = peak.max(live(&shard)[0].driver.outbox_bytes());
            if live(&shard)[0].driver.paused() {
                break;
            }
        }
        assert!(peak > mark && peak <= mark + per_gather, "peak {peak}");
        for _ in 0..3 {
            write_some(&mut client);
            shard.turn();
            assert_eq!(live(&shard)[0].driver.outbox_bytes(), peak, "still read");
        }
        assert_eq!(shard.stats.pauses, 1);

        // The peer starts reading: the pause lifts as it drains, the
        // rest of its requests are read, and every one is answered.
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        let mut buf = vec![0u8; 64 * 1024];
        let mut got = 0;
        for _ in 0..100_000 {
            write_some(&mut client);
            while let Ok(n) = client.read(&mut buf) {
                assert_ne!(n, 0, "server closed the session");
                decoder.push(&buf[..n]).unwrap();
            }
            while let Some(frame) = decoder.next_frame() {
                assert_eq!(frame.kind, FrameKind::Stats);
                got += 1;
            }
            if got == N {
                break;
            }
            shard.turn();
        }
        assert_eq!(got, N);
        assert_eq!(live(&shard)[0].driver.outbox_bytes(), 0);
    }

    /// Every field of the STATS snapshot survives a multi-shard merge
    /// (the sum and the Prometheus names derive from the codec's one
    /// field list; this pins that they keep doing so).
    #[test]
    fn every_stats_field_is_summed_across_shards() {
        let payload = |scale: u64| -> Vec<u8> {
            let fields = (1..=16u64).map(|k| scale * k * 1_000_003);
            fields.flat_map(u64::to_be_bytes).collect()
        };
        let part = || IngressReport {
            service: ServiceReport::from_shards(Vec::new(), 0, 0),
            ingress: IngressStats::decode(&payload(1)).unwrap(),
            pool: PoolStats::default(),
        };
        let merged = merge_reports(vec![part(), part()], 0).ingress;
        assert_eq!(merged.to_frame(FrameKind::Stats).payload, payload(2));
    }

    /// The deal is fair: it hands out the whole pool, no lane is ahead
    /// of another by more than a quantum, and the lanes that are ahead
    /// start at the cursor.
    #[test]
    fn the_deal_spreads_the_pool_within_one_quantum() {
        for (lanes, quantum) in [(1, 64), (2, 1), (3, 3), (5, 64)] {
            for pool in [0usize, 1, 63, 64, 65, 200, 8192] {
                for cursor in 0..lanes {
                    let mut credits = vec![u32::MAX; lanes];
                    deal(pool, quantum, &mut credits, cursor);
                    let case = format!("{pool} by {quantum} from {cursor}: {credits:?}");
                    let sum: usize = credits.iter().map(|&c| c as usize).sum();
                    assert_eq!(sum, pool, "{case}");
                    let min = credits.iter().copied().min().unwrap();
                    assert!(
                        credits.iter().all(|&c| (c - min) as usize <= quantum),
                        "{case}"
                    );
                    let ahead = credits.iter().filter(|&&c| c > min).count();
                    let from_cursor = (0..ahead).all(|k| credits[(cursor + k) % lanes] > min);
                    assert!(from_cursor, "{case}");
                }
            }
        }
        // No lanes: nothing to deal to, nothing to index.
        deal(100, 64, &mut [], 0);
    }
}
