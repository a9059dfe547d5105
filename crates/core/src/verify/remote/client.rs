//! The blocking client for the verifier ingress: [`RemoteVerifier`]
//! mirrors the in-process `VerifierService` API (one stage on its
//! caller's thread) over one TCP session, with the server's shard
//! threads judging on the far side, and turns the server's typed BUSY
//! into seeded-jitter backoff. It shares nothing with the server but
//! the [`codec`].
//!
//! It keeps every in-flight submission's bytes until its verdict lands.
//! [`RemoteVerifier::submit_batch`] cuts frames of at most half the
//! granted window (and under the payload cap), and sends one as soon as
//! the window has room for it: one frame is judged while the next is on
//! the wire, and never more than a window is unanswered. (A frame as wide
//! as the window would make a bulk session stop-and-wait: the next frame
//! could not leave until every verdict of the last was back.) A
//! `BUSY(Submit)` moves the submission to a retry queue; retries re-send
//! under the *original* tag after capped exponential backoff with
//! seeded jitter ([`BackoffConfig`], floored at the server's
//! `retry_after_ms`), so caller-side correlation survives shedding.
//! `BUSY(Connection)` surfaces as [`ServiceError::Overloaded`], and
//! [`RemoteVerifier::connect_with`] wraps the handshake in the same
//! backoff. Retry exhaustion returns `Overloaded` with the submission
//! still queued. The unit tests check, against an in-memory peer that
//! answers only when the client blocks, that a batch many windows wide
//! goes out in frames of at most `max(window / 2, 1)` with never more
//! than a window unanswered.

use super::codec::{
    self, BusyMsg, BusyScope, Fault, Hello, HelloAck, Register, Registered, SettleMsg,
    SettleResult, SettleVerdictMsg, StatsSnapshot, VerdictMsg, MAGIC, PROTOCOL_VERSION,
};
use super::{IngressStats, RemoteError};
use crate::messages::PocMsg;
use crate::plan::DataPlan;
use crate::verify::service::{RelationshipId, ServiceError, SubmissionResult};
use crate::verify::DEFAULT_REPLAY_CAPACITY;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tlc_net::rng::SimRng;
use tlc_net::wire::{encode_with, Frame, FrameDecoder, FrameKind, DEFAULT_MAX_PAYLOAD};

/// Read chunk for the blocking client.
const CLIENT_READ_CHUNK: usize = 8 * 1024;

/// First retry delay; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Ceiling on any single retry delay.
const BACKOFF_CAP: Duration = Duration::from_millis(500);
/// Seed for the jitter RNG: seeded, never ambient, so a rerun retries
/// on the same schedule.
const BACKOFF_SEED: u64 = 0x7E1C_0FF5;

/// Retry policy for overload (BUSY) handling in [`RemoteVerifier`]:
/// capped exponential backoff (`BACKOFF_BASE` doubling to
/// `BACKOFF_CAP`) with jitter from a seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Sheds tolerated per submission (or per connection attempt)
    /// before [`ServiceError::Overloaded`] surfaces to the caller.
    pub max_attempts: u32,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig { max_attempts: 10 }
    }
}

/// Delay before retry number `attempt`: uniform in `[d/2, d]` where
/// `d = min(cap, base << attempt)`, floored at the server's
/// retry-after hint (itself capped). Half the delay is deterministic
/// spacing, half is jitter so a fleet of shed clients decorrelates.
fn backoff_delay(rng: &mut SimRng, attempt: u32, hint_ms: u32) -> Duration {
    let capped = BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(16))
        .min(BACKOFF_CAP);
    let half = capped / 2;
    let jitter_ns = half.as_nanos().min(u64::MAX as u128) as u64;
    let jitter = Duration::from_nanos(rng.next_below(jitter_ns.saturating_add(1)));
    let hint = Duration::from_millis(hint_ms as u64).min(BACKOFF_CAP);
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

/// Blocking client mirroring the in-process
/// [`VerifierService`](crate::verify::service::VerifierService) API.
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
    /// BUSY (scope Connection) answer — the server is at `max_conns`
    /// open connections — is retried with backoff up to
    /// `backoff.max_attempts` times before [`ServiceError::Overloaded`]
    /// surfaces.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        window_hint: u32,
        backoff: BackoffConfig,
    ) -> Result<RemoteVerifier, RemoteError> {
        let mut rng = SimRng::new(BACKOFF_SEED).split("connect-jitter");
        let mut attempt = 0u32;
        loop {
            let stream = TcpStream::connect(&addr).map_err(|e| RemoteError::Io(e.kind()))?;
            let _ = stream.set_nodelay(true);
            match RemoteVerifier::handshake(stream, window_hint, backoff) {
                Err(RemoteError::Service(ServiceError::Overloaded { retry_after_ms }))
                    if attempt < backoff.max_attempts =>
                {
                    std::thread::sleep(backoff_delay(&mut rng, attempt, retry_after_ms));
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
            rng: SimRng::new(BACKOFF_SEED).split("retry-jitter"),
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
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        let msg = Register {
            req,
            capacity: DEFAULT_REPLAY_CAPACITY as u64,
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
    /// count)`. Cut into frames that respect the server's payload cap
    /// and hold at most half the granted window, so one frame is judged
    /// while the next is on the wire; a frame waits only until the
    /// window has room for it. This client therefore never has more
    /// than a window of proofs unanswered and never meets the server's
    /// debt cap.
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
        let max_items = (self.window as usize / 2).max(1);
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
        // until one slot opens: the window is this client's pipelining
        // budget, and the server sheds and scores submits that run
        // `debt_factor` windows past it. A half-window chunk fits
        // while the chunk before it is still unanswered.
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
    /// If the server goes away first, [`ServiceError::ResultsClosed`]
    /// is returned, carrying the number of results lost.
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
            let delay = backoff_delay(&mut self.rng, p.attempts, self.retry_hint_ms);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::remote::codec::SubmitBatchRef;
    use crate::verify::stage::tests::negotiate;
    use crate::verify::VerifyError;
    use tlc_crypto::KeyPair;

    /// The server's side of one session, in memory. It grants `window`,
    /// answers REGISTER, and holds every proof's verdict until the client
    /// blocks in a read, then releases one: the client is always exactly
    /// as far ahead as it lets itself be. It records the widest
    /// SUBMIT_BATCH and the most proofs ever unanswered.
    struct Peer {
        window: u32,
        inbound: FrameDecoder,
        outbound: VecDeque<u8>,
        unanswered: VecDeque<(u64, u64)>,
        widest: usize,
        most_unanswered: usize,
    }

    impl Peer {
        fn reply(&mut self, frame: Frame) {
            self.outbound.extend(frame.encode().unwrap());
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inbound.push(buf).unwrap();
            while let Some(f) = self.inbound.next_frame() {
                match f.kind {
                    FrameKind::Hello => self.reply(
                        HelloAck {
                            version: PROTOCOL_VERSION,
                            window: self.window,
                            max_payload: DEFAULT_MAX_PAYLOAD,
                        }
                        .to_frame(),
                    ),
                    FrameKind::Register => {
                        let req = Register::decode(&f.payload).unwrap().req;
                        self.reply(Registered { req, rel: 0 }.to_frame());
                    }
                    FrameKind::SubmitBatch => {
                        let batch = SubmitBatchRef::decode(&f.payload).unwrap();
                        let tags = (0..batch.pocs.len() as u64).map(|k| batch.first_tag + k);
                        self.unanswered.extend(tags.map(|tag| (batch.rel, tag)));
                        self.widest = self.widest.max(batch.pocs.len());
                        self.most_unanswered = self.most_unanswered.max(self.unanswered.len());
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.outbound.is_empty() {
                let (rel, tag) = self
                    .unanswered
                    .pop_front()
                    .expect("a read with nothing due");
                let verdict = VerdictMsg {
                    rel,
                    tag,
                    shard: 0,
                    result: Err(VerifyError::Unregistered),
                };
                self.reply(verdict.to_frame());
            }
            let n = buf.len().min(self.outbound.len());
            for (dst, src) in buf.iter_mut().zip(self.outbound.drain(..n)) {
                *dst = src;
            }
            Ok(n)
        }
    }

    /// A batch many windows wide goes out in frames of at most half the
    /// window — so a second frame can be on the wire while the first is
    /// judged — and never puts more than a window of proofs in flight.
    #[test]
    fn a_batch_goes_out_in_half_window_frames_within_the_window() {
        let keys = |seed| KeyPair::generate_for_seed(1024, seed).unwrap();
        let (edge, op) = (keys(7960), keys(7961));
        let plan = DataPlan::paper_default();
        let poc = negotiate(&edge, &op, plan, 1, 2);
        for window in [1, 2, 7, 64] {
            let peer = Peer {
                window,
                inbound: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
                outbound: VecDeque::new(),
                unanswered: VecDeque::new(),
                widest: 0,
                most_unanswered: 0,
            };
            let mut client = RemoteVerifier::handshake(peer, 0, BackoffConfig::default()).unwrap();
            let rel = client
                .register(plan, edge.public.clone(), op.public.clone())
                .unwrap();
            let n = 5 * window as usize + 3;
            let sent = client.submit_batch(rel, std::iter::repeat_n(&poc, n));
            assert_eq!(sent.unwrap(), (0, n));
            assert_eq!(client.collect_results().unwrap().len(), n);
            let peer = client.stream();
            let half = (window as usize / 2).max(1);
            assert_eq!(peer.widest, half, "window {window}");
            assert!(peer.most_unanswered <= window as usize, "window {window}");
        }
    }
}
