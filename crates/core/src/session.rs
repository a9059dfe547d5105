//! Loss-tolerant negotiation sessions over an unreliable signaling
//! channel.
//!
//! The Fig. 7 state machines in [`crate::protocol`] assume every message
//! arrives exactly once, in order. On the cellular edge the control
//! plane rides the same lossy, intermittent link as the data plane
//! (§3.1), so this module wraps an [`Endpoint`] in a [`Session`]: a
//! sans-IO, virtual-clock-driven ARQ layer providing
//!
//! * **sequence tracking** — every frame carries a per-direction sequence
//!   number; stale and future frames are filtered before they can confuse
//!   the protocol machine,
//! * **idempotent duplicate handling** — a retransmitted peer frame
//!   re-elicits our previous frame and is neither parsed nor handed to
//!   the endpoint, so
//!   [`Endpoint::handle`] sees each peer message once, in order,
//! * **retransmission** — stop-and-wait with deadline timers and capped
//!   exponential backoff (negotiation is strictly alternating, so one
//!   outstanding frame is always enough),
//! * **crash/restart recovery** — [`Session::snapshot`] checkpoints both
//!   the ARQ state and the endpoint ([`EndpointSnapshot`]); `restore`
//!   resumes mid-negotiation,
//! * **graceful degradation** — when the retry budget is exhausted or the
//!   peer provably misbehaves (`Stalled`, `PeerBoundViolation`, bad
//!   signatures…), the session falls back to the legacy 4G/5G charge
//!   ([`crate::legacy`]) instead of losing the charging cycle.
//!
//! No async runtime, no threads: callers pump [`Session::poll_transmit`],
//! [`Session::on_datagram`], and [`Session::handle_timeout`] against a
//! [`SimTime`] clock, exactly like the rest of the simulation substrate
//! (DESIGN §7 item 1). [`run_session_pair`] is the canonical pump, wiring
//! two sessions through a pair of [`FaultyChannel`]s.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::legacy::{legacy_charge, LegacyOperator};
use crate::messages::{CdaMsg, CdrMsg, PocMsg};
use crate::protocol::{Endpoint, EndpointSnapshot, Handled, Message, ProtocolError, State};
use crate::strategy::Role;
use std::collections::VecDeque;
use tlc_net::channel::FaultyChannel;
use tlc_net::time::{SimDuration, SimTime};

/// Frame format version.
const FRAME_VERSION: u8 = 1;
/// Frame header: magic (2) + version (1) + kind (1) + seq (8) + len (4).
const FRAME_HEADER: usize = 16;
/// FNV-1a 64 checksum trailer.
const FRAME_TRAILER: usize = 8;

const KIND_CDR: u8 = 1;
const KIND_CDA: u8 = 2;
const KIND_POC: u8 = 3;
const KIND_ACK: u8 = 4;

/// First retransmission deadline: a cellular-edge RTT plus signing time.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(200);
/// Backoff cap: the RTO doubles per retry up to this.
const MAX_RTO: SimDuration = SimDuration::from_millis(3_200);
/// Retransmissions allowed per outstanding frame before the session
/// gives up and falls back to the legacy charge — with the RTOs above,
/// ~12 s of trying.
const RETRY_BUDGET: u32 = 8;

/// Why a session abandoned negotiation and fell back to legacy charging.
#[derive(Debug)]
pub enum FallbackReason {
    /// The retry budget ran out with a frame still unacknowledged.
    RetryBudgetExhausted,
    /// The peer provably misbehaved (bound violation, stalling, bad
    /// signature…).
    PeerMisbehavior(ProtocolError),
    /// The driver abandoned the session (peer gave up / cycle deadline).
    Abandoned,
}

/// How a session ended.
#[derive(Debug)]
pub enum SessionOutcome {
    /// Negotiation completed; both signatures bind this proof.
    Proof(Box<PocMsg>),
    /// Negotiation was abandoned; the party charges/accepts the legacy
    /// 4G/5G gateway-metered volume instead of losing the cycle.
    Fallback {
        /// Why negotiation was abandoned.
        reason: FallbackReason,
        /// The legacy charge this party settles on.
        charge: u64,
    },
}

impl SessionOutcome {
    /// The charge this outcome settles on.
    pub fn charge(&self) -> u64 {
        match self {
            SessionOutcome::Proof(poc) => poc.charge,
            SessionOutcome::Fallback { charge, .. } => *charge,
        }
    }

    /// True if negotiation completed with a proof.
    pub fn is_proof(&self) -> bool {
        matches!(self, SessionOutcome::Proof(_))
    }
}

/// ARQ-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Frames handed to the channel (first transmissions).
    pub frames_sent: u64,
    /// Deadline-driven retransmissions.
    pub retransmits: u64,
    /// Acks sent (final-message delivery confirmation).
    pub acks_sent: u64,
    /// Duplicate peer frames consumed idempotently.
    pub duplicates_rx: u64,
    /// Frames discarded for checksum/decode failure.
    pub corrupt_rx: u64,
    /// Frames discarded as stale or from the future.
    pub out_of_order_rx: u64,
}

/// Checkpoint of a [`Session`] (ARQ state + endpoint snapshot) for
/// crash/restart recovery.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    endpoint: EndpointSnapshot,
    send_seq: u64,
    recv_next: u64,
    last_frame: Option<Vec<u8>>,
    in_flight: Option<Vec<u8>>,
    started: bool,
}

/// A loss-tolerant negotiation session: one [`Endpoint`] plus
/// stop-and-wait ARQ over the virtual clock.
pub struct Session {
    endpoint: Endpoint,
    /// Sequence number of the next frame we originate.
    send_seq: u64,
    /// Sequence number we expect from the peer next.
    recv_next: u64,
    /// Encoded copy of the last frame we sent, ack included
    /// (duplicate-elicited re-emission).
    last_frame: Option<Vec<u8>>,
    /// The frame awaiting acknowledgement (implicit — the peer's next
    /// in-order frame — or explicit for the final PoC), which the timer
    /// retransmits.
    in_flight: Option<Vec<u8>>,
    retries: u32,
    rto: SimDuration,
    next_timeout: Option<SimTime>,
    started: bool,
    tx_queue: VecDeque<Vec<u8>>,
    outcome: Option<SessionOutcome>,
    stats: SessionStats,
}

impl Session {
    /// Wraps an endpoint in a session.
    pub fn new(endpoint: Endpoint) -> Self {
        Session {
            endpoint,
            send_seq: 0,
            recv_next: 0,
            last_frame: None,
            in_flight: None,
            retries: 0,
            rto: INITIAL_RTO,
            next_timeout: None,
            started: false,
            tx_queue: VecDeque::new(),
            outcome: None,
            stats: SessionStats::default(),
        }
    }

    /// Initiates the negotiation (sends the first CDR). Responder
    /// sessions never call this — they wake on the first frame.
    pub fn start(&mut self, now: SimTime) -> Result<(), ProtocolError> {
        assert!(!self.started, "session already started");
        self.started = true;
        let msg = self.endpoint.initiate()?;
        self.send_message(now, &msg);
        Ok(())
    }

    /// Next frame to put on the wire, if any.
    pub fn poll_transmit(&mut self) -> Option<Vec<u8>> {
        self.tx_queue.pop_front()
    }

    /// When [`Session::handle_timeout`] next needs to run.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        self.next_timeout
    }

    /// Fires the retransmission timer if due: re-queues the outstanding
    /// frame with doubled (capped) RTO, or falls back to the legacy
    /// charge once the retry budget is spent.
    pub fn handle_timeout(&mut self, now: SimTime) {
        if self.outcome.is_some() {
            self.next_timeout = None;
            return;
        }
        let Some(deadline) = self.next_timeout else {
            return;
        };
        let Some(frame) = self.in_flight.as_ref() else {
            return;
        };
        if now < deadline {
            return;
        }
        if self.retries >= RETRY_BUDGET {
            // Out of retries. If we already hold a completed proof (only
            // the final delivery confirmation is missing), the signed PoC
            // is still our receipt; otherwise degrade to legacy charging.
            if let Some(poc) = self.endpoint.proof() {
                self.outcome = Some(SessionOutcome::Proof(Box::new(poc.clone())));
            } else {
                self.outcome = Some(self.fall_back(FallbackReason::RetryBudgetExhausted));
            }
            self.next_timeout = None;
            return;
        }
        self.tx_queue.push_back(frame.clone());
        self.stats.retransmits = self.stats.retransmits.saturating_add(1);
        self.retries = self.retries.saturating_add(1);
        self.rto = SimDuration::from_micros(self.rto.as_micros().saturating_mul(2)).min(MAX_RTO);
        self.next_timeout = Some(now.saturating_add(self.rto));
    }

    /// Consumes one datagram from the channel.
    pub fn on_datagram(&mut self, now: SimTime, bytes: &[u8]) {
        if self.outcome.is_some() && !matches!(self.outcome, Some(SessionOutcome::Proof(_))) {
            // A fallen-back session no longer speaks TLC this cycle.
            return;
        }
        let Some((kind, seq, payload)) = decode_frame(bytes) else {
            self.stats.corrupt_rx = self.stats.corrupt_rx.saturating_add(1);
            return;
        };
        if kind == KIND_ACK {
            self.on_ack(seq);
            return;
        }
        if seq.checked_add(1) == Some(self.recv_next) {
            // Exact duplicate of the frame we last consumed: the peer
            // missed our reply — re-elicit it without touching timers.
            self.stats.duplicates_rx = self.stats.duplicates_rx.saturating_add(1);
            if let Some(frame) = self.last_frame.clone() {
                self.tx_queue.push_back(frame);
            }
            return;
        }
        if seq != self.recv_next {
            self.stats.out_of_order_rx = self.stats.out_of_order_rx.saturating_add(1);
            return;
        }
        // Only an in-order frame is parsed.
        let Some(msg) = decode_message(kind, &payload) else {
            self.stats.corrupt_rx = self.stats.corrupt_rx.saturating_add(1);
            return;
        };

        // In-order frame: the peer necessarily received our previous
        // frame (strict alternation), so it is implicitly acknowledged.
        self.acked();
        match self.endpoint.handle(&msg) {
            Ok(Handled::Reply(reply)) => {
                self.recv_next = self.recv_next.saturating_add(1);
                self.send_message(now, &reply);
            }
            Ok(Handled::Done(poc)) => {
                // Consumed the PoC: confirm delivery and finish.
                self.recv_next = self.recv_next.saturating_add(1);
                self.send_ack(seq);
                self.outcome = Some(SessionOutcome::Proof(Box::new(poc)));
                self.next_timeout = None;
            }
            Err(e) => {
                self.outcome = Some(self.fall_back(FallbackReason::PeerMisbehavior(e)));
            }
        }
    }

    fn on_ack(&mut self, seq: u64) {
        // `seq` is the peer's: `u64::MAX` must not overflow.
        if self.in_flight.is_some() && seq.checked_add(1) == Some(self.send_seq) {
            self.acked();
            self.next_timeout = None;
            if self.endpoint.state() == State::Done {
                if let Some(poc) = self.endpoint.proof() {
                    self.outcome = Some(SessionOutcome::Proof(Box::new(poc.clone())));
                }
            }
        }
    }

    fn acked(&mut self) {
        self.in_flight = None;
        self.retries = 0;
        self.rto = INITIAL_RTO;
    }

    fn send_message(&mut self, now: SimTime, msg: &Message) {
        let frame = encode_message_frame(self.send_seq, msg);
        self.send_seq = self.send_seq.saturating_add(1);
        self.last_frame = Some(frame.clone());
        self.in_flight = Some(frame.clone());
        self.retries = 0;
        self.rto = INITIAL_RTO;
        self.next_timeout = Some(now.saturating_add(self.rto));
        self.stats.frames_sent = self.stats.frames_sent.saturating_add(1);
        self.tx_queue.push_back(frame);
    }

    fn send_ack(&mut self, seq: u64) {
        let frame = encode_frame(KIND_ACK, seq, &[]);
        // Stored for duplicate-elicited re-acking; acks are never
        // timer-retransmitted (the peer's retries drive them).
        self.last_frame = Some(frame.clone());
        self.in_flight = None;
        self.next_timeout = None;
        self.stats.acks_sent = self.stats.acks_sent.saturating_add(1);
        self.tx_queue.push_back(frame);
    }

    /// Stops the ARQ and returns the legacy-charge outcome for `reason`.
    fn fall_back(&mut self, reason: FallbackReason) -> SessionOutcome {
        self.next_timeout = None;
        self.in_flight = None;
        let charge = self.fallback_charge();
        SessionOutcome::Fallback { reason, charge }
    }

    /// The legacy 4G/5G charge this party settles on if negotiation is
    /// abandoned: the gateway meter, which the operator reads directly
    /// and the edge knows as its inference of the operator's count.
    pub fn fallback_charge(&self) -> u64 {
        let k = self.endpoint.knowledge();
        let gateway_metered = match self.endpoint.role() {
            Role::Operator => k.own_truth,
            Role::Edge => k.inferred_peer_truth,
        };
        legacy_charge(gateway_metered, LegacyOperator::Honest)
    }

    /// Forces the fallback outcome (cycle deadline / peer gave up).
    pub fn abandon(&mut self) {
        let outcome = self.take_outcome();
        self.outcome = Some(outcome);
    }

    /// Hands over the outcome. A session without one settles on what
    /// [`abandon`](Self::abandon) sets: the proof if the endpoint holds
    /// one, else the legacy fallback.
    fn take_outcome(&mut self) -> SessionOutcome {
        if let Some(outcome) = self.outcome.take() {
            return outcome;
        }
        match self.endpoint.proof() {
            Some(poc) => SessionOutcome::Proof(Box::new(poc.clone())),
            None => self.fall_back(FallbackReason::Abandoned),
        }
    }

    /// How the session ended, once it has.
    pub fn outcome(&self) -> Option<&SessionOutcome> {
        self.outcome.as_ref()
    }

    /// ARQ counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Checkpoints the session (ARQ + endpoint) for crash recovery.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            endpoint: self.endpoint.snapshot(),
            send_seq: self.send_seq,
            recv_next: self.recv_next,
            last_frame: self.last_frame.clone(),
            in_flight: self.in_flight.clone(),
            started: self.started,
        }
    }

    /// Rebuilds a session from a checkpoint plus a restored endpoint
    /// (see [`Endpoint::restore`]). The outstanding frame, if any, is
    /// re-queued immediately and its timer re-armed, so recovery resumes
    /// the retransmission loop where the crash interrupted it.
    pub fn restore(snapshot: SessionSnapshot, endpoint: Endpoint, now: SimTime) -> Self {
        let mut s = Session {
            endpoint,
            send_seq: snapshot.send_seq,
            recv_next: snapshot.recv_next,
            last_frame: snapshot.last_frame,
            in_flight: snapshot.in_flight,
            retries: 0,
            rto: INITIAL_RTO,
            next_timeout: None,
            started: snapshot.started,
            tx_queue: VecDeque::new(),
            outcome: None,
            stats: SessionStats::default(),
        };
        if let Some(frame) = &s.in_flight {
            s.tx_queue.push_back(frame.clone());
            s.stats.retransmits = s.stats.retransmits.saturating_add(1);
            s.next_timeout = Some(now.saturating_add(s.rto));
        }
        s
    }

    /// The endpoint snapshot inside a session snapshot (for feeding
    /// [`Endpoint::restore`]).
    pub fn endpoint_snapshot(snapshot: &SessionSnapshot) -> EndpointSnapshot {
        snapshot.endpoint.clone()
    }
}

// ── frame codec ─────────────────────────────────────────────────────────

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn encode_frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len().saturating_add(FRAME_HEADER + FRAME_TRAILER));
    out.extend_from_slice(b"TL");
    out.push(FRAME_VERSION);
    out.push(kind);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_be_bytes(),
    );
    out.extend_from_slice(payload);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_be_bytes());
    out
}

fn encode_message_frame(seq: u64, msg: &Message) -> Vec<u8> {
    let (kind, payload) = match msg {
        Message::Cdr(m) => (KIND_CDR, m.encode()),
        Message::Cda(m) => (KIND_CDA, m.encode()),
        Message::Poc(m) => (KIND_POC, m.encode()),
    };
    encode_frame(kind, seq, &payload)
}

/// Validates magic, version, length, and checksum; yields
/// `(kind, seq, payload)` or `None` for anything mangled.
fn decode_frame(bytes: &[u8]) -> Option<(u8, u64, Vec<u8>)> {
    if bytes.len() < FRAME_HEADER + FRAME_TRAILER || &bytes[..2] != b"TL" {
        return None;
    }
    if bytes[2] != FRAME_VERSION {
        return None;
    }
    let kind = bytes[3];
    let seq = u64::from_be_bytes(bytes[4..12].try_into().ok()?);
    let len = u32::from_be_bytes(bytes[12..16].try_into().ok()?) as usize;
    if FRAME_HEADER.checked_add(len)?.checked_add(FRAME_TRAILER)? != bytes.len() {
        return None;
    }
    let (body, sum) = bytes.split_last_chunk::<FRAME_TRAILER>()?;
    if fnv64(body) != u64::from_be_bytes(*sum) {
        return None;
    }
    Some((kind, seq, body[FRAME_HEADER..].to_vec()))
}

fn decode_message(kind: u8, payload: &[u8]) -> Option<Message> {
    match kind {
        KIND_CDR => CdrMsg::decode(payload).ok().map(Message::Cdr),
        KIND_CDA => CdaMsg::decode(payload).ok().map(Message::Cda),
        KIND_POC => PocMsg::decode(payload).ok().map(Message::Poc),
        _ => None,
    }
}

// ── pair driver ─────────────────────────────────────────────────────────

/// Result of pumping a session pair to completion.
#[derive(Debug)]
pub struct PairReport {
    /// The initiator's outcome.
    pub initiator: SessionOutcome,
    /// The responder's outcome.
    pub responder: SessionOutcome,
    /// Virtual time from start to both outcomes.
    pub elapsed: SimDuration,
    /// Frames offered to both channels (first transmissions).
    pub frames_sent: u64,
    /// Deadline-driven retransmissions across both sessions.
    pub retransmits: u64,
}

impl PairReport {
    /// True when both parties hold the proof.
    pub fn converged(&self) -> bool {
        self.initiator.is_proof() && self.responder.is_proof()
    }

    /// The charge the cycle settles on: the PoC binds both parties if
    /// either holds one (it carries both signatures); otherwise both fell
    /// back to the same gateway-metered legacy charge.
    pub fn settled_charge(&self) -> u64 {
        match (&self.initiator, &self.responder) {
            (SessionOutcome::Proof(p), _) | (_, SessionOutcome::Proof(p)) => p.charge,
            (SessionOutcome::Fallback { charge, .. }, _) => *charge,
        }
    }
}

/// Pumps two sessions through a pair of directed [`FaultyChannel`]s on
/// the virtual clock until both reach an outcome (or `deadline` passes,
/// at which point stragglers are [abandoned](Session::abandon) — no
/// session ever hangs).
pub fn run_session_pair(
    initiator: &mut Session,
    responder: &mut Session,
    to_responder: &mut FaultyChannel,
    to_initiator: &mut FaultyChannel,
    start_at: SimTime,
    deadline: SimDuration,
) -> Result<PairReport, ProtocolError> {
    let mut now = start_at;
    let hard_stop = start_at.saturating_add(deadline);
    initiator.start(now)?;
    loop {
        while let Some(frame) = initiator.poll_transmit() {
            to_responder.send(now, frame);
        }
        while let Some(frame) = responder.poll_transmit() {
            to_initiator.send(now, frame);
        }
        for frame in to_responder.poll(now) {
            responder.on_datagram(now, &frame);
        }
        for frame in to_initiator.poll(now) {
            initiator.on_datagram(now, &frame);
        }
        initiator.handle_timeout(now);
        responder.handle_timeout(now);

        // Datagram consumption and timeouts may have queued transmissions
        // or produced outcomes; only advance the clock once quiescent.
        if !initiator.tx_queue.is_empty() || !responder.tx_queue.is_empty() {
            continue;
        }
        if initiator.outcome().is_some() && responder.outcome().is_some() {
            break;
        }

        let next = [
            to_responder.next_delivery(),
            to_initiator.next_delivery(),
            initiator.poll_timeout(),
            responder.poll_timeout(),
        ]
        .into_iter()
        .flatten()
        .min();
        match next {
            Some(at) if at <= hard_stop => now = at,
            _ => {
                // Quiescent (a side with no timer and nothing in flight)
                // or past the cycle deadline: abandon the stragglers.
                initiator.abandon();
                responder.abandon();
                break;
            }
        }
    }
    let i_stats = initiator.stats();
    let r_stats = responder.stats();
    Ok(PairReport {
        initiator: initiator.take_outcome(),
        responder: responder.take_outcome(),
        elapsed: now.since(start_at),
        frames_sent: i_stats.frames_sent.saturating_add(r_stats.frames_sent),
        retransmits: i_stats.retransmits.saturating_add(r_stats.retransmits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DataPlan;
    use crate::strategy::{Knowledge, OptimalStrategy, RejectAllStrategy, Strategy};
    use tlc_crypto::KeyPair;
    use tlc_net::channel::FaultSpec;
    use tlc_net::loss::{NoLoss, UniformLoss};
    use tlc_net::rng::SimRng;

    fn setup(
        edge_strategy: Box<dyn Strategy>,
        op_strategy: Box<dyn Strategy>,
        sent: u64,
        received: u64,
    ) -> (Endpoint, Endpoint) {
        let plan = DataPlan::paper_default();
        let edge_keys = KeyPair::generate_for_seed(1024, 11).unwrap();
        let op_keys = KeyPair::generate_for_seed(1024, 22).unwrap();
        let edge = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: sent,
                inferred_peer_truth: received,
            },
            edge_strategy,
            edge_keys.private.clone(),
            op_keys.public.clone(),
            [0xEE; 16],
            32,
        );
        let op = Endpoint::new(
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: received,
                inferred_peer_truth: sent,
            },
            op_strategy,
            op_keys.private.clone(),
            edge_keys.public.clone(),
            [0x00; 16],
            32,
        );
        (edge, op)
    }

    fn channel(loss: f64, spec: FaultSpec, seed: u64) -> FaultyChannel {
        let model: Box<dyn tlc_net::loss::LossModel> = if loss == 0.0 {
            Box::new(NoLoss)
        } else {
            Box::new(UniformLoss::new(loss))
        };
        FaultyChannel::new(spec, model, SimRng::new(seed))
    }

    fn run_pair(loss: f64, spec: FaultSpec, seed: u64) -> PairReport {
        let (edge, op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let mut initiator = Session::new(op);
        let mut responder = Session::new(edge);
        let mut rng = SimRng::new(seed);
        let mut fwd = channel(loss, spec.clone(), rng.next_u64());
        let mut back = channel(loss, spec, rng.next_u64());
        run_session_pair(
            &mut initiator,
            &mut responder,
            &mut fwd,
            &mut back,
            SimTime::from_millis(0),
            SimDuration::from_secs(120),
        )
        .unwrap()
    }

    /// An ACK is peer input: one naming `u64::MAX`, checksum intact,
    /// acknowledges nothing and leaves the outstanding frame armed. A
    /// length word of `u32::MAX` is peer input too: that frame is
    /// malformed, and dropped.
    #[test]
    fn an_ack_for_the_last_sequence_number_is_ignored() {
        let (_, op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let mut session = Session::new(op);
        let t0 = SimTime::from_millis(0);
        session.start(t0).unwrap();
        let deadline = session.poll_timeout();
        assert!(deadline.is_some());

        session.on_datagram(t0, &encode_frame(KIND_ACK, u64::MAX, &[]));
        assert_eq!(session.stats.corrupt_rx, 0, "a well-formed frame");
        assert!(session.in_flight.is_some());
        assert_eq!(session.poll_timeout(), deadline);
        assert!(session.outcome.is_none());

        let mut frame = encode_frame(KIND_CDA, 0, &[]);
        frame[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        session.on_datagram(t0, &frame);
        assert_eq!(session.stats.corrupt_rx, 1);
        assert!(session.in_flight.is_some());
    }

    #[test]
    fn clean_channel_converges_to_intended_charge() {
        let report = run_pair(0.0, FaultSpec::clean(), 1);
        assert!(report.converged());
        assert_eq!(report.settled_charge(), 900);
        assert_eq!(report.retransmits, 0);
        assert_eq!(report.frames_sent, 3, "CDR, CDA, PoC");
    }

    #[test]
    fn lossy_channel_recovers_via_retransmission() {
        let mut total_retransmits = 0;
        for seed in 0..20u64 {
            let report = run_pair(0.3, FaultSpec::with_faults(0.1, 0.1, 0.1), seed);
            assert!(report.converged(), "seed {seed} failed to converge");
            assert_eq!(report.settled_charge(), 900, "seed {seed}");
            total_retransmits += report.retransmits;
        }
        assert!(total_retransmits > 0, "30% loss never triggered a retry");
    }

    #[test]
    fn total_loss_falls_back_to_equal_legacy_charges() {
        let report = run_pair(1.0, FaultSpec::clean(), 9);
        assert!(!report.converged());
        assert!(matches!(
            report.initiator,
            SessionOutcome::Fallback {
                reason: FallbackReason::RetryBudgetExhausted,
                ..
            }
        ));
        assert!(matches!(report.responder, SessionOutcome::Fallback { .. }));
        // Both degrade to the same gateway-metered legacy charge.
        assert_eq!(report.initiator.charge(), report.responder.charge());
        assert_eq!(report.settled_charge(), 800);
    }

    #[test]
    fn misbehaving_peer_triggers_graceful_fallback() {
        // A reject-everything edge stalls the negotiation past max_rounds;
        // the session detects the `Stalled` protocol error and degrades to
        // the legacy charge instead of hanging.
        let (edge, op) = setup(
            Box::new(RejectAllStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let mut initiator = Session::new(op);
        let mut responder = Session::new(edge);
        let mut fwd = channel(0.0, FaultSpec::clean(), 1);
        let mut back = channel(0.0, FaultSpec::clean(), 2);
        let report = run_session_pair(
            &mut initiator,
            &mut responder,
            &mut fwd,
            &mut back,
            SimTime::from_millis(0),
            SimDuration::from_secs(120),
        )
        .unwrap();
        assert!(!report.converged());
        let misbehavior_detected = [&report.initiator, &report.responder].iter().any(|o| {
            matches!(
                o,
                SessionOutcome::Fallback {
                    reason: FallbackReason::PeerMisbehavior(_),
                    ..
                }
            )
        });
        assert!(misbehavior_detected, "{report:?}");
        assert_eq!(report.initiator.charge(), report.responder.charge());
        assert_eq!(report.settled_charge(), 800);
    }

    #[test]
    fn crash_and_restore_resumes_mid_negotiation() {
        let (edge, op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let mut op_sess = Session::new(op);
        let mut edge_sess = Session::new(edge);
        let now = SimTime::from_millis(0);

        op_sess.start(now).unwrap();
        let cdr = op_sess.poll_transmit().unwrap();
        edge_sess.on_datagram(now, &cdr);
        let _cda_lost = edge_sess.poll_transmit().unwrap();

        // The edge crashes with its CDA in flight (and lost). Restore from
        // the checkpoint: the outstanding CDA is re-queued automatically.
        let snap = edge_sess.snapshot();
        drop(edge_sess);
        let plan = DataPlan::paper_default();
        let edge_keys = KeyPair::generate_for_seed(1024, 11).unwrap();
        let op_keys = KeyPair::generate_for_seed(1024, 22).unwrap();
        let restored_endpoint = Endpoint::restore(
            Session::endpoint_snapshot(&snap),
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: 1000,
                inferred_peer_truth: 800,
            },
            Box::new(OptimalStrategy),
            edge_keys.private.clone(),
            op_keys.public.clone(),
            32,
        );
        let mut edge_sess = Session::restore(snap, restored_endpoint, now);

        let cda = edge_sess
            .poll_transmit()
            .expect("restore re-queues the outstanding frame");
        op_sess.on_datagram(now, &cda);
        let poc = op_sess.poll_transmit().unwrap();
        edge_sess.on_datagram(now, &poc);
        let ack = edge_sess.poll_transmit().unwrap();
        op_sess.on_datagram(now, &ack);

        assert!(edge_sess.outcome().unwrap().is_proof());
        assert!(op_sess.outcome().unwrap().is_proof());
        assert_eq!(op_sess.outcome().unwrap().charge(), 900);
    }

    /// The session is the only duplicate filter: a duplicated in-order
    /// frame re-elicits our last frame, a stale one is dropped, and
    /// neither is parsed or reaches the endpoint.
    #[test]
    fn duplicate_and_stale_frames_never_reach_the_endpoint() {
        let (edge, op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let mut op_sess = Session::new(op);
        let mut edge_sess = Session::new(edge);
        let now = SimTime::from_millis(0);
        let work = |s: &Session| {
            let st = s.endpoint().stats();
            (st.msgs_sent, st.signatures_made, st.signatures_checked)
        };

        op_sess.start(now).unwrap();
        let cdr = op_sess.poll_transmit().unwrap();
        edge_sess.on_datagram(now, &cdr);
        let cda = edge_sess.poll_transmit().unwrap();
        let before = work(&edge_sess);
        edge_sess.on_datagram(now, &cdr);
        assert_eq!(edge_sess.poll_transmit(), Some(cda.clone()));
        assert_eq!(edge_sess.stats().duplicates_rx, 1);
        assert_eq!(work(&edge_sess), before);
        // A duplicate's seq decides before its payload is parsed: a
        // well-checksummed frame with an unparseable body is a duplicate.
        let cdr_seq = u64::from_be_bytes(cdr[4..12].try_into().unwrap());
        edge_sess.on_datagram(now, &encode_frame(KIND_CDR, cdr_seq, b"not a CDR"));
        assert_eq!(edge_sess.poll_transmit(), Some(cda.clone()));
        assert_eq!(edge_sess.stats().duplicates_rx, 2);
        assert_eq!(edge_sess.stats().corrupt_rx, 0);
        assert_eq!(work(&edge_sess), before);

        op_sess.on_datagram(now, &cda);
        let poc = op_sess.poll_transmit().unwrap();
        edge_sess.on_datagram(now, &poc);
        assert!(edge_sess.poll_transmit().is_some(), "the PoC is acked");
        let before = work(&edge_sess);
        edge_sess.on_datagram(now, &cdr);
        assert_eq!(edge_sess.poll_transmit(), None);
        assert_eq!(edge_sess.stats().out_of_order_rx, 1);
        assert_eq!(work(&edge_sess), before);
        assert!(edge_sess.outcome().unwrap().is_proof());
    }

    #[test]
    fn corrupt_frames_are_rejected_by_checksum() {
        let frame = encode_frame(KIND_CDR, 7, b"payload");
        assert!(decode_frame(&frame).is_some());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            assert!(decode_frame(&bad).is_none(), "flip at byte {i} accepted");
        }
        assert!(decode_frame(&frame[..frame.len() - 1]).is_none());
    }
}
