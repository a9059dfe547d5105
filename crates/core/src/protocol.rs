//! The TLC negotiation protocol state machines (Fig. 7).
//!
//! Either party may initiate at the end of the charging cycle. Messages
//! implement Algorithm 1 at the wire level:
//!
//! * sending a **CDR** makes (or re-makes) a claim,
//! * replying a **CDA** accepts the peer's CDR and attaches one's own claim,
//! * replying a **PoC** accepts the CDA and finalizes — the PoC carries
//!   both parties' signatures and is stored by both as the charging receipt,
//! * replying a **CDR** to anything is an implicit reject + re-claim.
//!
//! An [`Endpoint`] drives one party; feed it incoming messages with
//! [`Endpoint::handle`] and it produces the response, updating the
//! Algorithm-1 bounds as rounds proceed.

use crate::cancellation::Bounds;
use crate::messages::{CdaMsg, CdrMsg, MessageError, Nonce, PocMsg};
use crate::plan::{charge_for, DataPlan, UsagePair};
use crate::strategy::{Decision, Knowledge, Role, Strategy};
use tlc_crypto::{PrivateKey, PublicKey};

/// Protocol-level failures.
#[derive(Debug)]
pub enum ProtocolError {
    /// Message decoding or signature failure.
    Message(MessageError),
    /// The peer's message referenced a different data plan.
    PlanMismatch,
    /// A CDA echoed a CDR we never sent (wrong nonce/seq/usage).
    EchoMismatch,
    /// The peer's claim violated the agreed bounds (line 12) — locally
    /// detected misbehavior; the negotiation is aborted.
    PeerBoundViolation {
        /// The offending claim.
        claim: u64,
        /// Bounds in force.
        bounds: Bounds,
    },
    /// A PoC carried a charge inconsistent with its embedded claims.
    ChargeMismatch {
        /// What the PoC said.
        claimed: u64,
        /// What the claims compute to.
        expected: u64,
    },
    /// Round cap exceeded (peer misbehaving per §5.1).
    Stalled {
        /// Rounds attempted.
        rounds: u32,
    },
    /// Message arrived in a state that cannot consume it.
    UnexpectedMessage(&'static str),
    /// Crypto failure while signing.
    Signing(tlc_crypto::CryptoError),
}

impl From<MessageError> for ProtocolError {
    fn from(e: MessageError) -> Self {
        ProtocolError::Message(e)
    }
}

impl From<tlc_crypto::CryptoError> for ProtocolError {
    fn from(e: tlc_crypto::CryptoError) -> Self {
        ProtocolError::Signing(e)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Message(e) => write!(f, "message error: {e}"),
            ProtocolError::PlanMismatch => write!(f, "data plan mismatch"),
            ProtocolError::EchoMismatch => write!(f, "CDA echoed an unknown CDR"),
            ProtocolError::PeerBoundViolation { claim, bounds } => write!(
                f,
                "peer claim {claim} violates bounds [{}, {}]",
                bounds.lo, bounds.hi
            ),
            ProtocolError::ChargeMismatch { claimed, expected } => {
                write!(f, "PoC charge {claimed} != expected {expected}")
            }
            ProtocolError::Stalled { rounds } => write!(f, "stalled after {rounds} rounds"),
            ProtocolError::UnexpectedMessage(s) => write!(f, "unexpected message: {s}"),
            ProtocolError::Signing(e) => write!(f, "signing failure: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Any TLC protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A claim (or re-claim).
    Cdr(CdrMsg),
    /// Acceptance of a CDR, with own claim attached.
    Cda(CdaMsg),
    /// Finalized proof.
    Poc(PocMsg),
}

/// What consuming one message leaves an endpoint with.
#[derive(Debug, PartialEq)]
pub enum Handled {
    /// The message owed in reply.
    Reply(Message),
    /// A valid PoC completed the negotiation on this side; nothing more
    /// is owed, and this is the proof.
    Done(PocMsg),
}

impl Message {
    /// Wire encoding of whichever variant this is.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Cdr(m) => m.encode(),
            Message::Cda(m) => m.encode(),
            Message::Poc(m) => m.encode(),
        }
    }
}

/// Protocol state (Fig. 7a), named by the last message sent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum State {
    /// Nothing sent yet.
    Null,
    /// Sent a CDR; awaiting CDA (accept) or CDR (reject).
    SentCdr,
    /// Sent a CDA; awaiting PoC (accept) or CDR (reject).
    SentCda,
    /// Negotiation complete; PoC stored.
    Done,
}

/// Message/byte counters for overhead accounting (Fig. 17).
#[derive(Clone, Copy, Default, Debug)]
pub struct EndpointStats {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// RSA signing operations performed.
    pub signatures_made: u64,
    /// RSA verifications performed.
    pub signatures_checked: u64,
}

/// One party's protocol endpoint.
pub struct Endpoint {
    role: Role,
    plan: DataPlan,
    knowledge: Knowledge,
    strategy: Box<dyn Strategy>,
    own_key: PrivateKey,
    peer_key: PublicKey,
    nonce: Nonce,
    state: State,
    bounds: Bounds,
    round: u32,
    max_rounds: u32,
    /// The last CDR we sent (to match CDA echoes). `None` while the
    /// standing claim has not been signed: it went out inside a CDA, or
    /// nothing has been sent yet.
    last_sent_cdr: Option<CdrMsg>,
    /// The CDA we last sent, until a CDR supersedes it. A PoC that embeds
    /// it carries a signature we made over a CDR we already checked.
    last_sent_cda: Option<CdaMsg>,
    /// Our standing claim for the round in progress.
    last_own_claim: Option<u64>,
    /// The peer claim our standing claim was paired against (set once we
    /// have seen the peer's side of the round; used for catch-up
    /// tightening when the peer's next message shows it rejected).
    last_peer_claim: Option<u64>,
    completed: Option<PocMsg>,
    stats: EndpointStats,
}

impl Endpoint {
    /// Creates an endpoint ready to initiate or respond.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        role: Role,
        plan: DataPlan,
        knowledge: Knowledge,
        strategy: Box<dyn Strategy>,
        own_key: PrivateKey,
        peer_key: PublicKey,
        nonce: Nonce,
        max_rounds: u32,
    ) -> Self {
        assert_eq!(role, knowledge.role, "knowledge must match role");
        Endpoint {
            role,
            plan,
            knowledge,
            strategy,
            own_key,
            peer_key,
            nonce,
            state: State::Null,
            bounds: Bounds::unbounded(),
            round: 0,
            max_rounds,
            last_sent_cdr: None,
            last_sent_cda: None,
            last_own_claim: None,
            last_peer_claim: None,
            completed: None,
            stats: EndpointStats::default(),
        }
    }

    /// Starts the negotiation by sending the first CDR.
    pub fn initiate(&mut self) -> Result<Message, ProtocolError> {
        assert_eq!(self.state, State::Null, "initiate only from Null");
        let cdr = self.make_cdr()?;
        self.state = State::SentCdr;
        Ok(Message::Cdr(cdr))
    }

    /// Opens a round: advances the round counter (failing once it passes
    /// the cap) and asks the strategy for this round's claim. Signs
    /// nothing — a signature is made only for a message that is sent.
    fn next_claim(&mut self) -> Result<u64, ProtocolError> {
        self.round += 1;
        if self.round > self.max_rounds {
            return Err(ProtocolError::Stalled {
                rounds: self.round - 1,
            });
        }
        Ok(self
            .strategy
            .claim(&self.knowledge, &self.bounds, self.round))
    }

    /// Signs and transmits `claim` as the CDR of the round in progress.
    fn send_cdr(&mut self, claim: u64) -> Result<CdrMsg, ProtocolError> {
        let cdr = CdrMsg::sign(
            self.role,
            self.plan,
            self.round as u64,
            self.nonce,
            claim,
            &self.own_key,
        )?;
        self.stats.signatures_made += 1;
        self.note_sent(cdr.encode().len());
        self.last_sent_cdr = Some(cdr.clone());
        self.last_sent_cda = None;
        self.last_own_claim = Some(claim);
        self.last_peer_claim = None;
        Ok(cdr)
    }

    fn make_cdr(&mut self) -> Result<CdrMsg, ProtocolError> {
        let claim = self.next_claim()?;
        self.send_cdr(claim)
    }

    fn note_sent(&mut self, bytes: usize) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
    }

    fn check_plan(&self, plan: &DataPlan) -> Result<(), ProtocolError> {
        if *plan != self.plan {
            return Err(ProtocolError::PlanMismatch);
        }
        Ok(())
    }

    fn check_peer_bounds(&self, claim: u64) -> Result<(), ProtocolError> {
        if !self.bounds.admits(claim) {
            return Err(ProtocolError::PeerBoundViolation {
                claim,
                bounds: self.bounds,
            });
        }
        Ok(())
    }

    /// Consumes an incoming message and produces the reply, or the proof
    /// when a valid PoC completes the negotiation on our side.
    /// Every message is consumed as new: re-deliveries and stale frames
    /// are [`Session`](crate::session::Session)'s to filter.
    pub fn handle(&mut self, msg: &Message) -> Result<Handled, ProtocolError> {
        match msg {
            Message::Cdr(cdr) => self.on_cdr(cdr).map(Handled::Reply),
            Message::Cda(cda) => self.on_cda(cda).map(Handled::Reply),
            Message::Poc(poc) => self.on_poc(poc).map(Handled::Done),
        }
    }

    fn on_cdr(&mut self, cdr: &CdrMsg) -> Result<Message, ProtocolError> {
        cdr.verify(&self.peer_key)?;
        self.stats.signatures_checked += 1;
        self.check_plan(&cdr.plan)?;

        // Catch-up tightening: a fresh CDR while we hold a resolved claim
        // pair (we sent a CDA the peer is now rejecting) means the previous
        // round failed — apply line 12 for it first, exactly as the peer
        // did on its side.
        if let (Some(own), Some(peer)) = (self.last_own_claim, self.last_peer_claim) {
            self.bounds = self.bounds.tighten(own, peer);
            self.last_own_claim = None;
            self.last_peer_claim = None;
        }
        self.check_peer_bounds(cdr.usage)?;

        // Our claim for this round: the standing one from our own CDR, or
        // a fresh one if we are (re-)responding.
        let own_claim = match (self.state, self.last_own_claim) {
            (State::SentCdr, Some(claim)) => claim,
            _ => {
                // A fresh claim travels inside the CDA (accept) or a
                // counter-CDR (reject); whichever is sent gets signed.
                // Until then: claim made, nothing signed.
                let claim = self.next_claim()?;
                self.last_sent_cdr = None;
                self.last_own_claim = Some(claim);
                claim
            }
        };
        self.last_peer_claim = Some(cdr.usage);

        let decision = self.strategy.decide(&self.knowledge, own_claim, cdr.usage);
        if decision == Decision::Accept {
            let cda = CdaMsg::sign(
                self.role,
                self.plan,
                self.nonce,
                own_claim,
                cdr.clone(),
                &self.own_key,
            )?;
            self.stats.signatures_made += 1;
            self.note_sent(cda.encode().len());
            self.last_sent_cda = Some(cda.clone());
            self.state = State::SentCda;
            Ok(Message::Cda(cda))
        } else {
            // Implicit reject. If our claim for this round was never
            // transmitted, the counter-CDR carrying it is our rejection;
            // otherwise both claims are on the table and we open the next
            // round with a fresh claim under tightened bounds.
            self.bounds = self.bounds.tighten(own_claim, cdr.usage);
            self.last_own_claim = None;
            self.last_peer_claim = None;
            let reply = match self.state {
                State::Null | State::SentCda => self.send_cdr(own_claim)?,
                _ => self.make_cdr()?,
            };
            self.state = State::SentCdr;
            Ok(Message::Cdr(reply))
        }
    }

    fn on_cda(&mut self, cda: &CdaMsg) -> Result<Message, ProtocolError> {
        if self.state != State::SentCdr {
            return Err(ProtocolError::UnexpectedMessage("CDA without pending CDR"));
        }
        // The CDA must echo exactly the CDR we last sent. A byte-equal
        // echo carries a signature we made ourselves, so only the CDA's
        // own signature is new; anything else gets the full check first,
        // so a forged echo is a signature error, not an `EchoMismatch`.
        let echoed = self.last_sent_cdr.as_ref() == Some(&cda.peer_cdr);
        if echoed {
            cda.verify_outer(&self.peer_key)?;
            self.stats.signatures_checked += 1;
        } else {
            cda.verify(&self.peer_key, &self.own_key.public)?;
            self.stats.signatures_checked += 2;
        }
        self.check_plan(&cda.plan)?;
        if !echoed {
            return Err(ProtocolError::EchoMismatch);
        }
        self.check_peer_bounds(cda.usage)?;

        let own_claim = cda.peer_cdr.usage;
        let decision = self.strategy.decide(&self.knowledge, own_claim, cda.usage);
        if decision == Decision::Accept {
            let (edge_claim, op_claim) = match self.role {
                Role::Edge => (own_claim, cda.usage),
                Role::Operator => (cda.usage, own_claim),
            };
            let charge = charge_for(
                UsagePair {
                    edge: edge_claim,
                    operator: op_claim,
                },
                self.plan.loss_weight,
            );
            let (nonce_e, nonce_o) = match self.role {
                Role::Edge => (self.nonce, cda.nonce),
                Role::Operator => (cda.nonce, self.nonce),
            };
            let poc = PocMsg::sign(
                self.role,
                self.plan,
                charge,
                cda.clone(),
                nonce_e,
                nonce_o,
                &self.own_key,
            )?;
            self.stats.signatures_made += 1;
            self.note_sent(poc.encode().len());
            self.completed = Some(poc.clone());
            self.state = State::Done;
            Ok(Message::Poc(poc))
        } else {
            self.bounds = self.bounds.tighten(own_claim, cda.usage);
            let reclaim = self.make_cdr()?;
            self.state = State::SentCdr;
            Ok(Message::Cdr(reclaim))
        }
    }

    fn on_poc(&mut self, poc: &PocMsg) -> Result<PocMsg, ProtocolError> {
        if self.state != State::SentCda {
            return Err(ProtocolError::UnexpectedMessage("PoC without pending CDA"));
        }
        let (edge_key, op_key) = match self.role {
            Role::Edge => (&self.own_key.public, &self.peer_key),
            Role::Operator => (&self.peer_key, &self.own_key.public),
        };
        // A PoC built on the CDA we sent embeds a signature we made over
        // a CDR that already passed `on_cdr`: only the PoC's own
        // signature is new. Any other CDA gets the full chain.
        let on_our_cda = self.last_sent_cda.as_ref() == Some(&poc.cda);
        if on_our_cda {
            poc.verify_outer(edge_key, op_key)?;
            self.stats.signatures_checked += 1;
        } else {
            poc.verify_chain(edge_key, op_key)?;
            self.stats.signatures_checked += 3;
        }
        self.check_plan(&poc.plan)?;
        // Recompute the charge from the embedded claims.
        let expected = charge_for(
            UsagePair {
                edge: poc.edge_usage(),
                operator: poc.operator_usage(),
            },
            self.plan.loss_weight,
        );
        if poc.charge != expected {
            return Err(ProtocolError::ChargeMismatch {
                claimed: poc.charge,
                expected,
            });
        }
        self.completed = Some(poc.clone());
        self.state = State::Done;
        Ok(poc.clone())
    }

    /// The stored PoC once the negotiation completed.
    pub fn proof(&self) -> Option<&PocMsg> {
        self.completed.as_ref()
    }

    /// Current protocol state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Rounds of claims made so far.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// Overhead counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// This endpoint's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// What this endpoint believes about usage (drives the legacy
    /// fallback charge when a session gives up on negotiating).
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    /// The plan this endpoint negotiates under.
    pub fn plan(&self) -> DataPlan {
        self.plan
    }

    /// Captures the protocol-relevant state for crash/restart recovery.
    ///
    /// Keys and the strategy are deliberately *not* part of the snapshot:
    /// they live in the device's long-term configuration and are
    /// re-supplied to [`Endpoint::restore`].
    pub fn snapshot(&self) -> EndpointSnapshot {
        EndpointSnapshot {
            nonce: self.nonce,
            state: self.state,
            bounds: self.bounds,
            round: self.round,
            last_sent_cdr: self.last_sent_cdr.clone(),
            last_sent_cda: self.last_sent_cda.clone(),
            last_own_claim: self.last_own_claim,
            last_peer_claim: self.last_peer_claim,
            completed: self.completed.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds an endpoint from a [`snapshot`](Endpoint::snapshot) plus
    /// the long-term configuration (role, plan, knowledge, strategy and
    /// keys), resuming mid-negotiation after a crash.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        snapshot: EndpointSnapshot,
        role: Role,
        plan: DataPlan,
        knowledge: Knowledge,
        strategy: Box<dyn Strategy>,
        own_key: PrivateKey,
        peer_key: PublicKey,
        max_rounds: u32,
    ) -> Self {
        assert_eq!(role, knowledge.role, "knowledge must match role");
        Endpoint {
            role,
            plan,
            knowledge,
            strategy,
            own_key,
            peer_key,
            nonce: snapshot.nonce,
            state: snapshot.state,
            bounds: snapshot.bounds,
            round: snapshot.round,
            max_rounds,
            last_sent_cdr: snapshot.last_sent_cdr,
            last_sent_cda: snapshot.last_sent_cda,
            last_own_claim: snapshot.last_own_claim,
            last_peer_claim: snapshot.last_peer_claim,
            completed: snapshot.completed,
            stats: snapshot.stats,
        }
    }
}

/// Checkpoint of an [`Endpoint`]'s negotiation state (everything except
/// keys and strategy), used by the session layer for crash/restart
/// recovery.
#[derive(Clone, Debug)]
pub struct EndpointSnapshot {
    nonce: Nonce,
    state: State,
    bounds: Bounds,
    round: u32,
    last_sent_cdr: Option<CdrMsg>,
    last_sent_cda: Option<CdaMsg>,
    last_own_claim: Option<u64>,
    last_peer_claim: Option<u64>,
    completed: Option<PocMsg>,
    stats: EndpointStats,
}

/// Runs a full negotiation between two endpoints in memory, shuttling
/// messages until both complete. Returns the PoC and the number of
/// messages exchanged.
pub fn run_negotiation(
    initiator: &mut Endpoint,
    responder: &mut Endpoint,
) -> Result<(PocMsg, u32), ProtocolError> {
    let mut msg = initiator.initiate()?;
    let mut msgs = 1u32;
    // Alternate until someone completes. The message cap is generous: each
    // Algorithm-1 round costs at most 2 messages plus the final PoC.
    let cap = initiator.max_rounds * 2 + 2;
    let mut turn_responder = true;
    while msgs <= cap {
        let handled = if turn_responder {
            responder.handle(&msg)?
        } else {
            initiator.handle(&msg)?
        };
        match handled {
            Handled::Reply(next) => {
                msg = next;
                msgs += 1;
                turn_responder = !turn_responder;
            }
            // Receiver consumed a PoC: both sides are done.
            Handled::Done(poc) => return Ok((poc, msgs)),
        }
        // If the last reply was a PoC, the *sender* is done and the
        // receiver will consume it next iteration.
    }
    Err(ProtocolError::Stalled {
        rounds: initiator.rounds().max(responder.rounds()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{
        HonestStrategy, OptimalStrategy, RandomSelfishStrategy, RejectAllStrategy,
    };
    use tlc_crypto::KeyPair;
    use tlc_net::rng::SimRng;

    /// `(edge, operator)` key pairs, generated once for the module.
    fn keys() -> &'static (KeyPair, KeyPair) {
        static KEYS: std::sync::OnceLock<(KeyPair, KeyPair)> = std::sync::OnceLock::new();
        KEYS.get_or_init(|| {
            (
                KeyPair::generate_for_seed(1024, 11).unwrap(),
                KeyPair::generate_for_seed(1024, 22).unwrap(),
            )
        })
    }

    fn setup(
        edge_strategy: Box<dyn Strategy>,
        op_strategy: Box<dyn Strategy>,
        sent: u64,
        received: u64,
    ) -> (Endpoint, Endpoint) {
        let plan = DataPlan::paper_default();
        let (edge_keys, op_keys) = keys();
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

    #[test]
    fn optimal_pair_one_round_three_messages() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        // Operator initiates (Fig. 7).
        let (poc, msgs) = run_negotiation(&mut op, &mut edge).unwrap();
        assert_eq!(msgs, 3, "CDR, CDA, PoC");
        assert_eq!(poc.charge, 900);
        assert_eq!(op.rounds(), 1);
        assert_eq!(edge.state(), State::Done);
        assert_eq!(op.state(), State::Done);
        // Both stored the same proof.
        assert_eq!(edge.proof().unwrap(), op.proof().unwrap());
    }

    #[test]
    fn snapshot_restore_resumes_mid_negotiation() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let cdr = op.initiate().unwrap();
        let cda = reply(edge.handle(&cdr));

        // Operator "crashes" after sending its CDR and restarts from the
        // checkpoint; the restored endpoint finishes the negotiation.
        let snap = op.snapshot();
        let plan = DataPlan::paper_default();
        let op_keys = KeyPair::generate_for_seed(1024, 22).unwrap();
        let edge_keys = KeyPair::generate_for_seed(1024, 11).unwrap();
        let mut op2 = Endpoint::restore(
            snap,
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: 800,
                inferred_peer_truth: 1000,
            },
            Box::new(OptimalStrategy),
            op_keys.private.clone(),
            edge_keys.public.clone(),
            32,
        );
        assert_eq!(op2.state(), State::SentCdr);
        let poc = reply(op2.handle(&cda));
        assert!(matches!(edge.handle(&poc), Ok(Handled::Done(_))));
        assert_eq!(edge.proof().unwrap().charge, 900);
    }

    #[test]
    fn edge_can_initiate_too() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let (poc, msgs) = run_negotiation(&mut edge, &mut op).unwrap();
        assert_eq!(msgs, 3);
        assert_eq!(poc.charge, 900);
    }

    #[test]
    fn honest_pair_converges_to_intended() {
        let (mut edge, mut op) = setup(
            Box::new(HonestStrategy),
            Box::new(HonestStrategy),
            5000,
            4000,
        );
        let (poc, _) = run_negotiation(&mut op, &mut edge).unwrap();
        assert_eq!(poc.charge, 4500);
        assert_eq!(poc.edge_usage(), 5000);
        assert_eq!(poc.operator_usage(), 4000);
    }

    #[test]
    fn random_selfish_pair_converges_bounded() {
        for seed in 0..20 {
            let (mut edge, mut op) = setup(
                Box::new(RandomSelfishStrategy::new(SimRng::new(seed))),
                Box::new(RandomSelfishStrategy::new(SimRng::new(seed + 700))),
                1_000_000,
                900_000,
            );
            let (poc, _) = run_negotiation(&mut op, &mut edge).unwrap();
            assert!(
                (900_000..=1_000_000).contains(&poc.charge),
                "seed {seed}: {}",
                poc.charge
            );
        }
    }

    #[test]
    fn reject_all_stalls() {
        let (mut edge, mut op) = setup(
            Box::new(RejectAllStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let err = run_negotiation(&mut op, &mut edge).unwrap_err();
        assert!(matches!(err, ProtocolError::Stalled { .. }));
    }

    #[test]
    fn protocol_matches_abstract_algorithm() {
        // The wire protocol must compute exactly what `negotiate()` does
        // for the same strategies and knowledge.
        use crate::cancellation::negotiate;
        let plan = DataPlan::paper_default();
        let ke = Knowledge {
            role: Role::Edge,
            own_truth: 123_456,
            inferred_peer_truth: 98_765,
        };
        let ko = Knowledge {
            role: Role::Operator,
            own_truth: 98_765,
            inferred_peer_truth: 123_456,
        };
        let abstract_out = negotiate(
            &plan,
            &mut OptimalStrategy,
            &ke,
            &mut OptimalStrategy,
            &ko,
            32,
        )
        .unwrap();
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            123_456,
            98_765,
        );
        let (poc, _) = run_negotiation(&mut op, &mut edge).unwrap();
        assert_eq!(poc.charge, abstract_out.charge);
    }

    #[test]
    fn stats_track_messages_and_crypto() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        run_negotiation(&mut op, &mut edge).unwrap();
        let os = op.stats();
        let es = edge.stats();
        assert_eq!(os.msgs_sent, 2); // CDR + PoC
        assert_eq!(es.msgs_sent, 1); // CDA
        assert!(os.signatures_made >= 2 && es.signatures_made >= 1);
        assert!(os.bytes_sent > 0 && es.bytes_sent > 0);
        // Total wire bytes in the ballpark of Fig. 17's 1393 B.
        let total = os.bytes_sent + es.bytes_sent;
        assert!((1000..=1500).contains(&total), "total {total}");
    }

    /// A strategy that claims like the optimal play but rejects its first
    /// `reject_first` decisions — to force Fig. 7b's multi-message cases.
    struct GrumpyOptimal {
        reject_first: u32,
        decisions: u32,
    }
    impl Strategy for GrumpyOptimal {
        fn claim(
            &mut self,
            k: &Knowledge,
            bounds: &crate::cancellation::Bounds,
            round: u32,
        ) -> u64 {
            OptimalStrategy.claim(k, bounds, round)
        }
        fn decide(&mut self, k: &Knowledge, own: u64, peer: u64) -> Decision {
            self.decisions += 1;
            if self.decisions <= self.reject_first {
                Decision::Reject
            } else {
                OptimalStrategy.decide(k, own, peer)
            }
        }
    }

    #[test]
    fn fig7b_case2_operator_rejects_cda_and_reinitiates() {
        // Operator: CDR -> (edge CDA) -> reject -> CDR -> (edge CDA) -> PoC.
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(GrumpyOptimal {
                reject_first: 1,
                decisions: 0,
            }),
            1000,
            800,
        );
        let m1 = op.initiate().unwrap();
        assert!(matches!(m1, Message::Cdr(_)));
        let m2 = reply(edge.handle(&m1));
        assert!(matches!(m2, Message::Cda(_)), "edge accepts with CDA");
        let m3 = reply(op.handle(&m2));
        assert!(matches!(m3, Message::Cdr(_)), "operator rejects by re-CDR");
        let m4 = reply(edge.handle(&m3));
        assert!(matches!(m4, Message::Cda(_)), "edge re-accepts");
        let m5 = reply(op.handle(&m4));
        assert!(matches!(m5, Message::Poc(_)), "operator finalizes");
        assert!(matches!(edge.handle(&m5), Ok(Handled::Done(_))));
        assert_eq!(edge.state(), State::Done);
        assert_eq!(op.state(), State::Done);
        let poc = op.proof().unwrap();
        assert!(
            (800..=1000).contains(&poc.charge),
            "Theorem 2 through case 2"
        );
    }

    #[test]
    fn fig7b_case3_edge_rejects_cdr_with_counterclaim() {
        // Operator: CDR -> (edge rejects with its own CDR) -> CDA -> PoC.
        let (mut edge, mut op) = setup(
            Box::new(GrumpyOptimal {
                reject_first: 1,
                decisions: 0,
            }),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let m1 = op.initiate().unwrap();
        let m2 = reply(edge.handle(&m1));
        assert!(matches!(m2, Message::Cdr(_)), "edge rejects by counter-CDR");
        let m3 = reply(op.handle(&m2));
        assert!(
            matches!(m3, Message::Cda(_)),
            "operator accepts the counterclaim"
        );
        let m4 = reply(edge.handle(&m3));
        assert!(matches!(m4, Message::Poc(_)), "edge finalizes");
        assert!(matches!(op.handle(&m4), Ok(Handled::Done(_))));
        let poc = edge.proof().unwrap();
        assert!(
            (800..=1000).contains(&poc.charge),
            "Theorem 2 through case 3"
        );
        // The verifier accepts the multi-round proof too.
        let edge_pub = &edge.own_key.public;
        let op_pub = &op.own_key.public;
        crate::verify::verify_poc(poc, &DataPlan::paper_default(), edge_pub, op_pub).unwrap();
    }

    /// Shuttles messages until the negotiation completes or errors,
    /// returning every message that crossed the wire, in order.
    fn transcript(initiator: &mut Endpoint, responder: &mut Endpoint) -> Vec<Message> {
        let mut wire = vec![initiator.initiate().unwrap()];
        let mut to_responder = true;
        loop {
            let rx = if to_responder {
                &mut *responder
            } else {
                &mut *initiator
            };
            match rx.handle(wire.last().unwrap()) {
                Ok(Handled::Reply(reply)) => {
                    wire.push(reply);
                    to_responder = !to_responder;
                }
                Ok(Handled::Done(_)) | Err(_) => return wire,
            }
        }
    }

    fn grumpy(reject_first: u32) -> Box<dyn Strategy> {
        Box::new(GrumpyOptimal {
            reject_first,
            decisions: 0,
        })
    }

    #[test]
    fn honest_cycle_signs_three_and_checks_three() {
        let (mut edge, mut op) = setup(
            Box::new(HonestStrategy),
            Box::new(HonestStrategy),
            5000,
            4000,
        );
        let (_, msgs) = run_negotiation(&mut op, &mut edge).unwrap();
        let (es, os) = (edge.stats(), op.stats());
        assert_eq!(msgs, 3);
        assert_eq!(es.msgs_sent + os.msgs_sent, 3);
        assert_eq!(es.signatures_made + os.signatures_made, 3);
        assert_eq!(es.signatures_checked + os.signatures_checked, 3);
    }

    #[test]
    fn multi_round_transcripts_match_eager_signing_digest() {
        // Every message of every negotiation below, hashed in order. The
        // digest was recorded from the commit that still signed a CDR per
        // claim (sent or not) and re-verified every embedded signature:
        // signing on send must not move one wire byte.
        const WIRE_DIGEST: &str =
            "726f8ccd034cae211f13506dcb5c4b1d9b9efbbb2bece937306052f28ecb331d";
        let mut hash = tlc_crypto::sha256::Sha256::new();
        let mut total = 0;
        let mut absorb = |wire: &[Message], edge: &Endpoint, op: &Endpoint| {
            for ep in [edge, op] {
                assert_eq!(ep.state(), State::Done);
                assert_eq!(
                    ep.stats().signatures_made,
                    ep.stats().msgs_sent,
                    "one signature per transmitted message"
                );
            }
            total += wire.len();
            for m in wire {
                hash.update(&m.encode());
            }
        };
        for (e, o, edge_first) in [
            (0, 1, false),
            (1, 0, false),
            (2, 2, false),
            (3, 1, false),
            (1, 3, false),
            (1, 1, true),
            (0, 2, true),
        ] {
            let (mut edge, mut op) = setup(grumpy(e), grumpy(o), 1000, 800);
            let wire = if edge_first {
                transcript(&mut edge, &mut op)
            } else {
                transcript(&mut op, &mut edge)
            };
            absorb(&wire, &edge, &op);
        }
        for seed in 0..8u64 {
            let (mut edge, mut op) = setup(
                Box::new(RandomSelfishStrategy::new(SimRng::new(seed))),
                Box::new(RandomSelfishStrategy::new(SimRng::new(seed + 700))),
                1_000_000,
                900_000,
            );
            let wire = if seed % 2 == 0 {
                transcript(&mut op, &mut edge)
            } else {
                transcript(&mut edge, &mut op)
            };
            absorb(&wire, &edge, &op);
        }
        assert_eq!(total, 133, "messages across all transcripts");
        let digest: String = hash.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(digest, WIRE_DIGEST);
    }

    /// The reply `handle` owed, or a panic if it errored or completed.
    fn reply(handled: Result<Handled, ProtocolError>) -> Message {
        match handled.unwrap() {
            Handled::Reply(msg) => msg,
            Handled::Done(_) => panic!("expected a reply, the negotiation completed"),
        }
    }

    fn bad_signature(r: Result<Handled, ProtocolError>) -> bool {
        matches!(r, Err(ProtocolError::Message(MessageError::BadSignature)))
    }

    #[test]
    fn cda_with_forged_echo_is_a_signature_error() {
        let (edge_keys, _) = keys();
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let cdr = op.initiate().unwrap();
        let Ok(Handled::Reply(Message::Cda(cda))) = edge.handle(&cdr) else {
            panic!("edge accepts with a CDA");
        };
        // One bit of the echoed CDR's signature flipped in flight: the
        // CDA's own signature no longer covers its body.
        let mut in_flight = cda.clone();
        in_flight.peer_cdr.signature[7] ^= 0x10;
        assert!(bad_signature(op.handle(&Message::Cda(in_flight))));
        // The same forgery under a *valid* CDA signature (the edge signs
        // over the tampered echo): still the embedded CDR's signature
        // error, not `EchoMismatch`.
        let mut forged = cda.peer_cdr.clone();
        forged.signature[7] ^= 0x10;
        let resigned = CdaMsg::sign(
            Role::Edge,
            cda.plan,
            cda.nonce,
            cda.usage,
            forged,
            &edge_keys.private,
        )
        .unwrap();
        assert!(bad_signature(op.handle(&Message::Cda(resigned))));
        assert_eq!(
            op.stats().signatures_checked,
            0,
            "failed checks don't count"
        );
        // Neither attempt moved the state machine: the real CDA completes.
        assert!(matches!(
            op.handle(&Message::Cda(cda)),
            Ok(Handled::Reply(Message::Poc(_)))
        ));
    }

    #[test]
    fn cda_echoing_an_older_signed_cdr_is_echo_mismatch() {
        let (edge_keys, _) = keys();
        let (mut edge, mut op) = setup(Box::new(OptimalStrategy), grumpy(1), 1000, 800);
        let Message::Cdr(first) = op.initiate().unwrap() else {
            panic!("initiate sends a CDR");
        };
        let cda = reply(edge.handle(&Message::Cdr(first.clone())));
        let second = reply(op.handle(&cda));
        assert!(matches!(second, Message::Cdr(_)), "operator re-claims");
        // The edge accepts the *first* CDR again (under a new claim, so
        // this is no retransmission of its first CDA): both signatures
        // are genuine, the echo is stale.
        let stale = CdaMsg::sign(
            Role::Edge,
            first.plan,
            [0xEE; 16],
            801,
            first,
            &edge_keys.private,
        )
        .unwrap();
        let before = op.stats().signatures_checked;
        assert!(matches!(
            op.handle(&Message::Cda(stale)),
            Err(ProtocolError::EchoMismatch)
        ));
        // A non-equal echo takes the full check (CDA + embedded CDR).
        assert_eq!(op.stats().signatures_checked, before + 2);
    }

    /// The operator finalizes `cda` into a PoC the honest way.
    fn poc_over(cda: &CdaMsg) -> Message {
        let (_, op_keys) = keys();
        let plan = DataPlan::paper_default();
        let charge = charge_for(
            UsagePair {
                edge: cda.usage,
                operator: cda.peer_cdr.usage,
            },
            plan.loss_weight,
        );
        Message::Poc(
            PocMsg::sign(
                Role::Operator,
                plan,
                charge,
                cda.clone(),
                cda.nonce,
                cda.peer_cdr.nonce,
                &op_keys.private,
            )
            .unwrap(),
        )
    }

    #[test]
    fn poc_with_forged_cda_signature_is_a_signature_error() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let cdr = op.initiate().unwrap();
        let Ok(Handled::Reply(Message::Cda(mut cda))) = edge.handle(&cdr) else {
            panic!("edge accepts with a CDA");
        };
        // The operator finalizes over a CDA whose signature it damaged;
        // its own PoC signature is valid.
        cda.signature[3] ^= 0x01;
        assert!(bad_signature(edge.handle(&poc_over(&cda))));
        assert_eq!(edge.state(), State::SentCda);
    }

    #[test]
    fn poc_on_an_older_signed_cda_keeps_the_full_chain_verdict() {
        let (mut edge, mut op) = setup(Box::new(OptimalStrategy), grumpy(1), 1000, 800);
        let m1 = op.initiate().unwrap();
        let Ok(Handled::Reply(Message::Cda(old_cda))) = edge.handle(&m1) else {
            panic!("edge accepts with a CDA");
        };
        let m3 = reply(op.handle(&Message::Cda(old_cda.clone())));
        let Ok(Handled::Reply(Message::Cda(new_cda))) = edge.handle(&m3) else {
            panic!("edge re-accepts with a CDA");
        };
        assert_ne!(old_cda, new_cda);
        // A PoC over the CDA of the rejected round: every signature in it
        // is genuine, so it is judged — as it always was — by the full
        // chain, and accepted. An endpoint restored from a snapshot
        // remembers which CDA it sent and judges it the same way.
        let mut edge2 = crash(&edge, Box::new(OptimalStrategy));
        assert_eq!(
            deliver_to_both(&mut edge, &mut edge2, &poc_over(&old_cda)),
            3
        );
        assert_eq!(edge2.state(), State::Done);
    }

    /// "Crashes" `ep`: a new endpoint from its snapshot plus the
    /// long-term configuration. `ep` itself lives on as the un-crashed
    /// run to compare against.
    fn crash(ep: &Endpoint, strategy: Box<dyn Strategy>) -> Endpoint {
        Endpoint::restore(
            ep.snapshot(),
            ep.role,
            ep.plan,
            ep.knowledge,
            strategy,
            ep.own_key.clone(),
            ep.peer_key.clone(),
            ep.max_rounds,
        )
    }

    /// Delivers `msg` to the un-crashed endpoint and to its restored
    /// twin: same reply bytes, same number of signatures checked.
    fn deliver_to_both(live: &mut Endpoint, restored: &mut Endpoint, msg: &Message) -> u64 {
        let before = (
            live.stats().signatures_checked,
            restored.stats().signatures_checked,
        );
        assert_eq!(
            live.handle(msg).unwrap(),
            restored.handle(msg).unwrap(),
            "restored reply differs from the un-crashed run"
        );
        assert_eq!(live.state(), restored.state());
        let checked = restored.stats().signatures_checked - before.1;
        assert_eq!(live.stats().signatures_checked - before.0, checked);
        checked
    }

    #[test]
    fn restored_responder_in_sent_cda_replies_identically_and_verifies_once() {
        // (i) The peer accepts: its PoC arrives after the crash.
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let cdr = op.initiate().unwrap();
        let cda = reply(edge.handle(&cdr));
        assert_eq!(edge.state(), State::SentCda);
        assert!(edge.last_sent_cdr.is_none(), "claim made, CDR unsigned");
        let mut edge2 = crash(&edge, Box::new(OptimalStrategy));
        let poc = reply(op.handle(&cda));
        assert_eq!(deliver_to_both(&mut edge, &mut edge2, &poc), 1);
        assert_eq!(edge2.proof(), op.proof());

        // (ii) The peer rejects: its counter-CDR arrives after the crash.
        let (mut edge, mut op) = setup(Box::new(OptimalStrategy), grumpy(1), 1000, 800);
        let cdr = op.initiate().unwrap();
        let cda = reply(edge.handle(&cdr));
        let mut edge2 = crash(&edge, Box::new(OptimalStrategy));
        let counter = reply(op.handle(&cda));
        assert!(matches!(counter, Message::Cdr(_)));
        assert_eq!(deliver_to_both(&mut edge, &mut edge2, &counter), 1);
        assert_eq!(edge2.stats().signatures_made, edge2.stats().msgs_sent);
    }

    #[test]
    fn restored_initiator_in_sent_cdr_replies_identically_and_verifies_once() {
        // (i) The peer accepts: its CDA arrives after the crash.
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let cdr = op.initiate().unwrap();
        let mut op2 = crash(&op, Box::new(OptimalStrategy));
        let cda = reply(edge.handle(&cdr));
        assert_eq!(deliver_to_both(&mut op, &mut op2, &cda), 1);
        assert_eq!(op2.proof(), op.proof());
        assert!(matches!(
            edge.handle(&Message::Poc(op2.proof().unwrap().clone())),
            Ok(Handled::Done(_))
        ));

        // (ii) The peer rejects with a counter-CDR.
        let (mut edge, mut op) = setup(grumpy(1), Box::new(OptimalStrategy), 1000, 800);
        let cdr = op.initiate().unwrap();
        let mut op2 = crash(&op, Box::new(OptimalStrategy));
        let counter = reply(edge.handle(&cdr));
        assert!(matches!(counter, Message::Cdr(_)));
        assert_eq!(deliver_to_both(&mut op, &mut op2, &counter), 1);
        assert_eq!(op2.stats().signatures_made, op2.stats().msgs_sent);
    }

    #[test]
    fn plan_mismatch_rejected() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        // Operator initiates with a *different* plan by tampering the CDR.
        let Message::Cdr(mut cdr) = op.initiate().unwrap() else {
            panic!("the initiator opens with a CDR");
        };
        cdr.plan.cycle = crate::plan::ChargingCycle::new(0, 7200);
        let tampered = Message::Cdr(cdr);
        // Signature no longer matches the body (plan is signed).
        assert!(edge.handle(&tampered).is_err());
    }

    #[test]
    fn unexpected_poc_rejected() {
        let (mut edge, mut op) = setup(
            Box::new(OptimalStrategy),
            Box::new(OptimalStrategy),
            1000,
            800,
        );
        let (poc, _) = {
            let (mut e2, mut o2) = setup(
                Box::new(OptimalStrategy),
                Box::new(OptimalStrategy),
                1000,
                800,
            );
            run_negotiation(&mut o2, &mut e2).unwrap()
        };
        // Fresh endpoints can't consume a PoC out of the blue.
        let err = edge.handle(&Message::Poc(poc.clone())).unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedMessage(_)));
        let err = op.handle(&Message::Poc(poc)).unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedMessage(_)));
    }
}
