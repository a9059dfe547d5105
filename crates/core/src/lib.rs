//! # tlc-core
//!
//! TLC — **T**rusted, **L**oss-tolerant **C**harging for the cellular edge:
//! the primary contribution of *"Bridging the Data Charging Gap in the
//! Cellular Edge"* (Li, Kim, Vlachou, Xie — SIGCOMM '19), reimplemented as
//! a Rust library.
//!
//! TLC bridges the charging gap between a cellular operator and an edge
//! application vendor by letting data loss and selfish claims *cancel out*:
//!
//! * [`plan`] — the data plan `(c, T)` and the charging formula
//!   `x = x_o + c·(x_e − x_o)` (Eq. 1),
//! * [`cancellation`] — Algorithm 1, the loss–selfishness cancellation
//!   negotiation with tightening bounds,
//! * [`strategy`] — honest, rational-optimal (minimax, Theorem 3),
//!   random-selfish, and misbehaving party behaviours,
//! * [`messages`] — RSA-signed CDR / CDA / PoC wire messages (§5.3.2),
//! * [`protocol`] — the Fig. 7 endpoint state machines and an in-memory
//!   negotiation driver,
//! * [`session`] — loss-tolerant negotiation sessions: sequence-tracked
//!   stop-and-wait ARQ with retransmission, crash recovery, and graceful
//!   fallback to the legacy charge,
//! * [`verify`] — Algorithm 2 public verification with replay defence,
//! * [`roaming`] — three-party (home/visited/vendor) roaming settlement
//!   with exact conservation and bonded multi-link CDR reconciliation
//!   (replay across operators is the relationship table's, in
//!   [`verify::stage`]),
//! * [`legacy`] — the legacy 4G/5G baseline and the gap metrics
//!   (Δ, ε, µ) used throughout the evaluation,
//! * [`game`] — numeric minimax/maximin machinery behind Theorems 2–4 and
//!   Appendix D's generic-charging bound.
//!
//! ## Quickstart
//!
//! ```
//! use tlc_core::plan::DataPlan;
//! use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
//! use tlc_core::cancellation::{negotiate, DEFAULT_MAX_ROUNDS};
//!
//! // Ground truth: the edge sent 1 GB, the network delivered 0.9 GB.
//! let sent = 1_000_000_000u64;
//! let received = 900_000_000u64;
//! let plan = DataPlan::paper_default(); // c = 0.5, 1-hour cycle
//!
//! let edge_knowledge = Knowledge {
//!     role: Role::Edge, own_truth: sent, inferred_peer_truth: received,
//! };
//! let operator_knowledge = Knowledge {
//!     role: Role::Operator, own_truth: received, inferred_peer_truth: sent,
//! };
//! let out = negotiate(
//!     &plan,
//!     &mut OptimalStrategy, &edge_knowledge,
//!     &mut OptimalStrategy, &operator_knowledge,
//!     DEFAULT_MAX_ROUNDS,
//! ).unwrap();
//! // Rational parties converge in one round to the plan-intended charge.
//! assert_eq!(out.rounds, 1);
//! assert_eq!(out.charge, 950_000_000);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod cancellation;
pub mod game;
pub mod legacy;
pub mod messages;
pub mod plan;
pub mod protocol;
pub mod roaming;
pub mod session;
pub mod strategy;
pub mod verify;

pub use cancellation::{
    negotiate, Bounds, NegotiationError, NegotiationOutcome, DEFAULT_MAX_ROUNDS,
};
pub use messages::{CdaMsg, CdrMsg, MessageError, Nonce, PocMsg, NONCE_LEN};
pub use plan::{charge_for, intended_charge, ChargingCycle, DataPlan, LossWeight, UsagePair};
pub use protocol::{run_negotiation, Endpoint, Handled, Message, ProtocolError, State};
pub use roaming::{reconcile_bonded, LinkCdr, RoamingAgreement, Segment, Serving, SettlementSplit};
pub use session::{
    run_session_pair, FallbackReason, PairReport, Session, SessionOutcome, SessionStats,
};
pub use strategy::{
    BoundViolatorStrategy, Decision, HonestStrategy, InsistStrategy, Knowledge, OptimalStrategy,
    RandomSelfishStrategy, RejectAllStrategy, Role, Strategy,
};
pub use verify::{verify_poc, Verdict, Verifier, VerifyError};
