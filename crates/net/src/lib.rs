//! # tlc-net
//!
//! Deterministic, event-driven network simulation substrate for the TLC
//! reproduction of *"Bridging the Data Charging Gap in the Cellular Edge"*
//! (SIGCOMM '19).
//!
//! The paper evaluates on a physical testbed (OpenEPC LTE core + Qualcomm
//! small cell). This crate supplies the emulated equivalent: a discrete-
//! event packet world with the loss mechanisms that create charging gaps —
//! queue overflow under congestion, air-interface loss that worsens with
//! weak signal, and intermittent radio connectivity.
//!
//! Components follow the sans-IO, polled state-machine idiom (cf. smoltcp):
//! no threads, no async runtime, no wall-clock time. A single seeded RNG
//! makes every run exactly reproducible.
//!
//! * [`time`] — microsecond-resolution virtual clock,
//! * [`rng`] — xoshiro256++ with labelled stream splitting,
//! * [`packet`] — size/QCI/flow-tagged packets (no payloads; counting bytes
//!   is the object of study),
//! * [`queue`] — byte-bounded drop-tail queues with QCI strict priority,
//! * [`link`] — rate-limited store-and-forward hops,
//! * [`loss`] — Bernoulli / Gilbert–Elliott / RSS-driven loss processes,
//! * [`channel`] — faulty control-plane datagram channel (loss, dup,
//!   reorder, corrupt, partition) for negotiation robustness testing,
//! * [`radio`] — precomputed RSS timelines with intermittent outages,
//! * [`stats`] — byte counters and 1 Hz usage series.
//!
//! Two modules step outside the simulation and speak real I/O — they carry
//! the network ingress for the standalone PoC verifier service:
//!
//! * [`wire`] — length-prefixed binary framing codec (payload-agnostic),
//! * [`ingress`] — non-blocking, pausable per-connection frame driver,
//! * [`chaos`] — deterministic stream-fault injection (dribble, resets)
//!   for soak-testing the ingress under hostile clients,
//! * [`readiness`] — epoll/poll syscall shim + `SO_REUSEPORT` bind for
//!   the event-driven multi-core ingress (the one module allowed
//!   `unsafe`, every block SAFETY-audited),
//! * [`bufpool`] — bounded recycled read-buffer pool backing zero-copy
//!   frame decode.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod bufpool;
pub mod channel;
pub mod chaos;
pub mod fair;
pub mod ingress;
pub mod link;
pub mod loss;
pub mod packet;
pub mod queue;
pub mod radio;
// The one module allowed `unsafe`: the manifest denies it rather than
// forbidding it, because forbid cannot be overridden per module.
#[allow(unsafe_code)]
#[deny(clippy::undocumented_unsafe_blocks)]
pub mod readiness;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wire;

pub use bufpool::{BufferPool, PoolStats, PooledBuf};
pub use channel::{ChannelStats, FaultSpec, FaultyChannel};
pub use chaos::{plan_roles, ChaosRole, ChaosSpec, ChaosStats, ChaosStream};
pub use fair::{FairQueue, DRR_QUANTUM};
pub use ingress::{ConnDriver, ConnStats, DriverError};
pub use link::{Link, LinkParams, LinkStats};
pub use loss::{GilbertElliott, LossModel, NoLoss, RssDrivenLoss, UniformLoss};
pub use packet::{Direction, FlowId, Packet, PacketIdAlloc, Qci};
pub use queue::{Discipline, PacketQueue, QueueStats};
pub use radio::{RadioTimeline, RssWalkParams, NO_SERVICE_THRESHOLD_DBM, RLF_DETACH};
pub use readiness::{
    bind_reuseport, try_bind_reuseport, Event as ReadinessEvent, Interest, Readiness,
    ReadinessBackend, Token,
};
pub use rng::SimRng;
pub use stats::{ByteCounter, UsageSeries};
pub use time::{SimDuration, SimTime};
pub use wire::{
    encode_with, split_frame, Frame, FrameDecoder, FrameKind, FrameRef, WireError,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
