//! # tlc-workloads
//!
//! Edge-application traffic generators for the TLC reproduction of
//! *"Bridging the Data Charging Gap in the Cellular Edge"* (SIGCOMM '19).
//!
//! The paper drives its testbed with four applications plus an iperf
//! congestion source; each is modelled here, matched to the published mean
//! bitrates (Table 2) and burst structure:
//!
//! | Workload | Paper rate | Module |
//! |---|---|---|
//! | WebCam stream, RTSP (uplink) | 0.77 Mbps | [`webcam`] |
//! | WebCam stream, legacy UDP (uplink) | 1.73 Mbps | [`webcam`] |
//! | VRidge/Portal 2 over GVSP (downlink) | 9.0 Mbps | [`vr`] |
//! | King of Glory w/ QCI=7 (downlink) | 0.02 Mbps | [`gaming`] |
//! | iperf UDP background | 0–1 Gbps | [`background`] |
//!
//! The paper replays real tcpdump captures for VR and gaming; the
//! [`trace`] module provides the equivalent record/replay machinery for
//! any workload.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod background;
pub mod churn;
pub mod gaming;
pub mod trace;
pub mod traffic;
pub mod vr;
pub mod webcam;

pub use background::BackgroundTraffic;
pub use churn::{Arrival, ChurnConfig, ChurnGen, ProfileKind, SessionProfile};
pub use gaming::{GamingParams, GamingStream};
pub use trace::{PacketTrace, TraceRecord, TraceReplayer};
pub use traffic::{packetize, Emission, Workload};
pub use vr::{VrParams, VrStream};
pub use webcam::{H264Params, WebcamStream};
