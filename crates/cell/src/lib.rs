//! # tlc-cell
//!
//! LTE/5G cellular substrate for the TLC reproduction of *"Bridging the
//! Data Charging Gap in the Cellular Edge"* (SIGCOMM '19): the emulated
//! counterpart of the paper's OpenEPC core + Qualcomm small cell testbed.
//!
//! * [`cdr`] — gateway Charging Data Records in the Trace-1 XML shape,
//! * [`counters`] — named counting vantages with time-indexed histories,
//! * [`datapath`] — the full device ↔ base station ↔ gateway ↔ server
//!   pipeline, with congestion queues, air loss, outage buffering, QCI
//!   priority, and RLF detach,
//! * [`rrc`] — RRC connection management and the COUNTER CHECK procedure
//!   backing TLC's tamper-resilient downlink records,
//! * [`monitor`] — the §5.4 monitor taxonomy (user-space API vs rooted
//!   system monitor vs RRC counter check) and edge tamper policies,
//! * [`clock`] — NTP-residual clock skew between edge and core, the cause
//!   of the paper's Fig. 18 CDR errors.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod cdr;
pub mod clock;
pub mod counters;
pub mod datapath;
pub mod monitor;
pub mod rrc;

pub use cdr::{ChargingDataRecord, Imsi, LEGACY_CDR_WIRE_BYTES};
pub use clock::SkewedClock;
pub use counters::CountingPoint;
pub use datapath::{Datapath, DatapathConfig, DropStats, FlowCounters};
pub use monitor::{operator_downlink_report, MonitorKind, MonitorReport, TamperPolicy};
pub use rrc::{CounterCheck, RrcMonitor, DEFAULT_INACTIVITY};
