//! # tlc-sim
//!
//! Experiment harness for the TLC reproduction of *"Bridging the Data
//! Charging Gap in the Cellular Edge"* (SIGCOMM '19): wires the emulated
//! LTE cell (`tlc-cell`), the workloads (`tlc-workloads`), and the TLC
//! protocol (`tlc-core`) into the paper's §7 evaluation.
//!
//! * [`scenario`] — one experiment round: app + background + radio
//!   condition over a charging cycle,
//! * [`measure`] — party record extraction and the three charging schemes
//!   (honest legacy, TLC-optimal, TLC-random),
//! * [`metrics`] — CDFs and unit conversions,
//! * [`experiments`] — one module per paper table/figure, each emitting
//!   the same rows/series the paper reports,
//! * [`par`] — the deterministic parallel sweep runner (order-preserving
//!   scoped thread pool; `TLC_SWEEP_THREADS` override),
//! * [`multiop`] — the §8 multi-operator extension: per-operator TLC
//!   instances over classified traffic,
//! * [`wheel`] / [`arena`] / [`soa`] / [`twin`] — the million-session
//!   charging digital twin: hierarchical timer wheel with O(1)
//!   schedule and no cancel, generational session slab, the charging
//!   counters each session carries, and the sharded epoch-barrier run
//!   loop.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod arena;
pub mod experiments;
pub mod measure;
pub mod metrics;
pub mod multiop;
pub mod par;
pub mod scenario;
pub mod soa;
pub mod twin;
pub mod wheel;

pub use arena::{Arena, SessionId};
pub use measure::{
    compare_schemes, cycle_records, evaluate, settle_twin_row, Comparison, CycleRecords,
    SchemeOutcome, TwinSettlement,
};
pub use metrics::{bytes_to_mb, bytes_to_mb_per_hr, Cdf};
pub use multiop::{run_multi_operator, MultiOperatorOutcome, OperatorOutcome, OperatorSlice};
pub use scenario::{
    build_radio, run_scenario, AppKind, RadioSpec, ScenarioConfig, ScenarioResult, ALL_APPS,
    APP_FLOW, BG_FLOW,
};
pub use soa::{ChargeRow, GapSweep};
pub use twin::{
    run_twin, NullSink, RoamingSweep, RoamingTwinConfig, Settled, SettlementSink, TwinConfig,
    TwinReport,
};
pub use wheel::{SchedStats, Scheduler};
