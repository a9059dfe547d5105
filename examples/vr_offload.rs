//! Edge-powered VR offload (§2.2): the paper's heaviest workload.
//!
//! A 9 Mbps, 60 FPS GVSP graphical stream is rendered at the edge server
//! and displayed on a headset. Heavy traffic amplifies both loss-induced
//! gaps (congestion) and the economic stakes of selfish charging. This
//! example sweeps congestion levels, shows the charging-gap growth, the
//! TLC reduction at each level, and demonstrates trace record/replay
//! (the paper replays VRidge tcpdump captures).
//!
//! ```sh
//! cargo run --release --example vr_offload
//! ```

use tlc_core::plan::DataPlan;
use tlc_net::rng::SimRng;
use tlc_net::time::SimDuration;
use tlc_sim::measure::evaluate;
use tlc_sim::metrics::bytes_to_mb_per_hr;
use tlc_sim::scenario::{run_scenario, AppKind, ScenarioConfig};
use tlc_workloads::trace::PacketTrace;
use tlc_workloads::vr::VrStream;

fn main() {
    let plan = DataPlan::paper_default();
    let cycle = SimDuration::from_secs(90);

    println!(
        "VR offload ({}), sweeping cell congestion:\n",
        AppKind::Vr.name()
    );
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "bg Mbps", "loss MB/hr", "legacy Δ MB/hr", "TLC Δ MB/hr", "reduction"
    );
    for bg in [0.0, 80.0, 120.0, 160.0] {
        let cfg = ScenarioConfig::new(AppKind::Vr, 1000 + bg as u64, cycle).with_background(bg);
        let r = run_scenario(&cfg);
        let cmp = evaluate(&r, &plan, cfg.seed).expect("pricing");
        let records = tlc_sim::measure::cycle_records(&r);
        let loss = records.truth.edge - records.truth.operator;
        let legacy_gap = cmp.gap(cmp.legacy.charge);
        let tlc_gap = cmp.gap(cmp.tlc_optimal.charge);
        println!(
            "{:>8.0} {:>12.1} {:>14.1} {:>14.1} {:>11.1}%",
            bg,
            bytes_to_mb_per_hr(loss, cycle.as_secs_f64()),
            bytes_to_mb_per_hr(legacy_gap, cycle.as_secs_f64()),
            bytes_to_mb_per_hr(tlc_gap, cycle.as_secs_f64()),
            tlc_core::legacy::gap_reduction(legacy_gap, tlc_gap) * 100.0,
        );
    }

    // ── Trace record/replay, as the paper does with its VRidge logs ─────
    println!("\nrecording a 10 s VR trace and replaying it (tcprelay-style):");
    let mut live = VrStream::vridge(SimDuration::from_secs(10), SimRng::new(5));
    let trace = PacketTrace::record(&mut live);
    println!(
        "  captured {} packets, {:.1} MB, {:.2} Mbps over {:.1} s",
        trace.records.len(),
        trace.total_bytes() as f64 / 1e6,
        trace.mean_rate_mbps(),
        trace.duration().as_secs_f64()
    );
    // Replay at half speed (tcprelay --multiplier 0.5 equivalent).
    let slow = trace.replayer_scaled(2.0);
    let mut n = 0usize;
    let mut replay = slow;
    use tlc_workloads::traffic::Workload;
    while replay.next().is_some() {
        n += 1;
    }
    println!(
        "  replayed {} packets at 0.5x speed ({:.2} Mbps effective)",
        n,
        trace.mean_rate_mbps() / 2.0
    );
}
