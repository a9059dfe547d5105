//! The end-to-end cellular datapath: device ↔ small cell ↔ gateway ↔ edge
//! server.
//!
//! This is the emulated stand-in for the paper's physical testbed. All the
//! charging-gap mechanics live in *where packets are counted relative to
//! where they are dropped*:
//!
//! * **Uplink**: the device app counts at send (`x̂_e`); drops in the
//!   device's radio queue, on the air, or during outages happen *after*
//!   that count and *before* the gateway's uplink meter (`x̂_o`).
//! * **Downlink**: the gateway meters at ingress from the server (legacy
//!   CDR), then the base-station queue (congested by background traffic),
//!   the air interface, and outages drop packets *after* that meter and
//!   *before* the modem's hardware counter (TLC's `x̂_o` source).
//!
//! The datapath is a polled state machine. The driver must call
//! [`Datapath::poll`] at every instant returned by
//! [`Datapath::next_event_time`] (the harness in `tlc-sim` does this);
//! that keeps hop-to-hop handoffs exact.

use crate::counters::CountingPoint;
use crate::rrc::RrcMonitor;
use std::collections::HashMap;
use tlc_net::fair::FairQueue;
use tlc_net::link::{Link, LinkParams};
use tlc_net::loss::{GilbertElliott, RssDrivenLoss};
use tlc_net::packet::{FlowId, Packet};
use tlc_net::queue::{Discipline, PacketQueue};
use tlc_net::radio::{RadioTimeline, RLF_DETACH};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

/// One-way air latency.
const RADIO_LATENCY: SimDuration = SimDuration::from_millis(10);

/// Static datapath configuration.
#[derive(Clone, Debug)]
pub struct DatapathConfig {
    /// Uplink air-interface capacity in bits/second.
    pub ul_capacity_bps: u64,
    /// Downlink air-interface capacity in bits/second.
    pub dl_capacity_bps: u64,
    /// Device-side uplink buffer.
    pub device_buffer_bytes: u64,
    /// Base-station downlink buffer (per device).
    pub bs_buffer_bytes: u64,
    /// Residual air-interface loss as a function of signal strength.
    pub rss_loss: RssDrivenLoss,
    /// Optional bursty (Gilbert–Elliott) fading loss layered on top of
    /// the RSS-driven model: deep fades drop runs of packets, matching
    /// the correlated losses of weak cellular coverage. `None` keeps the
    /// independent RSS-driven losses only.
    pub bursty_fading: Option<GilbertElliott>,
    /// RRC inactivity timeout driving COUNTER CHECK cadence.
    pub rrc_inactivity: SimDuration,
    /// In-connection periodic COUNTER CHECK interval for long-lived
    /// connections.
    pub rrc_periodic_check: SimDuration,
    /// Use DRR per-flow fair queueing on the radio links (approximates an
    /// eNodeB's proportional-fair scheduler) instead of shared drop-tail.
    pub fair_queueing: bool,
    /// Enforce per-QCI packet delay budgets at the radio scheduler
    /// (§3.1 cause 5: the operator's middlebox drops real-time frames
    /// that exceed the latency SLA — after the gateway has metered them).
    pub enforce_sla_delay_budget: bool,
}

impl Default for DatapathConfig {
    fn default() -> Self {
        DatapathConfig {
            // 20 MHz FDD band-2 carrier like the paper's small cell:
            // ~110 Mbps downlink, ~75 Mbps uplink goodput, so the paper's
            // 100-160 Mbps background sweep saturates the cell (Fig. 3).
            ul_capacity_bps: 75_000_000,
            dl_capacity_bps: 110_000_000,
            device_buffer_bytes: 512 * 1024,
            bs_buffer_bytes: 1024 * 1024,
            rss_loss: RssDrivenLoss::paper_default(),
            bursty_fading: None,
            rrc_inactivity: crate::rrc::DEFAULT_INACTIVITY,
            rrc_periodic_check: crate::rrc::DEFAULT_PERIODIC_CHECK,
            fair_queueing: false,
            enforce_sla_delay_budget: false,
        }
    }
}

/// Per-flow byte counters at every vantage of the pipeline.
#[derive(Clone, Debug, Default)]
pub struct FlowCounters {
    /// Device app bytes sent (uplink `x̂_e`).
    pub device_app_sent: CountingPoint,
    /// Device app bytes received (edge's downlink delivery view).
    pub device_app_received: CountingPoint,
    /// Hardware modem downlink bytes (RRC COUNTER CHECK source).
    pub modem_received: CountingPoint,
    /// Gateway uplink meter (operator's uplink record).
    pub gateway_uplink: CountingPoint,
    /// Gateway downlink ingress meter (operator's legacy downlink record).
    pub gateway_downlink: CountingPoint,
    /// Server bytes sent (downlink `x̂_e`).
    pub server_sent: CountingPoint,
    /// Server bytes received (uplink delivery view).
    pub server_received: CountingPoint,
}

/// Aggregate drop accounting by cause, for diagnostics and sanity checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct DropStats {
    /// Uplink device-buffer overflows.
    pub ul_queue: u64,
    /// Downlink base-station-buffer overflows.
    pub dl_queue: u64,
    /// Residual air-interface losses (both directions).
    pub air: u64,
    /// Packets discarded because the device was detached (RLF).
    pub detached: u64,
    /// Packets lost in handovers (source-cell buffer flushes).
    pub handover: u64,
    /// Real-time frames dropped for exceeding their QCI delay budget
    /// (SLA enforcement).
    pub sla: u64,
}

/// The radio buffer: either the shared QCI-priority drop-tail queue or
/// the DRR per-flow fair queue, behind one interface.
#[derive(Debug)]
enum RadioQueue {
    Classic(PacketQueue),
    Fair(FairQueue),
}

impl RadioQueue {
    fn new(fair: bool, capacity: u64) -> Self {
        if fair {
            RadioQueue::Fair(FairQueue::new(capacity))
        } else {
            RadioQueue::Classic(PacketQueue::new(Discipline::QciPriority, capacity))
        }
    }

    fn enqueue(&mut self, pkt: Packet) -> bool {
        match self {
            RadioQueue::Classic(q) => q.enqueue(pkt),
            RadioQueue::Fair(q) => q.enqueue(pkt),
        }
    }

    fn dequeue(&mut self) -> Option<Packet> {
        match self {
            RadioQueue::Classic(q) => q.dequeue(),
            RadioQueue::Fair(q) => q.dequeue(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            RadioQueue::Classic(q) => q.is_empty(),
            RadioQueue::Fair(q) => q.is_empty(),
        }
    }

    fn flush(&mut self) -> Vec<Packet> {
        match self {
            RadioQueue::Classic(q) => q.flush(),
            RadioQueue::Fair(q) => q.flush(),
        }
    }
}

/// A radio hop: bounded queue → serializer that only runs while the device
/// has coverage → per-packet air loss → constant latency.
#[derive(Debug)]
struct RadioLink {
    rate_bps: u64,
    latency: SimDuration,
    queue: RadioQueue,
    /// Drop packets older than their QCI delay budget at service time.
    enforce_sla: bool,
    /// (serialization completes, packet)
    in_service: Option<(SimTime, Packet)>,
    /// (delivery instant, packet), delivery-ordered.
    in_flight: std::collections::VecDeque<(SimTime, Packet)>,
    air_drops: u64,
    sla_drops: u64,
}

impl RadioLink {
    fn new(
        rate_bps: u64,
        latency: SimDuration,
        buffer_bytes: u64,
        fair: bool,
        enforce_sla: bool,
    ) -> Self {
        RadioLink {
            rate_bps,
            latency,
            queue: RadioQueue::new(fair, buffer_bytes),
            enforce_sla,
            in_service: None,
            in_flight: std::collections::VecDeque::new(),
            air_drops: 0,
            sla_drops: 0,
        }
    }

    /// Offers a packet. The caller must have advanced the link to `now`
    /// first (the datapath polls itself before every injection).
    fn enqueue(&mut self, now: SimTime, pkt: Packet, radio: &RadioTimeline) -> bool {
        let ok = self.queue.enqueue(pkt);
        self.maybe_start(now, radio);
        ok
    }

    fn maybe_start(&mut self, at: SimTime, radio: &RadioTimeline) {
        while self.in_service.is_none() {
            let Some(pkt) = self.queue.dequeue() else {
                break;
            };
            // SLA middlebox: a real-time frame whose queueing delay has
            // already blown its QCI delay budget is dropped instead of
            // transmitted stale (§3.1 cause 5).
            if self.enforce_sla {
                let budget = SimDuration::from_millis(pkt.qci.delay_budget_ms());
                if at.since(pkt.sent_at) > budget {
                    self.sla_drops += 1;
                    continue;
                }
            }
            let tx = SimDuration::transmission(pkt.size as u64, self.rate_bps);
            // Serialization pauses across outages; completion is exact.
            let done = radio.advance_connected(at, tx);
            self.in_service = Some((done, pkt));
        }
    }

    /// Completes services due by `now`, sampling air loss at the
    /// completion instant's RSS (plus optional bursty fading), then
    /// chains the next service.
    fn advance(
        &mut self,
        now: SimTime,
        radio: &RadioTimeline,
        rng: &mut SimRng,
        loss: &RssDrivenLoss,
        fading: &mut Option<GilbertElliott>,
    ) {
        while self
            .in_service
            .as_ref()
            .is_some_and(|(done, _)| *done <= now)
        {
            let Some((done, pkt)) = self.in_service.take() else {
                break;
            };
            let rss = radio.rss_at(done);
            let faded = match fading {
                Some(ge) => {
                    use tlc_net::loss::LossModel;
                    ge.should_drop(done, &pkt, rng)
                }
                None => false,
            };
            if faded || loss.should_drop_at(rss, rng) {
                self.air_drops += 1;
            } else {
                self.in_flight.push_back((done + self.latency, pkt));
            }
            self.maybe_start(done, radio);
        }
    }

    /// Packets delivered by `now`, with their exact delivery instants
    /// (the driver may poll later than the delivery; counters must use
    /// the true time).
    fn pop_delivered(&mut self, now: SimTime) -> Vec<(SimTime, Packet)> {
        let mut out = Vec::new();
        while self.in_flight.front().is_some_and(|(at, _)| *at <= now) {
            let Some(item) = self.in_flight.pop_front() else {
                break;
            };
            out.push(item);
        }
        out
    }

    fn next_event_time(&self) -> Option<SimTime> {
        let a = self.in_service.as_ref().map(|(t, _)| *t);
        let b = self.in_flight.front().map(|(t, _)| *t);
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_none() && self.in_flight.is_empty()
    }
}

/// The assembled datapath for one device (plus any background flows that
/// share its cell).
pub struct Datapath {
    cfg: DatapathConfig,
    radio: RadioTimeline,
    rng: SimRng,
    ul_radio: RadioLink,
    dl_radio: RadioLink,
    ul_backhaul: Link,
    dl_backhaul: Link,
    flows: HashMap<FlowId, FlowCounters>,
    /// Flows belonging to *other* devices sharing the cell (the paper's
    /// "iperf background traffic to a separate phone"): they contend for
    /// the same links but do not touch this device's modem/RRC state and
    /// are not gated by its outages.
    foreign: std::collections::HashSet<FlowId>,
    /// Flow whose one-way delays are sampled (ping probes for Fig. 16a).
    probe: Option<FlowId>,
    /// (sent, delivered) pairs for the probe flow.
    probe_delays: Vec<(SimTime, SimTime)>,
    rrc: RrcMonitor,
    drops: DropStats,
    /// Precomputed RLF detach windows: (detach start, reattach).
    detach_intervals: Vec<(SimTime, SimTime)>,
    /// Pending handover instants (sorted ascending): at each, the source
    /// cell's queued packets are flushed (§3.1's link-layer mobility loss).
    handovers: std::collections::VecDeque<SimTime>,
    /// Per-direction bursty-fading channel state, when enabled.
    fading_ul: Option<GilbertElliott>,
    fading_dl: Option<GilbertElliott>,
}

impl Datapath {
    /// Builds a datapath over the given radio channel.
    pub fn new(cfg: DatapathConfig, radio: RadioTimeline, rng: SimRng) -> Self {
        // Outages longer than the RLF detection window cause a detach from
        // (outage start + RLF window) until coverage returns.
        let detach_intervals = radio
            .outage_intervals()
            .into_iter()
            .filter(|(s, e)| (*e - *s) > RLF_DETACH)
            .map(|(s, e)| (s + RLF_DETACH, e))
            .collect();
        let cfg2_fading = cfg.bursty_fading;
        Datapath {
            ul_radio: RadioLink::new(
                cfg.ul_capacity_bps,
                RADIO_LATENCY,
                cfg.device_buffer_bytes,
                cfg.fair_queueing,
                cfg.enforce_sla_delay_budget,
            ),
            dl_radio: RadioLink::new(
                cfg.dl_capacity_bps,
                RADIO_LATENCY,
                cfg.bs_buffer_bytes,
                cfg.fair_queueing,
                cfg.enforce_sla_delay_budget,
            ),
            ul_backhaul: Link::new(LinkParams::gigabit_backhaul()),
            dl_backhaul: Link::new(LinkParams::gigabit_backhaul()),
            rrc: RrcMonitor::new(cfg.rrc_inactivity).with_periodic(cfg.rrc_periodic_check),
            cfg,
            radio,
            rng,
            flows: HashMap::new(),
            foreign: std::collections::HashSet::new(),
            probe: None,
            probe_delays: Vec::new(),
            drops: DropStats::default(),
            detach_intervals,
            handovers: std::collections::VecDeque::new(),
            fading_ul: cfg2_fading,
            fading_dl: cfg2_fading,
        }
    }

    /// Schedules handover instants: at each, both radio queues flush (the
    /// packets buffered at the source cell are lost in the switch). The
    /// instants must be ascending.
    pub fn set_handovers(&mut self, mut instants: Vec<SimTime>) {
        instants.sort();
        self.handovers = instants.into();
    }

    /// Marks `flow` as the latency probe: every delivered packet records
    /// a (sent, delivered) pair retrievable via [`Self::probe_delays`].
    pub fn mark_probe(&mut self, flow: FlowId) {
        self.probe = Some(flow);
    }

    /// One-way (sent, delivered) samples of the probe flow.
    pub fn probe_delays(&self) -> &[(SimTime, SimTime)] {
        &self.probe_delays
    }

    /// Declares `flow` as belonging to a different device on the same
    /// cell: it shares link capacity but not this device's modem, RRC
    /// state, or outage gating.
    pub fn mark_foreign(&mut self, flow: FlowId) {
        self.foreign.insert(flow);
    }

    fn is_foreign(&self, flow: FlowId) -> bool {
        self.foreign.contains(&flow)
    }

    /// This device's cumulative modem downlink count (foreign flows
    /// excluded) — what RRC COUNTER CHECK reports.
    fn modem_total(&self) -> u64 {
        self.flows
            .iter()
            .filter(|(f, _)| !self.foreign.contains(f))
            .map(|(_, c)| c.modem_received.bytes())
            .sum()
    }

    /// Whether the device is RLF-detached at `t`.
    pub fn is_detached(&self, t: SimTime) -> bool {
        self.detach_intervals.iter().any(|(s, e)| *s <= t && t < *e)
    }

    fn counters(&mut self, flow: FlowId) -> &mut FlowCounters {
        self.flows.entry(flow).or_default()
    }

    /// Injects an uplink packet from the device application at `now`.
    ///
    /// While detached the send fails at the socket layer and nothing is
    /// counted (the app sees the error); otherwise the app's sent counter
    /// (`x̂_e`) advances even if the packet later dies on the radio.
    pub fn send_uplink(&mut self, now: SimTime, pkt: Packet) {
        self.poll(now);
        let foreign = self.is_foreign(pkt.flow);
        if !foreign && self.is_detached(now) {
            self.drops.detached += 1;
            return;
        }
        self.counters(pkt.flow)
            .device_app_sent
            .record(now, pkt.size);
        if !foreign {
            self.rrc.on_activity(now);
        }
        if !self.ul_radio.enqueue(now, pkt, &self.radio) {
            self.drops.ul_queue += 1;
        }
    }

    /// Injects a downlink packet from the edge server at `now`.
    ///
    /// While detached the server's sends are refused upstream (no bearer),
    /// uncounted on both sides — matching the paper's observation that
    /// RLF detach stops the gap from growing. Otherwise the server's sent
    /// counter and the gateway's downlink meter advance immediately; the
    /// radio may still lose the packet afterwards.
    pub fn send_downlink(&mut self, now: SimTime, pkt: Packet) {
        self.poll(now);
        if !self.is_foreign(pkt.flow) && self.is_detached(now) {
            self.drops.detached += 1;
            return;
        }
        let c = self.counters(pkt.flow);
        c.server_sent.record(now, pkt.size);
        c.gateway_downlink.record(now, pkt.size);
        // Backhaul is 1 Gbps and effectively lossless; the radio is the
        // bottleneck where congestion loss happens.
        let _ = self.dl_backhaul.enqueue(now, pkt);
    }

    /// Advances all components to `now` and shuttles packets between hops.
    pub fn poll(&mut self, now: SimTime) {
        // Handovers due by now: the source cell's buffered packets are
        // lost in the switch (counted after the gateway for downlink —
        // exactly the §3.1 mobility gap).
        while let Some(&h) = self.handovers.front() {
            if h > now {
                break;
            }
            self.handovers.pop_front();
            let lost = self.ul_radio.queue.flush().len() + self.dl_radio.queue.flush().len();
            self.drops.handover += lost as u64;
        }
        // Outage breaks any RRC connection without a counter check.
        if self.rrc.is_connected() && !self.radio.connected_at(now) {
            self.rrc.on_outage(now);
        }
        // Inactivity release triggers the COUNTER CHECK: the modem's
        // cumulative count at release time equals the current total
        // (no traffic occurred since last activity by construction).
        // Long-lived connections also get periodic in-connection checks.
        let modem_total = self.modem_total();
        self.rrc.poll_periodic(now, modem_total);
        self.rrc.poll_release(now, modem_total);

        // Downlink: backhaul -> base-station radio queue.
        for (at, pkt) in self.dl_backhaul.poll_timed(now) {
            if !self.dl_radio.enqueue(at, pkt, &self.radio) {
                self.drops.dl_queue += 1;
            }
        }
        // Downlink: radio deliveries -> modem & app counters.
        self.dl_radio.advance(
            now,
            &self.radio,
            &mut self.rng,
            &self.cfg.rss_loss,
            &mut self.fading_dl,
        );
        self.drops.air = self.ul_radio.air_drops + self.dl_radio.air_drops;
        self.drops.sla = self.ul_radio.sla_drops + self.dl_radio.sla_drops;
        for (at, pkt) in self.dl_radio.pop_delivered(now) {
            let foreign = self.foreign.contains(&pkt.flow);
            if self.probe == Some(pkt.flow) {
                self.probe_delays.push((pkt.sent_at, at));
            }
            let c = self.flows.entry(pkt.flow).or_default();
            c.modem_received.record(at, pkt.size);
            c.device_app_received.record(at, pkt.size);
            if !foreign {
                self.rrc.on_activity(at);
            }
        }
        // Uplink: radio deliveries -> backhaul.
        self.ul_radio.advance(
            now,
            &self.radio,
            &mut self.rng,
            &self.cfg.rss_loss,
            &mut self.fading_ul,
        );
        self.drops.air = self.ul_radio.air_drops + self.dl_radio.air_drops;
        for (at, pkt) in self.ul_radio.pop_delivered(now) {
            let _ = self.ul_backhaul.enqueue(at, pkt);
        }
        // Uplink: backhaul deliveries -> gateway & server counters.
        for (at, pkt) in self.ul_backhaul.poll_timed(now) {
            if self.probe == Some(pkt.flow) {
                self.probe_delays.push((pkt.sent_at, at));
            }
            let c = self.flows.entry(pkt.flow).or_default();
            c.gateway_uplink.record(at, pkt.size);
            c.server_received.record(at, pkt.size);
        }
    }

    /// Earliest instant at which [`Self::poll`] could make progress.
    pub fn next_event_time(&self, now: SimTime) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut consider = |cand: Option<SimTime>| {
            if let Some(c) = cand {
                t = Some(match t {
                    Some(cur) => cur.min(c),
                    None => c,
                });
            }
        };
        consider(self.ul_radio.next_event_time());
        consider(self.dl_radio.next_event_time());
        consider(self.ul_backhaul.next_event_time());
        consider(self.dl_backhaul.next_event_time());
        consider(self.rrc.release_due());
        consider(self.rrc.periodic_due());
        consider(self.handovers.front().copied());
        // Radio state changes matter while anything is pending or connected.
        if !self.is_quiescent() || self.rrc.is_connected() {
            consider(self.radio.next_transition_after(now));
        }
        t
    }

    fn is_quiescent(&self) -> bool {
        self.ul_radio.is_idle()
            && self.dl_radio.is_idle()
            && self.ul_backhaul.is_idle()
            && self.dl_backhaul.is_idle()
    }

    /// Per-flow counters (read-only).
    pub fn flow_counters(&self, flow: FlowId) -> Option<&FlowCounters> {
        self.flows.get(&flow)
    }

    /// The RRC monitor (operator's COUNTER-CHECK history).
    pub fn rrc(&self) -> &RrcMonitor {
        &self.rrc
    }

    /// Drop accounting.
    pub fn drops(&self) -> DropStats {
        self.drops
    }

    /// Configuration in use.
    pub fn config(&self) -> &DatapathConfig {
        &self.cfg
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use tlc_net::packet::{Direction, PacketIdAlloc, Qci};

    fn run_to_quiescence(dp: &mut Datapath, mut now: SimTime, horizon: SimTime) -> SimTime {
        while let Some(t) = dp.next_event_time(now) {
            if t > horizon {
                break;
            }
            now = t;
            dp.poll(now);
        }
        now
    }

    fn dl_pkt(alloc: &mut PacketIdAlloc, flow: u32, size: u32, t: SimTime) -> Packet {
        Packet::new(
            alloc.next_id(),
            FlowId(flow),
            Direction::Downlink,
            size,
            Qci::DEFAULT,
            t,
        )
    }

    fn ul_pkt(alloc: &mut PacketIdAlloc, flow: u32, size: u32, t: SimTime) -> Packet {
        Packet::new(
            alloc.next_id(),
            FlowId(flow),
            Direction::Uplink,
            size,
            Qci::DEFAULT,
            t,
        )
    }

    #[test]
    fn clean_channel_delivers_everything() {
        let radio = RadioTimeline::constant(SimDuration::from_secs(60), -80.0);
        let mut loss_free = DatapathConfig::default();
        loss_free.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        let mut dp = Datapath::new(loss_free, radio, SimRng::new(1));
        let mut alloc = PacketIdAlloc::new();
        for i in 0..100 {
            let t = SimTime::from_millis(i * 10);
            dp.poll(t);
            dp.send_uplink(t, ul_pkt(&mut alloc, 1, 1200, t));
            dp.send_downlink(t, dl_pkt(&mut alloc, 1, 1400, t));
        }
        run_to_quiescence(&mut dp, SimTime::from_secs(1), SimTime::from_secs(59));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert_eq!(c.device_app_sent.bytes(), 120_000);
        assert_eq!(c.gateway_uplink.bytes(), 120_000);
        assert_eq!(c.server_received.bytes(), 120_000);
        assert_eq!(c.server_sent.bytes(), 140_000);
        assert_eq!(c.gateway_downlink.bytes(), 140_000);
        assert_eq!(c.modem_received.bytes(), 140_000);
        assert_eq!(c.device_app_received.bytes(), 140_000);
    }

    #[test]
    fn congestion_creates_downlink_gap_after_gateway() {
        // Offer far more downlink than the radio can carry.
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.dl_capacity_bps = 10_000_000; // 10 Mbps bottleneck
        cfg.bs_buffer_bytes = 64 * 1024;
        let mut dp = Datapath::new(cfg, radio, SimRng::new(2));
        let mut alloc = PacketIdAlloc::new();
        // 100 Mbps offered for 2 seconds.
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2) {
            dp.poll(t);
            dp.send_downlink(t, dl_pkt(&mut alloc, 1, 1400, t));
            t += SimDuration::from_micros(112); // ~100 Mbps of 1400B pkts
        }
        run_to_quiescence(&mut dp, t, SimTime::from_secs(29));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert!(c.gateway_downlink.bytes() > c.modem_received.bytes());
        assert!(dp.drops().dl_queue > 0, "expected queue overflow");
        // The operator metered everything the server sent.
        assert_eq!(c.gateway_downlink.bytes(), c.server_sent.bytes());
    }

    #[test]
    fn uplink_congestion_gap_is_before_gateway() {
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.ul_capacity_bps = 5_000_000;
        cfg.device_buffer_bytes = 32 * 1024;
        let mut dp = Datapath::new(cfg, radio, SimRng::new(3));
        let mut alloc = PacketIdAlloc::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2) {
            dp.poll(t);
            dp.send_uplink(t, ul_pkt(&mut alloc, 1, 1200, t));
            t += SimDuration::from_micros(200); // ~48 Mbps offered
        }
        run_to_quiescence(&mut dp, t, SimTime::from_secs(29));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert!(c.device_app_sent.bytes() > c.gateway_uplink.bytes());
        assert_eq!(c.gateway_uplink.bytes(), c.server_received.bytes());
        assert!(dp.drops().ul_queue > 0);
    }

    #[test]
    fn outage_buffers_then_delivers() {
        // Packets sent as an outage starts buffer at the base station and
        // deliver once coverage returns.
        let mut rng = SimRng::new(99);
        let radio = RadioTimeline::intermittent(
            SimDuration::from_secs(120),
            -85.0,
            0.10,
            SimDuration::from_secs(2),
            &mut rng,
        );
        let outages = radio.outage_intervals();
        assert!(!outages.is_empty());
        let (o_start, _o_end) = outages[0];
        let mut cfg = DatapathConfig::default();
        cfg.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        cfg.bs_buffer_bytes = 10 * 1024 * 1024; // big buffer: no overflow
        let mut dp = Datapath::new(cfg, radio, SimRng::new(4));
        let mut alloc = PacketIdAlloc::new();
        // Send a handful of packets right as the outage starts.
        let t0 = o_start + SimDuration::from_millis(10);
        dp.poll(t0);
        for _ in 0..5 {
            dp.send_downlink(t0, dl_pkt(&mut alloc, 1, 1400, t0));
        }
        run_to_quiescence(&mut dp, t0, SimTime::from_secs(119));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        // All five eventually reach the modem (buffered through the outage).
        assert_eq!(c.modem_received.bytes(), 5 * 1400);
    }

    #[test]
    fn small_buffer_drops_during_outage() {
        let mut rng = SimRng::new(7);
        let radio = RadioTimeline::intermittent(
            SimDuration::from_secs(300),
            -85.0,
            0.15,
            SimDuration::from_secs(3),
            &mut rng,
        );
        let (o_start, o_end) = radio.outage_intervals()[0];
        assert!((o_end - o_start) > SimDuration::from_millis(500));
        let mut cfg = DatapathConfig::default();
        cfg.bs_buffer_bytes = 4 * 1400; // tiny buffer
        let mut dp = Datapath::new(cfg, radio, SimRng::new(8));
        let mut alloc = PacketIdAlloc::new();
        // Stream during the outage: buffer fills, rest drops.
        let mut t = o_start + SimDuration::from_millis(1);
        while t < o_end {
            dp.poll(t);
            dp.send_downlink(t, dl_pkt(&mut alloc, 1, 1400, t));
            t += SimDuration::from_millis(10);
        }
        run_to_quiescence(&mut dp, t, SimTime::from_secs(299));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert!(dp.drops().dl_queue > 0, "tiny buffer must overflow");
        assert!(c.gateway_downlink.bytes() > c.modem_received.bytes());
    }

    #[test]
    fn rlf_detach_stops_charging() {
        // A 20 s outage (> 5 s RLF window) triggers detach.
        let mut rng = SimRng::new(10);
        let walk = tlc_net::radio::RssWalkParams {
            mean_rss_dbm: -118.0, // deep dead zone
            std_dev_db: 0.5,
            reversion: 0.5,
            sample_interval: SimDuration::from_secs(1),
        };
        let radio = RadioTimeline::rss_walk(SimDuration::from_secs(60), walk, &mut rng);
        assert!(radio.disconnectivity_ratio() > 0.9);
        let mut dp = Datapath::new(DatapathConfig::default(), radio, SimRng::new(11));
        let mut alloc = PacketIdAlloc::new();
        // After the RLF window the device is detached; sends are refused.
        let t = SimTime::from_secs(10);
        dp.poll(t);
        assert!(dp.is_detached(t));
        dp.send_downlink(t, dl_pkt(&mut alloc, 1, 1400, t));
        dp.send_uplink(t, ul_pkt(&mut alloc, 1, 1200, t));
        assert!(
            dp.flow_counters(FlowId(1)).is_none(),
            "nothing counted while detached"
        );
        assert_eq!(dp.drops().detached, 2);
    }

    #[test]
    fn qci7_flow_survives_qci9_congestion() {
        // Background QCI 9 saturates the downlink; QCI 7 gaming packets cut
        // the line (the paper's Fig. 12d/13d mechanism).
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.dl_capacity_bps = 20_000_000;
        cfg.bs_buffer_bytes = 128 * 1024;
        cfg.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        let mut dp = Datapath::new(cfg, radio, SimRng::new(5));
        let mut alloc = PacketIdAlloc::new();
        let mut t = SimTime::ZERO;
        let mut game_seq = 0u64;
        while t < SimTime::from_secs(5) {
            dp.poll(t);
            // 80 Mbps background.
            dp.send_downlink(t, dl_pkt(&mut alloc, 99, 1400, t));
            // 50 pkt/s gaming.
            if t.as_micros().is_multiple_of(20_000) {
                let p = Packet::new(
                    alloc.next_id(),
                    FlowId(1),
                    Direction::Downlink,
                    200,
                    Qci::INTERACTIVE,
                    t,
                );
                dp.send_downlink(t, p);
                game_seq += 1;
            }
            t += SimDuration::from_micros(140);
        }
        run_to_quiescence(&mut dp, t, SimTime::from_secs(29));
        let game = dp.flow_counters(FlowId(1)).unwrap();
        let bg = dp.flow_counters(FlowId(99)).unwrap();
        // Gaming sees (nearly) everything; background loses heavily.
        assert_eq!(game.modem_received.bytes(), game_seq * 200);
        assert!(bg.modem_received.bytes() < bg.gateway_downlink.bytes() / 2);
    }

    #[test]
    fn handover_flushes_queued_packets_after_gateway_count() {
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.dl_capacity_bps = 1_000_000; // slow cell: packets queue up
        cfg.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        let mut dp = Datapath::new(cfg, radio, SimRng::new(21));
        dp.set_handovers(vec![SimTime::from_millis(500)]);
        let mut alloc = PacketIdAlloc::new();
        // Burst 100 packets at t=0: 11.2 ms of service each (1.12 s all
        // told), so half are still queued when the handover hits at 0.5 s.
        for _ in 0..100 {
            dp.send_downlink(SimTime::ZERO, dl_pkt(&mut alloc, 1, 1400, SimTime::ZERO));
        }
        run_to_quiescence(&mut dp, SimTime::ZERO, SimTime::from_secs(29));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert!(dp.drops().handover > 0, "handover must flush packets");
        assert_eq!(
            c.gateway_downlink.bytes(),
            100 * 1400,
            "gateway counted everything"
        );
        assert!(
            c.modem_received.bytes() < 100 * 1400,
            "device missed flushed packets"
        );
    }

    #[test]
    fn fair_queueing_protects_thin_flow_under_flood() {
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut base = DatapathConfig::default();
        base.dl_capacity_bps = 10_000_000;
        base.bs_buffer_bytes = 64 * 1024;
        base.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        let run = |fair: bool| {
            let mut cfg = base.clone();
            cfg.fair_queueing = fair;
            let mut dp = Datapath::new(
                cfg,
                RadioTimeline::constant(SimDuration::from_secs(30), -80.0),
                SimRng::new(22),
            );
            dp.mark_foreign(FlowId(99));
            let mut alloc = PacketIdAlloc::new();
            let mut t = SimTime::ZERO;
            // Flood at ~50 Mbps, thin flow at ~0.5 Mbps, same QCI.
            let mut k = 0u64;
            while t < SimTime::from_secs(3) {
                dp.send_downlink(t, dl_pkt(&mut alloc, 99, 1400, t));
                if k.is_multiple_of(100) {
                    dp.send_downlink(t, dl_pkt(&mut alloc, 1, 1400, t));
                }
                k += 1;
                t += SimDuration::from_micros(224);
            }
            run_to_quiescence(&mut dp, t, SimTime::from_secs(29));
            let c = dp.flow_counters(FlowId(1)).unwrap();
            c.modem_received.bytes() as f64 / c.gateway_downlink.bytes() as f64
        };
        let _ = radio;
        let fifo_delivery = run(false);
        let fair_delivery = run(true);
        assert!(
            fair_delivery > fifo_delivery,
            "fair {fair_delivery} !> fifo {fifo_delivery}"
        );
        assert!(
            fair_delivery > 0.95,
            "thin flow should be nearly lossless: {fair_delivery}"
        );
    }

    #[test]
    fn bursty_fading_adds_correlated_loss() {
        let duration = SimDuration::from_secs(60);
        let run = |fading: Option<tlc_net::loss::GilbertElliott>| {
            let mut cfg = DatapathConfig::default();
            cfg.rss_loss = RssDrivenLoss {
                base_loss: 0.0,
                slope_per_dbm: 0.0,
                good_threshold_dbm: -95.0,
            };
            cfg.bursty_fading = fading;
            let mut dp = Datapath::new(
                cfg,
                RadioTimeline::constant(duration, -80.0),
                SimRng::new(41),
            );
            let mut alloc = PacketIdAlloc::new();
            let mut t = SimTime::ZERO;
            while t < SimTime::from_secs(10) {
                dp.send_downlink(t, dl_pkt(&mut alloc, 1, 1400, t));
                t += SimDuration::from_millis(2);
            }
            run_to_quiescence(&mut dp, t, SimTime::from_secs(59));
            let c = dp.flow_counters(FlowId(1)).unwrap();
            (
                c.gateway_downlink.bytes(),
                c.modem_received.bytes(),
                dp.drops().air,
            )
        };
        let (sent, recv_clean, air_clean) = run(None);
        assert_eq!(recv_clean, sent, "no loss without fading");
        assert_eq!(air_clean, 0);
        let ge = tlc_net::loss::GilbertElliott::new(0.02, 0.1, 0.0, 0.8);
        let (_, recv_faded, air_faded) = run(Some(ge));
        assert!(air_faded > 0, "fading must drop packets");
        assert!(recv_faded < sent);
        // Long-run loss near the chain's stationary rate (±60% relative).
        let expect = ge.expected_loss_rate();
        let got = 1.0 - recv_faded as f64 / sent as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.6,
            "loss {got} vs expected {expect}"
        );
    }

    #[test]
    fn sla_budget_drops_stale_frames_after_gateway() {
        // A 100 ms-budget (QCI 7) stream on a slow cell: queueing delay
        // quickly exceeds the budget and the middlebox drops stale frames
        // — after the gateway has metered them.
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.dl_capacity_bps = 1_000_000; // 11.2 ms per 1400 B packet
        cfg.enforce_sla_delay_budget = true;
        cfg.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        let mut dp = Datapath::new(cfg, radio, SimRng::new(31));
        let mut alloc = PacketIdAlloc::new();
        // 30 packets at once: the 10th onward waits >100 ms.
        for _ in 0..30 {
            let p = Packet::new(
                alloc.next_id(),
                FlowId(1),
                tlc_net::packet::Direction::Downlink,
                1400,
                tlc_net::packet::Qci::INTERACTIVE,
                SimTime::ZERO,
            );
            dp.send_downlink(SimTime::ZERO, p);
        }
        run_to_quiescence(&mut dp, SimTime::ZERO, SimTime::from_secs(29));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert!(dp.drops().sla > 0, "stale frames must be SLA-dropped");
        assert_eq!(c.gateway_downlink.bytes(), 30 * 1400);
        assert!(c.modem_received.bytes() < 30 * 1400);
        // Everything delivered arrived within ~budget + one service time.
        assert_eq!(
            c.modem_received.bytes() + dp.drops().sla * 1400,
            30 * 1400,
            "every packet either delivered or SLA-dropped"
        );
    }

    #[test]
    fn sla_disabled_delivers_stale_frames() {
        let radio = RadioTimeline::constant(SimDuration::from_secs(30), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.dl_capacity_bps = 1_000_000;
        cfg.enforce_sla_delay_budget = false;
        cfg.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        let mut dp = Datapath::new(cfg, radio, SimRng::new(32));
        let mut alloc = PacketIdAlloc::new();
        for _ in 0..30 {
            let p = Packet::new(
                alloc.next_id(),
                FlowId(1),
                tlc_net::packet::Direction::Downlink,
                1400,
                tlc_net::packet::Qci::INTERACTIVE,
                SimTime::ZERO,
            );
            dp.send_downlink(SimTime::ZERO, p);
        }
        run_to_quiescence(&mut dp, SimTime::ZERO, SimTime::from_secs(29));
        let c = dp.flow_counters(FlowId(1)).unwrap();
        assert_eq!(dp.drops().sla, 0);
        assert_eq!(c.modem_received.bytes(), 30 * 1400);
    }

    #[test]
    fn rrc_counter_check_fires_after_inactivity() {
        let radio = RadioTimeline::constant(SimDuration::from_secs(120), -80.0);
        let mut cfg = DatapathConfig::default();
        cfg.rss_loss = RssDrivenLoss {
            base_loss: 0.0,
            slope_per_dbm: 0.0,
            good_threshold_dbm: -95.0,
        };
        cfg.rrc_inactivity = SimDuration::from_secs(5);
        let mut dp = Datapath::new(cfg, radio, SimRng::new(6));
        let mut alloc = PacketIdAlloc::new();
        dp.poll(SimTime::ZERO);
        dp.send_downlink(SimTime::ZERO, dl_pkt(&mut alloc, 1, 1400, SimTime::ZERO));
        run_to_quiescence(&mut dp, SimTime::ZERO, SimTime::from_secs(119));
        // Delivery happened, then 5 s of silence -> release + COUNTER CHECK.
        assert!(!dp.rrc().is_connected());
        assert_eq!(dp.rrc().checks().len(), 1);
        assert_eq!(dp.rrc().checks()[0].modem_bytes, 1400);
        // Operator's RRC view after the check equals the modem truth.
        assert_eq!(dp.rrc().operator_view_at(SimTime::from_secs(100)), 1400);
    }
}
