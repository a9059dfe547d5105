//! A rate-limited, store-and-forward link.
//!
//! Models one hop (radio bearer, backhaul Ethernet, core-network leg) as a
//! bounded queue feeding a serializing transmitter with constant
//! propagation latency. Congestion loss happens here: when offered load
//! exceeds the service rate the queue overflows and drop-tail discards the
//! excess — *after* any upstream counter has already charged the packet.
//!
//! The component is a polled state machine in the smoltcp style: callers
//! `enqueue` packets, then `poll(now)` to collect deliveries, using
//! `next_event_time` to drive the global event loop.

use crate::packet::Packet;
use crate::queue::{Discipline, PacketQueue, QueueStats};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Static link configuration.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// Service (serialization) rate in bits/second.
    pub rate_bps: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Queue bound in bytes.
    pub queue_capacity_bytes: u64,
    /// Service discipline.
    pub discipline: Discipline,
}

impl LinkParams {
    /// A 1 Gbps wired backhaul with sub-millisecond latency, matching the
    /// paper's small-cell-to-core Ethernet.
    pub fn gigabit_backhaul() -> Self {
        LinkParams {
            rate_bps: 1_000_000_000,
            latency: SimDuration::from_micros(300),
            queue_capacity_bytes: 4 * 1024 * 1024,
            discipline: Discipline::Fifo,
        }
    }
}

/// Delivery counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct LinkStats {
    /// Packets that completed transit.
    pub delivered_pkts: u64,
    /// Bytes that completed transit.
    pub delivered_bytes: u64,
}

/// The link state machine.
#[derive(Debug)]
pub struct Link {
    params: LinkParams,
    queue: PacketQueue,
    /// Packet currently being serialized and its completion instant.
    in_service: Option<(SimTime, Packet)>,
    /// Serialized packets still propagating: (delivery time, packet).
    in_flight: VecDeque<(SimTime, Packet)>,
    stats: LinkStats,
}

impl Link {
    /// Creates an idle link.
    pub fn new(params: LinkParams) -> Self {
        Link {
            queue: PacketQueue::new(params.discipline, params.queue_capacity_bytes),
            params,
            in_service: None,
            in_flight: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    /// Offers a packet at time `now`. Returns `false` if the queue dropped
    /// it (congestion loss).
    pub fn enqueue(&mut self, now: SimTime, pkt: Packet) -> bool {
        // Complete any service that finished strictly before this arrival,
        // so the transmitter's idle/busy state is current.
        self.complete_service_until(now);
        let accepted = self.queue.enqueue(pkt);
        self.maybe_start(now);
        accepted
    }

    /// Finishes transmissions whose serialization ends at or before `now`,
    /// chaining back-to-back service.
    fn complete_service_until(&mut self, now: SimTime) {
        while self.in_service.as_ref().is_some_and(|(end, _)| *end <= now) {
            let Some((end, pkt)) = self.in_service.take() else {
                break;
            };
            self.in_flight.push_back((end + self.params.latency, pkt));
            self.maybe_start(end);
        }
    }

    fn maybe_start(&mut self, at: SimTime) {
        if self.in_service.is_none() {
            if let Some(pkt) = self.queue.dequeue() {
                let tx = SimDuration::transmission(pkt.size as u64, self.params.rate_bps);
                self.in_service = Some((at + tx, pkt));
            }
        }
    }

    /// Advances to `now` and returns every packet delivered by then,
    /// in delivery order.
    pub fn poll(&mut self, now: SimTime) -> Vec<Packet> {
        self.poll_timed(now).into_iter().map(|(_, p)| p).collect()
    }

    /// Like [`Self::poll`] but pairs each packet with its exact delivery
    /// instant (which may precede `now` when the caller polls lazily).
    pub fn poll_timed(&mut self, now: SimTime) -> Vec<(SimTime, Packet)> {
        self.complete_service_until(now);
        let mut out = Vec::new();
        while self.in_flight.front().is_some_and(|(t, _)| *t <= now) {
            let Some((at, pkt)) = self.in_flight.pop_front() else {
                break;
            };
            self.stats.delivered_pkts += 1;
            self.stats.delivered_bytes += pkt.size as u64;
            out.push((at, pkt));
        }
        out
    }

    /// The next instant at which `poll` could produce progress.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let service = self.in_service.as_ref().map(|(t, _)| *t);
        let flight = self.in_flight.front().map(|(t, _)| *t);
        match (service, flight) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// True when no packet is queued, in service, or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_none() && self.in_flight.is_empty()
    }

    /// Queue counters (drops live here).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Delivery counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Direction, FlowId, Qci};

    fn params(rate_bps: u64, latency_ms: u64, cap: u64) -> LinkParams {
        LinkParams {
            rate_bps,
            latency: SimDuration::from_millis(latency_ms),
            queue_capacity_bytes: cap,
            discipline: Discipline::Fifo,
        }
    }

    fn pkt(id: u64, size: u32) -> Packet {
        Packet::new(
            id,
            FlowId(0),
            Direction::Uplink,
            size,
            Qci::DEFAULT,
            SimTime::ZERO,
        )
    }

    #[test]
    fn single_packet_delivery_time() {
        // 1000 bytes at 8 Mbps = 1 ms tx; +5 ms latency = 6 ms delivery.
        let mut link = Link::new(params(8_000_000, 5, 1 << 20));
        link.enqueue(SimTime::ZERO, pkt(0, 1000));
        assert_eq!(link.next_event_time(), Some(SimTime::from_millis(1)));
        assert!(link.poll(SimTime::from_millis(5)).is_empty());
        // After serialization completes, the next event is the delivery.
        assert_eq!(link.next_event_time(), Some(SimTime::from_millis(6)));
        let delivered = link.poll(SimTime::from_millis(6));
        assert_eq!(delivered.len(), 1);
        assert!(link.is_idle());
    }

    #[test]
    fn back_to_back_serialization() {
        // Two 1000-byte packets at 8 Mbps: deliveries at 6 ms and 7 ms.
        let mut link = Link::new(params(8_000_000, 5, 1 << 20));
        link.enqueue(SimTime::ZERO, pkt(0, 1000));
        link.enqueue(SimTime::ZERO, pkt(1, 1000));
        assert_eq!(link.poll(SimTime::from_millis(6)).len(), 1);
        assert_eq!(link.poll(SimTime::from_micros(6_999)).len(), 0);
        assert_eq!(link.poll(SimTime::from_millis(7)).len(), 1);
    }

    #[test]
    fn idle_gap_restarts_service_at_arrival() {
        let mut link = Link::new(params(8_000_000, 0, 1 << 20));
        link.enqueue(SimTime::ZERO, pkt(0, 1000));
        assert_eq!(link.poll(SimTime::from_millis(10)).len(), 1);
        // Transmitter idle 1 ms..20 ms; next packet starts at 20 ms.
        link.enqueue(SimTime::from_millis(20), pkt(1, 1000));
        assert!(link.poll(SimTime::from_micros(20_999)).is_empty());
        assert_eq!(link.poll(SimTime::from_millis(21)).len(), 1);
    }

    #[test]
    fn overflow_drops_are_counted() {
        // Queue fits one packet; second of three arrivals at t=0 overflows.
        let mut link = Link::new(params(8_000, 0, 1000));
        assert!(link.enqueue(SimTime::ZERO, pkt(0, 800))); // goes into service
        assert!(link.enqueue(SimTime::ZERO, pkt(1, 800))); // queued
        assert!(!link.enqueue(SimTime::ZERO, pkt(2, 800))); // queue full
        assert_eq!(link.queue_stats().dropped_pkts, 1);
    }

    #[test]
    fn delivered_stats_accumulate() {
        let mut link = Link::new(params(1_000_000, 1, 1 << 20));
        for i in 0..10 {
            link.enqueue(SimTime::ZERO, pkt(i, 500));
        }
        let delivered = link.poll(SimTime::from_secs(1));
        assert_eq!(delivered.len(), 10);
        assert_eq!(link.stats().delivered_bytes, 5000);
    }

    #[test]
    fn priority_discipline_reorders_under_load() {
        let mut p = params(8_000_000, 0, 1 << 20);
        p.discipline = Discipline::QciPriority;
        let mut link = Link::new(p);
        // First packet occupies the transmitter; the rest queue up.
        link.enqueue(
            SimTime::ZERO,
            Packet::new(
                0,
                FlowId(0),
                Direction::Downlink,
                1000,
                Qci::DEFAULT,
                SimTime::ZERO,
            ),
        );
        link.enqueue(
            SimTime::ZERO,
            Packet::new(
                1,
                FlowId(0),
                Direction::Downlink,
                1000,
                Qci::DEFAULT,
                SimTime::ZERO,
            ),
        );
        link.enqueue(
            SimTime::ZERO,
            Packet::new(
                2,
                FlowId(1),
                Direction::Downlink,
                1000,
                Qci::INTERACTIVE,
                SimTime::ZERO,
            ),
        );
        let ids: Vec<u64> = link
            .poll(SimTime::from_secs(1))
            .iter()
            .map(|p| p.id)
            .collect();
        // QCI 7 (id 2) jumps ahead of the queued QCI 9 (id 1).
        assert_eq!(ids, vec![0, 2, 1]);
    }

    #[test]
    fn next_event_time_none_when_idle() {
        let link = Link::new(params(1_000_000, 1, 1 << 20));
        assert_eq!(link.next_event_time(), None);
        assert!(link.is_idle());
    }
}
