//! Packets and flows.
//!
//! The simulator is charging-oriented: packets carry sizes, flow identity,
//! and QoS class, not payload bytes. (Counting bytes is the whole game —
//! the charging gap is a disagreement between byte counters at different
//! vantage points.)

use crate::time::SimTime;

/// Uplink (device → server) or downlink (server → device).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Device → base station → gateway → server.
    Uplink,
    /// Server → gateway → base station → device.
    Downlink,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Uplink => Direction::Downlink,
            Direction::Downlink => Direction::Uplink,
        }
    }
}

/// LTE QoS Class Identifier. The paper's gaming scenario uses QCI 7
/// (interactive gaming, 100 ms budget) against QCI 9 background traffic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Qci(pub u8);

impl Qci {
    /// QCI 3: real-time gaming, GBR, 50 ms packet delay budget.
    pub const GAMING_GBR: Qci = Qci(3);
    /// QCI 7: voice/video/interactive gaming, non-GBR, 100 ms budget.
    pub const INTERACTIVE: Qci = Qci(7);
    /// QCI 9: default best-effort bearer (lowest priority).
    pub const DEFAULT: Qci = Qci(9);

    /// Scheduling priority: lower value = served first.
    ///
    /// Follows 3GPP TS 23.203 Table 6.1.7: QCI 3 -> 3, QCI 7 -> 7, QCI 9 -> 9.
    pub fn priority(&self) -> u8 {
        self.0
    }

    /// Packet delay budget per TS 23.203 (used for SLA-driven frame drops).
    pub fn delay_budget_ms(&self) -> u64 {
        match self.0 {
            1 => 100,
            2 => 150,
            3 => 50,
            4 => 300,
            5 => 100,
            6 => 300,
            7 => 100,
            8 | 9 => 300,
            _ => 300,
        }
    }
}

/// Identifies an application flow (one edge app on one device).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Unique per-simulation sequence number.
    pub id: u64,
    /// Owning application flow.
    pub flow: FlowId,
    /// Travel direction.
    pub direction: Direction,
    /// Size on the wire in bytes (IP layer).
    pub size: u32,
    /// QoS class of the bearer carrying this packet.
    pub qci: Qci,
    /// When the sending application emitted it.
    pub sent_at: SimTime,
    /// Application frame this packet belongs to (e.g. one H.264 frame can
    /// span several packets); used for frame-level SLA drops.
    pub frame: u64,
}

impl Packet {
    /// Convenience constructor.
    pub fn new(
        id: u64,
        flow: FlowId,
        direction: Direction,
        size: u32,
        qci: Qci,
        sent_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            direction,
            size,
            qci,
            sent_at,
            frame: 0,
        }
    }

    /// Same packet tagged with an application frame number.
    pub fn with_frame(mut self, frame: u64) -> Self {
        self.frame = frame;
        self
    }
}

/// Monotonically increasing packet id allocator shared by all sources.
#[derive(Default, Debug)]
pub struct PacketIdAlloc {
    next: u64,
}

impl PacketIdAlloc {
    /// Fresh allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next unused id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Uplink.reverse(), Direction::Downlink);
        assert_eq!(Direction::Downlink.reverse(), Direction::Uplink);
    }

    #[test]
    fn qci_priorities_ordered() {
        assert!(Qci::GAMING_GBR.priority() < Qci::INTERACTIVE.priority());
        assert!(Qci::INTERACTIVE.priority() < Qci::DEFAULT.priority());
    }

    #[test]
    fn qci_delay_budgets() {
        assert_eq!(Qci::GAMING_GBR.delay_budget_ms(), 50);
        assert_eq!(Qci::INTERACTIVE.delay_budget_ms(), 100);
        assert_eq!(Qci::DEFAULT.delay_budget_ms(), 300);
        assert_eq!(Qci(200).delay_budget_ms(), 300); // unknown QCI defaults
    }

    #[test]
    fn id_alloc_is_sequential() {
        let mut alloc = PacketIdAlloc::new();
        assert_eq!(alloc.next_id(), 0);
        assert_eq!(alloc.next_id(), 1);
        assert_eq!(alloc.next_id(), 2);
    }

    #[test]
    fn frame_tagging() {
        let p = Packet::new(
            1,
            FlowId(2),
            Direction::Uplink,
            1400,
            Qci::DEFAULT,
            SimTime::ZERO,
        )
        .with_frame(7);
        assert_eq!(p.frame, 7);
    }
}
