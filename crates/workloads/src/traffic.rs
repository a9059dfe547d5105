//! The workload abstraction: pull-based packet emission schedules.
//!
//! A [`Workload`] yields timestamped emissions one at a time (hour-long
//! 9 Mbps VR streams are ~10M packets — far too many to materialise), with
//! monotone timestamps so the simulation driver can merge workloads into
//! its event loop.

use tlc_net::packet::{Direction, Qci};
use tlc_net::time::SimTime;

/// One application packet emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Emission {
    /// When the application hands the packet to the network.
    pub at: SimTime,
    /// Bytes on the wire.
    pub size: u32,
    /// Application frame this packet belongs to.
    pub frame: u64,
}

/// A packet-emitting application model.
pub trait Workload {
    /// The next emission, or `None` when the workload has finished.
    /// Timestamps are non-decreasing.
    fn next(&mut self) -> Option<Emission>;

    /// Which way this workload's data flows.
    fn direction(&self) -> Direction;

    /// The bearer QoS class the flow is mapped to.
    fn qci(&self) -> Qci;

    /// Human-readable name, as used in the paper's tables.
    fn name(&self) -> &'static str;
}

/// Splits an application frame of `frame_bytes` into MTU-sized packets.
///
/// Returns the payload sizes including `overhead` bytes of per-packet
/// protocol headers (RTP/GVSP/UDP/IP).
pub fn packetize(frame_bytes: u32, mtu_payload: u32, overhead: u32) -> Vec<u32> {
    assert!(mtu_payload > 0);
    if frame_bytes == 0 {
        return Vec::new();
    }
    let full = frame_bytes / mtu_payload;
    let rest = frame_bytes % mtu_payload;
    let mut sizes = vec![mtu_payload + overhead; full as usize];
    if rest > 0 {
        sizes.push(rest + overhead);
    }
    sizes
}

/// Intra-frame packet pacing: packets of one frame leave back-to-back
/// with this spacing (models the sender NIC serializing a burst).
pub const INTRA_FRAME_SPACING_US: u64 = 30;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetize_exact_multiple() {
        let sizes = packetize(2800, 1400, 40);
        assert_eq!(sizes, vec![1440, 1440]);
    }

    #[test]
    fn packetize_with_remainder() {
        let sizes = packetize(3000, 1400, 40);
        assert_eq!(sizes, vec![1440, 1440, 240]);
    }

    #[test]
    fn packetize_small_frame() {
        assert_eq!(packetize(100, 1400, 40), vec![140]);
        assert!(packetize(0, 1400, 40).is_empty());
    }

    #[test]
    fn packetize_totals_add_up() {
        for frame in [1u32, 1399, 1400, 1401, 50_000] {
            let sizes = packetize(frame, 1400, 40);
            let payload: u32 = sizes.iter().sum::<u32>() - 40 * sizes.len() as u32;
            assert_eq!(payload, frame, "frame {frame}");
        }
    }
}
