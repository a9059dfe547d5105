//! A lossy, reordering, duplicating datagram channel for control-plane
//! messages.
//!
//! The paper's negotiation (Fig. 7) is evaluated over a perfect in-memory
//! exchange; this module supplies the adversarial counterpart: a
//! unidirectional [`FaultyChannel`] that subjects each frame to the same
//! impairments the data plane suffers on the cellular edge (§3.1) —
//! stochastic loss (any [`LossModel`], so uniform and Gilbert–Elliott
//! bursts plug in), duplication, reordering, byte corruption, and hard
//! partition windows. Deliveries are scheduled on the virtual clock and
//! drained by polling, keeping the sans-IO, deterministic-replay idiom:
//! the same seed always yields the same fault schedule.

use crate::loss::LossModel;
use crate::packet::{Direction, FlowId, Packet, Qci};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One-way propagation delay applied to every frame.
pub const BASE_DELAY: SimDuration = SimDuration::from_millis(10);
/// Extra delay applied to reordered frames: it exceeds
/// `BASE_DELAY + jitter` at the default jitter, so a reordered frame
/// lands after frames sent later.
pub const REORDER_DELAY: SimDuration = SimDuration::from_millis(80);

/// Fault probabilities and delay parameters for a [`FaultyChannel`].
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Probability a delivered frame is delivered twice.
    pub duplicate: f64,
    /// Probability a delivered frame is held back long enough to land
    /// after frames sent later (reordering).
    pub reorder: f64,
    /// Probability a delivered frame has one byte flipped in flight.
    pub corrupt: f64,
    /// Uniform random extra delay in `[0, jitter]` per frame, on top of
    /// [`BASE_DELAY`].
    pub jitter: SimDuration,
    /// Hard outage windows: frames sent while `start <= now < end` are
    /// silently dropped (radio partition / RLF detach).
    pub partitions: Vec<(SimTime, SimTime)>,
}

impl Default for FaultSpec {
    /// A clean channel: 10 ms propagation, no stochastic faults.
    fn default() -> Self {
        FaultSpec {
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            jitter: SimDuration::from_millis(2),
            partitions: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Clean channel with only propagation delay.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Convenience: duplicate / reorder / corrupt probabilities on top of
    /// the default delays.
    pub fn with_faults(duplicate: f64, reorder: f64, corrupt: f64) -> Self {
        for p in [duplicate, reorder, corrupt] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        FaultSpec {
            duplicate,
            reorder,
            corrupt,
            ..Self::default()
        }
    }
}

/// Counters of everything the channel did to traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames offered by the sender.
    pub sent: u64,
    /// Frames handed to the receiver (includes duplicates).
    pub delivered: u64,
    /// Frames dropped by the loss model.
    pub dropped: u64,
    /// Frames dropped inside a partition window.
    pub partitioned: u64,
    /// Extra deliveries created by duplication.
    pub duplicated: u64,
    /// Frames delivered with a flipped byte.
    pub corrupted: u64,
    /// Frames delayed past later traffic.
    pub reordered: u64,
}

/// Scheduled delivery; ordered by (time, tie-break id) for determinism.
type Delivery = Reverse<(u64, u64, Vec<u8>)>;

/// A unidirectional faulty datagram channel driven by the virtual clock.
///
/// `send` schedules zero or more future deliveries for a frame after
/// running it through the fault pipeline; `poll` drains the deliveries
/// that are due. All randomness comes from the labelled [`SimRng`]
/// stream handed to [`FaultyChannel::new`], so runs are reproducible.
pub struct FaultyChannel {
    spec: FaultSpec,
    loss: Box<dyn LossModel>,
    rng: SimRng,
    in_flight: BinaryHeap<Delivery>,
    next_tiebreak: u64,
    stats: ChannelStats,
}

impl FaultyChannel {
    /// Creates a channel with the given fault spec and loss process.
    pub fn new(spec: FaultSpec, loss: Box<dyn LossModel>, rng: SimRng) -> Self {
        FaultyChannel {
            spec,
            loss,
            rng,
            in_flight: BinaryHeap::new(),
            next_tiebreak: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Offers one frame to the channel at virtual time `now`.
    pub fn send(&mut self, now: SimTime, frame: Vec<u8>) {
        self.stats.sent += 1;

        if self.partitioned_at(now) {
            self.stats.partitioned += 1;
            return;
        }

        // The loss model sees a synthesized control-plane packet so the
        // RSS/Gilbert–Elliott processes can key off time and size.
        let pkt = Packet::new(
            self.next_tiebreak,
            FlowId(0),
            Direction::Uplink,
            frame.len() as u32,
            Qci(5), // IMS-signaling class: what control traffic rides on
            now,
        );
        if self.loss.should_drop(now, &pkt, &mut self.rng) {
            self.stats.dropped += 1;
            return;
        }

        let mut delay = BASE_DELAY + self.jitter_sample();
        if self.spec.reorder > 0.0 && self.rng.chance(self.spec.reorder) {
            delay = delay + REORDER_DELAY;
            self.stats.reordered += 1;
        }

        let payload = if self.spec.corrupt > 0.0 && self.rng.chance(self.spec.corrupt) {
            self.stats.corrupted += 1;
            corrupt_one_byte(frame.clone(), &mut self.rng)
        } else {
            frame.clone()
        };
        self.schedule(now + delay, payload);

        if self.spec.duplicate > 0.0 && self.rng.chance(self.spec.duplicate) {
            self.stats.duplicated += 1;
            let dup_delay = BASE_DELAY + self.jitter_sample();
            self.schedule(now + dup_delay, frame);
        }
    }

    fn jitter_sample(&mut self) -> SimDuration {
        let j = self.spec.jitter.as_micros();
        if j == 0 {
            SimDuration::from_micros(0)
        } else {
            SimDuration::from_micros(self.rng.range_u64(0, j))
        }
    }

    fn schedule(&mut self, at: SimTime, payload: Vec<u8>) {
        let tiebreak = self.next_tiebreak;
        self.next_tiebreak += 1;
        self.in_flight
            .push(Reverse((at.as_micros(), tiebreak, payload)));
    }

    /// True when `now` falls inside a configured partition window.
    pub fn partitioned_at(&self, now: SimTime) -> bool {
        self.spec
            .partitions
            .iter()
            .any(|(start, end)| *start <= now && now < *end)
    }

    /// Virtual time of the earliest pending delivery, if any.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.in_flight
            .peek()
            .map(|Reverse((t, _, _))| SimTime::from_micros(*t))
    }

    /// Drains every frame due at or before `now`, in delivery order.
    pub fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while self
            .in_flight
            .peek()
            .is_some_and(|Reverse((t, _, _))| *t <= now.as_micros())
        {
            let Some(Reverse((_, _, payload))) = self.in_flight.pop() else {
                break;
            };
            self.stats.delivered += 1;
            out.push(payload);
        }
        out
    }

    /// Everything the channel did so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }
}

fn corrupt_one_byte(mut frame: Vec<u8>, rng: &mut SimRng) -> Vec<u8> {
    if !frame.is_empty() {
        let idx = rng.next_below(frame.len() as u64) as usize;
        frame[idx] ^= 0xFF;
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{NoLoss, UniformLoss};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn clean_channel_delivers_in_order() {
        let mut ch = FaultyChannel::new(
            FaultSpec {
                jitter: SimDuration::from_micros(0),
                ..FaultSpec::clean()
            },
            Box::new(NoLoss),
            SimRng::new(1),
        );
        ch.send(t(0), vec![1]);
        ch.send(t(1), vec![2]);
        assert_eq!(ch.next_delivery(), Some(t(10)));
        assert!(ch.poll(t(9)).is_empty());
        assert_eq!(ch.poll(t(11)), vec![vec![1], vec![2]]);
        assert_eq!(ch.stats().delivered, 2);
    }

    #[test]
    fn loss_drops_frames_deterministically() {
        let run = |seed| {
            let mut ch = FaultyChannel::new(
                FaultSpec::clean(),
                Box::new(UniformLoss::new(0.5)),
                SimRng::new(seed),
            );
            for i in 0..100u8 {
                ch.send(t(i as u64), vec![i]);
            }
            ch.stats().dropped
        };
        let d = run(7);
        assert!(d > 20 && d < 80, "dropped {d}");
        assert_eq!(d, run(7), "same seed, same schedule");
    }

    #[test]
    fn duplicates_and_corruption_are_counted() {
        let mut ch = FaultyChannel::new(
            FaultSpec::with_faults(1.0, 0.0, 1.0),
            Box::new(NoLoss),
            SimRng::new(3),
        );
        ch.send(t(0), vec![0xAA, 0xBB]);
        let frames = ch.poll(t(1_000));
        assert_eq!(frames.len(), 2, "original (corrupted) + duplicate");
        assert_eq!(ch.stats().duplicated, 1);
        assert_eq!(ch.stats().corrupted, 1);
        // The duplicate is the pristine copy; the first was corrupted.
        assert!(frames.contains(&vec![0xAA, 0xBB]));
        assert!(frames.iter().any(|f| *f != vec![0xAA, 0xBB]));
    }

    #[test]
    fn reordering_inverts_arrival() {
        let mut ch = FaultyChannel::new(
            FaultSpec {
                reorder: 1.0,
                jitter: SimDuration::from_micros(0),
                ..FaultSpec::clean()
            },
            Box::new(NoLoss),
            SimRng::new(4),
        );
        ch.send(t(0), vec![1]);
        // Second frame sent on a channel that reorders everything equally
        // still arrives after — but a frame sent within the reorder gap
        // overtakes the first.
        let mut ch2 = FaultyChannel::new(
            FaultSpec {
                reorder: 0.0,
                jitter: SimDuration::from_micros(0),
                ..FaultSpec::clean()
            },
            Box::new(NoLoss),
            SimRng::new(5),
        );
        ch2.send(t(0), vec![2]);
        let first = ch.next_delivery().unwrap();
        let second = ch2.next_delivery().unwrap();
        assert!(first > second, "reordered frame lands later");
        assert_eq!(ch.stats().reordered, 1);
    }

    #[test]
    fn partition_windows_drop_everything_inside() {
        let mut ch = FaultyChannel::new(
            FaultSpec {
                partitions: vec![(t(100), t(200))],
                ..FaultSpec::clean()
            },
            Box::new(NoLoss),
            SimRng::new(6),
        );
        ch.send(t(50), vec![1]);
        ch.send(t(150), vec![2]);
        ch.send(t(250), vec![3]);
        assert_eq!(ch.stats().partitioned, 1);
        let all = ch.poll(t(10_000));
        assert_eq!(all.len(), 2);
        assert!(!all.contains(&vec![2]));
    }
}
