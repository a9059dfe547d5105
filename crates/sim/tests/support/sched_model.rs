//! Reference model for `tlc_sim::wheel::Scheduler`, and the random-op
//! differential that holds the wheel to it. Included by path from
//! `wheel::tests` and `tests/twin_equiv.rs`; the including module
//! brings `Scheduler` into scope.
//!
//! The model is the scheduler's contract written the slow, obvious
//! way: an ordered map keyed `(tick, seq)`. A handle *is* that key,
//! and keys are never reused, so there is no level, run, cascade or
//! chunk pool to get wrong — the machinery the wheel's `schedule` and
//! `pop_next` stand on, and which a reference built on the same parts
//! could not see fail.
//!
//! The model cancels; the wheel does not. The differential holds the
//! wheel to the model's cancel the way the twin does: the harness
//! keeps the cancelled payloads in a dead set, and a wheel pop that
//! returns one of them is skipped (the twin's arena generation plays
//! that set's part).

use super::Scheduler;
use std::collections::{BTreeMap, HashSet};

/// What a scheduler must do: fire in `(tick, seq)` order, cancel at
/// most once, count what is pending.
#[derive(Default)]
pub struct ModelScheduler<T> {
    pending: BTreeMap<(u64, u64), T>,
    seq: u64,
}

impl<T> ModelScheduler<T> {
    pub fn schedule(&mut self, tick: u64, payload: T) -> (u64, u64) {
        let key = (tick, self.seq);
        self.seq += 1;
        self.pending.insert(key, payload);
        key
    }

    pub fn cancel(&mut self, handle: (u64, u64)) -> bool {
        self.pending.remove(&handle).is_some()
    }

    pub fn pop_next(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        let entry = self.pending.first_entry()?;
        let (tick, seq) = *entry.key();
        (tick <= horizon).then(|| (tick, seq, entry.remove()))
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }
}

/// Drives a wheel and the model through the same `ops` random
/// operations and asserts they agree on everything observable: each
/// fired `(tick, seq, payload)` once the wheel's dead pops are skipped,
/// and `len()` after every op — the wheel's counting its dead but
/// still parked items on top of the model's. A cancel drawn may name
/// an event that is pending, fired or already cancelled; only the
/// first kind joins the dead set. Deltas span every wheel level and, at ≥ 2³², the
/// overflow list; one advance in eight jumps far enough to re-admit
/// overflow entries mid-stream.
///
/// The stream runs in phases of 64 ops. One schedule in eight is a
/// *burst*: up to 200 events at one tick — more than any chunk the
/// wheel might park them in — so the order across chunk boundaries,
/// and across a cascade that lands a burst behind later arrivals, is
/// compared event by event. Every fourth phase is *cancel-heavy*: most
/// ops cancel a run of recently issued handles, as a teardown does, so
/// cancelled events pile up faster than advances pass over them, and
/// the wheel carries them through every cascade and fold to the pop
/// that skips them without moving the events around them.
///
/// One advance in four runs *handler-style*: each event popped
/// schedules up to three more at its own tick + {0, 1, < 256, ≈ 10⁶}
/// before the next pop, as a twin handler re-arms its timer, so
/// schedules land between pops — behind whatever the wheel has already
/// pulled out for firing — and the merge is compared event by event. A
/// budget per drain keeps the offspring from outbreeding the horizon.
/// Returns how many level-0 slots the wheel merged into a pending run,
/// so a caller can check that path was taken.
pub fn wheel_matches_model(seed: u64, ops: usize) -> u64 {
    let mut wheel: Scheduler<u64> = Scheduler::new();
    let mut model: ModelScheduler<u64> = ModelScheduler::default();
    // Each schedule's payload (unique across the stream) and model key.
    let mut handles: Vec<(u64, (u64, u64))> = Vec::new();
    // Payloads cancelled on the model while parked in the wheel.
    let mut dead: HashSet<u64> = HashSet::new();
    let mut x = seed;
    let mut rng = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    // The wheel's next live pop: dead ones leave the set as they go.
    let pop = |wheel: &mut Scheduler<u64>, dead: &mut HashSet<u64>, horizon: u64| loop {
        match wheel.pop_next(horizon) {
            Some((_, _, p)) if dead.remove(&p) => {}
            fired => return fired,
        }
    };
    let drain = |wheel: &mut Scheduler<u64>,
                 dead: &mut HashSet<u64>,
                 model: &mut ModelScheduler<u64>,
                 horizon: u64| loop {
        let fired = pop(wheel, dead, horizon);
        assert_eq!(
            fired,
            model.pop_next(horizon),
            "seed {seed}: pop to {horizon}"
        );
        if fired.is_none() {
            break;
        }
    };
    let mut now = 0u64;
    for op in 0..ops as u64 {
        let cancel_heavy = (op / 64) % 4 == 3;
        let (schedule_below, cancel_below) = if cancel_heavy { (2, 9) } else { (6, 8) };
        let kind = rng() % 10;
        if kind < schedule_below {
            let delta = match rng() % 8 {
                0 => rng() % 16,
                1..=3 => rng() % 4096,
                4 => rng() % 70_000,
                5 => rng() % 20_000_000,
                6 => rng() % 400_000_000,
                _ => (1u64 << 32) + rng() % 4096,
            };
            let tick = now + delta;
            let burst = if rng() % 8 == 0 { 1 + rng() % 200 } else { 1 };
            for k in 0..burst {
                let payload = op * 1000 + k;
                wheel.schedule(tick, payload);
                handles.push((payload, model.schedule(tick, payload)));
            }
        } else if kind < cancel_below {
            // Anywhere in history, or a run out of the latest handles.
            let (from, run) = if cancel_heavy {
                (handles.len().saturating_sub(256), 1 + rng() as usize % 64)
            } else {
                (0, 1)
            };
            let span = handles.len() - from;
            let start = from + rng() as usize % span.max(1);
            for &(payload, handle) in handles.iter().skip(start).take(run) {
                if model.cancel(handle) {
                    dead.insert(payload);
                }
                assert_eq!(
                    wheel.len(),
                    model.len() + dead.len(),
                    "seed {seed}: len in op {op}"
                );
            }
        } else {
            now += match rng() % 8 {
                0 => rng() % (1u64 << 33),
                _ => rng() % 3000,
            };
            let mut budget = if rng() % 4 == 0 { 48 } else { 0 };
            while budget > 0 {
                let fired = pop(&mut wheel, &mut dead, now);
                assert_eq!(
                    fired,
                    model.pop_next(now),
                    "seed {seed}: handler pop to {now}"
                );
                let Some((tick, _, _)) = fired else { break };
                for _ in 0..(rng() % 4).min(budget) {
                    let at = tick
                        + match rng() % 4 {
                            0 => 0,
                            1 => 1,
                            2 => rng() % 256,
                            _ => 1_000_000 + rng() % 4096,
                        };
                    budget -= 1;
                    let payload = op * 1000 + 500 + budget;
                    wheel.schedule(at, payload);
                    handles.push((payload, model.schedule(at, payload)));
                }
                assert_eq!(
                    wheel.len(),
                    model.len() + dead.len(),
                    "seed {seed}: len in op {op}"
                );
            }
            drain(&mut wheel, &mut dead, &mut model, now);
        }
        assert_eq!(
            wheel.len(),
            model.len() + dead.len(),
            "seed {seed}: len after op {op}"
        );
    }
    drain(&mut wheel, &mut dead, &mut model, u64::MAX);
    assert!(
        wheel.is_empty() && model.len() == 0 && dead.is_empty(),
        "seed {seed}"
    );
    wheel.stats().merges
}
