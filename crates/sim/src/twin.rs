//! Million-session charging digital twin.
//!
//! One experiment's worth of sessions exercises the protocol; the
//! paper's operator charges millions concurrently. This module scales
//! the discrete-event core to that population on one host and closes
//! the loop into the real machinery: its sampled settlements negotiate
//! honest↔honest to a signed PoC and clear through the verifier service
//! — in-process or across the TCP ingress — where the verdict's charge
//! must equal the twin's analytic TLC charge exactly.
//!
//! The packet-level scenario driver (`sim::scenario`) prices one
//! session at full fidelity; this module prices *populations*. Each
//! twin session is a rate/loss abstraction of a §7.1 application
//! ([`tlc_workloads::churn::SessionProfile`]) living in a generational
//! slab ([`crate::arena`]), with its charging counters beside it in
//! the same record ([`crate::soa::ChargeRow`]) and its future — ticks,
//! cycle ends, handovers, teardown — parked in a hierarchical timer
//! wheel ([`crate::wheel`]). Scheduling is O(1), so a churning
//! population of a million sessions costs per-event constant work
//! instead of a million-entry binary-heap reshuffle, and nothing is
//! cancelled: an event whose session has been torn down is dropped
//! when it comes due, because its id no longer resolves in the arena.
//!
//! Such an event is counted in [`TwinReport::dead_events`]. As the
//! wheel names the events it is about to fire, a shard starts loading
//! their session rows, so the cache misses of a dozen handlers overlap.
//! Both mechanisms are documented on the private `Shard`.
//!
//! There is one settle path: [`crate::measure::settle_twin_row`] prices
//! a cycle's row both ways — legacy gateway-metered vs TLC over the
//! measured pair (Eq. 1) — into a [`GapSweep`], and only under a roaming
//! plane is that row the sum of the two operators' rows, with the
//! three-party split on top. Re-summing per-settlement records
//! reproduces the aggregate bit for bit.
//!
//! # Sharding and determinism
//!
//! Sessions are pinned to shards round-robin at arrival; each shard
//! owns its scheduler, arena, visited-operator rows, and RNG streams (split
//! from the twin seed by shard index). Time advances in fixed
//! **epochs**: every shard runs its wheel to the epoch boundary in
//! parallel ([`crate::par::par_map_mut`]), then a barrier merges the
//! shards' offered-load deltas **in shard-index order** into the
//! shared cell-congestion level used by the next epoch. Nothing a
//! shard computes depends on any other shard within an epoch, so the
//! run is byte-identical at any thread count. Shard count is a *model*
//! parameter (it shapes RNG streams and cell populations); thread count
//! must never be. The equivalence suite (`tests/twin_equiv.rs`) pins
//! that, and the event order itself, with a digest (FNV-1a over the
//! run's counters and sweep) over every counter that matters.
//!
//! [`TwinReport`] also carries, outside the digest, the schedulers'
//! [`SchedStats`] summed in shard order, `dead_events`, and the fewest
//! and most events any one shard fired in any one epoch (the skew the
//! barrier turns into waiting); they are counts, no clock is read.
//!
//! # Closed loop
//!
//! Settled cycles flow to a [`SettlementSink`] post-barrier, in shard
//! order. A configurable sample of them carries the full measured
//! usage pair so the sink can run the *real* TLC machinery — signed
//! negotiation to a PoC, submission to the verifier service or the
//! TCP ingress — against twin-generated load (`tests/twin_soak.rs`).
//!
//! # Proof obligations
//!
//! `twin_equiv`: golden digests, wheel vs. model, the heap-agreed runs,
//! thread invariance, teardown-mid-cycle settles exactly once, handover
//! across a cycle boundary never double-counts gateway bytes, stale id
//! safety, and `scale_tiers_repeat_their_digests` pinning the 10k, 100k
//! and 1M tiers' digests and event counts. The tests below: a reused
//! slot's old events are dropped, counted, and never reach its new
//! occupant; churn-heavy runs digest as they did when teardown
//! cancelled. `twin_soak`: every sampled cycle's negotiated PoC charge
//! equals the analytic TLC charge and verifies Valid, through the
//! in-process service and the TCP ingress. Across 10k → 1M sessions the
//! aggregate gap ratios stay flat (legacy ε 2.63 % vs TLC ε 0.25 %).

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::arena::{Arena, SessionId};
use crate::par::par_map_mut;
use crate::soa::{ChargeRow, GapSweep};
use crate::wheel::{SchedStats, Scheduler};
use tlc_core::plan::{DataPlan, UsagePair};
use tlc_core::roaming::{reconcile_bonded, LinkCdr, RoamingAgreement, Segment, Serving};
use tlc_net::packet::Direction;
use tlc_net::rng::SimRng;
use tlc_net::time::SimDuration;
use tlc_workloads::churn::{ChurnConfig, ChurnGen, SessionProfile};

pub use crate::measure::{settle_twin_row, TwinSettlement};

/// Digital-twin run configuration.
#[derive(Clone, Debug)]
pub struct TwinConfig {
    /// Root seed; every RNG stream in the run splits from it.
    pub seed: u64,
    /// Shard count. Sessions pin to shards, so this is a *model*
    /// parameter: changing it changes the population split (thread
    /// count, by contrast, never changes results).
    pub shards: usize,
    /// Worker threads for the epoch barrier loop (1 = sequential).
    pub threads: usize,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Sessions pre-admitted at t=0, spread round-robin over shards.
    pub initial_sessions: usize,
    /// Arrival/lifetime/mix/handover shape (per shard).
    pub churn: ChurnConfig,
    /// Charging-cycle length per session.
    pub cycle: SimDuration,
    /// Accounting-tick length: how often a session's counters accrue.
    pub tick: SimDuration,
    /// Epoch (barrier) length for cross-shard congestion coupling.
    pub epoch: SimDuration,
    /// Plan priced at settlement.
    pub plan: DataPlan,
    /// Fraction of settled cycles forwarded to the sink with full
    /// context for closed-loop verification (0 disables sampling).
    pub sample_rate: f64,
    /// Aggregate cell capacity in bytes per epoch before congestion
    /// loss starts to bite (the cross-shard coupling knob).
    pub cell_capacity_bytes_per_epoch: u64,
    /// Three-party roaming plane (DESIGN §14). `None` keeps the twin
    /// byte-identical to a pre-roaming run: no extra RNG draws, no
    /// extra events, and the digest folds nothing new.
    pub roaming: Option<RoamingTwinConfig>,
}

/// Roaming-plane configuration for a twin run.
#[derive(Clone, Debug)]
pub struct RoamingTwinConfig {
    /// The commercial agreement cycles settle under.
    pub agreement: RoamingAgreement,
    /// Fraction of admitted sessions that roam (and so hand over
    /// between operators mid-cycle).
    pub roamer_fraction: f64,
    /// Fraction of admitted sessions that bond multiple links.
    pub bonded_fraction: f64,
    /// Mean gap between a roamer's operator handovers (each actual
    /// gap is jittered per session, up to 2x).
    pub operator_handover_gap: SimDuration,
}

impl RoamingTwinConfig {
    /// Evaluation defaults: the paper-default agreement, 30 % roamers,
    /// 20 % bonded devices, ~3 s between operator handovers.
    pub fn paper_default() -> Self {
        RoamingTwinConfig {
            agreement: RoamingAgreement::paper_default(),
            roamer_fraction: 0.3,
            bonded_fraction: 0.2,
            operator_handover_gap: SimDuration::from_secs(3),
        }
    }
}

impl TwinConfig {
    /// A small smoke-tier default: mixed churn, 4 shards, 10 s.
    pub fn smoke(seed: u64) -> Self {
        TwinConfig {
            seed,
            shards: 4,
            threads: 1,
            duration: SimDuration::from_secs(10),
            initial_sessions: 1_000,
            churn: ChurnConfig::mixed(),
            cycle: SimDuration::from_secs(2),
            tick: SimDuration::from_millis(500),
            epoch: SimDuration::from_secs(1),
            plan: DataPlan::paper_default(),
            sample_rate: 0.0,
            cell_capacity_bytes_per_epoch: u64::MAX,
            roaming: None,
        }
    }
}

/// Why a cycle settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettleCause {
    /// The charging cycle completed.
    CycleEnd,
    /// The session tore down mid-cycle (partial cycle settled).
    Teardown,
    /// The run ended with the cycle open.
    RunEnd,
}

/// One settled charging cycle handed to the sink.
#[derive(Clone, Copy, Debug)]
pub struct Settled {
    /// Owning shard.
    pub shard: usize,
    /// Arena slot index of the session (row id; reused after churn).
    pub row: u32,
    /// Twin time at settlement, µs.
    pub at_us: u64,
    /// Why the cycle closed.
    pub cause: SettleCause,
    /// The priced settlement.
    pub settlement: TwinSettlement,
    /// True for the sampled subset that should run the real
    /// negotiation/verification path.
    pub sampled: bool,
}

/// Receiver for settled cycles (post-barrier, shard order).
pub trait SettlementSink {
    /// Called once per settled cycle with non-zero traffic.
    fn settle(&mut self, s: &Settled);
}

/// Discards settlements (pure-throughput runs).
pub struct NullSink;

impl SettlementSink for NullSink {
    fn settle(&mut self, _s: &Settled) {}
}

/// What a twin run produced.
#[derive(Clone, Debug, Default)]
pub struct TwinReport {
    /// Sessions ever admitted.
    pub sessions_created: u64,
    /// Sessions torn down.
    pub sessions_retired: u64,
    /// Peak concurrent sessions across shards.
    pub peak_concurrent: u64,
    /// Live sessions at run end.
    pub final_concurrent: u64,
    /// Wheel events fired (ticks + cycles + handovers + arrivals + teardowns).
    pub events_fired: u64,
    /// Events a handler ran against a stale [`SessionId`]. Must stay 0:
    /// a torn-down session's events are dropped before dispatch.
    pub stale_events: u64,
    /// Events that came due for a session already torn down, dropped
    /// unhandled and not in `events_fired`. A count outside the digest,
    /// like `sched`.
    pub dead_events: u64,
    /// Handovers executed.
    pub handovers: u64,
    /// Cycles settled (including partial teardown/run-end cycles).
    pub cycles_settled: u64,
    /// Cycles forwarded to the sink as sampled.
    pub cycles_sampled: u64,
    /// Aggregate gap accounting over every settled cycle.
    pub sweep: GapSweep,
    /// Peak arena slots in any one shard (bounds memory; churn must
    /// reuse slots, not grow this).
    pub peak_shard_slots: u64,
    /// True when the run had a roaming plane configured (folds the
    /// roaming counters into the digest).
    pub roaming_enabled: bool,
    /// Three-party settlement aggregates (all zero when roaming is
    /// disabled).
    pub roaming: RoamingSweep,
    /// Order-sensitive digest of the run: byte-identical runs — at
    /// any thread count — produce the same value.
    pub digest: u64,
    /// What the schedulers did beyond firing events (cascade moves,
    /// merges, pool size), summed in shard order. Not in the digest: it
    /// describes the scheduler, not the run.
    pub sched: SchedStats,
    /// Most and fewest events any one shard fired in any one epoch.
    /// Every epoch ends at a barrier, so the busiest shard sets its
    /// length and the gap between these is time the others wait.
    /// Counts, and like `sched` not in the digest.
    pub shard_epoch_events_max: u64,
    /// See [`shard_epoch_events_max`](Self::shard_epoch_events_max).
    pub shard_epoch_events_min: u64,
}

/// Aggregate three-party settlement accounting over every settled
/// cycle of a roaming-enabled run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoamingSweep {
    /// Sessions admitted as roamers (operator handovers scheduled).
    pub roamers_admitted: u64,
    /// Sessions admitted with bonded multi-link devices.
    pub bonded_admitted: u64,
    /// Operator (home↔visited) handovers executed.
    pub operator_handovers: u64,
    /// Cycles settled through the three-party agreement.
    pub cycles_settled: u64,
    /// Σ charged volume across all settled segments.
    pub charged: u64,
    /// Σ home-operator retained volume.
    pub home: u64,
    /// Σ visited-operator wholesale volume.
    pub visited: u64,
    /// Σ edge-vendor revenue-share volume.
    pub vendor: u64,
    /// Bonded cycles reconciled from per-link CDRs.
    pub bonded_cycles: u64,
    /// Σ reconciled bonded charge (exact sum of per-link charges).
    pub bonded_link_charged: u64,
}

impl RoamingSweep {
    /// Folds another sweep (shard merge, done in shard order).
    /// Saturating: a wrapped settlement tally would *be* a gap.
    pub fn merge(&mut self, other: &RoamingSweep) {
        self.roamers_admitted = self.roamers_admitted.saturating_add(other.roamers_admitted);
        self.bonded_admitted = self.bonded_admitted.saturating_add(other.bonded_admitted);
        self.operator_handovers = self
            .operator_handovers
            .saturating_add(other.operator_handovers);
        self.cycles_settled = self.cycles_settled.saturating_add(other.cycles_settled);
        self.charged = self.charged.saturating_add(other.charged);
        self.home = self.home.saturating_add(other.home);
        self.visited = self.visited.saturating_add(other.visited);
        self.vendor = self.vendor.saturating_add(other.vendor);
        self.bonded_cycles = self.bonded_cycles.saturating_add(other.bonded_cycles);
        self.bonded_link_charged = self
            .bonded_link_charged
            .saturating_add(other.bonded_link_charged);
    }
}

impl TwinReport {
    /// Wheel items re-placed a level down per event fired: the cascade
    /// work one event costs (a count; repeats exactly).
    pub fn moves_per_event(&self) -> f64 {
        self.sched.moves as f64 / self.events_fired.max(1) as f64
    }

    fn finish(&mut self) {
        // FNV-1a over the counters the equivalence contract covers.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(self.sessions_created);
        fold(self.sessions_retired);
        fold(self.events_fired);
        fold(self.handovers);
        fold(self.cycles_settled);
        fold(self.sweep.total_sent);
        fold(self.sweep.total_delivered);
        fold(self.sweep.total_gateway);
        fold(self.sweep.intended);
        fold(self.sweep.legacy_gap);
        fold(self.sweep.tlc_gap);
        // Roaming counters only fold when the plane was configured, so
        // non-roaming runs keep their pre-roaming golden digests.
        if self.roaming_enabled {
            fold(0x524F_414D); // "ROAM" discriminator
            fold(self.roaming.roamers_admitted);
            fold(self.roaming.bonded_admitted);
            fold(self.roaming.operator_handovers);
            fold(self.roaming.cycles_settled);
            fold(self.roaming.charged);
            fold(self.roaming.home);
            fold(self.roaming.visited);
            fold(self.roaming.vendor);
            fold(self.roaming.bonded_cycles);
            fold(self.roaming.bonded_link_charged);
        }
        self.digest = h;
    }
}

/// A wheel event. `Copy` so the scheduler slab stays flat.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Admit the next churn arrival (session field unused).
    Arrival,
    /// Accrue one accounting tick for a session.
    Tick(SessionId),
    /// Close a session's charging cycle.
    CycleEnd(SessionId),
    /// Flush a session's in-flight bytes (mobility).
    Handover(SessionId),
    /// Hand a roamer over between operators (flush + serving flip).
    OperatorHandover(SessionId),
    /// Tear the session down.
    Teardown(SessionId),
}

impl Event {
    /// The session the event's handler will run against.
    fn session(&self) -> Option<SessionId> {
        match *self {
            Event::Arrival => None,
            Event::Tick(id)
            | Event::CycleEnd(id)
            | Event::Handover(id)
            | Event::OperatorHandover(id)
            | Event::Teardown(id) => Some(id),
        }
    }
}

/// One live twin session. Its pending events hold its [`SessionId`],
/// and nothing else: once the slot's generation moves on, they are
/// dead wherever they are parked.
struct Session {
    profile: SessionProfile,
    /// Operator currently carrying the session's traffic (always
    /// `Home` unless the roaming plane flips it).
    serving: Serving,
    /// True for bonded multi-link devices (roaming plane only).
    bonded: bool,
    /// Per-session loss stream, split off the shard stream at admit
    /// time so event interleaving can't perturb other sessions.
    rng: SimRng,
    /// Charging counters for the bytes the *home* operator carried:
    /// here, not in a bank beside the arena, because every tick that
    /// touches them has just loaded this record.
    row: ChargeRow,
}

impl Session {
    /// The row `serving`'s bytes accrue on: the session's own for the
    /// home operator, the shard's bank for the visited one.
    fn row_for<'a>(
        &'a mut self,
        serving: Serving,
        visited: &'a mut [ChargeRow],
        id: SessionId,
    ) -> Option<&'a mut ChargeRow> {
        match serving {
            Serving::Home => Some(&mut self.row),
            Serving::Visited => visited.get_mut(id.index as usize),
        }
    }
}

/// Per-shard twin state. Shards sit side by side in a `Vec` and are
/// run by different threads, each writing its own counters and
/// scheduler words on every event; the alignment keeps a shard's first
/// and last cache lines (in prefetch pairs) from being a neighbour's
/// too, so the twin's speed does not move with the size of a field.
///
/// **Liveness: the arena generation decides.** The wheel cannot cancel.
/// Each session event carries its [`SessionId`], and teardown's
/// [`Arena::remove`] bumps the slot's generation, so
/// [`run_epoch`](Self::run_epoch) drops any popped event whose id no
/// longer resolves ([`Arena::contains`]) before dispatch, leaves it out
/// of `events_fired`, and counts it in [`TwinReport::dead_events`]. A
/// session has at most one pending tick, cycle end, handover and
/// operator handover, all parked under its id when
/// [`run_teardown`](Self::run_teardown) runs, so dropping them at pop
/// leaves the live events' `(tick, seq)` order, `events_fired` and every
/// digest as cancelling them would, and one check answers the question
/// for every event.
///
/// **Touching a row before it fires.** `run_epoch` pops through
/// [`Scheduler::pop_next_near`], and for each event the wheel names as
/// it builds a run — up to 256 µs ahead of its firing, ~16 at a time in
/// a 62 k-session shard — [`touch`](Self::touch) resolves the session
/// through [`Arena::get`] and loads one word from each cache line of
/// the slot into `std::hint::black_box`. Those are plain loads nothing
/// waits on, so a dozen misses overlap in the reorder window, where the
/// handlers would each have waited out their own three at fire time. A
/// dead event's touch stops at the generation check: a wasted load,
/// never a wrong one. Which words it loads is derived, not guessed:
/// slots sit 144 bytes apart in a 16-byte-aligned buffer, so one starts
/// 0, 16, 32 or 48 bytes into a line, and
/// `touch_loads_a_word_in_every_line_of_the_slot` places the touched
/// fields with `offset_of!` so every line the slot spans gets a load
/// from each of those starts. It is not a prefetch intrinsic because
/// this crate forbids `unsafe_code` and `_mm_prefetch` measured the
/// same. Taking the touch out must not change a digest, only the twin's
/// speed. The slot is 144 bytes and a unit test holds it there:
/// aligning the row to a cache line pads it to 256 and costs a fifth of
/// the twin's memory for no speed (ROADMAP, *Measured and closed*).
#[repr(align(128))]
struct Shard {
    index: usize,
    sched: Scheduler<Event>,
    arena: Arena<Session>,
    /// Bytes carried while the *visited* operator served, by arena
    /// slot. Unused (never grown) when roaming is off.
    rows_visited: Vec<ChargeRow>,
    churn: ChurnGen,
    /// Congestion-loss fraction for the current epoch, set at the
    /// barrier from the *previous* epoch's global offered load.
    congestion: f64,
    /// Bytes offered this epoch (reported at the barrier).
    offered: u64,
    /// Sampling stream (separate from churn/loss streams).
    sample_rng: SimRng,
    plan: DataPlan,
    cycle: SimDuration,
    tick: SimDuration,
    sample_rate: f64,
    // Counters folded into the report at the end.
    created: u64,
    retired: u64,
    fired: u64,
    /// Fewest and most events this shard fired in one epoch.
    epoch_fired: (u64, u64),
    stale: u64,
    dead: u64,
    handovers: u64,
    settled_n: u64,
    sampled_n: u64,
    peak_slots: u64,
    sweep: GapSweep,
    rsweep: RoamingSweep,
    roaming: Option<RoamingTwinConfig>,
    /// Settlements produced this epoch, drained at the barrier.
    outbox: Vec<Settled>,
}

impl Shard {
    fn new(cfg: &TwinConfig, index: usize) -> Self {
        let root = SimRng::new(cfg.seed);
        let label = |what: &str| root.split_fmt(format_args!("twin/shard{index}/{what}"));
        Shard {
            index,
            sched: Scheduler::with_capacity(1024),
            arena: Arena::with_capacity(1024),
            rows_visited: Vec::new(),
            churn: ChurnGen::new(cfg.churn, label("churn")),
            congestion: 0.0,
            offered: 0,
            sample_rng: label("sample"),
            plan: cfg.plan,
            cycle: cfg.cycle,
            tick: cfg.tick,
            sample_rate: cfg.sample_rate,
            created: 0,
            retired: 0,
            fired: 0,
            epoch_fired: (u64::MAX, 0),
            stale: 0,
            dead: 0,
            handovers: 0,
            settled_n: 0,
            sampled_n: 0,
            peak_slots: 0,
            sweep: GapSweep::default(),
            rsweep: RoamingSweep::default(),
            roaming: cfg.roaming.clone(),
            outbox: Vec::new(),
        }
    }

    /// Admits one session at `now`, scheduling its whole future.
    fn admit(&mut self, now_us: u64, profile: SessionProfile, lifetime: SimDuration) {
        let shard = self.index;
        let n = self.created;
        let rng = self
            .churn
            .rng()
            .split_fmt(format_args!("twin/shard{shard}/session{n}"));
        let mut row = ChargeRow::default();
        row.start_cycle(now_us);
        let id = self.arena.insert(Session {
            profile,
            serving: Serving::Home,
            bonded: false,
            rng,
            row,
        });
        self.created = self.created.saturating_add(1);
        self.peak_slots = self.peak_slots.max(self.arena.slot_count() as u64);
        if self.roaming.is_some() {
            let slots = self.arena.slot_count();
            if self.rows_visited.len() < slots {
                self.rows_visited.resize(slots, ChargeRow::default());
            }
            if let Some(rv) = self.rows_visited.get_mut(id.index as usize) {
                rv.start_cycle(now_us);
            }
        }

        // Stagger the first tick by a per-session phase so a million
        // sessions don't all land on the same wheel slot.
        let tick_us = self.tick.as_micros().max(1);
        let cycle_us = self.cycle.as_micros().max(tick_us);
        let (phase, ho_gap, op_ho_in) = {
            let Some(s) = self.arena.get_mut(id) else {
                return;
            };
            let phase = s.rng.next_below(tick_us);
            let ho_gap = self.churn.next_handover_gap();
            // Roaming draws happen only when the plane is configured,
            // so a disabled run's RNG streams are byte-identical to a
            // pre-roaming build.
            let op_ho_in = match &self.roaming {
                Some(rc) => {
                    let roamer = s.rng.chance(rc.roamer_fraction);
                    s.bonded = s.rng.chance(rc.bonded_fraction);
                    if roamer {
                        let gap_us = rc.operator_handover_gap.as_micros().max(1);
                        Some(gap_us.saturating_add(s.rng.next_below(gap_us)))
                    } else {
                        None
                    }
                }
                None => None,
            };
            (phase, ho_gap, op_ho_in)
        };
        if op_ho_in.is_some() {
            self.rsweep.roamers_admitted = self.rsweep.roamers_admitted.saturating_add(1);
        }
        if self.arena.get(id).map(|s| s.bonded).unwrap_or(false) {
            self.rsweep.bonded_admitted = self.rsweep.bonded_admitted.saturating_add(1);
        }
        self.sched.schedule(
            now_us.saturating_add(1).saturating_add(phase),
            Event::Tick(id),
        );
        self.sched
            .schedule(now_us.saturating_add(cycle_us), Event::CycleEnd(id));
        self.sched.schedule(
            now_us.saturating_add(lifetime.as_micros().max(1)),
            Event::Teardown(id),
        );
        if let Some(gap) = ho_gap {
            self.sched.schedule(
                now_us.saturating_add(gap.as_micros().max(1)),
                Event::Handover(id),
            );
        }
        if let Some(gap) = op_ho_in {
            self.sched
                .schedule(now_us.saturating_add(gap), Event::OperatorHandover(id));
        }
    }

    /// Settles the session's current cycle and restarts the row. With
    /// a roaming plane the cycle is the sum of the per-operator rows,
    /// and on top of the gap sweep each operator's segment is priced
    /// through the three-party agreement and a bonded device's per-link
    /// CDRs are reconciled. Without one, the visited bank is never
    /// read or written (it was never grown).
    fn settle(&mut self, id: SessionId, now_us: u64, cause: SettleCause) {
        let Some(s) = self.arena.get_mut(id) else {
            return;
        };
        let bonded = s.bonded;
        let rh = s.row.start_cycle(now_us);
        let three_party = self.roaming.as_ref().map(|rc| {
            let rv = self.rows_visited.get_mut(id.index as usize);
            let rv = rv.map(|rv| rv.start_cycle(now_us)).unwrap_or_default();
            (rc.agreement, rv)
        });
        let r = match &three_party {
            Some((_, rv)) => combine_rows(&rh, rv),
            None => rh,
        };
        if r.sent > 0 || r.gateway > 0 {
            let settlement = settle_twin_row(&r, &self.plan);
            let sampled = self.sample_rate > 0.0 && self.sample_rng.chance(self.sample_rate);
            self.settled_n = self.settled_n.saturating_add(1);
            if sampled {
                self.sampled_n = self.sampled_n.saturating_add(1);
            }
            // Saturating fold: a wrapped tally here would
            // misstate the very gap the twin exists to measure.
            self.sweep.merge(&GapSweep {
                active_rows: 1,
                total_sent: r.sent,
                total_delivered: r.delivered,
                total_gateway: r.gateway,
                intended: settlement.intended,
                legacy_gap: settlement.legacy_gap(),
                tlc_gap: settlement.tlc_gap(),
            });
            if let Some((agreement, rv)) = &three_party {
                // One segment per operator that carried traffic, priced on
                // the honest measured pair (edge reads exactly, operator
                // view trails by that operator's monitor lag).
                let mut segments: Vec<Segment> = Vec::with_capacity(2);
                for (serving, part) in [(Serving::Home, &rh), (Serving::Visited, rv)] {
                    if part.sent > 0 || part.gateway > 0 {
                        segments.push(Segment {
                            serving,
                            claims: UsagePair {
                                edge: part.sent,
                                operator: part.delivered.saturating_sub(part.monitor_lag),
                            },
                        });
                    }
                }
                let rs = agreement.settle(&segments);
                self.rsweep.cycles_settled = self.rsweep.cycles_settled.saturating_add(1);
                self.rsweep.charged = self.rsweep.charged.saturating_add(rs.charged);
                self.rsweep.home = self.rsweep.home.saturating_add(rs.split.home);
                self.rsweep.visited = self.rsweep.visited.saturating_add(rs.split.visited);
                self.rsweep.vendor = self.rsweep.vendor.saturating_add(rs.split.vendor);
                if bonded && r.sent > 0 {
                    let links = bonded_links(&r);
                    let rec = reconcile_bonded(&links, self.plan.loss_weight);
                    self.rsweep.bonded_cycles = self.rsweep.bonded_cycles.saturating_add(1);
                    self.rsweep.bonded_link_charged =
                        self.rsweep.bonded_link_charged.saturating_add(rec.charged);
                }
            }
            self.outbox.push(Settled {
                shard: self.index,
                row: id.index,
                at_us: now_us,
                cause,
                settlement,
                sampled,
            });
        }
    }

    /// Runs one accounting tick for a live session.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an f64 byte draw to u64 by `as`: truncates the fraction and saturates, the rounding the digests pin"
    )]
    fn run_tick(&mut self, id: SessionId, now_us: u64) {
        let tick_us = self.tick.as_micros().max(1);
        let congestion = self.congestion;
        let Some(s) = self.arena.get_mut(id) else {
            self.stale = self.stale.saturating_add(1);
            return;
        };
        let p = s.profile;
        // Mean bytes per tick, jittered ±p.jitter around the mean.
        let mean = p.rate_bps as f64 / 8.0 * (tick_us as f64 / 1e6);
        let jit = s.rng.range_f64(1.0 - p.jitter, 1.0 + p.jitter);
        let sent = (mean * jit).max(0.0) as u64;
        // Residual air loss plus the cell-level congestion loss set at
        // the last epoch barrier (QCI-protected gaming mostly dodges
        // congestion, mirroring the paper's QCI=7 setup).
        let air = (sent as f64 * p.base_loss * s.rng.range_f64(0.5, 1.5)) as u64;
        let cong_frac = if p.base_loss < 0.02 {
            congestion * 0.1
        } else {
            congestion
        };
        let congested = ((sent.saturating_sub(air)) as f64 * cong_frac) as u64;
        // Downlink: the gateway meters upstream of the lossy leg.
        let gw_before = p.direction == Direction::Downlink;
        // The operator's monitor trails by up to one tick of delivered
        // bytes (RRC COUNTER CHECK cadence), refreshed every tick.
        let delivered_rate = sent.saturating_sub(air).saturating_sub(congested);
        let lag = (delivered_rate as f64 * s.rng.range_f64(0.0, 0.05)) as u64;
        self.offered = self.offered.saturating_add(sent);
        self.sched
            .schedule(now_us.saturating_add(tick_us), Event::Tick(id));
        // Counters accrue on whichever operator currently serves; with
        // roaming off that is always the session's own (home) row.
        if let Some(row) = s.row_for(s.serving, &mut self.rows_visited, id) {
            row.accrue(sent, air, congested, gw_before);
            row.set_monitor_lag(lag);
        }
    }

    /// Executes a handover: claw back in-flight bytes, reschedule.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an f64 byte draw to u64 by `as`: truncates the fraction and saturates, the rounding the digests pin"
    )]
    fn run_handover(&mut self, id: SessionId, now_us: u64) {
        let tick_us = self.tick.as_micros().max(1);
        let Some(s) = self.arena.get_mut(id) else {
            self.stale = self.stale.saturating_add(1);
            return;
        };
        // The cell flushes up to ~half a tick of in-flight bytes.
        let rate = s.profile.rate_bps as f64 / 8.0 * (tick_us as f64 / 1e6);
        let flush = (rate * s.rng.range_f64(0.1, 0.5)) as u64;
        let gap = self.churn.next_handover_gap();
        self.handovers = self.handovers.saturating_add(1);
        if let Some(row) = s.row_for(s.serving, &mut self.rows_visited, id) {
            row.handover_flush(flush);
        }
        if let Some(g) = gap {
            self.sched.schedule(
                now_us.saturating_add(g.as_micros().max(1)),
                Event::Handover(id),
            );
        }
    }

    /// Hands a roamer over between operators: flush in-flight bytes on
    /// the operator being left (same link-layer mobility loss as an
    /// intra-operator handover), flip the serving side, reschedule.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an f64 byte draw to u64 by `as`: truncates the fraction and saturates, the rounding the digests pin"
    )]
    fn run_operator_handover(&mut self, id: SessionId, now_us: u64) {
        let Some(rc) = self.roaming.as_ref() else {
            self.stale = self.stale.saturating_add(1);
            return;
        };
        let base_gap_us = rc.operator_handover_gap.as_micros().max(1);
        let tick_us = self.tick.as_micros().max(1);
        let Some(s) = self.arena.get_mut(id) else {
            self.stale = self.stale.saturating_add(1);
            return;
        };
        let rate = s.profile.rate_bps as f64 / 8.0 * (tick_us as f64 / 1e6);
        let flush = (rate * s.rng.range_f64(0.1, 0.5)) as u64;
        let leaving = s.serving;
        s.serving = match leaving {
            Serving::Home => Serving::Visited,
            Serving::Visited => Serving::Home,
        };
        let gap_us = base_gap_us.saturating_add(s.rng.next_below(base_gap_us));
        self.rsweep.operator_handovers = self.rsweep.operator_handovers.saturating_add(1);
        if let Some(row) = s.row_for(leaving, &mut self.rows_visited, id) {
            row.handover_flush(flush);
        }
        self.sched
            .schedule(now_us.saturating_add(gap_us), Event::OperatorHandover(id));
    }

    /// Tears a session down: settle the partial cycle and free the
    /// slot. Freeing it bumps the slot's generation, which is what
    /// kills the session's still-parked events.
    fn run_teardown(&mut self, id: SessionId, now_us: u64) {
        self.settle(id, now_us, SettleCause::Teardown);
        if self.arena.remove(id).is_none() {
            self.stale = self.stale.saturating_add(1);
            return;
        }
        self.retired = self.retired.saturating_add(1);
    }

    /// Starts loading the session `ev` is for: a word from every cache
    /// line of its arena slot, wherever in a line the slot starts (the
    /// generation check in `get` is one of them; the layout test
    /// `touch_loads_a_word_in_every_line_of_the_slot` picks the rest).
    /// The wheel names events up to 256 µs before they fire, a dozen or
    /// more at a time, so at a population whose rows have outgrown the
    /// cache those misses overlap one another instead of each handler
    /// waiting out its own.
    fn touch(arena: &Arena<Session>, ev: &Event) {
        if let Some(s) = ev.session().and_then(|id| arena.get(id)) {
            let words = (s.row.sent, s.row.cycle_start_us, s.profile.rate_bps);
            std::hint::black_box(words);
        }
    }

    /// Runs this shard's wheel up to (not including) `epoch_end_us`.
    fn run_epoch(&mut self, epoch_end_us: u64) {
        self.offered = 0;
        let fired_before = self.fired;
        while let Some((tick, _seq, ev)) = self
            .sched
            .pop_next_near(epoch_end_us, |ev| Self::touch(&self.arena, ev))
        {
            // Teardown left the session's other events parked; they
            // are dead now that its id no longer resolves.
            if ev.session().is_some_and(|id| !self.arena.contains(id)) {
                self.dead = self.dead.saturating_add(1);
                continue;
            }
            self.fired = self.fired.saturating_add(1);
            match ev {
                Event::Arrival => {
                    if let Some(a) = self.churn.next_arrival() {
                        self.admit(tick, a.profile, a.lifetime);
                        let gap = a.inter_arrival.as_micros().max(1);
                        self.sched
                            .schedule(tick.saturating_add(gap), Event::Arrival);
                    }
                }
                Event::Tick(id) => self.run_tick(id, tick),
                Event::CycleEnd(id) => {
                    self.settle(id, tick, SettleCause::CycleEnd);
                    let cycle_us = self.cycle.as_micros().max(1);
                    self.sched
                        .schedule(tick.saturating_add(cycle_us), Event::CycleEnd(id));
                }
                Event::Handover(id) => self.run_handover(id, tick),
                Event::OperatorHandover(id) => self.run_operator_handover(id, tick),
                Event::Teardown(id) => self.run_teardown(id, tick),
            }
        }
        let n = self.fired.saturating_sub(fired_before);
        self.epoch_fired = (self.epoch_fired.0.min(n), self.epoch_fired.1.max(n));
    }

    /// Settles every still-open cycle at run end.
    fn finish(&mut self, now_us: u64) {
        let live: Vec<SessionId> = self.arena.iter().map(|(id, _)| id).collect();
        for id in live {
            self.settle(id, now_us, SettleCause::RunEnd);
        }
    }
}

/// Sums the per-operator rows into one session-level row (the gap
/// sweep and the sink see the whole cycle, not per-operator slices).
fn combine_rows(home: &ChargeRow, visited: &ChargeRow) -> ChargeRow {
    ChargeRow {
        sent: home.sent.saturating_add(visited.sent),
        delivered: home.delivered.saturating_add(visited.delivered),
        gateway: home.gateway.saturating_add(visited.gateway),
        lost_air: home.lost_air.saturating_add(visited.lost_air),
        lost_congestion: home.lost_congestion.saturating_add(visited.lost_congestion),
        lost_handover: home.lost_handover.saturating_add(visited.lost_handover),
        monitor_lag: home.monitor_lag.saturating_add(visited.monitor_lag),
        cycle_start_us: home.cycle_start_us.min(visited.cycle_start_us),
    }
}

/// Derives a bonded device's per-link CDRs from its cycle row: a
/// low-RTT primary carrying ~2/3 of the volume and a high-RTT, lossier
/// secondary with the remainder. Deterministic (no RNG), and the link
/// volumes partition the row exactly, so
/// `Σ per-link edge claims == session volume` by construction.
fn bonded_links(r: &ChargeRow) -> [LinkCdr; 2] {
    let e_secondary = r.sent / 3;
    let e_primary = r.sent.saturating_sub(e_secondary);
    let o_secondary = r.delivered / 3;
    let o_primary = r.delivered.saturating_sub(o_secondary);
    [
        LinkCdr {
            claims: UsagePair {
                edge: e_primary,
                operator: o_primary,
            },
            rtt_us: 15_000,
            loss_bp: 150,
        },
        LinkCdr {
            claims: UsagePair {
                edge: e_secondary,
                operator: o_secondary,
            },
            rtt_us: 45_000,
            loss_bp: 800,
        },
    ]
}

/// Runs the twin, feeding settled cycles to `sink`.
pub fn run_twin(cfg: &TwinConfig, sink: &mut dyn SettlementSink) -> TwinReport {
    let shards = cfg.shards.max(1);
    let mut state: Vec<Shard> = (0..shards).map(|i| Shard::new(cfg, i)).collect();

    // Initial population, round-robin so every shard starts balanced.
    for (i, shard) in state.iter_mut().enumerate() {
        for _ in (i..cfg.initial_sessions).step_by(shards) {
            let profile = shard.churn.draw_profile();
            let lifetime = shard.churn.draw_lifetime();
            shard.admit(0, profile, lifetime);
        }
        // Seed the churn arrival chain: the Arrival handler draws the
        // session arriving *now* plus the gap to the next arrival, so
        // the chain self-perpetuates from one seed event.
        if shard.churn.config().arrivals_per_sec > 0.0 {
            shard.sched.schedule(1, Event::Arrival);
        }
    }

    let mut report = TwinReport::default();
    let epoch_us = cfg.epoch.as_micros().max(1);
    let end_us = cfg.duration.as_micros();
    let mut peak: u64 = state.iter().map(|s| s.arena.len() as u64).sum();
    let mut now = 0u64;
    while now < end_us {
        let next = now.saturating_add(epoch_us).min(end_us);
        // Parallel phase: each shard runs its own wheel to the epoch
        // boundary. Results (offered load) return in shard order.
        let offered: Vec<u64> = par_map_mut(cfg.threads.max(1), &mut state, |_, sh| {
            sh.run_epoch(next);
            sh.offered
        });
        // Barrier: merge offered load in shard order, derive the next
        // epoch's congestion level for every shard identically.
        let total: u64 = offered.iter().sum();
        let cap = cfg.cell_capacity_bytes_per_epoch.max(1);
        let over = total.saturating_sub(cap) as f64 / cap as f64;
        let congestion = (over / (1.0 + over) * 0.5).min(0.5);
        for sh in state.iter_mut() {
            sh.congestion = congestion;
            for s in sh.outbox.drain(..) {
                sink.settle(&s);
            }
        }
        let live: u64 = state.iter().map(|s| s.arena.len() as u64).sum();
        peak = peak.max(live);
        now = next;
    }
    for sh in state.iter_mut() {
        sh.finish(end_us);
        for s in sh.outbox.drain(..) {
            sink.settle(&s);
        }
    }

    let mut epoch_fired_min = u64::MAX;
    for sh in &state {
        report.sessions_created = report.sessions_created.saturating_add(sh.created);
        report.sessions_retired = report.sessions_retired.saturating_add(sh.retired);
        report.events_fired = report.events_fired.saturating_add(sh.fired);
        report.stale_events = report.stale_events.saturating_add(sh.stale);
        report.dead_events = report.dead_events.saturating_add(sh.dead);
        report.handovers = report.handovers.saturating_add(sh.handovers);
        report.cycles_settled = report.cycles_settled.saturating_add(sh.settled_n);
        report.cycles_sampled = report.cycles_sampled.saturating_add(sh.sampled_n);
        report.sweep.merge(&sh.sweep);
        report.roaming.merge(&sh.rsweep);
        report.sched.merge(&sh.sched.stats());
        report.peak_shard_slots = report.peak_shard_slots.max(sh.peak_slots);
        report.shard_epoch_events_max = report.shard_epoch_events_max.max(sh.epoch_fired.1);
        epoch_fired_min = epoch_fired_min.min(sh.epoch_fired.0);
        report.final_concurrent = report
            .final_concurrent
            .saturating_add(sh.arena.len() as u64);
    }
    report.peak_concurrent = peak;
    // No epoch ran: there is no fewest; report 0 beside the 0 most.
    report.shard_epoch_events_min = epoch_fired_min.min(report.shard_epoch_events_max);
    report.roaming_enabled = cfg.roaming.is_some();
    report.finish();
    report
}

#[cfg(test)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "test arithmetic on small fixed values; the test profile checks overflow"
)]
mod tests {
    use super::*;

    fn small(seed: u64) -> TwinConfig {
        let mut cfg = TwinConfig::smoke(seed);
        cfg.initial_sessions = 200;
        cfg.duration = SimDuration::from_secs(6);
        cfg
    }

    /// A twin tier's memory is mostly this: 250 k sessions × the slot.
    /// It is 144 bytes (72 of session, 64 of counters, the generation
    /// and its padding). `#[repr(align(64))]` on the row was measured:
    /// it pads the slot to 256 bytes and `twin_churn`'s peak RSS from
    /// 137 to 163 MiB for no speed, so a field or an attribute that
    /// grows it has to show what it buys.
    #[test]
    fn session_slot_stays_within_three_cache_lines() {
        let bytes = Arena::<Session>::slot_bytes();
        assert!(bytes <= 144, "arena slot for Session is {bytes} bytes");
    }

    /// Slots sit 144 bytes apart in a 16-byte-aligned buffer, so one
    /// starts 0, 16, 32 or 48 bytes into a cache line and spans three
    /// lines from any of them. `Shard::touch`'s words and `get`'s
    /// generation check must land a load in each.
    #[test]
    fn touch_loads_a_word_in_every_line_of_the_slot() {
        use std::collections::BTreeSet;
        use std::mem::offset_of;
        let (value, generation) = Arena::<Session>::slot_offsets();
        let touched = [
            offset_of!(Session, row.sent),
            offset_of!(Session, row.cycle_start_us),
            offset_of!(Session, profile.rate_bps),
        ];
        let mut loads = vec![generation];
        loads.extend(touched.iter().map(|o| value + o));
        let bytes = Arena::<Session>::slot_bytes();
        for start in [0, 16, 32, 48] {
            let hit: BTreeSet<usize> = loads.iter().map(|o| (start + o) / 64).collect();
            let spanned: BTreeSet<usize> = (start / 64..=(start + bytes - 1) / 64).collect();
            assert_eq!(
                hit, spanned,
                "slot {start} B into a line, loads at {loads:?}"
            );
        }
    }

    #[test]
    fn twin_runs_and_settles() {
        let r = run_twin(&small(1), &mut NullSink);
        assert!(r.sessions_created >= 200);
        assert!(r.cycles_settled > 0, "no cycles settled");
        assert!(r.events_fired > 0);
        assert_eq!(r.stale_events, 0, "an event reached a torn-down session");
        assert!(r.sweep.intended > 0);
    }

    #[test]
    fn thread_count_is_not_an_equivalence_axis_violation() {
        let mut a = small(2);
        a.threads = 1;
        let mut b = small(2);
        b.threads = 4;
        let ra = run_twin(&a, &mut NullSink);
        let rb = run_twin(&b, &mut NullSink);
        assert_eq!(ra.digest, rb.digest, "threads changed the run");
        assert_eq!(ra.sweep, rb.sweep);
    }

    /// The skew counts are counts: they bracket the mean over the
    /// run's (shard, epoch) cells and do not move with the thread count.
    #[test]
    fn shard_skew_brackets_the_mean_at_any_thread_count() {
        let mut a = small(2);
        a.threads = 1;
        let mut b = small(2);
        b.threads = 4;
        let ra = run_twin(&a, &mut NullSink);
        let rb = run_twin(&b, &mut NullSink);
        let (lo, hi) = (ra.shard_epoch_events_min, ra.shard_epoch_events_max);
        assert_eq!(
            (lo, hi),
            (rb.shard_epoch_events_min, rb.shard_epoch_events_max)
        );
        let cells = a.shards as u64 * 6; // one-second epochs over 6 s
        assert!(0 < lo && lo * cells <= ra.events_fired, "min {lo}");
        assert!(ra.events_fired <= hi * cells, "max {hi}");
    }

    /// The heap this name compares against is frozen: `small(3)` ran
    /// on the wheel and on a binary-heap scheduler in the last commit
    /// that had both (this test, at PR 18's tree), and this is the
    /// digest they agreed on. It folds `events_fired` and the sweep.
    #[test]
    fn wheel_and_heap_backends_are_byte_identical() {
        let r = run_twin(&small(3), &mut NullSink);
        assert_eq!(r.digest, 0xb5a1_00ff_a6c3_b09b, "event order changed");
    }

    #[test]
    fn congestion_coupling_responds_to_capacity() {
        let mut tight = small(4);
        tight.cell_capacity_bytes_per_epoch = 100_000;
        let mut loose = small(4);
        loose.cell_capacity_bytes_per_epoch = u64::MAX;
        let rt = run_twin(&tight, &mut NullSink);
        let rl = run_twin(&loose, &mut NullSink);
        assert!(
            rt.sweep.total_delivered < rl.sweep.total_delivered,
            "capacity cap should cost delivered bytes: {} !< {}",
            rt.sweep.total_delivered,
            rl.sweep.total_delivered
        );
    }

    #[test]
    fn sink_sees_sampled_and_unsampled_cycles() {
        struct Count {
            total: u64,
            sampled: u64,
        }
        impl SettlementSink for Count {
            fn settle(&mut self, s: &Settled) {
                self.total += 1;
                if s.sampled {
                    self.sampled += 1;
                }
            }
        }
        let mut cfg = small(5);
        cfg.sample_rate = 0.25;
        let mut sink = Count {
            total: 0,
            sampled: 0,
        };
        let r = run_twin(&cfg, &mut sink);
        assert_eq!(sink.total, r.cycles_settled);
        assert_eq!(sink.sampled, r.cycles_sampled);
        assert!(sink.sampled > 0 && sink.sampled < sink.total);
    }

    fn roaming_cfg(seed: u64) -> TwinConfig {
        let mut cfg = small(seed);
        cfg.roaming = Some(RoamingTwinConfig::paper_default());
        cfg
    }

    #[test]
    fn roaming_twin_conserves_three_party_charges() {
        let r = run_twin(&roaming_cfg(7), &mut NullSink);
        assert!(r.roaming_enabled);
        assert!(r.roaming.roamers_admitted > 0, "no roamers admitted");
        assert!(r.roaming.bonded_admitted > 0, "no bonded devices");
        assert!(r.roaming.operator_handovers > 0, "no operator handovers");
        assert!(r.roaming.cycles_settled > 0);
        assert!(r.roaming.visited > 0, "visited operator never earned");
        // The conservation law: every cycle splits exactly, and the
        // sums are saturating-but-unsaturated at this scale.
        assert_eq!(
            r.roaming
                .home
                .saturating_add(r.roaming.visited)
                .saturating_add(r.roaming.vendor),
            r.roaming.charged,
            "home + visited + vendor must equal the charged volume"
        );
        assert!(r.roaming.bonded_cycles > 0);
        assert!(r.roaming.bonded_link_charged > 0);
    }

    /// Thread axis live, backend axis frozen the same way: the digest
    /// is what `roaming_cfg(8)` produced on the wheel at 1 thread and on
    /// the heap at 4 in the last commit that had both.
    #[test]
    fn roaming_twin_is_backend_and_thread_invariant() {
        for threads in [1usize, 4] {
            let mut cfg = roaming_cfg(8);
            cfg.threads = threads;
            let r = run_twin(&cfg, &mut NullSink);
            assert_eq!(
                r.digest, 0x9e77_4f17_c46f_3815,
                "{threads} threads changed a roaming run"
            );
        }
    }

    #[test]
    fn disabling_roaming_leaves_the_run_untouched() {
        // A roaming config whose knobs are all zero still takes the
        // roaming settlement path; only `None` preserves the original
        // event and RNG schedule. Verify `None` matches `None`.
        let ra = run_twin(&small(9), &mut NullSink);
        let rb = run_twin(&small(9), &mut NullSink);
        assert_eq!(ra.digest, rb.digest);
        assert!(!ra.roaming_enabled);
        assert_eq!(ra.roaming, RoamingSweep::default());
    }

    /// A slot freed and taken again while its old occupant's tick,
    /// cycle end and handover are still parked: they come due for an id
    /// the arena no longer resolves, and are dropped and counted — not
    /// fired, not stale, and not run against the new occupant's row.
    #[test]
    fn a_reused_slot_drops_its_old_occupants_events() {
        let mut cfg = small(10);
        cfg.churn.handovers_per_minute = 60.0;
        let mut sh = Shard::new(&cfg, 0);
        let profile = sh.churn.draw_profile();
        sh.admit(0, profile, SimDuration::from_secs(1));
        sh.run_epoch(1_000_000); // its ticks, then its teardown at 1 s
        assert_eq!(sh.retired, 1);
        // The next admission takes the slot. Its own events are an hour
        // out, so anything reaching its row before then is not its own.
        const LATER: u64 = 3_600_000_000;
        sh.admit(LATER, profile, SimDuration::from_secs(60));
        let new = SessionId {
            index: 0,
            generation: 1,
        };
        let row = sh.arena.get(new).map(|s| s.row);
        assert!(row.is_some(), "the slot was not reused");
        let fired = sh.fired;
        sh.run_epoch(LATER - 1);
        // The old tick, cycle end (2 s) and handover (capped at 20 s).
        assert_eq!(sh.dead, 3);
        assert_eq!((sh.fired, sh.stale), (fired, 0));
        assert_eq!(sh.arena.get(new).map(|s| s.row), row);
    }

    /// The same at run scale: lifetimes around a second against 3 s
    /// cycles and a handover a second, so most teardowns leave events
    /// behind. Each run's digest is the one the parent commit produced
    /// when teardown cancelled those events instead.
    #[test]
    fn churn_heavy_runs_drop_dead_events_as_cancel_did() {
        for (roaming, digest) in [
            (false, 0x6c40_59f6_29ff_15c8),
            (true, 0xc8de_6d23_986e_493a),
        ] {
            let mut cfg = small(12);
            cfg.duration = SimDuration::from_secs(8);
            cfg.cycle = SimDuration::from_secs(3);
            cfg.churn.mean_lifetime = SimDuration::from_secs(1);
            cfg.churn.handovers_per_minute = 60.0;
            if roaming {
                cfg.roaming = Some(RoamingTwinConfig::paper_default());
            }
            let r = run_twin(&cfg, &mut NullSink);
            assert_eq!(r.digest, digest, "roaming {roaming}");
            assert_eq!(r.stale_events, 0);
            assert!(
                r.dead_events > r.sessions_retired,
                "roaming {roaming}: {} dead events for {} teardowns",
                r.dead_events,
                r.sessions_retired
            );
        }
    }

    #[test]
    fn churn_reuses_slots() {
        let mut cfg = small(6);
        cfg.churn.mean_lifetime = SimDuration::from_secs(2);
        cfg.duration = SimDuration::from_secs(12);
        let r = run_twin(&cfg, &mut NullSink);
        assert!(r.sessions_retired > 0, "short lifetimes must retire");
        // Slots bound by peak concurrency, not total created.
        assert!(
            r.peak_shard_slots < r.sessions_created,
            "slots {} !< created {}",
            r.peak_shard_slots,
            r.sessions_created
        );
    }
}
