//! Equivalence guard and churn regressions for the digital twin.
//!
//! Three contracts, pinned hard:
//!
//! 1. **Event order** — the timer wheel fires and counts exactly as an
//!    ordered map keyed `(tick, seq)` does on random op streams, the
//!    map's cancels played on the wheel as the twin plays them: skipped
//!    when they come due (`support/sched_model.rs`, which shares no
//!    code with it), and whole twin runs digest to the values the wheel and a
//!    binary-heap scheduler agreed on in the last commit that had
//!    both (`HEAP_AGREED_RUNS`), and the 10k–1M tiers of `tlc
//!    experiment twin` repeat their pinned digests.
//! 2. **Thread invariance** — the epoch-barrier loop yields the same
//!    digest at any worker thread count (shard count is a model
//!    parameter; thread count must never be).
//! 3. **Churn safety** — teardown mid-cycle settles the partial cycle
//!    exactly once, handovers crossing a cycle boundary never
//!    double-count gateway bytes, and a reused arena slot cannot be
//!    reached through a stale `SessionId`.

use proptest::prelude::*;
use tlc_net::time::SimDuration;
use tlc_sim::experiments::twin::tier_config;
use tlc_sim::twin::{
    run_twin, NullSink, RoamingTwinConfig, SettleCause, Settled, SettlementSink, TwinConfig,
};
use tlc_sim::wheel::Scheduler;
use tlc_sim::{Arena, GapSweep};

#[path = "support/sched_model.rs"]
mod sched_model;

fn base(seed: u64) -> TwinConfig {
    let mut cfg = TwinConfig::smoke(seed);
    cfg.initial_sessions = 300;
    cfg.duration = SimDuration::from_secs(8);
    cfg
}

fn roaming_base(seed: u64) -> TwinConfig {
    let mut cfg = base(seed);
    cfg.roaming = Some(RoamingTwinConfig::paper_default());
    cfg
}

/// Collects every settlement the twin emits.
#[derive(Default)]
struct Collect(Vec<Settled>);

impl SettlementSink for Collect {
    fn settle(&mut self, s: &Settled) {
        self.0.push(*s);
    }
}

/// Fixed-seed golden digest: if this moves, the twin's event order,
/// RNG consumption, or charging arithmetic changed — which breaks
/// replayability of every recorded benchmark. Update deliberately.
#[test]
fn golden_digest_is_pinned() {
    let r = run_twin(&base(2024), &mut NullSink);
    assert_eq!(
        r.digest, GOLDEN_DIGEST,
        "twin digest moved: event order, RNG draws, or pricing changed"
    );
    assert_eq!(r.stale_events, 0);
}

const GOLDEN_DIGEST: u64 = 0xaf17_22ff_643f_2af5;

/// Same contract for a roaming-enabled run: the roaming plane's RNG
/// draws, operator-handover schedule, and three-party settlement
/// counters are all folded into this digest, so any drift in the
/// roaming event order or split arithmetic moves it.
#[test]
fn roaming_golden_digest_is_pinned() {
    let r = run_twin(&roaming_base(2024), &mut NullSink);
    assert_eq!(
        r.digest, ROAMING_GOLDEN_DIGEST,
        "roaming twin digest moved: roaming event order, RNG draws, or split arithmetic changed"
    );
    assert_eq!(r.stale_events, 0);
    // And the non-roaming golden must be wholly unaffected by the
    // roaming code existing: re-assert it next to its sibling.
    assert_eq!(run_twin(&base(2024), &mut NullSink).digest, GOLDEN_DIGEST);
}

const ROAMING_GOLDEN_DIGEST: u64 = 0x74a1_54a2_1fe8_5c31;

/// Thread invariance for a roaming-enabled run, against the pinned
/// golden — which both schedulers produced while there were two, so
/// the backend axis is held by the constant.
#[test]
fn roaming_run_is_backend_and_thread_invariant() {
    for threads in [1usize, 2, 8] {
        let mut cfg = roaming_base(2024);
        cfg.threads = threads;
        let r = run_twin(&cfg, &mut NullSink);
        assert_eq!(
            r.digest, ROAMING_GOLDEN_DIGEST,
            "{threads} threads diverged"
        );
        assert_eq!(
            r.roaming
                .home
                .saturating_add(r.roaming.visited)
                .saturating_add(r.roaming.vendor),
            r.roaming.charged,
            "{threads} threads broke conservation"
        );
    }
}

/// The population tiers `tlc experiment twin` runs, at its seed. Counts
/// and digests repeat exactly on any host and at any thread count, so a
/// scheduler that reorders events only above unit-test scale moves a
/// digest here. Moves per event is a count too: a timer re-armed a
/// second ahead is re-placed once (level 2 -> 1) and then fires out of
/// a run; ~2.0 means every event hops through level 0 again. The legacy
/// gap is a property of the traffic mix, so it may not drift with the
/// population.
#[test]
fn scale_tiers_repeat_their_digests() {
    // (sessions, sessions created, events fired, digest)
    const TIERS: [(usize, u64, u64, u64); 3] = [
        (10_000, 11_007, 123_044, 899_750_857_210_492_540),
        (100_000, 110_161, 1_229_676, 9_945_135_583_102_735_509),
        (1_000_000, 1_100_184, 12_281_414, 989_188_244_906_735_623),
    ];
    let mut base_gap = None;
    for (sessions, created, events, digest) in TIERS {
        let r = run_twin(&tier_config(sessions, 0x7717), &mut NullSink);
        assert_eq!(
            (r.sessions_created, r.events_fired, r.digest),
            (created, events, digest),
            "tier {sessions}: event order, RNG draws, or pricing changed"
        );
        assert_eq!(r.stale_events, 0, "tier {sessions}");
        assert!(
            r.peak_concurrent >= sessions as u64,
            "tier {sessions}: peak {} never reached the target",
            r.peak_concurrent
        );
        assert!(
            r.moves_per_event() <= 1.05,
            "tier {sessions}: {} moves per event",
            r.moves_per_event()
        );
        let gap = r.sweep.legacy_gap_ratio();
        let base = *base_gap.get_or_insert(gap);
        assert!(
            (gap - base).abs() <= 0.02,
            "tier {sessions}: legacy gap ratio {gap} drifted from {base}"
        );
    }
}

/// The heap's half of this comparison is frozen. Each row is a run the
/// last two-scheduler commit executed on the wheel *and* on a
/// binary-heap scheduler and found byte-identical; the digest (which
/// folds `events_fired`, `handovers` and the whole gap sweep) is what
/// they agreed on. Rows 1–3 are `base(seed)` as this test always ran
/// it; the other sixteen are the cases `prop_twin_threads_invariant`
/// drew when it still had a backend leg. `(seed, shards, sessions,
/// seconds, digest)`.
const HEAP_AGREED_RUNS: [(u64, usize, usize, u64, u64); 19] = [
    (7, 4, 300, 8, 0x236e_ebdc_8f74_8ee0),
    (8, 4, 300, 8, 0xb1f5_8ddb_3471_c9d9),
    (9, 4, 300, 8, 0xd695_aa08_5ebc_592d),
    (187, 4, 59, 4, 0x4a3a_9645_1f02_416d),
    (567, 1, 81, 4, 0xd700_5b83_6d05_f0a8),
    (733, 3, 63, 4, 0x6606_b431_e25f_bef7),
    (916, 3, 40, 4, 0x031d_9204_a5f7_93e7),
    (654, 1, 30, 4, 0xf582_8c54_5e01_0f05),
    (578, 3, 51, 4, 0x9651_adfb_8c87_5797),
    (329, 2, 97, 4, 0xbcce_05d9_2963_375e),
    (395, 4, 78, 4, 0x468a_9c44_d3ec_eef1),
    (796, 1, 36, 4, 0x3545_d9b4_80b3_4d7f),
    (329, 3, 83, 4, 0x353f_a91a_48de_e6c8),
    (656, 1, 32, 4, 0x2741_c26d_9414_ec7f),
    (967, 4, 102, 4, 0x1106_a097_92f7_1168),
    (687, 4, 43, 4, 0x9bbd_dc26_8e31_1914),
    (373, 2, 91, 4, 0x6029_c607_592e_3687),
    (635, 4, 104, 4, 0x9bd9_bc9b_8569_921a),
    (624, 4, 54, 4, 0x2f43_18ee_318e_649d),
];

#[test]
fn wheel_and_heap_runs_are_byte_identical() {
    for (seed, shards, sessions, secs, digest) in HEAP_AGREED_RUNS {
        let mut cfg = TwinConfig::smoke(seed);
        cfg.shards = shards;
        cfg.initial_sessions = sessions;
        cfg.duration = SimDuration::from_secs(secs);
        let r = run_twin(&cfg, &mut NullSink);
        assert_eq!(
            r.digest, digest,
            "seed {seed}, {shards} shards, {sessions} sessions"
        );
    }
}

#[test]
fn thread_count_never_changes_the_run() {
    let digests: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let mut cfg = base(11);
            cfg.threads = threads;
            run_twin(&cfg, &mut NullSink).digest
        })
        .collect();
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

/// Teardown mid-cycle: lifetimes far shorter than the charging cycle
/// force every session to settle a partial cycle at teardown. The
/// partial cycle must settle exactly once (settlement totals equal the
/// aggregate sweep), no event may reach a freed slot, and arena slots
/// must bound at peak concurrency rather than total admissions.
#[test]
fn teardown_mid_cycle_settles_once_and_reuses_slots() {
    let mut cfg = base(21);
    cfg.cycle = SimDuration::from_secs(30); // longer than the run
    cfg.churn.mean_lifetime = SimDuration::from_secs(2);
    cfg.duration = SimDuration::from_secs(12);
    let mut sink = Collect::default();
    let r = run_twin(&cfg, &mut sink);

    assert!(r.sessions_retired > 0, "short lifetimes must retire");
    assert_eq!(r.stale_events, 0, "an event reached a freed slot");
    assert!(
        sink.0.iter().any(|s| s.cause == SettleCause::Teardown),
        "no teardown settlements recorded"
    );
    // Every settled byte settles exactly once: re-summing the sink's
    // settlements must reproduce the aggregate sweep bit for bit.
    let mut resum = GapSweep::default();
    for s in &sink.0 {
        resum.active_rows += 1;
        resum.total_sent += s.settlement.truth.edge;
        resum.total_delivered += s.settlement.truth.operator;
        resum.total_gateway += s.settlement.legacy_charge;
        resum.intended += s.settlement.intended;
        resum.legacy_gap += s.settlement.legacy_gap();
        resum.tlc_gap += s.settlement.tlc_gap();
    }
    assert_eq!(resum, r.sweep, "settlements double- or under-counted");
    assert!(
        r.peak_shard_slots * (cfg.shards as u64) < r.sessions_created,
        "churn grew the arenas instead of reusing slots: peak {} × {} shards vs {} created",
        r.peak_shard_slots,
        cfg.shards,
        r.sessions_created
    );
}

/// Handovers crossing a cycle boundary: the flush claws back only
/// bytes delivered *this* cycle (the clamp in `handover_flush`), so
/// the truth pair stays ordered and gateway bytes are never counted
/// into two cycles.
#[test]
fn handover_crossing_cycle_boundary_does_not_double_count() {
    let mut cfg = base(22);
    cfg.cycle = SimDuration::from_millis(1500); // many boundaries
    cfg.churn.handovers_per_minute = 40.0; // ~one per 1.5 s
    let mut sink = Collect::default();
    let r = run_twin(&cfg, &mut sink);

    assert!(r.handovers > 0, "handover config produced none");
    for s in &sink.0 {
        let t = s.settlement.truth;
        assert!(
            t.operator <= t.edge,
            "delivered {} > sent {} — a flush clawed back bytes from a previous cycle",
            t.operator,
            t.edge
        );
        assert!(
            s.settlement.measured.operator <= t.operator,
            "monitor lag exceeded delivered"
        );
    }
    // Gateway conservation: each gateway byte belongs to exactly one
    // settled cycle.
    let gw: u64 = sink.0.iter().map(|s| s.settlement.legacy_charge).sum();
    assert_eq!(gw, r.sweep.total_gateway);
}

/// Slot reuse safety at the data-structure level: a stale `SessionId`
/// (torn down, slot reused by a later arrival) must dereference to
/// `None`. That check is the only thing between a torn-down session's
/// parked events and the slot's new occupant.
#[test]
fn stale_ids_and_tokens_cannot_alias_reused_slots() {
    let mut arena: Arena<&'static str> = Arena::new();
    let a = arena.insert("first");
    assert_eq!(arena.remove(a), Some("first"));
    let b = arena.insert("second");
    assert_eq!(b.index, a.index, "free list should reuse the slot");
    assert_ne!(b.generation, a.generation);
    assert_eq!(arena.get(a), None, "stale id resolved after reuse");
    assert_eq!(arena.get(b), Some(&"second"));
    assert!(!arena.contains(a) && arena.contains(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized scheduler conformance: any interleaving of
    /// schedule/cancel/pop must fire and count on the wheel, its dead
    /// pops skipped, as it does on the model.
    #[test]
    fn prop_wheel_matches_model(
        seed in 1u64..5000,
        ops in 50usize..400,
    ) {
        sched_model::wheel_matches_model(seed, ops);
    }

    /// Randomized twin invariance: small random configurations must
    /// digest identically at any thread count. (What these
    /// configurations digest *to* is `HEAP_AGREED_RUNS`' business.)
    #[test]
    fn prop_twin_threads_invariant(
        seed in 1u64..1000,
        shards in 1usize..5,
        sessions in 20usize..120,
        threads in 2usize..5,
    ) {
        let mut cfg = TwinConfig::smoke(seed);
        cfg.shards = shards;
        cfg.initial_sessions = sessions;
        cfg.duration = SimDuration::from_secs(4);
        cfg.threads = 1;
        let reference = run_twin(&cfg, &mut NullSink);

        let mut mt = cfg.clone();
        mt.threads = threads;
        prop_assert_eq!(run_twin(&mt, &mut NullSink).digest, reference.digest);
        prop_assert_eq!(reference.stale_events, 0);
    }
}
