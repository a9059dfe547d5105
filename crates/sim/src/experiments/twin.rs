//! Extension: the million-session digital twin at experiment scale
//! ([`crate::twin`]).
//!
//! Runs the sharded twin across population tiers and reports the
//! numbers the paper's operator would care about at fleet scale: the
//! aggregate legacy/TLC gap ratios (which must hold steady as the
//! population grows — gap accuracy vs scale) and the simulator's own
//! throughput (events and session-cycles per wall-clock second).

use super::RunScale;
use crate::twin::{run_twin, NullSink, TwinConfig};
use tlc_net::time::SimDuration;

/// One population tier's outcome.
#[derive(Clone, Copy, Debug)]
pub struct TwinRow {
    /// Target concurrent population.
    pub sessions: u64,
    /// Sessions ever admitted (initial + churn).
    pub sessions_created: u64,
    /// Wheel events fired.
    pub events: u64,
    /// Charging cycles settled.
    pub cycles: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Settled session-cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Aggregate legacy gap ratio ε.
    pub legacy_ratio: f64,
    /// Aggregate TLC gap ratio ε.
    pub tlc_ratio: f64,
    /// Times the wheels re-placed an item a level down, per event
    /// fired: the cascade work one event costs at this population.
    pub moves_per_event: f64,
    /// Events that came due for a torn-down session and were dropped.
    pub dead_events: u64,
    /// Level-0 slots the wheels folded into a pending run.
    pub merges: u64,
    /// Fewest and most events one shard fired in one epoch: what the
    /// other shards wait for at each barrier.
    pub shard_epoch_events: (u64, u64),
    /// Bytes of item storage the wheels' chunk pools grew to.
    pub pool_bytes: u64,
}

/// Twin configuration for a population tier.
pub fn tier_config(sessions: usize, seed: u64) -> TwinConfig {
    let mut cfg = TwinConfig::smoke(seed);
    cfg.initial_sessions = sessions;
    // Shard roughly 64k sessions per shard, at least 4.
    cfg.shards = (sessions / 65_536).max(4);
    cfg.threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    cfg.duration = SimDuration::from_secs(10);
    cfg.cycle = SimDuration::from_secs(5);
    cfg.tick = SimDuration::from_secs(1);
    // Churn proportional to population: ~1% of the population arriving
    // (and, with 2-minute lifetimes, leaving) per second, per shard.
    cfg.churn.arrivals_per_sec = sessions as f64 * 0.01 / cfg.shards as f64;
    // Capacity shaped so the cell runs warm but not collapsed.
    cfg.cell_capacity_bytes_per_epoch = (sessions as u64) * 200_000;
    cfg
}

/// Runs one tier and times it.
#[expect(
    clippy::disallowed_methods,
    reason = "twin tier sweep reports wall-clock throughput"
)]
pub fn run_tier(sessions: usize, seed: u64) -> TwinRow {
    let cfg = tier_config(sessions, seed);
    let start = std::time::Instant::now();
    let r = run_twin(&cfg, &mut NullSink);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    TwinRow {
        sessions: sessions as u64,
        sessions_created: r.sessions_created,
        events: r.events_fired,
        cycles: r.cycles_settled,
        events_per_sec: r.events_fired as f64 / elapsed,
        cycles_per_sec: r.cycles_settled as f64 / elapsed,
        legacy_ratio: r.sweep.legacy_gap_ratio(),
        tlc_ratio: r.sweep.tlc_gap_ratio(),
        moves_per_event: r.moves_per_event(),
        dead_events: r.dead_events,
        merges: r.sched.merges,
        shard_epoch_events: (r.shard_epoch_events_min, r.shard_epoch_events_max),
        pool_bytes: r.sched.pool_bytes,
    }
}

/// Sweeps population tiers.
pub fn run(scale: RunScale) -> Vec<TwinRow> {
    let tiers: &[usize] = match scale {
        RunScale::Quick => &[1_000, 10_000],
        RunScale::Full => &[10_000, 100_000, 1_000_000],
    };
    tiers.iter().map(|&n| run_tier(n, 0x7717)).collect()
}

/// Prints the tier sweep.
pub fn print(rows: &[TwinRow]) {
    println!("Extension — digital-twin population sweep (gap accuracy vs scale)");
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>12} {:>10} {:>9} {:>8} {:>9} {:>9} {:>8} {:>17} {:>9}",
        "sessions",
        "created",
        "events",
        "cycles",
        "events/s",
        "cycles/s",
        "legacy ε",
        "TLC ε",
        "moves/ev",
        "dead ev",
        "merges",
        "shard ev/epoch",
        "pool MiB"
    );
    for r in rows {
        println!(
            "{:>10} {:>10} {:>12} {:>10} {:>12.0} {:>10.0} {:>8.2}% {:>7.3}% {:>9.2} {:>9} {:>8} {:>17} {:>9.1}",
            r.sessions,
            r.sessions_created,
            r.events,
            r.cycles,
            r.events_per_sec,
            r.cycles_per_sec,
            r.legacy_ratio * 100.0,
            r.tlc_ratio * 100.0,
            r.moves_per_event,
            r.dead_events,
            r.merges,
            format!("{}..{}", r.shard_epoch_events.0, r.shard_epoch_events.1),
            r.pool_bytes as f64 / (1u64 << 20) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_ratios_hold_across_tiers() {
        let rows = run(RunScale::Quick);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.cycles > 0);
            assert!(
                r.legacy_ratio > r.tlc_ratio,
                "legacy ε {} must exceed TLC ε {}",
                r.legacy_ratio,
                r.tlc_ratio
            );
        }
        // Scale invariance: the aggregate gap ratio is a property of
        // the workload mix, not the population size.
        let drift = (rows[0].legacy_ratio - rows[1].legacy_ratio).abs();
        assert!(
            drift < 0.02,
            "legacy gap ratio drifted {drift} between tiers"
        );
    }
}
