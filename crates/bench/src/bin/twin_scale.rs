//! Scale benchmark for the digital twin (DESIGN §13): runs the sharded
//! event-wheel simulator across population tiers and records the
//! numbers the million-session claim rests on — sessions/sec of
//! simulated churn, wheel events/sec, settled cycles/sec, and the
//! gap-accuracy-vs-scale curve (the aggregate legacy/TLC gap ratios
//! must not drift as the population grows, since the gap is a property
//! of the workload mix, not of how many sessions carry it).
//!
//! Results land in `BENCH_twin.json` in the working directory:
//!
//! ```text
//! twin_scale                       # full sweep: 10k, 100k, 1M sessions
//! twin_scale --tiers 10000         # CI smoke tier
//! ```
//!
//! Exits nonzero if any tier leaks a stale event, under-populates, or
//! drifts its gap ratio more than `GAP_DRIFT_TOL` from the first tier.

use std::time::Instant;
use tlc_bench::{arg_value, reject_unknown_flags};
use tlc_sim::experiments::twin::tier_config;
use tlc_sim::twin::{run_twin, NullSink};

/// Absolute drift in the aggregate gap ratio tolerated between the
/// smallest tier and any larger one.
const GAP_DRIFT_TOL: f64 = 0.02;

struct TierRun {
    sessions: usize,
    shards: usize,
    threads: usize,
    created: u64,
    peak_concurrent: u64,
    events: u64,
    cycles: u64,
    handovers: u64,
    elapsed_secs: f64,
    legacy_ratio: f64,
    tlc_ratio: f64,
    /// Wheel items re-placed a level down, per event fired (a count:
    /// repeats exactly; CI holds the smoke tiers to <= 1.05).
    moves_per_event: f64,
    /// Events that came due for a torn-down session and were dropped
    /// (a count, outside the digest).
    dead_events: u64,
    digest: u64,
}

impl TierRun {
    fn sessions_per_sec(&self) -> f64 {
        self.created as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE)
    }
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE)
    }
    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.elapsed_secs.max(f64::MIN_POSITIVE)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(&args, &["--tiers", "--seed", "--out"]);
    let tiers: Vec<usize> = arg_value(&args, "--tiers")
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse().expect("--tiers wants integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![10_000, 100_000, 1_000_000]);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x7717);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_twin.json".to_string());

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("twin_scale: seed={seed:#x} host_cpus={host_cpus} tiers={tiers:?}");

    let mut runs: Vec<TierRun> = Vec::new();
    let mut failures = 0u32;
    for &sessions in &tiers {
        let cfg = tier_config(sessions, seed);
        let start = Instant::now();
        let r = run_twin(&cfg, &mut NullSink);
        let elapsed = start.elapsed().as_secs_f64();

        if r.stale_events != 0 {
            eprintln!("tier {sessions}: {} stale events (want 0)", r.stale_events);
            failures += 1;
        }
        if r.peak_concurrent < sessions as u64 {
            eprintln!(
                "tier {sessions}: peak concurrency {} never reached the target",
                r.peak_concurrent
            );
            failures += 1;
        }
        let run = TierRun {
            sessions,
            shards: cfg.shards,
            threads: cfg.threads,
            created: r.sessions_created,
            peak_concurrent: r.peak_concurrent,
            events: r.events_fired,
            cycles: r.cycles_settled,
            handovers: r.handovers,
            elapsed_secs: elapsed,
            legacy_ratio: r.sweep.legacy_gap_ratio(),
            tlc_ratio: r.sweep.tlc_gap_ratio(),
            moves_per_event: r.moves_per_event(),
            dead_events: r.dead_events,
            digest: r.digest,
        };
        println!(
            "tier {sessions}: peak {} sessions, {} events in {elapsed:.2} s \
             -> {:.0} events/s, {:.0} sessions/s, {:.0} cycles/s, \
             legacy ε {:.2}% TLC ε {:.3}%, {:.2} moves/event, {} dead events \
             (shards {}, threads {})",
            run.peak_concurrent,
            run.events,
            run.events_per_sec(),
            run.sessions_per_sec(),
            run.cycles_per_sec(),
            run.legacy_ratio * 100.0,
            run.tlc_ratio * 100.0,
            run.moves_per_event,
            run.dead_events,
            run.shards,
            run.threads,
        );
        runs.push(run);
    }

    // Gap accuracy vs scale: the charging model's error must be a
    // property of the traffic mix, stable across population tiers.
    if let Some(base) = runs.first() {
        for r in &runs[1..] {
            let drift = (r.legacy_ratio - base.legacy_ratio).abs();
            if drift > GAP_DRIFT_TOL {
                eprintln!(
                    "tier {}: legacy gap ratio drifted {drift:.4} from the {} tier",
                    r.sessions, base.sessions
                );
                failures += 1;
            }
        }
    }

    write_json(&out_path, seed, host_cpus, &runs);
    if failures > 0 {
        eprintln!("twin_scale: {failures} check(s) failed");
        std::process::exit(1);
    }
}

/// Writes the tier sweep as JSON (hand-rolled, like the other bench
/// bins: the report shape is the contract, not a serde schema).
fn write_json(path: &str, seed: u64, host_cpus: usize, runs: &[TierRun]) {
    let base = runs.first();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"twin_scale\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"tiers\": [\n");
    for (k, r) in runs.iter().enumerate() {
        let drift = base.map_or(0.0, |b| (r.legacy_ratio - b.legacy_ratio).abs());
        out.push_str(&format!(
            "    {{\"host_cpus\": {host_cpus}, \
             \"sessions\": {}, \"shards\": {}, \"threads\": {}, \
             \"sessions_created\": {}, \"peak_concurrent\": {}, \
             \"events\": {}, \"cycles\": {}, \"handovers\": {}, \
             \"elapsed_secs\": {:.3}, \"sessions_per_sec\": {:.1}, \
             \"events_per_sec\": {:.1}, \"cycles_per_sec\": {:.1}, \
             \"legacy_gap_ratio\": {:.6}, \"tlc_gap_ratio\": {:.6}, \
             \"gap_drift_vs_base\": {:.6}, \"moves_per_event\": {:.4}, \
             \"dead_events\": {}, \"digest\": {}}}{}\n",
            r.sessions,
            r.shards,
            r.threads,
            r.created,
            r.peak_concurrent,
            r.events,
            r.cycles,
            r.handovers,
            r.elapsed_secs,
            r.sessions_per_sec(),
            r.events_per_sec(),
            r.cycles_per_sec(),
            r.legacy_ratio,
            r.tlc_ratio,
            drift,
            r.moves_per_event,
            r.dead_events,
            r.digest,
            if k + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, &out).expect("write BENCH_twin.json");
    println!("wrote {path}");
}
