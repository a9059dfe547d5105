//! The benchmark's vocabulary: workload names and every metric with
//! its unit and direction. `BENCHMARK.json` at the repo root declares
//! the same lists (the schema test keeps the two equal), so a metric
//! cannot be emitted without being declared, or declared without being
//! emitted.

/// A metric's name, unit, and whether a larger value is an improvement.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; printed by every `--trace 0` run.
/// "op" is the workload's unit of work (see [`Workload::op`]).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("op_us_p50", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer numbers; printed by every `--trace 1` run. A layer the
/// workload bypasses reports 0 for all of its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    lower("crypto.keygen_ms", "ms"),
    lower("crypto.rsa_sign_us", "us"),
    lower("crypto.rsa_verify_us", "us"),
    lower("crypto.verify_batch32_us_per_sig", "us"),
    lower("crypto.sha256_ns_per_poc", "ns"),
    lower("core.protocol.negotiate_us", "us"),
    lower("core.protocol.negotiate_us_p99", "us"),
    lower("core.protocol.self_us", "us"),
    lower("core.protocol.msgs_per_cycle", "count"),
    lower("core.protocol.rounds_per_cycle", "count"),
    lower("core.protocol.sigs_made_per_cycle", "count"),
    lower("core.protocol.sigs_checked_per_cycle", "count"),
    lower("core.messages.poc_encode_ns", "ns"),
    lower("core.messages.poc_decode_ns", "ns"),
    lower("core.messages.chain_digests_us", "us"),
    lower("core.messages.poc_bytes", "B"),
    lower("core.verify.verify_poc_us", "us"),
    lower("core.verify.batch32_us_per_poc", "us"),
    lower("core.verify.self_us_per_poc", "us"),
    higher("core.verify.service.pocs_per_s", "1/s"),
    lower("core.verify.service.cpu_us_per_poc", "us"),
    lower("core.verify.service.self_cpu_us_per_poc", "us"),
    lower("core.verify.service.batches", "count"),
    higher("core.verify.service.batch_fill", "count"),
    lower("core.verify.service.deadline_flush_share", "share"),
    lower("core.verify.remote.self_cpu_us_per_poc", "us"),
    lower("core.verify.remote.frame_cpu_us", "us"),
    lower("core.verify.remote.bringup_ms", "ms"),
    lower("core.verify.remote.pauses_per_kpoc", "count"),
    lower("core.verify.remote.shed_overload", "count"),
    lower("core.verify.remote.orphaned_verdicts", "count"),
    lower("core.verify.remote.protocol_errors", "count"),
    lower("core.verify.remote.client_retries", "count"),
    lower("core.verify.remote.client_shed_notices", "count"),
    lower("core.verify.remote.verdict_ms_p99", "ms"),
    lower("core.verify.remote.settle_rtt_us_p99", "us"),
    lower("net.wire.tx_bytes_per_op", "B"),
    lower("net.wire.rx_bytes_per_op", "B"),
    lower("net.wire.client_writes_per_op", "count"),
    lower("net.wire.client_reads_per_op", "count"),
    lower("net.bufpool.checkouts_per_kpoc", "count"),
    lower("net.bufpool.recycles_per_kpoc", "count"),
    lower("net.bufpool.exhausted", "count"),
    lower("core.roaming.split_volume_ns", "ns"),
    lower("sim.twin.ns_per_event", "ns"),
    lower("sim.twin.events_per_session", "count"),
    higher("sim.twin.cycles_per_s", "1/s"),
    higher("sim.twin.sessions_per_s", "1/s"),
    lower("sim.twin.peak_shard_slots", "count"),
    higher("sim.twin.events_per_s_10k", "1/s"),
    higher("sim.twin.events_per_s_1m", "1/s"),
    lower("sim.twin.scale_drop", "ratio"),
    lower("sim.twin.us_per_sampled_cycle", "us"),
    lower("proc.cpu_us_per_op", "us"),
    lower("proc.user_us_per_op", "us"),
    lower("proc.sys_us_per_op", "us"),
    lower("proc.voluntary_ctx_per_op", "count"),
    lower("proc.involuntary_ctx_per_op", "count"),
    lower("proc.threads", "count"),
    lower("proc.own_thread_cpu_us_per_op", "us"),
    lower("proc.other_threads_cpu_us_per_op", "us"),
    lower("ledger.unattributed_share", "share"),
    lower("ledger.trace_overhead_share", "share"),
    lower("ledger.slice_spread", "share"),
    lower("ledger.op_us_p90", "us"),
    higher("ledger.latency_samples", "count"),
    lower("ledger.workspace_loc", "count"),
];

/// The six workloads. Names are normative (ISSUE 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CycleE2e,
    VerifyFlood,
    VerifyFrames,
    VerifySingle,
    SettleRpc,
    TwinChurn,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::CycleE2e,
        Workload::VerifyFlood,
        Workload::VerifyFrames,
        Workload::VerifySingle,
        Workload::SettleRpc,
        Workload::TwinChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CycleE2e => "cycle_e2e",
            Workload::VerifyFlood => "verify_flood",
            Workload::VerifyFrames => "verify_frames",
            Workload::VerifySingle => "verify_single",
            Workload::SettleRpc => "settle_rpc",
            Workload::TwinChurn => "twin_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CycleE2e => "Full path: twin-sampled cycle, negotiate+sign, TCP submit, verdict. Signing is ~95% of the work, so crypto sign and core::protocol changes show here and ingress changes barely do.",
            Workload::VerifyFlood => "Verifier capacity: pre-signed pool sent as 64-PoC batch frames to a fresh server per epoch. Batched verify, hash stage, stage queue and ingress each carry a share; signing carries none.",
            Workload::VerifyFrames => "Same pool and crypto as verify_flood but one frame per PoC: a per-frame ingress/codec/flush cost or a coalescing gain shows here and not in verify_flood.",
            Workload::VerifySingle => "Depth-1 submit-then-verdict, pinned to one CPU: light-load verdict latency, dominated by flush_deadline and the batch-of-1 path that the throughput workloads bypass.",
            Workload::SettleRpc => "Depth-1 SETTLE RPC, pinned to one CPU: bare forwarding at the smallest message; no crypto, no service, only wire, codec and the ingress loop.",
            Workload::TwinChurn => "The 250k-session twin alone (wheel, arena, SoA, barrier). Nothing in the PoC path runs, so a twin change moves only this and a PoC-path change must not.",
        }
    }

    /// The unit of work behind `ops_per_s` and `proc.cpu_us_per_op`, and
    /// the timed unit behind `op_us_p50` (and `ledger.op_us_p90`).
    pub fn op(self) -> (&'static str, &'static str) {
        match self {
            Workload::CycleE2e => ("accepted cycle", "Endpoint::new x2 + run_negotiation"),
            Workload::VerifyFlood => ("accepted PoC", "turn-around of one 64-PoC batch frame"),
            Workload::VerifyFrames => ("accepted PoC", "turn-around of 64 single-PoC frames"),
            Workload::VerifySingle => ("accepted PoC", "submit until verdict in hand"),
            Workload::SettleRpc => ("SETTLE RPC", "settle round trip"),
            Workload::TwinChurn => ("twin event", "one whole twin run"),
        }
    }

    /// Depth-1 loops run pinned to one CPU (README, "Prototype
    /// evidence"); pipelined and CPU-bound workloads use every CPU.
    pub fn pinned(self) -> bool {
        matches!(self, Workload::VerifySingle | Workload::SettleRpc)
    }
}
