//! The traced run: where a workload's time goes, layer by layer.
//!
//! Three sources, all outside the program (spans inside it are a later
//! issue):
//!
//! 1. the workload itself, run in alternating untraced and traced
//!    slices — spans (wall and thread CPU) around each call the harness
//!    makes into a layer, `/proc` deltas and the client/server CPU
//!    split around each timed window, and the difference of the two
//!    kinds of slice as the tracing overhead;
//! 2. the counters the program's public reports already expose
//!    (`ServiceReport`, `IngressReport`, `PoolStats`, `TwinReport`,
//!    `EndpointStats`, the client's retry counters) and the client-side
//!    wire tap;
//! 3. *probes*: the harness walking the path one public function at a
//!    time over the same inputs (`pkcs1::sign`, `PocMsg::decode`,
//!    `Verifier::verify_batch`, an in-process `VerifierService` drive,
//!    …), each repetition a span. An outer layer's self cost is its
//!    CPU per PoC minus its child's.
//!
//! The CPU budgets of `verify_flood` and `cycle_e2e` add up source 1
//! only — measurements taken in the workload's own timed windows, by
//! clocks other than the one that gives the total — and the run fails
//! if they miss the total by [`MAX_UNATTRIBUTED`] or more. The probes
//! then say what the server's row is made of.
//!
//! Only the layers a workload exercises are probed; every metric of a
//! bypassed layer reads 0, which is how a run shows what it bypasses.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tlc_core::messages::PocMsg;
use tlc_core::roaming::{RoamingAgreement, Serving};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_core::verify::{verify_poc, Verifier};
use tlc_crypto::{pkcs1, sha256};
use tlc_sim::twin::TwinReport;

use crate::catalog::{Workload, PER_LAYER};
use crate::inputs::{Inputs, FRAME};
use crate::run::{
    host_labels, in_catalogue_order, measure, pin_if_needed, set_up, Outcome, RunSpec,
};
use crate::span::Tracer;
use crate::stats;
use crate::sys;
use crate::workloads::{run_tier, Ctx, SliceStat};

/// Share of `--seconds` the workload's own slices get; the rest goes
/// to the probes.
const WORKLOAD_SHARE: f64 = 0.4;

/// Slices the traced run measures at least: two of each kind.
const MIN_TRACED_SLICES: usize = 4;

/// Signatures in one PoC's chain (PoC, embedded CDA, embedded CDR).
const SIGS_PER_POC: f64 = 3.0;

/// A CPU budget whose rows miss the total by this share or more, in
/// either direction, fails the traced run (ISSUE 11's criterion).
const MAX_UNATTRIBUTED: f64 = 0.25;

/// Repeats `f` for about `budget_s` seconds (at least 5 and at most
/// 4,000 times), one span per repetition, and returns the median
/// repetition in microseconds divided by `per`, the number of calls
/// `f` makes. Batching calls keeps the span's own cost (two clock
/// reads) below 1 % of what it times.
fn probe(
    tr: &mut Tracer,
    name: &'static str,
    budget_s: f64,
    per: usize,
    mut f: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut reps = 0u64;
    while reps < 5 || (start.elapsed().as_secs_f64() < budget_s && reps < 4_000) {
        let span = tr.enter(name, reps);
        f();
        tr.exit(span);
        reps += 1;
    }
    stats::median(&tr.durations_us(name)) / per.max(1) as f64
}

/// `crypto.*`, `core.messages.*` and `core.verify.*`: each public
/// function on its own, single-threaded, over the same PoCs.
fn probe_poc_layers(
    tr: &mut Tracer,
    inputs: &Inputs,
    budget_s: f64,
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let rel = &inputs.rels[0];
    let pocs: Vec<&PocMsg> = inputs.pool[0].iter().take(FRAME).collect();
    let n = pocs.len();
    let encoded: Vec<Vec<u8>> = pocs.iter().map(|p| p.encode()).collect();
    let each = budget_s / 10.0;

    // crypto
    let sign_us = probe(tr, "crypto.rsa_sign", each, 1, || {
        black_box(pkcs1::sign(&rel.edge.private, black_box(&encoded[0])).expect("sign"));
    });
    let sigs: Vec<Vec<u8>> = encoded
        .iter()
        .map(|b| pkcs1::sign(&rel.edge.private, b).map_err(|e| format!("sign: {e}")))
        .collect::<Result<_, _>>()?;
    let verify_us = probe(tr, "crypto.rsa_verify", each, 8, || {
        for (b, s) in encoded.iter().zip(&sigs).take(8) {
            pkcs1::verify(&rel.edge.public, black_box(b), s).expect("verify");
        }
    });
    let lanes = n.min(32);
    let reqs: Vec<pkcs1::VerifyRequest<'_>> = encoded
        .iter()
        .zip(&sigs)
        .take(lanes)
        .map(|(b, s)| pkcs1::VerifyRequest {
            key: &rel.edge.public,
            digest: sha256::digest(b),
            signature: s,
        })
        .collect();
    let batch_sig_us = probe(tr, "crypto.verify_batch32", each, lanes, || {
        let verdicts = pkcs1::verify_batch(black_box(&reqs));
        assert!(
            verdicts.iter().all(Result::is_ok),
            "batch verify rejected a good signature"
        );
    });
    // The three bodies a PoC's chain hashes are its own encoding and
    // those of the CDA and CDR nested in it.
    let bodies: Vec<[Vec<u8>; 3]> = pocs
        .iter()
        .map(|p| [p.encode(), p.cda.encode(), p.cda.peer_cdr.encode()])
        .collect();
    let sha_us = probe(tr, "crypto.sha256", each, n, || {
        for b in bodies.iter().flatten() {
            black_box(sha256::digest(black_box(b)));
        }
    });
    m.extend([
        ("crypto.rsa_sign_us", sign_us),
        ("crypto.rsa_verify_us", verify_us),
        ("crypto.verify_batch32_us_per_sig", batch_sig_us),
        ("crypto.sha256_ns_per_poc", sha_us * 1e3),
    ]);

    // core.messages
    let encode_us = probe(tr, "core.messages.encode", each, n, || {
        for p in &pocs {
            black_box(black_box(p).encode());
        }
    });
    let decode_us = probe(tr, "core.messages.decode", each, n, || {
        for b in &encoded {
            black_box(PocMsg::decode(black_box(b)).expect("decode"));
        }
    });
    let digests_us = probe(tr, "core.messages.chain_digests", each, n, || {
        for p in &pocs {
            black_box(black_box(p).chain_digests());
        }
    });
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    m.extend([
        ("core.messages.poc_encode_ns", encode_us * 1e3),
        ("core.messages.poc_decode_ns", decode_us * 1e3),
        ("core.messages.chain_digests_us", digests_us),
        ("core.messages.poc_bytes", bytes),
    ]);

    // core.verify
    let few = n.min(8);
    let verify_poc_us = probe(tr, "core.verify.verify_poc", each, few, || {
        for p in pocs.iter().take(few) {
            verify_poc(black_box(p), &inputs.plan, &rel.edge.public, &rel.op.public)
                .expect("valid PoC");
        }
    });
    let refs: Vec<&PocMsg> = pocs.iter().take(lanes).copied().collect();
    let fresh = || Verifier::new(inputs.plan, rel.edge.public.clone(), rel.op.public.clone());
    let mut verifier = fresh();
    let batch_poc_us = probe(tr, "core.verify.verify_batch32", each * 2.0, lanes, || {
        let verdicts = verifier.verify_batch(black_box(&refs));
        assert!(
            verdicts.iter().all(Result::is_ok),
            "batch verify rejected a good PoC"
        );
        // The replay window forbids a second pass; the replacement is
        // an empty set and two key clones, far below the batch's cost.
        verifier = fresh();
    });
    m.extend([
        ("core.verify.verify_poc_us", verify_poc_us),
        ("core.verify.batch32_us_per_poc", batch_poc_us),
        (
            "core.verify.self_us_per_poc",
            (batch_poc_us - digests_us - SIGS_PER_POC * batch_sig_us).max(0.0),
        ),
    ]);
    Ok(())
}

/// The pool through an in-process `VerifierService` (one worker, the
/// `verify_flood` order, a fresh service per pass): the onion layer
/// between `Verifier::verify_batch` and the TCP drive. Returns
/// `(PoCs/s, CPU µs per PoC)` as medians over passes.
fn service_drive(tr: &mut Tracer, inputs: &Inputs, budget_s: f64) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let chunks = inputs.pool[0].len().div_ceil(FRAME);
    while rates.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut rels = Vec::new();
        for r in &inputs.rels {
            rels.push(
                svc.register(inputs.plan, r.edge.public.clone(), r.op.public.clone())
                    .map_err(|e| format!("service register: {e}"))?,
            );
        }
        let span = tr.enter("core.verify.service.pass", rates.len() as u64);
        let (t, cpu0) = (Instant::now(), sys::process_cpu_secs());
        for chunk in 0..chunks {
            for (r, pocs) in inputs.pool.iter().enumerate() {
                let frame = &pocs[chunk * FRAME..pocs.len().min((chunk + 1) * FRAME)];
                svc.submit_batch(rels[r], frame.iter().cloned())
                    .map_err(|e| format!("service submit: {e}"))?;
            }
        }
        let results = svc
            .collect_results()
            .map_err(|e| format!("service collect: {e}"))?;
        let (wall, cpu) = (t.elapsed().as_secs_f64(), sys::process_cpu_secs() - cpu0);
        tr.exit(span);
        if results.len() != inputs.pool_len() || results.iter().any(|r| r.result.is_err()) {
            return Err("in-process service rejected a pool PoC".to_string());
        }
        svc.finish();
        rates.push(results.len() as f64 / wall);
        cpus.push(cpu * 1e6 / results.len() as f64);
    }
    Ok((stats::median(&rates), stats::median(&cpus)))
}

/// Non-blank lines of Rust under `crates/`: the ROADMAP's simplicity
/// trend line, recorded next to the speed it buys.
fn workspace_loc() -> f64 {
    fn walk(dir: &Path, total: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.flatten().map(|e| e.path()) {
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|x| x == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    *total += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
                }
            }
        }
    }
    let mut total = 0;
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates"),
        &mut total,
    );
    total as f64
}

fn rate(s: &SliceStat) -> f64 {
    s.ops as f64 / s.wall_s
}

/// Median over slices of `f`.
fn slice_median(slices: &[SliceStat], f: impl Fn(&SliceStat) -> f64) -> f64 {
    stats::median(&slices.iter().map(f).collect::<Vec<_>>())
}

/// CPU microseconds per operation over all of `slices`.
fn cpu_us_per_op(slices: &[SliceStat]) -> f64 {
    let ops: u64 = slices.iter().map(|s| s.ops).sum();
    let cpu: f64 = slices.iter().map(|s| s.cpu_s).sum();
    cpu * 1e6 / ops.max(1) as f64
}

/// A traced run after its workload slices: what the per-layer
/// arithmetic below reads, and the metric list it fills.
struct Layers {
    spec: RunSpec,
    cx: Ctx,
    /// Untraced and traced slices (even and odd positions).
    plain: Vec<SliceStat>,
    traced: Vec<SliceStat>,
    /// Operations in all slices, and in the traced ones (which alone
    /// have `/proc` deltas and latency samples).
    all_ops: f64,
    traced_ops: f64,
    /// Process CPU per operation over all slices, and over the traced
    /// ones (`proc.cpu_us_per_op`: the total the budgets split).
    total_cpu_us: f64,
    traced_cpu_us: f64,
    /// Seconds left for probes.
    probe_budget: f64,
    m: Vec<(&'static str, f64)>,
    labels: Vec<(&'static str, String)>,
}

impl Layers {
    fn get(&self, name: &str) -> f64 {
        self.m
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// What tracing costs: each traced slice against the untraced one
    /// run just before it, the median over those pairs (neighbours
    /// share whatever state the host is in).
    fn trace_overhead(&self) -> f64 {
        let pairs = self.plain.iter().zip(&self.traced);
        let shares: Vec<f64> = pairs.map(|(p, t)| 1.0 - rate(t) / rate(p)).collect();
        stats::median(&shares)
    }

    /// Closes a CPU budget: `rows` are CPU µs per operation measured
    /// in the traced slices' timed windows, the total is the process
    /// CPU clock over the same windows, and what the rows miss is the
    /// unattributed share. A budget that does not close fails the run.
    fn close_budget(&mut self, rows: &[(&str, f64)]) {
        let total = self.traced_cpu_us;
        let seen: f64 = rows.iter().map(|r| r.1).sum();
        let share = 1.0 - seen / total;
        let mut line: String = rows
            .iter()
            .map(|(name, us)| format!("{name} {us:.2} + "))
            .collect();
        line.push_str(&format!(
            "unattributed {:.2} = {total:.2} us of CPU per op",
            total - seen
        ));
        // (Full scale only: a smoke run's windows are a few
        // milliseconds, and it is labelled not comparable.)
        if share.abs() >= MAX_UNATTRIBUTED && !self.spec.scale.smoke {
            self.cx
                .fail(|| format!("the CPU budget does not close: {line}"));
        }
        self.m.push(("ledger.unattributed_share", share));
        self.labels.push(("cpu_budget", line));
    }

    /// `proc.*` and `ledger.*`: every workload.
    fn process_and_harness(&mut self) {
        let p = self.cx.proc;
        let all: Vec<f64> = self.plain.iter().chain(&self.traced).map(rate).collect();
        self.m.extend([
            ("proc.cpu_us_per_op", self.traced_cpu_us),
            ("proc.user_us_per_op", p.user_s * 1e6 / self.traced_ops),
            ("proc.sys_us_per_op", p.sys_s * 1e6 / self.traced_ops),
            (
                "proc.voluntary_ctx_per_op",
                p.voluntary_ctx as f64 / self.traced_ops,
            ),
            (
                "proc.involuntary_ctx_per_op",
                p.involuntary_ctx as f64 / self.traced_ops,
            ),
            ("proc.threads", p.threads as f64),
            (
                "proc.own_thread_cpu_us_per_op",
                p.own_cpu_s * 1e6 / self.traced_ops,
            ),
            (
                "proc.other_threads_cpu_us_per_op",
                p.others_cpu_s * 1e6 / self.traced_ops,
            ),
            ("ledger.trace_overhead_share", self.trace_overhead()),
            ("ledger.slice_spread", stats::iqr_share(&all)),
            ("ledger.op_us_p90", slice_median(&self.plain, |s| s.p90_us)),
            ("ledger.latency_samples", self.cx.all_lat_us.len() as f64),
            ("ledger.workspace_loc", workspace_loc()),
        ]);
    }

    /// Counters from the program's own reports and the wire tap: every
    /// PoC-path workload.
    fn report_counters(&mut self, inputs: &Inputs) {
        let c = &self.cx.counters;
        // Per thousand operations (PoCs, or RPCs on `settle_rpc`).
        let kpocs = self.all_ops / 1e3;
        self.m.extend([
            ("crypto.keygen_ms", stats::median(&inputs.keygen_ms)),
            (
                "core.verify.remote.bringup_ms",
                stats::median(&c.bringup_ms),
            ),
            (
                "core.verify.remote.pauses_per_kpoc",
                c.ingress_pauses as f64 / kpocs,
            ),
            ("core.verify.remote.shed_overload", c.shed_overload as f64),
            (
                "core.verify.remote.orphaned_verdicts",
                c.orphaned_verdicts as f64,
            ),
            (
                "core.verify.remote.protocol_errors",
                c.protocol_errors as f64,
            ),
            ("core.verify.remote.client_retries", c.client_retries as f64),
            (
                "core.verify.remote.client_shed_notices",
                c.client_shed_notices as f64,
            ),
            (
                "net.wire.tx_bytes_per_op",
                c.wire.tx_bytes as f64 / self.all_ops,
            ),
            (
                "net.wire.rx_bytes_per_op",
                c.wire.rx_bytes as f64 / self.all_ops,
            ),
            (
                "net.wire.client_writes_per_op",
                c.wire.writes as f64 / self.all_ops,
            ),
            (
                "net.wire.client_reads_per_op",
                c.wire.reads as f64 / self.all_ops,
            ),
            (
                "net.bufpool.checkouts_per_kpoc",
                c.pool_checkouts as f64 / kpocs,
            ),
            (
                "net.bufpool.recycles_per_kpoc",
                c.pool_recycles as f64 / kpocs,
            ),
            ("net.bufpool.exhausted", c.pool_exhausted as f64),
        ]);
        if c.service_batches > 0 {
            let verdicts = (c.service_accepted + c.service_rejected) as f64;
            self.m.extend([
                ("core.verify.service.batches", c.service_batches as f64),
                (
                    "core.verify.service.batch_fill",
                    verdicts / c.service_batches as f64,
                ),
                (
                    "core.verify.service.deadline_flush_share",
                    c.service_deadline_flushes as f64 / c.service_batches as f64,
                ),
            ]);
        }
    }

    /// `cycle_e2e`: `core.protocol.*` from the negotiate spans and
    /// `EndpointStats`, the twin's share from span self time, and the
    /// cycle's CPU budget.
    fn cycle(&mut self, inputs: &Inputs) -> Result<(), String> {
        probe_poc_layers(&mut self.cx.tr, inputs, self.probe_budget, &mut self.m)?;
        let c = &self.cx.counters;
        let cycles = c.negotiations.max(1) as f64;
        let negotiate_us = self.cx.tr.durations_us("core.protocol.negotiate");
        let [neg_p50, neg_p99] = stats::percentiles(&negotiate_us, [0.5, 0.99]);
        let made = c.sigs_made as f64 / cycles;
        let checked = c.sigs_checked as f64 / cycles;
        let signing = made * self.get("crypto.rsa_sign_us");
        let checking = checked * self.get("crypto.rsa_verify_us");
        // The twin's own share: its spans' self time (negotiate and
        // submit are children) over the cycles the traced slices
        // sampled.
        let twin_self_us = self.cx.tr.self_us("sim.twin.run_twin");
        let twin_us = twin_self_us / negotiate_us.len().max(1) as f64;
        self.m.extend([
            ("core.protocol.negotiate_us", neg_p50),
            ("core.protocol.negotiate_us_p99", neg_p99),
            (
                "core.protocol.self_us",
                (neg_p50 - signing - checking).max(0.0),
            ),
            (
                "core.protocol.msgs_per_cycle",
                c.protocol_msgs as f64 / cycles,
            ),
            (
                "core.protocol.rounds_per_cycle",
                c.protocol_rounds as f64 / cycles,
            ),
            ("core.protocol.sigs_made_per_cycle", made),
            ("core.protocol.sigs_checked_per_cycle", checked),
            ("sim.twin.us_per_sampled_cycle", twin_us),
        ]);
        if let Some((report, _)) = &c.twin {
            let events = report.events_fired.max(1) as f64;
            let traced_events = events * self.traced.len().max(1) as f64;
            self.m.extend([
                ("sim.twin.ns_per_event", twin_self_us * 1e3 / traced_events),
                (
                    "sim.twin.events_per_session",
                    events / report.sessions_created.max(1) as f64,
                ),
                ("sim.twin.peak_shard_slots", report.peak_shard_slots as f64),
            ]);
        }
        // Budget, all of it measured in the traced slices' windows: the
        // load-generator thread's CPU span by span (the twin's is its
        // self CPU: negotiate and submit are its children), and the
        // server threads' on-CPU time. Twin worker threads come and go
        // inside a window, so what they burn is in the unattributed
        // rest. `core.verify.verify_poc_us` says how much of the
        // server's row a bare verification would take.
        let tr = &self.cx.tr;
        let per_cycle = |us: f64| us / self.traced_ops;
        let rows = [
            ("negotiate", per_cycle(tr.cpu_us("core.protocol.negotiate"))),
            ("twin", per_cycle(tr.self_cpu_us("sim.twin.run_twin"))),
            ("submit", per_cycle(tr.cpu_us("core.verify.remote.submit"))),
            (
                "collect",
                per_cycle(tr.cpu_us("core.verify.remote.collect_results")),
            ),
            ("server", self.get("proc.other_threads_cpu_us_per_op")),
        ];
        self.close_budget(&rows);
        Ok(())
    }

    /// `verify_*`: the onion — `verify_batch` ⊂ in-process service ⊂
    /// TCP — and, for the two throughput workloads, the sibling's CPU
    /// for the per-frame cost.
    fn verify(&mut self, inputs: &Inputs) -> Result<(), String> {
        let budget = self.probe_budget;
        probe_poc_layers(&mut self.cx.tr, inputs, budget * 0.4, &mut self.m)?;
        let (svc_rate, svc_cpu) = service_drive(&mut self.cx.tr, inputs, budget * 0.25)?;
        let svc_self = (svc_cpu - self.get("core.verify.batch32_us_per_poc")).max(0.0);
        self.m.extend([
            ("core.verify.service.pocs_per_s", svc_rate),
            ("core.verify.service.cpu_us_per_poc", svc_cpu),
            ("core.verify.service.self_cpu_us_per_poc", svc_self),
        ]);
        let w = self.spec.workload;
        if w == Workload::VerifySingle {
            self.m.push((
                "core.verify.remote.verdict_ms_p99",
                stats::percentile(&self.cx.all_lat_us, 0.99) / 1e3,
            ));
            return Ok(());
        }
        // The sibling workload, untraced: same pool, same crypto, 64x
        // (or 1/64) the frames.
        let sibling = if w == Workload::VerifyFlood {
            Workload::VerifyFrames
        } else {
            Workload::VerifyFlood
        };
        let mut side = Ctx::new(false);
        let side_slices = measure(
            RunSpec {
                workload: sibling,
                ..self.spec
            },
            Some(inputs),
            budget * 0.35,
            MIN_TRACED_SLICES,
            &mut side,
            |_, _| {},
        )?;
        self.cx.failed += side.failed;
        self.cx.attempted += side.attempted;
        self.cx.failures.append(&mut side.failures);
        let side_cpu_us = cpu_us_per_op(&side_slices);
        let (flood_us, frames_us) = if w == Workload::VerifyFlood {
            (self.total_cpu_us, side_cpu_us)
        } else {
            (side_cpu_us, self.total_cpu_us)
        };
        self.m.extend([
            (
                "core.verify.remote.self_cpu_us_per_poc",
                (flood_us - svc_cpu).max(0.0),
            ),
            ("core.verify.remote.frame_cpu_us", frames_us - flood_us),
        ]);
        if w == Workload::VerifyFlood {
            // Budget: the load generator's thread clock against the
            // server threads' on-CPU time, both over the traced
            // slices' windows. The probes above split the server's
            // row: batched signatures, hashing, the verifier's own
            // checks, the service's queues and hand-offs, and — by
            // difference from this row — the ingress loop.
            let rows = [
                ("client", self.get("proc.own_thread_cpu_us_per_op")),
                ("server", self.get("proc.other_threads_cpu_us_per_op")),
            ];
            self.close_budget(&rows);
        }
        Ok(())
    }

    /// `settle_rpc`: the split on its own (expected negligible) and the
    /// RPC's tail. (Its user/system and client/server CPU are the
    /// `proc.*` rows; there is no other layer to take them from.)
    fn settle(&mut self) {
        let agreement = RoamingAgreement::paper_default();
        let split_us = probe(
            &mut self.cx.tr,
            "core.roaming.split_volume",
            self.probe_budget * 0.1,
            64,
            || {
                for i in 0..64u64 {
                    let serving = if i.is_multiple_of(2) {
                        Serving::Home
                    } else {
                        Serving::Visited
                    };
                    black_box(agreement.split_volume(black_box(1_000_000 + i), serving));
                }
            },
        );
        self.m.extend([
            ("core.roaming.split_volume_ns", split_us * 1e3),
            (
                "core.verify.remote.settle_rtt_us_p99",
                stats::percentile(&self.cx.all_lat_us, 0.99),
            ),
        ]);
    }

    /// `twin_churn`: `TwinReport` rates, and the ROADMAP's unexplained
    /// drop from the 10k to the 1M tier — relative to this workload's
    /// own tier, 1/25 and 4x the population, the small tier as a
    /// median of three. The big tier is one run of about four slices'
    /// length and four times their memory: it runs only if the probe
    /// budget covers that, and its two metrics read 0 otherwise.
    fn twin(&mut self) -> Result<(), String> {
        let RunSpec { seed, scale, .. } = self.spec;
        let events_per_s =
            |(report, wall_s): (TwinReport, f64)| report.events_fired as f64 / wall_s;
        let small: Vec<f64> = (0..3)
            .map(|_| events_per_s(run_tier(scale.twin_sessions / 25, seed)))
            .collect();
        let big_needs_s = 4.0 * slice_median(&self.plain, |s| s.wall_s);
        let big_rate = if big_needs_s <= self.probe_budget {
            let span = self.cx.tr.enter("sim.twin.run_twin_1m", 0);
            let rate = events_per_s(run_tier(scale.twin_sessions * 4, seed));
            self.cx.tr.exit(span);
            self.labels.push(("twin_1m_tier", "measured".to_string()));
            Some(rate)
        } else {
            let why = format!(
                "skipped: needs about {big_needs_s:.1} s, the probe budget is {:.1} s",
                self.probe_budget
            );
            self.labels.push(("twin_1m_tier", why));
            None
        };
        let small_rate = stats::median(&small);
        let (report, wall_s) = self
            .cx
            .counters
            .twin
            .as_ref()
            .ok_or("twin workload left no report")?;
        self.m.extend([
            (
                "sim.twin.ns_per_event",
                1e9 / slice_median(&self.plain, rate),
            ),
            (
                "sim.twin.events_per_session",
                report.events_fired as f64 / report.sessions_created.max(1) as f64,
            ),
            (
                "sim.twin.cycles_per_s",
                report.cycles_settled as f64 / wall_s,
            ),
            (
                "sim.twin.sessions_per_s",
                report.sessions_created as f64 / wall_s,
            ),
            ("sim.twin.peak_shard_slots", report.peak_shard_slots as f64),
            ("sim.twin.events_per_s_10k", small_rate),
        ]);
        if let Some(big_rate) = big_rate {
            self.m.extend([
                ("sim.twin.events_per_s_1m", big_rate),
                ("sim.twin.scale_drop", small_rate / big_rate),
            ]);
        }
        Ok(())
    }
}

/// The traced run of one workload: every per-layer metric, and the
/// spans for `main` to write to `ledger/out`.
pub fn traced(spec: RunSpec) -> Result<Outcome, String> {
    let RunSpec {
        workload: w,
        seed,
        seconds,
        scale,
    } = spec;
    let inputs = set_up(spec)?;
    let inputs = inputs.as_ref();
    let mut labels = host_labels(scale, inputs);
    labels.push(("pinned_cpu", pin_if_needed(w)?));

    // The workload, untraced and traced slices alternating.
    let mut cx = Ctx::new(true);
    let slices = measure(
        spec,
        inputs,
        seconds * WORKLOAD_SHARE,
        MIN_TRACED_SLICES,
        &mut cx,
        |cx, k| cx.tr.set_on(k % 2 == 1),
    )?;
    cx.tr.set_on(true);
    let pick = |odd: bool| -> Vec<SliceStat> {
        let picked = slices
            .iter()
            .enumerate()
            .filter(|(k, _)| (k % 2 == 1) == odd);
        picked.map(|(_, s)| *s).collect()
    };
    let ops = |slices: &[SliceStat]| slices.iter().map(|s| s.ops).sum::<u64>().max(1) as f64;
    let mut layers = Layers {
        spec,
        cx,
        plain: pick(false),
        traced: pick(true),
        all_ops: ops(&slices),
        traced_ops: ops(&pick(true)),
        total_cpu_us: cpu_us_per_op(&slices),
        traced_cpu_us: cpu_us_per_op(&pick(true)),
        probe_budget: seconds * (1.0 - WORKLOAD_SHARE),
        m: Vec::new(),
        labels,
    };

    // Only the layers this workload runs; the rest stay 0.
    layers.process_and_harness();
    match (w, inputs) {
        (Workload::TwinChurn, _) => layers.twin()?,
        (_, None) => return Err("a PoC-path workload was set up without inputs".to_string()),
        (_, Some(inputs)) => {
            layers.report_counters(inputs);
            match w {
                Workload::CycleE2e => layers.cycle(inputs)?,
                Workload::SettleRpc => layers.settle(),
                _ => layers.verify(inputs)?,
            }
        }
    }

    let Layers {
        cx,
        plain,
        traced,
        m,
        mut labels,
        ..
    } = layers;
    labels.push(("spans", cx.tr.spans().len().to_string()));
    labels.push((
        "slices",
        format!("{} untraced + {} traced", plain.len(), traced.len()),
    ));

    Ok(Outcome {
        workload: w,
        seed,
        correct: cx.failed == 0,
        attempted: cx.attempted,
        failed: cx.failed,
        metrics: in_catalogue_order(PER_LAYER, &m, false)?,
        labels,
        failures: cx.failures,
        spans_json: Some(cx.tr.to_json()),
    })
}
