//! The six workloads. Each is a [`Driver`] that runs equal *slices* of
//! fixed op count; `--seconds` decides how many slices run. A slice is
//! cut into [`Stretch`]es, and the reported values are the best
//! twentieth of the run's stretches. Every output of the program is
//! checked; a wrong one is a failed operation.
//!
//! The same code serves the untraced end-to-end runs and the traced
//! run: with the [`Tracer`] off, span calls are one branch each.

use std::collections::HashMap;
use std::time::Instant;

use tlc_core::roaming::{RoamingAgreement, Serving, SettlementSplit};
use tlc_core::verify::service::SubmissionResult;
use tlc_core::verify::VerifyError;
use tlc_sim::experiments::twin::tier_config;
use tlc_sim::twin::{run_twin, NullSink, Settled, SettlementSink, TwinConfig, TwinReport};

use crate::catalog::Workload;
use crate::inputs::{negotiate, Closed, Inputs, Scale, Session, WireCounts, FRAME};
use crate::span::Tracer;
use crate::stats;
use crate::sys::{self, ProcSnap};

/// One timed slice.
#[derive(Clone, Copy, Debug)]
pub struct SliceStat {
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// 90th percentile of the timed unit's latency within this slice.
    pub p90_us: f64,
}

/// A run of consecutive operations inside a slice's timed window: what
/// the end-to-end estimators rank. The host slows the whole guest by a
/// third or a half for milliseconds to tens of seconds at a time
/// (README, "Why stretches"), so a stretch is kept to tens of
/// milliseconds where the workload allows: then a run that met any
/// quiet spell holds stretches that ran undisturbed from end to end.
#[derive(Clone, Copy, Debug)]
pub struct Stretch {
    pub ops: u64,
    pub wall_s: f64,
    /// Median timed-unit latency within the stretch.
    pub p50_us: f64,
}

/// Counters the program's public reports expose, summed over every
/// server lifetime (or twin run) of a workload.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub service_accepted: u64,
    pub service_rejected: u64,
    pub service_batches: u64,
    pub service_deadline_flushes: u64,
    pub ingress_pauses: u64,
    pub shed_overload: u64,
    pub orphaned_verdicts: u64,
    pub protocol_errors: u64,
    pub pool_checkouts: u64,
    pub pool_recycles: u64,
    pub pool_exhausted: u64,
    pub client_retries: u64,
    pub client_shed_notices: u64,
    pub wire: WireCounts,
    pub bringup_ms: Vec<f64>,
    /// `core::protocol` counters over every negotiation the workload
    /// ran inside a timed window.
    pub negotiations: u64,
    pub protocol_msgs: u64,
    pub protocol_rounds: u64,
    pub sigs_made: u64,
    pub sigs_checked: u64,
    /// The last twin run's report and the wall seconds it took.
    pub twin: Option<(TwinReport, f64)>,
}

impl Counters {
    fn absorb(&mut self, c: &Closed) {
        let svc = &c.report.service;
        self.service_accepted += svc.accepted;
        self.service_rejected += svc.rejected;
        self.service_batches += svc.batches;
        self.service_deadline_flushes += svc.shards.iter().map(|s| s.deadline_flushes).sum::<u64>();
        let ing = &c.report.ingress;
        self.ingress_pauses += ing.pauses;
        self.shed_overload += ing.shed_overload;
        self.orphaned_verdicts += ing.orphaned_verdicts;
        self.protocol_errors += ing.protocol_errors;
        self.pool_checkouts += c.report.pool.checkouts;
        self.pool_recycles += c.report.pool.recycles;
        self.pool_exhausted += c.report.pool.exhausted;
        self.client_retries += c.client_retries;
        self.client_shed_notices += c.client_shed_notices;
        self.wire.tx_bytes += c.wire.tx_bytes;
        self.wire.rx_bytes += c.wire.rx_bytes;
        self.wire.writes += c.wire.writes;
        self.wire.reads += c.wire.reads;
        self.bringup_ms.push(c.bringup_s * 1e3);
    }
}

/// State shared by a workload's slices: the tracer, the counters, and
/// the tally of attempted and failed operations.
pub struct Ctx {
    pub tr: Tracer,
    pub counters: Counters,
    /// `/proc` deltas summed over timed windows (traced runs only; the
    /// reads cost more than the ops of the fastest workloads).
    pub proc: ProcSnap,
    /// Every latency sample of the run, for the p99 diagnostics
    /// (traced runs only).
    pub all_lat_us: Vec<f64>,
    /// Every stretch of every slice so far.
    pub stretches: Vec<Stretch>,
    /// Timed-unit latencies of the slice in progress.
    lat_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    next_op: u64,
}

/// A timed window in progress.
pub struct Window {
    t: Instant,
    cpu_s: f64,
    snap: Option<ProcSnap>,
    /// Operations per stretch; 0 makes the whole window one stretch.
    stretch_ops: usize,
    /// Wall seconds of each stretch completed so far, and when the
    /// one in progress began.
    stretch_walls: Vec<f64>,
    stretch_t: Instant,
}

impl Ctx {
    pub fn new(trace: bool) -> Ctx {
        Ctx {
            tr: Tracer::new(trace),
            counters: Counters::default(),
            proc: ProcSnap::default(),
            all_lat_us: Vec::new(),
            stretches: Vec::new(),
            lat_us: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            next_op: 0,
        }
    }

    /// A fresh operation id for the spans of one op.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.fail_n(1, what);
    }

    /// Counts `n` failed operations under one message.
    fn fail_n(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Opens a slice's timed window, to be cut into stretches of
    /// `stretch_ops` operations (0: the whole window is one stretch).
    fn begin(&mut self, stretch_ops: usize) -> Result<Window, String> {
        let snap = self.tr.is_on().then(ProcSnap::take).transpose()?;
        self.lat_us.clear();
        let t = Instant::now();
        Ok(Window {
            cpu_s: sys::process_cpu_secs(),
            t,
            snap,
            stretch_ops,
            stretch_walls: Vec::new(),
            stretch_t: t,
        })
    }

    /// Records one timed unit, and closes the stretch it completes:
    /// call it once per operation, after the operation, in windows
    /// that are cut into stretches.
    fn timed(&mut self, w: &mut Window, lat_us: f64) {
        self.lat_us.push(lat_us);
        if w.stretch_ops > 0 && self.lat_us.len().is_multiple_of(w.stretch_ops) {
            let now = Instant::now();
            w.stretch_walls.push((now - w.stretch_t).as_secs_f64());
            w.stretch_t = now;
        }
    }

    /// Closes a window over `ops` operations. Operations after the
    /// last whole stretch belong to none; a window that completed no
    /// stretch is one.
    fn end(&mut self, w: Window, ops: u64) -> Result<SliceStat, String> {
        let wall_s = w.t.elapsed().as_secs_f64();
        let cpu_s = sys::process_cpu_secs() - w.cpu_s;
        if let Some(from) = w.snap {
            self.proc.add_delta(&from, &ProcSnap::take()?);
            self.all_lat_us.extend_from_slice(&self.lat_us);
        }
        let [p50_us, p90_us] = stats::percentiles(&self.lat_us, [0.5, 0.9]);
        if w.stretch_walls.is_empty() {
            self.stretches.push(Stretch {
                ops,
                wall_s,
                p50_us,
            });
        }
        let units = self.lat_us.chunks(w.stretch_ops.max(1));
        for (&wall_s, unit_lat_us) in w.stretch_walls.iter().zip(units) {
            self.stretches.push(Stretch {
                ops: w.stretch_ops as u64,
                wall_s,
                p50_us: stats::median(unit_lat_us),
            });
        }
        self.attempted += ops;
        Ok(SliceStat {
            ops,
            wall_s,
            cpu_s,
            p90_us,
        })
    }
}

/// One workload's slice loop.
pub trait Driver {
    /// Runs one slice and returns its timing.
    fn slice(&mut self, cx: &mut Ctx) -> Result<SliceStat, String>;
    /// Tears down whatever is still up and runs the end-of-run checks.
    fn finish(self: Box<Self>, _cx: &mut Ctx) -> Result<(), String> {
        Ok(())
    }
}

pub fn driver<'a>(
    w: Workload,
    inputs: Option<&'a Inputs>,
    scale: Scale,
    seed: u64,
) -> Result<Box<dyn Driver + 'a>, String> {
    let inputs = || inputs.ok_or("a PoC-path workload needs generated inputs");
    Ok(match w {
        Workload::CycleE2e => Box::new(CycleE2e::new(inputs()?, scale, seed)),
        Workload::VerifyFlood | Workload::VerifyFrames => Box::new(VerifyEpochs {
            inputs: inputs()?,
            batched: w == Workload::VerifyFlood,
        }),
        Workload::VerifySingle => Box::new(VerifySingle {
            inputs: inputs()?,
            slice_ops: scale.single_slice_ops,
            session: None,
            cursor: 0,
        }),
        Workload::SettleRpc => Box::new(SettleRpc {
            inputs: inputs()?,
            slice_ops: scale.settle_slice_ops,
            seed,
            session: None,
            sent: 0,
        }),
        Workload::TwinChurn => Box::new(TwinChurn {
            cfg: tier_config(scale.twin_sessions, seed),
            sessions: scale.twin_sessions as u64,
            digest: None,
        }),
    })
}

/// Checks one batch of verdicts against the charges the harness
/// expects for their tags; returns how many were accepted correctly.
fn check_verdicts(cx: &mut Ctx, results: &[SubmissionResult], expected: &HashMap<u64, u64>) -> u64 {
    let mut good = 0;
    for r in results {
        match (&r.result, expected.get(&r.tag)) {
            (Ok(v), Some(&charge)) if v.charge == charge => good += 1,
            (other, want) => {
                cx.fail(|| format!("tag {}: verdict {other:?}, expected charge {want:?}", r.tag))
            }
        }
    }
    let (got, want) = (results.len(), expected.len());
    if got != want {
        cx.fail_n(got.abs_diff(want) as u64, || {
            format!("{got} verdicts for {want} submissions")
        });
    }
    good
}

// ── cycle_e2e ──────────────────────────────────────────────────────────

/// `cycle_e2e` cycles per stretch: about 45 ms.
const CYCLE_STRETCH_OPS: usize = 64;

/// Twin-sampled cycles through the real negotiation and the TCP
/// verifier: one slice is one run of the (small) twin.
struct CycleE2e<'a> {
    inputs: &'a Inputs,
    cfg: TwinConfig,
    session: Option<Session>,
    /// Nonce counter across slices: every slice replays the same twin,
    /// so only the nonces keep its PoCs out of the replay window.
    nonce: u64,
    digest: Option<u64>,
}

impl<'a> CycleE2e<'a> {
    fn new(inputs: &'a Inputs, scale: Scale, seed: u64) -> Self {
        let mut cfg = TwinConfig::smoke(seed);
        cfg.sample_rate = scale.cycle_sample_rate;
        CycleE2e {
            inputs,
            cfg,
            session: None,
            nonce: 0,
            digest: None,
        }
    }
}

/// Runs each sampled settlement through negotiation and `submit`.
struct CycleSink<'s> {
    inputs: &'s Inputs,
    session: &'s mut Session,
    cx: &'s mut Ctx,
    window: &'s mut Window,
    nonce: &'s mut u64,
    expected: HashMap<u64, u64>,
    error: Option<String>,
}

impl SettlementSink for CycleSink<'_> {
    fn settle(&mut self, s: &Settled) {
        if !s.sampled || self.error.is_some() {
            return;
        }
        *self.nonce += 1;
        let n = *self.nonce;
        let r = (n as usize) % self.inputs.rels.len();
        let m = s.settlement.measured;
        let op = self.cx.op_id();

        let span = self.cx.tr.enter("core.protocol.negotiate", op);
        let t = Instant::now();
        let done = negotiate(
            &self.inputs.rels[r],
            self.inputs.plan,
            m.edge,
            m.operator,
            n,
        );
        let negotiate_us = t.elapsed().as_secs_f64() * 1e6;
        self.cx.tr.exit(span);
        let done = match done {
            Ok(d) => d,
            Err(e) => {
                self.error = Some(e);
                return;
            }
        };
        let c = &mut self.cx.counters;
        c.negotiations += 1;
        c.protocol_msgs += u64::from(done.msgs);
        c.protocol_rounds += done.poc.cda.seq;
        c.sigs_made += done.edge.signatures_made + done.op.signatures_made;
        c.sigs_checked += done.edge.signatures_checked + done.op.signatures_checked;
        if done.poc.charge != s.settlement.tlc_charge {
            self.cx.fail(|| {
                format!(
                    "negotiated charge {} != twin's analytic TLC charge {}",
                    done.poc.charge, s.settlement.tlc_charge
                )
            });
        }

        let span = self.cx.tr.enter("core.verify.remote.submit", op);
        let tag = self.session.client.submit(self.session.rels[r], &done.poc);
        self.cx.tr.exit(span);
        match tag {
            Ok(tag) => {
                self.expected.insert(tag, done.poc.charge);
            }
            Err(e) => self.error = Some(format!("submit: {e}")),
        }
        // The cycle is done here, so a stretch runs from one cycle's
        // end to another's and holds the twin's work in between.
        self.cx.timed(self.window, negotiate_us);
    }
}

impl Driver for CycleE2e<'_> {
    fn slice(&mut self, cx: &mut Ctx) -> Result<SliceStat, String> {
        let session = Session::opened(&mut self.session, self.inputs)?;
        let mut w = cx.begin(CYCLE_STRETCH_OPS)?;
        let slice_op = cx.op_id();
        let twin_span = cx.tr.enter("sim.twin.run_twin", slice_op);
        let mut sink = CycleSink {
            inputs: self.inputs,
            session,
            cx,
            window: &mut w,
            nonce: &mut self.nonce,
            expected: HashMap::new(),
            error: None,
        };
        let report = run_twin(&self.cfg, &mut sink);
        let CycleSink {
            expected, error, ..
        } = sink;
        cx.tr.exit(twin_span);
        if let Some(e) = error {
            return Err(e);
        }
        let span = cx.tr.enter("core.verify.remote.collect_results", slice_op);
        let results = session.client.collect_results();
        cx.tr.exit(span);
        let results = results.map_err(|e| format!("collect: {e}"))?;
        let stat = cx.end(w, expected.len() as u64)?;

        check_verdicts(cx, &results, &expected);
        if report.cycles_sampled != expected.len() as u64 {
            cx.fail(|| {
                format!(
                    "twin sampled {} cycles, sink saw {}",
                    report.cycles_sampled,
                    expected.len()
                )
            });
        }
        if report.stale_events != 0 {
            cx.fail(|| format!("{} stale twin events", report.stale_events));
        }
        if *self.digest.get_or_insert(report.digest) != report.digest {
            cx.fail(|| "twin digest changed between identical runs".to_string());
        }
        cx.counters.twin = Some((report, stat.wall_s));
        Ok(stat)
    }

    fn finish(self: Box<Self>, cx: &mut Ctx) -> Result<(), String> {
        let Some(session) = self.session else {
            return Ok(());
        };
        let closed = session.close()?;
        let (seen, made) = (closed.report.ingress.submissions, cx.attempted);
        if seen != made {
            cx.fail(|| format!("ingress saw {seen} submissions, harness made {made}"));
        }
        cx.counters.absorb(&closed);
        Ok(())
    }
}

// ── verify_flood / verify_frames ───────────────────────────────────────

/// The pre-signed pool against a fresh server per slice (the replay
/// window forbids resubmitting a PoC within a server's lifetime).
/// Timed: first submit to last verdict.
struct VerifyEpochs<'a> {
    inputs: &'a Inputs,
    /// `submit_batch` frames of [`FRAME`] rotating over relationships
    /// (`verify_flood`), or one `submit` per PoC in relationship runs
    /// (`verify_frames`).
    batched: bool,
}

impl Driver for VerifyEpochs<'_> {
    fn slice(&mut self, cx: &mut Ctx) -> Result<SliceStat, String> {
        let inputs = self.inputs;
        let mut session = Session::open(inputs)?;
        let mut expected = HashMap::with_capacity(inputs.pool_len());
        let op = cx.op_id();

        // One epoch is one stretch (85 to 110 ms).
        let mut w = cx.begin(0)?;
        if self.batched {
            let chunks = inputs.pool[0].len().div_ceil(FRAME);
            for chunk in 0..chunks {
                for (r, pocs) in inputs.pool.iter().enumerate() {
                    let frame = &pocs[chunk * FRAME..pocs.len().min((chunk + 1) * FRAME)];
                    let span = cx.tr.enter("core.verify.remote.submit_batch", op);
                    let t = Instant::now();
                    let sent = session.client.submit_batch(session.rels[r], frame.iter());
                    cx.timed(&mut w, t.elapsed().as_secs_f64() * 1e6);
                    cx.tr.exit(span);
                    let (first, n) = sent.map_err(|e| format!("submit_batch: {e}"))?;
                    if n != frame.len() {
                        return Err(format!("submit_batch sent {n} of {}", frame.len()));
                    }
                    for (k, p) in frame.iter().enumerate() {
                        expected.insert(first + k as u64, p.charge);
                    }
                }
            }
        } else {
            for (r, pocs) in inputs.pool.iter().enumerate() {
                for run in pocs.chunks(FRAME) {
                    let span = cx.tr.enter("core.verify.remote.submit_run", op);
                    let t = Instant::now();
                    for p in run {
                        let tag = session
                            .client
                            .submit(session.rels[r], p)
                            .map_err(|e| format!("submit: {e}"))?;
                        expected.insert(tag, p.charge);
                    }
                    cx.timed(&mut w, t.elapsed().as_secs_f64() * 1e6);
                    cx.tr.exit(span);
                }
            }
        }
        let span = cx.tr.enter("core.verify.remote.collect_results", op);
        let results = session.client.collect_results();
        cx.tr.exit(span);
        let results = results.map_err(|e| format!("collect: {e}"))?;
        let stat = cx.end(w, expected.len() as u64)?;

        let good = check_verdicts(cx, &results, &expected);
        let canaries = send_canaries(cx, inputs, &mut session)?;
        let closed = session.close()?;
        let svc = &closed.report.service;
        if svc.accepted != good || svc.rejected != canaries || svc.replayed != 1 {
            cx.fail(|| {
                format!(
                    "service counted {} accepted / {} rejected / {} replayed; harness saw {good} / {canaries} / 1",
                    svc.accepted, svc.rejected, svc.replayed
                )
            });
        }
        cx.counters.absorb(&closed);
        Ok(stat)
    }
}

/// Negative controls, outside the timed window: a tampered signature
/// and a replay must each come back as the exact typed error. Two
/// rejections stay far below the quarantine threshold. Returns how
/// many rejections the server should have counted.
fn send_canaries(cx: &mut Ctx, inputs: &Inputs, session: &mut Session) -> Result<u64, String> {
    let can = &inputs.canaries;
    let replayed = &inputs.pool[0][0];
    let mut sent = Vec::new();
    for (poc, want) in [
        (&can.tampered, &can.tampered_error),
        (replayed, &VerifyError::Replayed),
    ] {
        let tag = session
            .client
            .submit(session.rels[0], poc)
            .map_err(|e| format!("canary submit: {e}"))?;
        sent.push((tag, want));
    }
    let results = session
        .client
        .collect_results()
        .map_err(|e| format!("canary collect: {e}"))?;
    for (tag, want) in &sent {
        let got = results.iter().find(|r| r.tag == *tag).map(|r| &r.result);
        if got.and_then(|g| g.as_ref().err()) != Some(*want) {
            cx.fail(|| format!("canary tag {tag}: got {got:?}, want Err({want:?})"));
        }
    }
    cx.attempted += sent.len() as u64;
    Ok(sent.len() as u64)
}

// ── verify_single ──────────────────────────────────────────────────────

/// Depth 1: `submit`, then block in `collect_results` for that one
/// verdict. One server lifetime spans a whole pass over the pool.
struct VerifySingle<'a> {
    inputs: &'a Inputs,
    slice_ops: usize,
    session: Option<Session>,
    /// Position in the pool pass, rotating over relationships.
    cursor: usize,
}

impl VerifySingle<'_> {
    fn close(&mut self, cx: &mut Ctx) -> Result<(), String> {
        if let Some(mut session) = self.session.take() {
            send_canaries(cx, self.inputs, &mut session)?;
            cx.counters.absorb(&session.close()?);
        }
        Ok(())
    }
}

impl Driver for VerifySingle<'_> {
    fn slice(&mut self, cx: &mut Ctx) -> Result<SliceStat, String> {
        let inputs = self.inputs;
        let nrels = inputs.pool.len();
        if self.cursor + self.slice_ops > inputs.pool_len() {
            self.close(cx)?;
            self.cursor = 0;
        }
        let session = Session::opened(&mut self.session, inputs)?;
        let mut bad = Vec::new();

        // The flush deadline, a timer, is nine tenths of the latency,
        // so the host's speed hardly shows: one slice, one stretch.
        let mut w = cx.begin(0)?;
        for i in self.cursor..self.cursor + self.slice_ops {
            let (r, k) = (i % nrels, i / nrels);
            let poc = &inputs.pool[r][k];
            let op = cx.op_id();
            let span = cx.tr.enter("core.verify.remote.verdict", op);
            let t = Instant::now();
            let tag = session.client.submit(session.rels[r], poc);
            let results = session.client.collect_results();
            cx.timed(&mut w, t.elapsed().as_secs_f64() * 1e6);
            cx.tr.exit(span);
            let tag = tag.map_err(|e| format!("submit: {e}"))?;
            let results = results.map_err(|e| format!("collect: {e}"))?;
            match results.as_slice() {
                [one]
                    if one.tag == tag
                        && one.result.as_ref().is_ok_and(|v| v.charge == poc.charge) => {}
                other => bad.push(format!("pool[{r}][{k}]: verdicts {other:?}")),
            }
        }
        let stat = cx.end(w, self.slice_ops as u64)?;
        self.cursor += self.slice_ops;
        for b in bad {
            cx.fail(|| b);
        }
        Ok(stat)
    }

    fn finish(mut self: Box<Self>, cx: &mut Ctx) -> Result<(), String> {
        self.close(cx)
    }
}

// ── settle_rpc ─────────────────────────────────────────────────────────

/// One in this many settlements is deliberately non-conserving and
/// must come back `SplitMismatch`.
const SETTLE_BAD_EVERY: u64 = 64;

/// `settle_rpc` calls per stretch: about 6 ms.
const SETTLE_STRETCH_OPS: usize = 1_000;

/// Depth-1 `RemoteVerifier::settle` with splits from the paper-default
/// roaming agreement, serving side alternating.
struct SettleRpc<'a> {
    inputs: &'a Inputs,
    slice_ops: usize,
    seed: u64,
    session: Option<Session>,
    sent: u64,
}

/// `(serving, charged, split)` for the `i`-th settlement, and whether
/// it conserves.
fn settlement(
    agreement: &RoamingAgreement,
    seed: u64,
    i: u64,
) -> (Serving, u64, SettlementSplit, bool) {
    let serving = if i.is_multiple_of(2) {
        Serving::Home
    } else {
        Serving::Visited
    };
    let charged = 1_000_000 + ((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 4_000_000;
    let mut split = agreement.split_volume(charged, serving);
    let conserving = i % SETTLE_BAD_EVERY != SETTLE_BAD_EVERY - 1;
    if !conserving {
        split.vendor += 1;
    }
    (serving, charged, split, conserving)
}

impl Driver for SettleRpc<'_> {
    fn slice(&mut self, cx: &mut Ctx) -> Result<SliceStat, String> {
        let agreement = RoamingAgreement::paper_default();
        let seed = self.seed;
        let session = Session::opened(&mut self.session, self.inputs)?;
        // The verdict type lives in the wire codec, which the ledger
        // must not name: fetch one reference verdict of each kind
        // (checked by their `Debug` names) and compare by equality.
        let mut reference = |i: u64, name: &str| {
            let (serving, charged, split, _) = settlement(&agreement, seed, i);
            let v = session
                .client
                .settle(session.rels[0], serving, charged, split)
                .map_err(|e| format!("settle: {e}"))?;
            if format!("{v:?}") != name {
                return Err(format!(
                    "reference settlement {i} judged {v:?}, want {name}"
                ));
            }
            Ok(v)
        };
        let conserved = reference(0, "Conserved")?;
        let mismatch = reference(SETTLE_BAD_EVERY - 1, "SplitMismatch")?;

        let nrels = session.rels.len() as u64;
        let tracing = cx.tr.is_on();
        let mut wrong = 0u64;

        let mut w = cx.begin(SETTLE_STRETCH_OPS)?;
        for i in self.sent..self.sent + self.slice_ops as u64 {
            // A span around every 6 µs RPC would be a large part of
            // its cost, so the traced run spans one op in 64.
            let span = if tracing && i % 64 == 0 {
                cx.tr.enter("core.verify.remote.settle", i)
            } else {
                None
            };
            let (serving, charged, split, conserving) = settlement(&agreement, seed, i);
            let rel = session.rels[(i % nrels) as usize];
            let t = Instant::now();
            let v = session.client.settle(rel, serving, charged, split);
            let rtt_us = t.elapsed().as_secs_f64() * 1e6;
            cx.tr.exit(span);
            let v = v.map_err(|e| format!("settle: {e}"))?;
            wrong += u64::from(v != if conserving { conserved } else { mismatch });
            cx.timed(&mut w, rtt_us);
        }
        let stat = cx.end(w, self.slice_ops as u64)?;
        self.sent += self.slice_ops as u64;
        if wrong > 0 {
            cx.fail_n(wrong, || format!("{wrong} settlements judged wrongly"));
        }
        Ok(stat)
    }

    fn finish(self: Box<Self>, cx: &mut Ctx) -> Result<(), String> {
        if let Some(session) = self.session {
            cx.counters.absorb(&session.close()?);
        }
        Ok(())
    }
}

// ── twin_churn ─────────────────────────────────────────────────────────

/// The population-tier twin against a `NullSink`: one slice is one run.
struct TwinChurn {
    cfg: TwinConfig,
    sessions: u64,
    digest: Option<u64>,
}

/// One twin run at `sessions` against a `NullSink`, outside any slice:
/// set-up's warm-up (the first run of a process is up to 30 % slower;
/// README) and the traced run's other tiers. Returns the report and
/// the wall seconds the run took.
pub fn run_tier(sessions: usize, seed: u64) -> (TwinReport, f64) {
    let cfg = tier_config(sessions, seed);
    let t = Instant::now();
    let report = run_twin(&cfg, &mut NullSink);
    (report, t.elapsed().as_secs_f64())
}

impl Driver for TwinChurn {
    fn slice(&mut self, cx: &mut Ctx) -> Result<SliceStat, String> {
        // The twin is one call: nothing shorter to cut it into.
        let mut w = cx.begin(0)?;
        let op = cx.op_id();
        let span = cx.tr.enter("sim.twin.run_twin", op);
        let t = Instant::now();
        let report = run_twin(&self.cfg, &mut NullSink);
        cx.timed(&mut w, t.elapsed().as_secs_f64() * 1e6);
        cx.tr.exit(span);
        let stat = cx.end(w, report.events_fired)?;

        if report.stale_events != 0 {
            cx.fail(|| format!("{} stale twin events", report.stale_events));
        }
        if report.peak_concurrent < self.sessions {
            cx.fail(|| {
                format!(
                    "peak concurrency {} never reached the {} tier",
                    report.peak_concurrent, self.sessions
                )
            });
        }
        if *self.digest.get_or_insert(report.digest) != report.digest {
            cx.fail(|| "twin digest changed between identical runs".to_string());
        }
        cx.counters.twin = Some((report, stat.wall_s));
        Ok(stat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One window of `lats` timed units cut every `stretch_ops`.
    fn stretches_of(stretch_ops: usize, lats: &[f64]) -> Vec<Stretch> {
        let mut cx = Ctx::new(false);
        let mut w = cx.begin(stretch_ops).expect("window opens");
        for &l in lats {
            cx.timed(&mut w, l);
        }
        let stat = cx.end(w, lats.len() as u64).expect("window closes");
        assert_eq!(stat.ops, lats.len() as u64);
        assert_eq!(cx.attempted, lats.len() as u64);
        cx.stretches
    }

    #[test]
    fn a_window_is_cut_into_whole_stretches() {
        let lats = [1.0, 9.0, 2.0, 30.0, 10.0, 20.0, 7.0];
        let got = stretches_of(3, &lats);
        // Two whole stretches; the seventh operation belongs to none.
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].ops, got[0].p50_us), (3, 2.0));
        assert_eq!((got[1].ops, got[1].p50_us), (3, 20.0));
        assert!(got.iter().all(|s| s.wall_s >= 0.0));
    }

    #[test]
    fn a_window_without_a_whole_stretch_is_one() {
        let lats = [4.0, 2.0, 6.0];
        for stretch_ops in [0, 5] {
            let got = stretches_of(stretch_ops, &lats);
            assert_eq!(got.len(), 1, "stretch_ops {stretch_ops}");
            assert_eq!((got[0].ops, got[0].p50_us), (3, 4.0));
        }
    }

    #[test]
    fn stretches_accumulate_over_windows() {
        let mut cx = Ctx::new(false);
        for _ in 0..3 {
            let mut w = cx.begin(2).expect("window opens");
            for l in [1.0, 3.0, 5.0, 7.0] {
                cx.timed(&mut w, l);
            }
            cx.end(w, 4).expect("window closes");
        }
        assert_eq!(cx.stretches.len(), 6);
        assert_eq!(cx.stretches[5].p50_us, 6.0);
    }
}
