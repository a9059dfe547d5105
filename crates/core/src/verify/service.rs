//! A sharded, pipelined, batch-native PoC verification service (§5.3.4).
//!
//! The paper sizes public verification at 230K PoCs/hour on a single
//! workstation; a deployment (FCC, court, MVNO) verifies proofs for many
//! edge↔operator relationships at once. This module promotes the ad-hoc
//! threading of `examples/verifier_service.rs` into a first-class
//! subsystem:
//!
//! * **relationship-sharded state** — every relationship is pinned to
//!   exactly one shard, so each [`Verifier`] (and in particular its
//!   replay cache) is owned by a single thread and never shared or
//!   locked. Replay detection stays exact because a given relationship's
//!   proofs all land on the same shard;
//! * **a two-stage pipeline per shard** — a *hash* worker decodes and
//!   SHA-256-hashes each chain ([`PocMsg::chain_digests`]) and hands the
//!   prepared proof over a bounded queue to a *signature* worker, so
//!   hashing of proof `i+1` overlaps the RSA work of proof `i`;
//! * **signature batching** — the signature worker accumulates prepared
//!   proofs per relationship and verifies them through the multi-lane
//!   RSA kernel ([`Verifier::verify_batch_prehashed`]). A batch flushes
//!   when it reaches [`ServiceConfig::batch_size`], when the submitter
//!   goes idle ([`VerifierService::kick`], an in-band marker behind its
//!   last submission), or — the backstop — when its oldest entry has
//!   waited [`ServiceConfig::flush_deadline`]. Results for a
//!   relationship are always delivered in submission order, and the
//!   replay-cache semantics are exactly those of sequential
//!   [`Verifier::verify`] calls.
//!
//! Registering the same `(plan, edge key, operator key)` relationship
//! twice yields the same [`RelationshipId`] — the registry deduplicates,
//! which is what makes shard-local replay caches sound (two handles to
//! one relationship cannot end up on different shards with independent
//! caches).

use super::{Verdict, Verifier, VerifyError, DEFAULT_REPLAY_CAPACITY};
use crate::messages::{PocDigests, PocMsg};
use crate::plan::DataPlan;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tlc_crypto::encoding::key_fingerprint;
use tlc_crypto::PublicKey;

/// Opaque handle to a registered relationship. Issued by
/// [`VerifierService::register`]; also determines the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationshipId(u64);

impl RelationshipId {
    /// The shard a relationship is pinned to, given the worker count.
    fn shard(self, workers: usize) -> usize {
        (self.0 % workers as u64) as usize
    }

    /// The raw id, for the network ingress that must name relationships
    /// on the wire. Not part of the public API: only `verify::remote`
    /// serializes ids.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id decoded from the wire. The caller (the ingress
    /// server) is responsible for only reconstructing ids it previously
    /// issued; `submit` re-checks range regardless.
    pub(crate) fn from_raw(raw: u64) -> RelationshipId {
        RelationshipId(raw)
    }
}

/// Shutdown-aware failures surfaced by the service API.
///
/// Every channel operation between the caller and the shard pipelines
/// can observe a torn-down peer (a worker that panicked and dropped its
/// receiver, or a caller races teardown). Those used to be `expect`s;
/// tlc-lint's `no-panic` rule now forbids that in protocol paths, so
/// they are typed instead: a dead shard yields an error the caller can
/// handle (re-register elsewhere, drain, report) rather than a panic in
/// the verification plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The shard's pipeline threads have hung up; submissions to it can
    /// no longer be accepted.
    ShardDown {
        /// Index of the unreachable shard.
        shard: usize,
    },
    /// The result channel closed while submissions were still
    /// outstanding (every shard worker is gone).
    ResultsClosed {
        /// Submissions that will never produce a result.
        outstanding: usize,
    },
    /// The relationship id was never issued by [`VerifierService::register`].
    UnknownRelationship(RelationshipId),
    /// The service (or the ingress admission control fronting it) is
    /// saturated and shed the submission; retry after the carried hint.
    /// The in-process pipeline never sheds — this variant is produced by
    /// the remote path — but it lives here so every caller matches one
    /// error surface.
    Overloaded {
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ShardDown { shard } => {
                write!(f, "verification shard {shard} is down")
            }
            ServiceError::ResultsClosed { outstanding } => write!(
                f,
                "result channel closed with {outstanding} submissions outstanding"
            ),
            ServiceError::UnknownRelationship(rel) => {
                write!(f, "relationship {rel:?} was never registered")
            }
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Tuning knobs for the pipelined service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shard count; each shard runs a hash thread and a signature thread.
    pub workers: usize,
    /// Proofs per relationship accumulated before a signature batch is
    /// verified (the multi-lane kernel saturates around 32).
    pub batch_size: usize,
    /// Starvation backstop: the longest a prepared proof may wait when
    /// neither trigger above it fires — its batch never fills and no
    /// [`kick`](VerifierService::kick) follows it, because input for
    /// *other* relationships keeps the submitter from ever going idle.
    /// A light-load verdict does not wait for this; the idle kick
    /// flushes it.
    pub flush_deadline: Duration,
    /// Capacity of the bounded hash→signature queue per shard; bounds
    /// memory and applies backpressure to the hash stage.
    pub stage_queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            batch_size: 32,
            flush_deadline: Duration::from_millis(2),
            stage_queue_depth: 256,
        }
    }
}

/// Called by a signature worker once per flushed batch, after the
/// batch's results are queued: the hook an event loop uses to learn
/// that [`VerifierService::try_collect_results`] has something for it
/// without polling. Runs on the worker thread, so it must be cheap and
/// must not block.
pub type Notifier = Arc<dyn Fn() + Send + Sync>;

/// Work items sent to a shard's hash worker.
enum Job {
    Register {
        rel: RelationshipId,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    },
    Verify {
        rel: RelationshipId,
        tag: u64,
        poc: PocMsg,
    },
    /// Drain marker: batches holding anything submitted before it are
    /// flushed once the signature stage's queue runs dry.
    Kick,
    Notify(Notifier),
}

/// Items flowing from a shard's hash stage to its signature stage.
// `Prepared` dwarfs `Register`, but it is also ~all of the traffic:
// boxing it would buy nothing on the rare variant and cost one heap
// round trip per verified proof.
#[allow(clippy::large_enum_variant)]
enum StageMsg {
    Register {
        rel: RelationshipId,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    },
    Prepared {
        rel: RelationshipId,
        tag: u64,
        poc: PocMsg,
        digests: PocDigests,
    },
    Kick,
    Notify(Notifier),
}

/// Outcome of one submitted proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionResult {
    /// The relationship the proof was submitted under.
    pub relationship: RelationshipId,
    /// The tag returned by [`VerifierService::submit`] for correlation.
    pub tag: u64,
    /// The shard that processed the proof.
    pub shard: usize,
    /// Verdict or rejection.
    pub result: Result<Verdict, VerifyError>,
}

/// Counters for one shard, reported at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (same as the worker thread index).
    pub shard: usize,
    /// Relationships registered on this shard.
    pub relationships: usize,
    /// Proofs accepted.
    pub accepted: u64,
    /// Proofs rejected for any reason (includes replays).
    pub rejected: u64,
    /// Rejections that were replays specifically.
    pub replayed: u64,
    /// Signature batches verified (including partial flushes).
    pub batches: u64,
    /// Batches flushed because the deadline expired before they filled.
    pub deadline_flushes: u64,
    /// Partial batches flushed because the submitter went idle before
    /// they filled: by a [`kick`](VerifierService::kick), or at
    /// teardown.
    pub idle_flushes: u64,
}

/// Aggregate report returned by [`VerifierService::finish`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Total proofs accepted across shards.
    pub accepted: u64,
    /// Total proofs rejected across shards (includes replays).
    pub rejected: u64,
    /// Total replays rejected across shards.
    pub replayed: u64,
    /// Total signature batches verified across shards.
    pub batches: u64,
    /// Batches flushed by an expired deadline, across shards.
    pub deadline_flushes: u64,
    /// Partial batches flushed by an idle kick, across shards.
    pub idle_flushes: u64,
    /// Drain markers sent by [`VerifierService::kick`] (one per shard
    /// that had taken a submission since its previous marker).
    pub kicks: u64,
    /// Shard worker threads that terminated by panicking instead of
    /// draining cleanly (0 on every healthy run).
    pub worker_panics: usize,
    /// Results that were produced but never collected before shutdown
    /// (e.g. a remote client disconnected mid-batch). Drained at
    /// teardown rather than dropped with the channel.
    pub unclaimed_results: usize,
    /// Wall-clock time from the first submission to shutdown.
    pub elapsed: Duration,
    /// Throughput over `elapsed`, comparable to the paper's 230K/hour.
    pub pocs_per_hour: f64,
}

/// A pool of pipelined shard workers verifying PoCs in batches.
///
/// ```no_run
/// # use tlc_core::verify::service::VerifierService;
/// # use tlc_core::plan::DataPlan;
/// # let (edge_key, operator_key, poc): (tlc_crypto::PublicKey, tlc_crypto::PublicKey, tlc_core::messages::PocMsg) = unimplemented!();
/// let mut svc = VerifierService::new(4);
/// let rel = svc.register(DataPlan::paper_default(), edge_key, operator_key)?;
/// svc.submit(rel, poc)?;
/// let results = svc.collect_results()?;
/// let report = svc.finish();
/// # Ok::<(), tlc_core::verify::service::ServiceError>(())
/// ```
pub struct VerifierService {
    config: ServiceConfig,
    job_txs: Vec<Sender<Job>>,
    result_rx: Receiver<SubmissionResult>,
    stats_rx: Receiver<ShardStats>,
    handles: Vec<JoinHandle<()>>,
    /// Dedup registry: key fingerprints -> candidate (plan, id) pairs.
    registry: HashMap<(u64, u64), Vec<(DataPlan, RelationshipId)>>,
    next_rel: u64,
    next_tag: u64,
    outstanding: usize,
    first_submit: Option<Instant>,
    /// Per shard: a submission was sent since the shard's last kick.
    unkicked: Vec<bool>,
    kicks: u64,
}

impl VerifierService {
    /// Spawns `workers` pipelined shards (at least one) with default
    /// batching parameters.
    pub fn new(workers: usize) -> Self {
        Self::with_config(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        })
    }

    /// Spawns a service with explicit [`ServiceConfig`] knobs.
    pub fn with_config(config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            batch_size: config.batch_size.max(1),
            flush_deadline: config.flush_deadline,
            stage_queue_depth: config.stage_queue_depth.max(1),
        };
        let (result_tx, result_rx) = channel::unbounded::<SubmissionResult>();
        let (stats_tx, stats_rx) = channel::unbounded::<ShardStats>();
        let mut job_txs = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers * 2);
        for shard in 0..config.workers {
            let (job_tx, job_rx) = channel::unbounded::<Job>();
            let (stage_tx, stage_rx) = channel::bounded::<StageMsg>(config.stage_queue_depth);
            job_txs.push(job_tx);
            let result_tx = result_tx.clone();
            let stats_tx = stats_tx.clone();
            handles.push(std::thread::spawn(move || hash_worker(job_rx, stage_tx)));
            let (batch_size, deadline) = (config.batch_size, config.flush_deadline);
            handles.push(std::thread::spawn(move || {
                signature_worker(shard, batch_size, deadline, stage_rx, result_tx, stats_tx)
            }));
        }
        VerifierService {
            config,
            job_txs,
            result_rx,
            stats_rx,
            handles,
            registry: HashMap::new(),
            next_rel: 0,
            next_tag: 0,
            outstanding: 0,
            first_submit: None,
            unkicked: vec![false; config.workers],
            kicks: 0,
        }
    }

    /// Worker shards backing the service.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The batching configuration in effect.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Submissions whose results have not been collected yet. The
    /// ingress server uses this as its global backpressure signal.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Registers a relationship with the
    /// [default replay window](DEFAULT_REPLAY_CAPACITY); returns its id.
    ///
    /// Idempotent: the same `(plan, edge key, operator key)` triple maps
    /// to the same id (and therefore the same shard and replay cache).
    /// Fails with [`ServiceError::ShardDown`] when the pinned shard's
    /// workers are gone.
    pub fn register(
        &mut self,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
    ) -> Result<RelationshipId, ServiceError> {
        self.register_with_capacity(plan, edge_key, operator_key, DEFAULT_REPLAY_CAPACITY)
    }

    /// [`register`](Self::register) with an explicit replay-cache bound.
    pub fn register_with_capacity(
        &mut self,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    ) -> Result<RelationshipId, ServiceError> {
        let fp = (key_fingerprint(&edge_key), key_fingerprint(&operator_key));
        if let Some((_, rel)) = self
            .registry
            .get(&fp)
            .and_then(|bucket| bucket.iter().find(|(p, _)| *p == plan))
        {
            return Ok(*rel);
        }
        let rel = RelationshipId(self.next_rel);
        let shard = rel.shard(self.config.workers);
        self.job_txs[shard]
            .send(Job::Register {
                rel,
                plan,
                edge_key,
                operator_key,
                capacity,
            })
            .map_err(|_| ServiceError::ShardDown { shard })?;
        // Only a registration the shard will actually see is recorded;
        // a failed send must not burn the id or poison the dedup map.
        self.next_rel += 1;
        self.registry.entry(fp).or_default().push((plan, rel));
        Ok(rel)
    }

    /// Submits one proof for verification on its relationship's shard.
    /// Returns a tag to correlate with the [`SubmissionResult`].
    pub fn submit(&mut self, rel: RelationshipId, poc: PocMsg) -> Result<u64, ServiceError> {
        if rel.0 >= self.next_rel {
            return Err(ServiceError::UnknownRelationship(rel));
        }
        let shard = rel.shard(self.config.workers);
        let tag = self.next_tag;
        self.job_txs[shard]
            .send(Job::Verify { rel, tag, poc })
            .map_err(|_| ServiceError::ShardDown { shard })?;
        self.next_tag += 1;
        self.first_submit.get_or_insert_with(Instant::now);
        self.outstanding += 1;
        self.unkicked[shard] = true;
        Ok(tag)
    }

    /// Whether any shard has taken a submission since its last
    /// [`kick`](Self::kick) — i.e. whether a kick would do anything.
    pub fn kick_due(&self) -> bool {
        self.unkicked.contains(&true)
    }

    /// Tells the service its submitter is going idle: every proof
    /// submitted so far is verified without waiting for its batch to
    /// fill or its deadline to pass. The marker travels in-band behind
    /// those proofs and takes effect when the signature worker has
    /// nothing else queued, so a worker that is behind keeps filling
    /// batches from its backlog and one that is idle flushes at once.
    /// Shards with nothing new since their last kick are not touched.
    pub fn kick(&mut self) {
        for (shard, unkicked) in self.unkicked.iter_mut().enumerate() {
            if std::mem::take(unkicked) {
                // A shard that hung up has nothing left to flush.
                let _ = self.job_txs[shard].send(Job::Kick);
                self.kicks += 1;
            }
        }
    }

    /// Installs `notifier` on every shard's signature worker. In-band
    /// like everything else: batches flushed for submissions made after
    /// this call are guaranteed to fire it.
    pub fn set_notifier(&mut self, notifier: Notifier) {
        for tx in &self.job_txs {
            let _ = tx.send(Job::Notify(Arc::clone(&notifier)));
        }
    }

    /// Submits a batch under one relationship; returns the tag range as
    /// `(first, count)`. Stops at the first shard failure (proofs
    /// already handed over stay in flight and will produce results).
    pub fn submit_batch(
        &mut self,
        rel: RelationshipId,
        pocs: impl IntoIterator<Item = PocMsg>,
    ) -> Result<(u64, usize), ServiceError> {
        let first = self.next_tag;
        let mut count = 0usize;
        for poc in pocs {
            self.submit(rel, poc)?;
            count += 1;
        }
        Ok((first, count))
    }

    /// Blocks until every submitted proof has a result and returns them
    /// (unordered across shards; per relationship, in submission order).
    ///
    /// If every worker died with submissions outstanding the channel
    /// disconnects and [`ServiceError::ResultsClosed`] reports how many
    /// results are lost; the service remains usable for [`finish`].
    ///
    /// [`finish`]: Self::finish
    pub fn collect_results(&mut self) -> Result<Vec<SubmissionResult>, ServiceError> {
        // About to block with no more input coming: partial batches
        // must not sit out their deadline.
        self.kick();
        let mut out = Vec::with_capacity(self.outstanding);
        while self.outstanding > 0 {
            match self.result_rx.recv() {
                Ok(r) => {
                    self.outstanding -= 1;
                    out.push(r);
                }
                Err(_) => {
                    let outstanding = self.outstanding;
                    self.outstanding = 0;
                    return Err(ServiceError::ResultsClosed { outstanding });
                }
            }
        }
        Ok(out)
    }

    /// Non-blocking variant of [`collect_results`]: returns whatever
    /// results are ready right now (possibly none) without waiting for
    /// the rest. The ingress poll loop pumps this between socket polls
    /// so verdicts stream back while submissions are still arriving.
    ///
    /// [`collect_results`]: Self::collect_results
    pub fn try_collect_results(&mut self) -> Vec<SubmissionResult> {
        let mut out = Vec::new();
        while self.outstanding > 0 {
            match self.result_rx.try_recv() {
                Ok(r) => {
                    self.outstanding -= 1;
                    out.push(r);
                }
                Err(_) => break,
            }
        }
        out
    }

    /// Shuts the pool down: drains remaining work (flushing partial
    /// batches), joins the workers, and aggregates per-shard statistics.
    /// A worker that panicked instead of draining is counted in
    /// [`ServiceReport::worker_panics`] rather than propagated.
    ///
    /// Results the caller never collected (e.g. a remote client
    /// disconnected mid-batch) are not silently dropped: after the
    /// workers drain, the result queue is emptied deterministically and
    /// the count reported in [`ServiceReport::unclaimed_results`].
    pub fn finish(mut self) -> ServiceReport {
        let started = self.first_submit.take();
        // Close the submission queues; hash workers drain and hang up on
        // the signature workers, which flush their partial batches.
        self.job_txs.clear();
        let mut worker_panics = 0usize;
        for h in self.handles.drain(..) {
            if h.join().is_err() {
                worker_panics += 1;
            }
        }
        let elapsed = started.map(|t| t.elapsed()).unwrap_or_default();
        // Workers are joined: every in-flight submission has either
        // produced a result or died with its worker. Drain what the
        // caller left behind so teardown semantics are deterministic.
        let mut unclaimed_results = 0usize;
        while self.result_rx.try_recv().is_ok() {
            unclaimed_results += 1;
        }
        self.outstanding = self.outstanding.saturating_sub(unclaimed_results);
        let mut shards: Vec<ShardStats> = Vec::with_capacity(self.config.workers);
        while let Ok(s) = self.stats_rx.recv() {
            shards.push(s);
        }
        shards.sort_by_key(|s| s.shard);
        let accepted = shards.iter().map(|s| s.accepted).sum();
        let rejected = shards.iter().map(|s| s.rejected).sum();
        let replayed = shards.iter().map(|s| s.replayed).sum();
        let batches = shards.iter().map(|s| s.batches).sum();
        let deadline_flushes = shards.iter().map(|s| s.deadline_flushes).sum();
        let idle_flushes = shards.iter().map(|s| s.idle_flushes).sum();
        let processed: u64 = accepted + rejected;
        let pocs_per_hour = if elapsed.as_secs_f64() > 0.0 {
            processed as f64 / elapsed.as_secs_f64() * 3600.0
        } else {
            0.0
        };
        ServiceReport {
            shards,
            accepted,
            rejected,
            replayed,
            batches,
            deadline_flushes,
            idle_flushes,
            kicks: self.kicks,
            worker_panics,
            unclaimed_results,
            elapsed,
            pocs_per_hour,
        }
    }
}

/// Stage 1 of a shard: decode/hash. Chain digests are pure functions of
/// the proof bytes, so computing them here (before the replay check on
/// the signature stage) cannot change any verdict.
fn hash_worker(jobs: Receiver<Job>, stage: Sender<StageMsg>) {
    while let Ok(job) = jobs.recv() {
        let msg = match job {
            Job::Register {
                rel,
                plan,
                edge_key,
                operator_key,
                capacity,
            } => StageMsg::Register {
                rel,
                plan,
                edge_key,
                operator_key,
                capacity,
            },
            Job::Verify { rel, tag, poc } => {
                let digests = poc.chain_digests();
                StageMsg::Prepared {
                    rel,
                    tag,
                    poc,
                    digests,
                }
            }
            Job::Kick => StageMsg::Kick,
            Job::Notify(n) => StageMsg::Notify(n),
        };
        if stage.send(msg).is_err() {
            // Signature stage gone (service torn down mid-flight).
            return;
        }
    }
}

/// A signature batch accumulating for one relationship.
struct PendingBatch {
    /// When the oldest entry was enqueued (deadline base).
    since: Instant,
    /// A kick arrived behind (some of) these entries: flush when the
    /// worker's input runs dry.
    kicked: bool,
    tags: Vec<u64>,
    items: Vec<(PocMsg, PocDigests)>,
}

/// Why a partial batch was flushed before it filled.
#[derive(Clone, Copy)]
enum Early {
    Deadline,
    Kick,
}

/// Stage 2 of a shard: owns the `Verifier` (and replay cache) of every
/// relationship pinned to it; no locks, no sharing. Accumulates prepared
/// proofs into per-relationship batches and verifies them through the
/// multi-lane RSA kernel.
struct SignatureStage {
    shard: usize,
    verifiers: HashMap<RelationshipId, Verifier>,
    pending: HashMap<RelationshipId, PendingBatch>,
    results: Sender<SubmissionResult>,
    notifier: Option<Notifier>,
    stats: ShardStats,
}

fn signature_worker(
    shard: usize,
    batch_size: usize,
    flush_deadline: Duration,
    stage: Receiver<StageMsg>,
    results: Sender<SubmissionResult>,
    stats: Sender<ShardStats>,
) {
    let mut st = SignatureStage {
        shard,
        verifiers: HashMap::new(),
        pending: HashMap::new(),
        results,
        notifier: None,
        stats: ShardStats {
            shard,
            relationships: 0,
            accepted: 0,
            rejected: 0,
            replayed: 0,
            batches: 0,
            deadline_flushes: 0,
            idle_flushes: 0,
        },
    };
    loop {
        let wait = (st.pending.values().map(|p| p.since).min())
            .map(|oldest| (oldest + flush_deadline).saturating_duration_since(Instant::now()));
        if wait.is_some_and(|w| w.is_zero()) {
            // An overdue batch flushes before any queued input is
            // looked at, or steady input would starve the backstop.
            let now = Instant::now();
            st.flush_where(Early::Deadline, |b| b.since + flush_deadline <= now);
            continue;
        }
        let msg = if st.pending.values().any(|b| b.kicked) {
            // The submitter went idle behind the proofs a kick marked.
            // What is already queued joins their batches first — under
            // load the markers pile up behind the work and batches keep
            // filling — and the flush comes when the queue runs dry,
            // where this worker would otherwise go to sleep.
            match stage.try_recv() {
                Ok(m) => m,
                Err(_) => {
                    st.flush_where(Early::Kick, |b| b.kicked);
                    continue;
                }
            }
        } else {
            let next = match wait {
                None => stage.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(w) => stage.recv_timeout(w),
            };
            match next {
                Ok(m) => m,
                // Overdue now: flushed at the top of the loop.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        match msg {
            StageMsg::Register {
                rel,
                plan,
                edge_key,
                operator_key,
                capacity,
            } => {
                st.verifiers.entry(rel).or_insert_with(|| {
                    Verifier::with_capacity(plan, edge_key, operator_key, capacity)
                });
            }
            StageMsg::Prepared {
                rel,
                tag,
                poc,
                digests,
            } => {
                let batch = st.pending.entry(rel).or_insert_with(|| PendingBatch {
                    since: Instant::now(),
                    kicked: false,
                    tags: Vec::with_capacity(batch_size),
                    items: Vec::with_capacity(batch_size),
                });
                batch.tags.push(tag);
                batch.items.push((poc, digests));
                if batch.items.len() >= batch_size {
                    if let Some(batch) = st.pending.remove(&rel) {
                        st.flush_batch(rel, batch);
                    }
                }
            }
            StageMsg::Kick => {
                // Only what precedes the marker is covered: batches
                // begun after it wait for their own.
                st.pending.values_mut().for_each(|b| b.kicked = true);
            }
            StageMsg::Notify(n) => st.notifier = Some(n),
        }
    }
    // Hash stage hung up: flush whatever is still pending.
    st.flush_where(Early::Kick, |_| true);
    st.stats.relationships = st.verifiers.len();
    let _ = stats.send(st.stats);
}

impl SignatureStage {
    /// Flushes every pending batch `due` selects, in stable
    /// (relationship id) order for determinism, charging each to
    /// `cause`'s counter.
    fn flush_where(&mut self, cause: Early, due: impl Fn(&PendingBatch) -> bool) {
        let mut rels: Vec<RelationshipId> = self
            .pending
            .iter()
            .filter(|(_, b)| due(b))
            .map(|(rel, _)| *rel)
            .collect();
        rels.sort();
        for rel in rels {
            if let Some(batch) = self.pending.remove(&rel) {
                match cause {
                    Early::Deadline => self.stats.deadline_flushes += 1,
                    Early::Kick => self.stats.idle_flushes += 1,
                }
                self.flush_batch(rel, batch);
            }
        }
    }

    /// Verifies one accumulated batch, emits its results in submission
    /// order, and fires the notifier once.
    fn flush_batch(&mut self, rel: RelationshipId, batch: PendingBatch) {
        let shard = self.shard;
        let verdicts = match self.verifiers.get_mut(&rel) {
            Some(verifier) => {
                let items: Vec<(&PocMsg, &PocDigests)> =
                    batch.items.iter().map(|(p, d)| (p, d)).collect();
                self.stats.batches += 1;
                verifier.verify_batch_prehashed(&items)
            }
            // Register precedes submit on the same queue, so this is a
            // protocol violation; surface it as per-proof rejections
            // rather than taking the shard down.
            None => vec![Err(VerifyError::Unregistered); batch.tags.len()],
        };
        for (tag, result) in batch.tags.into_iter().zip(verdicts) {
            match &result {
                Ok(_) => self.stats.accepted += 1,
                Err(VerifyError::Replayed) => {
                    self.stats.rejected += 1;
                    self.stats.replayed += 1;
                }
                Err(_) => self.stats.rejected += 1,
            }
            // The receiver may have been dropped by an aborting caller;
            // losing the result then is fine.
            let _ = self.results.send(SubmissionResult {
                relationship: rel,
                tag,
                shard,
                result,
            });
        }
        if let Some(notify) = &self.notifier {
            notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_negotiation, Endpoint};
    use crate::strategy::{Knowledge, OptimalStrategy, Role};
    use tlc_crypto::KeyPair;

    fn negotiate(edge: &KeyPair, op: &KeyPair, plan: DataPlan, ne: u8, no: u8) -> PocMsg {
        let mut e = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: 1000,
                inferred_peer_truth: 800,
            },
            Box::new(OptimalStrategy),
            edge.private.clone(),
            op.public.clone(),
            [ne; 16],
            32,
        );
        let mut o = Endpoint::new(
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: 800,
                inferred_peer_truth: 1000,
            },
            Box::new(OptimalStrategy),
            op.private.clone(),
            edge.public.clone(),
            [no; 16],
            32,
        );
        run_negotiation(&mut o, &mut e).unwrap().0
    }

    #[test]
    fn accepts_and_reports_across_shards() {
        let plan = DataPlan::paper_default();
        let mut svc = VerifierService::new(3);
        let mut rels = Vec::new();
        for i in 0..4u64 {
            let edge = KeyPair::generate_for_seed(1024, 7000 + i * 2).unwrap();
            let op = KeyPair::generate_for_seed(1024, 7001 + i * 2).unwrap();
            let poc = negotiate(&edge, &op, plan, i as u8 * 2 + 1, i as u8 * 2 + 2);
            let rel = svc
                .register(plan, edge.public.clone(), op.public.clone())
                .unwrap();
            rels.push(rel);
            svc.submit(rel, poc).unwrap();
        }
        let results = svc.collect_results().unwrap();
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.result.is_ok()));
        // Each result was processed on its relationship's shard.
        for r in &results {
            assert_eq!(r.shard, r.relationship.shard(3));
        }
        let report = svc.finish();
        assert_eq!(report.accepted, 4);
        assert_eq!(report.rejected, 0);
        assert_eq!(
            report.shards.iter().map(|s| s.relationships).sum::<usize>(),
            4
        );
    }

    #[test]
    fn duplicate_registration_is_deduplicated() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7100).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7101).unwrap();
        let mut svc = VerifierService::new(4);
        let a = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        let b = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        assert_eq!(a, b);
        // A different plan is a different relationship.
        let other = DataPlan {
            loss_weight: crate::plan::LossWeight::from_f64(0.25),
            ..plan
        };
        let c = svc
            .register(other, edge.public.clone(), op.public.clone())
            .unwrap();
        assert_ne!(a, c);
        svc.finish();
    }

    #[test]
    fn shard_isolation_replay_caught_exactly_once() {
        // The scenario the sharding must defend: one relationship,
        // registered twice (e.g. by two independent submitters), its
        // proof submitted once per handle. Dedup pins both handles to
        // one shard-local cache, so exactly one submission is accepted
        // and the other rejected as a replay — never two acceptances
        // from two shards with independent caches. With batching the
        // two submissions may even land in the same signature batch;
        // the sequential-walk replay semantics still hold.
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7200).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7201).unwrap();
        let poc = negotiate(&edge, &op, plan, 0x11, 0x22);
        let mut svc = VerifierService::new(4);
        let a = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        let b = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        svc.submit(a, poc.clone()).unwrap();
        svc.submit(b, poc.clone()).unwrap();
        let results = svc.collect_results().unwrap();
        let ok = results.iter().filter(|r| r.result.is_ok()).count();
        let replays = results
            .iter()
            .filter(|r| r.result == Err(VerifyError::Replayed))
            .count();
        assert_eq!((ok, replays), (1, 1));
        let report = svc.finish();
        assert_eq!(report.accepted, 1);
        assert_eq!(report.replayed, 1);
        // All of it on a single shard.
        let active: Vec<_> = report
            .shards
            .iter()
            .filter(|s| s.accepted + s.rejected > 0)
            .collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].replayed, 1);
    }

    #[test]
    fn rejection_paths_flow_through_results() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7300).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7301).unwrap();
        let poc = negotiate(&edge, &op, plan, 0x31, 0x32);
        let mut svc = VerifierService::new(2);
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        // Distinct nonces so the replay cache does not trip first; the
        // tampered (signed) charge then breaks the signature chain.
        let mut tampered = negotiate(&edge, &op, plan, 0x33, 0x34);
        tampered.charge += 1;
        let t_ok = svc.submit(rel, poc).unwrap();
        let t_bad = svc.submit(rel, tampered).unwrap();
        let results = svc.collect_results().unwrap();
        let by_tag = |t: u64| results.iter().find(|r| r.tag == t).unwrap();
        assert!(by_tag(t_ok).result.is_ok());
        assert!(matches!(
            by_tag(t_bad).result,
            Err(VerifyError::Signature(_))
        ));
        let report = svc.finish();
        assert_eq!(
            (report.accepted, report.rejected, report.replayed),
            (1, 1, 0)
        );
    }

    #[test]
    fn batch_submit_tags_are_contiguous() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7400).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7401).unwrap();
        let a = negotiate(&edge, &op, plan, 0x41, 0x42);
        let b = negotiate(&edge, &op, plan, 0x43, 0x44);
        let mut svc = VerifierService::new(1);
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        let (first, count) = svc.submit_batch(rel, [a, b]).unwrap();
        assert_eq!((first, count), (0, 2));
        let results = svc.collect_results().unwrap();
        let mut tags: Vec<u64> = results.iter().map(|r| r.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1]);
        assert!(results.iter().all(|r| r.result.is_ok()));
        svc.finish();
    }

    #[test]
    fn finish_drains_unclaimed_results_deterministically() {
        // Regression: a remote client that disconnects mid-batch never
        // calls collect_results. Teardown used to drop the queued
        // verdicts on the floor with the channel; they must instead be
        // drained and counted so the report reconciles.
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7900).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7901).unwrap();
        let mut svc = VerifierService::new(1);
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        for i in 0..3u8 {
            let poc = negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2);
            svc.submit(rel, poc).unwrap();
        }
        assert_eq!(svc.outstanding(), 3);
        // Simulated disconnect: the caller walks away without collecting.
        let report = svc.finish();
        assert_eq!(report.accepted, 3);
        assert_eq!(report.unclaimed_results, 3);
    }

    #[test]
    fn try_collect_results_streams_without_blocking() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7910).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7911).unwrap();
        let mut svc = VerifierService::new(1);
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        // Empty pump is a cheap no-op.
        assert!(svc.try_collect_results().is_empty());
        for i in 0..2u8 {
            let poc = negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2);
            svc.submit(rel, poc).unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(svc.try_collect_results());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.outstanding(), 0);
        let tags: Vec<u64> = got.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![0, 1]);
        let report = svc.finish();
        assert_eq!(report.unclaimed_results, 0);
    }

    #[test]
    fn size_triggered_flush_fills_batches() {
        // With a long deadline, only the size trigger can flush — so
        // results arriving at all proves the size path works, and the
        // stats must show full batches with no deadline flushes before
        // shutdown.
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7500).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7501).unwrap();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 1,
            batch_size: 4,
            flush_deadline: Duration::from_secs(600),
            stage_queue_depth: 16,
        });
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        for i in 0..8u8 {
            let poc = negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2);
            svc.submit(rel, poc).unwrap();
        }
        let results = svc.collect_results().unwrap();
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|r| r.result.is_ok()));
        let report = svc.finish();
        assert_eq!(report.accepted, 8);
        assert_eq!(report.batches, 2);
        assert_eq!(report.shards[0].deadline_flushes, 0);
    }

    #[test]
    fn collect_kicks_partial_batches_past_a_long_deadline() {
        // Fewer proofs than a batch over two relationships and a
        // deadline that never comes: only the kick `collect_results`
        // sends before it blocks can flush them.
        let plan = DataPlan::paper_default();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 2,
            batch_size: 4,
            flush_deadline: Duration::from_secs(600),
            stage_queue_depth: 16,
        });
        let mut expected: HashMap<RelationshipId, Vec<u64>> = HashMap::new();
        for (i, n) in [(0u64, 1u8), (1, 3)] {
            let edge = KeyPair::generate_for_seed(1024, 7520 + i * 2).unwrap();
            let op = KeyPair::generate_for_seed(1024, 7521 + i * 2).unwrap();
            let rel = svc
                .register(plan, edge.public.clone(), op.public.clone())
                .unwrap();
            for j in 0..n {
                let poc = negotiate(&edge, &op, plan, 16 * i as u8 + 2 * j + 1, 2 * j + 2);
                expected
                    .entry(rel)
                    .or_default()
                    .push(svc.submit(rel, poc).unwrap());
            }
        }
        assert!(svc.kick_due());
        let results = svc.collect_results().unwrap();
        assert!(!svc.kick_due());
        assert!(results.iter().all(|r| r.result.is_ok()));
        let mut got: HashMap<RelationshipId, Vec<u64>> = HashMap::new();
        for r in &results {
            got.entry(r.relationship).or_default().push(r.tag);
        }
        assert_eq!(got, expected);
        // Nothing new since: a second kick sends no marker.
        svc.kick();
        let report = svc.finish();
        assert_eq!(report.kicks, 2, "one marker per shard that took input");
        assert_eq!((report.batches, report.idle_flushes), (2, 2));
        assert_eq!(report.deadline_flushes, 0);
    }

    #[test]
    fn notifier_fires_once_per_flushed_batch() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7540).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7541).unwrap();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 1,
            batch_size: 2,
            flush_deadline: Duration::from_secs(600),
            stage_queue_depth: 16,
        });
        let fired = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fired);
        svc.set_notifier(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        for i in 0..5u8 {
            let poc = negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2);
            svc.submit(rel, poc).unwrap();
        }
        assert_eq!(svc.collect_results().unwrap().len(), 5);
        let report = svc.finish();
        // Two size-triggered batches and the kicked tail of one; every
        // notification precedes the results it announces being read.
        assert_eq!((report.batches, report.idle_flushes), (3, 1));
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn deadline_flush_preserves_submission_order() {
        // Fewer proofs than a batch and a caller that never kicks
        // (`try_collect_results` does not): only the deadline backstop
        // can flush them.
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7600).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7601).unwrap();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 1,
            batch_size: 64,
            flush_deadline: Duration::from_millis(5),
            stage_queue_depth: 16,
        });
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        let mut tags = Vec::new();
        for i in 0..3u8 {
            let poc = negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2);
            tags.push(svc.submit(rel, poc).unwrap());
        }
        let mut results = Vec::new();
        while results.len() < tags.len() {
            results.extend(svc.try_collect_results());
            std::thread::sleep(Duration::from_millis(1));
        }
        // Per relationship, results come back in submission order.
        let seen: Vec<u64> = results.iter().map(|r| r.tag).collect();
        assert_eq!(seen, tags);
        assert!(results.iter().all(|r| r.result.is_ok()));
        let report = svc.finish();
        assert_eq!(report.accepted, 3);
        assert!(report.shards[0].deadline_flushes >= 1);
        assert_eq!(report.idle_flushes, 0);
    }

    #[test]
    fn concurrent_batches_across_relationships_stay_pinned_and_ordered() {
        // Several relationships interleaved under small batches: every
        // result must land on its relationship's shard, and each
        // relationship's results must arrive in submission order even
        // though batches from different relationships flush concurrently.
        let plan = DataPlan::paper_default();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 3,
            batch_size: 2,
            flush_deadline: Duration::from_millis(2),
            stage_queue_depth: 8,
        });
        let mut expected: HashMap<RelationshipId, Vec<u64>> = HashMap::new();
        for i in 0..3u64 {
            let edge = KeyPair::generate_for_seed(1024, 7700 + i * 2).unwrap();
            let op = KeyPair::generate_for_seed(1024, 7701 + i * 2).unwrap();
            let rel = svc
                .register(plan, edge.public.clone(), op.public.clone())
                .unwrap();
            for j in 0..4u8 {
                let poc = negotiate(
                    &edge,
                    &op,
                    plan,
                    8 * i as u8 + 2 * j + 1,
                    8 * i as u8 + 2 * j + 2,
                );
                let tag = svc.submit(rel, poc).unwrap();
                expected.entry(rel).or_default().push(tag);
            }
        }
        let results = svc.collect_results().unwrap();
        assert_eq!(results.len(), 12);
        assert!(results.iter().all(|r| r.result.is_ok()));
        let mut got: HashMap<RelationshipId, Vec<u64>> = HashMap::new();
        for r in &results {
            assert_eq!(r.shard, r.relationship.shard(3));
            got.entry(r.relationship).or_default().push(r.tag);
        }
        assert_eq!(got, expected);
        let report = svc.finish();
        assert_eq!(report.accepted, 12);
        assert!(report.batches >= 6, "12 proofs at batch size 2");
    }

    #[test]
    fn replay_rejected_within_and_across_batches() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7800).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7801).unwrap();
        let fresh = negotiate(&edge, &op, plan, 0x51, 0x52);
        let other = negotiate(&edge, &op, plan, 0x53, 0x54);
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 1,
            batch_size: 3,
            flush_deadline: Duration::from_millis(2),
            stage_queue_depth: 8,
        });
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        // One batch of [fresh, fresh, other]: within-batch replay.
        let t0 = svc.submit(rel, fresh.clone()).unwrap();
        let t1 = svc.submit(rel, fresh.clone()).unwrap();
        let t2 = svc.submit(rel, other).unwrap();
        let first = svc.collect_results().unwrap();
        // A later submission of the same proof: cross-batch replay.
        let t3 = svc.submit(rel, fresh).unwrap();
        let second = svc.collect_results().unwrap();
        let all: Vec<_> = first.iter().chain(second.iter()).collect();
        let by_tag = |t: u64| all.iter().find(|r| r.tag == t).unwrap();
        assert!(by_tag(t0).result.is_ok());
        assert_eq!(by_tag(t1).result, Err(VerifyError::Replayed));
        assert!(by_tag(t2).result.is_ok());
        assert_eq!(by_tag(t3).result, Err(VerifyError::Replayed));
        let report = svc.finish();
        assert_eq!((report.accepted, report.replayed), (2, 2));
    }
}
