//! A sharded, batch-native PoC verification pool (§5.3.4).
//!
//! The paper sizes public verification at 230K PoCs/hour on a single
//! workstation; a deployment (FCC, court, MVNO) verifies proofs for many
//! edge↔operator relationships at once. This module is the in-process,
//! multi-core front of the batching core in [`super::stage`]:
//!
//! * **one table of relationships** — the pool owns one
//!   [`Relationships`] table, which every worker's [`Stage`] verifies
//!   under: a relationship has one `Verifier` and one replay window
//!   whichever worker judges it. Each relationship is pinned to one
//!   worker all the same, so its results come back in submission order
//!   and its verifier's lock (taken once per batch) is never contended;
//! * **one queue per worker** — a worker drains a plain
//!   [`std::sync::mpsc`] queue into its stage, hashing and verifying on
//!   the same thread. A relationship's batch is verified when it reaches
//!   [`ServiceConfig::batch_size`], and whatever is buffered is verified
//!   when the worker's queue runs dry — which the worker sees for
//!   itself, so a submitter never has to say it went idle. Results for a
//!   relationship are always delivered in submission order, and the
//!   replay-cache semantics are exactly those of sequential
//!   `Verifier::verify` calls.
//!
//! Registering the same `(plan, edge key, operator key)` relationship
//! twice yields the same [`RelationshipId`]: the table matches a triple
//! on its keys, so two handles to one relationship are one window.
//!
//! The TCP ingress ([`super::remote`]) does not use this pool: each of
//! its shards owns a [`Stage`] directly, over a table of the server's
//! own, and scales across cores by shard count.

use super::stage::{Relationships, Stage};
use super::DEFAULT_REPLAY_CAPACITY;
use crate::messages::PocMsg;
use crate::plan::DataPlan;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tlc_crypto::PublicKey;

pub use super::stage::{RelationshipId, ShardStats, SubmissionResult};

/// Shutdown-aware failures surfaced by the service API.
///
/// Every channel operation between the caller and the workers can
/// observe a torn-down peer (a worker that panicked and dropped its
/// receiver, or a caller racing teardown). Those used to be `expect`s;
/// tlc-lint's `no-panic` rule now forbids that in protocol paths, so
/// they are typed instead: a dead worker yields an error the caller can
/// handle (re-register elsewhere, drain, report) rather than a panic in
/// the verification plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The shard's worker thread has hung up; submissions to it can no
    /// longer be accepted.
    ShardDown {
        /// Index of the unreachable shard.
        shard: usize,
    },
    /// The result channel closed while submissions were still
    /// outstanding (every worker is gone).
    ResultsClosed {
        /// Submissions that will never produce a result.
        outstanding: usize,
    },
    /// The relationship id was never issued by [`VerifierService::register`].
    UnknownRelationship(RelationshipId),
    /// The service (or the ingress admission control fronting it) is
    /// saturated and shed the submission; retry after the carried hint.
    /// The in-process pool never sheds — this variant is produced by
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

/// Tuning knobs for the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads; each owns one [`Stage`] and the relationships
    /// pinned to it.
    pub workers: usize,
    /// Proofs per relationship accumulated before a signature batch is
    /// verified (the multi-lane kernel saturates around 32).
    pub batch_size: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            batch_size: 32,
        }
    }
}

/// One proof on its way to its relationship's worker.
struct Job {
    rel: RelationshipId,
    tag: u64,
    poc: PocMsg,
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
    /// Partial batches verified because their submitter had nothing
    /// more to add, across shards.
    pub idle_flushes: u64,
    /// Shard threads that terminated by panicking instead of draining
    /// cleanly (0 on every healthy run).
    pub worker_panics: usize,
    /// Results that were produced but never collected before shutdown.
    /// Drained at teardown rather than dropped with the channel.
    pub unclaimed_results: usize,
    /// Wall-clock time from the first submission to shutdown. Zero in
    /// an ingress server's report: its shards read no clock.
    pub elapsed: Duration,
    /// Throughput over `elapsed`, comparable to the paper's 230K/hour.
    pub pocs_per_hour: f64,
}

impl ServiceReport {
    /// Totals over `shards` (sorted by shard index here).
    pub(crate) fn from_shards(
        mut shards: Vec<ShardStats>,
        worker_panics: usize,
        unclaimed_results: usize,
        elapsed: Duration,
    ) -> ServiceReport {
        shards.sort_by_key(|s| s.shard);
        let sum = |field: fn(&ShardStats) -> u64| shards.iter().map(field).sum::<u64>();
        let (accepted, rejected) = (sum(|s| s.accepted), sum(|s| s.rejected));
        let secs = elapsed.as_secs_f64();
        ServiceReport {
            accepted,
            rejected,
            replayed: sum(|s| s.replayed),
            batches: sum(|s| s.batches),
            idle_flushes: sum(|s| s.idle_flushes),
            worker_panics,
            unclaimed_results,
            elapsed,
            pocs_per_hour: if secs > 0.0 {
                (accepted + rejected) as f64 / secs * 3600.0
            } else {
                0.0
            },
            shards,
        }
    }
}

/// A pool of worker threads verifying PoCs in batches.
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
    /// One message per verified batch.
    result_rx: Receiver<Vec<SubmissionResult>>,
    /// A worker's final counters are its thread's return value.
    handles: Vec<JoinHandle<ShardStats>>,
    relationships: Arc<Relationships>,
    next_tag: u64,
    outstanding: usize,
    first_submit: Option<Instant>,
}

impl VerifierService {
    /// Spawns `workers` worker threads (at least one) with the default
    /// batch size.
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
        };
        let relationships = Arc::new(Relationships::default());
        let (result_tx, result_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for shard in 0..config.workers {
            let (job_tx, job_rx) = mpsc::channel();
            job_txs.push(job_tx);
            let result_tx = result_tx.clone();
            let stage = Stage::new(shard, config.batch_size, Arc::clone(&relationships));
            handles.push(std::thread::spawn(move || worker(stage, job_rx, result_tx)));
        }
        VerifierService {
            config,
            job_txs,
            result_rx,
            handles,
            relationships,
            next_tag: 0,
            outstanding: 0,
            first_submit: None,
        }
    }

    /// Worker threads backing the service.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The batching configuration in effect.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Submissions whose results have not been collected yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Registers a relationship with the
    /// [default replay window](DEFAULT_REPLAY_CAPACITY); returns its id.
    ///
    /// Idempotent: the same `(plan, edge key, operator key)` triple maps
    /// to the same id (and therefore the same worker and replay cache).
    /// Registration involves no worker and cannot fail; a dead worker
    /// shows at [`submit`](Self::submit).
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
        Ok(self
            .relationships
            .register(plan, edge_key, operator_key, capacity))
    }

    /// Submits one proof for verification on its relationship's worker.
    /// Returns a tag to correlate with the [`SubmissionResult`].
    pub fn submit(&mut self, rel: RelationshipId, poc: PocMsg) -> Result<u64, ServiceError> {
        if rel.raw() >= self.relationships.issued() {
            return Err(ServiceError::UnknownRelationship(rel));
        }
        let shard = rel.shard(self.config.workers);
        let tag = self.next_tag;
        self.job_txs[shard]
            .send(Job { rel, tag, poc })
            .map_err(|_| ServiceError::ShardDown { shard })?;
        self.next_tag += 1;
        self.first_submit.get_or_insert_with(throughput_epoch);
        self.outstanding += 1;
        Ok(tag)
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
        let mut out = Vec::with_capacity(self.outstanding);
        while self.outstanding > 0 {
            match self.result_rx.recv() {
                Ok(batch) => {
                    self.outstanding = self.outstanding.saturating_sub(batch.len());
                    out.extend(batch);
                }
                Err(_) => {
                    let outstanding = std::mem::take(&mut self.outstanding);
                    return Err(ServiceError::ResultsClosed { outstanding });
                }
            }
        }
        Ok(out)
    }

    /// Non-blocking variant of [`collect_results`]: returns whatever
    /// results are ready right now (possibly none) without waiting for
    /// the rest.
    ///
    /// [`collect_results`]: Self::collect_results
    pub fn try_collect_results(&mut self) -> Vec<SubmissionResult> {
        let mut out = Vec::new();
        while let Ok(batch) = self.result_rx.try_recv() {
            self.outstanding = self.outstanding.saturating_sub(batch.len());
            out.extend(batch);
        }
        out
    }

    /// Shuts the pool down: drains remaining work (flushing partial
    /// batches), joins the workers, and aggregates per-shard statistics.
    /// A worker that panicked instead of draining is counted in
    /// [`ServiceReport::worker_panics`] rather than propagated.
    ///
    /// Results the caller never collected are not silently dropped:
    /// after the workers drain, the result queue is emptied
    /// deterministically and the count reported in
    /// [`ServiceReport::unclaimed_results`].
    pub fn finish(mut self) -> ServiceReport {
        // Close the queues; each worker drains its own, flushes its
        // partial batches and returns its counters.
        self.job_txs.clear();
        let mut shards = Vec::with_capacity(self.handles.len());
        let mut worker_panics = 0usize;
        for h in self.handles.drain(..) {
            match h.join() {
                Ok(stats) => shards.push(stats),
                Err(_) => worker_panics += 1,
            }
        }
        let elapsed = self.first_submit.map(|t| t.elapsed()).unwrap_or_default();
        // Workers are joined: every in-flight submission has either
        // produced a result or died with its worker.
        let unclaimed_results = self.try_collect_results().len();
        ServiceReport::from_shards(shards, worker_panics, unclaimed_results, elapsed)
    }
}

/// Start of the interval [`ServiceReport::elapsed`] measures: the one
/// clock read in the verification plane. The report's throughput is
/// wall-clock by design; no verdict depends on it.
fn throughput_epoch() -> Instant {
    Instant::now()
}

/// A worker thread: drains `jobs` into the stage it owns, sending each
/// verified batch's results on. When its queue runs dry the submitter
/// has, for now, nothing more to add to any batch, so the worker
/// flushes before it blocks.
fn worker(
    mut stage: Stage,
    jobs: Receiver<Job>,
    results: Sender<Vec<SubmissionResult>>,
) -> ShardStats {
    // The receiver may have been dropped by an aborting caller; losing
    // the results then is fine.
    let deliver = |batch: Vec<SubmissionResult>| {
        if !batch.is_empty() {
            let _ = results.send(batch);
        }
    };
    loop {
        let job = match jobs.try_recv() {
            Ok(job) => job,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                stage.flush();
                deliver(stage.take_results());
                match jobs.recv() {
                    Ok(job) => job,
                    Err(_) => break,
                }
            }
        };
        let digests = job.poc.chain_digests();
        stage.submit(job.rel, job.tag, job.poc, digests);
        deliver(stage.take_results());
    }
    let (stats, rest) = stage.finish();
    deliver(rest);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::stage::tests::negotiate;
    use crate::verify::VerifyError;
    use std::collections::HashMap;
    use tlc_crypto::KeyPair;

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
        // A batch that reaches `batch_size` is verified at that submit,
        // so the only batches a worker ever verifies short are the ones
        // it flushed because its queue ran dry — how often that happens
        // is the scheduler's business, but the arithmetic is not: every
        // other batch held exactly four proofs, an idle flush one to
        // three. (The exact size-triggered counts are pinned, without
        // threads, in `stage::tests`.)
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7500).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7501).unwrap();
        let pocs: Vec<PocMsg> = (0..8u8)
            .map(|i| negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2))
            .collect();
        let mut svc = VerifierService::with_config(ServiceConfig {
            workers: 1,
            batch_size: 4,
        });
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        svc.submit_batch(rel, pocs).unwrap();
        let results = svc.collect_results().unwrap();
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|r| r.result.is_ok()));
        let report = svc.finish();
        assert_eq!(report.accepted, 8);
        let full = report.batches - report.idle_flushes;
        assert!(
            4 * full + report.idle_flushes <= 8 && 8 <= 4 * full + 3 * report.idle_flushes,
            "{full} full batches and {} idle flushes cannot hold 8 proofs",
            report.idle_flushes
        );
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
        });
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        // [fresh, fresh, other]: a replay inside one batch, or across
        // two if the worker's queue ran dry in between.
        let t0 = svc.submit(rel, fresh.clone()).unwrap();
        let t1 = svc.submit(rel, fresh.clone()).unwrap();
        let t2 = svc.submit(rel, other).unwrap();
        let first = svc.collect_results().unwrap();
        // A later submission of the same proof: always a later batch.
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
