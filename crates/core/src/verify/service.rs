//! The in-process PoC verifier (§5.3.4): one batching core on the
//! caller's thread.
//!
//! The paper sizes public verification at 230K PoCs/hour on a single
//! workstation; a deployment (FCC, court, MVNO) verifies proofs for many
//! edge↔operator relationships at once. A [`VerifierService`] is one
//! [`Stage`] over a [`Relationships`] table of its own, with no thread,
//! queue or clock:
//!
//! * [`submit`](VerifierService::submit) checks the id and hands the
//!   proof to the stage with its encoding ([`PocMsg::encode`]), which
//!   the stage hashes with the rest of the batch; a relationship's
//!   batch is verified at the submit that brings it to
//!   [`ServiceConfig::batch_size`];
//! * [`collect_results`](VerifierService::collect_results) verifies
//!   whatever is still buffered and returns every result not yet taken
//!   — per relationship in submission order, so the verdicts are exactly
//!   those of sequential `Verifier::verify` calls;
//! * [`finish`](VerifierService::finish) flushes and reports, counting
//!   results nobody collected.
//!
//! Registering the same `(plan, edge key, operator key)` relationship
//! twice yields the same [`RelationshipId`]: the table matches a triple
//! on its keys, so two handles to one relationship are one window.
//!
//! The TCP ingress ([`super::remote`]) drives the same core: each of its
//! shards owns a [`Stage`] over a table of the server's own, and scales
//! across cores by shard count. A caller that wants more cores runs an
//! ingress server with more shards; one that wants a rate times its own
//! run. The service is what Fig. 17's in-process row,
//! `examples/verifier_service.rs`, `tests/twin_soak.rs` and the
//! benchmark's service drive call.
//!
//! [`ShardStats`] counts `batches` and `idle_flushes` (partial batches
//! verified by a flush: at depth 1 every batch is one); size-triggered
//! batches are the remainder, and `deadline_flushes` reads 0 until the
//! benchmark stops naming it. Results nobody collected before
//! [`finish`](VerifierService::finish) are counted as unclaimed.

use super::stage::{Relationships, Stage};
use super::DEFAULT_REPLAY_CAPACITY;
use crate::messages::PocMsg;
use crate::plan::DataPlan;
use std::sync::Arc;
use tlc_crypto::PublicKey;

pub use super::stage::{RelationshipId, ShardStats, SubmissionResult};

/// Failures surfaced by the service API, in-process or over TCP.
///
/// Typed rather than `expect`ed — `verify/` denies clippy's
/// `expect_used` — so a caller can handle them (re-register
/// elsewhere, drain, report). The remote client returns each one as the
/// in-process call would; the wire's `Fault` mirrors `ShardDown` and
/// `ResultsClosed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// A verification shard can no longer accept submissions.
    ShardDown {
        /// Index of the unreachable shard.
        shard: usize,
    },
    /// The results stream closed while submissions were still
    /// outstanding (the server went away).
    ResultsClosed {
        /// Submissions that will never produce a result.
        outstanding: usize,
    },
    /// The relationship id was never issued by [`VerifierService::register`].
    UnknownRelationship(RelationshipId),
    /// The service (or the ingress admission control fronting it) is
    /// saturated and shed the submission; retry after the carried hint.
    /// The in-process service never sheds — this variant is produced by
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

/// Batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Read by nothing: the service is one stage on its caller's thread,
    /// and an ingress server runs `IngressConfig::shards` threads. The
    /// field stays while the benchmark harness builds this struct by
    /// field name (ROADMAP IOU list).
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
    /// Ingress shard threads that terminated by panicking instead of
    /// draining cleanly (0 on every healthy run; always 0 in-process).
    pub worker_panics: usize,
    /// Results that were produced but never collected before shutdown.
    pub unclaimed_results: usize,
}

impl ServiceReport {
    /// Totals over `shards` (sorted by shard index here).
    pub(crate) fn from_shards(
        mut shards: Vec<ShardStats>,
        worker_panics: usize,
        unclaimed_results: usize,
    ) -> ServiceReport {
        shards.sort_by_key(|s| s.shard);
        let sum = |field: fn(&ShardStats) -> u64| shards.iter().map(field).sum::<u64>();
        ServiceReport {
            accepted: sum(|s| s.accepted),
            rejected: sum(|s| s.rejected),
            replayed: sum(|s| s.replayed),
            batches: sum(|s| s.batches),
            idle_flushes: sum(|s| s.idle_flushes),
            worker_panics,
            unclaimed_results,
            shards,
        }
    }
}

/// Verifies PoCs in batches on the caller's thread; see the
/// [module docs](self).
///
/// ```no_run
/// # use tlc_core::verify::service::VerifierService;
/// # use tlc_core::plan::DataPlan;
/// # let (edge_key, operator_key, poc): (tlc_crypto::PublicKey, tlc_crypto::PublicKey, tlc_core::messages::PocMsg) = unimplemented!();
/// let mut svc = VerifierService::new();
/// let rel = svc.register(DataPlan::paper_default(), edge_key, operator_key)?;
/// svc.submit(rel, poc)?;
/// let results = svc.collect_results()?;
/// let report = svc.finish();
/// # Ok::<(), tlc_core::verify::service::ServiceError>(())
/// ```
pub struct VerifierService {
    config: ServiceConfig,
    stage: Stage,
    next_tag: u64,
    outstanding: usize,
}

impl Default for VerifierService {
    fn default() -> Self {
        Self::new()
    }
}

impl VerifierService {
    /// A service with the default batch size.
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with explicit [`ServiceConfig`] knobs.
    pub fn with_config(config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            batch_size: config.batch_size.max(1),
            ..config
        };
        let relationships = Arc::new(Relationships::default());
        VerifierService {
            stage: Stage::new(0, config.batch_size, relationships),
            config,
            next_tag: 0,
            outstanding: 0,
        }
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
    /// to the same id (and therefore the same replay window).
    pub fn register(
        &mut self,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
    ) -> Result<RelationshipId, ServiceError> {
        Ok(self
            .stage
            .register(plan, edge_key, operator_key, DEFAULT_REPLAY_CAPACITY))
    }

    /// Submits one proof under `rel`, verifying its relationship's batch
    /// if this proof fills it. Returns a tag to correlate with the
    /// [`SubmissionResult`].
    pub fn submit(&mut self, rel: RelationshipId, poc: PocMsg) -> Result<u64, ServiceError> {
        if rel.raw() >= self.stage.issued() {
            return Err(ServiceError::UnknownRelationship(rel));
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        self.outstanding += 1;
        let encoding = poc.encode();
        self.stage.submit(rel, tag, poc, &encoding);
        Ok(tag)
    }

    /// Submits a batch under one relationship; returns the tag range as
    /// `(first, count)`.
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

    /// Verifies whatever is buffered and returns every result not yet
    /// collected: per relationship in submission order, relationships in
    /// the order their batches were judged.
    pub fn collect_results(&mut self) -> Result<Vec<SubmissionResult>, ServiceError> {
        self.stage.flush();
        self.outstanding = 0;
        Ok(self.stage.take_results())
    }

    /// Flushes partial batches and aggregates the counters. Results the
    /// caller never collected are not silently dropped: they are counted
    /// in [`ServiceReport::unclaimed_results`].
    pub fn finish(self) -> ServiceReport {
        let (stats, unclaimed) = self.stage.finish();
        ServiceReport::from_shards(vec![stats], 0, unclaimed.len())
    }
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
        let mut svc = VerifierService::new();
        let mut submitted = Vec::new();
        for i in 0..4u64 {
            let edge = KeyPair::generate_for_seed(1024, 7000 + i * 2).unwrap();
            let op = KeyPair::generate_for_seed(1024, 7001 + i * 2).unwrap();
            let poc = negotiate(&edge, &op, plan, i as u8 * 2 + 1, i as u8 * 2 + 2);
            let rel = svc
                .register(plan, edge.public.clone(), op.public.clone())
                .unwrap();
            submitted.push((rel, svc.submit(rel, poc).unwrap()));
        }
        let results = svc.collect_results().unwrap();
        assert!(results.iter().all(|r| r.result.is_ok()));
        // One proof per relationship, judged relationship by relationship.
        let got: Vec<_> = results.iter().map(|r| (r.relationship, r.tag)).collect();
        assert_eq!(got, submitted);
        let report = svc.finish();
        assert_eq!(report.accepted, 4);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].relationships, 4);
    }

    #[test]
    fn duplicate_registration_is_deduplicated() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7100).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7101).unwrap();
        let mut svc = VerifierService::new();
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
        // One relationship, registered twice (e.g. by two independent
        // submitters), its proof submitted once per handle. Both handles
        // are one id and one replay window, so exactly one submission is
        // accepted and the other rejected as a replay — even inside one
        // signature batch, where the window is walked sequentially.
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7200).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7201).unwrap();
        let poc = negotiate(&edge, &op, plan, 0x11, 0x22);
        let mut svc = VerifierService::new();
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
        assert_eq!((report.batches, report.shards[0].relationships), (1, 1));
    }

    #[test]
    fn rejection_paths_flow_through_results() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7300).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7301).unwrap();
        let poc = negotiate(&edge, &op, plan, 0x31, 0x32);
        let mut svc = VerifierService::new();
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
        let mut svc = VerifierService::new();
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        let (first, count) = svc.submit_batch(rel, [a, b]).unwrap();
        assert_eq!((first, count), (0, 2));
        let results = svc.collect_results().unwrap();
        let tags: Vec<u64> = results.iter().map(|r| r.tag).collect();
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
        let mut svc = VerifierService::new();
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
    fn size_triggered_flush_fills_batches() {
        // A batch that reaches `batch_size` is verified at that submit;
        // only what is left when the caller collects is flushed short.
        // 8 proofs at batch 4 are two full batches; 10 are two full and
        // one flushed pair.
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7500).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7501).unwrap();
        let pocs: Vec<PocMsg> = (0..10u8)
            .map(|i| negotiate(&edge, &op, plan, 2 * i + 1, 2 * i + 2))
            .collect();
        for (n, want) in [(8, (2, 0)), (10, (3, 1))] {
            let mut svc = VerifierService::with_config(ServiceConfig {
                batch_size: 4,
                ..ServiceConfig::default()
            });
            let rel = svc
                .register(plan, edge.public.clone(), op.public.clone())
                .unwrap();
            svc.submit_batch(rel, pocs[..n].iter().cloned()).unwrap();
            let results = svc.collect_results().unwrap();
            assert_eq!(results.len(), n);
            assert!(results.iter().all(|r| r.result.is_ok()));
            let report = svc.finish();
            assert_eq!(report.accepted, n as u64);
            assert_eq!((report.batches, report.idle_flushes), want, "{n} proofs");
        }
    }

    #[test]
    fn concurrent_batches_across_relationships_stay_pinned_and_ordered() {
        // Several relationships interleaved under small batches: each
        // relationship's results must arrive in submission order, and
        // every batch fills at a submit.
        let plan = DataPlan::paper_default();
        let mut svc = VerifierService::with_config(ServiceConfig {
            batch_size: 2,
            ..ServiceConfig::default()
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
            got.entry(r.relationship).or_default().push(r.tag);
        }
        assert_eq!(got, expected);
        let report = svc.finish();
        assert_eq!(report.accepted, 12);
        assert_eq!((report.batches, report.idle_flushes), (6, 0));
    }

    #[test]
    fn replay_rejected_within_and_across_batches() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7800).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7801).unwrap();
        let fresh = negotiate(&edge, &op, plan, 0x51, 0x52);
        let other = negotiate(&edge, &op, plan, 0x53, 0x54);
        let mut svc = VerifierService::with_config(ServiceConfig {
            batch_size: 3,
            ..ServiceConfig::default()
        });
        let rel = svc
            .register(plan, edge.public.clone(), op.public.clone())
            .unwrap();
        // [fresh, fresh, other]: a replay inside the batch they fill.
        let t0 = svc.submit(rel, fresh.clone()).unwrap();
        let t1 = svc.submit(rel, fresh.clone()).unwrap();
        let t2 = svc.submit(rel, other).unwrap();
        let first = svc.collect_results().unwrap();
        // A later submission of the same proof: a later batch.
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
        assert_eq!((report.batches, report.idle_flushes), (2, 1));
    }
}
