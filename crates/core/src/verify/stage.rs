//! The batching core of PoC verification, and the table of
//! relationships every core of one server verifies under.
//!
//! A [`Relationships`] table is a relationship's one home: it issues
//! the [`RelationshipId`] for a `(plan, edge key, operator key)` triple
//! and owns the one [`Verifier`] — and so the one replay window — that
//! triple is judged by, however many stages, threads or connections
//! present proofs under it. An ingress server makes one table for all
//! its shards, a [`super::service::VerifierService`] one for its one
//! stage.
//!
//! A [`Stage`] is a plain value with no thread, queue or clock of its
//! own. [`Stage::submit`] buffers a proof and its chain digests under
//! its relationship — an ingress shard hashes the bytes it received
//! ([`PocMsg::decode_hashed`]), the in-process service the value
//! ([`PocMsg::chain_digests`]), and both hash the same spans; a
//! relationship's batch is verified on the spot when it reaches the
//! batch size, and [`Stage::flush`] verifies whatever is still buffered
//! — per relationship, in ascending id order, through the same
//! [`Verifier::verify_batch_prehashed`]. The replay window is walked
//! sequentially inside a batch and batches of one relationship are
//! verified in submission order, so the verdicts are exactly those of
//! sequential [`Verifier::verify`] calls however the flushes fall
//! (`tests/prop_stage.rs`).
//!
//! Both callers own their stages outright: an ingress shard
//! ([`super::remote`]) submits what one wakeup gathered, answers each
//! batch as soon as it is judged, and flushes before it blocks again;
//! the in-process service ([`super::service`]) submits on its caller's
//! thread and flushes when the caller collects. What stages share is
//! the table.
//! Two locks, never held together: the table's own (a lookup or a
//! registration, then released) and, after it, the relationship's
//! verifier's, taken **once per batch** and held while the batch is
//! judged. The second is contended only while one relationship is live
//! on two stages at once; then its batches are judged one after the
//! other, each against the window the last one left, which is what
//! makes a proof presented on both accepted once.

use super::{Verdict, Verifier, VerifyError};
use crate::messages::{MessageError, PocDigests, PocMsg};
use crate::plan::DataPlan;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex, PoisonError};
use tlc_crypto::encoding::key_fingerprint;
use tlc_crypto::{CryptoError, PublicKey};

/// Opaque handle to a registered relationship, issued by a
/// [`Relationships`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationshipId(u64);

impl RelationshipId {
    /// The raw id, for the network ingress that must name relationships
    /// on the wire. Not part of the public API: only `verify::remote`
    /// serializes ids.
    pub(crate) fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id decoded from the wire. Nothing is assumed of it:
    /// a table answers for the ids it issued and no others.
    pub(crate) fn from_raw(raw: u64) -> RelationshipId {
        RelationshipId(raw)
    }
}

/// One relationship: the triple it was registered under, and the one
/// verifier that judges it.
struct Entry {
    plan: DataPlan,
    edge_key: PublicKey,
    operator_key: PublicKey,
    verifier: Mutex<Verifier>,
}

#[derive(Default)]
struct Table {
    /// Key fingerprints -> the ids registered under keys that have
    /// them. A bucket narrows the search; the keys decide.
    by_keys: HashMap<(u64, u64), Vec<RelationshipId>>,
    /// Indexed by raw id: ids are dense from 0.
    entries: Vec<Arc<Entry>>,
}

/// The relationships of one server or service; see the
/// [module docs](self).
#[derive(Default)]
pub struct Relationships {
    table: Mutex<Table>,
}

impl Relationships {
    /// The id of this `(plan, edge key, operator key)` triple, issuing
    /// the next one (dense from 0) if the triple is new. The first
    /// registration's `capacity` — nonce pairs its replay window holds
    /// — stands; a later one's is ignored.
    pub fn register(
        &self,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    ) -> RelationshipId {
        let bucket = (key_fingerprint(&edge_key), key_fingerprint(&operator_key));
        self.register_in(bucket, plan, edge_key, operator_key, capacity)
    }

    /// [`register`](Self::register) under a given bucket.
    fn register_in(
        &self,
        bucket: (u64, u64),
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    ) -> RelationshipId {
        // Poison is passed over: the table changes only in the two
        // pushes that end this function, and neither can unwind.
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let mut held = table.by_keys.get(&bucket).into_iter().flatten().copied();
        let found = held.find(|rel| {
            table.entries.get(rel.0 as usize).is_some_and(|e| {
                e.plan == plan && e.edge_key == edge_key && e.operator_key == operator_key
            })
        });
        if let Some(rel) = found {
            return rel;
        }
        let rel = RelationshipId(table.entries.len() as u64);
        let verifier =
            Verifier::with_capacity(plan, edge_key.clone(), operator_key.clone(), capacity);
        table.entries.push(Arc::new(Entry {
            plan,
            edge_key,
            operator_key,
            verifier: Mutex::new(verifier),
        }));
        table.by_keys.entry(bucket).or_default().push(rel);
        rel
    }

    /// Relationships registered so far: the ids issued are `0..issued()`.
    pub fn issued(&self) -> u64 {
        let table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        table.entries.len() as u64
    }

    /// The entry `rel` names, if this table issued it. The table's lock
    /// is released on return, before the caller takes the entry's.
    fn entry(&self, rel: RelationshipId) -> Option<Arc<Entry>> {
        let table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        table.entries.get(usize::try_from(rel.0).ok()?).cloned()
    }
}

/// Outcome of one submitted proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmissionResult {
    /// The relationship the proof was submitted under.
    pub relationship: RelationshipId,
    /// The submitter's tag for the proof, for correlation.
    pub tag: u64,
    /// The shard (stage) that processed the proof.
    pub shard: usize,
    /// Verdict or rejection.
    pub result: Result<Verdict, VerifyError>,
}

/// Counters for one stage, reported at shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index: the ingress shard's, or 0 in-process.
    pub shard: usize,
    /// Relationships this shard verified at least one batch under.
    pub relationships: usize,
    /// Proofs accepted.
    pub accepted: u64,
    /// Proofs rejected for any reason (includes replays).
    pub rejected: u64,
    /// Rejections that were replays specifically.
    pub replayed: u64,
    /// Signature batches verified (including partial flushes).
    pub batches: u64,
    /// Always 0: no batch waits for a clock any more. The field stays
    /// until the benchmark harness stops naming it (ROADMAP IOU list).
    pub deadline_flushes: u64,
    /// Partial batches verified by [`Stage::flush`]: the submitter had
    /// nothing more to add before they filled.
    pub idle_flushes: u64,
}

/// One relationship's proofs awaiting a signature batch, in submission
/// order: the submitter's tag, the proof, its chain digests.
type PendingBatch = Vec<(u64, PocMsg, PocDigests)>;

/// The batching core; see the [module docs](self).
pub struct Stage {
    batch_size: usize,
    relationships: Arc<Relationships>,
    /// Relationships a batch was verified under, for the report.
    served: BTreeSet<RelationshipId>,
    /// Ordered, so a flush walks relationships by ascending id.
    pending: BTreeMap<RelationshipId, PendingBatch>,
    /// Verified, not yet taken.
    results: Vec<SubmissionResult>,
    stats: ShardStats,
}

impl Stage {
    /// An empty stage reporting as shard `shard`, verifying under the
    /// relationships of `relationships`, a relationship's batch as soon
    /// as it holds `batch_size` proofs (at least one).
    pub fn new(shard: usize, batch_size: usize, relationships: Arc<Relationships>) -> Stage {
        Stage {
            batch_size: batch_size.max(1),
            relationships,
            served: BTreeSet::new(),
            pending: BTreeMap::new(),
            results: Vec::new(),
            stats: ShardStats {
                shard,
                ..ShardStats::default()
            },
        }
    }

    /// The table this stage verifies under.
    pub fn relationships(&self) -> &Relationships {
        &self.relationships
    }

    /// Buffers `poc` under `rel` with its chain digests — the caller
    /// hashed them, from the bytes it received ([`PocMsg::decode_hashed`])
    /// or from the value ([`PocMsg::chain_digests`]); verifies the
    /// relationship's batch if that fills it. Chain digests are pure
    /// functions of the proof bytes, so computing them before the
    /// replay check cannot change any verdict.
    pub fn submit(&mut self, rel: RelationshipId, tag: u64, poc: PocMsg, digests: PocDigests) {
        let batch = self.pending.entry(rel).or_default();
        batch.push((tag, poc, digests));
        if batch.len() >= self.batch_size {
            if let Some(batch) = self.pending.remove(&rel) {
                self.verify(rel, batch);
            }
        }
    }

    /// Verifies every buffered proof, relationship by relationship in
    /// ascending id order. Afterwards nothing is pending.
    pub fn flush(&mut self) {
        while let Some((rel, batch)) = self.pending.pop_first() {
            self.stats.idle_flushes += 1;
            self.verify(rel, batch);
        }
    }

    /// Results verified since the last call: per relationship in
    /// submission order, relationships interleaved in flush order.
    pub fn take_results(&mut self) -> Vec<SubmissionResult> {
        std::mem::take(&mut self.results)
    }

    /// Flushes, then hands back the final counters and whatever results
    /// were never taken.
    pub fn finish(mut self) -> (ShardStats, Vec<SubmissionResult>) {
        self.flush();
        self.stats.relationships = self.served.len();
        (self.stats, self.results)
    }

    /// Verifies one batch under its relationship's lock and queues its
    /// results in submission order.
    fn verify(&mut self, rel: RelationshipId, batch: PendingBatch) {
        let items: Vec<(&PocMsg, &PocDigests)> = batch.iter().map(|(_, p, d)| (p, d)).collect();
        let all = |e: VerifyError| vec![Err(e); items.len()];
        let verdicts = match self.relationships.entry(rel) {
            Some(entry) => match entry.verifier.lock() {
                Ok(mut verifier) => {
                    self.stats.batches += 1;
                    self.served.insert(rel);
                    verifier.verify_batch_prehashed(&items)
                }
                // A thread died judging a batch of this relationship
                // and may have left its window torn: nothing more is
                // accepted under it.
                Err(_) => all(VerifyError::Signature(MessageError::Crypto(
                    CryptoError::Internal,
                ))),
            },
            // An id the table never issued: per-proof rejections rather
            // than taking the thread down.
            None => all(VerifyError::Unregistered),
        };
        for ((tag, ..), result) in batch.into_iter().zip(verdicts) {
            match &result {
                Ok(_) => self.stats.accepted += 1,
                Err(VerifyError::Replayed) => {
                    self.stats.rejected += 1;
                    self.stats.replayed += 1;
                }
                Err(_) => self.stats.rejected += 1,
            }
            self.results.push(SubmissionResult {
                relationship: rel,
                tag,
                shard: self.stats.shard,
                result,
            });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{run_negotiation, Endpoint};
    use crate::strategy::{Knowledge, OptimalStrategy, Role};
    use tlc_crypto::KeyPair;

    /// One negotiated proof between `edge` and `op` under the given
    /// nonce bytes (shared with the service's tests).
    pub(crate) fn negotiate(
        edge: &KeyPair,
        op: &KeyPair,
        plan: DataPlan,
        ne: u8,
        no: u8,
    ) -> PocMsg {
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

    /// A stage at `batch_size` with `n` relationships registered, and
    /// `per_rel` proofs for each.
    fn stage_with(
        batch_size: usize,
        n: u64,
        per_rel: u8,
    ) -> (Stage, Vec<RelationshipId>, Vec<Vec<PocMsg>>) {
        let plan = DataPlan::paper_default();
        let table = Arc::new(Relationships::default());
        let stage = Stage::new(5, batch_size, Arc::clone(&table));
        let (mut rels, mut pocs) = (Vec::new(), Vec::new());
        for i in 0..n {
            let edge = KeyPair::generate_for_seed(1024, 7950 + i * 2).unwrap();
            let op = KeyPair::generate_for_seed(1024, 7951 + i * 2).unwrap();
            let register = || table.register(plan, edge.public.clone(), op.public.clone(), 64);
            let rel = register();
            assert_eq!((rel, register()), (RelationshipId(i), rel));
            rels.push(rel);
            pocs.push(
                (0..per_rel)
                    .map(|j| negotiate(&edge, &op, plan, 32 * i as u8 + 2 * j + 1, 2 * j + 2))
                    .collect(),
            );
        }
        (stage, rels, pocs)
    }

    /// A fingerprint is 8 bytes of a hash, so two key pairs can share
    /// a bucket; they are still two relationships. The collision is
    /// staged by naming the bucket.
    #[test]
    fn a_triple_is_matched_on_its_keys_not_its_bucket() {
        let plan = DataPlan::paper_default();
        let table = Relationships::default();
        let keys: Vec<PublicKey> = (7940..7943)
            .map(|seed| KeyPair::generate_for_seed(1024, seed).unwrap().public)
            .collect();
        let register = |edge: usize, op: usize| {
            table.register_in((0, 0), plan, keys[edge].clone(), keys[op].clone(), 64)
        };
        let ids = [(0, 1), (2, 1), (0, 2), (0, 1), (2, 1)].map(|(e, o)| register(e, o));
        assert_eq!(ids.map(RelationshipId::raw), [0, 1, 2, 0, 1]);
        assert_eq!(table.issued(), 3);
    }

    #[test]
    fn a_batch_verifies_at_the_submit_that_fills_it() {
        let (mut stage, rels, pocs) = stage_with(4, 1, 8);
        for (tag, poc) in pocs[0].iter().enumerate() {
            stage.submit(rels[0], tag as u64, poc.clone(), poc.chain_digests());
            // Nothing before the fill, the whole batch at it.
            let want = if tag % 4 == 3 { 4 } else { 0 };
            assert_eq!(stage.take_results().len(), want, "after submit {tag}");
        }
        let (stats, rest) = stage.finish();
        assert!(rest.is_empty());
        assert_eq!(
            (stats.accepted, stats.batches, stats.idle_flushes),
            (8, 2, 0)
        );
        assert_eq!((stats.shard, stats.relationships), (5, 1));
    }

    #[test]
    fn flush_walks_relationships_in_ascending_id_order() {
        let (mut stage, rels, pocs) = stage_with(4, 3, 2);
        // Submitted 2, 0, 1, 2, 0, 1: flushed 0, 0, 1, 1, 2, 2.
        for (tag, r) in [2, 0, 1, 2, 0, 1].into_iter().enumerate() {
            let poc = &pocs[r][tag / 3];
            stage.submit(rels[r], tag as u64, poc.clone(), poc.chain_digests());
        }
        assert!(stage.take_results().is_empty());
        stage.flush();
        let got: Vec<(RelationshipId, u64)> = stage
            .take_results()
            .iter()
            .map(|r| {
                assert!(r.result.is_ok(), "{r:?}");
                (r.relationship, r.tag)
            })
            .collect();
        let want = [(0, 1), (0, 4), (1, 2), (1, 5), (2, 0), (2, 3)].map(|(r, t)| (rels[r], t));
        assert_eq!(got, want);
        // Nothing pending: a second flush verifies nothing.
        stage.flush();
        let (stats, rest) = stage.finish();
        assert!(rest.is_empty());
        assert_eq!((stats.batches, stats.idle_flushes), (3, 3));
    }

    #[test]
    fn an_unregistered_relationship_is_rejected_per_proof() {
        let (mut stage, _, pocs) = stage_with(2, 1, 2);
        let stranger = RelationshipId::from_raw(9);
        for (tag, poc) in pocs[0].iter().enumerate() {
            stage.submit(stranger, tag as u64, poc.clone(), poc.chain_digests());
        }
        let results = stage.take_results();
        assert_eq!(results.len(), 2);
        assert!(results
            .iter()
            .all(|r| r.result == Err(VerifyError::Unregistered)));
        let (stats, _) = stage.finish();
        assert_eq!((stats.rejected, stats.batches), (2, 0));
    }
}
