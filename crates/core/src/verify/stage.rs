//! The batching core of PoC verification, and the table of
//! relationships every core of one server verifies under.
//!
//! A [`Relationships`] table is a relationship's one home: it issues
//! the [`RelationshipId`] for a `(plan, edge key, operator key)` triple
//! and owns the one [`Verifier`] — and so the one replay window — that
//! triple is judged by, however many stages, threads or connections
//! present proofs under it. An ingress server makes one table for all
//! its shards, a [`super::service::VerifierService`] one for its one
//! stage. A proof's signatures bind it to one triple, so the whole
//! table accepts it at most once, and only under that triple's id;
//! under any other id — a roaming vendor's visited relationship, say,
//! for a proof made with its home operator — it fails its signature
//! check at any age (`tests/prop_stage.rs`).
//!
//! A [`Stage`] is a plain value with no thread, queue or clock of its
//! own. [`Stage::submit`] buffers a proof and its encoding under its
//! relationship — an ingress shard passes the bytes it received and
//! decoded, the in-process service the value's own encoding — one
//! buffer of bytes per pending batch. A relationship's batch is
//! verified on the spot when it reaches the batch size, and
//! [`Stage::flush`] verifies whatever is still buffered — per
//! relationship, in ascending id order. Either way the batch's chain
//! digests are hashed then, the 3·N signed spans of its bytes in one
//! [`chain_digests_many`] call, before the relationship's lock is
//! taken; then the same [`Verifier::verify_batch_prehashed`]. Nothing
//! is hashed at arrival, so a proof shed or rejected before its batch
//! costs no hash. The replay window is walked
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
//!
//! Two locks, never held together: the table's own (a lookup or a
//! registration, then released) and, after it, the relationship's
//! verifier's, taken **once per batch** and held while the batch is
//! judged. The second is contended only while one relationship is live
//! on two stages at once; then its batches are judged one after the
//! other, each against the window the last one left, which is what
//! makes a proof presented on both accepted once.
//!
//! "Never together" is a type. Both are `Ordered` mutexes, whose one
//! `lock` borrows a `NoLockHeld` token mutably for as long as the
//! guard lives, and each stage holds the only token it can lend, made
//! in [`Stage::new`]. A second lock under the first is then a second
//! mutable borrow of one token: E0499, not a deadlock.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use super::{Verdict, Verifier, VerifyError};
use crate::messages::{chain_digests_many, MessageError, PocDigests, PocMsg};
use crate::plan::DataPlan;
use ordered::Ordered;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::{Arc, MutexGuard, PoisonError};
use tlc_crypto::encoding::key_fingerprint;
use tlc_crypto::{CryptoError, PublicKey};

/// Lent to every lock this module takes, and borrowed by its guard:
/// while a stage holds one lock it has no token left to take another.
/// Zero-sized, and built in one place, [`Stage::new`].
struct NoLockHeld(());

mod ordered {
    use super::NoLockHeld;
    use std::sync::{LockResult, Mutex, MutexGuard};

    /// A mutex that locks only against the caller's [`NoLockHeld`].
    /// The `Mutex` is out of the parent module's reach, so nothing
    /// there can lock it without the token.
    #[derive(Default)]
    pub(super) struct Ordered<T>(Mutex<T>);

    impl<T> Ordered<T> {
        pub(super) fn new(value: T) -> Ordered<T> {
            Ordered(Mutex::new(value))
        }

        /// The guard borrows `held` for as long as it lives.
        pub(super) fn lock<'a>(
            &'a self,
            _held: &'a mut NoLockHeld,
        ) -> LockResult<MutexGuard<'a, T>> {
            self.0.lock()
        }
    }
}

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
    verifier: Ordered<Verifier>,
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
    table: Ordered<Table>,
}

impl Relationships {
    /// The table, for as long as the guard borrows `held`. Poison is
    /// passed over: the table changes only in the two pushes that end
    /// [`register_in`](Self::register_in), and neither can unwind.
    fn table<'a>(&'a self, held: &'a mut NoLockHeld) -> MutexGuard<'a, Table> {
        self.table
            .lock(held)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Stage::register`] under a given bucket.
    fn register_in(
        &self,
        held: &mut NoLockHeld,
        bucket: (u64, u64),
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    ) -> RelationshipId {
        let mut table = self.table(held);
        let mut ids = table.by_keys.get(&bucket).into_iter().flatten().copied();
        let found = ids.find(|rel| {
            usize::try_from(rel.0)
                .ok()
                .and_then(|i| table.entries.get(i))
                .is_some_and(|e| {
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
            verifier: Ordered::new(verifier),
        }));
        table.by_keys.entry(bucket).or_default().push(rel);
        rel
    }

    /// Relationships registered so far: the ids issued are `0..issued()`.
    fn issued(&self, held: &mut NoLockHeld) -> u64 {
        self.table(held).entries.len() as u64
    }

    /// The entry `rel` names, if this table issued it. The table's lock
    /// is released on return, before the caller takes the entry's.
    fn entry(&self, held: &mut NoLockHeld, rel: RelationshipId) -> Option<Arc<Entry>> {
        let table = self.table(held);
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

/// One relationship's proofs awaiting a signature batch.
#[derive(Default)]
struct PendingBatch {
    /// In submission order: the submitter's tag, the proof, and where
    /// its encoding sits in `bytes`.
    proofs: Vec<(u64, PocMsg, Range<usize>)>,
    /// The proofs' encodings, back to back.
    bytes: Vec<u8>,
}

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
    /// Lent to each lock taken, and back when its guard drops.
    no_lock: NoLockHeld,
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
            no_lock: NoLockHeld(()),
        }
    }

    /// The id of this `(plan, edge key, operator key)` triple in the
    /// stage's table, issuing the next one (dense from 0) if the triple
    /// is new. The first registration's `capacity` — nonce pairs its
    /// replay window holds — stands; a later one's is ignored.
    pub fn register(
        &mut self,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    ) -> RelationshipId {
        let bucket = (key_fingerprint(&edge_key), key_fingerprint(&operator_key));
        self.relationships.register_in(
            &mut self.no_lock,
            bucket,
            plan,
            edge_key,
            operator_key,
            capacity,
        )
    }

    /// Relationships registered in the stage's table so far: the ids
    /// issued are `0..issued()`.
    pub fn issued(&mut self) -> u64 {
        self.relationships.issued(&mut self.no_lock)
    }

    /// Buffers `poc` under `rel` with `encoding`, its one encoding —
    /// the bytes the caller received and decoded it from, or
    /// `poc.encode()` — and verifies the relationship's batch if that
    /// fills it. The signatures are checked over the digests of
    /// `encoding`'s signed spans.
    pub fn submit(&mut self, rel: RelationshipId, tag: u64, poc: PocMsg, encoding: &[u8]) {
        let batch = self.pending.entry(rel).or_default();
        let at = batch.bytes.len();
        batch.bytes.extend_from_slice(encoding);
        batch.proofs.push((tag, poc, at..batch.bytes.len()));
        if batch.proofs.len() >= self.batch_size {
            if let Some(batch) = self.pending.remove(&rel) {
                self.verify(rel, batch);
            }
        }
    }

    /// Verifies every buffered proof, relationship by relationship in
    /// ascending id order. Afterwards nothing is pending.
    pub fn flush(&mut self) {
        while let Some((rel, batch)) = self.pending.pop_first() {
            self.stats.idle_flushes = self.stats.idle_flushes.saturating_add(1);
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

    /// Hashes one batch, verifies it under its relationship's lock and
    /// queues its results in submission order.
    fn verify(&mut self, rel: RelationshipId, batch: PendingBatch) {
        let all = |e: VerifyError| vec![Err(e); batch.proofs.len()];
        let verdicts = match self.relationships.entry(&mut self.no_lock, rel) {
            Some(entry) => {
                // Hashed before the lock: a relationship live on two
                // stages waits for the other's RSA batch, never for its
                // hashing.
                let encodings: Vec<&[u8]> = batch
                    .proofs
                    .iter()
                    .map(|(.., at)| batch.bytes.get(at.clone()).unwrap_or_default())
                    .collect();
                let digests = chain_digests_many(&encodings);
                let items: Vec<(&PocMsg, &PocDigests)> = batch
                    .proofs
                    .iter()
                    .map(|(_, p, _)| p)
                    .zip(&digests)
                    .collect();
                match entry.verifier.lock(&mut self.no_lock) {
                    Ok(mut verifier) => {
                        self.stats.batches = self.stats.batches.saturating_add(1);
                        self.served.insert(rel);
                        verifier.verify_batch_prehashed(&items)
                    }
                    // A thread died judging a batch of this relationship
                    // and may have left its window torn: nothing more is
                    // accepted under it.
                    Err(_) => all(VerifyError::Signature(MessageError::Crypto(
                        CryptoError::Internal,
                    ))),
                }
            }
            // An id the table never issued: per-proof rejections rather
            // than taking the thread down.
            None => all(VerifyError::Unregistered),
        };
        for ((tag, ..), result) in batch.proofs.into_iter().zip(verdicts) {
            match &result {
                Ok(_) => self.stats.accepted = self.stats.accepted.saturating_add(1),
                Err(VerifyError::Replayed) => {
                    self.stats.rejected = self.stats.rejected.saturating_add(1);
                    self.stats.replayed = self.stats.replayed.saturating_add(1);
                }
                Err(_) => self.stats.rejected = self.stats.rejected.saturating_add(1),
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
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "test seeds and counts are small fixed values; the test profile checks overflow"
)]
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
        let mut stage = Stage::new(5, batch_size, Arc::default());
        let (mut rels, mut pocs) = (Vec::new(), Vec::new());
        for i in 0..n {
            let edge = KeyPair::generate_for_seed(1024, 7950 + i * 2).unwrap();
            let op = KeyPair::generate_for_seed(1024, 7951 + i * 2).unwrap();
            let mut register = || stage.register(plan, edge.public.clone(), op.public.clone(), 64);
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
        let mut stage = Stage::new(0, 1, Arc::default());
        let keys: Vec<PublicKey> = (7940..7943)
            .map(|seed| KeyPair::generate_for_seed(1024, seed).unwrap().public)
            .collect();
        let mut register = |edge: usize, op: usize| {
            let (edge, op) = (keys[edge].clone(), keys[op].clone());
            let held = &mut stage.no_lock;
            stage
                .relationships
                .register_in(held, (0, 0), plan, edge, op, 64)
        };
        let ids = [(0, 1), (2, 1), (0, 2), (0, 1), (2, 1)].map(|(e, o)| register(e, o));
        assert_eq!(ids.map(RelationshipId::raw), [0, 1, 2, 0, 1]);
        assert_eq!(stage.issued(), 3);
    }

    #[test]
    fn a_batch_verifies_at_the_submit_that_fills_it() {
        let (mut stage, rels, pocs) = stage_with(4, 1, 8);
        for (tag, poc) in pocs[0].iter().enumerate() {
            stage.submit(rels[0], tag as u64, poc.clone(), &poc.encode());
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
            stage.submit(rels[r], tag as u64, poc.clone(), &poc.encode());
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
            stage.submit(stranger, tag as u64, poc.clone(), &poc.encode());
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
