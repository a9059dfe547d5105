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
//! own. [`Stage::submit`] copies one PoC's encoding under its
//! relationship — an ingress shard passes the bytes it received, the
//! in-process service the value's own encoding — into that
//! relationship's pending batch, which holds **bytes only**: one buffer
//! of encodings back to back and, per proof, its tag and its range in
//! the buffer. The buffers keep their capacity from batch to batch. A
//! relationship's batch is verified on the spot when it reaches the
//! batch size, and [`Stage::flush`] verifies whatever is still buffered
//! — per relationship, in ascending id order. Either way the batch's
//! chain digests are hashed then, the 3·N signed spans of its bytes in
//! one [`chain_digests_many`] call, before the relationship's lock is
//! taken; then each proof is parsed in place ([`PocView::parse`]) and
//! the views go to the same [`Verifier::verify_batch_prehashed`], whose
//! signature batch reads the three signatures as slices of the buffer.
//! Bytes that do not parse draw `Signature(Malformed)` without
//! reaching the verifier (a shard checks the parse at admission, so
//! only a hand-built value can encode to them). Nothing is hashed at
//! arrival, so a proof shed or rejected before its batch costs no
//! hash. The replay window is walked
//! sequentially inside a batch and batches of one relationship are
//! verified in submission order, so the verdicts are exactly those of
//! sequential [`Verifier::verify`] calls however the flushes fall
//! (`tests/prop_stage.rs`).
//!
//! *Why hashing waits for the batch.* A PoC's three signed bodies are
//! prefixes of its encoding and of the encodings it embeds, and one
//! function in [`crate::messages`] names them as slices of the bytes
//! (checked cursor steps only, so it cannot panic). Hashing the 3·N
//! spans of a batch in one call fills the 16-lane kernel of
//! [`tlc_crypto::sha256::digest_many`]; hashing them before the
//! relationship's lock means a relationship live on two stages waits
//! for the other's signatures, never for its hashing. Decoding is
//! canonical (`prop_codec`), so the bytes a shard received and the
//! value's encoding give one proof the same digests. A batch of one
//! pays nothing for the batch path: `digest_many` goes single-stream
//! below its break-even, as [`crate::messages::PocMsg::chain_digests`] does for one proof.
//! Clippy's `disallowed_methods` holds this file to no clock with no
//! allowance.
//!
//! *Why the signatures are read from the batch's bytes.* A profile of
//! `verify_flood` on a 2-vCPU VM put ~5.7 µs of shard time on each PoC:
//! the F4 kernel 3.24 µs, the chain digests 0.51 µs, and
//! `pkcs1::verify_batch` 0.76 µs outside its kernel, against ~0.2 µs
//! for the same call on a hot cache. Each proof's three signatures sat
//! in three heap `Vec`s built when it was decoded at admission, and
//! were read again, cold, only after the batch's bytes had been
//! hashed. Parsed in place after the hashing, the signatures are
//! slices of bytes the digests have just read, and no proof costs a
//! heap value between the socket and its verdict (the owned decode was
//! another 0.31 µs). CI's `lint-clean` job holds this file and the
//! server to naming no `PocMsg::decode` outside their tests.
//!
//! Both callers own their stages outright: an ingress shard
//! ([`super::remote`]) submits what one wakeup gathered, answers each
//! batch as soon as it is judged, and flushes before it blocks again;
//! the in-process service ([`super::service`]) submits on its caller's
//! thread and flushes when the caller collects. What stages share is
//! the table.
//!
//! A triple is found through a bucket keyed by its two 64-bit key
//! fingerprints and *matched on the keys*: two key pairs whose
//! fingerprints collide are two relationships. Ids are dense from 0,
//! and the first registrant's replay capacity stands.
//!
//! # Lock order
//!
//! Two locks, never held together: the table's own (a lookup or a
//! registration, then released) and, after it, the relationship's
//! verifier's, taken **once per batch** (never per proof) and held
//! while the batch is judged. The second is contended only while one
//! relationship is live on two stages at once; then its batches are
//! judged one after the other, each against the window the last one
//! left, which is what makes a proof presented on both accepted once. A
//! verifier whose lock is poisoned (a thread died judging under it)
//! accepts nothing more.
//!
//! "Never together" is a type. Both are `Ordered` mutexes, whose one
//! `lock` borrows a `NoLockHeld` token mutably for as long as the
//! guard lives, and each stage holds the only token it can lend, made
//! in [`Stage::new`]. A second lock under the first is then a second
//! mutable borrow of one token: E0499, not a deadlock. Borrowck cannot
//! count tokens, so CI's `lint-clean` job checks that the token is
//! built in `Stage::new` and nowhere else. A stage never reaches
//! another stage, so two stages on two threads each take one lock at a
//! time. The workspace's third lock, the buffer pool's in
//! [`tlc_net::bufpool`], needs no token: tlc-net cannot name tlc-core, so
//! nothing under it takes a stage lock, and no stage critical section
//! checks a pooled buffer out or drops one. The lock graph has no edge
//! and so no cycle.
//!
//! Dynamic companions: `tests/loom_service.rs` (built only under
//! `RUSTFLAGS="--cfg loom"`; `LOOM_ITERS` scales the schedule count)
//! models the one cross-thread protocol the plane has left, two stages
//! on two threads judging one relationship under one table; CI runs the
//! `verify::service` tests under ThreadSanitizer, and Miri over the
//! scalar crypto kernels. `tests/prop_stage.rs` holds the verdicts to
//! one sequential [`Verifier`] per relationship over any interleaving of
//! submits and flushes: 256 cases on one stage, 256 with one
//! relationship on two stages over one table (the oracle fed in judging
//! order: each proof accepted once, whichever stage judges it first),
//! and 8 through the [`super::service::VerifierService`] API.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use super::{Verdict, Verifier, VerifyError};
use crate::messages::{chain_digests_many, MessageError, PocDigests, PocView};
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

/// One relationship's proofs awaiting a signature batch, as bytes
/// only: no proof is parsed until its batch is judged.
#[derive(Default)]
struct PendingBatch {
    /// In submission order: the submitter's tag, and where the proof's
    /// encoding sits in `bytes`.
    proofs: Vec<(u64, Range<usize>)>,
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
    /// Judged batches, emptied: the next relationship to buffer a proof
    /// takes one, so the buffers keep their capacity across batches.
    spare: Vec<PendingBatch>,
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
            spare: Vec::new(),
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

    /// Buffers a copy of `encoding`, one PoC's bytes — what the caller
    /// received, or `poc.encode()` — under `rel`, and verifies the
    /// relationship's batch if that fills it. The proof judged is the
    /// one the bytes encode: they are parsed then, in place, and bytes
    /// that do not parse draw `Signature(Malformed)`.
    pub fn submit(&mut self, rel: RelationshipId, tag: u64, encoding: &[u8]) {
        let spare = &mut self.spare;
        let batch = self
            .pending
            .entry(rel)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let at = batch.bytes.len();
        batch.bytes.extend_from_slice(encoding);
        batch.proofs.push((tag, at..batch.bytes.len()));
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

    /// Judges one batch and queues its results in submission order;
    /// the emptied batch goes back to the spares.
    fn verify(&mut self, rel: RelationshipId, mut batch: PendingBatch) {
        let verdicts = self.judge(rel, &batch);
        for ((tag, _), result) in batch.proofs.drain(..).zip(verdicts) {
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
        batch.bytes.clear();
        self.spare.push(batch);
    }

    /// One verdict per proof of `batch`: its chain digests hashed, then
    /// each proof parsed in place and the parsed ones judged under the
    /// relationship's lock.
    fn judge(
        &mut self,
        rel: RelationshipId,
        batch: &PendingBatch,
    ) -> Vec<Result<Verdict, VerifyError>> {
        let all = |e: VerifyError| vec![Err(e); batch.proofs.len()];
        // An id the table never issued: per-proof rejections rather
        // than taking the thread down.
        let Some(entry) = self.relationships.entry(&mut self.no_lock, rel) else {
            return all(VerifyError::Unregistered);
        };
        let encodings: Vec<&[u8]> = batch
            .proofs
            .iter()
            .map(|(_, at)| batch.bytes.get(at.clone()).unwrap_or_default())
            .collect();
        // Hashed before the lock: a relationship live on two stages
        // waits for the other's RSA batch, never for its hashing.
        let digests = chain_digests_many(&encodings);
        // Parsed after the hashing has read the bytes, so the
        // signatures the RSA batch reads are slices still in cache.
        let views: Vec<Result<PocView<'_>, MessageError>> =
            encodings.iter().map(|e| PocView::parse(e)).collect();
        let items: Vec<(&PocView<'_>, &PocDigests)> = views
            .iter()
            .zip(&digests)
            .filter_map(|(view, d)| Some((view.as_ref().ok()?, d)))
            .collect();
        let mut judged = match entry.verifier.lock(&mut self.no_lock) {
            Ok(mut verifier) => {
                self.stats.batches = self.stats.batches.saturating_add(1);
                self.served.insert(rel);
                verifier.verify_batch_prehashed(&items).into_iter()
            }
            // A thread died judging a batch of this relationship and
            // may have left its window torn: nothing more is accepted
            // under it.
            Err(_) => return all(VerifyError::Signature(INTERNAL)),
        };
        views
            .into_iter()
            .map(|view| match view {
                Ok(_) => judged
                    .next()
                    .unwrap_or(Err(VerifyError::Signature(INTERNAL))),
                Err(e) => Err(VerifyError::Signature(e)),
            })
            .collect()
    }
}

/// The verdict of a proof the verifier could not judge.
const INTERNAL: MessageError = MessageError::Crypto(CryptoError::Internal);

#[cfg(test)]
#[expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "test seeds and counts are small fixed values; the test profile checks overflow"
)]
pub(crate) mod tests {
    use super::*;
    use crate::messages::PocMsg;
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
            stage.submit(rels[0], tag as u64, &poc.encode());
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
            stage.submit(rels[r], tag as u64, &poc.encode());
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

    /// A stage fed bytes only judges a 32-proof batch exactly as the
    /// sequential walk over the decoded proofs does, typed errors
    /// included: every third proof from the second on has one byte of
    /// its PoC, CDA or CDR signature flipped in turn, and the last is a
    /// replay of the first.
    #[test]
    fn a_batch_of_bytes_is_judged_as_the_sequential_walk() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 7960).unwrap();
        let op = KeyPair::generate_for_seed(1024, 7961).unwrap();
        let mut stage = Stage::new(0, 32, Arc::default());
        let rel = stage.register(plan, edge.public.clone(), op.public.clone(), 64);
        let mut batch: Vec<Vec<u8>> = (0..31u8)
            .map(|k| {
                let mut bytes = negotiate(&edge, &op, plan, 2 * k + 1, 2 * k + 2).encode();
                let view = PocView::parse(&bytes).unwrap();
                let sig = match k % 9 {
                    1 => view.signature,
                    4 => view.cda.signature,
                    7 => view.cda.peer_cdr.signature,
                    _ => return bytes,
                };
                let at = sig.as_ptr() as usize - bytes.as_ptr() as usize + usize::from(k) % 4;
                bytes[at] ^= 0x80;
                bytes
            })
            .collect();
        batch.push(batch[0].clone());
        for (tag, bytes) in batch.iter().enumerate() {
            stage.submit(rel, tag as u64, bytes);
        }
        let got: Vec<_> = stage.take_results().into_iter().map(|r| r.result).collect();

        let mut sequential = Verifier::new(plan, edge.public.clone(), op.public.clone());
        let want: Vec<_> = batch
            .iter()
            .map(|bytes| sequential.verify(&PocMsg::decode(bytes).unwrap()))
            .collect();
        assert_eq!(got, want);
        let failed = want.iter().filter(|r| r.is_err()).count();
        assert_eq!(
            (failed, want.last()),
            (11, Some(&Err(VerifyError::Replayed)))
        );
    }

    /// The stage copies what it is handed: a proof submitted from a
    /// pooled read buffer that is recycled, checked out again and
    /// overwritten by the next proof before the batch is judged still
    /// gets its own verdict, and so does the next one.
    #[test]
    fn a_recycled_read_buffer_leaves_a_pending_verdict_alone() {
        let (mut stage, rels, pocs) = stage_with(4, 1, 2);
        let mut forged = pocs[0][1].encode();
        let last = forged.len() - 2 * crate::messages::NONCE_LEN - 1;
        forged[last] ^= 1;
        let pool = tlc_net::bufpool::BufferPool::new(1, 2048);
        let mut buf = pool.checkout().unwrap();
        buf.extend_from_slice(&pocs[0][0].encode());
        let first = buf.as_ptr();
        stage.submit(rels[0], 0, &buf);
        drop(buf);
        let mut buf = pool.checkout().unwrap();
        assert_eq!(buf.as_ptr(), first, "the pool's one buffer, again");
        buf.extend_from_slice(&forged);
        stage.submit(rels[0], 1, &buf);
        drop(buf);
        stage.flush();
        let got: Vec<_> = stage.take_results().into_iter().map(|r| r.result).collect();
        assert!(got[0].is_ok(), "{:?}", got[0]);
        assert_eq!(
            got[1],
            Err(VerifyError::Signature(MessageError::BadSignature))
        );
    }

    #[test]
    fn an_unregistered_relationship_is_rejected_per_proof() {
        let (mut stage, _, pocs) = stage_with(2, 1, 2);
        let stranger = RelationshipId::from_raw(9);
        for (tag, poc) in pocs[0].iter().enumerate() {
            stage.submit(stranger, tag as u64, &poc.encode());
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
