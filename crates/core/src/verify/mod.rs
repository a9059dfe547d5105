//! Public verification of Proofs-of-Charging — Algorithm 2 (§5.3.3).
//!
//! An independent third party (FCC, a court, an MVNO) accepts a PoC plus
//! the public data plan and both parties' public keys, and checks — without
//! ever seeing the data transfer:
//!
//! 1. both signatures in the chain (unforgeability / undeniability),
//! 2. plan consistency (`T' = T`, `c' = c`),
//! 3. nonce and sequence coherence (replay resistance),
//! 4. that the charged volume replays Algorithm 1's pricing of the
//!    embedded claims.
//!
//! The third-party verifier made none of the signatures and saw none of
//! the messages, so unlike a negotiating endpoint it checks all three,
//! always.
//!
//! **One chain-verify path.** [`PocMsg::verify_chain`] — stateless
//! [`verify_poc`], [`Verifier::verify`], and the endpoint's full-chain
//! fallback — is [`messages::verify_chains_batch_prehashed`] over a
//! batch of one, so a single proof's three signatures share one kernel
//! call and the PoC → role-coherence → CDA → CDR precedence lives in one
//! function.
//! That function flattens a batch of proofs into 3·N signature requests
//! for one [`tlc_crypto::pkcs1::verify_batch`] call and replays the role
//! checks and error precedence per item after the crypto returns.
//! [`Verifier::verify_batch`] and [`verify_poc_batch`] hash their
//! batches through [`messages::chain_digests_many`] (see [`stage`] for
//! why hashing waits for the batch).
//!
//! **Replay-cache equivalence.** [`Verifier::verify_batch_prehashed`]
//! leaves out of the RSA batch every proof whose nonce pair is already
//! in the replay window when the batch arrives (it is `Replayed`
//! whatever its signatures say: a replay flood buys a hash lookup per
//! proof, not three signature checks), precomputes the crypto verdicts
//! of the rest (stateless, so order-independent), then walks the batch
//! sequentially against the window: seen-check per item,
//! insert-on-accept with FIFO eviction. This is exactly the sequential
//! [`Verifier::verify`] loop — including within-batch duplicates, where
//! a duplicate after an accepted copy reports `Replayed` but one after a
//! rejected copy reports its own verdict, and including the corner
//! where an accept earlier in the batch evicts a held pair from a full
//! window, whose proof is then judged on the spot as the sequential walk
//! would. `replayed_proofs_stay_out_of_the_rsa_batch` counts the
//! signatures handed to the RSA batch, not time.
//!
//! The window (`ReplayWindow`) holds each nonce pair once: a ring in
//! insertion order, whose FIFO eviction overwrites the oldest slot, plus
//! an open-addressing index of `u32` ring positions (power-of-two size,
//! at most half full, linear probing with backward-shift deletion, keyed
//! by a per-window `RandomState` so a peer choosing nonces cannot aim
//! them at one probe sequence) — 32 MiB of pairs and 8 MiB of index at
//! the [default capacity](DEFAULT_REPLAY_CAPACITY) of 2^20. A model
//! proptest holds it to a `HashSet` + `VecDeque` pair: identical
//! `contains` answers, `len` and eviction order over arbitrary
//! interleavings at capacities 1–64.

use crate::messages::{self, MessageError, Nonce, PocDigests, PocMsg};
use crate::plan::{charge_for, DataPlan, UsagePair};
use std::hash::{BuildHasher, RandomState};
use tlc_crypto::{CryptoError, PublicKey};

pub mod remote;
pub mod service;
pub mod stage;

/// Why a PoC failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A signature in the chain failed (line 1's decryption step).
    Signature(MessageError),
    /// The PoC references a different data plan (Algorithm 2 line 2).
    PlanMismatch,
    /// Clear-text nonces disagree with the signed nonces (line 5).
    NonceMismatch,
    /// Sequence numbers of the accepted claim pair disagree (line 5).
    SequenceMismatch,
    /// The charge does not replay from the claims (lines 8–9).
    ChargeMismatch {
        /// Charge stated in the PoC.
        claimed: u64,
        /// Charge recomputed from the claims.
        expected: u64,
    },
    /// This PoC's nonce pair was already presented (replay).
    Replayed,
    /// The proof was submitted under an id the table never issued.
    Unregistered,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Signature(e) => write!(f, "signature chain invalid: {e}"),
            VerifyError::PlanMismatch => write!(f, "data plan inconsistent with agreement"),
            VerifyError::NonceMismatch => write!(f, "clear nonces disagree with signed nonces"),
            VerifyError::SequenceMismatch => write!(f, "sequence numbers incoherent"),
            VerifyError::ChargeMismatch { claimed, expected } => {
                write!(f, "charge {claimed} does not replay (expected {expected})")
            }
            VerifyError::Replayed => write!(f, "proof already presented (replay)"),
            VerifyError::Unregistered => {
                write!(f, "relationship not registered with the verifier")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The verdict on a valid PoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The charging volume the proof commits both parties to.
    pub charge: u64,
    /// The edge's signed claim.
    pub edge_claim: u64,
    /// The operator's signed claim.
    pub operator_claim: u64,
    /// Rounds the negotiation took (from the accepted sequence number).
    pub rounds: u64,
}

/// Algorithm 2 lines 2–9: the cheap non-crypto checks, shared by the
/// sequential and batched paths (the signature chain — line 1 — is
/// checked by the caller first).
fn check_poc_body<S: AsRef<[u8]>>(
    poc: &PocMsg<S>,
    plan: &DataPlan,
) -> Result<Verdict, VerifyError> {
    // Lines 2–4: plan consistency.
    if poc.plan != *plan || poc.cda.plan != *plan || poc.cda.peer_cdr.plan != *plan {
        return Err(VerifyError::PlanMismatch);
    }

    // Lines 5–7: nonce and sequence coherence.
    if poc.nonce_e != poc.signed_edge_nonce() || poc.nonce_o != poc.signed_operator_nonce() {
        return Err(VerifyError::NonceMismatch);
    }
    // The CDA echoes the round of the CDR it accepts: s_e == s_o.
    if poc.cda.seq != poc.cda.peer_cdr.seq {
        return Err(VerifyError::SequenceMismatch);
    }

    // Lines 8–9: replay the pricing.
    let claims = UsagePair {
        edge: poc.edge_usage(),
        operator: poc.operator_usage(),
    };
    let expected = charge_for(claims, plan.loss_weight);
    if poc.charge != expected {
        return Err(VerifyError::ChargeMismatch {
            claimed: poc.charge,
            expected,
        });
    }

    Ok(Verdict {
        charge: poc.charge,
        edge_claim: claims.edge,
        operator_claim: claims.operator,
        rounds: poc.cda.seq,
    })
}

/// Stateless single-proof verification — Algorithm 2 verbatim.
pub fn verify_poc(
    poc: &PocMsg,
    plan: &DataPlan,
    edge_key: &PublicKey,
    operator_key: &PublicKey,
) -> Result<Verdict, VerifyError> {
    // Line 1: "decrypt" — check the full signature chain.
    poc.verify_chain(edge_key, operator_key)
        .map_err(VerifyError::Signature)?;
    check_poc_body(poc, plan)
}

/// Batched Algorithm 2 over pre-hashed chains: all RSA verifications of
/// the batch run through the multi-lane kernel, and element `i`'s result
/// equals `verify_poc(items[i].0, ..)` exactly.
pub fn verify_poc_batch_prehashed<S: AsRef<[u8]>>(
    items: &[(&PocMsg<S>, &PocDigests)],
    plan: &DataPlan,
    edge_key: &PublicKey,
    operator_key: &PublicKey,
) -> Vec<Result<Verdict, VerifyError>> {
    let chains = messages::verify_chains_batch_prehashed(items, edge_key, operator_key);
    items
        .iter()
        .zip(chains)
        .map(|((poc, _), chain)| {
            chain.map_err(VerifyError::Signature)?;
            check_poc_body(poc, plan)
        })
        .collect()
}

/// [`verify_poc_batch_prehashed`] that hashes the chains itself, all
/// of them in one [`messages::chain_digests_many`] call.
pub fn verify_poc_batch(
    pocs: &[&PocMsg],
    plan: &DataPlan,
    edge_key: &PublicKey,
    operator_key: &PublicKey,
) -> Vec<Result<Verdict, VerifyError>> {
    let digests = batch_digests(pocs);
    let items: Vec<(&PocMsg, &PocDigests)> = pocs.iter().copied().zip(digests.iter()).collect();
    verify_poc_batch_prehashed(&items, plan, edge_key, operator_key)
}

/// The chain digests of `pocs`, from their encodings, in one
/// [`messages::chain_digests_many`] call.
fn batch_digests(pocs: &[&PocMsg]) -> Vec<PocDigests> {
    let encodings: Vec<Vec<u8>> = pocs.iter().map(|p| p.encode()).collect();
    let views: Vec<&[u8]> = encodings.iter().map(Vec::as_slice).collect();
    messages::chain_digests_many(&views)
}

/// Default retention window of the replay cache: one charging cycle per
/// hour for over a century for a single relationship, while bounding a
/// long-running service at 40 MiB per relationship once the window is
/// full (32 MiB of nonce pairs plus an 8 MiB index over them).
pub const DEFAULT_REPLAY_CAPACITY: usize = 1 << 20;

/// Marks a free slot of [`ReplayWindow`]'s index.
const NO_POS: u32 = u32::MAX;

/// Slots in a new window's index (a power of two).
const MIN_INDEX_SLOTS: usize = 8;

/// The seen-nonce cache behind replay rejection: the `(edge, operator)`
/// nonce pairs of accepted proofs, bounded — once `capacity` pairs are
/// held, each insert evicts the *oldest* (deterministic FIFO).
///
/// Every pair is stored once, in `ring`; membership goes through an
/// open-addressing table of ring positions (linear probing, at most half
/// full, backward-shift deletion), so a held pair costs 32 bytes plus
/// 8–16 of index.
struct ReplayWindow {
    /// Held pairs; insertion order until full, then a ring whose oldest
    /// pair sits at `head`.
    ring: Vec<(Nonce, Nonce)>,
    /// Once full: the position the next insert overwrites.
    head: usize,
    /// Ring position of the pair hashed to each slot, or [`NO_POS`].
    /// Length is a power of two and at least `2 * ring.len()`.
    index: Vec<u32>,
    /// Keyed per window, so a peer choosing nonces cannot aim them at
    /// one probe sequence.
    hasher: RandomState,
    capacity: usize,
}

impl ReplayWindow {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay cache needs at least one slot");
        assert!(
            capacity < NO_POS as usize,
            "replay cache positions are indexed as u32"
        );
        ReplayWindow {
            ring: Vec::new(),
            head: 0,
            index: vec![NO_POS; MIN_INDEX_SLOTS],
            hasher: RandomState::new(),
            capacity,
        }
    }

    fn contains<S>(&self, poc: &PocMsg<S>) -> bool {
        let key = (poc.nonce_e, poc.nonce_o);
        let mut slot = self.home_slot(&key);
        loop {
            match self.index[slot] {
                NO_POS => return false,
                pos if self.ring[pos as usize] == key => return true,
                _ => slot = self.next_slot(slot),
            }
        }
    }

    /// Records an accepted proof's pair; callers have just seen
    /// [`contains`](Self::contains) deny it.
    fn insert<S>(&mut self, poc: &PocMsg<S>) {
        let key = (poc.nonce_e, poc.nonce_o);
        let pos = if self.ring.len() < self.capacity {
            self.ring.push(key);
            self.ring.len() - 1
        } else {
            let pos = self.head;
            self.unindex(pos);
            self.ring[pos] = key;
            self.head = (pos + 1) % self.capacity;
            pos
        };
        if 2 * self.ring.len() > self.index.len() {
            self.index = vec![NO_POS; 2 * self.index.len()];
            (0..self.ring.len()).for_each(|pos| self.index_pos(pos));
        } else {
            self.index_pos(pos);
        }
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slot a pair's probe sequence starts at.
    fn home_slot(&self, key: &(Nonce, Nonce)) -> usize {
        self.hasher.hash_one(key) as usize & (self.index.len() - 1)
    }

    fn next_slot(&self, slot: usize) -> usize {
        (slot + 1) & (self.index.len() - 1)
    }

    /// Enters ring position `pos` into the first free slot of its pair's
    /// probe sequence (one exists: the index is at most half full).
    fn index_pos(&mut self, pos: usize) {
        let mut slot = self.home_slot(&self.ring[pos]);
        while self.index[slot] != NO_POS {
            slot = self.next_slot(slot);
        }
        self.index[slot] = pos as u32;
    }

    /// Removes ring position `pos` from the index, then closes the gap:
    /// each later entry of the run moves back into the hole unless that
    /// would put it before its own home slot, so no probe sequence ever
    /// crosses a free slot it did not cross when the entry went in.
    fn unindex(&mut self, pos: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home_slot(&self.ring[pos]);
        while self.index[hole] != pos as u32 {
            if self.index[hole] == NO_POS {
                debug_assert!(false, "held position {pos} missing from the index");
                return;
            }
            hole = self.next_slot(hole);
        }
        let mut slot = self.next_slot(hole);
        while self.index[slot] != NO_POS {
            let home = self.home_slot(&self.ring[self.index[slot] as usize]);
            // Cyclic distances back from `slot`: the entry may move iff
            // its home is at or before the hole.
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[slot];
                hole = slot;
            }
            slot = self.next_slot(slot);
        }
        self.index[hole] = NO_POS;
    }
}

/// A stateful verifier service: Algorithm 2 plus a seen-nonce cache so an
/// outdated PoC cannot be presented twice (the paper's replay defence).
///
/// The cache is a bounded FIFO window of accepted nonce pairs. Replay
/// rejection is exact within the retention window; proofs older than the
/// window are outside the service's guarantee, exactly like any
/// log-retention policy.
pub struct Verifier {
    plan: DataPlan,
    edge_key: PublicKey,
    operator_key: PublicKey,
    window: ReplayWindow,
    accepted: u64,
    rejected: u64,
}

impl Verifier {
    /// Creates a verifier for one (plan, edge, operator) relationship
    /// with the [default replay window](DEFAULT_REPLAY_CAPACITY).
    pub fn new(plan: DataPlan, edge_key: PublicKey, operator_key: PublicKey) -> Self {
        Self::with_capacity(plan, edge_key, operator_key, DEFAULT_REPLAY_CAPACITY)
    }

    /// Creates a verifier whose replay cache retains at most `capacity`
    /// accepted nonce pairs (FIFO-evicted beyond that).
    pub fn with_capacity(
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        capacity: usize,
    ) -> Self {
        Verifier {
            plan,
            edge_key,
            operator_key,
            window: ReplayWindow::new(capacity),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Verifies one proof, enforcing nonce freshness across calls (within
    /// the retention window).
    pub fn verify(&mut self, poc: &PocMsg) -> Result<Verdict, VerifyError> {
        if self.window.contains(poc) {
            // Replay check precedes crypto — same short-circuit as the
            // batched path.
            self.rejected += 1;
            return Err(VerifyError::Replayed);
        }
        let judged = verify_poc(poc, &self.plan, &self.edge_key, &self.operator_key);
        self.commit(poc, judged)
    }

    /// Verifies a batch of proofs with the multi-lane RSA kernel. The
    /// results (and the verifier's state afterwards) are exactly what a
    /// [`verify`](Self::verify) loop over `pocs` in order would produce:
    /// the replay cache is walked sequentially, so a proof duplicated
    /// *within* the batch is `Replayed` iff its first occurrence was
    /// accepted (the crypto verdicts themselves are stateless, so
    /// computing them up front does not change any outcome).
    pub fn verify_batch(&mut self, pocs: &[&PocMsg]) -> Vec<Result<Verdict, VerifyError>> {
        let digests = batch_digests(pocs);
        let items: Vec<(&PocMsg, &PocDigests)> = pocs.iter().copied().zip(digests.iter()).collect();
        self.verify_batch_prehashed(&items)
    }

    /// [`verify_batch`](Self::verify_batch) over chains hashed elsewhere
    /// (by [`stage::Stage`], from the batch's bytes, before it takes this
    /// verifier's lock).
    ///
    /// A proof whose nonce pair is already in the replay window is
    /// `Replayed` whatever its signatures say, so it is left out of the
    /// RSA batch: a replay flood buys a hash lookup per proof, not three
    /// signature checks.
    pub fn verify_batch_prehashed<S: AsRef<[u8]>>(
        &mut self,
        items: &[(&PocMsg<S>, &PocDigests)],
    ) -> Vec<Result<Verdict, VerifyError>> {
        let held: Vec<bool> = items
            .iter()
            .map(|(poc, _)| self.window.contains(poc))
            .collect();
        let fresh: Vec<(&PocMsg<S>, &PocDigests)> = items
            .iter()
            .zip(&held)
            .filter_map(|(item, held)| (!held).then_some(*item))
            .collect();
        let mut judged =
            verify_poc_batch_prehashed(&fresh, &self.plan, &self.edge_key, &self.operator_key)
                .into_iter();
        items
            .iter()
            .zip(held)
            .map(|(item, held)| {
                let poc = item.0;
                // Taken before the window is consulted: every fresh
                // item owns one slot of `judged`, replayed or not.
                let stateless = if held { None } else { judged.next() };
                if self.window.contains(poc) {
                    self.rejected += 1;
                    return Err(VerifyError::Replayed);
                }
                let stateless = stateless.or_else(|| {
                    // Held when the batch started, evicted by an accept
                    // since (a full window): judged now, as the
                    // sequential walk would.
                    let (edge, op) = (&self.edge_key, &self.operator_key);
                    verify_poc_batch_prehashed(&[*item], &self.plan, edge, op).pop()
                });
                // One verdict per item handed down; default-deny if not.
                let missing = MessageError::Crypto(CryptoError::Internal);
                self.commit(
                    poc,
                    stateless.unwrap_or(Err(VerifyError::Signature(missing))),
                )
            })
            .collect()
    }

    /// Applies one stateless verdict to the replay cache and counters.
    fn commit<S>(
        &mut self,
        poc: &PocMsg<S>,
        judged: Result<Verdict, VerifyError>,
    ) -> Result<Verdict, VerifyError> {
        match judged {
            Ok(v) => {
                self.window.insert(poc);
                self.accepted += 1;
                Ok(v)
            }
            Err(e) => {
                self.rejected += 1;
                Err(e)
            }
        }
    }

    /// Proofs accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Proofs rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Nonce pairs currently retained for replay rejection.
    pub fn replay_window_len(&self) -> usize {
        self.window.len()
    }

    /// Maximum nonce pairs retained.
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_negotiation, Endpoint};
    use crate::strategy::{Knowledge, OptimalStrategy, Role};
    use tlc_crypto::KeyPair;

    struct Fixture {
        plan: DataPlan,
        edge: KeyPair,
        op: KeyPair,
        poc: PocMsg,
    }

    fn negotiate_proof(sent: u64, received: u64) -> Fixture {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 31).unwrap();
        let op = KeyPair::generate_for_seed(1024, 32).unwrap();
        let mut e = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: sent,
                inferred_peer_truth: received,
            },
            Box::new(OptimalStrategy),
            edge.private.clone(),
            op.public.clone(),
            [0xAB; 16],
            32,
        );
        let mut o = Endpoint::new(
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: received,
                inferred_peer_truth: sent,
            },
            Box::new(OptimalStrategy),
            op.private.clone(),
            edge.public.clone(),
            [0xCD; 16],
            32,
        );
        let (poc, _) = run_negotiation(&mut o, &mut e).unwrap();
        Fixture {
            plan,
            edge,
            op,
            poc,
        }
    }

    #[test]
    fn valid_poc_verifies() {
        let f = negotiate_proof(1000, 800);
        let v = verify_poc(&f.poc, &f.plan, &f.edge.public, &f.op.public).unwrap();
        assert_eq!(v.charge, 900);
        assert_eq!(v.edge_claim, 800); // optimal: edge claims x̂_o
        assert_eq!(v.operator_claim, 1000);
        assert_eq!(v.rounds, 1);
    }

    #[test]
    fn wrong_plan_rejected() {
        let f = negotiate_proof(1000, 800);
        let other_plan = DataPlan {
            loss_weight: crate::plan::LossWeight::from_f64(0.25),
            ..f.plan
        };
        assert_eq!(
            verify_poc(&f.poc, &other_plan, &f.edge.public, &f.op.public),
            Err(VerifyError::PlanMismatch)
        );
    }

    #[test]
    fn tampered_charge_rejected() {
        let f = negotiate_proof(1000, 800);
        let mut poc = f.poc.clone();
        poc.charge += 100;
        // Signature breaks first (charge is signed).
        assert!(matches!(
            verify_poc(&poc, &f.plan, &f.edge.public, &f.op.public),
            Err(VerifyError::Signature(_))
        ));
    }

    #[test]
    fn swapped_clear_nonces_rejected() {
        let f = negotiate_proof(1000, 800);
        let mut poc = f.poc.clone();
        std::mem::swap(&mut poc.nonce_e, &mut poc.nonce_o);
        // Clear nonces are outside the signature; the nonce check catches it.
        assert_eq!(
            verify_poc(&poc, &f.plan, &f.edge.public, &f.op.public),
            Err(VerifyError::NonceMismatch)
        );
    }

    #[test]
    fn verifier_detects_replay() {
        let f = negotiate_proof(1000, 800);
        let mut v = Verifier::new(f.plan, f.edge.public.clone(), f.op.public.clone());
        v.verify(&f.poc).unwrap();
        assert_eq!(v.verify(&f.poc), Err(VerifyError::Replayed));
        assert_eq!(v.accepted(), 1);
        assert_eq!(v.rejected(), 1);
    }

    #[test]
    fn verifier_accepts_distinct_proofs() {
        let f1 = negotiate_proof(1000, 800);
        // Different nonces: re-run the negotiation with different keys' nonces
        // by regenerating (fixture nonces are fixed, so craft a second with
        // different usage which yields different signatures but same nonces —
        // instead vary the nonce by re-signing).
        let f2 = {
            let mut f2 = negotiate_proof(2000, 1500);
            // Give it distinct nonces to exercise the cache key.
            f2.poc.nonce_e = [0x01; 16];
            f2.poc.nonce_o = [0x02; 16];
            f2
        };
        let mut v = Verifier::new(f1.plan, f1.edge.public.clone(), f1.op.public.clone());
        v.verify(&f1.poc).unwrap();
        // f2's nonces differ so the replay cache does not trip; the
        // signature check fails instead (tampered nonce fields are fine —
        // they're outside the signature — but the *signed* nonces differ).
        assert!(v.verify(&f2.poc).is_err());
        assert_eq!(v.rejected(), 1);
    }

    #[test]
    fn bounded_cache_evicts_fifo_and_stays_correct_in_window() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 31).unwrap();
        let op = KeyPair::generate_for_seed(1024, 32).unwrap();
        let negotiate = |ne: u8, no: u8| {
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
        };
        let (a, b, c) = (negotiate(1, 2), negotiate(3, 4), negotiate(5, 6));

        let mut v = Verifier::with_capacity(plan, edge.public.clone(), op.public.clone(), 2);
        v.verify(&a).unwrap();
        v.verify(&b).unwrap();
        assert_eq!(v.replay_window_len(), 2);
        // Within the window, replays are rejected.
        assert_eq!(v.verify(&a), Err(VerifyError::Replayed));
        // A third acceptance evicts the oldest entry (a), not b.
        v.verify(&c).unwrap();
        assert_eq!(v.replay_window_len(), 2);
        assert_eq!(v.verify(&b), Err(VerifyError::Replayed));
        assert_eq!(v.verify(&c), Err(VerifyError::Replayed));
        // `a` aged out of the retention window, so it verifies again —
        // the documented bound of a finite cache.
        v.verify(&a).unwrap();
        assert_eq!(v.capacity(), 2);
        assert_eq!(v.accepted(), 4);
        assert_eq!(v.rejected(), 3);
    }

    fn negotiate_with_nonces(
        plan: &DataPlan,
        edge: &KeyPair,
        op: &KeyPair,
        ne: u8,
        no: u8,
    ) -> PocMsg {
        let mut e = Endpoint::new(
            Role::Edge,
            *plan,
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
            *plan,
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
    fn batch_verify_matches_sequential_walk_exactly() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 31).unwrap();
        let op = KeyPair::generate_for_seed(1024, 32).unwrap();
        let a = negotiate_with_nonces(&plan, &edge, &op, 1, 2);
        let b = negotiate_with_nonces(&plan, &edge, &op, 3, 4);
        let c = negotiate_with_nonces(&plan, &edge, &op, 5, 6);
        let mut tampered = negotiate_with_nonces(&plan, &edge, &op, 7, 8);
        tampered.charge += 1; // breaks the (signed) charge
        let mut flipped = negotiate_with_nonces(&plan, &edge, &op, 9, 10);
        flipped.signature[9] ^= 0x40; // breaks the signature, not the body

        // `a` duplicated after acceptance → Replayed; `tampered`
        // duplicated after rejection → judged on its own (Signature).
        let batch = [&a, &b, &a, &tampered, &c, &tampered, &flipped];

        let mut v_batch = Verifier::new(plan, edge.public.clone(), op.public.clone());
        let got = v_batch.verify_batch(&batch);
        let mut v_seq = Verifier::new(plan, edge.public.clone(), op.public.clone());
        let want: Vec<_> = batch.iter().map(|p| v_seq.verify(p)).collect();
        assert_eq!(got, want);
        assert_eq!(v_batch.accepted(), v_seq.accepted());
        assert_eq!(v_batch.rejected(), v_seq.rejected());
        assert_eq!(v_batch.replay_window_len(), v_seq.replay_window_len());

        assert!(got[0].is_ok() && got[1].is_ok() && got[4].is_ok());
        assert_eq!(got[2], Err(VerifyError::Replayed));
        assert!(matches!(got[3], Err(VerifyError::Signature(_))));
        assert!(matches!(got[5], Err(VerifyError::Signature(_))));
        assert!(matches!(got[6], Err(VerifyError::Signature(_))));
    }

    #[test]
    fn batch_rejects_cross_call_replays() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 31).unwrap();
        let op = KeyPair::generate_for_seed(1024, 32).unwrap();
        let a = negotiate_with_nonces(&plan, &edge, &op, 0x0A, 0x0B);
        let b = negotiate_with_nonces(&plan, &edge, &op, 0x0C, 0x0D);
        let mut v = Verifier::new(plan, edge.public.clone(), op.public.clone());
        v.verify(&a).unwrap();
        let got = v.verify_batch(&[&a, &b]);
        assert_eq!(got[0], Err(VerifyError::Replayed));
        assert!(got[1].is_ok());
        assert_eq!((v.accepted(), v.rejected()), (2, 1));
    }

    #[test]
    fn replayed_proofs_stay_out_of_the_rsa_batch() {
        use crate::messages::SIGNATURES_HANDED_DOWN;
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 31).unwrap();
        let op = KeyPair::generate_for_seed(1024, 32).unwrap();
        let seen = negotiate_with_nonces(&plan, &edge, &op, 1, 2);
        let seen_too = negotiate_with_nonces(&plan, &edge, &op, 3, 4);
        let fresh = negotiate_with_nonces(&plan, &edge, &op, 5, 6);
        let fresh_too = negotiate_with_nonces(&plan, &edge, &op, 7, 8);
        // A replay whose signature no longer verifies is still a replay.
        let mut seen_flipped = seen_too.clone();
        seen_flipped.signature[9] ^= 0x40;
        let batch = [&fresh, &seen, &seen_flipped, &fresh_too, &fresh];

        let primed = || {
            let mut v = Verifier::new(plan, edge.public.clone(), op.public.clone());
            v.verify(&seen).unwrap();
            v.verify(&seen_too).unwrap();
            v
        };
        // The parent's answers: a sequential walk, replay check first.
        let mut v_seq = primed();
        let want: Vec<_> = batch.iter().map(|p| v_seq.verify(p)).collect();
        assert_eq!(want[1], Err(VerifyError::Replayed));
        assert_eq!(want[2], Err(VerifyError::Replayed));
        assert_eq!(want[4], Err(VerifyError::Replayed), "in-batch duplicate");

        let mut v_batch = primed();
        let before = SIGNATURES_HANDED_DOWN.with(|n| n.get());
        let got = v_batch.verify_batch(&batch);
        let handed_down = SIGNATURES_HANDED_DOWN.with(|n| n.get()) - before;
        assert_eq!(got, want);
        assert_eq!(
            (v_batch.accepted(), v_batch.rejected()),
            (v_seq.accepted(), v_seq.rejected())
        );
        // Three signatures for each proof not in the window when the
        // batch arrived (the in-batch duplicate is only decided at
        // commit), none for the two that were.
        assert_eq!(handed_down, 3 * 3);
    }

    #[test]
    fn replay_evicted_mid_batch_is_judged_like_the_sequential_walk() {
        let plan = DataPlan::paper_default();
        let edge = KeyPair::generate_for_seed(1024, 31).unwrap();
        let op = KeyPair::generate_for_seed(1024, 32).unwrap();
        let a = negotiate_with_nonces(&plan, &edge, &op, 1, 2);
        let b = negotiate_with_nonces(&plan, &edge, &op, 3, 4);
        let c = negotiate_with_nonces(&plan, &edge, &op, 5, 6);
        let primed = || {
            let mut v = Verifier::with_capacity(plan, edge.public.clone(), op.public.clone(), 2);
            v.verify(&a).unwrap();
            v.verify(&b).unwrap();
            v
        };
        // Accepting `c` evicts `a` from the two-slot window, so the `a`
        // behind it is outside the retention guarantee and verifies.
        let batch = [&c, &a, &b];
        let mut v_seq = primed();
        let want: Vec<_> = batch.iter().map(|p| v_seq.verify(p)).collect();
        assert!(want[1].is_ok());
        let mut v_batch = primed();
        assert_eq!(v_batch.verify_batch(&batch), want);
        assert_eq!(v_batch.replay_window_len(), v_seq.replay_window_len());
    }

    /// The window [`ReplayWindow`] replaced — every pair held twice, in a
    /// set and in a queue — kept as the oracle for its semantics.
    struct ModelWindow {
        seen: std::collections::HashSet<(Nonce, Nonce)>,
        order: std::collections::VecDeque<(Nonce, Nonce)>,
        capacity: usize,
    }

    impl ModelWindow {
        fn contains(&self, poc: &PocMsg) -> bool {
            self.seen.contains(&(poc.nonce_e, poc.nonce_o))
        }

        /// Returns the pair this insert evicted.
        fn insert(&mut self, poc: &PocMsg) -> Option<(Nonce, Nonce)> {
            let key = (poc.nonce_e, poc.nonce_o);
            let mut evicted = None;
            if self.order.len() == self.capacity {
                evicted = self.order.pop_front();
                if let Some(oldest) = &evicted {
                    self.seen.remove(oldest);
                }
            }
            self.seen.insert(key);
            self.order.push_back(key);
            evicted
        }
    }

    /// A proof that is nothing but nonce pair number `id` (no signatures:
    /// the window reads only the clear nonces). Ids `2k` and `2k + 1`
    /// share their edge nonce.
    fn pair(id: u64) -> PocMsg {
        let plan = DataPlan::paper_default();
        let (role, seq, usage, signature) = (Role::Edge, 1, 0, Vec::new());
        let mut nonce_e = [0u8; 16];
        nonce_e[4..12].copy_from_slice(&(id / 2).to_be_bytes());
        PocMsg {
            role,
            plan,
            charge: 0,
            cda: crate::messages::CdaMsg {
                role,
                plan,
                seq,
                nonce: nonce_e,
                usage,
                peer_cdr: crate::messages::CdrMsg {
                    role,
                    plan,
                    seq,
                    nonce: nonce_e,
                    usage,
                    signature: signature.clone(),
                },
                signature: signature.clone(),
            },
            nonce_e,
            nonce_o: [(id % 2) as u8; 16],
            signature,
        }
    }

    proptest::proptest! {
        #[test]
        fn replay_window_matches_the_set_and_queue_it_replaced(
            steps in proptest::collection::vec(proptest::prelude::any::<u64>(), 1200..1600),
        ) {
            for capacity in [1usize, 2, 3, 7, 8, 64] {
                let mut window = ReplayWindow::new(capacity);
                let mut model = ModelWindow {
                    seen: Default::default(),
                    order: Default::default(),
                    capacity,
                };
                // Ids handed out so far; `evicted` are those pushed out.
                let mut fresh = 0u64;
                let mut evicted: Vec<(Nonce, Nonce)> = Vec::new();
                let of = |(nonce_e, nonce_o): (Nonce, Nonce)| PocMsg {
                    nonce_e,
                    nonce_o,
                    ..pair(0)
                };
                for &step in &steps {
                    let pick = (step >> 8) as usize;
                    let poc = match step % 4 {
                        2 if !model.order.is_empty() => of(model.order[pick % model.order.len()]),
                        3 if !evicted.is_empty() => of(evicted[pick % evicted.len()]),
                        _ => {
                            fresh += 1;
                            pair(fresh)
                        }
                    };
                    let held = model.contains(&poc);
                    proptest::prop_assert_eq!(window.contains(&poc), held);
                    // As the verifiers do: only a pair just denied goes in.
                    if !held && step & 0x30 != 0 {
                        window.insert(&poc);
                        let out = model.insert(&poc);
                        // Eviction order: exactly the model's oldest left,
                        // and its new oldest and newest are held.
                        let ends = model.order.front().into_iter().chain(model.order.back());
                        for probe in out.iter().chain(ends) {
                            let probe = of(*probe);
                            proptest::prop_assert_eq!(
                                window.contains(&probe),
                                model.contains(&probe)
                            );
                        }
                        evicted.extend(out);
                    }
                    proptest::prop_assert_eq!(window.len(), model.order.len());
                    proptest::prop_assert!(window.index.len() >= 2 * window.len());
                }
                for id in 1..=fresh {
                    let poc = pair(id);
                    let (got, want) = (window.contains(&poc), model.contains(&poc));
                    proptest::prop_assert_eq!(got, want, "id {}", id);
                }
                // Long enough to mean something: the ring wrapped several
                // times and the index outgrew its first allocation.
                proptest::prop_assert!(fresh as usize > 4 * capacity);
                let grown = (2 * capacity).next_power_of_two().max(MIN_INDEX_SLOTS);
                proptest::prop_assert_eq!(window.index.len(), grown);
            }
        }
    }

    #[test]
    fn eviction_shifts_a_probe_run_back_across_the_index_wrap() {
        // Three pairs whose probe sequences all start at the last slot of
        // the 8-slot index fill slots 7, 0 and 1. Evicting the first must
        // move the other two back — one of them from slot 0 to slot 7 —
        // or their lookups would stop at the freed slot.
        let mut window = ReplayWindow::new(3);
        let last = MIN_INDEX_SLOTS - 1;
        fn homed(w: &ReplayWindow, slot: usize) -> impl Iterator<Item = PocMsg> + '_ {
            (1..)
                .map(pair)
                .filter(move |p| w.home_slot(&(p.nonce_e, p.nonce_o)) == slot)
        }
        let run: Vec<PocMsg> = homed(&window, last).take(3).collect();
        let elsewhere = homed(&window, 3).next().unwrap();
        run.iter().for_each(|p| window.insert(p));
        let slots = |w: &ReplayWindow| [w.index[last], w.index[0], w.index[1], w.index[2]];
        assert_eq!(slots(&window), [0, 1, 2, NO_POS]);

        window.insert(&elsewhere);
        assert_eq!(slots(&window), [1, 2, NO_POS, NO_POS]);
        assert_eq!(
            window.index[3], 0,
            "the newcomer took the evicted ring position"
        );
        assert!(!window.contains(&run[0]));
        assert!(window.contains(&run[1]) && window.contains(&run[2]));
        assert!(window.contains(&elsewhere));
        assert_eq!(window.len(), 3);
    }

    #[test]
    fn forged_poc_without_private_keys_impossible() {
        // An operator alone cannot fabricate a PoC for a higher charge:
        // it would need the edge's signature over a CDA/CDR it never made.
        let f = negotiate_proof(1000, 800);
        let mallory = KeyPair::generate_for_seed(1024, 666).unwrap();
        // Re-sign the PoC body with Mallory's key.
        let forged = PocMsg::sign(
            Role::Operator,
            f.plan,
            1_000_000,
            f.poc.cda.clone(),
            f.poc.nonce_e,
            f.poc.nonce_o,
            &mallory.private,
        )
        .unwrap();
        assert!(matches!(
            verify_poc(&forged, &f.plan, &f.edge.public, &f.op.public),
            Err(VerifyError::Signature(_))
        ));
    }
}
