//! Signed TLC protocol messages: CDR, CDA, and PoC (§5.3.2).
//!
//! ```text
//! CDR_p = {T, c, s_p, n_p, x_p}K⁻_p
//! CDA_p = {T, c, s_p, n_p, x_p, CDR_peer}K⁻_p
//! PoC   = {T, c, x, CDA_peer}K⁻_p || n_e || n_o
//! ```
//!
//! Every message carries an RSA-1024 PKCS#1-v1.5/SHA-256 signature over its
//! canonical encoding, so a PoC embeds a CDA which embeds a CDR — giving
//! the verifier both parties' signatures over the final claims. Wire sizes
//! land where the paper's Fig. 17 table puts them (199 B CDR / 398 B CDA /
//! 796 B PoC with RSA-1024).

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

use crate::plan::{ChargingCycle, DataPlan, LossWeight};
use crate::strategy::Role;
use tlc_crypto::encoding::{put_u16, put_u32, put_u64, Reader};
use tlc_crypto::pkcs1;
use tlc_crypto::sha256;
use tlc_crypto::{CryptoError, PrivateKey, PublicKey};

/// Nonce length in bytes.
pub const NONCE_LEN: usize = 16;

/// A per-negotiation random nonce.
pub type Nonce = [u8; NONCE_LEN];

/// Message type tags on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    /// Charging Data Record.
    Cdr = 1,
    /// Charging Data Acceptance.
    Cda = 2,
    /// Proof of Charging.
    Poc = 3,
}

/// Errors when decoding or authenticating a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// Byte-level decoding failed.
    Malformed(&'static str),
    /// A signature did not verify.
    BadSignature,
    /// Crypto-layer failure.
    Crypto(CryptoError),
}

impl From<CryptoError> for MessageError {
    fn from(e: CryptoError) -> Self {
        match e {
            CryptoError::BadSignature => MessageError::BadSignature,
            other => MessageError::Crypto(other),
        }
    }
}

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageError::Malformed(what) => write!(f, "malformed message: {what}"),
            MessageError::BadSignature => write!(f, "message signature invalid"),
            MessageError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for MessageError {}

/// A failed cursor read as this module's error.
fn need<T>(read: Option<T>, what: &'static str) -> Result<T, MessageError> {
    read.ok_or(MessageError::Malformed(what))
}

fn put_role(buf: &mut Vec<u8>, role: Role) {
    buf.push(match role {
        Role::Edge => 0,
        Role::Operator => 1,
    });
}

fn get_role(r: &mut Reader<'_>) -> Result<Role, MessageError> {
    match need(r.u8(), "missing role")? {
        0 => Ok(Role::Edge),
        1 => Ok(Role::Operator),
        _ => Err(MessageError::Malformed("unknown role")),
    }
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "a loss weight is in [0, 1], so its rounded 1e-4 count is in [0, 10 000]"
)]
pub(crate) fn put_plan(buf: &mut Vec<u8>, plan: &DataPlan) {
    put_u64(buf, plan.cycle.start_secs);
    put_u64(buf, plan.cycle.end_secs);
    // The loss weight as its exact rational, 1e-4 resolution.
    put_u32(buf, (plan.loss_weight.as_f64() * 10_000.0).round() as u32);
}

pub(crate) fn get_plan(r: &mut Reader<'_>) -> Result<DataPlan, MessageError> {
    let start = need(r.u64(), "truncated plan")?;
    let end = need(r.u64(), "truncated plan")?;
    let c_e4 = need(r.u32(), "truncated plan")?;
    let (cycle, loss_weight) = ChargingCycle::try_new(start, end)
        .zip(LossWeight::try_new(c_e4, 10_000))
        .ok_or(MessageError::Malformed("invalid plan fields"))?;
    Ok(DataPlan { cycle, loss_weight })
}

/// Appends a `u16`-length-prefixed byte string: a signature or an
/// embedded message.
fn put_prefixed(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u16(buf, u16::try_from(bytes.len()).unwrap_or(u16::MAX));
    buf.extend_from_slice(bytes);
}

/// Reads what [`put_prefixed`] wrote, borrowed from the input.
fn get_prefixed<'a>(
    r: &mut Reader<'a>,
    header: &'static str,
    value: &'static str,
) -> Result<&'a [u8], MessageError> {
    let len = need(r.u16(), header)?;
    need(r.take(len as usize), value)
}

fn get_signature(r: &mut Reader<'_>) -> Result<Vec<u8>, MessageError> {
    get_prefixed(r, "truncated signature header", "truncated signature").map(<[u8]>::to_vec)
}

/// Checks one signature over `body`: on an IFMA host, one one-lane
/// kernel call on the signature's digits.
fn verify_one(key: &PublicKey, body: &[u8], signature: &[u8]) -> Result<(), MessageError> {
    pkcs1::verify_prehashed(key, &sha256::digest(body), signature)?;
    Ok(())
}

/// A signed Charging Data Record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CdrMsg {
    /// Sender's role.
    pub role: Role,
    /// The data plan the claim is made under.
    pub plan: DataPlan,
    /// Sender's message sequence number (negotiation round of the claim).
    pub seq: u64,
    /// Sender's nonce for this negotiation.
    pub nonce: Nonce,
    /// Claimed usage in bytes (`x_e` or `x_o`).
    pub usage: u64,
    /// RSA signature over the canonical body.
    pub signature: Vec<u8>,
}

impl CdrMsg {
    fn body(&self) -> Vec<u8> {
        // Room for the signature `encode` appends: one allocation either way.
        let mut b = Vec::with_capacity(self.signature.len().saturating_add(64));
        b.push(MsgType::Cdr as u8);
        put_role(&mut b, self.role);
        put_plan(&mut b, &self.plan);
        put_u64(&mut b, self.seq);
        b.extend_from_slice(&self.nonce);
        put_u64(&mut b, self.usage);
        b
    }

    /// Builds and signs a CDR.
    pub fn sign(
        role: Role,
        plan: DataPlan,
        seq: u64,
        nonce: Nonce,
        usage: u64,
        key: &PrivateKey,
    ) -> Result<Self, CryptoError> {
        let mut msg = CdrMsg {
            role,
            plan,
            seq,
            nonce,
            usage,
            signature: Vec::new(),
        };
        msg.signature = pkcs1::sign(key, &msg.body())?;
        Ok(msg)
    }

    /// Verifies the signature against the sender's public key.
    pub fn verify(&self, key: &PublicKey) -> Result<(), MessageError> {
        verify_one(key, &self.body(), &self.signature)
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = self.body();
        put_prefixed(&mut b, &self.signature);
        b
    }

    /// Parses from wire bytes (does not verify the signature).
    pub fn decode(data: &[u8]) -> Result<Self, MessageError> {
        let mut r = Reader::new(data);
        if r.u8() != Some(MsgType::Cdr as u8) {
            return Err(MessageError::Malformed("not a CDR"));
        }
        let msg = CdrMsg {
            role: get_role(&mut r)?,
            plan: get_plan(&mut r)?,
            seq: need(r.u64(), "truncated CDR seq")?,
            nonce: need(r.array(), "truncated nonce")?,
            usage: need(r.u64(), "truncated CDR usage")?,
            signature: get_signature(&mut r)?,
        };
        need(r.finish(), "trailing bytes after CDR")?;
        Ok(msg)
    }
}

/// A signed Charging Data Acceptance: the sender's own claim plus a copy
/// of the peer CDR it accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CdaMsg {
    /// Sender's role.
    pub role: Role,
    /// The data plan.
    pub plan: DataPlan,
    /// Sender's sequence number — echoes the accepted CDR's round.
    pub seq: u64,
    /// Sender's nonce.
    pub nonce: Nonce,
    /// Sender's own claimed usage.
    pub usage: u64,
    /// The peer CDR being accepted (embedded verbatim).
    pub peer_cdr: CdrMsg,
    /// RSA signature over the canonical body.
    pub signature: Vec<u8>,
}

impl CdaMsg {
    fn body(&self) -> Vec<u8> {
        let peer_encoded = self.peer_cdr.encode();
        let mut b = Vec::with_capacity(
            peer_encoded
                .len()
                .saturating_add(self.signature.len())
                .saturating_add(64),
        );
        b.push(MsgType::Cda as u8);
        put_role(&mut b, self.role);
        put_plan(&mut b, &self.plan);
        put_u64(&mut b, self.seq);
        b.extend_from_slice(&self.nonce);
        put_u64(&mut b, self.usage);
        put_prefixed(&mut b, &peer_encoded);
        b
    }

    /// Builds and signs a CDA accepting `peer_cdr`.
    pub fn sign(
        role: Role,
        plan: DataPlan,
        nonce: Nonce,
        usage: u64,
        peer_cdr: CdrMsg,
        key: &PrivateKey,
    ) -> Result<Self, CryptoError> {
        let seq = peer_cdr.seq; // echo the accepted round
        let mut msg = CdaMsg {
            role,
            plan,
            seq,
            nonce,
            usage,
            peer_cdr,
            signature: Vec::new(),
        };
        msg.signature = pkcs1::sign(key, &msg.body())?;
        Ok(msg)
    }

    /// Verifies the CDA's own signature only. Sufficient when the
    /// embedded CDR is byte-equal to one the caller signed itself;
    /// anyone else wants [`CdaMsg::verify`].
    pub(crate) fn verify_outer(&self, sender_key: &PublicKey) -> Result<(), MessageError> {
        verify_one(sender_key, &self.body(), &self.signature)
    }

    /// Verifies the CDA signature *and* the embedded CDR's signature.
    pub fn verify(&self, sender_key: &PublicKey, peer_key: &PublicKey) -> Result<(), MessageError> {
        self.verify_outer(sender_key)?;
        self.peer_cdr.verify(peer_key)
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = self.body();
        put_prefixed(&mut b, &self.signature);
        b
    }

    /// Parses from wire bytes (does not verify signatures).
    pub fn decode(data: &[u8]) -> Result<Self, MessageError> {
        let mut r = Reader::new(data);
        if r.u8() != Some(MsgType::Cda as u8) {
            return Err(MessageError::Malformed("not a CDA"));
        }
        let msg = CdaMsg {
            role: get_role(&mut r)?,
            plan: get_plan(&mut r)?,
            seq: need(r.u64(), "truncated CDA seq")?,
            nonce: need(r.array(), "truncated nonce")?,
            usage: need(r.u64(), "truncated CDA usage")?,
            peer_cdr: CdrMsg::decode(get_prefixed(
                &mut r,
                "truncated embedded CDR header",
                "truncated embedded CDR",
            )?)?,
            signature: get_signature(&mut r)?,
        };
        need(r.finish(), "trailing bytes after CDA")?;
        Ok(msg)
    }
}

/// A Proof-of-Charging: the finalizer's signature over the plan, the
/// negotiated volume, and the accepted CDA — which itself carries the
/// other party's signature. Unforgeable and undeniable by either side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PocMsg {
    /// Role of the party that finalized (received the CDA and accepted).
    pub role: Role,
    /// The data plan.
    pub plan: DataPlan,
    /// The negotiated charging volume `x`.
    pub charge: u64,
    /// The accepted CDA (embedded verbatim).
    pub cda: CdaMsg,
    /// Edge nonce, carried in the clear per the paper's construction.
    pub nonce_e: Nonce,
    /// Operator nonce, carried in the clear.
    pub nonce_o: Nonce,
    /// RSA signature over the canonical body.
    pub signature: Vec<u8>,
}

impl PocMsg {
    fn body(&self) -> Vec<u8> {
        let cda_encoded = self.cda.encode();
        let mut b = Vec::with_capacity(
            cda_encoded
                .len()
                .saturating_add(self.signature.len())
                .saturating_add(96),
        );
        b.push(MsgType::Poc as u8);
        put_role(&mut b, self.role);
        put_plan(&mut b, &self.plan);
        put_u64(&mut b, self.charge);
        put_prefixed(&mut b, &cda_encoded);
        b
    }

    /// SHA-256 digests of the three signed bodies in the chain (PoC,
    /// embedded CDA, doubly-embedded CDR) — the hash half of chain
    /// verification, split out so a batching verifier can run the RSA
    /// half over a whole batch. The bodies are the `signed_spans` of
    /// the proof's encoding, the slices [`chain_digests_many`] hashes a
    /// batch at a time; one proof's three go straight to the
    /// single-stream kernel.
    pub fn chain_digests(&self) -> PocDigests {
        match signed_spans(&self.encode()) {
            Some([poc, cda, cdr]) => PocDigests {
                poc: sha256::digest(poc),
                cda: sha256::digest(cda),
                cdr: sha256::digest(cdr),
            },
            None => UNSIGNABLE,
        }
    }

    /// Builds and signs a PoC finalizing `cda`.
    pub fn sign(
        role: Role,
        plan: DataPlan,
        charge: u64,
        cda: CdaMsg,
        nonce_e: Nonce,
        nonce_o: Nonce,
        key: &PrivateKey,
    ) -> Result<Self, CryptoError> {
        let mut msg = PocMsg {
            role,
            plan,
            charge,
            cda,
            nonce_e,
            nonce_o,
            signature: Vec::new(),
        };
        msg.signature = pkcs1::sign(key, &msg.body())?;
        Ok(msg)
    }

    /// `(finalizer, other)` keys as the PoC's role names them.
    fn chain_keys<'k>(
        &self,
        edge_key: &'k PublicKey,
        operator_key: &'k PublicKey,
    ) -> (&'k PublicKey, &'k PublicKey) {
        match self.role {
            Role::Edge => (edge_key, operator_key),
            Role::Operator => (operator_key, edge_key),
        }
    }

    /// The CDA must come from the *other* party and embed the
    /// finalizer's own CDR.
    fn role_coherence(&self) -> Result<(), MessageError> {
        if self.cda.role == self.role {
            return Err(MessageError::Malformed("CDA role matches finalizer"));
        }
        if self.cda.peer_cdr.role != self.role {
            return Err(MessageError::Malformed("embedded CDR role mismatch"));
        }
        Ok(())
    }

    /// Verifies the PoC's own signature and the role coherence of what
    /// it embeds, but neither embedded signature. Sufficient when the
    /// embedded CDA is byte-equal to one the caller signed itself over a
    /// CDR it had already verified; anyone else — every third party —
    /// wants [`PocMsg::verify_chain`].
    pub(crate) fn verify_outer(
        &self,
        edge_key: &PublicKey,
        operator_key: &PublicKey,
    ) -> Result<(), MessageError> {
        let (finalizer_key, _) = self.chain_keys(edge_key, operator_key);
        verify_one(finalizer_key, &self.body(), &self.signature)?;
        self.role_coherence()
    }

    /// Verifies the whole signature chain: PoC by the finalizer, CDA by
    /// the other party, embedded CDR by the finalizer again. This is
    /// [`verify_chains_batch_prehashed`] over a batch of one, so a single
    /// proof's three signatures share a multi-lane kernel call too.
    pub fn verify_chain(
        &self,
        edge_key: &PublicKey,
        operator_key: &PublicKey,
    ) -> Result<(), MessageError> {
        let digests = self.chain_digests();
        verify_chains_batch_prehashed(&[(self, &digests)], edge_key, operator_key)
            .pop()
            .unwrap_or(Err(MessageError::Crypto(CryptoError::Internal)))
    }

    /// Serializes to wire bytes (signed body plus the two clear nonces).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = self.body();
        put_prefixed(&mut b, &self.signature);
        b.extend_from_slice(&self.nonce_e);
        b.extend_from_slice(&self.nonce_o);
        b
    }

    /// Parses from wire bytes (does not verify signatures).
    pub fn decode(data: &[u8]) -> Result<Self, MessageError> {
        let mut r = Reader::new(data);
        if r.u8() != Some(MsgType::Poc as u8) {
            return Err(MessageError::Malformed("not a PoC"));
        }
        let msg = PocMsg {
            role: get_role(&mut r)?,
            plan: get_plan(&mut r)?,
            charge: need(r.u64(), "truncated PoC charge")?,
            cda: CdaMsg::decode(get_prefixed(
                &mut r,
                "truncated embedded CDA header",
                "truncated embedded CDA",
            )?)?,
            signature: get_signature(&mut r)?,
            nonce_e: need(r.array(), "truncated nonce")?,
            nonce_o: need(r.array(), "truncated nonce")?,
        };
        need(r.finish(), "trailing bytes after PoC")?;
        Ok(msg)
    }

    /// The edge's claimed usage inside this proof.
    pub fn edge_usage(&self) -> u64 {
        if self.cda.role == Role::Edge {
            self.cda.usage
        } else {
            self.cda.peer_cdr.usage
        }
    }

    /// The operator's claimed usage inside this proof.
    pub fn operator_usage(&self) -> u64 {
        if self.cda.role == Role::Operator {
            self.cda.usage
        } else {
            self.cda.peer_cdr.usage
        }
    }

    /// The nonce belonging to the edge inside the signed structures.
    pub fn signed_edge_nonce(&self) -> Nonce {
        if self.cda.role == Role::Edge {
            self.cda.nonce
        } else {
            self.cda.peer_cdr.nonce
        }
    }

    /// The nonce belonging to the operator inside the signed structures.
    pub fn signed_operator_nonce(&self) -> Nonce {
        if self.cda.role == Role::Operator {
            self.cda.nonce
        } else {
            self.cda.peer_cdr.nonce
        }
    }
}

/// Bytes every signed body starts with: type tag, role, plan.
const SIGNED_HEAD: usize = 2 + PLAN_LEN;
/// What [`put_plan`] writes: start, end, loss weight.
const PLAN_LEN: usize = 8 + 8 + 4;
/// A CDR's whole body, and a CDA's up to its embedded CDR: the head,
/// then seq, nonce, usage.
const CLAIM_HEAD: usize = SIGNED_HEAD + 8 + NONCE_LEN + 8;
/// A PoC's body up to its embedded CDA: the head, then the charge.
const POC_HEAD: usize = SIGNED_HEAD + 8;

/// The three signed bodies inside a PoC's encoding, as slices of it:
/// the PoC's, the embedded CDA's and the doubly-embedded CDR's. This
/// is the one place that says which bytes are signed (the `body`
/// builders write them); every read is a checked cursor step, so
/// arbitrary bytes yield `None` or three slices, never a panic. Only
/// the prefixes are read — the walk does not validate what `decode`
/// does.
fn signed_spans(poc: &[u8]) -> Option<[&[u8]; 3]> {
    let (poc_body, cda) = embedding(poc, POC_HEAD)?;
    let (cda_body, cdr) = embedding(cda, CLAIM_HEAD)?;
    let cdr_body = Reader::new(cdr).take(CLAIM_HEAD)?;
    Some([poc_body, cda_body, cdr_body])
}

/// A body that is `head` bytes and then one [`put_prefixed`] message,
/// read from the front of `msg`: the body, and the message it embeds.
fn embedding(msg: &[u8], head: usize) -> Option<(&[u8], &[u8])> {
    let mut r = Reader::new(msg);
    r.take(head)?;
    let len = usize::from(r.u16()?);
    let inner = r.take(len)?;
    let body = Reader::new(msg).take(head.checked_add(2)?.checked_add(len)?)?;
    Some((body, inner))
}

/// The chain digests of an encoding without [`signed_spans`]: a value
/// with a part too long for its `u16` prefix has no encoding that
/// decodes. All zero, which no signer produced.
const UNSIGNABLE: PocDigests = PocDigests {
    poc: [0; sha256::DIGEST_LEN],
    cda: [0; sha256::DIGEST_LEN],
    cdr: [0; sha256::DIGEST_LEN],
};

/// The chain digests of each PoC encoding: its `signed_spans`, the 3·N
/// of them hashed in one [`sha256::digest_many`] call. A verifier hashes
/// a batch's received bytes this way — decoding is canonical (the one
/// encoding of a decoded value is the bytes it came from, `prop_codec`),
/// so these are the decoded values' [`PocMsg::chain_digests`] — and an
/// in-process caller its values' encodings.
pub fn chain_digests_many(encodings: &[&[u8]]) -> Vec<PocDigests> {
    let spans: Vec<Option<[&[u8]; 3]>> = encodings.iter().map(|e| signed_spans(e)).collect();
    let flat: Vec<&[u8]> = spans.iter().flatten().flatten().copied().collect();
    let mut digests = sha256::digest_many(&flat).into_iter();
    let mut next = || digests.next().unwrap_or([0; sha256::DIGEST_LEN]);
    spans
        .iter()
        .map(|spans| match spans {
            Some(_) => PocDigests {
                poc: next(),
                cda: next(),
                cdr: next(),
            },
            None => UNSIGNABLE,
        })
        .collect()
}

/// SHA-256 digests of the three signed bodies inside one PoC chain,
/// produced by [`chain_digests_many`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PocDigests {
    /// Digest of the PoC's own signed body.
    pub poc: [u8; sha256::DIGEST_LEN],
    /// Digest of the embedded CDA's signed body.
    pub cda: [u8; sha256::DIGEST_LEN],
    /// Digest of the doubly-embedded CDR's signed body.
    pub cdr: [u8; sha256::DIGEST_LEN],
}

/// Batch form of [`PocMsg::verify_chain`] over pre-hashed chains: all
/// 3·N RSA verifications go through [`pkcs1::verify_batch`] (which
/// amortizes per-key Montgomery setup and runs a multi-lane kernel),
/// and each element's result matches the sequential path bit for bit —
/// same verdicts, same error precedence (PoC signature, then role
/// coherence, then CDA signature, then CDR signature).
pub fn verify_chains_batch_prehashed(
    items: &[(&PocMsg, &PocDigests)],
    edge_key: &PublicKey,
    operator_key: &PublicKey,
) -> Vec<Result<(), MessageError>> {
    let mut reqs = Vec::with_capacity(items.len().saturating_mul(3));
    for (poc, d) in items {
        let (finalizer_key, other_key) = poc.chain_keys(edge_key, operator_key);
        reqs.push(pkcs1::VerifyRequest {
            key: finalizer_key,
            digest: d.poc,
            signature: &poc.signature,
        });
        reqs.push(pkcs1::VerifyRequest {
            key: other_key,
            digest: d.cda,
            signature: &poc.cda.signature,
        });
        reqs.push(pkcs1::VerifyRequest {
            key: finalizer_key,
            digest: d.cdr,
            signature: &poc.cda.peer_cdr.signature,
        });
    }
    #[cfg(test)]
    SIGNATURES_HANDED_DOWN.with(|n| n.set(n.get().saturating_add(reqs.len())));
    let verdicts = pkcs1::verify_batch(&reqs);
    items
        .iter()
        .zip(verdicts.chunks_exact(3))
        .map(|((poc, _), sigs)| {
            sigs[0].clone()?;
            poc.role_coherence()?;
            sigs[1].clone()?;
            sigs[2].clone()?;
            Ok(())
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Signatures this thread has handed to [`pkcs1::verify_batch`]
    /// through [`verify_chains_batch_prehashed`], for tests that assert
    /// what work a caller did *not* ask for.
    pub(crate) static SIGNATURES_HANDED_DOWN: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_crypto::KeyPair;

    fn keys() -> (KeyPair, KeyPair) {
        (
            KeyPair::generate_for_seed(1024, 100).unwrap(),
            KeyPair::generate_for_seed(1024, 200).unwrap(),
        )
    }

    fn nonce(b: u8) -> Nonce {
        [b; NONCE_LEN]
    }

    fn build_chain(edge: &KeyPair, op: &KeyPair) -> (CdrMsg, CdaMsg, PocMsg) {
        let plan = DataPlan::paper_default();
        // Operator initiates (Fig. 7): CDR_o -> CDA_e -> PoC_o.
        let cdr_o = CdrMsg::sign(Role::Operator, plan, 1, nonce(2), 1000, &op.private).unwrap();
        let cda_e = CdaMsg::sign(
            Role::Edge,
            plan,
            nonce(1),
            800,
            cdr_o.clone(),
            &edge.private,
        )
        .unwrap();
        let poc = PocMsg::sign(
            Role::Operator,
            plan,
            900,
            cda_e.clone(),
            nonce(1),
            nonce(2),
            &op.private,
        )
        .unwrap();
        (cdr_o, cda_e, poc)
    }

    #[test]
    fn cdr_roundtrip_and_verify() {
        let (edge, _) = keys();
        let plan = DataPlan::paper_default();
        let cdr = CdrMsg::sign(Role::Edge, plan, 3, nonce(7), 123456, &edge.private).unwrap();
        cdr.verify(&edge.public).unwrap();
        let decoded = CdrMsg::decode(&cdr.encode()).unwrap();
        assert_eq!(decoded, cdr);
        decoded.verify(&edge.public).unwrap();
        // A plan no peer may send: an empty cycle (end == start == 0) or
        // a weight above 1. The plan sits after the type and role bytes.
        let mut empty_cycle = cdr.encode();
        empty_cycle[10..18].copy_from_slice(&0u64.to_be_bytes());
        let mut heavy = cdr.encode();
        heavy[18..22].copy_from_slice(&10_001u32.to_be_bytes());
        for bad in [empty_cycle, heavy] {
            assert_eq!(
                CdrMsg::decode(&bad),
                Err(MessageError::Malformed("invalid plan fields"))
            );
        }
    }

    #[test]
    fn cdr_wire_size_matches_paper_scale() {
        // Fig. 17 reports 199 bytes for a TLC CDR under RSA-1024.
        let (edge, _) = keys();
        let cdr = CdrMsg::sign(
            Role::Edge,
            DataPlan::paper_default(),
            1,
            nonce(1),
            1,
            &edge.private,
        )
        .unwrap();
        let len = cdr.encode().len();
        assert!((180..=210).contains(&len), "CDR wire size {len}");
    }

    #[test]
    fn cda_embeds_and_verifies_cdr() {
        let (edge, op) = keys();
        let (_cdr, cda, _) = build_chain(&edge, &op);
        cda.verify(&edge.public, &op.public).unwrap();
        let decoded = CdaMsg::decode(&cda.encode()).unwrap();
        assert_eq!(decoded, cda);
        // CDA wire size should be roughly double a CDR (Fig. 17: 398 B).
        let len = cda.encode().len();
        assert!((360..=430).contains(&len), "CDA wire size {len}");
    }

    #[test]
    fn poc_chain_verifies_and_roundtrips() {
        let (edge, op) = keys();
        let (_, _, poc) = build_chain(&edge, &op);
        poc.verify_chain(&edge.public, &op.public).unwrap();
        let decoded = PocMsg::decode(&poc.encode()).unwrap();
        assert_eq!(decoded, poc);
        // Fig. 17: 796 B PoC.
        let len = poc.encode().len();
        assert!((500..=860).contains(&len), "PoC wire size {len}");
    }

    #[test]
    fn poc_accessors_resolve_roles() {
        let (edge, op) = keys();
        let (_, _, poc) = build_chain(&edge, &op);
        assert_eq!(poc.edge_usage(), 800);
        assert_eq!(poc.operator_usage(), 1000);
        assert_eq!(poc.signed_edge_nonce(), nonce(1));
        assert_eq!(poc.signed_operator_nonce(), nonce(2));
    }

    #[test]
    fn tampered_usage_breaks_signature() {
        let (edge, op) = keys();
        let (_, _, mut poc) = build_chain(&edge, &op);
        poc.charge = 1; // operator tries to bill a different volume
        assert!(matches!(
            poc.verify_chain(&edge.public, &op.public),
            Err(MessageError::BadSignature)
        ));
    }

    #[test]
    fn tampered_inner_cdr_breaks_chain() {
        let (edge, op) = keys();
        let (_, _, mut poc) = build_chain(&edge, &op);
        poc.cda.peer_cdr.usage = 999_999;
        // Outer signatures no longer cover the body.
        assert!(poc.verify_chain(&edge.public, &op.public).is_err());
    }

    #[test]
    fn wrong_keys_rejected() {
        let (edge, op) = keys();
        let (_, _, poc) = build_chain(&edge, &op);
        let stranger = KeyPair::generate_for_seed(1024, 999).unwrap();
        assert!(poc.verify_chain(&stranger.public, &op.public).is_err());
        assert!(poc.verify_chain(&edge.public, &stranger.public).is_err());
    }

    #[test]
    fn truncated_wire_rejected() {
        let (edge, op) = keys();
        let (cdr, cda, poc) = build_chain(&edge, &op);
        for msg in [cdr.encode(), cda.encode(), poc.encode()] {
            for cut in [0, 1, 5, msg.len() / 2, msg.len() - 1] {
                assert!(
                    CdrMsg::decode(&msg[..cut]).is_err()
                        && CdaMsg::decode(&msg[..cut]).is_err()
                        && PocMsg::decode(&msg[..cut]).is_err(),
                    "cut {cut} accepted"
                );
            }
        }
    }

    #[test]
    fn role_confusion_detected() {
        // A PoC whose CDA claims the finalizer's own role is malformed.
        let (edge, op) = keys();
        let plan = DataPlan::paper_default();
        let cdr_o = CdrMsg::sign(Role::Operator, plan, 1, nonce(2), 1000, &op.private).unwrap();
        // CDA *also* signed as operator (role confusion).
        let cda_o = CdaMsg::sign(Role::Operator, plan, nonce(1), 800, cdr_o, &op.private).unwrap();
        let poc = PocMsg::sign(
            Role::Operator,
            plan,
            900,
            cda_o,
            nonce(1),
            nonce(2),
            &op.private,
        )
        .unwrap();
        assert!(matches!(
            poc.verify_chain(&edge.public, &op.public),
            Err(MessageError::Malformed(_))
        ));
    }

    #[test]
    fn chain_digests_match_single_encodings() {
        let (edge, op) = keys();
        let (_, _, poc) = build_chain(&edge, &op);
        let d = poc.chain_digests();
        assert_eq!(d.poc, sha256::digest(&poc.body()));
        assert_eq!(d.cda, sha256::digest(&poc.cda.body()));
        assert_eq!(d.cdr, sha256::digest(&poc.cda.peer_cdr.body()));
        // The received bytes hash to the same digests without a re-encode.
        assert_eq!(chain_digests_many(&[&poc.encode()]), [d]);
    }

    /// The span walk reads only through the checked cursor, so no input
    /// panics it: not a cut of a PoC encoding, nor one whose length
    /// prefixes are overwritten with the extremes. The spans end with
    /// the embedded CDA, so a cut after it finds the same three.
    #[test]
    fn signed_spans_are_total() {
        let (edge, op) = keys();
        let (_, _, poc) = build_chain(&edge, &op);
        let bytes = poc.encode();
        let whole = signed_spans(&bytes).expect("an encoding has spans");
        let body_end = whole[0].len();
        for cut in 0..bytes.len() {
            let spans = signed_spans(&bytes[..cut]);
            assert_eq!(spans.is_some(), cut >= body_end, "cut {cut}");
            assert!(spans.is_none_or(|s| s == whole), "cut {cut}");
        }
        for at in [POC_HEAD, POC_HEAD + 1, POC_HEAD + 2 + CLAIM_HEAD] {
            for byte in [0x00, 0xFF] {
                let mut bad = bytes.clone();
                bad[at] = byte;
                let _ = signed_spans(&bad);
            }
        }
    }

    #[test]
    fn batch_chain_verify_matches_sequential() {
        let (edge, op) = keys();
        let (_, _, good) = build_chain(&edge, &op);

        let plan = DataPlan::paper_default();
        // A PoC whose outer signature is corrupted.
        let mut bad_poc_sig = good.clone();
        bad_poc_sig.signature[10] ^= 0x40;
        // Corrupted CDA signature under a *valid* outer signature (the
        // finalizer re-signs over the tampered embedding), so the batch
        // must fail at the CDA arm specifically.
        let bad_cda_sig = {
            let mut cda = good.cda.clone();
            cda.signature[3] ^= 0x01;
            PocMsg::sign(
                good.role,
                plan,
                good.charge,
                cda,
                good.nonce_e,
                good.nonce_o,
                &op.private,
            )
            .unwrap()
        };
        // Corrupted CDR signature under valid CDA and PoC signatures.
        let bad_cdr_sig = {
            let mut cdr = good.cda.peer_cdr.clone();
            cdr.signature[0] ^= 0x80;
            let cda = CdaMsg::sign(
                Role::Edge,
                plan,
                good.cda.nonce,
                good.cda.usage,
                cdr,
                &edge.private,
            )
            .unwrap();
            PocMsg::sign(
                good.role,
                plan,
                good.charge,
                cda,
                good.nonce_e,
                good.nonce_o,
                &op.private,
            )
            .unwrap()
        };
        // Role confusion: CDA signed under the finalizer's own role.
        let cdr_o = CdrMsg::sign(Role::Operator, plan, 1, nonce(2), 1000, &op.private).unwrap();
        let cda_o = CdaMsg::sign(Role::Operator, plan, nonce(1), 800, cdr_o, &op.private).unwrap();
        let confused = PocMsg::sign(
            Role::Operator,
            plan,
            900,
            cda_o,
            nonce(1),
            nonce(2),
            &op.private,
        )
        .unwrap();

        let pocs = [&good, &bad_poc_sig, &bad_cda_sig, &bad_cdr_sig, &confused];
        let digests: Vec<PocDigests> = pocs.iter().map(|p| p.chain_digests()).collect();
        let items: Vec<(&PocMsg, &PocDigests)> = pocs.iter().copied().zip(&digests).collect();
        let batch = verify_chains_batch_prehashed(&items, &edge.public, &op.public);
        assert_eq!(batch.len(), pocs.len());
        for (i, poc) in pocs.iter().enumerate() {
            let sequential = poc.verify_chain(&edge.public, &op.public);
            assert_eq!(batch[i], sequential, "element {i} diverged");
        }
        // A failure isolates to its element: the good proof still passes.
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(MessageError::BadSignature));
        assert_eq!(batch[2], Err(MessageError::BadSignature));
        assert_eq!(batch[3], Err(MessageError::BadSignature));
        assert!(matches!(batch[4], Err(MessageError::Malformed(_))));
    }

    #[test]
    fn total_negotiation_overhead_matches_paper_scale() {
        // Fig. 17: 1393 bytes over 3 messages for a complete negotiation.
        let (edge, op) = keys();
        let (cdr, cda, poc) = build_chain(&edge, &op);
        let total = cdr.encode().len() + cda.encode().len() + poc.encode().len();
        assert!((1000..=1500).contains(&total), "total {total}");
    }
}
