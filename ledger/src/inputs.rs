//! Set-up: everything a workload consumes, derived from `--seed` and
//! nothing else — key pairs, the pre-signed PoC pool, and the
//! server/client session the PoC-path workloads talk through.
//!
//! The program under test receives only these generated inputs; the
//! seed itself never reaches it.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::time::Instant;

use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint, EndpointStats};
use tlc_core::strategy::{HonestStrategy, Knowledge, Role};
use tlc_core::verify::remote::{
    BackoffConfig, IngressConfig, IngressHandle, IngressReport, IngressServer, RemoteVerifier,
};
use tlc_core::verify::service::{RelationshipId, ServiceConfig};
use tlc_core::verify::{verify_poc, VerifyError};
use tlc_crypto::KeyPair;

/// Edge↔operator relationships every PoC-path workload registers.
pub const RELATIONSHIPS: usize = 16;

/// PoCs per `submit_batch` frame, and the run length that
/// `verify_frames` times as one unit: the window
/// `IngressConfig::default()` grants a connection.
pub const FRAME: usize = 64;

/// RSA modulus size, as in the paper's prototype.
const KEY_BITS: usize = 1024;

/// Op counts per slice. Fixed per scale and the same on every commit;
/// `--seconds` only decides how many slices run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Not comparable with full-scale numbers; for CI wiring only.
    pub smoke: bool,
    /// Pre-signed PoCs per relationship. Every PoC-path workload's
    /// set-up signs the whole pool, so `setup_s` is one comparable
    /// number; the `verify_*` workloads then replay it.
    pub pocs_per_rel: usize,
    /// `verify_single` operations per slice.
    pub single_slice_ops: usize,
    /// `settle_rpc` operations per slice.
    pub settle_slice_ops: usize,
    /// `twin_churn` population.
    pub twin_sessions: usize,
    /// `cycle_e2e`: share of the smoke twin's settled cycles that run
    /// the real negotiation (about 1,000 per slice at full scale).
    pub cycle_sample_rate: f64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        smoke: false,
        pocs_per_rel: 256,
        single_slice_ops: 256,
        settle_slice_ops: 100_000,
        twin_sessions: 250_000,
        cycle_sample_rate: 0.2,
    };

    /// 1/32 of every op count.
    pub const SMOKE: Scale = Scale {
        smoke: true,
        pocs_per_rel: 8,
        single_slice_ops: 8,
        settle_slice_ops: 3_125,
        twin_sessions: 7_812,
        cycle_sample_rate: 0.2 / 32.0,
    };
}

/// SplitMix64: the harness's only randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One edge↔operator relationship's key material.
pub struct Relationship {
    pub edge: KeyPair,
    pub op: KeyPair,
}

/// What one negotiation produced, for the protocol counters.
pub struct Negotiated {
    pub poc: PocMsg,
    pub msgs: u32,
    pub edge: EndpointStats,
    pub op: EndpointStats,
}

/// Nonce for one side of cycle `n`: the counter, then a side tag.
fn nonce(n: u64, side: u8) -> [u8; NONCE_LEN] {
    let mut out = [0u8; NONCE_LEN];
    out[..8].copy_from_slice(&n.to_le_bytes());
    out[8] = side;
    out
}

/// Honest↔honest negotiation over a measured usage pair, operator
/// initiating — the shape `sim::twin`'s closed-loop soak uses.
pub fn negotiate(
    rel: &Relationship,
    plan: DataPlan,
    edge_usage: u64,
    op_usage: u64,
    n: u64,
) -> Result<Negotiated, String> {
    let mut e = Endpoint::new(
        Role::Edge,
        plan,
        Knowledge {
            role: Role::Edge,
            own_truth: edge_usage,
            inferred_peer_truth: op_usage,
        },
        Box::new(HonestStrategy),
        rel.edge.private.clone(),
        rel.op.public.clone(),
        nonce(n, 1),
        32,
    );
    let mut o = Endpoint::new(
        Role::Operator,
        plan,
        Knowledge {
            role: Role::Operator,
            own_truth: op_usage,
            inferred_peer_truth: edge_usage,
        },
        Box::new(HonestStrategy),
        rel.op.private.clone(),
        rel.edge.public.clone(),
        nonce(n, 2),
        32,
    );
    let (poc, msgs) = run_negotiation(&mut o, &mut e).map_err(|e| format!("negotiation: {e}"))?;
    Ok(Negotiated {
        poc,
        msgs,
        edge: e.stats(),
        op: o.stats(),
    })
}

/// A usage pair for one cycle: 1–5 MB sent, up to 10 % lost.
pub fn usage(rng: &mut Rng) -> (u64, u64) {
    let sent = 1_000_000 + rng.below(4_000_000);
    let lost = sent * rng.below(100) / 1_000;
    (sent, sent - lost)
}

/// The negative controls sent after each `verify_*` epoch's timed
/// window, with the exact error each must come back as.
pub struct Canaries {
    /// A never-submitted PoC with one signature bit flipped.
    pub tampered: PocMsg,
    pub tampered_error: VerifyError,
}

impl Canaries {
    fn make(rel: &Relationship, plan: DataPlan, seed: u64, n: u64) -> Result<Canaries, String> {
        let mut rng = Rng::new(seed ^ 0xCA7A_41E5);
        let (sent, received) = usage(&mut rng);
        let mut tampered = negotiate(rel, plan, sent, received, n)?.poc;
        let last = tampered.signature.len() - 1;
        tampered.signature[last] ^= 1;
        let tampered_error = match verify_poc(&tampered, &plan, &rel.edge.public, &rel.op.public) {
            Err(e @ VerifyError::Signature(_)) => e,
            other => return Err(format!("tampered canary judged {other:?}")),
        };
        Ok(Canaries {
            tampered,
            tampered_error,
        })
    }
}

/// Everything generated in set-up.
pub struct Inputs {
    pub plan: DataPlan,
    pub rels: Vec<Relationship>,
    /// `pool[r]` holds relationship `r`'s pre-signed PoCs.
    pub pool: Vec<Vec<PocMsg>>,
    pub canaries: Canaries,
    /// Wall milliseconds of each key generation (`crypto.keygen_ms`).
    pub keygen_ms: Vec<f64>,
}

impl Inputs {
    /// Generates keys and signs the pool, on the calling thread alone:
    /// `setup_s` is gated, and on a shared two-CPU VM the same work on
    /// two threads took 1.6 s or 2.3 s from one repetition to the next
    /// (whether the host had the two virtual CPUs on one core or two),
    /// where one thread stays within 3.0-3.6 s.
    pub fn build(seed: u64, pocs_per_rel: usize) -> Result<Inputs, String> {
        let plan = DataPlan::paper_default();
        let (mut rels, mut pool, mut keygen_ms) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..RELATIONSHIPS {
            let mut rng = Rng::new(seed ^ (r as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
            let mut keygen = || {
                let t = Instant::now();
                let k = KeyPair::generate_for_seed(KEY_BITS, rng.next_u64())
                    .map_err(|e| format!("keygen: {e}"));
                keygen_ms.push(t.elapsed().as_secs_f64() * 1e3);
                k
            };
            let rel = Relationship {
                edge: keygen()?,
                op: keygen()?,
            };
            let mut pocs = Vec::with_capacity(pocs_per_rel);
            for k in 0..pocs_per_rel {
                let (sent, received) = usage(&mut rng);
                let n = (r * pocs_per_rel + k) as u64;
                pocs.push(negotiate(&rel, plan, sent, received, n)?.poc);
            }
            rels.push(rel);
            pool.push(pocs);
        }
        // A nonce counter no pool PoC uses: the verifier checks the
        // replay window before the signatures.
        let unused_nonce = (RELATIONSHIPS * pocs_per_rel) as u64;
        let canaries = Canaries::make(&rels[0], plan, seed, unused_nonce)?;
        Ok(Inputs {
            plan,
            rels,
            pool,
            canaries,
            keygen_ms,
        })
    }

    pub fn pool_len(&self) -> usize {
        self.pool.iter().map(Vec::len).sum()
    }

    /// The multi-lane kernel batched verification runs on; a run label,
    /// because IFMA against scalar changes every `verify_*` number.
    pub fn batch_kernel(&self) -> &'static str {
        self.rels[0]
            .edge
            .public
            .mont_ctx()
            .map_or("none", |c| c.batch_kernel())
    }
}

/// Client-side byte and call counts (`net.wire.*`).
#[derive(Clone, Copy, Debug, Default)]
pub struct WireCounts {
    pub tx_bytes: u64,
    pub rx_bytes: u64,
    pub writes: u64,
    pub reads: u64,
}

/// Counting pass-through around the client's socket. Four integer
/// additions per system call, so it stays on in the untraced runs too
/// and both kinds of run drive the identical client.
pub struct Tap {
    inner: TcpStream,
    counts: Rc<Cell<WireCounts>>,
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        let mut c = self.counts.get();
        c.rx_bytes += n as u64;
        c.reads += 1;
        self.counts.set(c);
        Ok(n)
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        let mut c = self.counts.get();
        c.tx_bytes += n as u64;
        c.writes += 1;
        self.counts.set(c);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One server lifetime: an `IngressServer` on loopback, one client
/// connection, every relationship registered.
pub struct Session {
    handle: IngressHandle,
    pub client: RemoteVerifier<Tap>,
    pub rels: Vec<RelationshipId>,
    counts: Rc<Cell<WireCounts>>,
    bringup_s: f64,
}

/// What a closed session reports.
pub struct Closed {
    /// Wall seconds from bind to the last REGISTERED.
    pub bringup_s: f64,
    pub report: IngressReport,
    pub wire: WireCounts,
    pub client_retries: u64,
    pub client_shed_notices: u64,
}

/// Selects the readiness server loop with one shard through the
/// environment, so the harness never names the types that select them
/// (both are slated for reshaping). Call before any thread exists.
pub fn select_server_loop() {
    std::env::set_var("TLC_INGRESS_BACKEND", "epoll");
    std::env::set_var("TLC_INGRESS_SHARDS", "1");
}

impl Session {
    /// One shard, one service worker, defaults otherwise; the server
    /// loop comes from the environment (see [`select_server_loop`]).
    pub fn open(inputs: &Inputs) -> Result<Session, String> {
        let t = Instant::now();
        let server = IngressServer::bind(
            ("127.0.0.1", 0),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            IngressConfig {
                shards: 1,
                ..IngressConfig::default()
            },
        )
        .map_err(|e| format!("bind ingress: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn ingress: {e}"))?;
        let stream =
            TcpStream::connect(handle.addr()).map_err(|e| format!("connect ingress: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let counts = Rc::new(Cell::new(WireCounts::default()));
        let tap = Tap {
            inner: stream,
            counts: Rc::clone(&counts),
        };
        let mut client = RemoteVerifier::handshake(tap, 0, BackoffConfig::default())
            .map_err(|e| format!("handshake: {e}"))?;
        let mut rels = Vec::with_capacity(inputs.rels.len());
        for r in &inputs.rels {
            rels.push(
                client
                    .register(inputs.plan, r.edge.public.clone(), r.op.public.clone())
                    .map_err(|e| format!("register: {e}"))?,
            );
        }
        Ok(Session {
            handle,
            client,
            rels,
            counts,
            bringup_s: t.elapsed().as_secs_f64(),
        })
    }

    /// The session in `slot`, opened first if there is none.
    pub fn opened<'s>(
        slot: &'s mut Option<Session>,
        inputs: &Inputs,
    ) -> Result<&'s mut Session, String> {
        if slot.is_none() {
            *slot = Some(Session::open(inputs)?);
        }
        Ok(slot.as_mut().expect("filled above"))
    }

    /// GOODBYE, then stops the server and waits for its threads.
    pub fn close(self) -> Result<Closed, String> {
        let client_retries = self.client.retries();
        let client_shed_notices = self.client.shed_notices();
        let leftover = self.client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        if !leftover.is_empty() {
            return Err(format!("{} verdicts arrived after collect", leftover.len()));
        }
        let report = self.handle.shutdown().ok_or("ingress thread panicked")?;
        Ok(Closed {
            bringup_s: self.bringup_s,
            report,
            wire: self.counts.get(),
            client_retries,
            client_shed_notices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::build(7, 1).expect("build");
        let b = Inputs::build(7, 1).expect("build");
        let c = Inputs::build(8, 1).expect("build");
        assert_eq!(a.rels.len(), RELATIONSHIPS);
        assert_eq!(a.pool_len(), RELATIONSHIPS);
        assert_eq!(a.keygen_ms.len(), 2 * RELATIONSHIPS);
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.pool, c.pool);
        let ids = |i: &Inputs| -> Vec<_> {
            let keys = i.rels.iter().flat_map(|r| [&r.edge, &r.op]);
            keys.map(|k| k.private.key_id()).collect()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(ids(&a), ids(&c));
        assert!(matches!(
            a.canaries.tampered_error,
            VerifyError::Signature(_)
        ));
        // Every pool PoC is valid and prices its own usage pair.
        for (r, pocs) in a.pool.iter().enumerate() {
            let rel = &a.rels[r];
            for p in pocs {
                let v = verify_poc(p, &a.plan, &rel.edge.public, &rel.op.public).expect("valid");
                assert_eq!(v.charge, p.charge);
            }
        }
    }

    #[test]
    fn usage_pairs_are_ordered_and_bounded() {
        let mut rng = Rng::new(1);
        for _ in 0..1_000 {
            let (sent, received) = usage(&mut rng);
            assert!((1_000_000..5_000_000).contains(&sent));
            assert!(received <= sent && received * 10 >= sent * 9);
        }
    }
}
