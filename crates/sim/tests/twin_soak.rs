//! Twin-driven closed-loop soak: the digital twin generates the load,
//! and its sampled settlements run the *real* TLC machinery — signed
//! negotiation to a PoC, then submission through the verifier — so the
//! analytic pricing in `sim::soa`/`sim::measure` is checked against
//! the protocol it models, end to end.
//!
//! Two loops:
//!   * in-process: settlements feed a [`VerifierService`] directly;
//!   * ingress: settlements cross a real TCP socket into an
//!     [`IngressServer`] via [`RemoteVerifier`].
//!
//! In both, every sampled cycle must negotiate to **exactly** the
//! twin's analytic TLC charge (honest parties price the measured pair
//! — Eq. 1) and every PoC must verify `Valid`.

use std::collections::HashMap;
use std::net::TcpStream;
use tlc_core::messages::NONCE_LEN;
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{HonestStrategy, Knowledge, Role};
use tlc_core::verify::remote::{IngressConfig, IngressServer, RemoteVerifier};
use tlc_core::verify::service::{RelationshipId, ServiceConfig, VerifierService};
use tlc_crypto::KeyPair;
use tlc_net::time::SimDuration;
use tlc_sim::twin::{run_twin, Settled, SettlementSink, TwinConfig};

/// Keys + plan shared by every sampled settlement (one operator↔edge
/// relationship; keygen dominates otherwise).
struct Parties {
    edge: KeyPair,
    op: KeyPair,
    plan: DataPlan,
}

impl Parties {
    fn generate(seed: u64) -> Self {
        Parties {
            edge: KeyPair::generate_for_seed(1024, 40_000 + seed * 2).expect("edge keygen"),
            op: KeyPair::generate_for_seed(1024, 40_001 + seed * 2).expect("op keygen"),
            plan: DataPlan::paper_default(),
        }
    }

    /// Runs an honest↔honest negotiation over the settlement's
    /// measured pair; returns the signed PoC.
    fn negotiate(&self, s: &Settled, nonce: u64) -> tlc_core::messages::PocMsg {
        let m = s.settlement.measured;
        let mut nonce_e = [0u8; NONCE_LEN];
        let mut nonce_o = [0u8; NONCE_LEN];
        nonce_e[..8].copy_from_slice(&nonce.to_le_bytes());
        nonce_e[8] = 1;
        nonce_o[..8].copy_from_slice(&nonce.to_le_bytes());
        nonce_o[8] = 2;
        let mut e = Endpoint::new(
            Role::Edge,
            self.plan,
            Knowledge {
                role: Role::Edge,
                own_truth: m.edge,
                inferred_peer_truth: m.operator,
            },
            Box::new(HonestStrategy),
            self.edge.private.clone(),
            self.op.public.clone(),
            nonce_e,
            32,
        );
        let mut o = Endpoint::new(
            Role::Operator,
            self.plan,
            Knowledge {
                role: Role::Operator,
                own_truth: m.operator,
                inferred_peer_truth: m.edge,
            },
            Box::new(HonestStrategy),
            self.op.private.clone(),
            self.edge.public.clone(),
            nonce_o,
            32,
        );
        run_negotiation(&mut o, &mut e)
            .expect("honest negotiation")
            .0
    }
}

fn soak_config(seed: u64) -> TwinConfig {
    let mut cfg = TwinConfig::smoke(seed);
    cfg.initial_sessions = 120;
    cfg.duration = SimDuration::from_secs(6);
    cfg.sample_rate = 0.15;
    cfg
}

/// Sink that drives the in-process service closed loop.
struct ServiceSink<'a> {
    parties: &'a Parties,
    svc: VerifierService,
    rel: RelationshipId,
    expected: HashMap<u64, u64>,
    nonce: u64,
}

impl SettlementSink for ServiceSink<'_> {
    fn settle(&mut self, s: &Settled) {
        if !s.sampled {
            return;
        }
        self.nonce += 1;
        let poc = self.parties.negotiate(s, self.nonce);
        assert_eq!(
            poc.charge, s.settlement.tlc_charge,
            "negotiated charge diverged from the twin's analytic TLC charge"
        );
        let tag = self.svc.submit(self.rel, poc).expect("submit");
        self.expected.insert(tag, s.settlement.tlc_charge);
    }
}

#[test]
fn twin_settlements_negotiate_and_verify_in_process() {
    let parties = Parties::generate(1);
    let mut svc = VerifierService::new();
    let rel = svc
        .register(
            parties.plan,
            parties.edge.public.clone(),
            parties.op.public.clone(),
        )
        .expect("register");
    let mut sink = ServiceSink {
        parties: &parties,
        svc,
        rel,
        expected: HashMap::new(),
        nonce: 0,
    };
    let report = run_twin(&soak_config(1), &mut sink);
    assert!(
        report.cycles_sampled > 10,
        "sample rate produced only {} settlements",
        report.cycles_sampled
    );
    assert_eq!(sink.expected.len() as u64, report.cycles_sampled);

    let results = sink.svc.collect_results().expect("collect");
    assert_eq!(results.len() as u64, report.cycles_sampled);
    for r in results {
        let verdict = r.result.expect("sampled PoC must verify");
        assert_eq!(Some(&verdict.charge), sink.expected.get(&r.tag));
    }
    sink.svc.finish();
}

/// Sink that drives the TCP ingress closed loop, draining verdicts
/// opportunistically so the submission window never stalls the twin.
struct IngressSink<'a> {
    parties: &'a Parties,
    client: RemoteVerifier<TcpStream>,
    rel: RelationshipId,
    expected: HashMap<u64, u64>,
    verdicts: Vec<(u64, u64)>,
    nonce: u64,
}

impl SettlementSink for IngressSink<'_> {
    fn settle(&mut self, s: &Settled) {
        if !s.sampled {
            return;
        }
        self.nonce += 1;
        let poc = self.parties.negotiate(s, self.nonce);
        assert_eq!(poc.charge, s.settlement.tlc_charge);
        let tag = self.client.submit(self.rel, &poc).expect("remote submit");
        self.expected.insert(tag, s.settlement.tlc_charge);
        for r in self.client.take_ready() {
            let v = r.result.expect("valid PoC rejected");
            self.verdicts.push((r.tag, v.charge));
        }
    }
}

#[test]
fn twin_soaks_the_tcp_ingress_closed_loop() {
    let parties = Parties::generate(2);
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .expect("bind ingress");
    let handle = server.spawn().expect("spawn ingress");

    let mut client = RemoteVerifier::connect(handle.addr(), 0).expect("connect");
    let rel = client
        .register(
            parties.plan,
            parties.edge.public.clone(),
            parties.op.public.clone(),
        )
        .expect("register");
    let mut sink = IngressSink {
        parties: &parties,
        client,
        rel,
        expected: HashMap::new(),
        verdicts: Vec::new(),
        nonce: 0,
    };

    let report = run_twin(&soak_config(2), &mut sink);
    assert!(report.cycles_sampled > 10);
    assert_eq!(sink.expected.len() as u64, report.cycles_sampled);

    // Drain the tail.
    let mut verdicts = sink.verdicts;
    for r in sink.client.collect_results().expect("collect") {
        let v = r.result.expect("valid PoC rejected");
        verdicts.push((r.tag, v.charge));
    }
    assert_eq!(verdicts.len() as u64, report.cycles_sampled);
    for (tag, charge) in verdicts {
        assert_eq!(
            Some(&charge),
            sink.expected.get(&tag),
            "verdict charge mismatch for tag {tag}"
        );
    }
    sink.client.goodbye().expect("goodbye");

    let ingress = handle.shutdown().expect("ingress report");
    assert_eq!(ingress.ingress.submissions, report.cycles_sampled);
    assert_eq!(ingress.ingress.rejected_malformed, 0);
    assert_eq!(ingress.ingress.shed_overload, 0);
}
