//! Fig. 17 — Proof-of-Charging cost: negotiation time, verification time,
//! message sizes, and verifier throughput.
//!
//! The crypto cost is measured for real on this host (RSA-1024 PKCS#1
//! signing/verification from `tlc-crypto`), then projected onto the
//! paper's devices via their crypto-speed factors; the network half of
//! the negotiation time is the simulated device↔core round trip (the
//! paper attributes 54.9% of negotiation to crypto, 45.1% to the RTT).

use super::devices::{DeviceProfile, ALL_DEVICES, EDGE_DEVICES, Z840};
use super::RunScale;
use std::time::Instant;
use tlc_core::messages::NONCE_LEN;
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint, ProtocolError};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::service::VerifierService;
use tlc_core::verify::{verify_poc, verify_poc_batch};
use tlc_crypto::KeyPair;

/// Proofs per timed batch in the batched-verification measurement —
/// large enough to fill the widest signature kernel several times over.
pub const BATCH_MEASURE_SIZE: usize = 32;

/// Message-size table (the bottom of Fig. 17).
#[derive(Clone, Copy, Debug)]
pub struct MessageSizes {
    /// Legacy binary LTE CDR (from the paper, for comparison).
    pub legacy_cdr: usize,
    /// TLC CDR on the wire.
    pub tlc_cdr: usize,
    /// TLC CDA on the wire.
    pub tlc_cda: usize,
    /// TLC PoC on the wire.
    pub tlc_poc: usize,
    /// Whole negotiation: CDR + CDA + PoC.
    pub total: usize,
}

/// Timing results for one device.
#[derive(Clone, Copy, Debug)]
pub struct Fig17Row {
    /// Device name.
    pub device: &'static str,
    /// Estimated PoC negotiation time, ms (crypto scaled + simulated RTT).
    pub negotiation_ms: f64,
    /// Estimated PoC verification time, ms.
    pub verification_ms: f64,
}

/// Full figure output.
#[derive(Clone, Debug)]
pub struct Fig17Report {
    /// Per-device timings.
    pub rows: Vec<Fig17Row>,
    /// Wire sizes.
    pub sizes: MessageSizes,
    /// Host-measured crypto time for one full negotiation's signatures, ms.
    pub host_crypto_ms: f64,
    /// Host-measured single PoC verification, ms.
    pub host_verify_ms: f64,
    /// Host-measured per-PoC verification inside a signature batch
    /// ([`verify_poc_batch`] at [`BATCH_MEASURE_SIZE`] proofs), ms.
    pub host_verify_batched_ms: f64,
    /// PoC verifications per hour on this host (the paper: 230K/hr on
    /// a Z840).
    pub verifications_per_hour: f64,
    /// Batched counterpart of `verifications_per_hour`.
    pub batched_verifications_per_hour: f64,
    /// Signature-batch size of the in-process service run: one stage on
    /// this thread, a relationship's batch verified when it fills.
    pub service_batch_size: usize,
    /// Batch throughput through [`VerifierService`] (submit → drain),
    /// including hashing and result collection — the deployable-path
    /// counterpart of `verifications_per_hour`.
    pub service_pocs_per_hour: f64,
}

/// One complete negotiation, returning the artifacts and wall-clock time.
///
/// Propagates [`ProtocolError`] instead of panicking: a non-converging
/// negotiation (misconfigured strategies, exhausted rounds) surfaces as an
/// error the caller can report.
#[expect(
    clippy::disallowed_methods,
    reason = "fig 17 measures wall-clock negotiation latency"
)]
fn negotiate_once(
    edge: &KeyPair,
    op: &KeyPair,
    seed: u8,
) -> Result<(tlc_core::messages::PocMsg, f64), ProtocolError> {
    let plan = DataPlan::paper_default();
    let mut e = Endpoint::new(
        Role::Edge,
        plan,
        Knowledge {
            role: Role::Edge,
            own_truth: 1_000_000,
            inferred_peer_truth: 900_000,
        },
        Box::new(OptimalStrategy),
        edge.private.clone(),
        op.public.clone(),
        [seed; NONCE_LEN],
        16,
    );
    let mut o = Endpoint::new(
        Role::Operator,
        plan,
        Knowledge {
            role: Role::Operator,
            own_truth: 900_000,
            inferred_peer_truth: 1_000_000,
        },
        Box::new(OptimalStrategy),
        op.private.clone(),
        edge.public.clone(),
        [seed ^ 0xFF; NONCE_LEN],
        16,
    );
    let t0 = Instant::now();
    let (poc, _) = run_negotiation(&mut o, &mut e)?;
    Ok((poc, t0.elapsed().as_secs_f64() * 1e3))
}

/// Timed repetitions to average at each scale.
pub fn reps(scale: RunScale) -> usize {
    match scale {
        RunScale::Quick => 10,
        RunScale::Full => 50,
    }
}

/// Runs the measurement. `reps` controls how many timed repetitions to
/// average (the paper negotiates per experiment round).
///
/// Errors if any negotiation fails to converge rather than panicking.
#[expect(
    clippy::disallowed_methods,
    reason = "fig 17 measures wall-clock verification throughput"
)]
#[expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "the proofs were just negotiated under these keys, and the in-process service cannot fail"
)]
pub fn run(reps: usize) -> Result<Fig17Report, ProtocolError> {
    let edge = KeyPair::generate_for_seed(1024, 0xF17E)?;
    let op = KeyPair::generate_for_seed(1024, 0xF170)?;
    let plan = DataPlan::paper_default();

    // Warm-up + timed negotiations on this host. Every proof carries a
    // distinct nonce pair, so the batch below survives replay filtering.
    let mut crypto_ms = 0.0;
    let mut pocs = Vec::with_capacity(reps.max(1));
    for i in 0..reps.max(1) {
        let (p, ms) = negotiate_once(&edge, &op, i as u8)?;
        crypto_ms += ms;
        pocs.push(p);
    }
    let host_crypto_ms = crypto_ms / reps.max(1) as f64;
    let poc = pocs.last().expect("at least one negotiation ran").clone();

    // Timed verifications.
    let t0 = Instant::now();
    for _ in 0..reps.max(1) {
        verify_poc(&poc, &plan, &edge.public, &op.public).expect("valid PoC verifies");
    }
    let host_verify_ms = t0.elapsed().as_secs_f64() * 1e3 / reps.max(1) as f64;

    // Timed batched verification: the same crypto work pushed through
    // the batch entry point at a kernel-filling size. Signature checks
    // are stateless, so cycling the negotiated proofs is equivalent to a
    // stream of distinct submissions.
    let batch_refs: Vec<&tlc_core::messages::PocMsg> = (0..BATCH_MEASURE_SIZE)
        .map(|i| &pocs[i % pocs.len()])
        .collect();
    let t0 = Instant::now();
    let batched = verify_poc_batch(&batch_refs, &plan, &edge.public, &op.public);
    let host_verify_batched_ms = t0.elapsed().as_secs_f64() * 1e3 / BATCH_MEASURE_SIZE as f64;
    debug_assert!(batched.iter().all(|r| r.is_ok()));

    // Deployable path: the same proofs batched through the in-process
    // verification service (§5.3.4), measured submit → drain.
    let mut svc = VerifierService::new();
    let rel = svc
        .register(plan, edge.public.clone(), op.public.clone())
        .unwrap();
    let t0 = Instant::now();
    svc.submit_batch(rel, pocs.iter().cloned()).unwrap();
    let results = svc.collect_results().unwrap();
    let service_secs = t0.elapsed().as_secs_f64();
    debug_assert!(results.iter().all(|r| r.result.is_ok()));
    let service_batch_size = svc.config().batch_size;

    // Simulated device<->core RTT contribution (Fig. 16a's datapath).
    let rtt_of = |d: &DeviceProfile| {
        let samples = super::fig16::ping_rtt_ms(d, 20, false, 0xF17);
        samples.iter().sum::<f64>() / samples.len().max(1) as f64
    };

    let mut rows: Vec<Fig17Row> = EDGE_DEVICES
        .iter()
        .map(|d| Fig17Row {
            device: d.name,
            // Crypto scaled by the device factor plus 1.5 negotiation RTTs
            // (CDR -> CDA -> PoC is three one-way trips).
            negotiation_ms: host_crypto_ms * d.crypto_factor + rtt_of(d) * 1.5,
            verification_ms: host_verify_ms * d.crypto_factor,
        })
        .collect();
    rows.push(Fig17Row {
        device: Z840.name,
        negotiation_ms: host_crypto_ms + 1.0, // server-local negotiation
        verification_ms: host_verify_ms,
    });

    let sizes = measure_sizes(&poc);
    Ok(Fig17Report {
        rows,
        sizes,
        host_crypto_ms,
        host_verify_ms,
        host_verify_batched_ms,
        verifications_per_hour: 3600.0 * 1e3 / host_verify_ms.max(1e-9),
        batched_verifications_per_hour: 3600.0 * 1e3 / host_verify_batched_ms.max(1e-9),
        service_batch_size,
        service_pocs_per_hour: results.len() as f64 * 3600.0 / service_secs.max(1e-9),
    })
}

fn measure_sizes(poc: &tlc_core::messages::PocMsg) -> MessageSizes {
    let tlc_poc = poc.encode().len();
    let tlc_cda = poc.cda.encode().len();
    let tlc_cdr = poc.cda.peer_cdr.encode().len();
    MessageSizes {
        legacy_cdr: tlc_cell::cdr::LEGACY_CDR_WIRE_BYTES,
        tlc_cdr,
        tlc_cda,
        tlc_poc,
        total: tlc_cdr + tlc_cda + tlc_poc,
    }
}

/// Prints the figure's tables.
pub fn print(r: &Fig17Report) {
    println!("Fig. 17 — Proof-of-Charging cost (TLC-optimal)");
    println!(
        "{:<12} {:>16} {:>17}",
        "device", "negotiation ms", "verification ms"
    );
    for row in &r.rows {
        println!(
            "{:<12} {:>16.2} {:>17.3}",
            row.device, row.negotiation_ms, row.verification_ms
        );
    }
    println!(
        "sizes: legacy CDR {} B | TLC CDR {} B | CDA {} B | PoC {} B | total {} B / 3 msgs",
        r.sizes.legacy_cdr, r.sizes.tlc_cdr, r.sizes.tlc_cda, r.sizes.tlc_poc, r.sizes.total
    );
    println!(
        "host: negotiation crypto {:.2} ms, verification {:.3} ms -> {:.0} PoC verifications/hour",
        r.host_crypto_ms, r.host_verify_ms, r.verifications_per_hour
    );
    println!(
        "host batched (x{}): {:.3} ms/PoC -> {:.0} PoC verifications/hour ({:.2}x single)",
        BATCH_MEASURE_SIZE,
        r.host_verify_batched_ms,
        r.batched_verifications_per_hour,
        r.host_verify_ms / r.host_verify_batched_ms.max(1e-9),
    );
    println!(
        "in-process service (one stage, batch {}): {:.0} PoCs/hour submit->drain",
        r.service_batch_size, r.service_pocs_per_hour
    );
    let _ = ALL_DEVICES;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_scaling() {
        let r = run(2).expect("optimal pair converges");
        assert_eq!(r.rows.len(), 4);
        // Device ordering by crypto factor: Z840 fastest verification.
        let verify = |name: &str| {
            r.rows
                .iter()
                .find(|x| x.device == name)
                .unwrap()
                .verification_ms
        };
        assert!(verify("Z840") <= verify("EL20"));
        assert!(verify("EL20") < verify("Pixel 2XL"));
        assert!(r.host_crypto_ms > 0.0);
        assert!(
            r.verifications_per_hour > 100_000.0,
            "{}",
            r.verifications_per_hour
        );
        assert!(r.service_batch_size >= 1);
        assert!(r.service_pocs_per_hour > 0.0, "{}", r.service_pocs_per_hour);
        assert!(r.host_verify_batched_ms > 0.0);
        assert!(
            r.batched_verifications_per_hour > 100_000.0,
            "{}",
            r.batched_verifications_per_hour
        );
    }

    #[test]
    fn sizes_match_paper_scale() {
        let r = run(1).expect("optimal pair converges");
        // Paper: 199 / 398 / 796 / 1393 bytes. Our leaner binary framing
        // lands below on every row. Under RSA-1024 keys the sizes do not
        // vary from run to run, so they are pinned exactly: DESIGN,
        // README and EXPERIMENTS quote these.
        assert_eq!(r.sizes.tlc_cdr, 184);
        assert_eq!(r.sizes.tlc_cda, 370);
        assert_eq!(r.sizes.tlc_poc, 564);
        assert_eq!(r.sizes.legacy_cdr, 34);
    }
}
