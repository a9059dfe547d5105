//! Control-plane robustness — negotiation over a lossy signaling channel
//! (robustness extension of Fig. 16b).
//!
//! The paper evaluates negotiation rounds under *data-plane* loss; here we
//! subject the *control plane itself* to impairment. Honest/optimal pairs
//! negotiate through two [`FaultyChannel`]s (one per direction) while the
//! control-channel loss rate sweeps 0–30%, with fixed low rates of
//! duplication and reordering on top. Per loss point we report the
//! convergence rate (sessions ending in a PoC rather than the legacy
//! fallback), negotiation latency percentiles on the virtual clock, and
//! the retransmission overhead. Every session terminates: the session
//! layer's retry budget turns persistent loss into a deterministic
//! fallback, never a hang.

use super::RunScale;
use tlc_core::messages::NONCE_LEN;
use tlc_core::plan::DataPlan;
use tlc_core::protocol::Endpoint;
use tlc_core::session::{run_session_pair, Session};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_crypto::KeyPair;
use tlc_net::channel::{FaultSpec, FaultyChannel};
use tlc_net::loss::{NoLoss, UniformLoss};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};

/// Control-channel loss rates swept, in percent.
pub const LOSS_PCTS: [u32; 7] = [0, 5, 10, 15, 20, 25, 30];

/// Duplication probability applied at every loss point.
pub const DUPLICATE_P: f64 = 0.05;
/// Reordering probability applied at every loss point.
pub const REORDER_P: f64 = 0.05;

/// One loss point of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessRow {
    /// Control-channel loss rate, percent.
    pub loss_pct: u32,
    /// Sessions run at this point.
    pub sessions: u64,
    /// Sessions that converged to a PoC.
    pub converged: u64,
    /// Sessions that fell back to the legacy charge.
    pub fallbacks: u64,
    /// `converged / sessions`.
    pub convergence_rate: f64,
    /// Mean virtual-clock negotiation latency, ms.
    pub mean_latency_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_latency_ms: f64,
    /// Mean first-transmission frames per session.
    pub mean_frames: f64,
    /// Total retransmissions across all sessions at this point.
    pub retransmits: u64,
}

/// Runs one negotiation session over faulty channels and reports
/// `(converged, latency, frames, retransmits)`.
#[expect(
    clippy::expect_used,
    reason = "a fresh optimal endpoint always initiates"
)]
fn run_one(
    edge_keys: &KeyPair,
    op_keys: &KeyPair,
    loss: f64,
    spec: &FaultSpec,
    seed: u64,
    nonce_tag: u64,
) -> (bool, SimDuration, u64, u64) {
    let plan = DataPlan::paper_default();
    let mut nonce_e = [0u8; NONCE_LEN];
    let mut nonce_o = [0xFFu8; NONCE_LEN];
    nonce_e[..8].copy_from_slice(&nonce_tag.to_be_bytes());
    nonce_o[..8].copy_from_slice(&nonce_tag.to_be_bytes());
    let edge = Endpoint::new(
        Role::Edge,
        plan,
        Knowledge {
            role: Role::Edge,
            own_truth: 1_000_000,
            inferred_peer_truth: 900_000,
        },
        Box::new(OptimalStrategy),
        edge_keys.private.clone(),
        op_keys.public.clone(),
        nonce_e,
        32,
    );
    let op = Endpoint::new(
        Role::Operator,
        plan,
        Knowledge {
            role: Role::Operator,
            own_truth: 900_000,
            inferred_peer_truth: 1_000_000,
        },
        Box::new(OptimalStrategy),
        op_keys.private.clone(),
        edge_keys.public.clone(),
        nonce_o,
        32,
    );
    let mut initiator = Session::new(op);
    let mut responder = Session::new(edge);
    let mut rng = SimRng::new(seed);
    let mk = |rng: &mut SimRng| -> FaultyChannel {
        let model: Box<dyn tlc_net::loss::LossModel> = if loss == 0.0 {
            Box::new(NoLoss)
        } else {
            Box::new(UniformLoss::new(loss))
        };
        FaultyChannel::new(spec.clone(), model, SimRng::new(rng.next_u64()))
    };
    let mut fwd = mk(&mut rng);
    let mut back = mk(&mut rng);
    let report = run_session_pair(
        &mut initiator,
        &mut responder,
        &mut fwd,
        &mut back,
        SimTime::from_millis(0),
        SimDuration::from_secs(120),
    )
    .expect("initiate cannot fail for a fresh optimal endpoint");
    (
        report.converged(),
        report.elapsed,
        report.frames_sent,
        report.retransmits,
    )
}

/// Runs the sweep: `scale` controls sessions per loss point
/// (Quick: 20, Full: 200). Loss points fan out across the sweep thread
/// pool; each point's sessions stay sequential with per-session seeds,
/// so every row is byte-identical to a single-threaded run.
#[expect(clippy::expect_used, reason = "keys from fixed seeds always generate")]
pub fn run(scale: RunScale) -> Vec<RobustnessRow> {
    let sessions = match scale {
        RunScale::Quick => 20u64,
        RunScale::Full => 200u64,
    };
    let edge_keys = KeyPair::generate_for_seed(1024, 0x10B1).expect("keygen");
    let op_keys = KeyPair::generate_for_seed(1024, 0x10B2).expect("keygen");
    let spec = FaultSpec::with_faults(DUPLICATE_P, REORDER_P, 0.0);
    crate::par::par_map(&LOSS_PCTS, |&pct| {
        let loss = pct as f64 / 100.0;
        let mut latencies_ms = Vec::with_capacity(sessions as usize);
        let mut converged = 0u64;
        let mut frames = 0u64;
        let mut retransmits = 0u64;
        for i in 0..sessions {
            let seed = 0xC0DE_0000 + (pct as u64) * 10_000 + i;
            let (ok, elapsed, f, r) = run_one(&edge_keys, &op_keys, loss, &spec, seed, seed);
            if ok {
                converged += 1;
            }
            latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            frames += f;
            retransmits += r;
        }
        latencies_ms.sort_by(f64::total_cmp);
        let mean = latencies_ms.iter().sum::<f64>() / sessions as f64;
        let p95_idx = ((sessions as f64 * 0.95).ceil() as usize).min(latencies_ms.len()) - 1;
        RobustnessRow {
            loss_pct: pct,
            sessions,
            converged,
            fallbacks: sessions - converged,
            convergence_rate: converged as f64 / sessions as f64,
            mean_latency_ms: mean,
            p95_latency_ms: latencies_ms[p95_idx],
            mean_frames: frames as f64 / sessions as f64,
            retransmits,
        }
    })
}

/// Prints the sweep as a table, one row per loss point.
pub fn print(rows: &[RobustnessRow]) {
    println!("Control-plane robustness — negotiation vs signaling loss");
    println!(
        "{:<9} {:>9} {:>10} {:>10} {:>14} {:>13} {:>12} {:>12}",
        "loss %",
        "sessions",
        "converged",
        "conv rate",
        "mean lat ms",
        "p95 lat ms",
        "frames",
        "retransmits"
    );
    for r in rows {
        println!(
            "{:<9} {:>9} {:>10} {:>10.3} {:>14.1} {:>13.1} {:>12.1} {:>12}",
            r.loss_pct,
            r.sessions,
            r.converged,
            r.convergence_rate,
            r.mean_latency_ms,
            r.p95_latency_ms,
            r.mean_frames,
            r.retransmits
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_point_always_converges_fast() {
        let rows = run(RunScale::Quick);
        assert_eq!(rows.len(), LOSS_PCTS.len());
        let clean = &rows[0];
        assert_eq!(clean.loss_pct, 0);
        assert_eq!(clean.convergence_rate, 1.0);
        assert!(clean.mean_latency_ms < 100.0, "{}", clean.mean_latency_ms);
        // Lossy points never beat the clean point on latency.
        for r in &rows[1..] {
            assert!(r.mean_latency_ms >= clean.mean_latency_ms - 1e-9);
            assert_eq!(r.sessions, r.converged + r.fallbacks);
        }
    }
}
