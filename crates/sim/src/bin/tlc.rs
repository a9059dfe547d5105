//! `tlc` — command-line front end to the TLC reproduction.
//!
//! ```text
//! tlc eval [--full]                 regenerate every paper table/figure
//! tlc experiment <name> [--full]    one experiment (fig03..fig18, table2,
//!                                   dataset, generic, ablation, mobility,
//!                                   roaming, strawman, twin)
//! tlc negotiate --sent B --received B [--c F] [--strategy optimal|honest|random]
//!               [--loss P] [--dup P] [--reorder P] [--seed N]
//!                                   price one cycle, print the PoC (hex);
//!                                   loss/dup/reorder run the negotiation
//!                                   through the loss-tolerant session layer
//!                                   over a faulty signaling channel
//! tlc verify --poc HEXFILE [--c F]  verify a PoC produced by `negotiate`
//! tlc keygen --seed N               print a deterministic RSA-1024 public key
//! ```
//!
//! No external arg-parsing crates: flags are simple `--key value` pairs,
//! and a flag its sub-command does not know is an error, not a no-op.

use std::collections::HashMap;
use std::process::ExitCode;
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::{DataPlan, LossWeight};
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::session::{run_session_pair, Session, SessionConfig, SessionOutcome};
use tlc_core::strategy::{
    HonestStrategy, Knowledge, OptimalStrategy, RandomSelfishStrategy, Role, Strategy,
};
use tlc_core::verify::verify_poc;
use tlc_crypto::encoding::encode_public_key;
use tlc_crypto::KeyPair;
use tlc_net::channel::{FaultSpec, FaultyChannel};
use tlc_net::loss::{LossModel, NoLoss, UniformLoss};
use tlc_net::rng::SimRng;
use tlc_net::time::{SimDuration, SimTime};
use tlc_sim::experiments::{
    ablation, dataset, fig03, fig04, fig12, fig13, fig14, fig15, fig16, fig17, fig18, generic,
    mobility, roaming, robustness, strawman, sweep, table2, twin, RunScale,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(known) = known_flags(cmd) else {
        eprintln!("unknown command `{cmd}`\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..], known) {
        Ok(flags) => flags,
        Err(flag) => {
            eprintln!("unknown flag `--{flag}` for `tlc {cmd}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let scale = if flags.contains_key("full") {
        RunScale::Full
    } else {
        RunScale::Quick
    };
    match cmd.as_str() {
        "eval" => eval(scale),
        "experiment" => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: tlc experiment <name> [--full]");
                return ExitCode::FAILURE;
            };
            return experiment(name, scale);
        }
        "negotiate" => return negotiate_cmd(&flags),
        "verify" => return verify_cmd(&flags),
        "keygen" => {
            let seed = flag_u64(&flags, "seed").unwrap_or(0);
            match KeyPair::generate_for_seed(1024, seed) {
                Ok(kp) => println!("{}", hex(&encode_public_key(&kp.public))),
                Err(e) => {
                    eprintln!("keygen failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => unreachable!("known_flags accepts only the commands above"),
    }
    ExitCode::SUCCESS
}

/// The flags each sub-command reads; `None` for an unknown command.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "eval" | "experiment" => &["full"],
        "negotiate" => &[
            "sent", "received", "c", "strategy", "loss", "dup", "reorder", "seed",
        ],
        "verify" => &["poc", "c"],
        "keygen" => &["seed"],
        _ => return None,
    })
}

const USAGE: &str = "usage: tlc <eval|experiment|negotiate|verify|keygen> [flags]\n\
  tlc eval [--full]\n\
  tlc experiment <fig03|fig04|fig12|fig13|fig14|fig15|fig16|fig17|fig18|table2|dataset|generic|ablation|mobility|roaming|robustness|strawman|twin> [--full]\n\
  tlc negotiate --sent BYTES --received BYTES [--c 0.5] [--strategy optimal|honest|random]\n\
                [--loss 0.2] [--dup 0.05] [--reorder 0.05] [--seed N]   (lossy control plane)\n\
  tlc verify --poc HEX [--c 0.5]\n\
  tlc keygen --seed N";

/// Collects `--key value` / bare `--key` pairs. A key outside `known`
/// is returned as the error: a typo'd `--los 0.2` must not silently run
/// the clean path.
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if !known.contains(&key) {
                return Err(key.to_string());
            }
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_default();
            if value.is_empty() {
                out.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                out.insert(key.to_string(), value);
                i += 2;
            }
        } else {
            i += 1;
        }
    }
    Ok(out)
}

fn flag_u64(flags: &HashMap<String, String>, key: &str) -> Option<u64> {
    flags.get(key).and_then(|v| v.parse().ok())
}

fn flag_f64(flags: &HashMap<String, String>, key: &str) -> Option<f64> {
    flags.get(key).and_then(|v| v.parse().ok())
}

fn eval(scale: RunScale) {
    fig03::print(&fig03::run(scale));
    let (rows, summary) = fig04::run(scale);
    fig04::print(&rows, &summary);
    let samples = sweep::congestion_sweep(scale);
    dataset::print(&dataset::from_samples(&samples));
    fig12::print(&mut fig12::from_samples(&samples));
    table2::print(&table2::from_samples(&samples));
    fig13::print(&fig13::from_samples(&samples));
    fig14::print(&fig14::run(scale));
    fig15::print(&mut fig15::from_samples(&samples));
    let rtt = fig16::run_rtt(scale);
    fig16::print(&rtt, &fig16::rounds_from_samples(&samples));
    match fig17::run(5) {
        Ok(r) => fig17::print(&r),
        Err(e) => eprintln!("fig17 skipped: negotiation failed: {e}"),
    }
    fig18::print(&mut fig18::run(scale));
    generic::print(&generic::run(scale));
    ablation::print(&ablation::run(scale));
    mobility::print(&mobility::run(scale));
    strawman::print(&strawman::run(scale));
    robustness::print(&robustness::run(scale));
    twin::print(&twin::run(scale));
    roaming::print(&roaming::run(scale));
}

fn experiment(name: &str, scale: RunScale) -> ExitCode {
    match name {
        "fig03" => fig03::print(&fig03::run(scale)),
        "fig04" => {
            let (rows, summary) = fig04::run(scale);
            fig04::print(&rows, &summary);
        }
        "fig12" => fig12::print(&mut fig12::run(scale)),
        "fig13" => fig13::print(&fig13::run(scale)),
        "fig14" => fig14::print(&fig14::run(scale)),
        "fig15" => fig15::print(&mut fig15::run(scale)),
        "fig16" => {
            let samples = sweep::congestion_sweep(scale);
            fig16::print(
                &fig16::run_rtt(scale),
                &fig16::rounds_from_samples(&samples),
            );
        }
        "fig17" => match fig17::run(10) {
            Ok(r) => fig17::print(&r),
            Err(e) => {
                eprintln!("fig17 failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "fig18" => fig18::print(&mut fig18::run(scale)),
        "table2" => table2::print(&table2::run(scale)),
        "dataset" => dataset::print(&dataset::from_samples(&sweep::congestion_sweep(scale))),
        "generic" => generic::print(&generic::run(scale)),
        "ablation" => ablation::print(&ablation::run(scale)),
        "mobility" => mobility::print(&mobility::run(scale)),
        "robustness" => robustness::print(&robustness::run(scale)),
        "strawman" => strawman::print(&strawman::run(scale)),
        "twin" => twin::print(&twin::run(scale)),
        "roaming" => roaming::print(&roaming::run(scale)),
        other => {
            eprintln!("unknown experiment `{other}`");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn plan_from(flags: &HashMap<String, String>) -> DataPlan {
    let c = flag_f64(flags, "c").unwrap_or(0.5);
    DataPlan {
        loss_weight: LossWeight::from_f64(c),
        ..DataPlan::paper_default()
    }
}

fn negotiate_cmd(flags: &HashMap<String, String>) -> ExitCode {
    let (Some(sent), Some(received)) = (flag_u64(flags, "sent"), flag_u64(flags, "received"))
    else {
        eprintln!("negotiate needs --sent and --received (bytes)");
        return ExitCode::FAILURE;
    };
    if received > sent {
        eprintln!("received ({received}) cannot exceed sent ({sent})");
        return ExitCode::FAILURE;
    }
    let plan = plan_from(flags);
    let strategy = flags
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("optimal");
    let mk = |seed: u64| -> Box<dyn Strategy> {
        match strategy {
            "honest" => Box::new(HonestStrategy),
            "random" => Box::new(RandomSelfishStrategy::new(SimRng::new(seed))),
            _ => Box::new(OptimalStrategy),
        }
    };
    let ek = KeyPair::generate_for_seed(1024, 1001).expect("keygen");
    let ok = KeyPair::generate_for_seed(1024, 1002).expect("keygen");
    let mut edge = Endpoint::new(
        Role::Edge,
        plan,
        Knowledge {
            role: Role::Edge,
            own_truth: sent,
            inferred_peer_truth: received,
        },
        mk(11),
        ek.private.clone(),
        ok.public.clone(),
        [0xAA; NONCE_LEN],
        64,
    );
    let mut op = Endpoint::new(
        Role::Operator,
        plan,
        Knowledge {
            role: Role::Operator,
            own_truth: received,
            inferred_peer_truth: sent,
        },
        mk(22),
        ok.private.clone(),
        ek.public.clone(),
        [0xBB; NONCE_LEN],
        64,
    );
    let faulty = ["loss", "dup", "reorder", "seed"]
        .iter()
        .any(|k| flags.contains_key(*k));
    if faulty {
        return negotiate_faulty(flags, edge, op);
    }
    match run_negotiation(&mut op, &mut edge) {
        Ok((poc, msgs)) => {
            eprintln!(
                "negotiated charge: {} bytes in {} messages (claims: edge {}, operator {})",
                poc.charge,
                msgs,
                poc.edge_usage(),
                poc.operator_usage()
            );
            println!("{}", hex(&poc.encode()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("negotiation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `negotiate` through the loss-tolerant session layer over a pair of
/// faulty signaling channels (`--loss`, `--dup`, `--reorder`, `--seed`).
fn negotiate_faulty(flags: &HashMap<String, String>, edge: Endpoint, op: Endpoint) -> ExitCode {
    let loss = flag_f64(flags, "loss").unwrap_or(0.0);
    let dup = flag_f64(flags, "dup").unwrap_or(0.0);
    let reorder = flag_f64(flags, "reorder").unwrap_or(0.0);
    let seed = flag_u64(flags, "seed").unwrap_or(1);
    for (name, p) in [("loss", loss), ("dup", dup), ("reorder", reorder)] {
        if !(0.0..=1.0).contains(&p) {
            eprintln!("--{name} must be a probability in [0, 1]");
            return ExitCode::FAILURE;
        }
    }
    let spec = FaultSpec::with_faults(dup, reorder, 0.0);
    let mut rng = SimRng::new(seed);
    let mk = |rng: &mut SimRng| -> FaultyChannel {
        let model: Box<dyn LossModel> = if loss == 0.0 {
            Box::new(NoLoss)
        } else {
            Box::new(UniformLoss::new(loss))
        };
        FaultyChannel::new(spec.clone(), model, SimRng::new(rng.next_u64()))
    };
    let mut fwd = mk(&mut rng);
    let mut back = mk(&mut rng);
    let mut initiator = Session::new(op, SessionConfig::default());
    let mut responder = Session::new(edge, SessionConfig::default());
    let report = match run_session_pair(
        &mut initiator,
        &mut responder,
        &mut fwd,
        &mut back,
        SimTime::from_millis(0),
        SimDuration::from_secs(300),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("negotiation failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "session: loss {loss} dup {dup} reorder {reorder} seed {seed} -> \
         {} frames, {} retransmits, {:.1} ms virtual latency",
        report.frames_sent,
        report.retransmits,
        report.elapsed.as_secs_f64() * 1e3
    );
    match (&report.initiator, &report.responder) {
        (SessionOutcome::Proof(poc), _) | (_, SessionOutcome::Proof(poc)) => {
            eprintln!(
                "negotiated charge: {} bytes (claims: edge {}, operator {})",
                poc.charge,
                poc.edge_usage(),
                poc.operator_usage()
            );
            println!("{}", hex(&poc.encode()));
            ExitCode::SUCCESS
        }
        (SessionOutcome::Fallback { reason, charge }, _) => {
            eprintln!("negotiation abandoned ({reason:?}); legacy fallback charge: {charge} bytes");
            ExitCode::SUCCESS
        }
    }
}

fn verify_cmd(flags: &HashMap<String, String>) -> ExitCode {
    let Some(poc_hex) = flags.get("poc") else {
        eprintln!("verify needs --poc HEX (as printed by `tlc negotiate`)");
        return ExitCode::FAILURE;
    };
    let Some(bytes) = unhex(poc_hex) else {
        eprintln!("--poc is not valid hex");
        return ExitCode::FAILURE;
    };
    let poc = match PocMsg::decode(&bytes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("malformed PoC: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = plan_from(flags);
    // The CLI's negotiate command uses fixed deterministic identities.
    let ek = KeyPair::generate_for_seed(1024, 1001).expect("keygen");
    let ok = KeyPair::generate_for_seed(1024, 1002).expect("keygen");
    match verify_poc(&poc, &plan, &ek.public, &ok.public) {
        Ok(v) => {
            println!(
                "VALID: charge {} bytes (edge claim {}, operator claim {}, {} round(s))",
                v.charge, v.edge_claim, v.operator_claim, v.rounds
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}
