//! `tlc` — command-line front end to the TLC reproduction.
//!
//! ```text
//! tlc eval [--full]                 regenerate every paper table/figure
//! tlc experiment <name> [--full]    one experiment; without a name, lists
//!                                   them (`tlc_sim::experiments::EXPERIMENTS`)
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
use tlc_core::session::{run_session_pair, Session, SessionOutcome};
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
use tlc_sim::experiments::{self, Experiment, RunContext, RunScale, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(known) = known_flags(cmd) else {
        eprintln!("unknown command `{cmd}`\n{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..], known) {
        Ok(flags) => flags,
        Err(flag) => {
            eprintln!("unknown flag `--{flag}` for `tlc {cmd}`\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let scale = if flags.contains_key("full") {
        RunScale::Full
    } else {
        RunScale::Quick
    };
    match cmd.as_str() {
        "eval" => return run_rows(EXPERIMENTS, scale),
        "experiment" => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: tlc experiment <name> [--full]\n{}", listing());
                return ExitCode::FAILURE;
            };
            let Some(row) = experiments::find(name) else {
                eprintln!("unknown experiment `{name}`; there are:\n{}", listing());
                return ExitCode::FAILURE;
            };
            return run_rows(std::slice::from_ref(row), scale);
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

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: tlc <eval|experiment|negotiate|verify|keygen> [flags]\n\
  tlc eval [--full]\n\
  tlc experiment <{}> [--full]\n\
  tlc negotiate --sent BYTES --received BYTES [--c 0.5] [--strategy optimal|honest|random]\n\
                [--loss 0.2] [--dup 0.05] [--reorder 0.05] [--seed N]   (lossy control plane)\n\
  tlc verify --poc HEX [--c 0.5]\n\
  tlc keygen --seed N",
        names.join("|")
    )
}

/// One line per experiment: its name and what it regenerates.
fn listing() -> String {
    let lines: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<11} {}", e.name, e.label))
        .collect();
    lines.join("\n")
}

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

/// Runs `rows` in order over one context, so the congestion sweep is
/// simulated once however many of them read it. A row that fails is
/// reported and the rest still run.
fn run_rows(rows: &[Experiment], scale: RunScale) -> ExitCode {
    let cx = RunContext::new(scale);
    let mut code = ExitCode::SUCCESS;
    for e in rows {
        if let Err(err) = (e.run)(&cx) {
            eprintln!("{} failed: {err}", e.name);
            code = ExitCode::FAILURE;
        }
    }
    code
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
    let mut initiator = Session::new(op);
    let mut responder = Session::new(edge);
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
