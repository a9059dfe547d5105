//! `tlc-ledger`: one layered, repeatable benchmark for the whole PoC
//! path — twin → negotiate → sign → TCP ingress → service → verdict,
//! and the roaming SETTLE plane. See `ledger/README.md`.
//!
//! ```text
//! tlc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! tlc-ledger run   --seed <n> [--seconds <s>] [--smoke]
//! tlc-ledger trace --seed <n> [--seconds <s>] [--smoke]
//! tlc-ledger check <runA.json[,runA2.json...]> <runB.json[,...]>
//! ```
//!
//! The first form is the benchmark contract's: one workload, one
//! process, the result object as the last line of stdout. `run` and
//! `trace` run all six that way, each in a child process of its own,
//! and write `ledger/out/{run,layers}-<seed>.json` for `check`.

mod catalog;
mod check;
mod inputs;
mod json;
mod run;
#[cfg(test)]
mod schema;
mod span;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use catalog::Workload;
use inputs::Scale;
use json::{quote, Json};
use run::RunSpec;

/// `run_seconds` in `BENCHMARK.json`; the default for `run`/`trace`.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  tlc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  tlc-ledger run   --seed <n> [--seconds <s>] [--smoke]
  tlc-ledger trace --seed <n> [--seconds <s>] [--smoke]
  tlc-ledger check <runA.json[,runA2.json...]> <runB.json[,...]>
workloads: cycle_e2e verify_flood verify_frames verify_single settle_rpc twin_churn";

/// Flags after the optional subcommand. Unknown flags are errors: a
/// typo must not silently measure something else.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => {
                f.seed = Some(value()?.parse().map_err(|_| "--seed wants a u64")?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                });
            }
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(f)
}

/// The contract form: one workload in this process.
fn one_workload(f: &Flags) -> Result<bool, String> {
    let name = f.workload.as_deref().ok_or("missing --workload")?;
    let spec = RunSpec {
        workload: Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: f.seed.ok_or("missing --seed")?,
        seconds: f.seconds.ok_or("missing --seconds")?,
        scale: if f.smoke { Scale::SMOKE } else { Scale::FULL },
    };
    let outcome = if f.trace.ok_or("missing --trace")? {
        trace::traced(spec)?
    } else {
        run::end_to_end(spec)?
    };
    if let Some(spans) = &outcome.spans_json {
        let path = out_dir()?.join(format!("trace-{}-{name}.json", spec.seed));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    outcome.print();
    Ok(outcome.correct)
}

/// `ledger/out`, created if need be: where run sets and spans go.
fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `run` / `trace`: all six workloads, one child process each (so
/// `peak_rss_mb`, pinning and warm-up are per workload), gathered into
/// one file.
fn all_workloads(f: &Flags, trace: bool) -> Result<bool, String> {
    if f.workload.is_some() || f.trace.is_some() {
        return Err("run/trace take only --seed, --seconds and --smoke".to_string());
    }
    let seed = f.seed.ok_or("missing --seed")?;
    let seconds = f.seconds.unwrap_or(DEFAULT_SECONDS);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            // Only stdout is gathered; what a child says on stderr
            // (why pinning or set-up failed) goes straight through.
            .stderr(Stdio::inherit());
        if f.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        match Json::parse(last) {
            Ok(result) if out.status.success() => {
                ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
                entries.push(format!("{}: {last}", quote(w.name())));
            }
            _ => {
                eprintln!("{}: failed ({})", w.name(), out.status);
                ok = false;
            }
        }
    }
    let path = out_dir()?.join(format!(
        "{}-{seed}.json",
        if trace { "layers" } else { "run" }
    ));
    let doc = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"smoke\": {}, \"workloads\": {{\n{}\n}}}}\n",
        f.smoke,
        entries.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => all_workloads(&parse_flags(&args[1..])?, false),
        Some("trace") => all_workloads(&parse_flags(&args[1..])?, true),
        Some("check") => match &args[1..] {
            [a, b] => check::check(a, b),
            _ => Err("check takes exactly two sides".to_string()),
        },
        Some(_) => one_workload(&parse_flags(args)?),
        None => Err("no arguments".to_string()),
    }
}

fn main() -> ExitCode {
    inputs::select_server_loop();

    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tlc-ledger: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_flags_parse_in_any_order() {
        let f = parse_flags(&args(
            "--trace 1 --seconds 2.5 --workload twin_churn --seed 18446744073709551615 --smoke",
        ))
        .expect("parses");
        assert_eq!(f.workload.as_deref(), Some("twin_churn"));
        assert_eq!(f.seed, Some(u64::MAX));
        assert_eq!(f.seconds, Some(2.5));
        assert_eq!(f.trace, Some(true));
        assert!(f.smoke);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            "--sed 1",
            "--seed",
            "--seed -1",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--workload",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(dispatch(&args("check only-one.json")).is_err());
        assert!(dispatch(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(dispatch(&args("run --seed 1 --workload settle_rpc")).is_err());
        assert!(dispatch(&[]).is_err());
    }
}
