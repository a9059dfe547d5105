//! The `tlc` binary's flag handling: a flag the sub-command does not
//! know is rejected with the usage text, never silently ignored.

use std::process::Command;

fn tlc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tlc"))
        .args(args)
        .output()
        .expect("run tlc")
}

#[test]
fn typoed_flag_is_rejected_with_usage() {
    let out = tlc(&[
        "negotiate",
        "--sent",
        "1000000",
        "--received",
        "900000",
        "--los",
        "0.2",
    ]);
    assert!(
        !out.status.success(),
        "a typo'd flag must not run the clean path"
    );
    assert!(out.stdout.is_empty(), "no PoC may be printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag `--los` for `tlc negotiate`"),
        "{err}"
    );
    assert!(err.contains("usage: tlc"), "{err}");

    // A flag that exists, but on another sub-command, is just as unknown.
    let out = tlc(&["keygen", "--poc", "00"]);
    assert!(!out.status.success());
}

#[test]
fn valid_flags_still_run() {
    let out = tlc(&[
        "negotiate",
        "--sent",
        "1000000",
        "--received",
        "900000",
        "--loss",
        "0.2",
        "--seed",
        "7",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let poc = String::from_utf8_lossy(&out.stdout);
    assert!(!poc.trim().is_empty() && poc.trim().bytes().all(|b| b.is_ascii_hexdigit()));

    let out = tlc(&["verify", "--poc", poc.trim()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("VALID"));
}

#[test]
fn unknown_experiment_is_rejected_with_the_tables_names() {
    let out = tlc(&["experiment", "nosuch"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing may be printed as a result");
    let err = String::from_utf8_lossy(&out.stderr);
    let mut lines = err.lines();
    let first = lines.next().unwrap_or_default();
    assert!(first.contains("unknown experiment `nosuch`"), "{err}");
    // One indented line per row, name first: exactly the table, in order.
    let listed: Vec<&str> = lines.filter_map(|l| l.split_whitespace().next()).collect();
    let table: Vec<&str> = tlc_sim::experiments::EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(listed, table, "{err}");
    // The usage text names the same rows, from the same table.
    let usage = String::from_utf8_lossy(&tlc(&[]).stderr).into_owned();
    assert!(usage.contains(&format!("<{}>", table.join("|"))), "{usage}");
}
