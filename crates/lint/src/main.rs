//! `tlc-lint` CLI.
//!
//! ```text
//! cargo run -p tlc-lint -- check [--root DIR] [--github]
//! cargo run -p tlc-lint -- rules
//! ```
//!
//! `--github` additionally emits GitHub Actions `::error` annotations
//! so findings land inline on the PR diff.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: tlc-lint <check [--root DIR] [--github] | rules>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for (rule, doc) in tlc_lint::RULES {
                println!("{rule:16} {doc}");
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut root: Option<PathBuf> = None;
            let mut github = false;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--root" => match it.next() {
                        Some(v) => root = Some(PathBuf::from(v)),
                        None => return usage(),
                    },
                    "--github" => github = true,
                    _ => return usage(),
                }
            }
            let root = match root.or_else(|| {
                std::env::current_dir()
                    .ok()
                    .and_then(|d| tlc_lint::find_workspace_root(&d))
            }) {
                Some(r) => r,
                None => {
                    eprintln!("tlc-lint: no workspace root found (pass --root)");
                    return ExitCode::from(2);
                }
            };
            match tlc_lint::run_check(&root) {
                Ok(report) => {
                    for f in &report.findings {
                        println!("{f}");
                    }
                    if github && !report.is_clean() {
                        println!("{}", tlc_lint::github::github_annotations(&report));
                    }
                    if report.is_clean() {
                        println!(
                            "tlc-lint: clean ({} files, {} rules)",
                            report.files_scanned,
                            tlc_lint::RULES.len()
                        );
                        ExitCode::SUCCESS
                    } else {
                        println!(
                            "tlc-lint: {} finding(s) across {} files",
                            report.findings.len(),
                            report.files_scanned
                        );
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("tlc-lint: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
