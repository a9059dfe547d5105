//! # tlc-lint
//!
//! The one workspace check no rustc or clippy lint can state: a
//! potential deadlock. The verifier is public (§5.3), so its code must
//! be auditable; everything else that audit leans on is a compiler
//! check (DESIGN §9): `unsafe_code` in each crate's `[lints.rust]`,
//! clippy's `undocumented_unsafe_blocks`, the no-panic family denied
//! at every library crate's root, `disallowed_methods` on wall-clock
//! reads (root `clippy.toml`), `arithmetic_side_effects` with the
//! narrowing-cast lints on the charging and peer-facing files, and a
//! `Secret` type with no `Debug` for the RSA private limbs.
//!
//! One rule, interprocedural over the workspace call graph ([`graph`],
//! DESIGN §9.1):
//!
//! * **lock-order** ([`locks`]) — held-lock sets propagated along call
//!   edges; a cycle in the lock graph (potential deadlock) is reported
//!   with one site per edge.
//!
//! Every `.rs` file is read and lexed exactly once per check
//! ([`Workspace`]). Run with `cargo run -p tlc-lint -- check`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod github;
pub mod graph;
pub mod locks;
pub mod scan;

use scan::ScannedFile;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`lock-order`, or the meta rule `parse`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Innermost enclosing named item (may be empty).
    pub item: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Rule ids, in report order.
pub const RULES: &[(&str, &str)] = &[(
    "lock-order",
    "the workspace lock graph (Mutex/RwLock acquisition order, propagated along call edges) is cycle-free",
)];

/// Every source file of the workspace, read and lexed exactly once;
/// the call graph borrows the same [`ScannedFile`]s.
pub struct Workspace {
    /// Scanned files, sorted by workspace-relative path.
    pub files: Vec<ScannedFile>,
    /// Lexer failures, as findings under the `parse` meta-rule.
    pub parse_errors: Vec<Finding>,
}

impl Workspace {
    /// Builds a workspace from in-memory sources (fixture tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            parse_errors: Vec::new(),
        };
        for (rel, src) in sources {
            ws.add(rel, src);
        }
        ws
    }

    /// Reads every `.rs` file under the workspace `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        for top in ["crates", "examples", "tests"] {
            collect_rs_files(&root.join(top), &mut paths)?;
        }
        let mut ws = Workspace {
            files: Vec::new(),
            parse_errors: Vec::new(),
        };
        for path in &paths {
            let src = fs::read_to_string(path)?;
            ws.add(&rel_path(root, path), &src);
        }
        Ok(ws)
    }

    fn add(&mut self, rel: &str, src: &str) {
        match ScannedFile::parse(rel, src) {
            Ok(f) => self.files.push(f),
            Err(e) => self.parse_errors.push(Finding {
                rule: "parse",
                path: rel.to_string(),
                line: e.line,
                col: 1,
                item: String::new(),
                message: format!("lexer error: {}", e.message),
            }),
        }
    }

    /// Runs the lock-order pass over the workspace call graph.
    pub fn check(&self) -> Vec<Finding> {
        let mut findings = self.parse_errors.clone();
        findings.extend(locks::check(&graph::CallGraph::build(&self.files)));
        findings
    }
}

/// Outcome of a workspace check.
#[derive(Debug)]
pub struct Report {
    /// Findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Clean means zero findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // The bad-fixture corpus is linted by its own tests, not as
            // part of the workspace; target/ and vendor/ never are.
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative, `/`-separated form of `path`.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints a set of in-memory source files as one mini-workspace (what
/// the fixture tests drive).
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Finding> {
    let ws = Workspace::from_sources(sources);
    let mut findings = ws.check();
    sort_findings(&mut findings);
    findings
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Runs the full workspace check rooted at `root`.
pub fn run_check(root: &Path) -> std::io::Result<Report> {
    let ws = Workspace::load(root)?;
    let files_scanned = ws.files.len() + ws.parse_errors.len();
    let mut findings = ws.check();
    sort_findings(&mut findings);
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
