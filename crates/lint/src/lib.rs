//! # tlc-lint
//!
//! The workspace static-analysis plane for the TLC reproduction: a
//! purpose-built linter for the repo-specific invariants TLC's trust
//! story rests on (§5.3 public verifiability means the verification
//! code itself must be auditable) that no rustc or clippy lint checks.
//! Clippy runs the rest (DESIGN §9): `undocumented_unsafe_blocks`, the
//! `unwrap_used`/`expect_used`/`panic` family on the no-panic files,
//! `disallowed_methods` on wall-clock reads (root `clippy.toml`), and
//! `arithmetic_side_effects` with the narrowing-cast lints on the
//! charging and peer-facing files.
//!
//! Two per-file rules, both token-sequence based (see [`rules`]):
//!
//! 1. **unsafe-scope** — `unsafe` only inside `tlc-crypto` and tlc-net's
//!    readiness shim, and every other crate declares
//!    `#![forbid(unsafe_code)]` (tlc-crypto itself must
//!    `#![deny(unsafe_op_in_unsafe_fn)]`),
//! 2. **secret-hygiene** — `PrivateKey`/CRT material never reaches
//!    `#[derive(Debug)]` or `format!`-family macro arguments.
//!
//! Plus two *interprocedural* passes over the workspace call graph
//! ([`graph`], DESIGN §9.1):
//!
//! 3. **transitive-no-panic** ([`nopanic`]) — may-panic propagated
//!    backwards through resolved call edges, so a function in a
//!    no-panic file that reaches `unwrap` five helpers deep outside
//!    that scope is caught with the chain named,
//! 4. **lock-order** ([`locks`]) — held-lock sets propagated along
//!    call edges; a cycle in the lock graph (potential deadlock) is
//!    reported with one site per edge.
//!
//! Every `.rs` file is read and lexed exactly once per check
//! ([`Workspace`]); the per-file rules, the crate-manifest checks, and
//! the call-graph passes all share the same token streams. Run with
//! `cargo run -p tlc-lint -- check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod github;
pub mod graph;
pub mod locks;
pub mod nopanic;
pub mod rules;
pub mod scan;

use rules::{rules_for, Finding};
use scan::ScannedFile;
use std::fs;
use std::path::{Path, PathBuf};
use syn::{Token, TokenKind};

/// Crates that must carry `#![forbid(unsafe_code)]` in `src/lib.rs`.
/// tlc-net is the deliberate exception: its readiness syscall shim is
/// the one sanctioned `unsafe` module outside tlc-crypto, so the crate
/// carries `#![deny(unsafe_code)]` with a module-scoped allow instead
/// (checked separately below).
pub const FORBID_UNSAFE_CRATES: &[&str] = &["core", "sim", "workloads", "cell", "bench", "lint"];

/// The one file outside tlc-crypto permitted to contain `unsafe`
/// tokens: the epoll/`SO_REUSEPORT` syscall shim. Its blocks still owe
/// `// SAFETY:` audits (clippy's `undocumented_unsafe_blocks`, denied
/// on the module in tlc-net's `lib.rs`).
pub const UNSAFE_EXEMPT_FILES: &[&str] = &["crates/net/src/readiness.rs"];

/// Every source file of the workspace, read and lexed exactly once.
/// The per-file rules, the crate-manifest checks, and the
/// interprocedural passes all borrow the same [`ScannedFile`]s.
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

    /// The scanned file at a workspace-relative path, if present.
    pub fn file(&self, rel: &str) -> Option<&ScannedFile> {
        self.files.iter().find(|f| f.rel_path == rel)
    }

    /// Runs the per-file rules and the two interprocedural passes.
    pub fn check(&self) -> Vec<Finding> {
        let mut findings = self.parse_errors.clone();
        for file in &self.files {
            for rule in rules_for(file) {
                findings.extend(rule(file));
            }
        }
        let graph = graph::CallGraph::build(&self.files);
        findings.extend(nopanic::check(&graph));
        findings.extend(locks::check(&graph));
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

/// Shared attribute scanner used by rules: if significant position `si`
/// starts an attribute (`#…[…]`), returns its identifiers and the
/// significant position just past the closing bracket.
pub fn scan_attr(file: &ScannedFile, si: usize) -> Option<(Vec<String>, usize)> {
    let tokens = &file.tokens;
    let sig = &file.sig;
    let mut i = si;
    if !tokens[*sig.get(i)?].is_punct('#') {
        return None;
    }
    i += 1;
    if tokens.get(*sig.get(i)?).is_some_and(|t| t.is_punct('!')) {
        i += 1;
    }
    if !tokens.get(*sig.get(i)?).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    let mut depth = 0usize;
    let mut idents = Vec::new();
    while i < sig.len() {
        let t: &Token = &tokens[sig[i]];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((idents, i + 1));
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(t.text.clone());
        }
        i += 1;
    }
    None
}

/// The identifier lists of a file's inner attributes (`#![…]`), which
/// precede its first item.
pub fn inner_attrs(file: &ScannedFile) -> Vec<Vec<String>> {
    let mut attrs = Vec::new();
    let mut si = 0usize;
    while si + 1 < file.sig.len()
        && file.sig_tok(si).is_punct('#')
        && file.sig_tok(si + 1).is_punct('!')
    {
        let Some((idents, after)) = scan_attr(file, si) else {
            break;
        };
        attrs.push(idents);
        si = after;
    }
    attrs
}

/// Whether a file declares an inner attribute whose identifier list is
/// exactly `want` (e.g. `["forbid", "unsafe_code"]`).
pub fn has_inner_attr(file: &ScannedFile, want: &[&str]) -> bool {
    inner_attrs(file)
        .iter()
        .any(|idents| idents.iter().map(String::as_str).eq(want.iter().copied()))
}

/// Lints a single in-memory source file under its workspace-relative
/// path (what the fixture tests drive).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    match ScannedFile::parse(rel_path, src) {
        Ok(file) => {
            let mut out = Vec::new();
            for rule in rules_for(&file) {
                out.extend(rule(&file));
            }
            out
        }
        Err(e) => vec![Finding {
            rule: "parse",
            path: rel_path.to_string(),
            line: e.line,
            col: 1,
            item: String::new(),
            message: format!("lexer error: {}", e.message),
        }],
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

/// Lints a set of in-memory source files as one mini-workspace: the
/// per-file rules plus the two interprocedural passes, no
/// crate-manifest checks. This is what the cross-file fixture tests
/// drive (e.g. a no-panic root reaching a panicking helper in a
/// *different* fixture file).
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Finding> {
    let ws = Workspace::from_sources(sources);
    let mut findings = ws.check();
    sort_findings(&mut findings);
    findings
}

/// The crate-manifest half of the unsafe-scope rule, evaluated over the
/// already-scanned workspace (no file is re-read).
fn manifest_findings(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let has = |rel: &str, want: &[&str]| ws.file(rel).is_some_and(|f| has_inner_attr(f, want));
    for krate in FORBID_UNSAFE_CRATES {
        let rel = format!("crates/{krate}/src/lib.rs");
        if !has(&rel, &["forbid", "unsafe_code"]) {
            findings.push(Finding {
                rule: "unsafe-scope",
                path: rel,
                line: 1,
                col: 1,
                item: String::new(),
                message: format!("crate tlc-{krate} must declare #![forbid(unsafe_code)]"),
            });
        }
    }
    if !has(
        "crates/crypto/src/lib.rs",
        &["deny", "unsafe_op_in_unsafe_fn"],
    ) {
        findings.push(Finding {
            rule: "unsafe-scope",
            path: "crates/crypto/src/lib.rs".to_string(),
            line: 1,
            col: 1,
            item: String::new(),
            message: "tlc-crypto must declare #![deny(unsafe_op_in_unsafe_fn)]".to_string(),
        });
    }
    // tlc-net: `deny` (not `forbid`) so the readiness shim can be
    // allow-listed per-module — but the deny must stay, or unsafe
    // could creep into any module unnoticed.
    if !has("crates/net/src/lib.rs", &["deny", "unsafe_code"]) {
        findings.push(Finding {
            rule: "unsafe-scope",
            path: "crates/net/src/lib.rs".to_string(),
            line: 1,
            col: 1,
            item: String::new(),
            message:
                "tlc-net must declare #![deny(unsafe_code)] (readiness shim is the only allowed module)"
                    .to_string(),
        });
    }
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
    findings.extend(manifest_findings(&ws));
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
