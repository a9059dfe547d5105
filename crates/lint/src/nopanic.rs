//! Interprocedural pass: transitive no-panic over the call graph.
//!
//! Clippy denies `unwrap`/`expect`/`panic!` inside the no-panic files:
//! each carries `#![deny(clippy::unwrap_used, …)]`, itself or in a
//! parent module file (tlc-crypto at crate level). Clippy sees one
//! function at a time, so a no-panic function calling a helper two (or
//! twenty) hops away, outside that scope, that panics is invisible to
//! it. This pass closes that hole: may-panic facts are computed per
//! function and propagated backwards along resolved call edges, so
//! every function in a no-panic file is checked to arbitrary depth; a
//! finding names the offending call chain.
//!
//! Sources: `panic!`/`unreachable!`/`todo!`/`unimplemented!` and
//! `.unwrap()`/`.expect()` — sites that abort whatever the input — in
//! non-test code outside the scope. Sites inside it are clippy's, and
//! an `#[expect]` there excuses them without re-flagging every caller.
//! Indexing and unchecked arithmetic panic only for some inputs and
//! are not propagated (the crypto limb kernels index by invariant in
//! every loop); clippy's `arithmetic_side_effects`, denied on the
//! charging and peer-facing files, covers the sites where a wrap is a
//! charging bug or a remote panic. See DESIGN §9.1 for the envelope.

use crate::graph::CallGraph;
use crate::rules::Finding;
use crate::scan::{FileKind, ScannedFile};
use syn::TokenKind;

/// The clippy lint whose inner `#![deny]` puts a file, and every module
/// file under it, in no-panic scope.
const SCOPE_LINT: &str = "unwrap_used";

/// Macros whose expansion aborts.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// One may-panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line / column.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short description (`.unwrap()`, `panic!`).
    pub desc: String,
}

/// Why a function may panic: a local site, or a call into a function
/// that (transitively) may panic.
#[derive(Debug, Clone)]
enum Cause {
    Local(PanicSite),
    Via { callee: usize },
}

/// Collects the local may-panic sites of one function body, honouring
/// the test mask.
pub fn local_panic_sites(file: &ScannedFile, body: (usize, usize)) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let (start, end) = body;
    for si in start..=end.min(file.sig.len().saturating_sub(1)) {
        if file.sig_in_test(si) {
            continue;
        }
        let t = file.sig_tok(si);
        if t.kind == TokenKind::Ident {
            let next = file.sig.get(si + 1).map(|&r| &file.tokens[r]);
            let prev_dot = si > 0 && file.sig_tok(si - 1).is_punct('.');
            if PANIC_MACROS.contains(&t.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
                out.push(PanicSite {
                    line: t.line,
                    col: t.col,
                    desc: format!("{}!", t.text),
                });
            } else if (t.text == "unwrap" || t.text == "expect")
                && prev_dot
                && next.is_some_and(|n| n.is_punct('('))
            {
                out.push(PanicSite {
                    line: t.line,
                    col: t.col,
                    desc: format!(".{}()", t.text),
                });
            }
        }
    }
    out
}

/// Whether `file` carries the no-panic `#![deny]` itself.
fn denies_panics(file: &ScannedFile) -> bool {
    crate::inner_attrs(file).iter().any(|idents| {
        idents.first().is_some_and(|a| a == "deny") && idents.iter().any(|i| i == SCOPE_LINT)
    })
}

/// A `src/` file and the module files that enclose it, innermost
/// first: for `crates/core/src/verify/remote/server.rs`, the file,
/// `verify/remote.rs` (or `verify/remote/mod.rs`), `verify/mod.rs` (or
/// `verify.rs`), then `lib.rs`. A `src/bin/` target is a crate of its
/// own.
fn enclosing_module_files(rel: &str) -> Vec<String> {
    let mut out = vec![rel.to_string()];
    let Some(at) = rel.find("/src/") else {
        return out;
    };
    let (src, module) = rel.split_at(at + "/src/".len());
    let mut parts: Vec<&str> = module.trim_end_matches(".rs").split('/').collect();
    if parts.last() == Some(&"mod") {
        parts.pop();
    }
    if parts.first() == Some(&"bin") || matches!(parts[..], ["lib" | "main"]) {
        return out;
    }
    for k in (1..parts.len()).rev() {
        let dir = parts[..k].join("/");
        out.push(format!("{src}{dir}.rs"));
        out.push(format!("{src}{dir}/mod.rs"));
    }
    out.push(format!("{src}lib.rs"));
    out
}

/// Runs the pass: findings for every function in a no-panic file whose
/// call chain reaches a panic site outside that scope.
pub fn check(graph: &CallGraph<'_>) -> Vec<Finding> {
    let denying: Vec<&str> = graph
        .files
        .iter()
        .filter(|f| denies_panics(f))
        .map(|f| f.rel_path.as_str())
        .collect();
    let scoped: Vec<bool> = graph
        .files
        .iter()
        .map(|file| {
            file.kind == FileKind::Src
                && enclosing_module_files(&file.rel_path)
                    .iter()
                    .any(|rel| denying.contains(&rel.as_str()))
        })
        .collect();
    let n = graph.fns.len();
    let is_root: Vec<bool> = (0..n)
        .map(|id| scoped[graph.fns[id].file] && !graph.fns[id].is_test)
        .collect();

    // Propagation-eligible local cause per function: the first site of
    // a non-test function outside the scope.
    let local: Vec<Option<PanicSite>> = (0..n)
        .map(|id| {
            let f = &graph.fns[id];
            let file = &graph.files[f.file];
            if f.is_test || file.kind != FileKind::Src || scoped[f.file] {
                return None;
            }
            local_panic_sites(file, f.body?).into_iter().next()
        })
        .collect();

    // Memoized backwards propagation. Roots are opaque as callees —
    // their own analysis reports deeper chains once, instead of every
    // transitive caller repeating them.
    let mut memo: Vec<Option<Option<Cause>>> = vec![None; n];
    let mut on_stack = vec![false; n];
    for id in 0..n {
        may_panic(graph, &local, &is_root, &mut memo, &mut on_stack, id);
    }

    let mut findings = Vec::new();
    for root in (0..n).filter(|&id| is_root[id]) {
        for call in &graph.calls[root] {
            // Local sites are clippy's domain; this pass reports
            // reaches *through calls* only.
            let Some(&callee) = call.callees.iter().find(|&&c| {
                !is_root[c]
                    && graph.files[graph.fns[c].file].kind == FileKind::Src
                    && cause_of(&memo, c).is_some()
            }) else {
                continue;
            };
            let chain = build_chain(graph, &memo, root, callee);
            findings.push(Finding {
                rule: "transitive-no-panic",
                path: graph.fn_path(root).to_string(),
                line: call.line,
                col: call.col,
                item: graph.fns[root].name.clone(),
                message: chain,
            });
            break; // one finding per root function keeps reports readable
        }
    }
    findings
}

fn cause_of(memo: &[Option<Option<Cause>>], id: usize) -> Option<&Cause> {
    memo.get(id)
        .and_then(|m| m.as_ref())
        .and_then(|c| c.as_ref())
}

fn may_panic(
    graph: &CallGraph<'_>,
    local: &[Option<PanicSite>],
    is_root: &[bool],
    memo: &mut [Option<Option<Cause>>],
    on_stack: &mut [bool],
    id: usize,
) -> bool {
    if let Some(m) = &memo[id] {
        return m.is_some();
    }
    if on_stack[id] {
        // Recursion cycle: assume clean along this edge; any real
        // panic in the cycle is found from the entry point.
        return false;
    }
    on_stack[id] = true;
    let mut cause: Option<Cause> = local[id].clone().map(Cause::Local);
    if cause.is_none() {
        'calls: for call in &graph.calls[id] {
            for &callee in &call.callees {
                if is_root[callee] || graph.files[graph.fns[callee].file].kind != FileKind::Src {
                    // Root fns are an opaque boundary (reported at that
                    // root); test/bench-file fns are bogus resolutions.
                    continue;
                }
                if may_panic(graph, local, is_root, memo, on_stack, callee) {
                    cause = Some(Cause::Via { callee });
                    break 'calls;
                }
            }
        }
    }
    on_stack[id] = false;
    let hit = cause.is_some();
    memo[id] = Some(cause);
    hit
}

/// `root -> a -> b: .unwrap() at crates/x.rs:12` chain message.
fn build_chain(
    graph: &CallGraph<'_>,
    memo: &[Option<Option<Cause>>],
    root: usize,
    first: usize,
) -> String {
    let mut labels = vec![graph.fn_label(root)];
    let mut cur = first;
    let mut hops = 0usize;
    loop {
        labels.push(graph.fn_label(cur));
        hops += 1;
        match cause_of(memo, cur) {
            Some(Cause::Via { callee, .. }) => {
                if hops > 12 {
                    labels.push("…".to_string());
                    return format!(
                        "call chain may panic: {} (chain truncated)",
                        labels.join(" -> ")
                    );
                }
                cur = *callee;
            }
            Some(Cause::Local(site)) => {
                return format!(
                    "call chain may panic: {}; {} at {}:{}",
                    labels.join(" -> "),
                    site.desc,
                    graph.fn_path(cur),
                    site.line
                );
            }
            None => {
                // Unreachable by construction; keep a sane message.
                return format!("call chain may panic: {}", labels.join(" -> "));
            }
        }
    }
}
