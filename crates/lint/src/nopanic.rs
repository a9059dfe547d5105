//! Interprocedural pass: transitive no-panic over the call graph.
//!
//! The v1 `no-panic` rule matches panic tokens *inside* the protocol
//! files ([`crate::NO_PANIC_PATHS`]). This pass closes the hole v1
//! cannot see: a protocol function calling a helper two (or twenty)
//! hops away that panics. May-panic facts are computed per function
//! and propagated backwards along resolved call edges, so every
//! function defined in a `NO_PANIC_PATHS` file is checked to arbitrary
//! depth; a finding names the offending call chain.
//!
//! Sources: `panic!`/`unreachable!`/`todo!`/`unimplemented!` and
//! `.unwrap()`/`.expect()` — sites that abort whatever the input.
//! Indexing and unchecked arithmetic panic only for some inputs and
//! are not propagated (the crypto limb kernels index by invariant in
//! every loop); the charge-arith pass audits the sites where a wrap is
//! a charging bug. See DESIGN §9.1 for the envelope.
//!
//! Suppression: a local site inside function `f` of file `p` that an
//! allowlist entry `no-panic p f` (or `*`) covers is treated as clean
//! *before* propagation — callers of an invariant-true `expect` are
//! not re-flagged, which is what keeps `LINT_ALLOW` tight.

use crate::allow::AllowEntry;
use crate::graph::CallGraph;
use crate::rules::Finding;
use crate::scan::ScannedFile;
use syn::TokenKind;

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

/// Whether an allowlist entry suppresses a local panic site inside
/// `fn_name` of `path` (matched under the v1 `no-panic` rule or this
/// pass's `transitive-no-panic`).
fn site_allowed(allow: &[AllowEntry], path: &str, fn_name: &str, enclosing: &str) -> bool {
    allow.iter().any(|e| {
        (e.rule == "no-panic" || e.rule == "transitive-no-panic")
            && e.path == path
            && (e.item == "*" || e.item == fn_name || e.item == enclosing)
    })
}

/// Runs the pass: findings for every `NO_PANIC_PATHS` function whose
/// call chain reaches a panic site outside itself.
pub fn check(graph: &CallGraph<'_>, roots_under: &[&str], allow: &[AllowEntry]) -> Vec<Finding> {
    let n = graph.fns.len();
    let is_root: Vec<bool> = (0..n)
        .map(|id| {
            let path = graph.fn_path(id);
            roots_under.iter().any(|p| path.starts_with(p))
                && !graph.fns[id].is_test
                && graph.files[graph.fns[id].file].kind == crate::scan::FileKind::Src
        })
        .collect();

    // Unsuppressed, propagation-eligible local cause per function.
    let local: Vec<Option<PanicSite>> = (0..n)
        .map(|id| {
            let f = &graph.fns[id];
            if f.is_test || graph.files[f.file].kind != crate::scan::FileKind::Src {
                return None;
            }
            let file = &graph.files[f.file];
            let body = f.body?;
            local_panic_sites(file, body).into_iter().find(|s| {
                let enclosing = site_item(file, body, s);
                !site_allowed(allow, &file.rel_path, &f.name, &enclosing)
            })
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
            // Local sites are v1's domain; this pass reports reaches
            // *through calls* only.
            let Some(&callee) = call.callees.iter().find(|&&c| {
                !is_root[c]
                    && graph.files[graph.fns[c].file].kind == crate::scan::FileKind::Src
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
                if is_root[callee]
                    || graph.files[graph.fns[callee].file].kind != crate::scan::FileKind::Src
                {
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

/// Innermost named item at a panic site (what v1 findings key on).
fn site_item(file: &ScannedFile, body: (usize, usize), site: &PanicSite) -> String {
    for si in body.0..=body.1.min(file.sig.len().saturating_sub(1)) {
        let t = file.sig_tok(si);
        if t.line == site.line && t.col == site.col {
            return file.sig_item(si).to_string();
        }
    }
    String::new()
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
