//! Interprocedural pass: lock-order cycle detection.
//!
//! Per function, collects `Mutex`/`RwLock` guard acquisitions — a
//! `.lock()`, `.read()` or `.write()` call with an *empty* argument
//! list (which is what separates `mutex.read()` from
//! `io::Read::read(&mut buf)`) — and tracks each guard's live extent:
//!
//! * `let g = x.lock()…;` — to the end of the enclosing block, or an
//!   earlier explicit `drop(g)`;
//! * a temporary (`x.lock().unwrap().push(…)`) — to the end of the
//!   statement.
//!
//! A second acquisition inside a live extent yields an order edge
//! `held → acquired`. Calls inside a live extent add edges from the
//! held lock to everything the callee (transitively) acquires, so an
//! order split across `server.rs` and `service.rs` is still seen.
//! A cycle in the resulting lock graph is a potential deadlock and is
//! reported once, with one representative acquisition site per edge.
//!
//! Lock identity is the last field name of the receiver chain,
//! qualified by the impl type when the receiver is `self`
//! (`self.stats.lock()` in `impl BufPool` → `BufPool.stats`). Two
//! unrelated locks that share a bare field name can therefore alias —
//! conservative in the direction of reporting, never of missing.

use crate::graph::CallGraph;
use crate::scan::ScannedFile;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};
use syn::TokenKind;

/// Guard-returning method names with an empty argument list.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Lock identity (`Type.field` or `field`).
    pub lock: String,
    /// Significant position of the method name.
    pub si: usize,
    /// Significant position one past the guard's live extent.
    pub end_si: usize,
    /// 1-based line of the method name.
    pub line: u32,
    /// 1-based column of the method name.
    pub col: u32,
}

/// Where an order edge was observed (for the report).
#[derive(Debug, Clone)]
struct EdgeSite {
    path: String,
    line: u32,
    col: u32,
    item: String,
    via_call: Option<String>,
}

/// Collects the acquisitions of one function body with live extents.
pub fn acquisitions(
    file: &ScannedFile,
    impl_type: Option<&str>,
    body: (usize, usize),
) -> Vec<Acquisition> {
    let (start, end) = body;
    let end = end.min(file.sig.len().saturating_sub(1));
    let mut out: Vec<Acquisition> = Vec::new();
    let mut depth = 0usize;
    // (guard name or None, lock index into `out`, depth at acquisition)
    let mut live: Vec<(Option<String>, usize, usize)> = Vec::new();
    for si in start..=end {
        if file.sig_in_test(si) {
            continue;
        }
        let t = file.sig_tok(si);
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            // Block close releases let-bound guards opened inside it.
            live.retain(|&(ref name, idx, d)| {
                if d > depth && name.is_some() {
                    out[idx].end_si = si;
                    false
                } else {
                    true
                }
            });
        } else if t.is_punct(';') {
            // Statement end releases temporaries at this depth.
            live.retain(|&(ref name, idx, d)| {
                if name.is_none() && d == depth {
                    out[idx].end_si = si;
                    false
                } else {
                    true
                }
            });
        } else if t.is_ident("drop")
            && file
                .sig
                .get(si + 1)
                .is_some_and(|&r| file.tokens[r].is_punct('('))
        {
            if let Some(arg) = file.sig.get(si + 2).map(|&r| &file.tokens[r]) {
                if arg.kind == TokenKind::Ident {
                    live.retain(|&(ref name, idx, _)| {
                        if name.as_deref() == Some(arg.text.as_str()) {
                            out[idx].end_si = si;
                            false
                        } else {
                            true
                        }
                    });
                }
            }
        } else if is_acquire_at(file, si) {
            let lock = lock_id(file, si, impl_type);
            let name = binding_name(file, body.0, si);
            let idx = out.len();
            out.push(Acquisition {
                lock,
                si,
                end_si: end + 1, // tentative: open to body end
                line: t.line,
                col: t.col,
            });
            live.push((name, idx, depth));
        }
    }
    out
}

/// `.lock()` / `.read()` / `.write()` with an empty argument list.
fn is_acquire_at(file: &ScannedFile, si: usize) -> bool {
    let t = file.sig_tok(si);
    if t.kind != TokenKind::Ident || !ACQUIRE_METHODS.contains(&t.text.as_str()) {
        return false;
    }
    if si == 0 || !file.sig_tok(si - 1).is_punct('.') {
        return false;
    }
    file.sig
        .get(si + 1)
        .is_some_and(|&r| file.tokens[r].is_punct('('))
        && file
            .sig
            .get(si + 2)
            .is_some_and(|&r| file.tokens[r].is_punct(')'))
}

/// Lock identity from the receiver chain ending at the `.` before `si`.
fn lock_id(file: &ScannedFile, si: usize, impl_type: Option<&str>) -> String {
    // Walk back over `ident . ident . method` collecting the chain.
    let mut chain: Vec<String> = Vec::new();
    let mut i = si - 1; // the `.`
    loop {
        if i == 0 {
            break;
        }
        i -= 1; // candidate ident
        let t = file.sig_tok(i);
        if t.kind != TokenKind::Ident {
            break;
        }
        chain.push(t.text.clone());
        if i == 0 || !file.sig_tok(i - 1).is_punct('.') {
            break;
        }
        i -= 1; // the next `.`
    }
    chain.reverse();
    let field = chain
        .iter()
        .rev()
        .find(|s| *s != "self")
        .cloned()
        .unwrap_or_else(|| "<unnamed>".to_string());
    match (chain.first().map(String::as_str), impl_type) {
        (Some("self"), Some(ty)) => format!("{ty}.{field}"),
        _ => field,
    }
}

/// If the statement containing `si` is `let [mut] name = …`, the
/// binding name. Scans back to the previous `;`/`{`/`}` within the body.
fn binding_name(file: &ScannedFile, body_start: usize, si: usize) -> Option<String> {
    let mut i = si;
    while i > body_start {
        i -= 1;
        let t = file.sig_tok(i);
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            let mut j = i + 1;
            if file
                .sig
                .get(j)
                .is_some_and(|&r| file.tokens[r].is_ident("mut"))
            {
                j += 1;
            }
            let name = file.sig.get(j).map(|&r| &file.tokens[r])?;
            if name.kind == TokenKind::Ident {
                return Some(name.text.clone());
            }
            return None;
        }
    }
    None
}

/// Transitive lock set per function (locks it may acquire, directly or
/// via calls), via memoized DFS with a recursion guard.
fn transitive_locks(
    graph: &CallGraph<'_>,
    local: &[Vec<Acquisition>],
    memo: &mut Vec<Option<BTreeSet<String>>>,
    on_stack: &mut [bool],
    id: usize,
) -> BTreeSet<String> {
    if let Some(s) = &memo[id] {
        return s.clone();
    }
    if on_stack[id] {
        return BTreeSet::new();
    }
    on_stack[id] = true;
    let mut set: BTreeSet<String> = local[id].iter().map(|a| a.lock.clone()).collect();
    for call in &graph.calls[id] {
        for &callee in &call.callees {
            set.extend(transitive_locks(graph, local, memo, on_stack, callee));
        }
    }
    on_stack[id] = false;
    memo[id] = Some(set.clone());
    set
}

/// Runs the pass over the whole workspace graph.
pub fn check(graph: &CallGraph<'_>) -> Vec<Finding> {
    let n = graph.fns.len();
    let local: Vec<Vec<Acquisition>> = (0..n)
        .map(|id| {
            let f = &graph.fns[id];
            // Test-only lock usage (including on-disk lint fixtures under
            // tests/) cannot deadlock production; scope the pass to Src.
            if f.is_test || graph.files[f.file].kind != crate::scan::FileKind::Src {
                return Vec::new();
            }
            match f.body {
                Some(body) => acquisitions(&graph.files[f.file], f.impl_type.as_deref(), body),
                None => Vec::new(),
            }
        })
        .collect();

    let mut memo: Vec<Option<BTreeSet<String>>> = vec![None; n];
    let mut on_stack = vec![false; n];
    for id in 0..n {
        transitive_locks(graph, &local, &mut memo, &mut on_stack, id);
    }

    // Order edges: held → acquired, each with one representative site.
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for (id, held) in local.iter().enumerate() {
        let f = &graph.fns[id];
        let file = &graph.files[f.file];
        for a in held {
            // Direct nesting.
            for b in held {
                if b.si > a.si && b.si < a.end_si && a.lock != b.lock {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert_with(|| EdgeSite {
                            path: file.rel_path.clone(),
                            line: b.line,
                            col: b.col,
                            item: f.name.clone(),
                            via_call: None,
                        });
                }
            }
            // Calls inside the extent: edge to the callee's whole set.
            for call in &graph.calls[id] {
                if call.si <= a.si || call.si >= a.end_si {
                    continue;
                }
                for &callee in &call.callees {
                    let Some(set) = &memo[callee] else { continue };
                    for lock in set {
                        if *lock == a.lock {
                            continue;
                        }
                        edges
                            .entry((a.lock.clone(), lock.clone()))
                            .or_insert_with(|| EdgeSite {
                                path: file.rel_path.clone(),
                                line: call.line,
                                col: call.col,
                                item: f.name.clone(),
                                via_call: Some(graph.fn_label(callee)),
                            });
                    }
                }
            }
        }
    }

    cycles(&edges)
        .into_iter()
        .map(|cycle| {
            let site = &edges[&(cycle[0].clone(), cycle[1].clone())];
            let mut ring = cycle.clone();
            ring.push(cycle[0].clone());
            let legs: Vec<String> = cycle
                .iter()
                .zip(cycle.iter().cycle().skip(1))
                .map(|(a, b)| {
                    let s = &edges[&(a.clone(), b.clone())];
                    match &s.via_call {
                        Some(callee) => format!(
                            "`{b}` via call to {callee} while holding `{a}` at {}:{}",
                            s.path, s.line
                        ),
                        None => {
                            format!("`{b}` while holding `{a}` at {}:{}", s.path, s.line)
                        }
                    }
                })
                .collect();
            Finding {
                rule: "lock-order",
                path: site.path.clone(),
                line: site.line,
                col: site.col,
                item: site.item.clone(),
                message: format!(
                    "lock-order cycle {}: acquired {}",
                    ring.join(" -> "),
                    legs.join("; ")
                ),
            }
        })
        .collect()
}

/// Elementary cycles of the lock graph, canonicalised (rotated so the
/// smallest lock id leads) and deduplicated.
fn cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys() {
        let mut path: Vec<&str> = vec![start];
        dfs_cycles(start, start, &adj, &mut path, &mut found);
    }
    found.into_iter().collect()
}

fn dfs_cycles<'a>(
    start: &str,
    cur: &str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    found: &mut BTreeSet<Vec<String>>,
) {
    let Some(nexts) = adj.get(cur) else { return };
    for &next in nexts {
        if next == start {
            // Canonical rotation: smallest id first.
            let min_pos = path
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| **s)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let canon: Vec<String> = path
                .iter()
                .cycle()
                .skip(min_pos)
                .take(path.len())
                .map(|s| s.to_string())
                .collect();
            found.insert(canon);
        } else if !path.contains(&next) && path.len() < 8 {
            path.push(next);
            dfs_cycles(start, next, adj, path, found);
            path.pop();
        }
    }
}
