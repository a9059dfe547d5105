//! Workspace item/call-graph layer for the interprocedural passes.
//!
//! Built once per check over every [`ScannedFile`] in the workspace:
//! walks the shared token streams tracking inline `mod` nesting,
//! `impl` blocks (inherent and trait), and `fn` items, then resolves
//! call sites inside each function body back to workspace functions by
//! name, with a conservative fallback when the receiver type cannot be
//! known from tokens alone:
//!
//! * `Type::method(…)` resolves within `impl Type`/`impl … for Type`
//!   blocks when the workspace defines any; an unknown qualifier that
//!   looks like a type (`Vec::new`) is treated as external — no edge;
//! * `module::func(…)` resolves to functions whose module path, file
//!   stem, or crate matches the qualifier, falling back to every
//!   function of that name;
//! * `.method(…)` resolves to *every* workspace method of that name
//!   (the receiver's type is unknown to a lexer) — an overapproximation
//!   that can only add edges, never hide one;
//! * `func(…)` prefers same-file free functions, then any free
//!   function, then any function of that name.
//!
//! Known false negatives (DESIGN §9.1): calls fabricated inside macro
//! bodies, `dyn Trait`/function-pointer dispatch, and calls routed
//! through `std`/vendored types the workspace does not define.

use crate::scan::ScannedFile;
use std::collections::HashMap;
use syn::TokenKind;

/// Keywords that can be followed by `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "let", "fn",
    "impl", "where", "dyn", "ref", "mut", "box", "yield", "await", "Some", "Ok", "Err", "None",
];

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `func(…)` with no path qualifier.
    Bare,
    /// `.method(…)` on an unknown receiver.
    Method,
    /// `qual::func(…)`; the qualifier is the last path segment before
    /// the final `::`.
    Path(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name token text.
    pub name: String,
    /// How the callee was named.
    pub kind: CallKind,
    /// Significant-token position of the name in the caller's file.
    pub si: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// 1-based source column of the callee name.
    pub col: u32,
    /// Resolved workspace candidates (function ids), possibly empty.
    pub callees: Vec<usize>,
}

/// One `fn` item somewhere in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Function name (raw identifier text).
    pub name: String,
    /// Self type of the enclosing `impl` (or `trait`) block, if any.
    pub impl_type: Option<String>,
    /// Inline `mod` path inside the file (often empty; file-level
    /// modules come from the path instead).
    pub module: Vec<String>,
    /// Index into the workspace file list.
    pub file: usize,
    /// Significant-token range of the body, inclusive of both braces.
    /// `None` for body-less trait signatures.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Whether the item sits inside `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
    /// Whether the first parameter mentions `self`.
    pub is_method: bool,
}

/// The resolved workspace call graph.
pub struct CallGraph<'w> {
    /// The scanned files the graph indexes into.
    pub files: &'w [ScannedFile],
    /// Every function item found.
    pub fns: Vec<FnNode>,
    /// Call sites per function, in body order.
    pub calls: Vec<Vec<Call>>,
    /// `fn_of[file][sig position]` — innermost enclosing function id.
    pub fn_of: Vec<Vec<Option<usize>>>,
    by_name: HashMap<String, Vec<usize>>,
}

impl<'w> CallGraph<'w> {
    /// Builds the item layer and resolves every call site.
    pub fn build(files: &'w [ScannedFile]) -> CallGraph<'w> {
        let mut fns: Vec<FnNode> = Vec::new();
        let mut fn_of: Vec<Vec<Option<usize>>> = Vec::with_capacity(files.len());
        for (fi, file) in files.iter().enumerate() {
            fn_of.push(extract_items(file, fi, &mut fns));
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_impl: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(ty) = &f.impl_type {
                by_impl
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        // `type Alias = Type<…>;` — `Alias::f(` resolves in `impl Type`.
        for file in files {
            for si in 0..file.sig.len().saturating_sub(3) {
                let [kw, alias, eq, ty] = [0, 1, 2, 3].map(|k| file.sig_tok(si + k));
                if kw.is_ident("type") && eq.is_punct('=') && ty.kind == TokenKind::Ident {
                    let aliased: Vec<_> = by_impl
                        .iter()
                        .filter(|((t, _), _)| *t == ty.text)
                        .map(|((_, f), ids)| ((alias.text.clone(), f.clone()), ids.clone()))
                        .collect();
                    for (key, ids) in aliased {
                        by_impl.entry(key).or_insert(ids);
                    }
                }
            }
        }
        let mut calls: Vec<Vec<Call>> = vec![Vec::new(); fns.len()];
        for (fi, file) in files.iter().enumerate() {
            extract_calls(file, &fn_of[fi], &mut calls);
        }
        for (caller, sites) in calls.iter_mut().enumerate() {
            for c in sites.iter_mut() {
                c.callees = resolve(files, &fns, &by_name, &by_impl, caller, c);
            }
        }
        CallGraph {
            files,
            fns,
            calls,
            fn_of,
            by_name,
        }
    }

    /// Workspace-relative path of the file a function lives in.
    pub fn fn_path(&self, id: usize) -> &str {
        &self.files[self.fns[id].file].rel_path
    }

    /// Functions with this exact name (any impl/module).
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `Type::name` display form of a function.
    pub fn fn_label(&self, id: usize) -> String {
        let f = &self.fns[id];
        match &f.impl_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

/// Crate ident (`tlc_core`) for a workspace-relative path, if it is a
/// `crates/<name>/…` path.
fn crate_ident(rel_path: &str) -> Option<String> {
    let rest = rel_path.strip_prefix("crates/")?;
    let name = rest.split('/').next()?;
    Some(format!("tlc_{}", name.replace('-', "_")))
}

/// File stem (`wire` for `crates/net/src/wire.rs`).
fn file_stem(rel_path: &str) -> &str {
    rel_path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

fn resolve(
    files: &[ScannedFile],
    fns: &[FnNode],
    by_name: &HashMap<String, Vec<usize>>,
    by_impl: &HashMap<(String, String), Vec<usize>>,
    caller: usize,
    call: &Call,
) -> Vec<usize> {
    let named: &[usize] = by_name.get(&call.name).map(Vec::as_slice).unwrap_or(&[]);
    if named.is_empty() {
        return Vec::new(); // external (std / vendored) — no edge
    }
    let caller_fn = &fns[caller];
    match &call.kind {
        CallKind::Method => named
            .iter()
            .copied()
            .filter(|&id| fns[id].is_method)
            .collect(),
        CallKind::Bare => {
            let same_file: Vec<usize> = named
                .iter()
                .copied()
                .filter(|&id| fns[id].file == caller_fn.file && fns[id].impl_type.is_none())
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            // A bare call cannot name a method without a receiver or
            // `Self::`, so free functions are the only candidates.
            named
                .iter()
                .copied()
                .filter(|&id| fns[id].impl_type.is_none())
                .collect()
        }
        CallKind::Path(qual) => {
            if qual == "Self" || qual == "self" {
                if let Some(ty) = &caller_fn.impl_type {
                    if let Some(ids) = by_impl.get(&(ty.clone(), call.name.clone())) {
                        return ids.clone();
                    }
                }
                return named.to_vec();
            }
            if let Some(ids) = by_impl.get(&(qual.clone(), call.name.clone())) {
                return ids.clone();
            }
            let type_like = qual.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            if type_like {
                // `Vec::new`, `String::from`, … — a type the workspace
                // does not implement. External.
                return Vec::new();
            }
            if qual == "crate" || qual == "super" {
                return named.to_vec();
            }
            // Module-ish qualifier: match module path, file stem, or
            // crate ident; fall back to every function of that name.
            let scoped: Vec<usize> = named
                .iter()
                .copied()
                .filter(|&id| {
                    let f = &fns[id];
                    let path = &files[f.file].rel_path;
                    f.module.iter().any(|m| m == qual)
                        || file_stem(path) == qual
                        || crate_ident(path).is_some_and(|c| c == *qual)
                })
                .collect();
            if !scoped.is_empty() {
                scoped
            } else {
                named.to_vec()
            }
        }
    }
}

#[derive(Debug)]
enum Scope {
    Mod(String),
    Impl(String),
    Fn(usize),
    Other,
}

/// Extracts `fn` items from one file; returns the per-significant-token
/// innermost-function map.
fn extract_items(file: &ScannedFile, file_idx: usize, fns: &mut Vec<FnNode>) -> Vec<Option<usize>> {
    let sig = &file.sig;
    let mut fn_of: Vec<Option<usize>> = vec![None; sig.len()];
    // (scope, brace depth its body opened at)
    let mut stack: Vec<(Scope, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut pending: Option<Scope> = None;
    let mut si = 0usize;
    while si < sig.len() {
        // Attribute the token to the innermost enclosing fn.
        fn_of[si] = stack.iter().rev().find_map(|(s, _)| match s {
            Scope::Fn(id) => Some(*id),
            _ => None,
        });
        let t = file.sig_tok(si);
        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "mod" => {
                    if let Some(name) = file.sig.get(si + 1).map(|&r| &file.tokens[r]) {
                        if name.kind == TokenKind::Ident {
                            pending = Some(Scope::Mod(name.text.clone()));
                        }
                    }
                }
                "impl" => {
                    if let Some((ty, brace_si)) = impl_self_type(file, si) {
                        pending = Some(Scope::Impl(ty));
                        si = brace_si; // skip the header's type tokens
                        continue;
                    }
                }
                "trait" => {
                    // Default trait methods resolve like methods named
                    // after the trait.
                    if let Some(name) = file.sig.get(si + 1).map(|&r| &file.tokens[r]) {
                        if name.kind == TokenKind::Ident {
                            pending = Some(Scope::Impl(name.text.clone()));
                        }
                    }
                }
                "fn" => {
                    let name_tok = file.sig.get(si + 1).map(|&r| &file.tokens[r]);
                    if let Some(name) = name_tok.filter(|n| n.kind == TokenKind::Ident) {
                        let module = stack
                            .iter()
                            .filter_map(|(s, _)| match s {
                                Scope::Mod(m) => Some(m.clone()),
                                _ => None,
                            })
                            .collect();
                        // A `fn` item inside a method body is a free
                        // fn, whatever `impl` encloses the method.
                        let impl_type = stack
                            .iter()
                            .rev()
                            .find_map(|(s, _)| match s {
                                Scope::Impl(ty) => Some(Some(ty.clone())),
                                Scope::Fn(_) => Some(None),
                                Scope::Mod(_) | Scope::Other => None,
                            })
                            .flatten();
                        let (body_open, is_method) = fn_signature(file, si + 1);
                        let id = fns.len();
                        fns.push(FnNode {
                            name: name.text.clone(),
                            impl_type,
                            module,
                            file: file_idx,
                            body: None, // patched when the body closes
                            line: t.line,
                            col: t.col,
                            is_test: file.sig_in_test(si),
                            is_method,
                        });
                        match body_open {
                            Some(open_si) => {
                                // Fast-forward to just before the `{`
                                // so `impl Trait`-in-signature tokens
                                // can't confuse the scope walker.
                                pending = Some(Scope::Fn(id));
                                for slot in fn_of.iter_mut().take(open_si).skip(si) {
                                    if slot.is_none() {
                                        *slot = stack.iter().rev().find_map(|(s, _)| match s {
                                            Scope::Fn(f) => Some(*f),
                                            _ => None,
                                        });
                                    }
                                }
                                si = open_si;
                                continue;
                            }
                            None => {
                                // Body-less trait signature.
                            }
                        }
                    } else {
                        // `fn(u32) -> u32` type position — not an item.
                    }
                }
                _ => {}
            }
        } else if t.is_punct('{') {
            depth += 1;
            let scope = pending.take().unwrap_or(Scope::Other);
            if let Scope::Fn(id) = scope {
                fns[id].body = Some((si, si)); // end patched on close
                fn_of[si] = Some(id);
            }
            stack.push((scope, depth));
        } else if t.is_punct('}') {
            if let Some((scope, d)) = stack.last() {
                if *d == depth {
                    if let Scope::Fn(id) = scope {
                        if let Some((start, _)) = fns[*id].body {
                            fns[*id].body = Some((start, si));
                        }
                        fn_of[si] = Some(*id);
                    }
                    stack.pop();
                }
            }
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') {
            pending = None; // `mod m;`, trait fn signatures
        }
        si += 1;
    }
    fn_of
}

/// For an `impl` keyword at `si`, returns the self type name and the
/// significant position of the opening `{`.
fn impl_self_type(file: &ScannedFile, si: usize) -> Option<(String, usize)> {
    let sig = &file.sig;
    let mut angle = 0usize;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut i = si + 1;
    while i < sig.len() {
        let t = file.sig_tok(i);
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if t.is_punct('{') && angle == 0 {
            let ty = after_for.or(last_ident)?;
            return Some((ty, i));
        } else if (t.is_punct(';') || t.is_punct('(')) && angle == 0 {
            // `impl Fn(u32)` bound in type position, or something that
            // is not an impl block at all — bail.
            return None;
        } else if t.kind == TokenKind::Ident && angle == 0 {
            if t.text == "for" {
                saw_for = true;
            } else if t.text != "where" {
                if saw_for {
                    // Last path segment of the self type wins
                    // (`impl ops::Deref for pool::PooledBuf` → PooledBuf).
                    after_for = Some(t.text.clone());
                } else {
                    last_ident = Some(t.text.clone());
                }
            }
        }
        i += 1;
    }
    None
}

/// From just past the `fn` keyword, finds the opening `{` of the body
/// (None for `;`-terminated signatures) and whether the first parameter
/// mentions `self`.
fn fn_signature(file: &ScannedFile, name_si: usize) -> (Option<usize>, bool) {
    let sig = &file.sig;
    let mut angle = 0usize;
    let mut paren = 0usize;
    // `[T; N]` in a parameter or return type: its `;` ends nothing.
    let mut bracket = 0usize;
    let mut is_method = false;
    let mut seen_params = false;
    let mut i = name_si;
    while i < sig.len() {
        let t = file.sig_tok(i);
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` must not close an angle bracket.
            let prev_is_dash = i > 0 && file.sig_tok(i - 1).is_punct('-');
            if !prev_is_dash {
                angle = angle.saturating_sub(1);
            }
        } else if t.is_punct('(') {
            if paren == 0 && !seen_params && angle == 0 {
                seen_params = true;
                // Peek the first few tokens for `self`.
                for j in i + 1..(i + 5).min(sig.len()) {
                    let p = file.sig_tok(j);
                    if p.is_ident("self") {
                        is_method = true;
                        break;
                    }
                    if p.is_punct(',') || p.is_punct(')') || p.is_punct(':') {
                        break;
                    }
                }
            }
            paren += 1;
        } else if t.is_punct(')') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket = bracket.saturating_sub(1);
        } else if t.is_punct('{') && paren == 0 && angle == 0 {
            return (Some(i), is_method);
        } else if t.is_punct(';') && paren == 0 && angle == 0 && bracket == 0 {
            return (None, is_method);
        }
        i += 1;
    }
    (None, is_method)
}

/// Extracts call sites from one file, attributing each to its innermost
/// enclosing function.
fn extract_calls(file: &ScannedFile, fn_of: &[Option<usize>], calls: &mut [Vec<Call>]) {
    for (si, owner) in fn_of.iter().enumerate() {
        let Some(owner) = *owner else { continue };
        let t = file.sig_tok(si);
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Callee name must be followed by `(`, directly or past a
        // turbofish (`name::<8>(`); `name!(…)` is a macro, `name {` a
        // struct literal.
        if !opens_call(file, si + 1) {
            continue;
        }
        // A definition (`fn name(`) is not a call.
        if si > 0 && file.sig_tok(si - 1).is_ident("fn") {
            continue;
        }
        let kind = if si > 0 && file.sig_tok(si - 1).is_punct('.') {
            CallKind::Method
        } else if si >= 2
            && file.sig_tok(si - 1).is_punct(':')
            && file.sig_tok(si - 2).is_punct(':')
        {
            // Walk the path back to its last qualifying segment:
            // `a::b::f(` → qualifier `b`.
            let mut qual = String::new();
            if si >= 3 {
                let q = file.sig_tok(si - 3);
                if q.kind == TokenKind::Ident {
                    qual = q.text.clone();
                }
            }
            if qual.is_empty() {
                CallKind::Bare // `::f(…)` — crate root; treat as bare
            } else {
                CallKind::Path(qual)
            }
        } else {
            CallKind::Bare
        };
        calls[owner].push(Call {
            name: t.text.clone(),
            kind,
            si,
            line: t.line,
            col: t.col,
            callees: Vec::new(),
        });
    }
}

/// Whether the call's argument list opens at significant position
/// `si`: a `(`, or a turbofish `::<…>` and then a `(`.
fn opens_call(file: &ScannedFile, si: usize) -> bool {
    let punct = |i: usize, c: char| file.sig.get(i).is_some_and(|&r| file.tokens[r].is_punct(c));
    if punct(si, '(') {
        return true;
    }
    if !(punct(si, ':') && punct(si + 1, ':') && punct(si + 2, '<')) {
        return false;
    }
    let mut angle = 0usize;
    for i in si + 2..file.sig.len() {
        if punct(i, '<') {
            angle += 1;
        } else if punct(i, '>') {
            angle -= 1;
            if angle == 0 {
                return punct(i + 1, '(');
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(sources: &[(&str, &str)]) -> (Vec<FnNode>, Vec<Vec<Call>>) {
        let files: Vec<ScannedFile> = sources
            .iter()
            .map(|(p, s)| ScannedFile::parse(p, s).expect("fixture parses"))
            .collect();
        let g = CallGraph::build(&files);
        (g.fns.clone(), g.calls.clone())
    }

    fn find_fn<'a>(fns: &'a [FnNode], name: &str) -> &'a FnNode {
        fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn items_capture_impl_and_module_context() {
        let (fns, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "mod inner {\n  pub struct S;\n  impl S { pub fn method(&self) {} }\n  pub fn free() {}\n}\nimpl std::fmt::Debug for Outer { fn fmt(&self) {} }\n",
        )]);
        let method = find_fn(&fns, "method");
        assert_eq!(method.impl_type.as_deref(), Some("S"));
        assert_eq!(method.module, vec!["inner".to_string()]);
        assert!(method.is_method);
        let free = find_fn(&fns, "free");
        assert!(free.impl_type.is_none());
        assert!(!free.is_method);
        let fmt = find_fn(&fns, "fmt");
        assert_eq!(fmt.impl_type.as_deref(), Some("Outer"));
    }

    #[test]
    fn bodies_and_nested_fns_attribute_calls_correctly() {
        let (fns, calls) = graph_of(&[(
            "crates/x/src/lib.rs",
            "fn outer() {\n  helper();\n  fn nested() { deep(); }\n  nested();\n}\nfn helper() {}\nfn deep() {}\nfn nested() {}\n",
        )]);
        let outer_id = fns.iter().position(|f| f.name == "outer").unwrap();
        let nested_id = fns
            .iter()
            .position(|f| f.name == "nested" && f.body.is_some() && f.file == 0)
            .unwrap();
        let outer_calls: Vec<&str> = calls[outer_id].iter().map(|c| c.name.as_str()).collect();
        assert!(outer_calls.contains(&"helper"));
        assert!(outer_calls.contains(&"nested"));
        assert!(!outer_calls.contains(&"deep"), "deep belongs to nested");
        let nested_calls: Vec<&str> = calls[nested_id].iter().map(|c| c.name.as_str()).collect();
        assert!(nested_calls.contains(&"deep"));
    }

    #[test]
    fn a_type_alias_resolves_to_its_impl() {
        let (fns, calls) = graph_of(&[(
            "crates/x/src/lib.rs",
            "pub type Ctx1024 = Ctx<20>;\nimpl<const D: usize> Ctx<D> { fn new() {} }\nfn user() { Ctx1024::new(); }\n",
        )]);
        let new = fns.iter().position(|f| f.name == "new").unwrap();
        let user = fns.iter().position(|f| f.name == "user").unwrap();
        assert_eq!(calls[user][0].callees, vec![new]);
    }

    #[test]
    fn a_turbofish_call_is_a_call() {
        let (fns, calls) = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl C {\n  fn mul(&self) { self.fixed::<8>(); Self::fixed::<16>(); }\n  fn fixed<const K: usize>(&self) {}\n}\n",
        )]);
        let mul = fns.iter().position(|f| f.name == "mul").unwrap();
        let fixed = fns.iter().position(|f| f.name == "fixed").unwrap();
        let callees: Vec<&Vec<usize>> = calls[mul].iter().map(|c| &c.callees).collect();
        assert_eq!(callees, [&vec![fixed], &vec![fixed]]);
    }

    #[test]
    fn a_fn_nested_in_a_method_is_free_and_resolves() {
        let (fns, calls) = graph_of(&[(
            "crates/x/src/lib.rs",
            "impl S {\n  fn decode(&self) {\n    fn get_key() {}\n    get_key();\n  }\n}\n",
        )]);
        let key = fns.iter().position(|f| f.name == "get_key").unwrap();
        assert!(fns[key].impl_type.is_none());
        let decode = fns.iter().position(|f| f.name == "decode").unwrap();
        let site = calls[decode].iter().find(|c| c.name == "get_key").unwrap();
        assert_eq!(site.callees, vec![key]);
    }

    #[test]
    fn resolution_prefers_impl_then_module_and_skips_externals() {
        let (fns, calls) = graph_of(&[
            (
                "crates/a/src/caller.rs",
                "pub fn go() {\n  let v = Vec::new();\n  v.push(1);\n  Widget::spin();\n  helpers::tidy();\n}\n",
            ),
            (
                "crates/a/src/helpers.rs",
                "pub struct Widget;\nimpl Widget { pub fn spin() {} }\npub fn tidy() {}\n",
            ),
        ]);
        let go = fns.iter().position(|f| f.name == "go").unwrap();
        let by_name: std::collections::HashMap<&str, &Call> =
            calls[go].iter().map(|c| (c.name.as_str(), c)).collect();
        assert!(
            by_name["new"].callees.is_empty(),
            "Vec::new is external: {:?}",
            by_name["new"]
        );
        let spin = &by_name["spin"];
        assert_eq!(spin.callees.len(), 1);
        assert_eq!(fns[spin.callees[0]].name, "spin");
        let tidy = &by_name["tidy"];
        assert_eq!(tidy.callees.len(), 1);
        assert_eq!(fns[tidy.callees[0]].name, "tidy");
    }

    #[test]
    fn method_calls_overapproximate_across_types() {
        let (fns, calls) = graph_of(&[(
            "crates/x/src/lib.rs",
            "struct A; struct B;\nimpl A { fn tick(&self) {} }\nimpl B { fn tick(&self) {} }\nfn drive(x: &A) { x.tick(); }\n",
        )]);
        let drive = fns.iter().position(|f| f.name == "drive").unwrap();
        let tick = calls[drive].iter().find(|c| c.name == "tick").unwrap();
        assert_eq!(tick.kind, CallKind::Method);
        assert_eq!(tick.callees.len(), 2, "both impls are candidates");
    }

    #[test]
    fn trait_signatures_have_no_body_and_generic_sigs_find_theirs() {
        let (fns, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "trait T { fn sig(&self); fn dflt(&self) { work() } }\nfn generic<V: Into<Vec<u8>>>(v: V) -> Vec<u8> { v.into() }\nfn work() {}\nfn arrays(a: [u8; 4]) -> [u64; 2] { work() }\n",
        )]);
        assert!(find_fn(&fns, "sig").body.is_none());
        assert!(
            find_fn(&fns, "arrays").body.is_some(),
            "`;` inside `[T; N]`"
        );
        assert!(find_fn(&fns, "dflt").body.is_some());
        assert_eq!(find_fn(&fns, "dflt").impl_type.as_deref(), Some("T"));
        assert!(find_fn(&fns, "generic").body.is_some());
    }
}
