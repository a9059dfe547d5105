//! The two per-file repo-specific lint rules.
//!
//! Every rule here is a pure function from a [`ScannedFile`] to
//! findings; the workspace runner in `lib.rs` decides which files each
//! rule sees. Rules match *token sequences* (via [`ScannedFile::sig`]),
//! never raw text, so code inside strings, comments, or doc examples
//! can not trip them.
//!
//! The two interprocedural passes (`transitive-no-panic`,
//! `lock-order`) live in their own modules
//! ([`crate::nopanic`], [`crate::locks`]) because
//! they see the whole workspace call graph, not one file; their rule
//! ids are listed in [`RULES`] too.

use crate::scan::{FileKind, ScannedFile};
use syn::TokenKind;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`unsafe-scope`, `secret-hygiene`,
    /// `transitive-no-panic`, `lock-order`, or the meta
    /// rule `parse`).
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
pub const RULES: &[(&str, &str)] = &[
    (
        "unsafe-scope",
        "`unsafe` is confined to tlc-crypto plus tlc-net's readiness syscall shim; every other crate must `#![forbid(unsafe_code)]` (tlc-net: `#![deny(unsafe_code)]`)",
    ),
    (
        "secret-hygiene",
        "PrivateKey/CRT material never reaches #[derive(Debug)] or format!-family macro arguments",
    ),
    (
        "transitive-no-panic",
        "no call chain from a file under `#![deny(clippy::unwrap_used, …)]` reaches unwrap/expect/panic! outside that scope (call-graph propagation)",
    ),
    (
        "lock-order",
        "the workspace lock graph (Mutex/RwLock acquisition order, propagated along call edges) is cycle-free",
    ),
];

fn finding(
    rule: &'static str,
    file: &ScannedFile,
    si: usize,
    item: &str,
    message: String,
) -> Finding {
    let t = file.sig_tok(si);
    Finding {
        rule,
        path: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        item: item.to_string(),
        message,
    }
}

/// Rule `unsafe-scope`: any `unsafe` token outside `crates/crypto/`
/// or the allow-listed readiness syscall shim
/// ([`crate::UNSAFE_EXEMPT_FILES`]). (The crate-manifest half —
/// `#![forbid(unsafe_code)]` / tlc-net's `#![deny(unsafe_code)]`
/// attributes — is checked by the workspace runner, which sees whole
/// files.)
pub fn unsafe_scope(file: &ScannedFile) -> Vec<Finding> {
    if file.rel_path.starts_with("crates/crypto/")
        || crate::UNSAFE_EXEMPT_FILES.contains(&file.rel_path.as_str())
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for si in 0..file.sig.len() {
        let t = file.sig_tok(si);
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            out.push(finding(
                "unsafe-scope",
                file,
                si,
                file.sig_item(si),
                "`unsafe` outside tlc-crypto".to_string(),
            ));
        }
    }
    out
}

/// Identifiers that name private-key material. `private` catches field
/// accesses like `kp.private`; the CRT names catch the raw limbs.
const SECRET_IDENTS: &[&str] = &["PrivateKey", "private", "private_key", "dp", "dq", "qinv"];

/// Macros that format their arguments (logging included).
const FORMAT_MACROS: &[&str] = &[
    "format",
    "format_args",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "trace",
    "debug",
    "info",
    "warn",
    "error",
];

/// Rule `secret-hygiene`: (a) `#[derive(.. Debug ..)]` on a struct whose
/// body mentions `PrivateKey`, (b) secret identifiers inside the
/// argument list of a format!-family macro.
pub fn secret_hygiene(file: &ScannedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let sig_len = file.sig.len();
    let mut si = 0usize;
    while si < sig_len {
        if file.sig_in_test(si) {
            si += 1;
            continue;
        }
        let t = file.sig_tok(si);

        // (a) derive(Debug) on a secret-bearing struct.
        if t.is_punct('#') {
            if let Some((idents, after)) = crate::scan_attr(file, si) {
                if idents.first().map(String::as_str) == Some("derive")
                    && idents.iter().any(|s| s == "Debug")
                {
                    if let Some(name_si) = struct_after_attrs(file, after) {
                        let name = file.sig_tok(name_si).text.clone();
                        let secret_struct = name == "PrivateKey"
                            || struct_body_mentions(file, name_si, "PrivateKey");
                        if secret_struct {
                            out.push(finding(
                                "secret-hygiene",
                                file,
                                si,
                                &name,
                                format!("#[derive(Debug)] on `{name}` exposes PrivateKey material; implement a redacted Debug by hand"),
                            ));
                        }
                    }
                }
                si = after;
                continue;
            }
        }

        // (b) secrets in format!-family macro arguments.
        if t.kind == TokenKind::Ident
            && FORMAT_MACROS.contains(&t.text.as_str())
            && file
                .sig
                .get(si + 1)
                .is_some_and(|&r| file.tokens[r].is_punct('!'))
        {
            if let Some((leak_si, end)) = macro_args_mention(file, si + 2, SECRET_IDENTS) {
                if let Some(leak) = leak_si {
                    out.push(finding(
                        "secret-hygiene",
                        file,
                        leak,
                        file.sig_item(leak),
                        format!(
                            "`{}` appears in a {}! argument; private-key material must never be formatted",
                            file.sig_tok(leak).text,
                            t.text
                        ),
                    ));
                }
                si = end;
                continue;
            }
        }
        si += 1;
    }
    out
}

/// If significant position `si` starts the macro's delimiter, scans the
/// delimited group; returns `(first position mentioning one of
/// `needles` (if any), position past the group)`.
fn macro_args_mention(
    file: &ScannedFile,
    si: usize,
    needles: &[&str],
) -> Option<(Option<usize>, usize)> {
    let open = file.sig.get(si).map(|&r| &file.tokens[r])?;
    let (open_c, close_c) = match open.text.chars().next()? {
        '(' => ('(', ')'),
        '[' => ('[', ']'),
        '{' => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut hit = None;
    let mut i = si;
    while i < file.sig.len() {
        let t = file.sig_tok(i);
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some((hit, i + 1));
            }
        } else if hit.is_none() && t.kind == TokenKind::Ident && needles.contains(&t.text.as_str())
        {
            hit = Some(i);
        }
        i += 1;
    }
    Some((hit, file.sig.len()))
}

/// Past the attributes starting at `si`, finds `struct <Name>` and
/// returns the significant position of the name.
fn struct_after_attrs(file: &ScannedFile, mut si: usize) -> Option<usize> {
    while let Some((_, after)) = crate::scan_attr(file, si) {
        si = after;
    }
    // Allow visibility / `pub(crate)` before the keyword.
    let mut guard = 0;
    while si < file.sig.len() && guard < 8 {
        let t = file.sig_tok(si);
        if t.is_ident("struct") {
            return Some(si + 1).filter(|&n| n < file.sig.len());
        }
        if t.is_ident("pub") || t.is_punct('(') || t.is_punct(')') || t.is_ident("crate") {
            si += 1;
            guard += 1;
            continue;
        }
        return None; // enum / fn / … — not a struct
    }
    None
}

/// Whether the struct whose name sits at `name_si` mentions `needle`
/// anywhere in its body (brace or tuple form).
fn struct_body_mentions(file: &ScannedFile, name_si: usize, needle: &str) -> bool {
    let mut depth = 0usize;
    let mut opened = false;
    for i in name_si + 1..file.sig.len() {
        let t = file.sig_tok(i);
        match t.text.chars().next() {
            Some('{') | Some('(') => {
                depth += 1;
                opened = true;
            }
            Some('}') | Some(')') => {
                depth = depth.saturating_sub(1);
                if opened && depth == 0 {
                    return false;
                }
            }
            Some(';') if depth == 0 => return false,
            _ => {
                if t.kind == TokenKind::Ident && t.text == needle {
                    return true;
                }
            }
        }
    }
    false
}

/// Which rules run on a file of this kind. Scope decisions live here
/// so `lib.rs` and the fixture tests agree exactly.
pub fn rules_for(file: &ScannedFile) -> Vec<fn(&ScannedFile) -> Vec<Finding>> {
    let mut rules: Vec<fn(&ScannedFile) -> Vec<Finding>> = vec![unsafe_scope];
    if file.kind == FileKind::Src {
        rules.push(secret_hygiene);
    }
    rules
}
