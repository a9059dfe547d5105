//! Token-stream prepass shared by the call graph and the lock pass.
//!
//! `syn` (the vendored lexer) gives us exact tokens with spans and
//! preserved comments; this module layers two pieces of context on top
//! of that stream:
//!
//! * a **test mask** — tokens inside `#[cfg(test)]` items or `#[test]`
//!   functions, which the lock pass skips, and
//! * an **enclosing-item map** — the innermost named `fn` / `struct` /
//!   `enum` / `trait` / `mod` each token sits in.

use syn::{File, Token, TokenKind};

/// What kind of target a file is, by its path inside the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library / binary source under `src/`.
    Src,
    /// Integration tests (`tests/` directories).
    Tests,
    /// Bench targets (`benches/` directories).
    Benches,
    /// Examples (`examples/` directories).
    Examples,
}

/// A lexed file plus its per-token context.
pub struct ScannedFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Target kind derived from the path.
    pub kind: FileKind,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// `in_test[i]` — token `i` is inside test-only code.
    pub in_test: Vec<bool>,
    /// `item_of[i]` — name of the innermost named item containing
    /// token `i` (empty at module top level).
    pub item_of: Vec<String>,
}

/// Keywords that introduce a named item whose name we track.
const NAMED_ITEMS: &[&str] = &["fn", "struct", "enum", "trait", "mod", "union"];

impl ScannedFile {
    /// Lexes `src` and computes its context. `rel_path` decides
    /// the [`FileKind`].
    pub fn parse(rel_path: &str, src: &str) -> Result<ScannedFile, syn::Error> {
        let File { tokens } = syn::parse_file(src)?;
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].is_significant())
            .collect();
        let in_test = test_mask(&tokens, &sig);
        let item_of = item_map(&tokens, &sig);
        Ok(ScannedFile {
            rel_path: rel_path.to_string(),
            kind: file_kind(rel_path),
            tokens,
            sig,
            in_test,
            item_of,
        })
    }

    /// The significant token at significant-position `si`.
    pub fn sig_tok(&self, si: usize) -> &Token {
        &self.tokens[self.sig[si]]
    }

    /// Whether the significant token at position `si` is in test code.
    pub fn sig_in_test(&self, si: usize) -> bool {
        self.in_test[self.sig[si]]
    }
}

fn file_kind(rel_path: &str) -> FileKind {
    let p = rel_path;
    if p.starts_with("tests/") || p.contains("/tests/") {
        FileKind::Tests
    } else if p.starts_with("benches/") || p.contains("/benches/") {
        FileKind::Benches
    } else if p.starts_with("examples/") || p.contains("/examples/") {
        FileKind::Examples
    } else {
        FileKind::Src
    }
}

/// Given the start of an attribute (`#` at `sig[si]`), returns
/// `(idents inside the attribute, significant position just past the
/// closing `]`)`. Returns `None` if the shape is not an attribute.
fn attr_extent(tokens: &[Token], sig: &[usize], si: usize) -> Option<(Vec<String>, usize)> {
    let mut i = si;
    if !tokens[sig[i]].is_punct('#') {
        return None;
    }
    i += 1;
    if i < sig.len() && tokens[sig[i]].is_punct('!') {
        i += 1;
    }
    if i >= sig.len() || !tokens[sig[i]].is_punct('[') {
        return None;
    }
    let mut depth = 0usize;
    let mut idents = Vec::new();
    while i < sig.len() {
        let t = &tokens[sig[i]];
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

/// True when an attribute's ident list marks test-only code:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, ….
fn is_test_attr(idents: &[String]) -> bool {
    match idents.first().map(String::as_str) {
        Some("test") => true,
        Some("cfg") => idents.iter().any(|s| s == "test"),
        _ => false,
    }
}

/// Marks every token belonging to an item annotated with a test
/// attribute. The item extends from the attribute through the matching
/// close brace of its body (or through `;` for body-less items).
fn test_mask(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut si = 0usize;
    while si < sig.len() {
        let start_raw = sig[si];
        if let Some((idents, mut after)) = attr_extent(tokens, sig, si) {
            if is_test_attr(&idents) {
                // Skip any further attributes on the same item.
                while after < sig.len() {
                    match attr_extent(tokens, sig, after) {
                        Some((_, next)) => after = next,
                        None => break,
                    }
                }
                // Find the item extent: first `{` … matching `}`, or a
                // `;` before any brace opens.
                let mut depth = 0usize;
                let mut j = after;
                let mut end_raw = tokens.len().saturating_sub(1);
                while j < sig.len() {
                    let t = &tokens[sig[j]];
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            end_raw = sig[j];
                            break;
                        }
                    } else if t.is_punct(';') && depth == 0 {
                        end_raw = sig[j];
                        break;
                    }
                    j += 1;
                }
                for slot in mask.iter_mut().take(end_raw + 1).skip(start_raw) {
                    *slot = true;
                }
                // Resume scanning after the masked item.
                while si < sig.len() && sig[si] <= end_raw {
                    si += 1;
                }
                continue;
            }
            si = after;
            continue;
        }
        si += 1;
    }
    mask
}

/// Computes the innermost enclosing named item for every token.
fn item_map(tokens: &[Token], sig: &[usize]) -> Vec<String> {
    let mut out = vec![String::new(); tokens.len()];
    // (name, brace depth its body opened at)
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut pending: Option<String> = None;

    let mut si = 0usize;
    // Raw index up to which `out` has been filled.
    let mut filled = 0usize;
    while si < sig.len() {
        let raw = sig[si];
        let current = stack.last().map(|(n, _)| n.clone()).unwrap_or_default();
        for slot in out.iter_mut().take(raw + 1).skip(filled) {
            *slot = current.clone();
        }
        filled = raw + 1;

        let t = &tokens[raw];
        if t.kind == TokenKind::Ident && NAMED_ITEMS.contains(&t.text.as_str()) {
            // The next significant ident is the item's name.
            if let Some(name_tok) = sig.get(si + 1).map(|&r| &tokens[r]) {
                if name_tok.kind == TokenKind::Ident {
                    pending = Some(name_tok.text.clone());
                }
            }
        } else if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending.take() {
                stack.push((name, depth));
            }
        } else if t.is_punct('}') {
            if stack.last().is_some_and(|(_, d)| *d == depth) {
                stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_punct(';') && depth == stack.last().map(|(_, d)| *d).unwrap_or(0) {
            // `struct Foo;`, trait method signatures, `mod m;` — the
            // pending name never opened a body.
            pending = None;
        }
        si += 1;
    }
    let tail = stack.last().map(|(n, _)| n.clone()).unwrap_or_default();
    for slot in out.iter_mut().skip(filled) {
        *slot = tail.clone();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::parse("crates/x/src/lib.rs", src).unwrap()
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let f = scan("fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n");
        let unwrap_idx = f
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("token present");
        assert!(f.in_test[unwrap_idx]);
        let live_idx = f.tokens.iter().position(|t| t.text == "live").unwrap();
        assert!(!f.in_test[live_idx]);
    }

    #[test]
    fn test_mask_covers_test_fn_with_stacked_attrs() {
        let f = scan("#[test]\n#[ignore]\nfn t() { panic!(\"x\") }\nfn live() {}\n");
        let panic_idx = f.tokens.iter().position(|t| t.text == "panic").unwrap();
        assert!(f.in_test[panic_idx]);
        let live_idx = f.tokens.iter().rposition(|t| t.text == "live").unwrap();
        assert!(!f.in_test[live_idx]);
    }

    #[test]
    fn item_map_tracks_nesting() {
        let f = scan("mod outer {\n fn inner() { let x = 1; }\n struct S { f: u32 }\n}\n");
        let x_idx = f.tokens.iter().position(|t| t.text == "x").unwrap();
        assert_eq!(f.item_of[x_idx], "inner");
        let field_idx = f.tokens.iter().position(|t| t.text == "f").unwrap();
        assert_eq!(f.item_of[field_idx], "S");
    }

    #[test]
    fn item_map_survives_bodyless_items() {
        let f = scan("struct Unit;\ntrait T { fn sig(&self); }\nfn after() { work(); }\n");
        let work_idx = f.tokens.iter().position(|t| t.text == "work").unwrap();
        assert_eq!(f.item_of[work_idx], "after");
    }

    #[test]
    fn file_kinds_from_paths() {
        assert_eq!(file_kind("crates/core/src/lib.rs"), FileKind::Src);
        assert_eq!(file_kind("crates/core/tests/loom.rs"), FileKind::Tests);
        assert_eq!(file_kind("tests/integration_protocol.rs"), FileKind::Tests);
        assert_eq!(file_kind("examples/quickstart.rs"), FileKind::Examples);
        assert_eq!(
            file_kind("crates/bench/benches/fig17_poc_cost.rs"),
            FileKind::Benches
        );
    }
}
