//! Pass: charge-arithmetic overflow audit.
//!
//! The paper's entire claim rides on the byte counters being exact —
//! a silent `u64` wrap in a `GapSweep` merge or a truncating cast on a
//! gateway byte field *is* a charging bug, indistinguishable from the
//! data charging gap TLC is supposed to close. This pass audits every
//! raw `+ - *` / `+= -= *=` and every narrowing `as` cast whose
//! operand is a charging counter inside the charge-accounting files
//! ([`crate::CHARGE_PATHS`]) and requires a checked / saturating /
//! clamped form.
//!
//! A "charging counter" operand is any identifier in
//! [`COUNTER_FIELDS`] — the fields of `ChargeRow`/`GapSweep`, the
//! gateway/monitor `ByteCounter` fields, and the `UsageSeries` bucket
//! store — whether it appears as a field access
//! (`out.total_sent`), a column index (`self.sent[i]`), or a local
//! derived binding of the same name (`delivered`). Float math
//! (ratios, Mbps conversions) never aborts or wraps and is exempt,
//! as is `abs_diff`/`saturating_*`/`checked_*` method arithmetic —
//! those never lex as raw operator tokens in the first place.

use crate::rules::Finding;
use crate::scan::ScannedFile;
use syn::TokenKind;

/// Field / binding names that hold charging counters.
pub const COUNTER_FIELDS: &[&str] = &[
    // ChargeRow
    "sent",
    "delivered",
    "gateway",
    "lost_air",
    "lost_congestion",
    "lost_handover",
    "monitor_lag",
    "cycle_start_us",
    // GapSweep
    "active_rows",
    "total_sent",
    "total_delivered",
    "total_gateway",
    "intended",
    "legacy_gap",
    "tlc_gap",
    // ByteCounter / UsageSeries (gateway + monitor vantages)
    "packets",
    "bytes",
    "buckets",
    // Twin offered-load tally
    "offered",
    // Roaming three-party settlement (SettlementSplit / RoamingSweep)
    "charged",
    "home",
    "visited",
    "vendor",
];

/// Integer types a counter must never be truncated into.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "i64"];

/// The counter identifier an operand boils down to, walking *backwards*
/// from the significant position just before an operator. Handles
/// `ident`, `recv.field`, and `recv.field[idx]` shapes.
fn operand_ident_back(file: &ScannedFile, mut si: usize) -> Option<String> {
    let mut t = file.sig_tok(si);
    if t.is_punct(']') {
        // `col[idx]` — hop to the matching `[`, then the field before.
        let mut depth = 1usize;
        while si > 0 && depth > 0 {
            si -= 1;
            let u = file.sig_tok(si);
            if u.is_punct(']') {
                depth += 1;
            } else if u.is_punct('[') {
                depth -= 1;
            }
        }
        if si == 0 {
            return None;
        }
        si -= 1;
        t = file.sig_tok(si);
    }
    if t.is_punct(')') {
        return None; // call result — shape unknown, not a bare counter
    }
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

/// The counter identifier an operand boils down to, walking *forwards*
/// from the significant position just after an operator: skips deref
/// `*`, reference `&`, unary `-`, the `=` of a compound assignment, and
/// a leading `self.`/receiver chain to land on the final field name.
fn operand_ident_fwd(file: &ScannedFile, mut si: usize) -> Option<String> {
    while si < file.sig.len() {
        let t = file.sig_tok(si);
        match t.kind {
            TokenKind::Punct
                if t.is_punct('*') || t.is_punct('&') || t.is_punct('-') || t.is_punct('=') =>
            {
                si += 1;
            }
            _ => break,
        }
    }
    // Follow `a.b.c` to the last field before a non-`.` token.
    let mut last: Option<String> = None;
    while si < file.sig.len() {
        let t = file.sig_tok(si);
        if t.kind == TokenKind::Ident {
            last = Some(t.text.clone());
            si += 1;
            if file
                .sig
                .get(si)
                .is_some_and(|&r| file.tokens[r].is_punct('.'))
            {
                si += 1;
                // `.0`/`.await`/method call — a call result is not a
                // bare counter read; stop if `(` follows the next ident.
                continue;
            }
        }
        break;
    }
    // If the chain ended in a method call (`x.bytes()`), it is a getter
    // whose result feeds wider logic — still counter-derived, keep it.
    last
}

fn is_counter(name: &Option<String>) -> bool {
    name.as_deref().is_some_and(|n| COUNTER_FIELDS.contains(&n))
}

/// Runs the audit over one in-scope file.
pub fn check_file(file: &ScannedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for si in 0..file.sig.len() {
        if file.sig_in_test(si) {
            continue;
        }
        let t = file.sig_tok(si);

        if is_unchecked_arith_at(file, si) {
            let lhs = operand_ident_back(file, si - 1);
            let compound = file
                .sig
                .get(si + 1)
                .is_some_and(|&r| file.tokens[r].is_punct('='));
            let rhs = operand_ident_fwd(file, si + 1);
            let counter = if is_counter(&lhs) {
                lhs
            } else if is_counter(&rhs) {
                rhs
            } else {
                None
            };
            if let Some(name) = counter {
                let op = if compound {
                    format!("{}=", t.text)
                } else {
                    t.text.clone()
                };
                out.push(Finding {
                    rule: "charge-arith",
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    item: file.sig_item(si).to_string(),
                    message: format!(
                        "unchecked `{op}` on charging counter `{name}`; a silent wrap is a charging bug — use saturating/checked arithmetic"
                    ),
                });
            }
            continue;
        }

        // Narrowing `as` casts of a counter.
        if t.is_ident("as") && si > 0 {
            let target = file.sig.get(si + 1).map(|&r| &file.tokens[r]);
            let Some(target) = target else { continue };
            if target.kind != TokenKind::Ident || !NARROW_TYPES.contains(&target.text.as_str()) {
                continue;
            }
            let src = operand_ident_back(file, si - 1);
            if is_counter(&src) {
                out.push(Finding {
                    rule: "charge-arith",
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    item: file.sig_item(si).to_string(),
                    message: format!(
                        "charging counter `{}` truncated by `as {}`; counters stay u64 end to end",
                        src.unwrap_or_default(),
                        target.text
                    ),
                });
            }
        }
    }
    out
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "return"
            | "in"
            | "as"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "continue"
            | "loop"
            | "while"
            | "for"
            | "let"
            | "fn"
            | "where"
            | "impl"
            | "dyn"
            | "unsafe"
            | "const"
            | "static"
            | "type"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
    )
}

/// Float-looking operand text: a literal with a decimal point or float
/// suffix, or the `f32`/`f64` type idents that end an `as` cast.
fn float_like(text: &str) -> bool {
    text == "f32"
        || text == "f64"
        || (text.chars().next().is_some_and(|c| c.is_ascii_digit())
            && (text.contains('.') || text.ends_with("f32") || text.ends_with("f64")))
}

/// True when the token at `si` is a binary `+`, `-` or `*` (or the
/// operator half of `+=`, `-=`, `*=`) between integer-looking
/// operands. Dereferences, unary minus, `->`, references and
/// float-typed math do not qualify.
fn is_unchecked_arith_at(file: &ScannedFile, si: usize) -> bool {
    let t = file.sig_tok(si);
    let op = match t.text.chars().next() {
        Some(c @ ('+' | '-' | '*')) => c,
        _ => return false,
    };
    if t.kind != TokenKind::Punct || si == 0 || si + 1 >= file.sig.len() {
        return false;
    }
    let next = file.sig_tok(si + 1);
    // `->` is a return arrow, not subtraction.
    if op == '-' && next.is_punct('>') {
        return false;
    }
    let prev = file.sig_tok(si - 1);
    // Binary position: the left neighbour must be an operand end.
    let prev_is_operand = match prev.kind {
        TokenKind::Ident => !is_keyword(&prev.text),
        TokenKind::Literal => true,
        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    };
    if !prev_is_operand {
        return false;
    }
    // Right neighbour: operand start — ident, literal, `(`, `*deref`,
    // `&ref`, unary `-`, or `=` (compound assignment).
    let next_is_operand = match next.kind {
        TokenKind::Ident => !is_keyword(&next.text) || next.text == "self",
        TokenKind::Literal => true,
        TokenKind::Punct => {
            next.is_punct('(')
                || next.is_punct('*')
                || next.is_punct('&')
                || next.is_punct('-')
                || next.is_punct('=')
        }
        _ => false,
    };
    if !next_is_operand {
        return false;
    }
    // Float math never aborts; skip when either neighbour is visibly
    // float (`x as f64 * rate`, `0.5 * y`).
    if float_like(&prev.text) || float_like(&next.text) {
        return false;
    }
    true
}
