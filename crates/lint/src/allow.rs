//! The checked allowlist for grandfathered / invariant-true sites.
//!
//! Format (one entry per line, `#` starts a comment):
//!
//! ```text
//! <rule> <path> <item>    # why this site is exempt
//! ```
//!
//! `item` is the innermost enclosing named item the lint reports, or
//! `*` to cover a whole file (for a module whose purpose is the
//! exempted behaviour; `LINT_ALLOW` holds no such entry today). Keying
//! on item names instead of line numbers keeps entries stable across
//! reformatting.
//!
//! The list is *checked*: an entry that suppresses nothing is itself a
//! lint error, so stale exemptions cannot accumulate.

use crate::rules::{Finding, RULES};

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry applies to.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// Enclosing item name, or `*` for the whole file.
    pub item: String,
    /// 1-based line in the allowlist file (for stale-entry reports).
    pub line: u32,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule && self.path == f.path && (self.item == "*" || self.item == f.item)
    }
}

/// Parses allowlist text. Malformed lines and unknown rule ids are
/// reported as findings against the allowlist file itself.
pub fn parse(allow_path: &str, text: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            findings.push(Finding {
                rule: "allowlist",
                path: allow_path.to_string(),
                line: line_no,
                col: 1,
                item: String::new(),
                message: format!("malformed entry (want `<rule> <path> <item>`): {raw_line:?}"),
            });
            continue;
        }
        if !RULES.iter().any(|(r, _)| *r == fields[0]) {
            findings.push(Finding {
                rule: "allowlist",
                path: allow_path.to_string(),
                line: line_no,
                col: 1,
                item: String::new(),
                message: format!("unknown rule `{}`", fields[0]),
            });
            continue;
        }
        let entry = AllowEntry {
            rule: fields[0].to_string(),
            path: fields[1].to_string(),
            item: fields[2].to_string(),
            line: line_no,
        };
        if let Some(first) = entries.iter().find(|e: &&AllowEntry| {
            e.rule == entry.rule && e.path == entry.path && e.item == entry.item
        }) {
            findings.push(Finding {
                rule: "allowlist",
                path: allow_path.to_string(),
                line: line_no,
                col: 1,
                item: entry.item.clone(),
                message: format!(
                    "duplicate entry `{} {} {}` (first on line {})",
                    entry.rule, entry.path, entry.item, first.line
                ),
            });
            continue;
        }
        entries.push(entry);
    }
    (entries, findings)
}

/// Applies the allowlist: returns the findings that survive, plus a
/// stale-entry finding for every entry that matched nothing.
pub fn apply(allow_path: &str, entries: &[AllowEntry], findings: Vec<Finding>) -> Vec<Finding> {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    for f in findings {
        let mut suppressed = false;
        for (i, e) in entries.iter().enumerate() {
            if e.matches(&f) {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if !used[i] {
            kept.push(Finding {
                rule: "allowlist",
                path: allow_path.to_string(),
                line: e.line,
                col: 1,
                item: e.item.clone(),
                message: format!(
                    "stale allowlist entry `{} {} {}` suppresses nothing; remove it",
                    e.rule, e.path, e.item
                ),
            });
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, path: &str, item: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 1,
            col: 1,
            item: item.to_string(),
            message: String::new(),
        }
    }

    #[test]
    fn entries_suppress_by_item_and_wildcard() {
        let (entries, errs) = parse(
            "LINT_ALLOW",
            "no-panic crates/a/src/x.rs foo # invariant\ndeterminism crates/a/src/y.rs *\n",
        );
        assert!(errs.is_empty());
        let kept = apply(
            "LINT_ALLOW",
            &entries,
            vec![
                f("no-panic", "crates/a/src/x.rs", "foo"),
                f("no-panic", "crates/a/src/x.rs", "bar"),
                f("determinism", "crates/a/src/y.rs", "anything"),
            ],
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].item, "bar");
    }

    #[test]
    fn stale_entries_are_errors() {
        let (entries, _) = parse("LINT_ALLOW", "no-panic crates/a/src/x.rs gone\n");
        let kept = apply("LINT_ALLOW", &entries, vec![]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "allowlist");
        assert!(kept[0].message.contains("stale"));
    }

    #[test]
    fn malformed_and_unknown_rules_are_errors() {
        let (entries, errs) = parse("LINT_ALLOW", "just-two fields\nnot-a-rule a b\n");
        assert!(entries.is_empty());
        assert_eq!(errs.len(), 2);
    }
}
