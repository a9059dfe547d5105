//! Per-rule fixture tests: each known-bad snippet must produce exactly
//! the expected findings under `lint_source`, the good snippets none,
//! and `run_check` over the real workspace must be clean.

use std::path::Path;
use tlc_lint::rules::Finding;
use tlc_lint::{lint_source, run_check};

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn unsafe_outside_crypto_is_flagged_even_with_safety_comment() {
    let src = include_str!("fixtures/unsafe_outside_crypto.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&findings), ["unsafe-scope"], "{findings:?}");
    // The same source inside tlc-crypto is fine.
    assert!(lint_source("crates/crypto/src/fixture.rs", src).is_empty());
}

#[test]
fn derive_debug_on_private_key_holder_is_flagged() {
    let src = include_str!("fixtures/secret_debug.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&findings), ["secret-hygiene"], "{findings:?}");
}

#[test]
fn secrets_in_format_macros_are_flagged() {
    let src = include_str!("fixtures/secret_format.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(rules_of(&findings), ["secret-hygiene"], "{findings:?}");
    assert!(findings.len() >= 2, "both macros flagged: {findings:?}");
}

#[test]
fn clean_fixture_passes_every_rule() {
    let src = include_str!("fixtures/clean.rs");
    let findings = lint_source("crates/crypto/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn bad_corpus_fails_as_a_whole() {
    // Acceptance criterion: the linter exits non-zero on the bad
    // corpus. Equivalent library-level statement: every bad fixture
    // yields at least one finding.
    for (name, src) in [
        (
            "unsafe_outside_crypto.rs",
            include_str!("fixtures/unsafe_outside_crypto.rs"),
        ),
        ("secret_debug.rs", include_str!("fixtures/secret_debug.rs")),
        (
            "secret_format.rs",
            include_str!("fixtures/secret_format.rs"),
        ),
    ] {
        let findings = lint_source(&format!("crates/core/src/verify/{name}"), src);
        assert!(!findings.is_empty(), "{name} must fail the lint");
    }
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf();
    let report = run_check(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
}
