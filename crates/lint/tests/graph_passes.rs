//! Fixture tests for the two interprocedural passes (DESIGN §9.1):
//! transitive no-panic propagation and lock-order cycle detection.
//! Each test also pins down what a
//! per-file lint (clippy's `unwrap_used`, which sees one function's own
//! sites) could *not* see, so the value of the call-graph layer stays
//! demonstrated, not assumed.

use tlc_lint::graph::CallGraph;
use tlc_lint::nopanic::local_panic_sites;
use tlc_lint::rules::Finding;
use tlc_lint::{lint_sources, Workspace};

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn two_hop_panic_chain_is_invisible_to_the_per_file_rule() {
    // The root file contains no panic site of its own, so clippy's
    // per-function lints have nothing to flag in it — the panic lives
    // two calls away in a file outside the no-panic scope.
    let root = include_str!("fixtures/nopanic_chain_root.rs");
    let ws = Workspace::from_sources(&[("crates/core/src/verify/fixture_root.rs", root)]);
    let graph = CallGraph::build(&ws.files);
    assert!(!graph.fns.is_empty());
    for f in &graph.fns {
        let body = f.body.expect("fixture fns have bodies");
        assert!(local_panic_sites(&ws.files[f.file], body).is_empty());
    }
}

#[test]
fn two_hop_panic_chain_is_caught_transitively_with_the_chain_named() {
    let root = include_str!("fixtures/nopanic_chain_root.rs");
    let helper = include_str!("fixtures/nopanic_chain_helper.rs");
    let findings = lint_sources(&[
        ("crates/core/src/verify/fixture_root.rs", root),
        ("crates/core/src/fixture_helper.rs", helper),
    ]);
    let hits = by_rule(&findings, "transitive-no-panic");
    assert_eq!(hits.len(), 1, "{findings:?}");
    let f = hits[0];
    // The finding lands on the root (the fn that owes the guarantee)...
    assert_eq!(f.path, "crates/core/src/verify/fixture_root.rs");
    assert_eq!(f.item, "verify_frame");
    // ...and names the full chain plus the offending site.
    assert!(
        f.message
            .contains("verify_frame -> helper_mid -> helper_deep"),
        "chain not named: {}",
        f.message
    );
    assert!(
        f.message.contains("crates/core/src/fixture_helper.rs"),
        "panic site file not named: {}",
        f.message
    );
    // Nothing else fires: the helper file is outside the no-panic
    // scope by design.
    assert_eq!(findings.len(), 1, "{findings:?}");

    // Without its own `#![deny]`, the root is still in scope when
    // `verify/mod.rs` carries it...
    let root = root.replace("#![deny", "// #![deny");
    let verify_mod = "#![deny(clippy::unwrap_used)]\n";
    let findings = lint_sources(&[
        ("crates/core/src/verify/mod.rs", verify_mod),
        ("crates/core/src/verify/fixture_root.rs", &root),
        ("crates/core/src/fixture_helper.rs", helper),
    ]);
    assert_eq!(by_rule(&findings, "transitive-no-panic").len(), 1);
    // ...and with the helper in scope too, its `.expect()` is clippy's
    // to flag (or to see excused by an `#[expect]`), not the pass's.
    let findings = lint_sources(&[
        ("crates/core/src/verify/mod.rs", verify_mod),
        ("crates/core/src/verify/fixture_root.rs", &root),
        ("crates/core/src/verify/fixture_helper.rs", helper),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn helper_alone_outside_the_scope_stays_clean() {
    // Without a no-panic root reaching it, the panicking helper is not
    // a finding — the guarantee attaches to roots, not helpers.
    let helper = include_str!("fixtures/nopanic_chain_helper.rs");
    let findings = lint_sources(&[("crates/core/src/fixture_helper.rs", helper)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn opposite_order_lock_acquisition_is_a_cycle() {
    // `forward` holds a and takes b through a call; `backward` nests
    // b then a directly. The pass must stitch both edge kinds into one
    // reported cycle.
    let src = include_str!("fixtures/lock_cycle.rs");
    let findings = lint_sources(&[("crates/net/src/fixture_locks.rs", src)]);
    let hits = by_rule(&findings, "lock-order");
    assert!(!hits.is_empty(), "{findings:?}");
    let msg = &hits[0].message;
    assert!(
        msg.contains("Shared.a") && msg.contains("Shared.b"),
        "cycle locks not named: {msg}"
    );
    assert_eq!(
        findings.len(),
        hits.len(),
        "only lock-order fires: {findings:?}"
    );
}

#[test]
fn consistent_lock_order_is_clean() {
    let src = r#"
use std::sync::Mutex;

pub struct Shared {
    pub a: Mutex<u64>,
    pub b: Mutex<u64>,
}

impl Shared {
    pub fn both(&self) -> u64 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }

    pub fn both_again(&self) -> u64 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga * *gb
    }
}
"#;
    let findings = lint_sources(&[("crates/net/src/fixture_locks.rs", src)]);
    assert!(by_rule(&findings, "lock-order").is_empty(), "{findings:?}");
}

/// Batch verification runs on the ingress shard's own thread, so a
/// panic in it costs the shard, not a pool worker. The transitive
/// no-panic pass protects only what the call graph resolves; pin that
/// the real graph walks from the shard loop into
/// `Verifier::verify_batch_prehashed`.
#[test]
fn shard_loop_reaches_batch_verification_in_the_real_call_graph() {
    use tlc_lint::graph::CallGraph;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up");
    let ws = tlc_lint::Workspace::load(root).expect("workspace scan");
    let graph = CallGraph::build(&ws.files);
    let is = |id: usize, ty: &str, path: &str| {
        graph.fns[id].impl_type.as_deref() == Some(ty) && graph.fn_path(id).ends_with(path)
    };
    let mut frontier: Vec<usize> = graph
        .fns_named("run")
        .iter()
        .copied()
        .filter(|&id| is(id, "Shard", "verify/remote/server.rs"))
        .collect();
    assert_eq!(frontier.len(), 1, "Shard::run moved or was renamed");
    let mut seen = vec![false; graph.fns.len()];
    while let Some(id) = frontier.pop() {
        if std::mem::replace(&mut seen[id], true) {
            continue;
        }
        frontier.extend(
            graph.calls[id]
                .iter()
                .flat_map(|c| c.callees.iter().copied()),
        );
    }
    assert!(
        graph
            .fns_named("verify_batch_prehashed")
            .iter()
            .any(|&id| seen[id] && is(id, "Verifier", "verify/mod.rs")),
        "no resolved call chain from Shard::run to Verifier::verify_batch_prehashed"
    );
}
