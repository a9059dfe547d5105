//! Fixture tests for the lock-order pass over the call graph (DESIGN
//! §9.1), and the check that the real workspace is clean.

use std::path::Path;
use tlc_lint::graph::CallGraph;
use tlc_lint::{lint_sources, run_check, Finding};

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
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

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn workspace_is_clean() {
    let report = run_check(workspace_root()).expect("workspace scan");
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

/// Batch verification runs on the ingress shard's own thread, and
/// lock-order sees a lock taken in a callee only through resolved call
/// edges; pin that the real graph walks from the shard loop into
/// `Verifier::verify_batch_prehashed`.
#[test]
fn shard_loop_reaches_batch_verification_in_the_real_call_graph() {
    let ws = tlc_lint::Workspace::load(workspace_root()).expect("workspace scan");
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
