//! Tests that tie the three descriptions of the benchmark together:
//! `BENCHMARK.json`, the catalogue in code, and what a run prints —
//! plus the build-profile parity with the root manifest.

use std::collections::BTreeSet;
use std::path::Path;

use crate::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::inputs::Scale;
use crate::json::Json;
use crate::run::{self, Outcome, RunSpec};
use crate::trace;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark() -> Json {
    Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// The contract's rule for names: at most 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key}"))
}

/// Declared metrics must equal the catalogue: name, unit, direction.
fn assert_metrics_match(declared: &[Json], catalogue: &[MetricDef], bounded: bool) {
    assert_eq!(declared.len(), catalogue.len());
    for (d, c) in declared.iter().zip(catalogue) {
        let want_keys: &[&str] = if bounded {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        assert_eq!(keys(d), want_keys, "keys of {}", c.name);
        assert_eq!(text(d, "name"), c.name);
        assert_eq!(text(d, "unit"), c.unit, "unit of {}", c.name);
        let better = if c.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(d, "better"), better, "direction of {}", c.name);
        assert!(valid_name(c.name), "name {}", c.name);
        assert!(valid_unit(c.unit), "unit {} of {}", c.unit, c.name);
        if bounded {
            let bound = d.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", c.name);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let b = benchmark();
    assert_eq!(
        keys(&b),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths = b.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::Str("ledger".into())]);
    assert_eq!(
        b.get("run_seconds").and_then(Json::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );

    let command = b.get("command").and_then(Json::as_arr).expect("command");
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }

    let workloads = b
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (d, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(d), ["name", "why"]);
        assert_eq!(text(d, "name"), w.name());
        assert_eq!(text(d, "why"), w.why());
        assert!(valid_name(w.name()));
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "why of {}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }

    let e2e = b
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert!((1..=16).contains(&e2e.len()));
    assert_metrics_match(e2e, END_TO_END, true);
    // The contract's mandatory set-up metric, with the largest bound.
    let setup = &e2e[0];
    assert_eq!((text(setup, "name"), text(setup, "unit")), ("setup_s", "s"));
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));

    let layers = b
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert!((1..=128).contains(&layers.len()));
    assert_metrics_match(layers, PER_LAYER, false);

    let mut names = BTreeSet::new();
    for n in END_TO_END.iter().chain(PER_LAYER).map(|d| d.name) {
        assert!(names.insert(n), "{n} is declared twice");
    }
    for w in Workload::ALL {
        assert!(names.insert(w.name()), "{} is also a metric name", w.name());
    }
    assert!(repo_file("BENCHMARK.json").len() <= 64 * 1024);
}

/// What a run printed must be what the catalogue declares, in order,
/// each with its unit.
fn assert_emits(outcome: &Outcome, catalogue: &[MetricDef]) {
    let w = outcome.workload.name();
    assert!(outcome.correct, "{w}: {:?}", outcome.failures);
    assert_eq!(outcome.failed, 0, "{w}");
    assert!(outcome.attempted >= 1, "{w}");
    let got: Vec<_> = outcome
        .metrics
        .iter()
        .map(|m| (m.0.name, m.0.unit))
        .collect();
    let want: Vec<_> = catalogue.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(got, want, "{w}");
    // And the result line round-trips through a JSON reader.
    let line = Json::parse(&outcome.result_json()).expect("result line parses");
    assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        keys(line.get("metrics").expect("metrics")).len(),
        catalogue.len()
    );
}

fn smoke(workload: Workload) -> RunSpec {
    RunSpec {
        workload,
        seed: 11,
        seconds: 0.2,
        scale: Scale::SMOKE,
    }
}

#[test]
fn smoke_runs_emit_every_declared_metric_and_nothing_else() {
    // One test, sequentially: the pinned workloads narrow this thread's
    // affinity, and CPU accounting is per process.
    crate::inputs::select_server_loop();
    // Unpinned workloads first, for the same reason.
    let mut order = Workload::ALL;
    order.sort_by_key(|w| w.pinned());
    for w in order {
        let e2e = run::end_to_end(smoke(w)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_emits(&e2e, END_TO_END);
        for (def, value) in &e2e.metrics {
            assert!(
                *value > 0.0,
                "{}: end-to-end {} is {value}",
                w.name(),
                def.name
            );
        }

        let layers = trace::traced(smoke(w)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_emits(&layers, PER_LAYER);
        let value = |name: &str| {
            layers
                .metrics
                .iter()
                .find(|m| m.0.name == name)
                .map(|m| m.1)
                .unwrap_or_else(|| panic!("no {name}"))
        };
        // Each workload shows what it bypasses: the twin touches no
        // PoC-path layer, and no verify_* run negotiates in a timed
        // window.
        let zero_prefixes: &[&str] = match w {
            Workload::TwinChurn => &["crypto.", "core.", "net."],
            Workload::VerifyFlood | Workload::VerifyFrames | Workload::VerifySingle => {
                &["core.protocol.", "sim.twin.", "core.roaming."]
            }
            Workload::SettleRpc => &["core.protocol.", "core.verify.service.", "sim.twin."],
            Workload::CycleE2e => &["core.roaming."],
        };
        for (def, v) in &layers.metrics {
            if zero_prefixes.iter().any(|p| def.name.starts_with(p)) {
                assert_eq!(
                    *v,
                    0.0,
                    "{}: bypassed layer reports {} = {v}",
                    w.name(),
                    def.name
                );
            }
        }
        assert!(value("ledger.workspace_loc") > 10_000.0);
        assert!(value("proc.threads") >= 1.0);
        match w {
            // The 1M tier is probed only when the run's budget covers it.
            Workload::TwinChurn => assert!(value("sim.twin.events_per_s_10k") > 0.0),
            Workload::SettleRpc => assert!(value("core.roaming.split_volume_ns") > 0.0),
            Workload::CycleE2e => {
                // Theorem 4: honest parties settle in one round.
                assert_eq!(value("core.protocol.rounds_per_cycle"), 1.0);
                assert!(value("core.protocol.negotiate_us") > 0.0);
            }
            _ => {
                assert!(value("core.verify.service.cpu_us_per_poc") > 0.0);
                assert!(value("core.verify.service.batch_fill") >= 1.0);
            }
        }
    }
}

/// The `[section]` body of a manifest as a set of `key = value` lines.
fn manifest_section(manifest: &str, section: &str) -> BTreeSet<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != section)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_root_manifests() {
    let root = repo_file("Cargo.toml");
    let ours = repo_file("ledger/Cargo.toml");
    for section in ["[profile.release]", "[profile.dev]"] {
        let want = manifest_section(&root, section);
        assert!(!want.is_empty(), "root manifest has no {section}");
        assert_eq!(manifest_section(&ours, section), want, "{section}");
    }
    let release = manifest_section(&root, "[profile.release]");
    for line in ["debug = true", "lto = \"fat\"", "codegen-units = 1"] {
        assert!(release.contains(line), "root release profile lost {line}");
    }
}
