//! Schema honesty checks for the committed bench reports.
//!
//! Every throughput/scaling row in the `BENCH_*.json` reports must
//! carry the `host_cpus` it was measured on: a "4 shards" or
//! "8 threads" row without the core count silently passes off
//! threads sharing cores as parallel speedup. The writers in
//! `src/bin/` stamp it per row; this test pins the contract on the
//! committed artifacts so a writer regression cannot land unnoticed.

use std::path::PathBuf;

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed bench report {name} must be readable: {e}"))
}

/// Every line matching `row_marker` must also carry `host_cpus`.
fn assert_rows_stamped(name: &str, text: &str, row_marker: &str) {
    let mut rows = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.contains(row_marker) {
            rows += 1;
            assert!(
                line.contains("\"host_cpus\""),
                "{name}:{}: row is missing host_cpus: {line}",
                i + 1
            );
        }
    }
    assert!(rows > 0, "{name}: no rows matched {row_marker:?}");
}

#[test]
fn bench_crypto_rows_record_host_cpus() {
    let text = repo_file("BENCH_crypto.json");
    assert!(
        text.contains("\"host_cpus\""),
        "BENCH_crypto.json has no top-level host_cpus"
    );
    // The in-process service row: one thread, whatever the host has.
    assert_rows_stamped("BENCH_crypto.json", &text, "\"service_pocs_per_sec\":");
}

#[test]
fn bench_crypto_reports_fresh_and_fixed_message_signing() {
    // `rsa1024_sign_ns` is timed over distinct messages; the
    // fixed-message figure (branch predictor trained, ~20% low) is
    // reported under its own name, never as the headline.
    let text = repo_file("BENCH_crypto.json");
    for row in ["\"rsa1024_sign_ns\":", "\"rsa1024_sign_fixed_msg_ns\":"] {
        assert!(text.contains(row), "BENCH_crypto.json has no {row} row");
    }
    assert!(
        text.contains("distinct messages"),
        "BENCH_crypto.json methodology must say how signing is timed"
    );
}

#[test]
fn bench_crypto_names_its_kernels_and_the_one_poc_batch() {
    // Every sign and verify row depends on which kernels ran (IFMA lanes
    // against scalar, SHA-NI against portable), and `batch_1` — one
    // PoC's chain, the depth-1 verdict path — is the row the any-key
    // lanes exist for.
    let text = repo_file("BENCH_crypto.json");
    for row in [
        "\"sign_kernel\":",
        "\"batch_kernel\":",
        "\"sha256_kernel\":",
        "\"batch_1\":",
        "\"batch_3\":",
    ] {
        assert!(text.contains(row), "BENCH_crypto.json has no {row} row");
    }
}

#[test]
fn bench_ingress_rows_record_host_cpus() {
    let text = repo_file("BENCH_ingress.json");
    assert!(text.contains("\"host_cpus\""));
    assert_rows_stamped("BENCH_ingress.json", &text, "\"pocs_per_sec\"");
}

#[test]
fn bench_twin_rows_record_host_cpus() {
    let text = repo_file("BENCH_twin.json");
    assert!(text.contains("\"host_cpus\""));
    assert_rows_stamped("BENCH_twin.json", &text, "\"sessions_per_sec\"");
}
