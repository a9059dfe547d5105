//! CI smoke benchmark for the TCP ingress: measures verified PoCs/sec
//! through a real socket against the in-process service on the same
//! proof set, and checks the verdict sequences agree bit-for-bit.
//! Exits nonzero on any divergence. Bounded iteration counts, no
//! stored baselines; scale with `TLC_BENCH_POCS` (proofs per
//! relationship, default 40). Pass `--metrics` to dump the final
//! ingress report in Prometheus text exposition format after the
//! summary lines (for scraping CI runs into dashboards).
//!
//! # C100K mode
//!
//! With `--conns N` the binary switches to the connection-scale bench
//! behind DESIGN.md §10: a child process (its own fd budget) holds `N`
//! idle handshaken connections against the server, the full table is
//! soaked idle for `--duration` seconds, then a foreground client
//! measures PoCs/sec over the pre-generated proof set — sweeping shard
//! counts 1..=`--shards` (powers of two). Results land in
//! `BENCH_ingress.json` in the working directory:
//!
//! ```text
//! ingress_throughput --conns 10000 --shards 4 --duration 3
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tlc_bench::{arg_value, reject_unknown_flags};
use tlc_core::messages::{PocMsg, NONCE_LEN};
use tlc_core::plan::DataPlan;
use tlc_core::protocol::{run_negotiation, Endpoint};
use tlc_core::strategy::{Knowledge, OptimalStrategy, Role};
use tlc_core::verify::remote::codec::{Hello, MAGIC, PROTOCOL_VERSION};
use tlc_core::verify::remote::{IngressConfig, IngressServer, RemoteVerifier};
use tlc_core::verify::service::{ServiceConfig, VerifierService};
use tlc_crypto::{KeyPair, PublicKey};
use tlc_net::wire::{FrameDecoder, FrameKind};

const RELATIONSHIPS: u64 = 4;

struct Rel {
    edge_pub: PublicKey,
    op_pub: PublicKey,
    proofs: Vec<PocMsg>,
}

fn nonce(id: u64, cycle: u64, side: u8) -> [u8; NONCE_LEN] {
    let mut n = [side; NONCE_LEN];
    n[..8].copy_from_slice(&id.to_be_bytes());
    n[8..16].copy_from_slice(&cycle.to_be_bytes());
    n
}

fn build_rel(id: u64, cycles: usize) -> Rel {
    let plan = DataPlan::paper_default();
    let edge = KeyPair::generate_for_seed(1024, 31_000 + id * 2).expect("keygen");
    let op = KeyPair::generate_for_seed(1024, 31_001 + id * 2).expect("keygen");
    let mut proofs = Vec::with_capacity(cycles);
    for c in 0..cycles {
        let sent = 2_000_000 + id * 1000 + c as u64;
        let mut e = Endpoint::new(
            Role::Edge,
            plan,
            Knowledge {
                role: Role::Edge,
                own_truth: sent,
                inferred_peer_truth: sent - 40_000,
            },
            Box::new(OptimalStrategy),
            edge.private.clone(),
            op.public.clone(),
            nonce(id, c as u64, 0),
            16,
        );
        let mut o = Endpoint::new(
            Role::Operator,
            plan,
            Knowledge {
                role: Role::Operator,
                own_truth: sent - 40_000,
                inferred_peer_truth: sent,
            },
            Box::new(OptimalStrategy),
            op.private.clone(),
            edge.public.clone(),
            nonce(id, c as u64, 1),
            16,
        );
        proofs.push(run_negotiation(&mut o, &mut e).expect("negotiation").0);
    }
    Rel {
        edge_pub: edge.public,
        op_pub: op.public,
        proofs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Hidden child mode: hold idle connections and report.
    if let Some(addr) = arg_value(&args, "--hold") {
        let n: usize = arg_value(&args, "--hold-count")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        hold_child(addr.parse().expect("hold addr"), n);
        return;
    }

    reject_unknown_flags(&args, &["--metrics", "--conns", "--shards", "--duration"]);
    let metrics = args.iter().any(|a| a == "--metrics");

    if let Some(conns) = arg_value(&args, "--conns").and_then(|v| v.parse::<usize>().ok()) {
        let max_shards: usize = arg_value(&args, "--shards")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4)
            .max(1);
        let duration = Duration::from_secs_f64(
            arg_value(&args, "--duration")
                .and_then(|v| v.parse().ok())
                .unwrap_or(3.0),
        );
        c100k_bench(conns, max_shards, duration);
        return;
    }

    conformance_bench(metrics);
}

// ── Conformance smoke (the original bench) ─────────────────────────────

fn conformance_bench(metrics: bool) {
    let cycles: usize = std::env::var("TLC_BENCH_POCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(40);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);
    let plan = DataPlan::paper_default();

    println!("building {RELATIONSHIPS} relationships × {cycles} cycles…");
    let rels: Vec<Rel> = (0..RELATIONSHIPS).map(|id| build_rel(id, cycles)).collect();
    let total = RELATIONSHIPS as usize * cycles;

    // ── In-process baseline ─────────────────────────────────────────────
    let mut svc = VerifierService::new(workers);
    let start = Instant::now();
    for r in &rels {
        let rel = svc
            .register(plan, r.edge_pub.clone(), r.op_pub.clone())
            .expect("register");
        svc.submit_batch(rel, r.proofs.iter().cloned())
            .expect("submit");
    }
    let mut local = svc.collect_results().expect("collect");
    let local_elapsed = start.elapsed();
    svc.finish();
    local.sort_by_key(|r| r.tag);

    // ── Over TCP ────────────────────────────────────────────────────────
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig::default(),
        IngressConfig::default(),
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn ingress");
    let mut client = RemoteVerifier::connect(handle.addr(), 0).expect("connect");
    let start = Instant::now();
    for r in &rels {
        let rel = client
            .register(plan, r.edge_pub.clone(), r.op_pub.clone())
            .expect("register");
        client.submit_batch(rel, r.proofs.iter()).expect("submit");
    }
    let mut remote = client.collect_results().expect("collect");
    let remote_elapsed = start.elapsed();
    client.goodbye().expect("goodbye");
    let report = handle.shutdown().expect("report");
    remote.sort_by_key(|r| r.tag);

    assert_eq!(local.len(), total);
    assert_eq!(remote.len(), total);
    for (l, r) in local.iter().zip(remote.iter()) {
        assert_eq!(l.tag, r.tag, "tag sequence diverged");
        assert_eq!(l.result, r.result, "verdict diverged at tag {}", l.tag);
    }
    assert_eq!(report.ingress.submissions, total as u64);
    assert_eq!(report.ingress.orphaned_verdicts, 0);

    let local_rate = total as f64 / local_elapsed.as_secs_f64();
    let remote_rate = total as f64 / remote_elapsed.as_secs_f64();
    println!(
        "in-process: {total} PoCs in {:.3} s -> {:.0}/s ({:.0}/hour)",
        local_elapsed.as_secs_f64(),
        local_rate,
        local_rate * 3600.0
    );
    println!(
        "over TCP:   {total} PoCs in {:.3} s -> {:.0}/s ({:.0}/hour)",
        remote_elapsed.as_secs_f64(),
        remote_rate,
        remote_rate * 3600.0
    );
    println!(
        "ingress overhead: {:.1}% (pauses: {}, sheds: {})",
        (local_rate / remote_rate - 1.0) * 100.0,
        report.ingress.pauses,
        report.ingress.shed_overload
    );
    if metrics {
        print!("{}", report.to_prometheus());
    }
}

// ── C100K mode ─────────────────────────────────────────────────────────

struct Run {
    shards: usize,
    held: usize,
    pocs: usize,
    elapsed: Duration,
    connections: u64,
    pool_exhausted: u64,
}

fn c100k_bench(conns: usize, max_shards: usize, duration: Duration) {
    // The poller this platform builds — what every shard waits on.
    let backend = tlc_net::Readiness::new()
        .expect("readiness registry")
        .backend()
        .name();
    // Each held connection costs one server fd here plus one client fd
    // in the child; lift our soft limit toward the hard cap for the
    // server side (the child lifts its own).
    let got = tlc_net::raise_nofile_limit((conns as u64).saturating_mul(2) + 1024).unwrap_or(0);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "C100K bench: backend={backend} conns={conns} shards<=1..{max_shards} \
         duration={:.1}s host_cpus={host_cpus} nofile={got}",
        duration.as_secs_f64(),
    );

    let cycles: usize = std::env::var("TLC_BENCH_POCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(40);
    println!("building {RELATIONSHIPS} relationships × {cycles} cycles…");
    let rels: Vec<Rel> = (0..RELATIONSHIPS).map(|id| build_rel(id, cycles)).collect();
    let plan = DataPlan::paper_default();

    let mut shard_counts = vec![1usize];
    while let Some(&last) = shard_counts.last() {
        if last * 2 > max_shards {
            break;
        }
        shard_counts.push(last * 2);
    }

    let mut runs: Vec<Run> = Vec::new();
    for &shards in &shard_counts {
        let config = IngressConfig {
            shards,
            max_conns: conns + 1024,
            ..IngressConfig::default()
        };
        let server =
            IngressServer::bind(("127.0.0.1", 0), ServiceConfig::default(), config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.spawn().expect("spawn ingress");

        // Child process holds the idle connection load.
        let mut child = std::process::Command::new(std::env::current_exe().expect("exe"))
            .arg("--hold")
            .arg(addr.to_string())
            .arg("--hold-count")
            .arg(conns.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn holder");
        let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        child_out.read_line(&mut line).expect("holder report");
        let held: usize = line
            .trim()
            .strip_prefix("HELD ")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        println!("shards={shards}: holding {held}/{conns} idle connections");

        // Idle soak: the whole point of the readiness loop is that
        // a full-but-quiet table costs nothing. Sit on it for the
        // requested duration before measuring.
        std::thread::sleep(duration);

        // Foreground throughput while the table is full. One pass over
        // the pre-generated proof set (the replay cache forbids
        // resubmission within a server's lifetime); scale the set with
        // TLC_BENCH_POCS for longer measurements.
        let mut client = RemoteVerifier::connect(addr, 0).expect("connect");
        let start = Instant::now();
        for r in &rels {
            let rel = client
                .register(plan, r.edge_pub.clone(), r.op_pub.clone())
                .expect("register");
            client.submit_batch(rel, r.proofs.iter()).expect("submit");
        }
        let verdicts = client.collect_results().expect("collect");
        let elapsed = start.elapsed();
        for v in &verdicts {
            assert!(
                v.result.is_ok(),
                "unexpected rejection in C100K sweep: {:?}",
                v.result
            );
        }
        let pocs = verdicts.len();
        let _ = client.goodbye();

        // Tear down: holder first (so the server reaps cleanly), then
        // the server.
        drop(child.stdin.take());
        let _ = child.wait();
        let report = handle.shutdown().expect("report");
        assert!(
            report.ingress.connections >= held as u64,
            "server saw fewer connections ({}) than were held ({held})",
            report.ingress.connections,
        );

        let rate = pocs as f64 / elapsed.as_secs_f64();
        println!(
            "shards={shards}: {pocs} PoCs in {:.3} s -> {rate:.0}/s \
             (held {held}, pool exhausted {})",
            elapsed.as_secs_f64(),
            report.pool.exhausted,
        );
        runs.push(Run {
            shards,
            held,
            pocs,
            elapsed,
            connections: report.ingress.connections,
            pool_exhausted: report.pool.exhausted,
        });
    }

    write_json(conns, duration, backend, host_cpus, &runs);
}

/// Writes `BENCH_ingress.json` (hand-rolled: no serde in the tree).
fn write_json(conns: usize, duration: Duration, backend: &str, host_cpus: usize, runs: &[Run]) {
    let rate = |r: &Run| -> f64 { r.pocs as f64 / r.elapsed.as_secs_f64().max(f64::MIN_POSITIVE) };
    let base = runs.first().map(rate).unwrap_or(0.0);
    let peak = runs.iter().map(rate).fold(0.0f64, f64::max);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"ingress_throughput\",\n");
    out.push_str(&format!("  \"backend\": \"{backend}\",\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"target_conns\": {conns},\n"));
    out.push_str(&format!(
        "  \"duration_secs\": {:.3},\n",
        duration.as_secs_f64()
    ));
    out.push_str(&format!(
        "  \"scaling_vs_one_shard\": {:.3},\n",
        if base > 0.0 { peak / base } else { 0.0 }
    ));
    out.push_str("  \"runs\": [\n");
    for (k, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"host_cpus\": {host_cpus}, \
             \"shards\": {}, \"held_conns\": {}, \"server_connections\": {}, \
             \"pocs\": {}, \"elapsed_secs\": {:.3}, \"pocs_per_sec\": {:.1}, \
             \"pool_exhausted\": {}}}{}\n",
            r.shards,
            r.held,
            r.connections,
            r.pocs,
            r.elapsed.as_secs_f64(),
            rate(r),
            r.pool_exhausted,
            if k + 1 == runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_ingress.json", &out).expect("write BENCH_ingress.json");
    println!("wrote BENCH_ingress.json");
}

// ── Holder child ───────────────────────────────────────────────────────

/// Opens `n` connections, completes the HELLO handshake on each, prints
/// `HELD <n>` and then parks until stdin closes (parent teardown). Runs
/// in a separate process so the held client fds come out of a separate
/// RLIMIT_NOFILE budget from the server's.
fn hold_child(addr: SocketAddr, n: usize) {
    let _ = tlc_net::raise_nofile_limit((n as u64).saturating_mul(2) + 1024);
    let threads = 8.min(n.max(1));
    let per = n.div_ceil(threads);
    let mut held: Vec<TcpStream> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let want = per.min(n.saturating_sub(t * per));
            handles.push(s.spawn(move || {
                let mut conns = Vec::with_capacity(want);
                for _ in 0..want {
                    match handshake(addr) {
                        Some(stream) => conns.push(stream),
                        None => break,
                    }
                }
                conns
            }));
        }
        for h in handles {
            if let Ok(mut conns) = h.join() {
                held.append(&mut conns);
            }
        }
    });
    println!("HELD {}", held.len());
    let _ = std::io::stdout().flush();
    // Park until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(held);
}

/// One blocking connect + HELLO/HELLO_ACK exchange. `None` on any
/// failure (the caller just holds fewer connections).
fn handshake(addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let hello = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 0,
    };
    let bytes = hello.to_frame().encode().ok()?;
    stream.write_all(&bytes).ok()?;
    let mut decoder = FrameDecoder::new(tlc_net::wire::DEFAULT_MAX_PAYLOAD);
    let mut chunk = [0u8; 256];
    loop {
        if let Some(frame) = decoder.next_frame() {
            return (frame.kind == FrameKind::HelloAck).then_some(stream);
        }
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        decoder.push(&chunk[..n]).ok()?;
    }
}
