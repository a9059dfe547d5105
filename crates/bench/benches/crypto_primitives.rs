//! Microbenchmarks of the from-scratch crypto substrate: the costs that
//! dominate Fig. 17 (RSA-1024 sign/verify) plus the building blocks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tlc_crypto::bigint::BigUint;
use tlc_crypto::rng::DeterministicRng;
use tlc_crypto::{pkcs1, sha256, KeyPair};

fn bench(c: &mut Criterion) {
    let kp = KeyPair::generate_for_seed(1024, 0xC0FFEE).unwrap();
    let msg = vec![0xA5u8; 199]; // a TLC-CDR-sized message
    let sig = pkcs1::sign(&kp.private, &msg).unwrap();

    // Fresh messages are what a negotiator pays; the fixed-message row
    // is kept for comparison with older numbers.
    let fresh_msgs = tlc_bench::distinct_messages(256, msg.len());
    let mut fresh = fresh_msgs.iter().cycle();
    c.bench_function("crypto/rsa1024_sign", |b| {
        b.iter(|| pkcs1::sign(black_box(&kp.private), fresh.next().unwrap()).unwrap())
    });
    c.bench_function("crypto/rsa1024_sign_fixed_msg", |b| {
        b.iter(|| pkcs1::sign(black_box(&kp.private), &msg).unwrap())
    });
    c.bench_function("crypto/rsa1024_verify", |b| {
        b.iter(|| pkcs1::verify(black_box(&kp.public), &msg, &sig).unwrap())
    });

    let mut g = c.benchmark_group("crypto/sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0x5Au8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256::digest(black_box(&data)))
        });
    }
    g.finish();

    // 1024-bit modular exponentiation (the RSA core).
    let n = kp.public.n.clone();
    let base = BigUint::from_bytes_be(&[0x42; 100]);
    let exp = BigUint::from_bytes_be(&[0x7F; 128]);
    c.bench_function("crypto/modpow_1024", |b| {
        b.iter(|| black_box(&base).modpow(&exp, &n))
    });

    let mut kg = c.benchmark_group("crypto/keygen");
    kg.sample_size(10);
    kg.bench_function("rsa1024", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = DeterministicRng::from_seed(seed);
            KeyPair::generate(1024, &mut rng).unwrap()
        })
    });
    kg.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
