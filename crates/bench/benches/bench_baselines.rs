//! Criterion bench for Figure 8: every backend of the registry on the same table.
//!
//! Backends the registry marks as sampled (Paillier) are benchmarked on their sample
//! row count rather than the full table: even on the Montgomery engine, a 512-bit
//! Paillier pass over the whole table would dwarf every other bar — exactly the
//! relative cost the paper reports. Two per-cell micro-benchmarks of the underlying
//! probabilistic primitives complete the picture (`bench_modpow` covers the
//! modular-exponentiation engine itself).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use f2_bench::backend_registry;
use f2_crypto::{MasterKey, PaillierKeyPair};
use f2_datagen::Dataset;
use f2_relation::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_baselines(c: &mut Criterion) {
    let table = Dataset::Orders.generate(1_000, 42);

    let mut group = c.benchmark_group("fig8_baselines");
    group.sample_size(10);

    for backend in backend_registry(0.2, 2, 7) {
        let bench_table = match backend.sample_rows {
            Some(rows) => table.truncated(rows),
            None => table.clone(),
        };
        group.bench_with_input(
            BenchmarkId::new(backend.scheme.name(), format!("{}_rows", bench_table.row_count())),
            &bench_table,
            |b, t| b.iter(|| backend.scheme.encrypt(t).unwrap()),
        );
    }

    group.bench_function("paillier_512_per_cell", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let kp = PaillierKeyPair::generate(512, &mut rng).unwrap();
        let v = Value::text("4-NOT SPECIFIED");
        b.iter(|| kp.public().encrypt_value(&v, &mut rng).unwrap());
    });

    group.bench_function("prf_probabilistic_per_cell", |b| {
        let cipher = f2_crypto::ProbabilisticCipher::new(&MasterKey::from_seed(7).attribute_key(0));
        let mut rng = StdRng::seed_from_u64(7);
        let plain = Value::text("4-NOT SPECIFIED").encode();
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            cipher.append_cell(&plain, &mut rng, &mut buf);
            buf.len()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
