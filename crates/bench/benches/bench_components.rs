//! Component micro-benchmarks (ablation of the pipeline's building blocks): MAS
//! discovery, partition computation, ECG grouping, AES, and the PRF cell cipher.

use criterion::{criterion_group, criterion_main, Criterion};
use f2_core::ecg::group_equivalence_classes;
use f2_core::fake::FreshValueGenerator;
use f2_crypto::{Aes128, MasterKey, ProbabilisticCipher};
use f2_datagen::Dataset;
use f2_fd::mas::find_mas;
use f2_relation::{AttrSet, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_components(c: &mut Criterion) {
    let orders = Dataset::Orders.generate(4_000, 42);
    let mut group = c.benchmark_group("components");
    group.sample_size(10);

    group.bench_function("mas_discovery_orders_4k", |b| b.iter(|| find_mas(&orders)));

    let mas = find_mas(&orders).sets[0];
    group.bench_function("partition_orders_4k", |b| b.iter(|| Partition::compute(&orders, mas)));

    let partition = Partition::compute(&orders, mas);
    group.bench_function("ecg_grouping_k5", |b| {
        b.iter(|| {
            let mut fresh = FreshValueGenerator::new();
            group_equivalence_classes(partition.classes(), 5, mas.len(), &mut fresh)
        })
    });

    group.bench_function("single_attribute_partition", |b| {
        b.iter(|| Partition::compute(&orders, AttrSet::single(2)))
    });

    group.bench_function("aes128_block", |b| {
        let aes = Aes128::new(&[7u8; 16]);
        let mut block = [42u8; 16];
        b.iter(|| {
            aes.encrypt_block(&mut block);
            block
        })
    });

    group.bench_function("prf_cell_encrypt", |b| {
        let cipher = ProbabilisticCipher::new(&MasterKey::from_seed(7).attribute_key(0));
        let mut rng = StdRng::seed_from_u64(7);
        let plain = f2_relation::Value::text("1-URGENT").encode();
        let mut buf = Vec::new();
        b.iter(|| {
            buf.clear();
            cipher.append_cell(&plain, &mut rng, &mut buf);
            buf.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
