//! Per-phase micro-benchmarks of the F² planning stack on the interned columnar
//! core: MAX discovery, MAS partitioning, plan building (ECG grouping + split), the
//! false-positive planner, one full chunk encryption, the chunked 10k-row engine
//! run tracked by the `f2_phases` section of `BENCH_report.json`, and a whole-table
//! decryption of a merged engine outcome (split over threads as `Scheme::decrypt`
//! splits any job past `DECRYPT_PARALLEL_MIN_CELLS`).

use criterion::{criterion_group, criterion_main, Criterion};
use f2_bench::measure_engine;
use f2_core::config::F2Config;
use f2_core::fake::FreshValueGenerator;
use f2_core::fpfd::plan_false_positive_elimination;
use f2_core::sse::build_mas_plan;
use f2_core::{Scheme, F2};
use f2_datagen::Dataset;
use f2_engine::{Engine, EngineConfig};
use f2_fd::mas::find_mas;
use f2_relation::Partition;

/// The engine workload's chunk shape (10k rows / 512-row chunks).
const CHUNK_ROWS: usize = 512;

fn bench_f2_phases(c: &mut Criterion) {
    let table = Dataset::Synthetic.generate(10_000, 42);
    let chunk = table.truncated(CHUNK_ROWS);
    let config = F2Config::new(0.2, 2).expect("valid config");
    let mut group = c.benchmark_group("f2_phases");
    group.sample_size(10);

    group.bench_function("max_discovery_chunk", |b| {
        b.iter(|| {
            // Fresh clone so every iteration pays the lazy columnar build too.
            let t = chunk.clone();
            find_mas(&t)
        })
    });

    let mas_set = find_mas(&chunk);
    group.bench_function("mas_partitions_chunk", |b| {
        b.iter(|| {
            mas_set.sets.iter().map(|&m| Partition::compute(&chunk, m).class_count()).sum::<usize>()
        })
    });

    group.bench_function("mas_plans_chunk", |b| {
        b.iter(|| {
            let mut fresh = FreshValueGenerator::for_table(&chunk);
            mas_set
                .sets
                .iter()
                .map(|&m| build_mas_plan(&chunk, m, &config, &mut fresh).instances.len())
                .sum::<usize>()
        })
    });

    group.bench_function("fp_plan_chunk", |b| {
        b.iter(|| {
            let mut fresh = FreshValueGenerator::for_table(&chunk);
            plan_false_positive_elimination(&chunk, &mas_set.sets, config.ecg_size(), &mut fresh)
                .pairs
                .len()
        })
    });

    let scheme = F2::builder().alpha(0.2).split_factor(2).seed(7).build().expect("valid scheme");
    group.bench_function("encrypt_512_row_chunk", |b| b.iter(|| scheme.encrypt(&chunk).unwrap()));

    group.bench_function("engine_10k_1worker", |b| {
        b.iter(|| measure_engine(&scheme, &table, 1, CHUNK_ROWS, 7))
    });

    // The merged outcome of 20,000 Synthetic rows encrypted as `outsource-synthetic`
    // encrypts its table: 2 workers, 512-row chunks.
    let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: CHUNK_ROWS, seed: 7 })
        .expect("valid engine config");
    let merged = engine
        .encrypt(&scheme, &Dataset::Synthetic.generate(20_000, 42))
        .expect("engine run")
        .outcome;
    group.bench_function("decrypt_20k_merged", |b| b.iter(|| scheme.decrypt(&merged).unwrap()));

    group.finish();
}

criterion_group!(benches, bench_f2_phases);
criterion_main!(benches);
