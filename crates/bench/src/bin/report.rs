//! `report` — regenerate every table and figure of the F² evaluation (paper §5).
//!
//! Usage:
//! ```text
//! cargo run --release -p f2-bench --bin report -- [experiment …]
//! ```
//! where `experiment` is one or more of `table1`, `fig6`, `fig7`, `fig8`, `fig9a`,
//! `fig9b`, `fig9c`, `fig9d`, `fig10`, `local_vs_outsource`, `security`, `engine`, or
//! `all` (default). Row counts are scaled down from the paper's so every experiment
//! finishes in minutes — the curves' shapes, not the absolute sizes, are the
//! reproduction target; set the environment variable `F2_REPORT_SCALE` to an integer
//! ≥ 1 to multiply them.
//! Setting `F2_REPORT_SMOKE=1` shrinks the `engine` experiment to a seconds-long
//! serializer check (CI runs it on every push).
//!
//! Every encryption measurement goes through the backend-agnostic
//! [`f2_bench::measure_scheme_on`]; the baseline comparison (`fig8`) iterates
//! [`f2_bench::backend_registry`], so adding a backend to the registry adds it to the
//! report. The `engine` experiment sweeps [`f2_bench::ENGINE_WORKER_GRID`] over the
//! streaming pipeline and additionally writes the machine-readable
//! `BENCH_report.json`, the repo's tracked perf-trajectory artifact.

use f2_bench::{
    backend_registry, engine_backends, measure_engine, measure_scheme_on, secs, time_fd_discovery,
    EngineMeasurement, ENGINE_WORKER_GRID, REGISTRY_PAILLIER_BITS,
};
use f2_core::{F2Scheme, PaillierScheme, Scheme, F2};
use f2_datagen::Dataset;
use f2_fd::mas::find_mas;
use f2_relation::stats::{human_bytes, TableStats};
use f2_relation::Table;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn scale() -> usize {
    std::env::var("F2_REPORT_SCALE").ok().and_then(|s| s.parse::<usize>().ok()).unwrap_or(1).max(1)
}

fn smoke() -> bool {
    std::env::var("F2_REPORT_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// The F² backend used throughout the report.
fn f2_scheme(alpha: f64, split: usize, seed: u64) -> F2Scheme {
    F2::builder().alpha(alpha).split_factor(split).seed(seed).build().expect("valid F2 parameters")
}

/// Table 1: dataset description.
fn table1() {
    header("Table 1 — Dataset description (generated workloads)");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>8}",
        "dataset", "attributes", "tuples", "size", "MASs"
    );
    for dataset in [Dataset::Orders, Dataset::Customer, Dataset::Synthetic] {
        let rows = match dataset {
            Dataset::Orders => 15_000,
            Dataset::Customer => 6_000,
            Dataset::Synthetic => 8_000,
        } * scale();
        let t = dataset.generate(rows, 42);
        let stats = TableStats::compute(&t);
        let mas = find_mas(&t);
        println!(
            "{:<12} {:>12} {:>12} {:>10} {:>8}",
            dataset.name(),
            stats.attributes,
            stats.tuples,
            stats.human_size(),
            mas.len()
        );
    }
    println!("\n(The paper uses Orders 15M/1.64GB, Customer 0.96M/282MB, Synthetic 4M/224MB;");
    println!(" the generators reproduce schema shape and domain structure at reduced scale.)");
}

fn print_step_time_row(label: String, m: &f2_bench::RunMeasurement) {
    let t = &m.report.timings;
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        label,
        secs(t.max),
        secs(t.sse),
        secs(t.syn),
        secs(t.fp),
        secs(t.total()),
    );
}

/// Figure 6: per-step encryption time for various α.
fn fig6() {
    header("Figure 6 — Per-step encryption time vs α (MAX / SSE / SYN / FP)");
    for (dataset, rows, alphas) in [
        (Dataset::Synthetic, 6_000 * scale(), vec![0.2, 0.1, 1.0 / 15.0, 0.05, 0.04, 1.0 / 30.0]),
        (Dataset::Orders, 10_000 * scale(), vec![0.2, 0.1, 1.0 / 15.0, 0.05, 0.04]),
    ] {
        println!("\n[{} — {} rows]", dataset.name(), rows);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "alpha", "MAX", "SSE", "SYN", "FP", "total"
        );
        let table = dataset.generate(rows, 42);
        for &alpha in &alphas {
            let m = measure_scheme_on(&f2_scheme(alpha, 2, 7), &table, dataset.name());
            print_step_time_row(format!("1/{:.0}", 1.0 / alpha), &m);
        }
    }
}

/// Figure 7: per-step encryption time for various data sizes.
fn fig7() {
    header("Figure 7 — Per-step encryption time vs data size");
    for (dataset, alpha, sizes) in [
        (Dataset::Synthetic, 0.25, vec![2_000, 4_000, 8_000, 16_000]),
        (Dataset::Orders, 0.2, vec![4_000, 8_000, 12_000, 16_000, 20_000]),
    ] {
        println!("\n[{} — α = {alpha}]", dataset.name());
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "rows", "MAX", "SSE", "SYN", "FP", "total"
        );
        let scheme = f2_scheme(alpha, 2, 7);
        for &rows in &sizes {
            let table = dataset.generate(rows * scale(), 7);
            let m = measure_scheme_on(&scheme, &table, dataset.name());
            print_step_time_row(format!("{}", m.rows), &m);
        }
    }
}

/// Figure 8: every registered backend on the same tables.
fn fig8() {
    header("Figure 8 — Encryption time across the backend registry");
    for (dataset, alpha, sizes) in [
        (Dataset::Synthetic, 0.25, vec![2_000, 4_000, 8_000]),
        (Dataset::Orders, 0.2, vec![4_000, 8_000, 16_000]),
    ] {
        println!("\n[{} — α = {alpha}]", dataset.name());
        let registry = backend_registry(alpha, 2, 7);
        print!("{:<10}", "rows");
        for backend in &registry {
            let sampled = if backend.sample_rows.is_some() { "*" } else { "" };
            print!(" {:>20}", format!("{}{}", backend.scheme.name(), sampled));
        }
        println!();
        for &rows in &sizes {
            let rows = rows * scale();
            let table = dataset.generate(rows, 42);
            print!("{rows:<10}");
            for backend in &registry {
                let m = backend.measure(&table, dataset.name());
                print!(" {:>20}", secs(m.wall));
            }
            println!();
        }
    }
    println!("\n(*) timed on a small row sample and extrapolated linearly — even on the");
    println!("    Montgomery engine, 512-bit Paillier stays ~20-50x slower than the");
    println!("    symmetric backends, the paper's qualitative point.");
}

/// Figure 9 (a)/(b): artificial-record overhead vs α.
fn fig9_alpha(dataset: Dataset, rows: usize, tag: &str) {
    header(&format!(
        "Figure 9({tag}) — Artificial-record overhead vs α ({} — {} rows)",
        dataset.name(),
        rows
    ));
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "alpha", "GROUP", "SCALE", "SYN", "FP", "total"
    );
    let table = dataset.generate(rows, 42);
    for denom in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
        let alpha = 1.0 / denom as f64;
        let m = measure_scheme_on(&f2_scheme(alpha, 2, 7), &table, dataset.name());
        let (g, s, c, f) = m.report.overhead.per_step_ratios();
        println!(
            "{:<10} {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}%",
            format!("1/{denom}"),
            g * 100.0,
            s * 100.0,
            c * 100.0,
            f * 100.0,
            m.report.overhead.overhead_ratio() * 100.0
        );
    }
}

/// Figure 9 (c)/(d): artificial-record overhead vs data size.
fn fig9_size(dataset: Dataset, sizes: &[usize], tag: &str) {
    header(&format!(
        "Figure 9({tag}) — Artificial-record overhead vs data size ({} — α = 0.2)",
        dataset.name()
    ));
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "rows", "size", "GROUP", "SCALE", "SYN", "FP", "total"
    );
    let scheme = f2_scheme(0.2, 2, 7);
    for &rows in sizes {
        let table = dataset.generate(rows * scale(), 7);
        let m = measure_scheme_on(&scheme, &table, dataset.name());
        let (g, s, c, f) = m.report.overhead.per_step_ratios();
        println!(
            "{:<10} {:>10} {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}%",
            m.rows,
            human_bytes(m.plain_bytes),
            g * 100.0,
            s * 100.0,
            c * 100.0,
            f * 100.0,
            m.report.overhead.overhead_ratio() * 100.0
        );
    }
}

/// Figure 10: FD-discovery time overhead on the encrypted vs the original table.
fn fig10() {
    header("Figure 10 — FD discovery time overhead on D̂ vs D (TANE, LHS ≤ 3)");
    for (dataset, rows) in
        [(Dataset::Customer, 2_000 * scale()), (Dataset::Orders, 4_000 * scale())]
    {
        println!("\n[{} — {} rows]", dataset.name(), rows);
        println!("{:<10} {:>12} {:>12} {:>10}", "alpha", "T(D)", "T(D̂)", "overhead");
        let table = dataset.generate(rows, 42);
        let (plain_time, _) = time_fd_discovery(&table, Some(3));
        for denom in [2usize, 4, 6, 8, 10] {
            let alpha = 1.0 / denom as f64;
            let outcome = f2_scheme(alpha, 2, 7).encrypt(&table).expect("encrypt");
            let (cipher_time, _) = time_fd_discovery(&outcome.encrypted, Some(3));
            let overhead = cipher_time.as_secs_f64() / plain_time.as_secs_f64() - 1.0;
            println!(
                "{:<10} {:>12} {:>12} {:>9.2}",
                format!("1/{denom}"),
                secs(plain_time),
                secs(cipher_time),
                overhead
            );
        }
    }
}

/// §5.4: local FD discovery vs outsourcing preparation (encryption).
fn local_vs_outsource() {
    header("§5.4 — Local FD discovery (TANE) vs outsourcing preparation (F² encryption)");
    println!(
        "{:<12} {:>8} {:>14} {:>14} {:>10}",
        "dataset", "rows", "TANE on D", "F2 encrypt", "ratio"
    );
    for (dataset, rows, cap) in
        [(Dataset::Synthetic, 6_000 * scale(), None), (Dataset::Orders, 6_000 * scale(), Some(4))]
    {
        let table = dataset.generate(rows, 42);
        let (tane_time, _) = time_fd_discovery(&table, cap);
        let m = measure_scheme_on(&f2_scheme(0.2, 2, 7), &table, dataset.name());
        let enc = m.report.timings.total();
        println!(
            "{:<12} {:>8} {:>14} {:>14} {:>9.1}x",
            dataset.name(),
            rows,
            secs(tane_time),
            secs(enc),
            tane_time.as_secs_f64() / enc.as_secs_f64().max(1e-9)
        );
    }
    println!("\n(The paper reports 1,736s for TANE vs 2s for F² on the 25MB synthetic dataset.)");
}

/// §4 empirical check: attack success probability vs α, over the trait-level
/// experiment harness.
fn security() {
    use f2_attack::{AttackExperiment, FrequencyAttacker, KerckhoffsAttacker};
    header("§4 — Empirical frequency-analysis attack success vs α (Orders)");
    let rows = 2_000 * scale();
    let plain = Dataset::Orders.generate(rows, 42);
    println!("{:<10} {:>26} {:>26}", "alpha", "frequency-matching", "kerckhoffs-4-step");
    for denom in [2usize, 4, 5, 8, 10] {
        let alpha = 1.0 / denom as f64;
        let scheme = f2_scheme(alpha, 2, 7);
        let outcome = scheme.encrypt(&plain).expect("encrypt");
        let mas = outcome.f2_state().expect("F2 owner state").mas_sets[0];
        let exp =
            AttackExperiment::for_scheme(&plain, &scheme, &outcome, mas).expect("ground truth");
        let freq = exp.run(&FrequencyAttacker, 2_000, 9).success_rate();
        let ker = exp.run(&KerckhoffsAttacker, 2_000, 9).success_rate();
        println!(
            "{:<10} {:>20.1}% (≤{:>4.1}%) {:>18.1}% (≤{:>4.1}%)",
            format!("1/{denom}"),
            freq * 100.0,
            alpha * 100.0,
            ker * 100.0,
            alpha * 100.0
        );
    }
    println!("\n(Both adversaries stay at or below the configured α, as Definition 2.1 requires.)");
}

/// The `engine` experiment: streaming-pipeline throughput across the worker grid on
/// the synthetic 10k-row workload, plus the F², streaming, telemetry and Paillier
/// breakdowns, printed as tables and written to `BENCH_report.json`.
fn engine() {
    header("Engine — streaming pipeline throughput vs worker count (Synthetic)");
    let smoke = smoke();
    let rows = if smoke { 400 } else { 10_000 * scale() };
    let chunk_rows = if smoke { 32 } else { 512 };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let table = Dataset::Synthetic.generate(rows, 42);
    println!(
        "[{} rows, {} per chunk, {} host CPU(s){}]\n",
        rows,
        chunk_rows,
        host_cpus,
        if smoke { ", SMOKE MODE" } else { "" }
    );
    if host_cpus < 2 {
        println!("NOTE: this host exposes a single CPU; multi-worker speedups are bounded");
        println!("      at ~1.0x by the hardware, not by the pipeline.\n");
    }
    println!(
        "{:<20} {:>8} {:>8} {:>12} {:>14} {:>10} {:>14}",
        "backend", "workers", "chunks", "wall", "MB/s", "speedup", "vs single-shot"
    );
    let mut measurements: Vec<(EngineMeasurement, f64, f64)> = Vec::new();
    for scheme in engine_backends(0.2, 2, 7) {
        // Baseline: the pre-engine path — one unchunked, single-threaded encrypt().
        // For F² this also isolates the algorithmic win of chunking (the SSE step is
        // quadratic in the per-chunk equivalence-class count).
        let single_shot =
            measure_scheme_on(scheme.as_ref(), &table, "Synthetic").wall.as_secs_f64();
        let mut one_worker = None;
        for workers in ENGINE_WORKER_GRID {
            let m = measure_engine(scheme.as_ref(), &table, workers, chunk_rows, 7);
            let base = *one_worker.get_or_insert(m.wall.as_secs_f64());
            let speedup = base / m.wall.as_secs_f64().max(1e-9);
            let vs_single = single_shot / m.wall.as_secs_f64().max(1e-9);
            println!(
                "{:<20} {:>8} {:>8} {:>12} {:>14.2} {:>9.2}x {:>13.2}x",
                m.scheme,
                m.workers,
                m.chunks,
                secs(m.wall),
                m.throughput_mb_s(),
                speedup,
                vs_single
            );
            measurements.push((m, speedup, vs_single));
        }
    }

    // Per-phase F² breakdown (MAX / SSE / SYN / FP) on the pipeline's tracked
    // workload: 10k synthetic rows through the engine at 512-row chunks, one worker.
    // Like the Paillier section it is deliberately NOT shrunk in smoke mode — the
    // run takes well under a second on the interned planning core, and an identical
    // workload is what lets `bench_guard` hold the f2 throughput floor across
    // smoke-mode CI runs and committed full-mode reports.
    let f2_phases = f2_phase_breakdown();
    println!(
        "\nF2 phases [{} rows, {} per chunk, 1 worker, best of {}]:",
        f2_phases.rows, f2_phases.chunk_rows, F2_PHASE_ITERS
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "MAX", "SSE", "SYN", "FP", "wall", "MB/s"
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>10.2}",
        secs(f2_phases.max),
        secs(f2_phases.sse),
        secs(f2_phases.syn),
        secs(f2_phases.fp),
        secs(f2_phases.wall),
        f2_phases.throughput_mb_s
    );

    // Streaming vs in-memory on the same tracked workload: the constant-memory
    // source→frame-stream path (`run_streaming`, with CRC32 checksums and RLE
    // compression on every frame) against the all-in-RAM engine wall time measured
    // above. Also fixed in smoke mode, and guarded by `bench_guard`.
    let streaming = streaming_breakdown(&f2_phases);
    println!(
        "\nStreaming [{} rows, {} per chunk, best of {}]:",
        streaming.rows, streaming.chunk_rows, F2_PHASE_ITERS
    );
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>16} {:>14}",
        "path", "wall", "MB/s", "stream bytes", "peak chunk rows", "peak chunk B"
    );
    println!(
        "{:<14} {:>12} {:>12.2} {:>14} {:>16} {:>14}",
        "in-memory",
        secs(f2_phases.wall),
        f2_phases.throughput_mb_s,
        "-",
        streaming.rows,
        streaming.plain_bytes
    );
    println!(
        "{:<14} {:>12} {:>12.2} {:>14} {:>16} {:>14}",
        "streaming",
        secs(streaming.wall),
        streaming.throughput_mb_s,
        streaming.stream_bytes,
        streaming.peak_chunk_rows,
        streaming.peak_chunk_plain_bytes
    );

    // Telemetry overhead on the same tracked workload: the streaming pipeline (the
    // most densely instrumented path — spans, chunk histograms, frame and crypto
    // counters all fire) with the global registry disabled vs enabled. Fixed in
    // smoke mode like the sections above; `bench_guard` holds the ≤3% ceiling.
    let obs = observability_overhead();
    println!(
        "\nTelemetry [{} rows, {} per chunk, median of {} pairs]:",
        obs.rows, obs.chunk_rows, obs.pairs
    );
    println!("{:<14} {:>12} {:>12} {:>10}", "telemetry", "wall", "MB/s", "overhead");
    println!("{:<14} {:>12} {:>12.2} {:>10}", "disabled", secs(obs.noop_wall), obs.noop_mb_s, "-");
    println!(
        "{:<14} {:>12} {:>12.2} {:>9.2}%",
        "enabled",
        secs(obs.instrumented_wall),
        obs.instrumented_mb_s,
        obs.overhead_frac * 100.0
    );
    println!(
        "per-pair instrumented/no-op ratio: median {:.4}, quartiles {:.4}–{:.4}",
        obs.ratio_median, obs.ratio_q1, obs.ratio_q3
    );

    // Per-phase Paillier breakdown (keygen / encrypt / decrypt) at the registry's
    // realistic 512-bit modulus. Deliberately NOT shrunk in smoke mode: the sampled
    // workload is tiny anyway, and keeping it identical to the committed full-mode
    // report is what lets the CI bench-guard diff throughput meaningfully.
    let phases = paillier_phases(&table);
    println!(
        "\nPaillier phases [{}-bit modulus, {} rows]: keygen {}, calibration mod_pow {}",
        phases.modulus_bits,
        phases.rows,
        secs(phases.keygen),
        secs(phases.calibration)
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "backend", "encrypt", "decrypt", "enc MB/s", "dec MB/s", "vs PR-2"
    );
    for f in &phases.framings {
        println!(
            "{:<20} {:>12} {:>12} {:>12.4} {:>12.4} {:>9.1}x",
            f.backend,
            secs(f.encrypt),
            secs(f.decrypt),
            f.encrypt_mb_s,
            f.decrypt_mb_s,
            f.speedup_vs_pr2
        );
    }

    let path = "BENCH_report.json";
    let json = engine_json(
        smoke,
        rows,
        chunk_rows,
        host_cpus,
        &measurements,
        &f2_phases,
        &streaming,
        &obs,
        &phases,
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nWrote {path} ({} engine entries).", measurements.len());
}

/// Encrypt throughputs (MB/s) of the committed PR-2 `BENCH_report.json` — the frozen
/// pre-Montgomery baseline the ≥10× acceptance target and the CI bench-guard measure
/// against. Do not update these when the engine gets faster; they are historical.
const PR2_ENCRYPT_MB_S: [(&str, f64); 1] = [("paillier", 0.002561)];

/// Rows the Paillier phase breakdown runs on (the PR-2 sampled workload, so the
/// speedup column is apples-to-apples).
const PAILLIER_PHASE_ROWS: usize = 8;

/// Rows and chunking of the tracked F² engine workload (identical in smoke and full
/// mode, so the bench guard can compare across modes).
const F2_PHASE_ROWS: usize = 10_000;
const F2_PHASE_CHUNK_ROWS: usize = 512;

/// Runs the F² phase workload is repeated; the fastest run is recorded (same
/// rationale as [`PAILLIER_PHASE_ITERS`]: a 1-CPU CI host jitters).
const F2_PHASE_ITERS: usize = 3;

/// The `f2_phases` section of `BENCH_report.json`: the MAX / SSE / SYN / FP wall-time
/// breakdown of one chunked 10k-row engine run, plus its end-to-end throughput. This
/// is the number the `bench_guard` f2 floor tracks (hardware-normalized by the same
/// `calibration_modpow_s` as the Paillier section).
struct F2Phases {
    rows: usize,
    chunk_rows: usize,
    plain_bytes: usize,
    encrypted_rows: usize,
    max: Duration,
    sse: Duration,
    syn: Duration,
    fp: Duration,
    wall: Duration,
    throughput_mb_s: f64,
}

/// Measure the F² phase breakdown: best-of-[`F2_PHASE_ITERS`] single-worker engine
/// runs over the fixed workload; the per-step durations come from the winning run's
/// merged chunk reports (summed CPU time across chunks). Decryption round-trips on
/// every run, so a fast-but-wrong pipeline cannot pass.
fn f2_phase_breakdown() -> F2Phases {
    use f2_engine::{Engine, EngineConfig};
    let table = Dataset::Synthetic.generate(F2_PHASE_ROWS, 42);
    let scheme = f2_scheme(0.2, 2, 7);
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: F2_PHASE_CHUNK_ROWS, seed: 7 })
        .expect("valid engine config");
    let mut best: Option<(Duration, f2_core::EncryptionReport, usize)> = None;
    for _ in 0..F2_PHASE_ITERS {
        let start = Instant::now();
        let run = engine.encrypt(&scheme, &table).expect("f2 engine encryption");
        let wall = start.elapsed();
        let recovered = scheme.decrypt(&run.outcome).expect("f2 decrypt");
        assert!(recovered.multiset_eq(&table), "f2 pipeline round-trip failed");
        let encrypted_rows = run.outcome.encrypted.row_count();
        if best.as_ref().is_none_or(|(w, _, _)| wall < *w) {
            best = Some((wall, run.outcome.report, encrypted_rows));
        }
    }
    let (wall, report, encrypted_rows) = best.expect("at least one run");
    let plain_bytes = table.size_bytes();
    F2Phases {
        rows: F2_PHASE_ROWS,
        chunk_rows: F2_PHASE_CHUNK_ROWS,
        plain_bytes,
        encrypted_rows,
        max: report.timings.max,
        sse: report.timings.sse,
        syn: report.timings.syn,
        fp: report.timings.fp,
        wall,
        throughput_mb_s: plain_bytes as f64 / 1e6 / wall.as_secs_f64().max(1e-9),
    }
}

/// The `streaming` section of `BENCH_report.json`: the tracked F² workload pushed
/// through `Engine::run_streaming` (source → checksummed v2 frame stream, one chunk
/// in memory at a time) next to the in-memory engine numbers of `f2_phases`, plus
/// the peak-chunk statistics that certify the bounded-memory property.
struct StreamingPhases {
    rows: usize,
    chunk_rows: usize,
    chunks: usize,
    plain_bytes: usize,
    /// Bytes of the produced v2 stream (checksummed, RLE-compressed frames).
    stream_bytes: u64,
    wall: Duration,
    throughput_mb_s: f64,
    /// The in-memory path's throughput on the identical workload (`f2_phases`).
    in_memory_mb_s: f64,
    /// Largest plaintext chunk held at any point (rows / serialized bytes).
    peak_chunk_rows: usize,
    peak_chunk_plain_bytes: usize,
    /// Largest encrypted chunk emitted (rows).
    peak_chunk_output_rows: usize,
}

/// Measure the streaming path on the fixed workload: best-of-[`F2_PHASE_ITERS`]
/// `run_streaming` runs into an in-memory sink. Every run's stream is reloaded and
/// decrypted against the plaintext, so a fast-but-corrupt stream cannot pass.
fn streaming_breakdown(f2_phases: &F2Phases) -> StreamingPhases {
    use f2_engine::stream::load_streamed_outcome;
    use f2_engine::{Engine, EngineConfig};
    use f2_io::TableSource;
    let table = Dataset::Synthetic.generate(F2_PHASE_ROWS, 42);
    let scheme = f2_scheme(0.2, 2, 7);
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: F2_PHASE_CHUNK_ROWS, seed: 7 })
        .expect("valid engine config");
    let mut best: Option<(Duration, f2_engine::StreamOutcome)> = None;
    for _ in 0..F2_PHASE_ITERS {
        let mut stream = Vec::new();
        let start = Instant::now();
        let summary = engine
            .run_streaming(&scheme, &mut TableSource::new(&table), &mut stream)
            .expect("streaming encryption");
        let wall = start.elapsed();
        let (loaded, _) = load_streamed_outcome(&scheme, &stream[..]).expect("stream loads");
        let recovered = scheme.decrypt(&loaded).expect("stream decrypts");
        assert!(recovered.multiset_eq(&table), "streaming round-trip failed");
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, summary));
        }
    }
    let (wall, summary) = best.expect("at least one run");
    let plain_bytes = table.size_bytes();
    let peak_chunk_rows = summary.chunks.iter().map(|c| c.rows.len()).max().unwrap_or(0);
    let peak_chunk_plain_bytes = summary
        .chunks
        .iter()
        .map(|c| table.view(c.rows.clone()).expect("chunk range").size_bytes())
        .max()
        .unwrap_or(0);
    let peak_chunk_output_rows =
        summary.chunks.iter().map(|c| c.output_rows.len()).max().unwrap_or(0);
    StreamingPhases {
        rows: F2_PHASE_ROWS,
        chunk_rows: F2_PHASE_CHUNK_ROWS,
        chunks: summary.chunks.len(),
        plain_bytes,
        stream_bytes: summary.bytes_written,
        wall,
        throughput_mb_s: plain_bytes as f64 / 1e6 / wall.as_secs_f64().max(1e-9),
        in_memory_mb_s: f2_phases.throughput_mb_s,
        peak_chunk_rows,
        peak_chunk_plain_bytes,
        peak_chunk_output_rows,
    }
}

/// Pairs of runs (one per telemetry mode) in [`observability_overhead`]. Each
/// pair's two runs are back to back, and which mode runs first alternates from
/// pair to pair, so load drift on a shared CI host and whatever the first run of
/// a pair pays hit both modes alike; the overhead is the median of the pairs'
/// ratios. This section estimates a ~1% *difference* between two ~100 ms walls,
/// and on a shared 2-vCPU host single pairs' ratios spread about ±5% between
/// their quartiles: there the median of 9 pairs read up to 23%, the median of 25
/// at most 3.4% (20 smoke runs).
const OBS_OVERHEAD_PAIRS: usize = 25;

/// The `observability` section of `BENCH_report.json`: the tracked F² workload
/// pushed through the streaming pipeline — the most densely instrumented path, where
/// spans, chunk histograms, and the frame/crypto counters all fire — once with the
/// global telemetry registry disabled and once enabled. `bench_guard` holds
/// `overhead_frac` under its absolute ≤3% ceiling; because both sides are measured
/// in the same run on the same host, the check needs no hardware normalization.
struct ObservabilityOverhead {
    rows: usize,
    chunk_rows: usize,
    pairs: usize,
    plain_bytes: usize,
    /// Median wall of each mode's runs.
    noop_wall: Duration,
    instrumented_wall: Duration,
    noop_mb_s: f64,
    instrumented_mb_s: f64,
    /// Median and quartiles of the per-pair `instrumented_wall / noop_wall` ratios.
    ratio_median: f64,
    ratio_q1: f64,
    ratio_q3: f64,
    /// `max(0, ratio_median − 1)` — clamped so a faster instrumented median (pure
    /// jitter) reads as zero overhead, not negative.
    overhead_frac: f64,
}

/// Measure telemetry overhead over [`OBS_OVERHEAD_PAIRS`] pairs of `run_streaming`
/// runs, one per mode, alternating which mode runs first. The instrumented arm
/// runs with the registry *and* the trace journal enabled, under an active
/// request trace guard — the exact per-request shape the server puts every
/// connection through (span stage attribution, counts, journal record) — so the
/// ≤3% ceiling covers request tracing, not just bare metrics. The two modes'
/// streams are checked byte-identical (artifact neutrality) and the instrumented
/// stream is reloaded and decrypted, so a cheap-but-wrong telemetry path cannot
/// pass.
fn observability_overhead() -> ObservabilityOverhead {
    use f2_engine::stream::load_streamed_outcome;
    use f2_engine::{Engine, EngineConfig};
    use f2_io::TableSource;
    let table = Dataset::Synthetic.generate(F2_PHASE_ROWS, 42);
    let scheme = f2_scheme(0.2, 2, 7);
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: F2_PHASE_CHUNK_ROWS, seed: 7 })
        .expect("valid engine config");
    let registry = f2_obs::global();
    let journal = f2_obs::journal();
    let run = |enabled: bool| {
        registry.set_enabled(enabled);
        journal.set_enabled(enabled);
        let mut stream = Vec::new();
        let start = Instant::now();
        let trace =
            enabled.then(|| journal.begin(f2_obs::TraceCtx::new(0xBE9C, 1), "bench.streaming"));
        engine
            .run_streaming(&scheme, &mut TableSource::new(&table), &mut stream)
            .expect("streaming encryption");
        if let Some(trace) = trace {
            let _ = trace.complete("ok");
        }
        (start.elapsed(), stream)
    };
    let mut noop_walls = Vec::with_capacity(OBS_OVERHEAD_PAIRS);
    let mut instrumented_walls = Vec::with_capacity(OBS_OVERHEAD_PAIRS);
    let mut ratios = Vec::with_capacity(OBS_OVERHEAD_PAIRS);
    let mut streams: Option<(Vec<u8>, Vec<u8>)> = None;
    for pair in 0..OBS_OVERHEAD_PAIRS {
        let ((off_wall, off_stream), (on_wall, on_stream)) = if pair % 2 == 0 {
            let off = run(false);
            (off, run(true))
        } else {
            let on = run(true);
            (run(false), on)
        };
        ratios.push(on_wall.as_secs_f64() / off_wall.as_secs_f64().max(1e-9));
        noop_walls.push(off_wall);
        instrumented_walls.push(on_wall);
        streams.get_or_insert((off_stream, on_stream));
    }
    registry.set_enabled(true);
    journal.set_enabled(true);
    let (off_stream, on_stream) = streams.expect("at least one run");
    assert_eq!(off_stream, on_stream, "telemetry changed the stream bytes");
    let (loaded, _) = load_streamed_outcome(&scheme, &on_stream[..]).expect("stream loads");
    let recovered = scheme.decrypt(&loaded).expect("stream decrypts");
    assert!(recovered.multiset_eq(&table), "observability round-trip failed");
    let plain_bytes = table.size_bytes();
    let mb = plain_bytes as f64 / 1e6;
    // Nearest-rank quantiles; with an odd pair count the median is one run.
    noop_walls.sort_unstable();
    instrumented_walls.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    let rank = |q: f64| ((OBS_OVERHEAD_PAIRS - 1) as f64 * q).round() as usize;
    let quantile = |q: f64| ratios[rank(q)];
    let (noop_wall, instrumented_wall) = (noop_walls[rank(0.5)], instrumented_walls[rank(0.5)]);
    ObservabilityOverhead {
        rows: F2_PHASE_ROWS,
        chunk_rows: F2_PHASE_CHUNK_ROWS,
        pairs: OBS_OVERHEAD_PAIRS,
        plain_bytes,
        noop_wall,
        instrumented_wall,
        noop_mb_s: mb / noop_wall.as_secs_f64().max(1e-9),
        instrumented_mb_s: mb / instrumented_wall.as_secs_f64().max(1e-9),
        ratio_median: quantile(0.5),
        ratio_q1: quantile(0.25),
        ratio_q3: quantile(0.75),
        overhead_frac: (quantile(0.5) - 1.0).max(0.0),
    }
}

/// The per-cell framing's measured phases.
struct FramingPhases {
    backend: String,
    encrypt: Duration,
    decrypt: Duration,
    encrypt_mb_s: f64,
    decrypt_mb_s: f64,
    pr2_encrypt_mb_s: f64,
    speedup_vs_pr2: f64,
}

/// The `paillier` section of `BENCH_report.json`: keygen plus the encrypt/decrypt
/// wall clocks on the fixed sampled workload, and a same-run hardware calibration.
/// The wall clocks sit in a `framings` list of one entry, `paillier`, the shape
/// `bench_guard` scans.
struct PaillierPhases {
    modulus_bits: usize,
    rows: usize,
    plain_bytes: usize,
    keygen: Duration,
    /// Wall clock of a fixed-operand modular exponentiation measured in this run.
    /// `bench_guard` compares *normalized* throughput (`encrypt_mb_s ×
    /// calibration_s`) between reports, cancelling the host's absolute speed so a
    /// slower CI runner does not fail the gate (nor a faster one mask a
    /// regression).
    calibration: Duration,
    framings: Vec<FramingPhases>,
}

/// The fixed calibration workload: one 512-bit-exponent modular exponentiation
/// over a 1024-bit odd modulus (the shape of the Paillier `n²` hot-path
/// operation), with deterministic operands. Each call of the returned closure
/// times one run.
fn calibration_modpow() -> impl Fn() -> Duration {
    use f2_crypto::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xCA11_B8A7);
    let mut modulus = BigUint::random_bits(1024, &mut rng);
    if modulus.is_even() {
        modulus = modulus.add(&BigUint::one());
    }
    let base = BigUint::random_bits(1023, &mut rng);
    let exp = BigUint::random_bits(512, &mut rng);
    move || {
        let start = Instant::now();
        let out = base.mod_pow(&exp, &modulus);
        let elapsed = start.elapsed();
        assert!(!out.is_zero(), "calibration workload degenerated");
        elapsed
    }
}

/// Times one phase is re-measured; the minimum wall clock is recorded. The guard
/// diffs these numbers across machines and runs with a 20% tolerance, and a single
/// millisecond-scale measurement on a busy 1-CPU host can easily jitter past that.
const PAILLIER_PHASE_ITERS: usize = 5;

/// Measure the Paillier per-phase breakdown on the first [`PAILLIER_PHASE_ROWS`]
/// rows of `table` (best of [`PAILLIER_PHASE_ITERS`] runs per phase). Decryption
/// output is verified against the plaintext, so a silently-wrong fast path cannot
/// masquerade as a fast one.
///
/// The calibration is timed once right before each encrypt run, in the same
/// loop, and its best run is recorded too: a change of host speed during the
/// loop then reaches both factors of the guard's `encrypt_mb_s ×
/// calibration_modpow_s` alike instead of only one of them.
fn paillier_phases(table: &Table) -> PaillierPhases {
    let sample = table.truncated(PAILLIER_PHASE_ROWS);
    let keygen_start = Instant::now();
    let scheme = PaillierScheme::new(REGISTRY_PAILLIER_BITS, 7).expect("valid modulus");
    let keygen = keygen_start.elapsed();
    let time_calibration = calibration_modpow();
    let mut calibration = Duration::MAX;
    let mut encrypt = Duration::MAX;
    let mut decrypt = Duration::MAX;
    for _ in 0..PAILLIER_PHASE_ITERS {
        calibration = calibration.min(time_calibration());
        let enc_start = Instant::now();
        let outcome = scheme.encrypt(&sample).expect("paillier encrypt");
        encrypt = encrypt.min(enc_start.elapsed());
        let dec_start = Instant::now();
        let recovered = scheme.decrypt(&outcome).expect("paillier decrypt");
        decrypt = decrypt.min(dec_start.elapsed());
        assert!(recovered.multiset_eq(&sample), "{}: bad roundtrip", scheme.name());
    }
    let mb = sample.size_bytes() as f64 / 1e6;
    let encrypt_mb_s = mb / encrypt.as_secs_f64().max(1e-9);
    let pr2 = PR2_ENCRYPT_MB_S
        .iter()
        .find(|(name, _)| *name == scheme.name())
        .map(|&(_, v)| v)
        .expect("PR-2 baseline recorded for every framing");
    PaillierPhases {
        modulus_bits: REGISTRY_PAILLIER_BITS,
        rows: sample.row_count(),
        plain_bytes: sample.size_bytes(),
        keygen,
        calibration,
        framings: vec![FramingPhases {
            backend: scheme.name().to_owned(),
            encrypt,
            decrypt,
            encrypt_mb_s,
            decrypt_mb_s: mb / decrypt.as_secs_f64().max(1e-9),
            pr2_encrypt_mb_s: pr2,
            speedup_vs_pr2: encrypt_mb_s / pr2,
        }],
    }
}

/// Render the `engine` experiment as the `BENCH_report.json` document (hand-rolled:
/// the offline vendor set has no JSON crate, and the schema is small and flat).
#[allow(clippy::too_many_arguments)]
fn engine_json(
    smoke: bool,
    rows: usize,
    chunk_rows: usize,
    host_cpus: usize,
    measurements: &[(EngineMeasurement, f64, f64)],
    f2_phases: &F2Phases,
    streaming: &StreamingPhases,
    obs: &ObservabilityOverhead,
    phases: &PaillierPhases,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": 1,");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(out, "  \"workload\": {{ \"dataset\": \"Synthetic\", \"rows\": {rows}, \"chunk_rows\": {chunk_rows} }},");
    out.push_str("  \"engine\": [\n");
    for (i, (m, speedup, vs_single)) in measurements.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"backend\": \"{}\", \"workers\": {}, \"chunks\": {}, \"rows\": {}, \
             \"plain_bytes\": {}, \"encrypted_rows\": {}, \"wall_s\": {:.6}, \
             \"throughput_mb_s\": {:.4}, \"speedup_vs_1_worker\": {:.4}, \
             \"speedup_vs_single_shot\": {:.4} }}",
            m.scheme,
            m.workers,
            m.chunks,
            m.rows,
            m.plain_bytes,
            m.encrypted_rows,
            m.wall.as_secs_f64(),
            m.throughput_mb_s(),
            speedup,
            vs_single
        );
        out.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"f2_phases\": {\n");
    let _ = writeln!(out, "    \"rows\": {},", f2_phases.rows);
    let _ = writeln!(out, "    \"chunk_rows\": {},", f2_phases.chunk_rows);
    let _ = writeln!(out, "    \"workers\": 1,");
    let _ = writeln!(out, "    \"plain_bytes\": {},", f2_phases.plain_bytes);
    let _ = writeln!(out, "    \"encrypted_rows\": {},", f2_phases.encrypted_rows);
    let _ = writeln!(out, "    \"max_s\": {:.6},", f2_phases.max.as_secs_f64());
    let _ = writeln!(out, "    \"sse_s\": {:.6},", f2_phases.sse.as_secs_f64());
    let _ = writeln!(out, "    \"syn_s\": {:.6},", f2_phases.syn.as_secs_f64());
    let _ = writeln!(out, "    \"fp_s\": {:.6},", f2_phases.fp.as_secs_f64());
    let _ = writeln!(out, "    \"wall_s\": {:.6},", f2_phases.wall.as_secs_f64());
    let _ = writeln!(out, "    \"throughput_mb_s\": {:.4}", f2_phases.throughput_mb_s);
    out.push_str("  },\n  \"streaming\": {\n");
    let _ = writeln!(out, "    \"rows\": {},", streaming.rows);
    let _ = writeln!(out, "    \"chunk_rows\": {},", streaming.chunk_rows);
    let _ = writeln!(out, "    \"chunks\": {},", streaming.chunks);
    let _ = writeln!(out, "    \"plain_bytes\": {},", streaming.plain_bytes);
    let _ = writeln!(out, "    \"stream_bytes\": {},", streaming.stream_bytes);
    let _ = writeln!(out, "    \"wall_s\": {:.6},", streaming.wall.as_secs_f64());
    let _ = writeln!(out, "    \"throughput_mb_s\": {:.4},", streaming.throughput_mb_s);
    let _ = writeln!(out, "    \"in_memory_mb_s\": {:.4},", streaming.in_memory_mb_s);
    let _ = writeln!(out, "    \"peak_chunk_rows\": {},", streaming.peak_chunk_rows);
    let _ = writeln!(out, "    \"peak_chunk_plain_bytes\": {},", streaming.peak_chunk_plain_bytes);
    let _ = writeln!(out, "    \"peak_chunk_output_rows\": {}", streaming.peak_chunk_output_rows);
    out.push_str("  },\n  \"observability\": {\n");
    let _ = writeln!(out, "    \"rows\": {},", obs.rows);
    let _ = writeln!(out, "    \"chunk_rows\": {},", obs.chunk_rows);
    let _ = writeln!(out, "    \"pairs\": {},", obs.pairs);
    let _ = writeln!(out, "    \"plain_bytes\": {},", obs.plain_bytes);
    let _ = writeln!(out, "    \"noop_wall_s\": {:.6},", obs.noop_wall.as_secs_f64());
    let _ =
        writeln!(out, "    \"instrumented_wall_s\": {:.6},", obs.instrumented_wall.as_secs_f64());
    let _ = writeln!(out, "    \"noop_mb_s\": {:.4},", obs.noop_mb_s);
    let _ = writeln!(out, "    \"instrumented_mb_s\": {:.4},", obs.instrumented_mb_s);
    let _ = writeln!(out, "    \"ratio_median\": {:.4},", obs.ratio_median);
    let _ = writeln!(out, "    \"ratio_q1\": {:.4},", obs.ratio_q1);
    let _ = writeln!(out, "    \"ratio_q3\": {:.4},", obs.ratio_q3);
    let _ = writeln!(out, "    \"overhead_frac\": {:.4}", obs.overhead_frac);
    out.push_str("  },\n  \"paillier\": {\n");
    let _ = writeln!(out, "    \"modulus_bits\": {},", phases.modulus_bits);
    let _ = writeln!(out, "    \"rows\": {},", phases.rows);
    let _ = writeln!(out, "    \"plain_bytes\": {},", phases.plain_bytes);
    let _ = writeln!(out, "    \"keygen_s\": {:.6},", phases.keygen.as_secs_f64());
    let _ = writeln!(out, "    \"calibration_modpow_s\": {:.6},", phases.calibration.as_secs_f64());
    out.push_str("    \"framings\": [\n");
    for (i, f) in phases.framings.iter().enumerate() {
        let _ = write!(
            out,
            "      {{ \"backend\": \"{}\", \"encrypt_s\": {:.6}, \"encrypt_mb_s\": {:.6}, \
             \"decrypt_s\": {:.6}, \"decrypt_mb_s\": {:.6}, \"pr2_encrypt_mb_s\": {:.6}, \
             \"speedup_vs_pr2\": {:.2} }}",
            f.backend,
            f.encrypt.as_secs_f64(),
            f.encrypt_mb_s,
            f.decrypt.as_secs_f64(),
            f.decrypt_mb_s,
            f.pr2_encrypt_mb_s,
            f.speedup_vs_pr2
        );
        out.push_str(if i + 1 < phases.framings.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1",
            "fig6",
            "fig7",
            "fig8",
            "fig9a",
            "fig9b",
            "fig9c",
            "fig9d",
            "fig10",
            "local_vs_outsource",
            "security",
            "engine",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    } else {
        args
    };
    for exp in wanted {
        match exp.as_str() {
            "table1" => table1(),
            "fig6" => fig6(),
            "fig7" => fig7(),
            "fig8" => fig8(),
            "fig9a" => fig9_alpha(Dataset::Customer, 4_000 * scale(), "a"),
            "fig9b" => fig9_alpha(Dataset::Orders, 8_000 * scale(), "b"),
            "fig9c" => fig9_size(Dataset::Customer, &[1_000, 2_000, 4_000, 8_000, 12_000], "c"),
            "fig9d" => fig9_size(Dataset::Orders, &[4_000, 8_000, 12_000, 16_000, 20_000], "d"),
            "fig10" => fig10(),
            "local_vs_outsource" => local_vs_outsource(),
            "security" => security(),
            "engine" => engine(),
            other => eprintln!("unknown experiment `{other}` — see --help in the source header"),
        }
    }
}
