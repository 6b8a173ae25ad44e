//! # f2-bench — harness reproducing the F² evaluation (paper §5)
//!
//! The `report` binary regenerates every table and figure of the paper's evaluation
//! section on generated workloads (its usage line lists the experiments), and the
//! Criterion benches under `benches/` provide statistically sound timings for the same
//! measurements. Absolute numbers differ from the paper (different hardware, Java vs
//! Rust, generated vs dumped data); the *shapes* — which step dominates on which
//! dataset, how overhead reacts to α and to data size, how F² compares to the AES and
//! Paillier baselines — are the reproduction target. The report prints them rather
//! than recording them in a file: only its `engine` experiment writes one
//! (`BENCH_report.json`).
//!
//! All timing goes through one generic entry point, [`measure_scheme_on`], which
//! accepts **any** [`Scheme`] backend; [`backend_registry`] enumerates the paper's
//! four backends (F², deterministic AES, probabilistic PRF, Paillier) so the report
//! and the benches iterate a registry instead of hard-coding per-backend paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use f2_core::{DetScheme, EncryptionReport, PaillierScheme, ProbScheme, Scheme, F2};
use f2_crypto::MasterKey;
use f2_datagen::Dataset;
use f2_engine::{Engine, EngineConfig};
use f2_fd::tane::{Tane, TaneConfig};
use f2_relation::Table;
use std::time::{Duration, Instant};

/// Measurement of one encryption run of some [`Scheme`].
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// The scheme's [`Scheme::name`].
    pub scheme: String,
    /// The dataset name.
    pub dataset: &'static str,
    /// Rows of the plaintext table the measurement describes.
    pub rows: usize,
    /// Plaintext size in bytes.
    pub plain_bytes: usize,
    /// The scheme's own encryption report (per-step timings + overhead). For sampled
    /// runs this describes the sample, not the extrapolated whole.
    pub report: EncryptionReport,
    /// Rows of the encrypted table.
    pub encrypted_rows: usize,
    /// Wall-clock time of `Scheme::encrypt` (extrapolated for sampled runs).
    pub wall: Duration,
}

/// Run any scheme once on `rows` rows of `dataset`.
pub fn measure_scheme(
    scheme: &dyn Scheme,
    dataset: Dataset,
    rows: usize,
    seed: u64,
) -> RunMeasurement {
    let table = dataset.generate(rows, seed);
    measure_scheme_on(scheme, &table, dataset.name())
}

/// Run any scheme once on an already-generated table.
pub fn measure_scheme_on(
    scheme: &dyn Scheme,
    table: &Table,
    dataset: &'static str,
) -> RunMeasurement {
    let start = Instant::now();
    let outcome = scheme.encrypt(table).expect("encryption succeeds");
    let wall = start.elapsed();
    RunMeasurement {
        scheme: scheme.name().to_owned(),
        dataset,
        rows: table.row_count(),
        plain_bytes: table.size_bytes(),
        report: outcome.report,
        encrypted_rows: outcome.encrypted.row_count(),
        wall,
    }
}

/// Encrypt only the first `sample_rows` rows and extrapolate the wall time linearly to
/// the whole table.
///
/// Used for Paillier: even on the Montgomery/REDC engine with pooled blinding
/// factors, textbook Paillier at realistic modulus sizes stays an order of magnitude
/// slower than the symmetric backends (the paper makes the same observation:
/// "Paillier … cannot finish within one day when the data size reaches 0.653GB"),
/// so the report samples it rather than let one backend dominate the wall clock.
/// `rows`, `plain_bytes` and `encrypted_rows` describe the whole table; `report`
/// keeps the sample's unscaled measurements.
pub fn measure_scheme_sampled(
    scheme: &dyn Scheme,
    table: &Table,
    dataset: &'static str,
    sample_rows: usize,
) -> RunMeasurement {
    let total_rows = table.row_count();
    if total_rows == 0 || sample_rows >= total_rows {
        return measure_scheme_on(scheme, table, dataset);
    }
    let sample = table.truncated(sample_rows.max(1));
    let mut m = measure_scheme_on(scheme, &sample, dataset);
    let factor = total_rows as f64 / sample.row_count() as f64;
    m.rows = total_rows;
    m.plain_bytes = table.size_bytes();
    m.encrypted_rows = (m.encrypted_rows as f64 * factor).round() as usize;
    m.wall = m.wall.mul_f64(factor);
    m
}

/// One entry of the backend registry: a scheme plus its measurement policy.
pub struct RegisteredBackend {
    /// The backend.
    pub scheme: Box<dyn Scheme>,
    /// If set, measure on this many rows and extrapolate ([`measure_scheme_sampled`]);
    /// backends much slower than the rest of the registry (Paillier) set this.
    pub sample_rows: Option<usize>,
}

impl RegisteredBackend {
    /// Measure this backend on a table according to its policy.
    pub fn measure(&self, table: &Table, dataset: &'static str) -> RunMeasurement {
        match self.sample_rows {
            Some(sample) => measure_scheme_sampled(self.scheme.as_ref(), table, dataset, sample),
            None => measure_scheme_on(self.scheme.as_ref(), table, dataset),
        }
    }
}

/// Paillier modulus size used by the registry (the paper's realistic setting).
pub const REGISTRY_PAILLIER_BITS: usize = 512;

/// Rows Paillier is sampled on before extrapolating.
pub const REGISTRY_PAILLIER_SAMPLE_ROWS: usize = 8;

/// The paper's four backends (Figure 8), ready to be iterated by the report and the
/// benches: F² (with the given α and ϖ), deterministic AES, probabilistic PRF, and
/// 512-bit Paillier (sampled, see [`REGISTRY_PAILLIER_SAMPLE_ROWS`]).
pub fn backend_registry(alpha: f64, split: usize, seed: u64) -> Vec<RegisteredBackend> {
    backend_registry_with(alpha, split, seed, REGISTRY_PAILLIER_BITS, REGISTRY_PAILLIER_SAMPLE_ROWS)
}

/// [`backend_registry`] with an explicit Paillier modulus size and sampling policy
/// (tests and quick runs use small moduli; the report uses the realistic default).
pub fn backend_registry_with(
    alpha: f64,
    split: usize,
    seed: u64,
    paillier_bits: usize,
    paillier_sample_rows: usize,
) -> Vec<RegisteredBackend> {
    let master = MasterKey::from_seed(seed);
    vec![
        RegisteredBackend {
            scheme: Box::new(
                F2::builder()
                    .alpha(alpha)
                    .split_factor(split)
                    .seed(seed)
                    .master_key(master.clone())
                    .build()
                    .expect("valid F2 parameters"),
            ),
            sample_rows: None,
        },
        RegisteredBackend { scheme: Box::new(DetScheme::new(master.clone())), sample_rows: None },
        RegisteredBackend { scheme: Box::new(ProbScheme::new(master, seed)), sample_rows: None },
        RegisteredBackend {
            scheme: Box::new(PaillierScheme::new(paillier_bits, seed).expect("valid modulus")),
            sample_rows: Some(paillier_sample_rows),
        },
    ]
}

/// Worker counts the engine throughput experiments sweep.
pub const ENGINE_WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// The engine-capable backends measured by the streaming-throughput experiments.
/// Paillier is excluded here — even on the Montgomery engine it is ~15–30× slower
/// than the symmetric backends and would dominate the sweep's wall clock; it is
/// measured in [`backend_registry`] and broken into phases in the report's
/// `paillier` section. (It *is* engine-capable: each chunk worker's `encrypt` call
/// batches the chunk through one blinding pool.)
pub fn engine_backends(alpha: f64, split: usize, seed: u64) -> Vec<Box<dyn Scheme>> {
    let master = MasterKey::from_seed(seed);
    vec![
        Box::new(
            F2::builder()
                .alpha(alpha)
                .split_factor(split)
                .seed(seed)
                .master_key(master.clone())
                .build()
                .expect("valid F2 parameters"),
        ),
        Box::new(DetScheme::new(master.clone())),
        Box::new(ProbScheme::new(master, seed)),
    ]
}

/// Measurement of one [`Engine`] run over some [`Scheme`].
#[derive(Debug, Clone)]
pub struct EngineMeasurement {
    /// The backend's [`Scheme::name`].
    pub scheme: String,
    /// Worker threads used.
    pub workers: usize,
    /// Rows per chunk.
    pub chunk_rows: usize,
    /// Chunks the table was sharded into.
    pub chunks: usize,
    /// Rows of the plaintext table.
    pub rows: usize,
    /// Plaintext size in bytes.
    pub plain_bytes: usize,
    /// Rows of the encrypted table.
    pub encrypted_rows: usize,
    /// Wall-clock time of the whole pipeline run.
    pub wall: Duration,
}

impl EngineMeasurement {
    /// Plaintext megabytes encrypted per wall-clock second.
    pub fn throughput_mb_s(&self) -> f64 {
        self.plain_bytes as f64 / 1e6 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Run the streaming engine once over `table` and record pipeline-level throughput.
pub fn measure_engine(
    scheme: &dyn Scheme,
    table: &Table,
    workers: usize,
    chunk_rows: usize,
    seed: u64,
) -> EngineMeasurement {
    let engine =
        Engine::new(EngineConfig { workers, chunk_rows, seed }).expect("valid engine config");
    let start = Instant::now();
    let run = engine.encrypt(scheme, table).expect("engine encryption succeeds");
    let wall = start.elapsed();
    EngineMeasurement {
        scheme: scheme.name().to_owned(),
        workers,
        chunk_rows,
        chunks: run.chunks.len(),
        rows: table.row_count(),
        plain_bytes: table.size_bytes(),
        encrypted_rows: run.outcome.encrypted.row_count(),
        wall,
    }
}

/// Time TANE FD discovery on a table (optionally capping the LHS size so wide tables
/// stay tractable; the same cap is applied to plaintext and ciphertext so the overhead
/// ratio of Figure 10 is meaningful).
pub fn time_fd_discovery(table: &Table, max_lhs: Option<usize>) -> (Duration, usize) {
    let tane = Tane::with_config(TaneConfig { max_lhs_size: max_lhs });
    let start = Instant::now();
    let fds = tane.discover(table);
    (start.elapsed(), fds.len())
}

/// Format a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_scheme_produces_consistent_report_for_f2() {
        let scheme = F2::builder().alpha(0.5).split_factor(2).seed(3).build().unwrap();
        let m = measure_scheme(&scheme, Dataset::Synthetic, 150, 3);
        assert_eq!(m.scheme, "f2");
        assert_eq!(m.rows, 150);
        assert_eq!(m.encrypted_rows, m.report.overhead.total_rows());
        assert!(m.report.mas_count >= 1);
        assert!(m.plain_bytes > 0);
        assert!(m.wall >= m.report.timings.total());
    }

    #[test]
    fn registry_measures_every_backend() {
        let table = Dataset::Orders.generate(40, 1);
        // Small Paillier modulus: the realistic 512-bit default is a release-mode
        // affair, and this test runs under the debug profile.
        let registry = backend_registry_with(0.5, 2, 1, 64, 4);
        let names: Vec<String> = registry.iter().map(|b| b.scheme.name().to_owned()).collect();
        assert_eq!(names, ["f2", "deterministic-aes", "probabilistic-prf", "paillier"]);
        for backend in &registry {
            let m = backend.measure(&table, "Orders");
            assert_eq!(m.rows, 40, "{}", m.scheme);
            assert!(m.wall > Duration::ZERO, "{}", m.scheme);
            assert!(m.encrypted_rows >= 40, "{}", m.scheme);
        }
    }

    #[test]
    fn sampled_measurement_extrapolates() {
        let table = Dataset::Customer.generate(60, 2);
        let scheme = DetScheme::new(MasterKey::from_seed(2));
        let m = measure_scheme_sampled(&scheme, &table, "Customer", 15);
        assert_eq!(m.rows, 60);
        assert_eq!(m.encrypted_rows, 60);
        assert_eq!(m.report.overhead.original_rows, 15);
        // sample >= table size degrades to a full measurement
        let full = measure_scheme_sampled(&scheme, &table, "Customer", 100);
        assert_eq!(full.report.overhead.original_rows, 60);
    }

    #[test]
    fn engine_measurement_covers_every_engine_backend() {
        let table = Dataset::Synthetic.generate(60, 5);
        for scheme in engine_backends(0.5, 2, 5) {
            for workers in [1, 2] {
                let m = measure_engine(scheme.as_ref(), &table, workers, 16, 5);
                assert_eq!(m.workers, workers, "{}", m.scheme);
                assert_eq!(m.rows, 60, "{}", m.scheme);
                assert_eq!(m.chunks, 4, "{}", m.scheme);
                assert!(m.encrypted_rows >= 60, "{}", m.scheme);
                assert!(m.throughput_mb_s() > 0.0, "{}", m.scheme);
            }
        }
    }

    #[test]
    fn fd_discovery_timing() {
        let t = Dataset::Orders.generate(60, 1);
        let (d, fds) = time_fd_discovery(&t, Some(2));
        assert!(d > Duration::ZERO);
        assert!(fds > 0);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500s");
    }
}
