//! The chunked, multi-threaded encryption pipeline.
//!
//! lint: chunk-seed-authority — [`chunk_seed`] is defined here; deriving per-chunk
//! seeds anywhere outside the annotated authority files breaks the nonce-domain
//! discipline (`f2-lint` rule `chunk-seed-discipline`).
//!
//! [`Engine::encrypt`] shards the plaintext table into row-range chunks, hands the
//! chunks to a pool of scoped worker threads — each driving the caller's
//! [`Scheme`] backend through a per-chunk [`Scheme::reseeded`] clone —
//! and reassembles the encrypted chunks **in chunk order** into one table-level
//! [`SchemeOutcome`]. Because every chunk's seed is a pure function of the engine seed
//! and the chunk index ([`chunk_seed`]), the merged output is byte-identical whatever
//! the worker count or scheduling order: parallelism changes wall-clock time, never
//! the ciphertext. Decryption goes through the ordinary `Scheme::decrypt` of the
//! original scheme — the merged owner state is indistinguishable from a single-shot
//! one as far as the decryptor is concerned.

use f2_core::{ChunkState, EncryptionReport, F2Error, OwnerState, Result, Scheme, SchemeOutcome};
use f2_relation::parallel::POOL_THREAD_PREFIX;
use f2_relation::Table;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Derive the RNG seed of chunk `index` from the engine seed
/// ([`f2_crypto::splitmix64`]): chunks get pairwise-distinct, scheduling-independent
/// nonce domains.
pub fn chunk_seed(engine_seed: u64, index: u64) -> u64 {
    f2_crypto::splitmix64(engine_seed ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker threads (≥ 1). Defaults to the machine's available
    /// parallelism, capped at 8.
    pub workers: usize,
    /// Rows per chunk (≥ 1). Defaults to 1024.
    ///
    /// **Security scope for F²:** the F² backend discovers MASs and flattens
    /// ciphertext frequencies *per chunk*, so the α-security guarantee of the merged
    /// table holds within each chunk but not across chunk boundaries — a value
    /// occurring in many chunks still accumulates a table-wide frequency. Cell-wise
    /// backends are indifferent (deterministic AES leaks frequencies regardless; the
    /// probabilistic ciphers hide them regardless). Pick `chunk_rows ≥ row count` to
    /// recover the paper's table-wide guarantee, or treat chunks as independently
    /// outsourced relations; `f2_attack::CrossChunkExperiment` measures the
    /// cross-chunk leakage with the attack harness.
    ///
    /// **FD scope for F²:** FD preservation is per chunk too. Each chunk is
    /// encrypted under its own seed and removes only the false-positive FDs it
    /// can see, so the merged ciphertext of a table split into several chunks
    /// can gain FDs that hold inside every chunk but not across the whole
    /// table. On 1,000 generated Orders rows at α = 0.5, 250-row chunks
    /// produced 20 such false positives and a single 1,000-row chunk none.
    /// Pick `chunk_rows ≥ row count` when the provider must discover exactly
    /// the plaintext's FDs.
    ///
    /// **Threads:** with 2 or more `workers`, [`Engine::encrypt`] runs its
    /// chunks on pool threads ([`f2_relation::parallel::POOL_THREAD_PREFIX`]),
    /// so a chunk of at least 65,536 cells (`chunk_rows × arity`) builds its
    /// columnar index on the worker that encrypts it and starts no helpers: on
    /// a 2-vCPU host, helpers under each of 2 workers on 10,000-row chunks of
    /// the 50,000-row Synthetic table (70,000 cells each) left encryption speed
    /// flat and raised the process's peak RSS by 14–25%. With one worker the
    /// chunks run on the caller's thread, whose builds keep their helpers
    /// ([`f2_relation::ColumnarIndex::build`]).
    pub chunk_rows: usize,
    /// Engine seed: per-chunk scheme seeds derive from it via [`chunk_seed`]. Use
    /// [`f2_crypto::entropy_seed`] when reproducibility is not required.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 8);
        EngineConfig { workers, chunk_rows: 1024, seed: 0x5eed }
    }
}

impl EngineConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(F2Error::InvalidConfig("engine needs at least one worker".into()));
        }
        if self.chunk_rows == 0 {
            return Err(F2Error::InvalidConfig("chunks must hold at least one row".into()));
        }
        Ok(())
    }
}

/// Per-chunk provenance of one [`Engine::encrypt`] run: which rows the chunk covered,
/// where its ciphertext landed, which seed and worker encrypted it, and how long it
/// took. This is the engine-level audit trail (the owner-side row provenance lives in
/// the merged [`SchemeOutcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Chunk index, dense from 0 in table order.
    pub index: usize,
    /// Row range of the *plaintext* table this chunk covered.
    pub rows: Range<usize>,
    /// Row range of the *merged encrypted* table this chunk produced (F² chunks emit
    /// more rows than they consume; cell-wise chunks map 1:1).
    pub output_rows: Range<usize>,
    /// The seed the chunk's reseeded scheme ran under.
    pub seed: u64,
    /// Index of the worker thread that encrypted the chunk.
    pub worker: usize,
    /// Wall-clock encryption time of this chunk.
    pub wall: Duration,
}

/// Result of one [`Engine::encrypt`] run.
#[derive(Debug)]
pub struct EngineOutcome {
    /// The merged, order-stable outcome — decrypts through the ordinary
    /// `Scheme::decrypt` of the scheme that produced it.
    pub outcome: SchemeOutcome,
    /// Per-chunk provenance, in chunk order.
    pub chunks: Vec<ChunkRecord>,
}

/// The streaming encryption engine. See the [module docs](self) for the contract.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

/// What one worker records for one finished chunk.
struct ChunkSlot {
    outcome: SchemeOutcome,
    worker: usize,
    wall: Duration,
}

impl Engine {
    /// Create an engine, validating the configuration.
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(Engine { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Encrypt `table` with `scheme`, chunked and (for `workers > 1`) in parallel.
    pub fn encrypt(&self, scheme: &dyn Scheme, table: &Table) -> Result<EngineOutcome> {
        if table.arity() == 0 {
            return Err(F2Error::UnsupportedInput("table has no attributes".into()));
        }
        if table.is_empty() {
            // Nothing to shard: a single empty "chunk" through the scheme itself keeps
            // the outcome shape (schema, state) consistent with the backend.
            let outcome = scheme.reseeded(chunk_seed(self.config.seed, 0)).encrypt(table)?;
            return Ok(EngineOutcome { outcome, chunks: Vec::new() });
        }

        let ranges: Vec<Range<usize>> = (0..table.row_count())
            .step_by(self.config.chunk_rows)
            .map(|start| start..(start + self.config.chunk_rows).min(table.row_count()))
            .collect();
        let slots: Vec<Mutex<Option<Result<ChunkSlot>>>> =
            ranges.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        let run_worker = |worker: usize| loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(index) else { break };
            // A panicking backend loses its chunk, not the process: the panic is
            // contained here and surfaces as a typed `WorkerPanicked` from
            // `assemble`, with the worker going on to its next chunk. Unwind
            // safety holds because everything the closure mutates is chunk-local
            // (the reseeded scheme clone and the outcome under construction) and
            // is discarded with the catch.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                // A borrowed view, not a cloned sub-table: cell-wise backends encrypt
                // straight off the parent's rows, and F² materialises the chunk's
                // rows as a table of its own.
                let chunk = table.view(range.clone())?;
                let start = Instant::now();
                let outcome = scheme
                    .reseeded(chunk_seed(self.config.seed, index as u64))
                    .encrypt_view(&chunk)?;
                Ok(ChunkSlot { outcome, worker, wall: start.elapsed() })
            }));
            let result = attempt.unwrap_or_else(|payload| {
                Err(F2Error::WorkerPanicked { chunk: index, message: panic_text(&*payload) })
            });
            *slots[index].lock().expect("no poisoned chunk slot") = Some(result);
        };

        let workers = self.config.workers.min(ranges.len());
        if workers <= 1 {
            run_worker(0);
        } else {
            // Named as pool threads, so a chunk index they build starts no helpers.
            std::thread::scope(|scope| {
                let run_worker = &run_worker;
                for worker in 0..workers {
                    std::thread::Builder::new()
                        .name(format!("{POOL_THREAD_PREFIX}engine-{worker}"))
                        .spawn_scoped(scope, move || run_worker(worker))
                        .expect("failed to spawn thread");
                }
            });
        }

        self.assemble(&ranges, slots)
    }

    /// Reassemble per-chunk outcomes (in chunk order) into one table-level outcome.
    fn assemble(
        &self,
        ranges: &[Range<usize>],
        slots: Vec<Mutex<Option<Result<ChunkSlot>>>>,
    ) -> Result<EngineOutcome> {
        let mut encrypted: Option<Table> = None;
        let mut chunk_states = Vec::with_capacity(ranges.len());
        let mut chunks = Vec::with_capacity(ranges.len());
        let mut report = EncryptionReport::default();
        for (index, (range, slot)) in ranges.iter().zip(slots).enumerate() {
            let ChunkSlot { outcome, worker, wall } = slot
                .into_inner()
                .expect("no poisoned chunk slot")
                .expect("every chunk index was claimed by a worker")?;
            let output_offset = encrypted.as_ref().map_or(0, Table::row_count);
            chunk_states.push(ChunkState {
                row_offset: range.start,
                output_offset,
                state: outcome.state,
            });
            match &mut encrypted {
                None => encrypted = Some(outcome.encrypted),
                Some(table) => table.append(outcome.encrypted)?,
            }
            let output_end = encrypted.as_ref().map_or(0, Table::row_count);
            crate::obs::chunk_encrypted(range.len(), output_end - output_offset, wall);
            chunks.push(ChunkRecord {
                index,
                rows: range.clone(),
                output_rows: output_offset..output_end,
                seed: chunk_seed(self.config.seed, index as u64),
                worker,
                wall,
            });
            merge_reports(&mut report, &outcome.report);
        }
        let encrypted = encrypted.expect("tables with rows produce at least one chunk");
        let state = OwnerState::merge(chunk_states)?;
        Ok(EngineOutcome { outcome: SchemeOutcome { encrypted, state, report }, chunks })
    }
}

/// Render a caught panic payload — `&str` and `String` cover what `panic!` and
/// the `assert!`/`expect` families produce; anything else gets a placeholder.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Accumulate one chunk's report into the table-level report: timings and row counts
/// add up; the wall-clock sums are CPU time across workers, not elapsed time (the
/// per-chunk elapsed times live in [`ChunkRecord::wall`]).
pub(crate) fn merge_reports(total: &mut EncryptionReport, chunk: &EncryptionReport) {
    total.timings.max += chunk.timings.max;
    total.timings.sse += chunk.timings.sse;
    total.timings.syn += chunk.timings.syn;
    total.timings.fp += chunk.timings.fp;
    total.overhead.original_rows += chunk.overhead.original_rows;
    total.overhead.group_rows += chunk.overhead.group_rows;
    total.overhead.scale_rows += chunk.overhead.scale_rows;
    total.overhead.syn_rows += chunk.overhead.syn_rows;
    total.overhead.fp_rows += chunk.overhead.fp_rows;
    total.mas_count += chunk.mas_count;
    total.overlapping_mas_pairs += chunk.overlapping_mas_pairs;
    total.equivalence_classes += chunk.equivalence_classes;
    total.false_positive_fds += chunk.false_positive_fds;
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::{DetScheme, ProbScheme, Scheme, F2};
    use f2_crypto::MasterKey;
    use f2_relation::{table, Schema};

    fn fixture() -> Table {
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["10001", "NewYork", "carol"],
            ["10001", "NewYork", "dave"],
            ["08540", "Princeton", "erin"],
            ["08540", "Princeton", "frank"],
        }
    }

    #[test]
    fn config_is_validated() {
        assert!(Engine::new(EngineConfig { workers: 0, ..EngineConfig::default() }).is_err());
        assert!(Engine::new(EngineConfig { chunk_rows: 0, ..EngineConfig::default() }).is_err());
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn output_is_deterministic_across_worker_counts() {
        let t = fixture();
        let scheme = ProbScheme::new(MasterKey::from_seed(3), 3);
        let run = |workers| {
            Engine::new(EngineConfig { workers, chunk_rows: 2, seed: 11 })
                .unwrap()
                .encrypt(&scheme, &t)
                .unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.outcome.encrypted, four.outcome.encrypted);
        assert_eq!(one.chunks.len(), 3);
        // Chunk records differ only in scheduling metadata (worker, wall).
        for (a, b) in one.chunks.iter().zip(&four.chunks) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.output_rows, b.output_rows);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn identical_chunks_get_disjoint_nonce_streams() {
        // Two chunks with identical rows: the per-table fingerprint alone would feed
        // both the same RNG stream; per-chunk reseeding must keep them apart.
        let t = table! {
            ["A"]; ["x"], ["x"]
        };
        let scheme = ProbScheme::new(MasterKey::from_seed(5), 5);
        let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 1, seed: 5 }).unwrap();
        let run = engine.encrypt(&scheme, &t).unwrap();
        let c0 = run.outcome.encrypted.cell(0, 0).unwrap().as_bytes().unwrap();
        let c1 = run.outcome.encrypted.cell(1, 0).unwrap().as_bytes().unwrap();
        assert_ne!(&c0[..16], &c1[..16], "nonce reused across identical chunks");
    }

    #[test]
    fn chunk_records_track_f2_row_expansion() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(7).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 3, seed: 7 }).unwrap();
        let run = engine.encrypt(&scheme, &t).unwrap();
        assert_eq!(run.chunks.len(), 2);
        let mut expected_start = 0;
        for record in &run.chunks {
            assert_eq!(record.output_rows.start, expected_start);
            assert!(record.output_rows.len() >= record.rows.len(), "F2 never shrinks a chunk");
            expected_start = record.output_rows.end;
        }
        assert_eq!(expected_start, run.outcome.encrypted.row_count());
        // The merged outcome decrypts through the plain Scheme::decrypt.
        assert!(scheme.decrypt(&run.outcome).unwrap().multiset_eq(&t));
    }

    #[test]
    fn empty_and_zero_arity_tables() {
        let det = DetScheme::new(MasterKey::from_seed(1));
        let engine = Engine::new(EngineConfig::default()).unwrap();
        let empty = Table::empty(Schema::from_names(["A", "B"]).unwrap());
        let run = engine.encrypt(&det, &empty).unwrap();
        assert_eq!(run.outcome.encrypted.row_count(), 0);
        assert!(run.chunks.is_empty());
        let no_attrs = Table::empty(Schema::new(vec![]).unwrap());
        assert!(engine.encrypt(&det, &no_attrs).is_err());
    }

    /// A backend that builds each chunk's columnar index, records how many threads
    /// built it, and encrypts none of the chunk's rows.
    #[derive(Clone, Default)]
    struct IndexProbe(std::sync::Arc<Mutex<Vec<usize>>>);

    impl Scheme for IndexProbe {
        fn name(&self) -> &str {
            "index-probe"
        }

        fn encrypt_view(&self, view: &f2_relation::TableView<'_>) -> Result<SchemeOutcome> {
            self.0.lock().unwrap().push(view.to_table().columnar().threads());
            DetScheme::new(MasterKey::from_seed(1)).encrypt(&Table::empty(view.schema().clone()))
        }

        fn decrypt(&self, _: &SchemeOutcome) -> Result<Table> {
            unreachable!("the probe is only encrypted with")
        }

        fn reseeded(&self, _: u64) -> Box<dyn Scheme> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn chunk_indexes_built_by_the_worker_pool_start_no_helpers() {
        // 10,000-row Synthetic chunks: 70,000 cells each, past the threshold.
        let table = f2_datagen::Dataset::Synthetic.generate(20_000, 3);
        let chunk_rows = 10_000;
        assert!(chunk_rows * table.arity() >= f2_relation::columnar::PARALLEL_MIN_CELLS);
        let probe = IndexProbe::default();
        let engine = Engine::new(EngineConfig { workers: 2, chunk_rows, seed: 1 }).unwrap();
        engine.encrypt(&probe, &table).unwrap();
        assert_eq!(*probe.0.lock().unwrap(), [1, 1], "each worker builds on its own thread");
        // The same build on this thread still fans out.
        let fan_out =
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(table.arity());
        let chunk = table.view(0..chunk_rows).unwrap().to_table();
        assert_eq!(chunk.columnar().threads(), fan_out);
    }

    #[test]
    fn chunk_seeds_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for index in 0..10_000u64 {
            assert!(seen.insert(chunk_seed(42, index)));
        }
    }
}
