//! Acceptance tests of the streaming pipeline:
//!
//! * `run_streaming` produces **artifact-identical** output to the in-memory
//!   `Engine::encrypt` path — same ciphertext bytes, same serialized owner state —
//!   for all four backends and across the whole worker grid;
//! * a v2 stream reloads to the in-memory outcome, and junk is rejected;
//! * a corrupted v2 frame fails with a checksum error, never a panic;
//! * the streaming path is single-in-flight: it never holds more than one chunk of
//!   plaintext rows (`chunk_rows`) at a time.

use f2_core::{DetScheme, PaillierScheme, ProbScheme, Scheme, F2};
use f2_crypto::MasterKey;
use f2_engine::persist::encode_state;
use f2_engine::stream::{decrypt_streaming, load_streamed_outcome};
use f2_engine::{Engine, EngineConfig};
use f2_io::{CsvOptions, CsvSource, IoResult, RowSource, TableSource};
use f2_relation::csv::to_csv_string;
use f2_relation::{Schema, Table, TableView};
use std::cell::RefCell;
use std::rc::Rc;

fn fixture(rows: usize) -> Table {
    f2_datagen::Dataset::Orders.generate(rows, 77)
}

/// The acceptance check of the tentpole: streaming and in-memory paths produce the
/// same ciphertext and owner state at every worker count, for one backend.
fn assert_stream_parity<S: Scheme>(label: &str, scheme: &S, t: &Table) {
    let mut stream = Vec::new();
    let streaming_engine =
        Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 41 }).unwrap();
    streaming_engine
        .run_streaming(scheme, &mut TableSource::new(t), &mut stream)
        .unwrap_or_else(|e| panic!("{label}: streaming failed: {e}"));
    let (loaded, _) = load_streamed_outcome(scheme, &stream[..]).unwrap();
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig { workers, chunk_rows: 5, seed: 41 }).unwrap();
        let in_memory = engine.encrypt(scheme, t).unwrap();
        assert_eq!(
            loaded.encrypted, in_memory.outcome.encrypted,
            "{label}@{workers}: ciphertext diverged"
        );
        assert_eq!(
            encode_state(&loaded.state).unwrap(),
            encode_state(&in_memory.outcome.state).unwrap(),
            "{label}@{workers}: owner state diverged"
        );
    }
    // And the stream decrypts back to the plaintext.
    assert!(scheme.decrypt(&loaded).unwrap().multiset_eq(t), "{label}: bad roundtrip");
}

#[test]
fn streaming_matches_in_memory_for_every_backend_and_worker_count() {
    let t = fixture(23); // deliberately not a multiple of the chunk size
    let master = MasterKey::from_seed(41);
    assert_stream_parity(
        "f2",
        &F2::builder().alpha(0.5).seed(41).master_key(master.clone()).build().unwrap(),
        &t,
    );
    assert_stream_parity("det", &DetScheme::new(master.clone()), &t);
    assert_stream_parity("prob", &ProbScheme::new(master, 41), &t);
    assert_stream_parity("paillier", &PaillierScheme::new(64, 41).unwrap(), &t);
}

#[test]
fn csv_source_and_table_source_produce_the_same_stream() {
    let t = fixture(17);
    // Parse the rendered CSV back under the table's own schema, so typed cells
    // re-parse to the exact in-memory values.
    let schema = t.schema().clone();
    let csv = to_csv_string(&t);
    let scheme = F2::builder().alpha(0.5).seed(13).build().unwrap();
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 4, seed: 13 }).unwrap();

    let mut from_table = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut from_table).unwrap();
    let mut from_csv = Vec::new();
    let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv().with_schema(schema)).unwrap();
    engine.run_streaming(&scheme, &mut source, &mut from_csv).unwrap();
    assert_eq!(from_table, from_csv, "CSV-parsed rows must stream to identical bytes");
}

#[test]
fn v2_streams_reload_to_the_in_memory_outcome_and_junk_is_rejected() {
    let t = fixture(11);
    let scheme = F2::builder().alpha(0.5).seed(9).build().unwrap();
    let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 4, seed: 9 }).unwrap();
    let run = engine.encrypt(&scheme, &t).unwrap();

    let mut v2 = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut v2).unwrap();
    let (from_v2, _) = load_streamed_outcome(&scheme, &v2[..]).unwrap();
    assert_eq!(from_v2.encrypted, run.outcome.encrypted);
    assert!(scheme.decrypt(&from_v2).unwrap().multiset_eq(&t));

    // Junk — a version-1 blob included, which is not a stream — is rejected
    // with an error, not a panic.
    assert!(load_streamed_outcome(&scheme, &b"not a stream"[..]).is_err());
    assert!(load_streamed_outcome(&scheme, &[][..]).is_err());
    let v1_state = encode_state(&run.outcome.state).unwrap();
    assert!(load_streamed_outcome(&scheme, &v1_state[..]).is_err());
}

#[test]
fn corrupted_v2_frames_fail_with_checksum_errors_never_panics() {
    let t = fixture(13);
    let scheme = F2::builder().alpha(0.5).seed(3).build().unwrap();
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 4, seed: 3 }).unwrap();
    let mut stream = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();

    // Flip a bit in every 7th byte position across the whole stream: loading must
    // error every time (the stream has no don't-care bytes).
    for at in (7..stream.len()).step_by(7) {
        let mut corrupt = stream.clone();
        corrupt[at] ^= 0x04;
        assert!(
            load_streamed_outcome(&scheme, &corrupt[..]).is_err(),
            "flip at {at} went undetected"
        );
    }
    // Truncations too.
    for cut in [0, 6, 7, stream.len() / 2, stream.len() - 1] {
        assert!(load_streamed_outcome(&scheme, &stream[..cut]).is_err(), "cut at {cut}");
    }
    // And the streaming decryptor hits the same wall instead of emitting bad rows.
    let mut corrupt = stream.clone();
    let mid = stream.len() / 2;
    corrupt[mid] ^= 0x20;
    assert!(decrypt_streaming(&scheme, &corrupt[..], |_| Ok(())).is_err());
}

/// A [`RowSource`] wrapper asserting the engine is single-in-flight: before chunk
/// `k+1` may be pulled, chunk `k`'s frame must already have been written out (one
/// `write` call per frame — so the plaintext of at most one chunk is ever alive).
struct LockstepSource<'a> {
    inner: TableSource<'a>,
    writes: Rc<RefCell<usize>>,
    pulls: usize,
    chunk_rows: usize,
}

impl RowSource for LockstepSource<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> IoResult<Option<TableView<'_>>> {
        assert_eq!(max_rows, self.chunk_rows, "engine must request chunk_rows per pull");
        // Writes so far: 1 preamble + 1 header frame + 1 per finished chunk.
        let finished_chunks = self.writes.borrow().saturating_sub(2);
        assert!(
            self.pulls <= finished_chunks + 1,
            "chunk {} pulled while only {} chunk frames were written \
             (more than one chunk of plaintext in memory)",
            self.pulls,
            finished_chunks
        );
        self.pulls += 1;
        let chunk = self.inner.next_chunk(max_rows)?;
        if let Some(chunk) = &chunk {
            assert!(chunk.row_count() <= self.chunk_rows);
        }
        Ok(chunk)
    }
}

/// Counts `write` calls (the sink performs exactly one per preamble/frame).
struct CountingWriter {
    writes: Rc<RefCell<usize>>,
    sink: Vec<u8>,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        *self.writes.borrow_mut() += 1;
        self.sink.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn run_streaming_holds_at_most_one_chunk_of_plaintext() {
    let t = fixture(37);
    let chunk_rows = 5;
    let writes = Rc::new(RefCell::new(0usize));
    let mut source = LockstepSource {
        inner: TableSource::new(&t),
        writes: writes.clone(),
        pulls: 0,
        chunk_rows,
    };
    let writer = CountingWriter { writes: writes.clone(), sink: Vec::new() };
    let scheme = F2::builder().alpha(0.5).seed(19).build().unwrap();
    let engine = Engine::new(EngineConfig { workers: 4, chunk_rows, seed: 19 }).unwrap();
    let summary = engine.run_streaming(&scheme, &mut source, writer).unwrap();
    let expected_chunks = t.row_count().div_ceil(chunk_rows);
    assert_eq!(summary.chunks.len(), expected_chunks);
    assert_eq!(summary.rows, t.row_count());
    // Every chunk respected the bound, and the source saw one pull per chunk plus
    // the final empty pull.
    assert!(summary.chunks.iter().all(|c| c.rows.len() <= chunk_rows));
    assert_eq!(source.pulls, expected_chunks + 1);
}

#[test]
fn oversized_and_short_chunks_from_a_hostile_source_are_rejected() {
    /// A source that returns a short chunk before the end.
    struct ShortChunkSource<'a> {
        table: &'a Table,
        step: usize,
    }
    impl RowSource for ShortChunkSource<'_> {
        fn schema(&self) -> &Schema {
            self.table.schema()
        }
        fn next_chunk(&mut self, _max: usize) -> IoResult<Option<TableView<'_>>> {
            let start = self.step;
            self.step += 2; // always 2 rows, even though chunk_rows is 4
            if start >= self.table.row_count() {
                return Ok(None);
            }
            let end = (start + 2).min(self.table.row_count());
            Ok(Some(self.table.view(start..end).unwrap()))
        }
    }
    let t = fixture(12);
    let scheme = F2::builder().alpha(0.5).seed(1).build().unwrap();
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 4, seed: 1 }).unwrap();
    let mut source = ShortChunkSource { table: &t, step: 0 };
    let err = engine.run_streaming(&scheme, &mut source, Vec::new()).unwrap_err();
    assert!(err.to_string().contains("short chunk"), "{err}");
}
