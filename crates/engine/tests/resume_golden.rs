//! Crash-safe resume golden tests: for **every** interruption point — mid-preamble,
//! at each frame boundary, and torn mid-frame — and for all four backends,
//! `Engine::resume_streaming` over the surviving prefix must reproduce the
//! uninterrupted stream **byte for byte**. This is the acceptance criterion of the
//! resume protocol: chunk seeds are pure functions of the engine seed and chunk
//! index, ciphertexts are deterministic under them, and the trailer zeroes its
//! run-varying timings, so an interrupted-then-resumed run and a clean run are
//! indistinguishable on disk.
//!
//! Every backend replays the same way: each prefix chunk is pulled from the
//! source again, re-encrypted under its stored chunk seed, and CRC-checked
//! against the stored frame. The grid runs twice per backend: from the
//! original table, and from a CSV rendering of it whose reads fail
//! transiently under a retrying reader, so the retries fire during the replay
//! as well as after it.
//!
//! Also pinned here: the guard rails — resuming with the wrong engine
//! configuration, the wrong scheme, or a source that changed since the
//! interrupted run must error rather than splice two different runs together,
//! and must leave the store as it found it, for every backend.

use f2_core::{DetScheme, PaillierScheme, ProbScheme, Scheme, F2};
use f2_crypto::MasterKey;
use f2_engine::{Engine, EngineConfig};
use f2_io::{
    CsvOptions, CsvSource, FaultKind, FaultPlan, FaultyReader, FaultyWriter, FrameReader, IoResult,
    RetryPolicy, RowSource, TableSource,
};
use f2_relation::{Schema, Table, TableView, Value};
use std::io::{BufRead, BufReader, Cursor, ErrorKind};

/// A [`TableSource`] wrapper that counts pulls — proof of what the replay read.
struct CountingSource<'a> {
    inner: TableSource<'a>,
    pulls: usize,
}

impl<'a> CountingSource<'a> {
    fn new(table: &'a Table) -> Self {
        CountingSource { inner: TableSource::new(table), pulls: 0 }
    }
}

impl RowSource for CountingSource<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> IoResult<Option<TableView<'_>>> {
        self.pulls += 1;
        self.inner.next_chunk(max_rows)
    }
}

fn fixture(rows: usize) -> Table {
    f2_datagen::Dataset::Orders.generate(rows, 77)
}

fn engine() -> Engine {
    Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 41 }).unwrap()
}

/// Absolute stream offsets after the preamble and after each frame (the final
/// entry is the full stream length, i.e. after the end frame).
fn frame_boundaries(stream: &[u8]) -> Vec<u64> {
    let mut reader = FrameReader::new(stream).expect("own stream has a valid preamble");
    let mut offsets = vec![reader.bytes_consumed()];
    while reader.next_frame().expect("own stream decodes").is_some() {
        offsets.push(reader.bytes_consumed());
    }
    offsets.push(reader.bytes_consumed());
    offsets
}

/// The full cut grid for a stream: inside the preamble, at every frame boundary,
/// and torn positions inside every frame (header bytes and payload bytes), plus
/// the complete stream (resume of a finished stream must also be a no-op on the
/// bytes).
fn cut_grid(stream: &[u8]) -> Vec<usize> {
    let boundaries = frame_boundaries(stream);
    let mut cuts = vec![0, 3, 6];
    for pair in boundaries.windows(2) {
        let (start, end) = (pair[0] as usize, pair[1] as usize);
        cuts.push(start);
        // Torn frame: one byte into the header, and mid-frame.
        cuts.push((start + 1).min(end));
        cuts.push(start + (end - start) / 2);
    }
    cuts.push(stream.len() - 1);
    cuts.push(stream.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// A source over `csv`, the CSV rendering of `t`, whose reads fail once with a
/// transient error a tenth of the way in, twice in a row a third of the way
/// in, and once near the end. A retrying reader absorbs them under a 64-byte
/// buffer, so each fault fires on the read that reaches it — during the
/// replay of a resumed prefix or after it — and every resume reads the whole
/// document, so every fault fires.
fn flaky<'a>(t: &Table, csv: &'a str) -> CsvSource<impl BufRead + 'a> {
    let len = csv.len() as u64;
    let plan =
        [len / 10, len / 3, len / 3, len * 9 / 10].iter().fold(FaultPlan::new(), |plan, &at| {
            plan.with(at, FaultKind::Transient(ErrorKind::TimedOut))
        });
    let reader = RetryPolicy::no_backoff(4).reader(FaultyReader::new(csv.as_bytes(), plan));
    let options = CsvOptions::csv().with_schema(t.schema().clone());
    CsvSource::new(BufReader::with_capacity(64, reader), options).unwrap()
}

/// Resume from every cut of the uninterrupted stream and demand byte identity,
/// once from the table and once from a [`flaky`] CSV source.
fn assert_resume_is_byte_exact<S>(label: &str, scheme: &S, t: &Table)
where
    S: Scheme,
{
    let engine = engine();
    let csv = f2_relation::csv::to_csv_string(t);
    let mut full = Vec::new();
    let clean = engine.run_streaming(scheme, &mut TableSource::new(t), &mut full).unwrap();
    for cut in cut_grid(&full) {
        let mut store = Cursor::new(full[..cut].to_vec());
        let outcome = engine
            .resume_streaming(scheme, &mut TableSource::new(t), &mut store)
            .unwrap_or_else(|e| panic!("{label}: resume from cut {cut} failed: {e}"));
        assert_eq!(
            store.get_ref(),
            &full,
            "{label}: resume from cut {cut} diverged from the uninterrupted stream"
        );
        assert_eq!(outcome.rows, clean.rows, "{label}@{cut}: row total diverged");
        assert_eq!(outcome.chunks.len(), clean.chunks.len(), "{label}@{cut}: chunk count diverged");

        let mut store = Cursor::new(full[..cut].to_vec());
        engine
            .resume_streaming(scheme, &mut flaky(t, &csv), &mut store)
            .unwrap_or_else(|e| panic!("{label}: flaky resume from cut {cut} failed: {e}"));
        assert_eq!(store.get_ref(), &full, "{label}: flaky resume from cut {cut} diverged");
    }
}

#[test]
fn resume_is_byte_exact_at_every_cut_for_every_backend() {
    let t = fixture(23); // 5 chunks of 5 rows: 4 full + 1 short final chunk
    let master = MasterKey::from_seed(41);
    assert_resume_is_byte_exact(
        "f2",
        &F2::builder().alpha(0.5).seed(41).master_key(master.clone()).build().unwrap(),
        &t,
    );
    assert_resume_is_byte_exact("det", &DetScheme::new(master.clone()), &t);
    assert_resume_is_byte_exact("prob", &ProbScheme::new(master, 41), &t);
    assert_resume_is_byte_exact("paillier", &PaillierScheme::new(64, 41).unwrap(), &t);
}

#[test]
fn resume_repairs_a_crash_simulated_by_a_truncating_writer() {
    // End-to-end with the fault harness: a writer that silently drops everything
    // past an offset (a buffered write lost to a crash) leaves a torn store that
    // resume turns back into the exact uninterrupted stream.
    let t = fixture(23);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = engine();
    let mut full = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut full).unwrap();

    let cut = full.len() * 2 / 3;
    let plan = FaultPlan::new().with(cut as u64, FaultKind::Truncate);
    let mut crashed = FaultyWriter::new(Vec::new(), plan);
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut crashed).unwrap();
    let torn = crashed.into_inner();
    assert_eq!(torn.len(), cut, "the crash dropped the tail silently");

    let mut store = Cursor::new(torn);
    engine.resume_streaming(&scheme, &mut TableSource::new(&t), &mut store).unwrap();
    assert_eq!(store.get_ref(), &full);
}

/// The four backends of the paper under one master key.
fn backends() -> Vec<(&'static str, Box<dyn Scheme>)> {
    let master = MasterKey::from_seed(41);
    vec![
        (
            "f2",
            Box::new(F2::builder().alpha(0.5).seed(41).master_key(master.clone()).build().unwrap()),
        ),
        ("det", Box::new(DetScheme::new(master.clone()))),
        ("prob", Box::new(ProbScheme::new(master, 41))),
        ("paillier", Box::new(PaillierScheme::new(64, 41).unwrap())),
    ]
}

#[test]
fn every_backend_replays_its_prefix_by_pulling_the_source_again() {
    let t = fixture(23);
    let engine = engine();
    for (label, scheme) in backends() {
        let mut full = Vec::new();
        engine.run_streaming(scheme.as_ref(), &mut TableSource::new(&t), &mut full).unwrap();
        let cut = frame_boundaries(&full)[3] as usize;
        let mut store = Cursor::new(full[..cut].to_vec());
        let mut source = CountingSource::new(&t);
        engine.resume_streaming(scheme.as_ref(), &mut source, &mut store).unwrap();
        assert_eq!(store.get_ref(), &full, "{label}: the resumed stream diverged");
        // The prefix is re-pulled and re-encrypted: the CRC check against the
        // stored frames is what proves the source unchanged. 2 prefix pulls +
        // 3 continuation + EOF.
        assert_eq!(source.pulls, 6, "{label}: unexpected pull count");
    }
}

#[test]
fn a_csv_source_resumes_byte_identically_at_every_cut() {
    let mut csv = String::from("account_id,amount\n");
    for i in 0..23 {
        csv.push_str(&format!("{},{}\n", 1000 + i, i * 7));
    }
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = engine();
    let mut full = Vec::new();
    let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
    engine.run_streaming(&scheme, &mut source, &mut full).unwrap();
    for cut in cut_grid(&full) {
        let mut store = Cursor::new(full[..cut].to_vec());
        // A fresh parser per attempt, as a restarted process would open one;
        // the replay parses the already-encrypted prefix again.
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
        engine
            .resume_streaming(&scheme, &mut source, &mut store)
            .unwrap_or_else(|e| panic!("csv resume from cut {cut} failed: {e}"));
        assert_eq!(store.get_ref(), &full, "csv resume from cut {cut} diverged");
    }
}

#[test]
fn resume_refuses_a_changed_source_for_every_backend() {
    // The replay re-encrypts the prefix chunks and checks them against the
    // stored frames: a source that no longer holds the original rows must be
    // rejected, not silently spliced into a frankenstream.
    let t = fixture(23);
    let mut changed = t.clone();
    changed.set_cell(2, 0, Value::Int(999_999_999)).unwrap();
    let engine = engine();
    for (label, scheme) in backends() {
        let mut full = Vec::new();
        engine.run_streaming(scheme.as_ref(), &mut TableSource::new(&t), &mut full).unwrap();
        let boundaries = frame_boundaries(&full);
        // Keep two complete chunk frames (preamble, header, chunk 0, chunk 1) and
        // tear the third mid-frame.
        let cut = (boundaries[3] + boundaries[4]) as usize / 2;
        let mut store = Cursor::new(full[..cut].to_vec());
        let err = engine
            .resume_streaming(scheme.as_ref(), &mut TableSource::new(&changed), &mut store)
            .unwrap_err();
        assert!(err.to_string().contains("source changed"), "{label}: {err}");
        // A refused resume touches nothing: the torn tail is still there.
        assert_eq!(store.get_ref(), &full[..cut], "{label}: a refused resume modified the store");
    }
}

#[test]
fn resume_refuses_a_mismatched_configuration_scheme_or_source() {
    let t = fixture(13);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = engine();
    let mut full = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut full).unwrap();

    // A different engine seed: the header contradicts the resuming engine.
    let other = Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 99 }).unwrap();
    let mut store = Cursor::new(full.clone());
    let err = other.resume_streaming(&scheme, &mut TableSource::new(&t), &mut store).unwrap_err();
    assert!(err.to_string().contains("original configuration"), "{err}");

    // A different chunk size too.
    let other = Engine::new(EngineConfig { workers: 1, chunk_rows: 3, seed: 41 }).unwrap();
    let mut store = Cursor::new(full.clone());
    let err = other.resume_streaming(&scheme, &mut TableSource::new(&t), &mut store).unwrap_err();
    assert!(err.to_string().contains("original configuration"), "{err}");

    // A different scheme.
    let wrong = ProbScheme::new(MasterKey::from_seed(41), 41);
    let mut store = Cursor::new(full.clone());
    let err = engine.resume_streaming(&wrong, &mut TableSource::new(&t), &mut store).unwrap_err();
    assert!(err.to_string().contains("scheme"), "{err}");

    // A source whose schema disagrees with the stream header.
    let other_table = f2_datagen::Dataset::Customer.generate(13, 77);
    assert_ne!(other_table.schema(), t.schema());
    let mut store = Cursor::new(full.clone());
    let err = engine
        .resume_streaming(&scheme, &mut TableSource::new(&other_table), &mut store)
        .unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");

    // A source that ends before the prefix does.
    let short = fixture(5);
    let boundaries = frame_boundaries(&full);
    let mut store = Cursor::new(full[..boundaries[4] as usize].to_vec());
    let err =
        engine.resume_streaming(&scheme, &mut TableSource::new(&short), &mut store).unwrap_err();
    assert!(err.to_string().contains("source ended"), "{err}");
}
