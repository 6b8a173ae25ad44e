//! Reading a v2 stream back, for F² and the two symmetric baselines.
//!
//! `decrypt_streaming` must hand back every chunk exactly as the plaintext rows
//! its record covers, in order; salvage of an intact stream must call it
//! lossless; and a store cut inside its second chunk frame must resume to the
//! uninterrupted stream's bytes through both entry points: from the original
//! source, and with no source, replaying the stored prefix through the same
//! chunk decryption while reading the store only once. A CSV rendering of the
//! rows whose reads fail transiently streams the same bytes under a retrying
//! reader, and without one fails the run, which resume then finishes.

use f2::crypto::MasterKey;
use f2::engine::stream::decrypt_streaming;
use f2::io::FrameReader;
use f2::{
    decrypt_streaming_lossy, CsvOptions, CsvSource, DetScheme, Engine, EngineConfig, FaultKind,
    FaultPlan, FaultyReader, ProbScheme, RetryPolicy, RowSource, Scheme, StreamStore, Table,
    TableSource, F2,
};
use f2_datagen::Dataset;
use std::io::{BufReader, Cursor, ErrorKind, Read, Seek, SeekFrom, Write};

const SEED: u64 = 7;

fn engine() -> Engine {
    Engine::new(EngineConfig { workers: 1, chunk_rows: 128, seed: SEED }).expect("valid config")
}

/// Byte offsets of `stream`'s frame boundaries, from the end of the preamble.
fn frame_boundaries(stream: &[u8]) -> Vec<u64> {
    let mut reader = FrameReader::new(stream).expect("own stream");
    let mut offsets = vec![reader.bytes_consumed()];
    while reader.next_frame().expect("own stream").is_some() {
        offsets.push(reader.bytes_consumed());
    }
    offsets
}

/// An in-memory store that counts the bytes read from it.
struct CountingStore {
    inner: Cursor<Vec<u8>>,
    bytes_read: u64,
}

impl Read for CountingStore {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_read += n as u64;
        Ok(n)
    }
}

impl Write for CountingStore {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for CountingStore {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl StreamStore for CountingStore {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
}

/// `csv` with two transient faults on the read that reaches three quarters of
/// the way in.
fn flaky(csv: &str) -> FaultyReader<&[u8]> {
    let at = csv.len() as u64 * 3 / 4;
    let fault = FaultKind::Transient(ErrorKind::TimedOut);
    FaultyReader::new(csv.as_bytes(), FaultPlan::new().with(at, fault).with(at, fault))
}

/// `csv` is `plain` rendered as CSV.
fn read_back(scheme: &dyn Scheme, plain: &Table, csv: &str) {
    let name = scheme.name();
    let mut stream = Vec::new();
    let outcome = engine()
        .run_streaming(scheme, &mut TableSource::new(plain), &mut stream)
        .unwrap_or_else(|e| panic!("{name}: encrypt: {e}"));
    assert_eq!(outcome.chunks.len(), 4, "{name}");
    if name == "f2" {
        // Conflict companions: decryption must read patches, not just real rows.
        assert!(outcome.report.overhead.syn_rows > 0, "{name}: no SYN rows to patch from");
    }

    let mut chunks = Vec::new();
    let rows = decrypt_streaming(scheme, &stream[..], |chunk| {
        chunks.push(chunk);
        Ok(())
    })
    .unwrap_or_else(|e| panic!("{name}: decrypt_streaming: {e}"));
    assert_eq!(rows, plain.row_count(), "{name}");
    assert_eq!(chunks.len(), outcome.chunks.len(), "{name}");
    for (chunk, record) in chunks.iter().zip(&outcome.chunks) {
        let covered = plain.rows().get(record.rows.clone()).expect("record within the table");
        let expected = Table::new(plain.schema().clone(), covered.to_vec()).unwrap();
        assert_eq!(chunk, &expected, "{name}: chunk {}", record.index);
    }

    let damage = decrypt_streaming_lossy(scheme, &stream[..], |_| Ok(()))
        .unwrap_or_else(|e| panic!("{name}: salvage: {e}"));
    assert!(damage.is_lossless(), "{name}: {damage:?}");
    assert_eq!(damage.chunks_recovered, outcome.chunks.len(), "{name}");
    assert_eq!(damage.rows_recovered, plain.row_count(), "{name}");

    // Cut inside the second chunk frame (frame 0 is the header) and resume.
    let boundaries = frame_boundaries(&stream);
    let cut = usize::try_from((boundaries[2] + boundaries[3]) / 2).unwrap();
    let mut store = Cursor::new(stream[..cut].to_vec());
    engine()
        .resume_streaming(scheme, &mut TableSource::new(plain), &mut store)
        .unwrap_or_else(|e| panic!("{name}: resume_streaming: {e}"));
    assert!(store.into_inner() == stream, "{name}: the stream resumed from its source differs");

    let store = CountingStore { inner: Cursor::new(stream[..cut].to_vec()), bytes_read: 0 };
    let mut job = engine()
        .resume_job(scheme, plain.schema(), store)
        .unwrap_or_else(|e| panic!("{name}: resume_job: {e}"));
    assert_eq!(job.rows(), 128, "{name}: the first chunk survives the cut");
    let mut source = TableSource::new(plain);
    source.seek_to_row(job.rows()).unwrap();
    while let Some(chunk) = source.next_chunk(job.chunk_rows()).unwrap() {
        job.append_chunk(scheme, &chunk).unwrap_or_else(|e| panic!("{name}: append: {e}"));
    }
    let (_, store) = job.finish_into_store().unwrap();
    // The source-free resume checks and replays each stored frame as it reads it.
    assert!(store.bytes_read <= cut as u64, "{name}: read {} of {cut} bytes", store.bytes_read);
    assert!(store.inner.into_inner() == stream, "{name}: the resumed stream differs");

    // The retries belong under the CSV parser, where a failed read consumed nothing.
    let options = || CsvOptions::csv().with_schema(plain.schema().clone());
    let mut source = CsvSource::with_retry(flaky(csv), options(), RetryPolicy::no_backoff(3))
        .unwrap_or_else(|e| panic!("{name}: open: {e}"));
    let mut retried = Vec::new();
    engine()
        .run_streaming(scheme, &mut source, &mut retried)
        .unwrap_or_else(|e| panic!("{name}: retried run: {e}"));
    assert!(retried == stream, "{name}: the retried CSV stream differs");
    // Without them the run fails, and resume from a clean source finishes the stream.
    let mut source = CsvSource::new(BufReader::new(flaky(csv)), options()).unwrap();
    let mut store = Cursor::new(Vec::new());
    let err = engine().run_streaming(scheme, &mut source, &mut store).unwrap_err();
    assert!(err.to_string().contains("injected transient read fault"), "{name}: {err}");
    assert!(store.get_ref().len() < stream.len(), "{name}: the failed run wrote it all");
    let mut source = CsvSource::new(csv.as_bytes(), options()).unwrap();
    engine()
        .resume_streaming(scheme, &mut source, &mut store)
        .unwrap_or_else(|e| panic!("{name}: resume after the fault: {e}"));
    assert!(store.into_inner() == stream, "{name}: the stream resumed after the fault differs");
}

#[test]
fn streams_read_back_chunk_by_chunk_salvage_losslessly_and_resume_byte_identically() {
    let plain = Dataset::Orders.generate(512, 42);
    let csv = f2::relation::csv::to_csv_string(&plain);
    let f2 = F2::builder().alpha(0.2).split_factor(2).seed(SEED).build().unwrap();
    read_back(&f2, &plain, &csv);
    read_back(&DetScheme::new(MasterKey::from_seed(SEED)), &plain, &csv);
    read_back(&ProbScheme::new(MasterKey::from_seed(SEED), SEED), &plain, &csv);
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over every cell of `table`, row-major, each encoding length-prefixed.
fn table_digest(table: &Table) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(table.row_count() as u64).to_le_bytes());
    for (_, record) in table.iter() {
        for value in record.values() {
            let encoded = value.encode();
            h = fnv1a(h, &(encoded.len() as u64).to_le_bytes());
            h = fnv1a(h, &encoded);
        }
    }
    h
}

/// The F² stream and the in-memory engine output are pinned byte for byte at the
/// benchmark's settings (512-row chunks, α = 0.2, ϖ = 2): every cell of the real
/// rows, fake classes, conflict companions and false-positive pairs.
#[test]
fn f2_chunk_bytes_match_their_pinned_digests() {
    let plain = Dataset::Orders.generate(1024, 42);
    let f2 = F2::builder().alpha(0.2).split_factor(2).seed(SEED).build().unwrap();
    let engine =
        Engine::new(EngineConfig { workers: 1, chunk_rows: 512, seed: SEED }).expect("valid");

    let mut stream = Vec::new();
    let streamed =
        engine.run_streaming(&f2, &mut TableSource::new(&plain), &mut stream).expect("streams");
    let overhead = &streamed.report.overhead;
    assert!(overhead.group_rows > 0 && overhead.syn_rows > 0 && overhead.fp_rows > 0);
    let in_memory = engine.encrypt(&f2, &plain).expect("encrypts");
    let encrypted = &in_memory.outcome.encrypted;
    assert_eq!(
        (stream.len(), fnv1a(FNV_OFFSET, &stream)),
        (9_380_198, 0xf659_9a60_952d_f39f),
        "stream bytes drifted"
    );
    assert_eq!(
        (encrypted.row_count(), table_digest(encrypted)),
        (30_297, 0x491b_15a8_9a60_9027),
        "Engine::encrypt output drifted"
    );
}
