//! End-to-end streaming encryption: source in, checksummed `F2WS` v2 stream out,
//! bounded peak memory in between — and the one codec of that stream's frames.
//!
//! lint: untrusted-input — the frame codec and stream readers below decode
//! wire-derived frames.
//! lint: chunk-seed-authority — this module may derive per-chunk seeds via
//! [`chunk_seed`]; everywhere else must go through the pipeline entry points.
//!
//! [`Engine::run_streaming`] is the constant-memory sibling of [`Engine::encrypt`]:
//! instead of materialising the whole plaintext and the whole ciphertext, it pulls
//! one chunk at a time from a [`RowSource`], encrypts it with the chunk seed the
//! in-memory path would use ([`chunk_seed`]), and appends the result to the stream
//! before pulling the next chunk — at no point does more than one chunk of
//! plaintext or ciphertext exist in memory (the **single-in-flight** guarantee; the
//! source side is equally bounded, see `f2_io::CsvSource`), besides the written
//! bytes of the last chunk, which stay in the job's two kept buffers until the
//! next chunk is encoded over them. It is a
//! [`StreamJob`](crate::StreamJob) — the one writer of v2 streams — driven by a
//! pull loop. Because chunk seeds are a pure function of the engine seed and the
//! chunk index, the stream's chunks carry **exactly** the ciphertext bytes and
//! owner states of the in-memory path at any worker count, so the two paths are
//! interchangeable artifact-for-artifact.
//!
//! The stream layout (each item one checksummed frame, see [`f2_io::frame`]):
//!
//! ```text
//! HEADER   scheme name, engine seed, chunk_rows, plaintext schema
//! CHUNK*   ChunkRecord provenance + per-chunk owner state + encrypted chunk rows
//! TRAILER  chunk/row totals + merged encryption report
//! ```
//!
//! Every frame payload is encoded and decoded here and nowhere else: the writer,
//! the resume pass, the readers, and lossy salvage all go through the codec
//! functions below.
//!
//! Reading back:
//!
//! * [`load_streamed_outcome`] — reassemble the whole [`SchemeOutcome`] (table +
//!   merged owner state + report) for in-memory decryption; it decodes every row;
//! * [`decrypt_streaming`] — decrypt **chunk by chunk**, handing each recovered
//!   plaintext chunk to a callback: constant-memory decryption for datasets that
//!   never fit in RAM (per-chunk owner states are chunk-local, so no merged state is
//!   needed).
//!
//! The readers that decrypt — [`decrypt_streaming`], lossy salvage
//! ([`crate::lossy`]) and the source-free resume replay ([`crate::resume`]) — share
//! one chunk-decrypt step: decode the owner state, select the rows its decryption
//! reads ([`OwnerState::select_read_rows`]), decode just those rows, decrypt. Every
//! reader turns a chunk frame's payload into one `Bytes` without a copy, and each
//! decoded ciphertext cell is a view of it. For
//! F² that builds only the real rows and their conflict companions, skipping the
//! scale copies, fake classes and false-positive records that make up most of a
//! chunk at small α. Every other cell is still read and checked, so a malformed
//! chunk is refused whether or not decryption would have read the bad cell, and a
//! chunk that decrypts to other than its record's plaintext row count is refused
//! before any caller sees it.

use crate::job::StreamProgress;
use crate::persist::{
    decode_state, decode_table_rows, encode_state, put_report, put_schema, put_table, take_range,
    take_report, take_schema,
};
use crate::pipeline::{chunk_seed, ChunkRecord, Engine};
use crate::wire::{Reader, Writer};
use f2_core::{ChunkState, EncryptionReport, F2Error, OwnerState, Result, Scheme, SchemeOutcome};
use f2_io::frame::FrameReader;
use f2_io::RowSource;
use f2_relation::{Bytes, Schema, Table};
use std::io::{Read, Write};
use std::time::Duration;

/// Frame type: the stream header (must be the first frame).
pub const FRAME_HEADER: u8 = 1;
/// Frame type: one encrypted chunk.
pub const FRAME_CHUNK: u8 = 2;
/// Frame type: the trailer (must be the last frame before the end marker).
pub const FRAME_TRAILER: u8 = 3;

/// Totals of one finished stream ([`Engine::run_streaming`],
/// [`Engine::resume_streaming`], or [`StreamJob::finish`](crate::StreamJob::finish)).
#[derive(Debug)]
pub struct StreamOutcome {
    /// Per-chunk provenance, identical in content to the in-memory path's records
    /// (`worker` is always 0: the streaming path is single-in-flight by design).
    pub chunks: Vec<ChunkRecord>,
    /// Plaintext rows consumed from the source.
    pub rows: usize,
    /// Encrypted rows written to the stream.
    pub encrypted_rows: usize,
    /// Total bytes written, preamble and frame headers included.
    pub bytes_written: u64,
    /// The merged encryption report (also persisted in the trailer).
    pub report: EncryptionReport,
}

impl Engine {
    /// Encrypt a [`RowSource`] chunk by chunk into an `F2WS` v2 frame stream.
    ///
    /// Peak memory is bounded by one chunk (plaintext + its ciphertext) plus the
    /// job's two kept buffers — one encoded chunk payload and one frame, each
    /// sized to the largest chunk so far and dropped at `finish` — plus the
    /// per-chunk [`ChunkRecord`]s, independent of the dataset size. The configured
    /// worker count is deliberately not used here: reading ahead `workers` chunks
    /// would trade the memory bound for parallelism, and the in-memory
    /// [`Engine::encrypt`] already covers the all-in-RAM parallel case with
    /// byte-identical output (same seeds, same chunk boundaries).
    ///
    /// The source must hand out **full chunks** (`chunk_rows` rows until the final
    /// partial chunk), which every `f2_io` source does; a short chunk mid-stream
    /// would shift chunk boundaries away from the in-memory path's and is rejected.
    ///
    /// An error from the source or the writer fails the run and leaves a prefix
    /// of the stream that [`Engine::resume_streaming`] finishes. To absorb
    /// transient I/O errors instead, read CSV through
    /// [`CsvSource::with_retry`](f2_io::CsvSource::with_retry) and hand in a
    /// [`RetryPolicy::writer`](f2_io::RetryPolicy::writer).
    pub fn run_streaming<W: Write>(
        &self,
        scheme: &dyn Scheme,
        source: &mut dyn RowSource,
        writer: W,
    ) -> Result<StreamOutcome> {
        let mut job = self.open_job(scheme, source.schema(), writer)?;
        job.pump(scheme, source)?;
        job.finish()
    }
}

/// Validate that a stored chunk record carries the seed this engine would have
/// derived for its index — resume refuses to extend a stream whose chunk seeds
/// were not produced from the engine seed it holds. Lives here so seed
/// derivation stays inside the chunk-seed-authority files.
pub(crate) fn verify_chunk_seed(engine_seed: u64, index: u64, stored: u64) -> Result<()> {
    if chunk_seed(engine_seed, index) != stored {
        return Err(F2Error::UnsupportedInput(format!(
            "stream chunk {index} was encrypted under a different engine seed"
        )));
    }
    Ok(())
}

// ── frame codec ────────────────────────────────────────────────────────────────────

fn malformed(message: &str) -> F2Error {
    F2Error::UnsupportedInput(format!("malformed F2WS stream: {message}"))
}

/// The decoded header frame of one stream.
#[derive(Debug)]
pub(crate) struct StreamHeader {
    pub(crate) scheme: String,
    pub(crate) seed: u64,
    pub(crate) chunk_rows: usize,
    pub(crate) schema: Schema,
}

/// Lay out the header frame's payload.
pub(crate) fn encode_header(
    scheme: &str,
    seed: u64,
    chunk_rows: usize,
    schema: &Schema,
) -> Vec<u8> {
    let mut w = Writer::raw();
    w.put_str(scheme);
    w.put_u64(seed);
    w.put_usize(chunk_rows);
    put_schema(&mut w, schema);
    w.finish()
}

/// Inverse of [`encode_header`].
pub(crate) fn decode_header(payload: &[u8]) -> Result<StreamHeader> {
    let mut r = Reader::raw(payload);
    let scheme = r.str()?;
    let seed = r.u64()?;
    let chunk_rows = r.usize()?;
    let schema = take_schema(&mut r)?;
    r.finish()?;
    Ok(StreamHeader { scheme, seed, chunk_rows, schema })
}

/// Lay out one chunk frame's payload in `payload`, replacing what it held: the
/// chunk's record, its owner state, and its encrypted rows. The buffer keeps its
/// capacity, so a writer that passes the same one for every chunk allocates only
/// when a chunk outgrows all before it.
pub(crate) fn encode_chunk(
    record: &ChunkRecord,
    outcome: &SchemeOutcome,
    payload: &mut Vec<u8>,
) -> Result<()> {
    let state = encode_state(&outcome.state)?;
    let mut w = Writer::raw_in(std::mem::take(payload));
    put_chunk_record(&mut w, record);
    w.put_bytes(&state);
    put_table(&mut w, &outcome.encrypted);
    *payload = w.finish();
    Ok(())
}

/// Inverse of [`encode_chunk`]: the record, the owner-state blob, and the
/// undecoded table blob ([`decode_chunk_table`] decodes it) as a view of the
/// payload, so the cells decoded from it are views of the payload too.
pub(crate) fn decode_chunk(payload: &Bytes) -> Result<(ChunkRecord, &[u8], Bytes)> {
    let mut r = Reader::raw(payload);
    let record = take_chunk_record(&mut r)?;
    let state = r.bytes()?;
    let table = take_range(&mut r, payload)?;
    let table = match payload.get(table.clone()) {
        Some(_) => payload.slice(table),
        None => return Err(malformed("table blob outside its chunk payload")),
    };
    r.finish()?;
    Ok((record, state, table))
}

/// Decode a chunk's table blob, building only the `selected` rows (every row for
/// `None`) and checking every cell; the blob's row count must match the record's
/// output range.
fn decode_chunk_table(
    record: &ChunkRecord,
    table: &Bytes,
    selected: Option<&[usize]>,
) -> Result<Table> {
    let (encrypted, rows) = decode_table_rows(table, selected)?;
    if rows != record.output_rows.len() {
        return Err(malformed("chunk row count disagrees with its record"));
    }
    Ok(encrypted)
}

/// Decode only a chunk frame's leading record — what the resume pass checks
/// before it replays the chunk, leaving the owner state and the table undecoded.
pub(crate) fn decode_chunk_record(payload: &[u8]) -> Result<ChunkRecord> {
    take_chunk_record(&mut Reader::raw(payload))
}

/// Decrypt one chunk with its own (chunk-local) owner state — the one chunk-decrypt
/// step of every reader that decrypts ([`decrypt_streaming`], lossy salvage, and
/// the source-free resume replay). Only the rows decryption reads are built
/// ([`OwnerState::select_read_rows`]: F²'s real rows and conflict companions),
/// though every cell is checked; `scheme`'s `decrypt` refuses a state of another
/// backend, and a chunk that decrypts to other than the record's plaintext row
/// count is refused before any caller sees it.
pub(crate) fn decrypt_chunk(
    scheme: &dyn Scheme,
    record: &ChunkRecord,
    state: &[u8],
    table: &Bytes,
) -> Result<Table> {
    let (rows, state) = decode_state(state)?.select_read_rows(record.output_rows.len())?;
    let encrypted = decode_chunk_table(record, table, rows.as_deref())?;
    let plain =
        scheme.decrypt(&SchemeOutcome { encrypted, state, report: EncryptionReport::default() })?;
    if plain.row_count() != record.rows.len() {
        return Err(malformed(&format!(
            "chunk {} decrypts to {} rows, its record covers {}",
            record.index,
            plain.row_count(),
            record.rows.len()
        )));
    }
    Ok(plain)
}

/// The decoded trailer frame: the stream's totals and its merged report.
pub(crate) struct Trailer {
    pub(crate) chunks: usize,
    pub(crate) rows: usize,
    pub(crate) encrypted_rows: usize,
    pub(crate) report: EncryptionReport,
}

/// Lay out the trailer frame's payload for a finished stream.
pub(crate) fn encode_trailer(progress: &StreamProgress) -> Vec<u8> {
    let mut w = Writer::raw();
    w.put_usize(progress.chunks.len());
    w.put_usize(progress.rows);
    w.put_usize(progress.encrypted_rows);
    // Persist the structural report (row overheads, MAS/EC counts) with the
    // wall-clock step timings zeroed: like `ChunkRecord::wall`, timings vary run
    // to run and would make equal datasets produce byte-different streams.
    let mut persisted = progress.report.clone();
    persisted.timings = Default::default();
    put_report(&mut w, &persisted);
    w.finish()
}

/// Inverse of [`encode_trailer`].
pub(crate) fn decode_trailer(payload: &[u8]) -> Result<Trailer> {
    let mut r = Reader::raw(payload);
    let chunks = r.usize()?;
    let rows = r.usize()?;
    let encrypted_rows = r.usize()?;
    let report = take_report(&mut r)?;
    r.finish()?;
    Ok(Trailer { chunks, rows, encrypted_rows, report })
}

// Scheduling diagnostics (`worker`, `wall`) are deliberately NOT part of the wire
// format: they vary run to run, and persisting them would make two streams of the
// same dataset byte-different — breaking reproducible artifacts and the frozen v2
// golden vectors. Loaded records report `worker = 0` and `wall = 0`.

fn put_chunk_record(w: &mut Writer, record: &ChunkRecord) {
    w.put_usize(record.index);
    w.put_usize(record.rows.start);
    w.put_usize(record.rows.end);
    w.put_usize(record.output_rows.start);
    w.put_usize(record.output_rows.end);
    w.put_u64(record.seed);
}

fn take_chunk_record(r: &mut Reader<'_>) -> Result<ChunkRecord> {
    let index = r.usize()?;
    let rows = r.usize()?..r.usize()?;
    let output_rows = r.usize()?..r.usize()?;
    let seed = r.u64()?;
    if rows.start > rows.end || output_rows.start > output_rows.end {
        return Err(malformed("chunk record has a reversed row range"));
    }
    Ok(ChunkRecord { index, rows, output_rows, seed, worker: 0, wall: Duration::ZERO })
}

// ── readers ────────────────────────────────────────────────────────────────────────

/// Drive a [`FrameReader`] over a stream, dispatching each frame: the header is
/// validated against `scheme`, every chunk goes to `on_chunk` (in order, with its
/// decoded record, owner state blob, and undecoded table blob), and the header and
/// trailer come back to the caller. Shared by [`load_streamed_outcome`] and
/// [`decrypt_streaming`] so both enforce the same structure. Each chunk frame's
/// payload becomes one [`Bytes`] without a copy, and the table blob is a view of
/// it.
fn walk_stream<R: Read>(
    scheme_name: &str,
    reader: R,
    mut on_chunk: impl FnMut(ChunkRecord, &[u8], &Bytes) -> Result<()>,
) -> Result<(StreamHeader, Trailer)> {
    let mut frames = FrameReader::new(reader)?;
    let first = frames.next_frame()?.ok_or_else(|| malformed("empty stream (no header frame)"))?;
    if first.frame_type != FRAME_HEADER {
        return Err(malformed("stream does not start with a header frame"));
    }
    let header = decode_header(&first.payload)?;
    if header.scheme != scheme_name {
        return Err(F2Error::UnsupportedInput(format!(
            "stream was produced by the `{}` scheme, loader holds `{scheme_name}`",
            header.scheme
        )));
    }

    let mut chunk_count = 0usize;
    // Running end positions: chunk ranges must tile the plaintext and output tables
    // gaplessly from 0 — a CRC only certifies transport, not a well-behaved
    // producer, and a gapped or overlapping range would silently corrupt the merged
    // owner state's row offsets.
    let mut next_row = 0usize;
    let mut next_output_row = 0usize;
    let trailer = loop {
        let frame = frames
            .next_frame()?
            .ok_or_else(|| malformed("stream ended without a trailer frame"))?;
        match frame.frame_type {
            FRAME_CHUNK => {
                let payload = Bytes::from(frame.payload);
                let (record, state, table) = decode_chunk(&payload)?;
                if record.index != chunk_count {
                    return Err(malformed(&format!(
                        "chunk {} arrived at position {chunk_count}",
                        record.index
                    )));
                }
                if record.rows.start != next_row || record.output_rows.start != next_output_row {
                    return Err(malformed(&format!(
                        "chunk {} covers rows {:?} → output {:?}, expected them to start at \
                         {next_row} → {next_output_row}",
                        record.index, record.rows, record.output_rows
                    )));
                }
                next_row = record.rows.end;
                next_output_row = record.output_rows.end;
                on_chunk(record, state, &table)?;
                chunk_count += 1;
            }
            FRAME_TRAILER => break decode_trailer(&frame.payload)?,
            other => return Err(malformed(&format!("unknown frame type {other}"))),
        }
    };
    if trailer.chunks != chunk_count
        || trailer.rows != next_row
        || trailer.encrypted_rows != next_output_row
    {
        return Err(malformed("trailer totals disagree with the chunk frames"));
    }
    if frames.next_frame()?.is_some() {
        return Err(malformed("frames after the trailer"));
    }
    Ok((header, trailer))
}

/// Reassemble a whole [`SchemeOutcome`] (plus the per-chunk provenance) from a v2
/// stream: chunks are appended in order and their owner states merged through
/// [`OwnerState::merge`] — the same fold the in-memory path runs, so the loaded
/// outcome is artifact-identical to [`Engine::encrypt`]'s. The owner states are not
/// checked against `scheme` here: its `decrypt` refuses a state of another backend.
///
/// Memory: the loaded table's ciphertext cells are views of their chunk frames'
/// payloads, not copies, so each payload (its cells' length prefixes and its owner
/// state blob included) stays in memory for as long as a cell of its chunk does.
pub fn load_streamed_outcome<R: Read>(
    scheme: &dyn Scheme,
    reader: R,
) -> Result<(SchemeOutcome, Vec<ChunkRecord>)> {
    let mut encrypted: Option<Table> = None;
    let mut chunk_states: Vec<ChunkState> = Vec::new();
    let mut records: Vec<ChunkRecord> = Vec::new();
    let (header, trailer) = walk_stream(scheme.name(), reader, |record, state, table| {
        let chunk_table = decode_chunk_table(&record, table, None)?;
        chunk_states.push(ChunkState {
            row_offset: record.rows.start,
            output_offset: record.output_rows.start,
            state: decode_state(state)?,
        });
        match &mut encrypted {
            None => encrypted = Some(chunk_table),
            Some(table) => table.append(chunk_table)?,
        }
        records.push(record);
        Ok(())
    })?;
    let outcome = match encrypted {
        Some(encrypted) => {
            // walk_stream already forced the chunk ranges to tile gaplessly and the
            // trailer totals to match them.
            debug_assert_eq!(encrypted.row_count(), trailer.encrypted_rows);
            let state = OwnerState::merge(chunk_states)?;
            SchemeOutcome { encrypted, state, report: trailer.report }
        }
        None => {
            if trailer.rows != 0 {
                return Err(malformed("rows recorded but no chunk frames"));
            }
            // Empty dataset: reconstruct the same empty outcome the in-memory path
            // produces for an empty table (chunk-0 seed, backend-shaped state).
            scheme.reseeded(chunk_seed(header.seed, 0)).encrypt(&Table::empty(header.schema))?
        }
    };
    Ok((outcome, records))
}

/// Decrypt a v2 stream **chunk by chunk**: each chunk's ciphertext is decrypted with
/// its own (chunk-local) owner state and handed to `emit` as a plaintext [`Table`],
/// so peak memory is one chunk regardless of the dataset size: the chunk's frame
/// payload, whose views are the ciphertext cells decryption reads (no cell is
/// copied), plus the plaintext rows it decrypts to. Returns the total number of
/// plaintext rows emitted.
pub fn decrypt_streaming<R: Read>(
    scheme: &dyn Scheme,
    reader: R,
    mut emit: impl FnMut(Table) -> Result<()>,
) -> Result<usize> {
    let mut emitted = 0usize;
    let (_, trailer) = walk_stream(scheme.name(), reader, |record, state, table| {
        let plain = decrypt_chunk(scheme, &record, state, table)?;
        emitted += plain.row_count();
        emit(plain)
    })?;
    if emitted != trailer.rows {
        return Err(malformed(&format!(
            "decrypted {emitted} rows, trailer promises {}",
            trailer.rows
        )));
    }
    Ok(emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::decode_table;
    use crate::pipeline::EngineConfig;
    use f2_core::{F2Scheme, RowOrigin, F2};
    use f2_io::frame::FrameSink;
    use f2_io::TableSource;
    use f2_relation::table;

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
    fn streamed_and_in_memory_paths_are_artifact_identical() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(33).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 2, seed: 33 }).unwrap();

        let in_memory = engine.encrypt(&scheme, &t).unwrap();
        let mut stream = Vec::new();
        let summary =
            engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();
        assert_eq!(summary.rows, t.row_count());
        assert_eq!(summary.chunks.len(), in_memory.chunks.len());

        let (loaded, records) = load_streamed_outcome(&scheme, &stream[..]).unwrap();
        assert_eq!(loaded.encrypted, in_memory.outcome.encrypted);
        assert_eq!(
            encode_state(&loaded.state).unwrap(),
            encode_state(&in_memory.outcome.state).unwrap()
        );
        for (streamed, in_mem) in records.iter().zip(&in_memory.chunks) {
            assert_eq!(streamed.rows, in_mem.rows);
            assert_eq!(streamed.output_rows, in_mem.output_rows);
            assert_eq!(streamed.seed, in_mem.seed);
        }
        assert!(scheme.decrypt(&loaded).unwrap().multiset_eq(&t));
    }

    #[test]
    fn chunkwise_streaming_decryption_recovers_the_table() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(7).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 2, seed: 7 }).unwrap();
        let mut stream = Vec::new();
        engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();

        let mut recovered: Option<Table> = None;
        let rows = decrypt_streaming(&scheme, &stream[..], |chunk| {
            match &mut recovered {
                None => recovered = Some(chunk),
                Some(all) => all.append(chunk)?,
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, t.row_count());
        assert!(recovered.unwrap().multiset_eq(&t));
    }

    #[test]
    fn empty_sources_stream_and_load() {
        let t = Table::empty(fixture().schema().clone());
        let scheme = F2::builder().seed(5).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 4, seed: 5 }).unwrap();
        let mut stream = Vec::new();
        let summary =
            engine.run_streaming(&scheme, &mut TableSource::new(&t), &mut stream).unwrap();
        assert_eq!(summary.rows, 0);
        assert!(summary.chunks.is_empty());
        let (loaded, records) = load_streamed_outcome(&scheme, &stream[..]).unwrap();
        assert!(records.is_empty());
        assert_eq!(loaded.encrypted.row_count(), 0);
        assert!(scheme.decrypt(&loaded).unwrap().multiset_eq(&t));
    }

    #[test]
    fn wrong_scheme_is_rejected_by_name() {
        let t = fixture();
        let f2 = F2::builder().alpha(0.5).seed(3).build().unwrap();
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 3, seed: 3 }).unwrap();
        let mut stream = Vec::new();
        engine.run_streaming(&f2, &mut TableSource::new(&t), &mut stream).unwrap();
        let det = f2_core::DetScheme::new(f2_crypto::MasterKey::from_seed(3));
        let err = load_streamed_outcome(&det, &stream[..]).unwrap_err();
        assert!(err.to_string().contains("`f2`"), "{err}");
    }

    #[test]
    fn a_foreign_owner_state_in_an_intact_frame_is_refused_at_decryption() {
        // A CRC-valid stream whose header names `f2` while its chunk frames and
        // trailer come from a deterministic-AES stream over the same table.
        let t = fixture();
        let f2 = F2::builder().alpha(0.5).seed(3).build().unwrap();
        let det = f2_core::DetScheme::new(f2_crypto::MasterKey::from_seed(3));
        let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 4, seed: 3 }).unwrap();
        let frames_of = |scheme: &dyn Scheme| {
            let mut stream = Vec::new();
            engine.run_streaming(scheme, &mut TableSource::new(&t), &mut stream).unwrap();
            let mut reader = FrameReader::new(&stream[..]).unwrap();
            let mut frames = Vec::new();
            while let Some(frame) = reader.next_frame().unwrap() {
                frames.push(frame);
            }
            frames
        };
        let (f2_frames, det_frames) = (frames_of(&f2), frames_of(&det));
        let mut sink = FrameSink::new(Vec::new()).unwrap();
        sink.write_frame(FRAME_HEADER, &f2_frames[0].payload).unwrap();
        for frame in &det_frames[1..] {
            sink.write_frame(frame.frame_type, &frame.payload).unwrap();
        }
        let (spliced, _) = sink.finish().unwrap();
        let chunks = det_frames.iter().filter(|f| f.frame_type == FRAME_CHUNK).count();
        assert_eq!(chunks, 2);

        // Chunk-wise decryption fails, and salvage counts every chunk lost.
        assert!(decrypt_streaming(&f2, &spliced[..], |_| Ok(())).is_err());
        let damage = crate::decrypt_streaming_lossy(&f2, &spliced[..], |_| Ok(())).unwrap();
        assert_eq!((damage.chunks_recovered, damage.chunks_lost), (0, chunks));
        // The keyless codec loads the outcome; the F² holder's decrypt refuses it.
        let (outcome, _) = load_streamed_outcome(&f2, &spliced[..]).unwrap();
        let err = f2.decrypt(&outcome).unwrap_err();
        assert!(err.to_string().contains("owner state type mismatch"), "{err}");
    }

    fn orders() -> Table {
        f2_datagen::Dataset::Orders.generate(600, 42)
    }

    fn orders_engine() -> Engine {
        Engine::new(EngineConfig { workers: 1, chunk_rows: 256, seed: 11 }).unwrap()
    }

    /// An F² stream of 600 Orders rows in 256-row chunks at α = 0.5.
    fn orders_stream() -> (F2Scheme, Vec<u8>) {
        let scheme = F2::builder().alpha(0.5).seed(11).build().unwrap();
        let mut stream = Vec::new();
        orders_engine()
            .run_streaming(&scheme, &mut TableSource::new(&orders()), &mut stream)
            .unwrap();
        (scheme, stream)
    }

    /// A chunk frame payload laid out exactly as `encode_chunk` lays it out, except
    /// that the cell at `bad_cell` (row, attribute) is written as the undecodable
    /// encoding `[9]` (tag 9 names no `Value` variant).
    fn chunk_payload(
        record: &ChunkRecord,
        state: &OwnerState,
        table: &Table,
        bad_cell: Option<(usize, usize)>,
    ) -> Vec<u8> {
        let mut blob = Writer::versioned(crate::persist::KIND_TABLE);
        put_schema(&mut blob, table.schema());
        blob.put_usize(table.row_count());
        for (row, rec) in table.iter() {
            for (attr, value) in rec.values().iter().enumerate() {
                if bad_cell == Some((row, attr)) {
                    blob.put_bytes(&[9]);
                } else {
                    blob.put_value(value);
                }
            }
        }
        let mut w = Writer::raw();
        put_chunk_record(&mut w, record);
        w.put_bytes(&encode_state(state).unwrap());
        w.put_bytes(&blob.finish());
        w.finish()
    }

    /// Re-frame `stream` with chunk 0's payload rebuilt by `edit` from its decoded
    /// record, owner state, and table: every frame stays CRC-valid.
    fn with_chunk_0(
        stream: &[u8],
        edit: impl FnOnce(&mut ChunkRecord, &mut OwnerState, &mut Table) -> Option<(usize, usize)>,
    ) -> Vec<u8> {
        let mut reader = FrameReader::new(stream).unwrap();
        let mut sink = FrameSink::new(Vec::new()).unwrap();
        let mut edit = Some(edit);
        while let Some(frame) = reader.next_frame().unwrap() {
            let mut payload = frame.payload;
            if frame.frame_type == FRAME_CHUNK {
                if let Some(edit) = edit.take() {
                    let shared = Bytes::copy_from_slice(&payload);
                    let (mut record, state, table) = decode_chunk(&shared).unwrap();
                    let (mut state, mut table) =
                        (decode_state(state).unwrap(), decode_table(&table).unwrap());
                    assert_eq!(chunk_payload(&record, &state, &table, None), payload);
                    let bad_cell = edit(&mut record, &mut state, &mut table);
                    payload = chunk_payload(&record, &state, &table, bad_cell);
                }
            }
            sink.write_frame(frame.frame_type, &payload).unwrap();
        }
        sink.finish().unwrap().0
    }

    #[test]
    fn decoded_ciphertext_cells_are_views_of_their_frame_payload() {
        let (scheme, stream) = orders_stream();
        let mut frames = FrameReader::new(&stream[..]).unwrap();
        let mut chunks = 0;
        while let Some(frame) = frames.next_frame().unwrap() {
            if frame.frame_type != FRAME_CHUNK {
                continue;
            }
            let payload = Bytes::from(frame.payload);
            let heap = payload.as_ptr_range();
            let (record, state, table) = decode_chunk(&payload).unwrap();
            let (read, _) =
                decode_state(state).unwrap().select_read_rows(record.output_rows.len()).unwrap();
            // Every row, and the rows decryption reads, alike.
            for selected in [None, read.as_deref()] {
                let decoded = decode_chunk_table(&record, &table, selected).unwrap();
                assert!(decoded.row_count() > 0);
                for (_, row) in decoded.iter() {
                    for cell in row.values() {
                        let cell = cell.as_bytes().expect("every cell is ciphertext");
                        let range = cell.as_ptr_range();
                        assert!(heap.start <= range.start && range.end <= heap.end, "a view");
                    }
                }
            }
            assert_eq!(
                decrypt_chunk(&scheme, &record, state, &table).unwrap().row_count(),
                record.rows.len()
            );
            chunks += 1;
        }
        assert_eq!(chunks, 3);
    }

    fn provenance(state: &mut OwnerState) -> &mut f2_core::Provenance {
        match state {
            OwnerState::F2(state) => &mut state.provenance,
            OwnerState::CellWise(_) => panic!("an F² stream carries F² states"),
        }
    }

    #[test]
    fn a_chunk_that_decrypts_to_fewer_rows_than_its_record_is_refused_before_emit() {
        let (scheme, stream) = orders_stream();
        // Retag chunk 0's last real row as a scale copy: the Real rows still name
        // 0..255 once each, so the chunk decrypts, but to 255 of its 256 rows.
        let damaged = with_chunk_0(&stream, |_, state, _| {
            let origins = &mut provenance(state).origins;
            let last = origins
                .iter_mut()
                .max_by_key(|origin| match origin {
                    RowOrigin::Real { original_row } => Some(*original_row),
                    _ => None,
                })
                .unwrap();
            *last = RowOrigin::ScaleCopy { mas_index: 0 };
            None
        });
        let mut emitted = Vec::new();
        let err = decrypt_streaming(&scheme, &damaged[..], |chunk| {
            emitted.push(chunk.row_count());
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("decrypts to 255 rows"), "{err}");
        assert!(emitted.is_empty(), "emit saw {emitted:?}");

        let mut emitted = Vec::new();
        let damage = crate::decrypt_streaming_lossy(&scheme, &damaged[..], |chunk| {
            emitted.push(chunk.row_count());
            Ok(())
        })
        .unwrap();
        assert_eq!(emitted, [256, 88]);
        assert_eq!((damage.chunks_recovered, damage.chunks_lost), (2, 1));
        assert_eq!(damage.rows_lost, Some(256));
        assert!(!damage.is_lossless());
    }

    #[test]
    fn malformed_chunks_in_intact_frames_are_refused_and_counted_lost() {
        let (scheme, stream) = orders_stream();
        type Edit = fn(&mut ChunkRecord, &mut OwnerState, &mut Table) -> Option<(usize, usize)>;
        let cases: [(&str, Edit); 5] = [
            // An undecodable cell in an artificial row, which decryption never reads.
            ("artificial-row cell", |_, state, _| {
                let row = provenance(state).origins.iter().position(|o| {
                    matches!(o, RowOrigin::ScaleCopy { .. } | RowOrigin::GroupFake { .. })
                });
                Some((row.unwrap(), 1))
            }),
            ("real-row cell", |_, state, _| {
                Some((provenance(state).origins.iter().position(RowOrigin::is_real).unwrap(), 0))
            }),
            ("table rows disagree with the record", |_, state, table| {
                let rows = table.row_count() - 1;
                *table = table.truncated(rows);
                provenance(state).origins.truncate(rows);
                None
            }),
            ("provenance length", |_, state, _| {
                provenance(state).origins.push(RowOrigin::ScaleCopy { mas_index: 0 });
                None
            }),
            ("companion out of range", |record, state, _| {
                provenance(state).patches.insert(0, vec![(0, record.output_rows.len())]);
                None
            }),
        ];
        for (case, edit) in cases {
            let damaged = with_chunk_0(&stream, edit);
            let mut emitted = 0;
            let result = decrypt_streaming(&scheme, &damaged[..], |_| {
                emitted += 1;
                Ok(())
            });
            assert!(result.is_err(), "{case}: decrypt_streaming accepted the chunk");
            assert_eq!(emitted, 0, "{case}");
            let damage = crate::decrypt_streaming_lossy(&scheme, &damaged[..], |_| Ok(())).unwrap();
            assert_eq!((damage.chunks_recovered, damage.chunks_lost), (2, 1), "{case}");
            assert!(!damage.is_lossless(), "{case}");
            // The source-free resume replays chunk 0 through the same step and
            // refuses it, leaving the store as it found it.
            let mut store = std::io::Cursor::new(damaged.clone());
            let resumed = orders_engine().resume_job(&scheme, orders().schema(), &mut store);
            assert!(resumed.is_err(), "{case}: resume_job accepted the chunk");
            assert!(store.into_inner() == damaged, "{case}");
        }
    }

    #[test]
    fn a_cell_wise_chunk_claiming_a_huge_output_range_is_refused_without_allocating_it() {
        let key = f2_crypto::MasterKey::from_seed(41);
        let schemes: [Box<dyn Scheme>; 2] = [
            Box::new(f2_core::DetScheme::new(key.clone())),
            Box::new(f2_core::ProbScheme::new(key, 5)),
        ];
        for scheme in &schemes {
            let mut stream = Vec::new();
            orders_engine()
                .run_streaming(scheme.as_ref(), &mut TableSource::new(&orders()), &mut stream)
                .unwrap();
            // Chunk 0 may start at output row 0 and end anywhere: the record alone
            // must not size anything before the table blob's row count refutes it.
            let damaged = with_chunk_0(&stream, |record, _, _| {
                record.output_rows = 0..usize::MAX / 2;
                None
            });
            let mut emitted = 0;
            let err = decrypt_streaming(scheme.as_ref(), &damaged[..], |_| {
                emitted += 1;
                Ok(())
            })
            .unwrap_err();
            assert!(err.to_string().contains("row count disagrees"), "{}: {err}", scheme.name());
            assert_eq!(emitted, 0, "{}", scheme.name());
            let damage =
                crate::decrypt_streaming_lossy(scheme.as_ref(), &damaged[..], |_| Ok(())).unwrap();
            assert_eq!((damage.chunks_recovered, damage.chunks_lost), (2, 1), "{}", scheme.name());
            assert!(!damage.is_lossless(), "{}", scheme.name());
        }
    }
}
