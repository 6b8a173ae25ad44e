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
//! source side is equally bounded, see `f2_io::CsvSource`). It is a
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
//! the resume scan and replay, the readers, and lossy salvage all go through the
//! codec functions below.
//!
//! Reading back:
//!
//! * [`load_streamed_outcome`] — reassemble the whole [`SchemeOutcome`] (table +
//!   merged owner state + report) for in-memory decryption;
//! * [`decrypt_streaming`] — decrypt **chunk by chunk**, handing each recovered
//!   plaintext chunk to a callback: constant-memory decryption for datasets that
//!   never fit in RAM (per-chunk owner states are chunk-local, so no merged state is
//!   needed).

use crate::job::StreamProgress;
use crate::persist::{
    decode_state, decode_table, encode_state, put_report, put_schema, put_table, take_report,
    take_schema,
};
use crate::pipeline::{chunk_seed, ChunkRecord, Engine};
use crate::wire::{Reader, Writer};
use f2_core::{ChunkState, EncryptionReport, F2Error, OwnerState, Result, Scheme, SchemeOutcome};
use f2_io::frame::FrameReader;
use f2_io::RowSource;
use f2_relation::{Schema, Table};
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
    /// Peak memory is bounded by one chunk (plaintext + its ciphertext + one frame
    /// buffer) plus the per-chunk [`ChunkRecord`]s — independent of the dataset
    /// size. The configured worker count is deliberately not used here: reading
    /// ahead `workers` chunks would trade the memory bound for parallelism, and the
    /// in-memory [`Engine::encrypt`] already covers the all-in-RAM parallel case
    /// with byte-identical output (same seeds, same chunk boundaries).
    ///
    /// The source must hand out **full chunks** (`chunk_rows` rows until the final
    /// partial chunk), which every `f2_io` source does; a short chunk mid-stream
    /// would shift chunk boundaries away from the in-memory path's and is rejected.
    pub fn run_streaming<W: Write>(
        &self,
        scheme: &dyn Scheme,
        source: &mut dyn RowSource,
        writer: W,
    ) -> Result<StreamOutcome> {
        let mut job = self.open_job(scheme, source.schema(), writer)?;
        job.pump(scheme, source, &self.retry_policy())?;
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

/// Lay out one chunk frame's payload: the chunk's record, its owner state, and
/// its encrypted rows.
pub(crate) fn encode_chunk(record: &ChunkRecord, outcome: &SchemeOutcome) -> Result<Vec<u8>> {
    let mut w = Writer::raw();
    put_chunk_record(&mut w, record);
    w.put_bytes(&encode_state(&outcome.state)?);
    put_table(&mut w, &outcome.encrypted);
    Ok(w.finish())
}

/// Inverse of [`encode_chunk`]: the record, the owner-state blob, and the
/// encrypted rows, whose count must match the record's output range.
pub(crate) fn decode_chunk(payload: &[u8]) -> Result<(ChunkRecord, &[u8], Table)> {
    let mut r = Reader::raw(payload);
    let record = take_chunk_record(&mut r)?;
    let state = r.bytes()?;
    let encrypted = decode_table(r.bytes()?)?;
    r.finish()?;
    if encrypted.row_count() != record.output_rows.len() {
        return Err(malformed("chunk row count disagrees with its record"));
    }
    Ok((record, state, encrypted))
}

/// Decode only a chunk frame's leading record — what the resume scan reads,
/// leaving the owner state and the table undecoded.
pub(crate) fn decode_chunk_record(payload: &[u8]) -> Result<ChunkRecord> {
    take_chunk_record(&mut Reader::raw(payload))
}

/// Decrypt one decoded chunk with its own (chunk-local) owner state; `scheme`'s
/// `decrypt` refuses a state of another backend.
pub(crate) fn decrypt_chunk(scheme: &dyn Scheme, state: &[u8], encrypted: Table) -> Result<Table> {
    let outcome = SchemeOutcome {
        encrypted,
        state: decode_state(state)?,
        report: EncryptionReport::default(),
    };
    scheme.decrypt(&outcome)
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
/// decoded record, owner state blob, and encrypted rows), and the header and
/// trailer come back to the caller. Shared by [`load_streamed_outcome`] and
/// [`decrypt_streaming`] so both enforce the same structure.
fn walk_stream<R: Read>(
    scheme_name: &str,
    reader: R,
    mut on_chunk: impl FnMut(ChunkRecord, &[u8], Table) -> Result<()>,
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
                let (record, state, encrypted) = decode_chunk(&frame.payload)?;
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
                on_chunk(record, state, encrypted)?;
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
pub fn load_streamed_outcome<R: Read>(
    scheme: &dyn Scheme,
    reader: R,
) -> Result<(SchemeOutcome, Vec<ChunkRecord>)> {
    let mut encrypted: Option<Table> = None;
    let mut chunk_states: Vec<ChunkState> = Vec::new();
    let mut records: Vec<ChunkRecord> = Vec::new();
    let (header, trailer) = walk_stream(scheme.name(), reader, |record, state, chunk_table| {
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
/// so peak memory is one chunk regardless of the dataset size. Returns the total
/// number of plaintext rows emitted.
pub fn decrypt_streaming<R: Read>(
    scheme: &dyn Scheme,
    reader: R,
    mut emit: impl FnMut(Table) -> Result<()>,
) -> Result<usize> {
    let mut emitted = 0usize;
    let (_, trailer) = walk_stream(scheme.name(), reader, |_, state, chunk_table| {
        let plain = decrypt_chunk(scheme, state, chunk_table)?;
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
    use crate::pipeline::EngineConfig;
    use f2_core::F2;
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
}
