//! Crash-safe resume of an interrupted `F2WS` v2 stream: one protocol, two
//! entry points.
//!
//! lint: untrusted-input — the scan and replay below decode a possibly damaged
//! stream.
//!
//! A streaming encryption job that dies mid-write leaves a *prefix* of a valid
//! stream behind: the preamble, the header frame, some number of complete
//! chunk frames, and usually a torn frame at the tail. Resume turns that
//! wreckage back into exactly the stream an uninterrupted run would have
//! produced, in four steps:
//!
//! 1. **Scan** — walk the store's frames, validating the header against the
//!    engine configuration, scheme, and schema, and each chunk record's
//!    continuity and seed, until the first damage (torn or checksum-failing
//!    frame) or the trailer. Only each chunk's record is decoded, never its
//!    table.
//! 2. **Replay** — rebuild the running report of the chunks the prefix holds,
//!    the same way for every backend: re-encrypt each prefix chunk under its
//!    stored, seed-verified chunk seed and require the rebuilt frame payload to
//!    CRC-match the stored one. The plaintext it re-encrypts comes from the
//!    source when one is given — proving the source unchanged since the
//!    interrupted run — and otherwise from decrypting the stored chunk —
//!    proving the store, owner state, and key material still agree. That
//!    decryption is the readers' one chunk-decrypt step (see [`crate::stream`]):
//!    it builds only the rows decryption reads, checks every cell, and refuses a
//!    chunk whose decrypted rows disagree with its record.
//! 3. **Truncate** — only once the replay has accepted the prefix, cut the
//!    store back to the end of the last complete chunk frame; a torn tail is
//!    unusable by construction, and a surviving trailer is rewritten rather
//!    than trusted (its totals must cover the whole run). A refused resume
//!    therefore leaves the store exactly as it found it.
//! 4. **Continue** — hand back a [`StreamJob`] positioned at the next chunk,
//!    so the remaining chunks, the trailer, and the end frame go through the
//!    one writer every stream uses.
//!
//! The two entry points differ only in where the rows come from:
//! [`Engine::resume_streaming`] pulls the original source from its first row,
//! replaying the prefix from it and continuing past it, while
//! [`Engine::resume_job`] takes no source, replays the prefix from the store,
//! and leaves the caller to append rows from [`StreamJob::rows`] onward.
//!
//! The result is **byte-identical** to the uninterrupted stream at every
//! interruption point (pinned per backend by `tests/resume_golden.rs` and
//! `tests/job_push.rs`): chunk seeds are pure functions of the engine seed and
//! chunk index, ciphertexts are deterministic given those seeds, and the
//! persisted trailer zeroes its run-varying timings. A store damaged before its
//! first chunk frame (torn preamble or header) has no usable prefix and is
//! restarted from scratch. Resumes are counted in `f2_engine_resume_total`.

use crate::job::{pull, truncate_store, StreamJob, StreamProgress};
use crate::pipeline::{ChunkRecord, Engine};
use crate::stream::{
    decode_chunk, decode_chunk_record, decode_header, decrypt_chunk, encode_chunk,
    verify_chunk_seed, StreamOutcome, FRAME_CHUNK, FRAME_HEADER,
};
use f2_core::{F2Error, Result, Scheme, SchemeOutcome};
use f2_io::frame::{crc32, FrameReader};
use f2_io::{IoError, RetryPolicy, RowSource, StreamStore};
use f2_relation::Schema;
use std::io::{Read, Seek, SeekFrom};

/// The validated prefix of an interrupted stream: everything before the first
/// damaged byte (or before the trailer, for a stream that only lost its tail).
struct StreamPrefix {
    /// Complete chunk records in order, continuity- and seed-verified.
    records: Vec<ChunkRecord>,
    /// CRC32 of each chunk frame's (decompressed) payload — what the replay
    /// compares its re-encryptions against.
    payload_crcs: Vec<u32>,
    /// Store offset one past the last complete chunk frame: the resume point.
    bytes: u64,
    /// Frames in the prefix (header + chunks) — seeds the resumed sink's count.
    frames: u64,
}

impl Engine {
    /// Resume an interrupted [`Engine::run_streaming`] job in `store`,
    /// producing a stream **byte-identical** to the one an uninterrupted run
    /// over the same `scheme`, `source`, and engine configuration would have
    /// written. `source` must be the original source, rewound to its first
    /// row: resume re-encrypts and verifies the rows the surviving prefix
    /// already covers before continuing with the rest.
    ///
    /// The engine seed and `chunk_rows` must match the interrupted run's; a
    /// readable header that contradicts them (or the scheme, or the source
    /// schema) is an error rather than damage, and every refusal leaves the
    /// store untouched. A store torn before its first chunk frame is truncated
    /// to zero and re-encrypted from scratch.
    pub fn resume_streaming<T: StreamStore>(
        &self,
        scheme: &dyn Scheme,
        source: &mut dyn RowSource,
        store: &mut T,
    ) -> Result<StreamOutcome> {
        let schema = source.schema().clone();
        let mut job = self.reopen(scheme, &schema, store, Some(&mut *source))?;
        job.pump(scheme, source, &self.retry_policy())?;
        job.finish()
    }

    /// Reopen an interrupted push-model stream in `store`, returning a job
    /// positioned after the last intact chunk frame; everything past it
    /// (torn bytes, or the trailer of a finished stream) is truncated away.
    /// The caller continues by appending rows from [`StreamJob::rows`] onward
    /// — appends then produce a stream byte-identical to an uninterrupted one.
    ///
    /// A store torn before its first chunk frame starts over from scratch
    /// (exactly [`Engine::begin_job`]); a readable header that contradicts the
    /// scheme, engine configuration, or `schema` is an error, not damage. No
    /// source is needed: the prefix is verified by decrypting and
    /// re-encrypting the stored chunks (see the [module docs](self)), which
    /// catches a store/key mismatch before any byte of the store changes.
    pub fn resume_job<T: StreamStore>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        store: T,
    ) -> Result<StreamJob<T>> {
        self.reopen(scheme, schema, store, None)
    }

    /// The one reopen behind both entry points: scan → replay → truncate.
    fn reopen<T: StreamStore>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        mut store: T,
        source: Option<&mut dyn RowSource>,
    ) -> Result<StreamJob<T>> {
        crate::obs::resumes().inc();
        store.seek(SeekFrom::Start(0)).map_err(IoError::Io)?;
        let Some(prefix) = self.scan_prefix(scheme, schema, &mut store)? else {
            // Nothing usable survives a torn preamble or header frame.
            return self.begin_job(scheme, schema, store);
        };
        let progress = replay_prefix(scheme, &prefix, &mut store, source, &self.retry_policy())?;
        truncate_store(&mut store, prefix.bytes)?;
        Ok(StreamJob::resumed(self, store, prefix.bytes, prefix.frames, progress))
    }

    /// Scan the store for its intact prefix. `Ok(None)` means no usable prefix
    /// (torn preamble or header frame); a readable header that contradicts the
    /// engine configuration, scheme, or schema is a hard error — the caller
    /// would otherwise splice two different runs into one stream.
    fn scan_prefix(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        reader: impl Read,
    ) -> Result<Option<StreamPrefix>> {
        let Ok(mut frames) = FrameReader::new(reader) else { return Ok(None) };
        let header = match frames.next_frame() {
            Ok(Some(frame)) if frame.frame_type == FRAME_HEADER => frame,
            Ok(_) | Err(_) => return Ok(None),
        };
        // The frame passed its CRC, so an undecodable header is a producer bug,
        // not transport damage — but either way there is no prefix to keep.
        let Ok(header) = decode_header(&header.payload) else { return Ok(None) };
        if header.scheme != scheme.name() {
            return Err(F2Error::UnsupportedInput(format!(
                "stream was produced by the `{}` scheme, resume holds `{}`",
                header.scheme,
                scheme.name()
            )));
        }
        let (seed, chunk_rows) = (header.seed, header.chunk_rows);
        if seed != self.config().seed || chunk_rows != self.config().chunk_rows {
            return Err(F2Error::UnsupportedInput(format!(
                "stream was produced with seed {seed} / chunk_rows {chunk_rows}, the resuming \
                 engine holds seed {} / chunk_rows {} — resume needs the original configuration",
                self.config().seed,
                self.config().chunk_rows
            )));
        }
        if &header.schema != schema {
            return Err(F2Error::UnsupportedInput(
                "stream header schema disagrees with the source — resume needs the original \
                 source"
                    .into(),
            ));
        }

        let mut records: Vec<ChunkRecord> = Vec::new();
        let mut payload_crcs = Vec::new();
        let mut bytes = frames.bytes_consumed();
        let mut frame_count = 1u64;
        loop {
            // Only a full-sized chunk may be followed by another: a short chunk
            // is the stream's final one, so the prefix cannot extend past it.
            if records.last().is_some_and(|prev| prev.rows.len() != chunk_rows) {
                break;
            }
            let frame = match frames.next_frame() {
                Ok(Some(frame)) if frame.frame_type == FRAME_CHUNK => frame,
                // Trailer, end marker, unknown frame type, torn or damaged
                // tail: the chunk prefix ends here — everything at and past
                // this offset is rewritten by the resumed run.
                _ => break,
            };
            let Ok(record) = decode_chunk_record(&frame.payload) else { break };
            let next_row = records.last().map_or(0, |prev| prev.rows.end);
            let next_output = records.last().map_or(0, |prev| prev.output_rows.end);
            if record.index != records.len()
                || record.rows.start != next_row
                || record.output_rows.start != next_output
                || record.rows.is_empty()
                || record.rows.len() > chunk_rows
            {
                break;
            }
            verify_chunk_seed(seed, record.index as u64, record.seed)?;
            payload_crcs.push(crc32(&frame.payload));
            records.push(record);
            bytes = frames.bytes_consumed();
            frame_count += 1;
        }
        Ok(Some(StreamPrefix { records, payload_crcs, bytes, frames: frame_count }))
    }
}

/// Rebuild the running totals of a scanned prefix by re-encrypting and
/// CRC-checking each of its chunks — the one replay behind both entry points.
/// `source`, when given, supplies the plaintext and is advanced past the
/// prefix; otherwise the plaintext comes from decrypting the chunks in `store`.
fn replay_prefix<T: Read + Seek>(
    scheme: &dyn Scheme,
    prefix: &StreamPrefix,
    store: &mut T,
    source: Option<&mut dyn RowSource>,
    retry: &RetryPolicy,
) -> Result<StreamProgress> {
    let covered = prefix.records.last().map_or(0, |last| last.rows.end);
    let mut progress = StreamProgress::start();
    // `Scheme::decrypt` restores original row order (F² provenance rows are
    // sorted by source index), so either way re-encrypting under the chunk's
    // recorded seed must reproduce the stored bytes exactly.
    let mut plaintext = match source {
        Some(source) => Plaintext::Source(source),
        None => {
            store.seek(SeekFrom::Start(0)).map_err(IoError::Io)?;
            let mut frames = FrameReader::new(store)?;
            // scan_prefix already validated the header frame; skip past it.
            next_stored_frame(&mut frames, FRAME_HEADER)?;
            Plaintext::Store(frames)
        }
    };
    for (record, &stored_crc) in prefix.records.iter().zip(&prefix.payload_crcs) {
        let reencrypted = match &mut plaintext {
            Plaintext::Source(source) => {
                pull_prefix_chunk(scheme, *source, record, covered, retry)?
            }
            Plaintext::Store(frames) => {
                let frame = next_stored_frame(frames, FRAME_CHUNK)?;
                let (stored, state, table) = decode_chunk(&frame)?;
                let plain = decrypt_chunk(scheme, &stored, state, table)?;
                scheme.reseeded(record.seed).encrypt(&plain)?
            }
        };
        if crc32(&encode_chunk(record, &reencrypted)?) != stored_crc {
            let cause = match plaintext {
                Plaintext::Source(_) => {
                    "re-encrypted from the source does not match the stored stream — the \
                     source changed since the interrupted run"
                }
                Plaintext::Store(_) => {
                    "re-encryption differs from the stored stream — the store was written \
                     under different key material or scheme parameters than the resuming \
                     scheme holds"
                }
            };
            return Err(F2Error::UnsupportedInput(format!("chunk {} {cause}", record.index)));
        }
        progress.push(record.clone(), &reencrypted.report);
    }
    Ok(progress)
}

/// Where the replay gets the plaintext of each prefix chunk.
enum Plaintext<'a, R: Read> {
    /// The original source, pulled again.
    Source(&'a mut dyn RowSource),
    /// The stored chunk frames, decrypted.
    Store(FrameReader<R>),
}

/// Pull one prefix chunk's rows again and re-encrypt them under the chunk's
/// recorded seed: the source must still hold exactly the rows `record` covers
/// at that position.
fn pull_prefix_chunk(
    scheme: &dyn Scheme,
    source: &mut dyn RowSource,
    record: &ChunkRecord,
    covered: usize,
    retry: &RetryPolicy,
) -> Result<SchemeOutcome> {
    let want = record.rows.len();
    pull(source, want, retry, |chunk| match chunk {
        None => Err(F2Error::UnsupportedInput(format!(
            "source ended at row {} but the stream prefix covers {covered} rows — resume needs \
             the original source, rewound to its first row",
            record.rows.start
        ))),
        Some(chunk) if chunk.row_count() != want => Err(F2Error::UnsupportedInput(format!(
            "source produced {} rows where the stream prefix recorded {want} — resume needs the \
             original source",
            chunk.row_count()
        ))),
        Some(chunk) => scheme.reseeded(record.seed).encrypt_view(&chunk),
    })
}

/// The payload of the store's next frame, which the scan saw as `frame_type`.
fn next_stored_frame<R: Read>(frames: &mut FrameReader<R>, frame_type: u8) -> Result<Vec<u8>> {
    match frames.next_frame()? {
        Some(frame) if frame.frame_type == frame_type => Ok(frame.payload),
        _ => Err(F2Error::UnsupportedInput(
            "stream changed between prefix scan and replay (a scanned frame vanished)".into(),
        )),
    }
}
