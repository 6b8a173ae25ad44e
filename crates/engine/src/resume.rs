//! Crash-safe resume of an interrupted `F2WS` v2 stream: one protocol, two
//! entry points.
//!
//! lint: untrusted-input — the pass below decodes a possibly damaged stream.
//!
//! A streaming encryption job that dies mid-write leaves a *prefix* of a valid
//! stream behind: the preamble, the header frame, some number of complete
//! chunk frames, and usually a torn frame at the tail. Resume turns that
//! wreckage back into exactly the stream an uninterrupted run would have
//! produced, in three steps:
//!
//! 1. **Check and replay each chunk as it is read** — validate the header
//!    against the engine configuration, scheme, and schema, then read the
//!    store's chunk frames once, in order. A frame joins the prefix when its
//!    record continues the chunks before it (index, row ranges, and the chunk
//!    size rule) under the seed this engine derives for its index; the pass
//!    stops at the first damage (a torn or checksum-failing frame), at the
//!    trailer, at a record that does not fit, or after a short chunk. Each
//!    accepted chunk is replayed before the next frame is read: re-encrypted
//!    under its recorded seed, the rebuilt frame payload must equal the stored
//!    one byte for byte. The plaintext it re-encrypts comes from the source
//!    when one is given — proving the source unchanged since the interrupted
//!    run — and otherwise from decrypting the stored chunk — proving the store,
//!    owner state, and key material still agree. That decryption is the
//!    readers' one chunk-decrypt step (see [`crate::stream`]): it builds only
//!    the rows decryption reads, checks every cell, and refuses a chunk whose
//!    decrypted rows disagree with its record.
//! 2. **Truncate** — only once the pass has accepted the prefix, cut the store
//!    back to the end of the last accepted chunk frame; a torn tail is unusable
//!    by construction, and a surviving trailer is rewritten rather than trusted
//!    (its totals must cover the whole run). A refused resume therefore leaves
//!    the store exactly as it found it.
//! 3. **Continue** — hand back a [`StreamJob`] positioned at the next chunk,
//!    so the remaining chunks, the trailer, and the end frame go through the
//!    one writer every stream uses.
//!
//! The two entry points differ only in where the rows come from:
//! [`Engine::resume_streaming`] pulls the original source from its first row,
//! replaying the prefix from it and continuing past it, while
//! [`Engine::resume_job`] takes no source, replays the prefix from the store,
//! and leaves the caller to append rows from [`StreamJob::rows`] onward.
//! Either way the store is read once, and the pass holds one chunk at a time.
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
use f2_io::frame::FrameReader;
use f2_io::{IoError, RowSource, StreamStore};
use f2_relation::{Bytes, Schema};
use std::io::{Read, SeekFrom};

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
        job.pump(scheme, source)?;
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
    /// source is needed: each stored chunk is decrypted and re-encrypted as it
    /// is read (see the [module docs](self)), which catches a store/key
    /// mismatch before any byte of the store changes.
    pub fn resume_job<T: StreamStore>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        store: T,
    ) -> Result<StreamJob<T>> {
        self.reopen(scheme, schema, store, None)
    }

    /// The one reopen behind both entry points: one pass over the stored
    /// prefix that checks and replays each chunk frame as it reads it, then
    /// the truncation. `source`, when given, supplies the plaintext and is
    /// advanced past the prefix; otherwise the plaintext comes from decrypting
    /// each stored chunk.
    fn reopen<T: StreamStore>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        mut store: T,
        mut source: Option<&mut dyn RowSource>,
    ) -> Result<StreamJob<T>> {
        crate::obs::resumes().inc();
        store.seek(SeekFrom::Start(0)).map_err(IoError::Io)?;
        let Some(mut frames) = self.check_header(scheme, schema, &mut store)? else {
            // Nothing usable survives a torn preamble or header frame.
            return self.begin_job(scheme, schema, store);
        };
        let (seed, chunk_rows) = (self.config().seed, self.config().chunk_rows);
        let mut progress = StreamProgress::start();
        // The replay's re-encoded chunks go here, and the resumed job keeps the
        // buffer as its own chunk payload buffer.
        let mut rebuilt_payload = Vec::new();
        let mut bytes = frames.bytes_consumed();
        // Only a full-sized chunk may be followed by another: a short chunk is
        // the stream's final one, so the prefix cannot extend past it.
        while progress.chunks.last().is_none_or(|prev| prev.rows.len() == chunk_rows) {
            let payload = match frames.next_frame() {
                Ok(Some(frame)) if frame.frame_type == FRAME_CHUNK => Bytes::from(frame.payload),
                // Trailer, end marker, unknown frame type, torn or damaged
                // tail: the chunk prefix ends here — everything at and past
                // this offset is rewritten by the resumed run.
                _ => break,
            };
            let Ok(record) = decode_chunk_record(&payload) else { break };
            if record.index != progress.chunks.len()
                || record.rows.start != progress.rows
                || record.output_rows.start != progress.encrypted_rows
                || record.rows.is_empty()
                || record.rows.len() > chunk_rows
            {
                break;
            }
            verify_chunk_seed(seed, record.index as u64, record.seed)?;
            // `Scheme::decrypt` restores original row order (F² provenance rows
            // are sorted by source index), so either way re-encrypting under the
            // chunk's recorded seed must reproduce the stored bytes exactly.
            let rebuilt = match source.as_deref_mut() {
                Some(source) => pull_prefix_chunk(scheme, source, &record)?,
                None => {
                    let (_, state, table) = decode_chunk(&payload)?;
                    let plain = decrypt_chunk(scheme, &record, state, &table)?;
                    scheme.reseeded(record.seed).encrypt(&plain)?
                }
            };
            encode_chunk(&record, &rebuilt, &mut rebuilt_payload)?;
            if *rebuilt_payload != *payload {
                let cause = if source.is_some() {
                    "re-encrypted from the source does not match the stored stream — the \
                     source changed since the interrupted run"
                } else {
                    "re-encryption differs from the stored stream — the store was written \
                     under different key material or scheme parameters than the resuming \
                     scheme holds"
                };
                return Err(F2Error::UnsupportedInput(format!("chunk {} {cause}", record.index)));
            }
            progress.push(record, &rebuilt.report);
            bytes = frames.bytes_consumed();
        }
        truncate_store(&mut store, bytes)?;
        // The header frame and one frame per accepted chunk stay in the store.
        let kept = 1 + progress.chunks.len() as u64;
        Ok(StreamJob::resumed(self, schema, store, bytes, kept, progress, rebuilt_payload))
    }

    /// Open the store's frames and check its header frame, returning the reader
    /// positioned at the first chunk frame. `Ok(None)` means no usable prefix
    /// (torn preamble or header frame); a readable header that contradicts the
    /// engine configuration, scheme, or schema is a hard error — the caller
    /// would otherwise splice two different runs into one stream.
    fn check_header<R: Read>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        reader: R,
    ) -> Result<Option<FrameReader<R>>> {
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
        Ok(Some(frames))
    }
}

/// Pull one prefix chunk's rows again and re-encrypt them under the chunk's
/// recorded seed: the source must still hold exactly the rows `record` covers
/// at that position.
fn pull_prefix_chunk(
    scheme: &dyn Scheme,
    source: &mut dyn RowSource,
    record: &ChunkRecord,
) -> Result<SchemeOutcome> {
    let want = record.rows.len();
    match pull(source, want)? {
        None => Err(F2Error::UnsupportedInput(format!(
            "source ended at row {} but stored chunk {} covers rows {:?} — resume needs the \
             original source, rewound to its first row",
            record.rows.start, record.index, record.rows
        ))),
        Some(chunk) if chunk.row_count() != want => Err(F2Error::UnsupportedInput(format!(
            "source produced {} rows where the stream prefix recorded {want} — resume needs the \
             original source",
            chunk.row_count()
        ))),
        Some(chunk) => scheme.reseeded(record.seed).encrypt_view(&chunk),
    }
}
