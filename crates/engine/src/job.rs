//! Push-model streaming jobs — the one writer of every `F2WS` v2 stream: open
//! a stream, append chunks as they arrive, finish (or crash and resume).
//!
//! lint: chunk-seed-authority — the writer derives each appended chunk's seed
//! via [`chunk_seed`], exactly as the in-memory pipeline does.
//!
//! Every v2 stream the engine writes goes through a [`StreamJob`]:
//!
//! * [`Engine::begin_job`] truncates a [`StreamStore`] and writes the preamble
//!   and header frame.
//! * [`StreamJob::append_chunk`] encrypts one chunk, a [`TableView`] (of a
//!   whole table or a range of one), and appends its frame — the caller must
//!   push chunks of the stream's schema, full `chunk_rows` chunks until the
//!   final short one, exactly like a source on the pull path. Violations are
//!   typed errors, refused by [`StreamJob::check_chunk`] before anything is
//!   encrypted or written.
//! * [`StreamJob::finish`] writes the trailer and end marker and reports the
//!   stream's [`StreamOutcome`].
//! * [`Engine::resume_job`] reopens a store torn by a crash or disconnect and
//!   returns a job positioned at the next chunk index; the caller re-sends
//!   rows from [`StreamJob::rows`] onward. It is the source-free entry point of
//!   the one resume protocol (check and replay each stored chunk as it is read →
//!   truncate → continue) described in [`crate::resume`].
//!
//! [`Engine::run_streaming`] is the same job driven by a pull loop over a
//! [`RowSource`], and [`Engine::resume_streaming`] the same reopen followed by
//! that pull loop, so a pushed stream is **byte-identical** to a pulled one over
//! the same rows, scheme, and engine configuration — there is only one encoder.
//!
//! A job never retries: an error from the source, the scheme, or the writer
//! fails the call, and resume finishes a stream left unfinished. Transient I/O
//! errors are retried only where a failed call consumed nothing, by the owner
//! of the reader or writer (see `f2_io::retry`).
//!
//! This is the substrate `f2_server` builds its crash-resumable, multi-tenant
//! job sessions on; it is equally usable directly for incremental encryption
//! pipelines that materialize rows in batches.

use crate::pipeline::{chunk_seed, merge_reports, ChunkRecord, Engine};
use crate::stream::{encode_chunk, encode_header, encode_trailer, StreamOutcome};
use crate::stream::{FRAME_CHUNK, FRAME_HEADER, FRAME_TRAILER};
use f2_core::{EncryptionReport, F2Error, Result, Scheme};
use f2_io::frame::FrameSink;
use f2_io::{IoError, RowSource, StreamStore};
use f2_relation::{Schema, TableView};
use std::io::{SeekFrom, Write};
use std::time::Instant;

/// An open push-model encryption stream over a writer (a [`StreamStore`] for
/// jobs opened with [`Engine::begin_job`] or [`Engine::resume_job`]).
///
/// See the [module docs](self) for the contract. The job owns the writer
/// until [`StreamJob::finish`] closes the stream.
///
/// Between appends a job keeps two buffers: the encoded payload of its last
/// chunk and, inside its [`FrameSink`], the frame built from it. Each chunk is
/// encoded and framed in place in them, so each is as large as the job's
/// largest chunk so far, and both are dropped when [`StreamJob::finish`]
/// closes the stream.
pub struct StreamJob<W: Write> {
    seed: u64,
    chunk_rows: usize,
    schema: Schema,
    sink: FrameSink<W>,
    /// The chunk payload [`encode_chunk`] writes each chunk into.
    payload: Vec<u8>,
    progress: StreamProgress,
}

impl<W: Write> std::fmt::Debug for StreamJob<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamJob")
            .field("chunk_rows", &self.chunk_rows)
            .field("rows", &self.progress.rows)
            .field("encrypted_rows", &self.progress.encrypted_rows)
            .field("chunks", &self.progress.chunks.len())
            .field("bytes_written", &self.sink.bytes_written())
            .finish_non_exhaustive()
    }
}

/// Running totals of one stream: what a fresh job starts from zero and a
/// resumed one rebuilds from the stored prefix.
pub(crate) struct StreamProgress {
    pub(crate) chunks: Vec<ChunkRecord>,
    pub(crate) rows: usize,
    pub(crate) encrypted_rows: usize,
    pub(crate) report: EncryptionReport,
}

impl StreamProgress {
    pub(crate) fn start() -> Self {
        StreamProgress {
            chunks: Vec::new(),
            rows: 0,
            encrypted_rows: 0,
            report: EncryptionReport::default(),
        }
    }

    /// Account for one more chunk and its report.
    pub(crate) fn push(&mut self, record: ChunkRecord, report: &EncryptionReport) {
        self.rows = record.rows.end;
        self.encrypted_rows = record.output_rows.end;
        merge_reports(&mut self.report, report);
        self.chunks.push(record);
    }
}

impl Engine {
    /// Start a fresh push-model stream in `store` (truncating whatever it
    /// held), writing the preamble and header frame for `scheme` and `schema`.
    /// The header pins the engine seed and `chunk_rows`.
    pub fn begin_job<T: StreamStore>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        mut store: T,
    ) -> Result<StreamJob<T>> {
        truncate_store(&mut store, 0)?;
        self.open_job(scheme, schema, store)
    }

    /// Start a stream at the current position of `writer`: the preamble and
    /// header frame of every fresh v2 stream are written here.
    pub(crate) fn open_job<W: Write>(
        &self,
        scheme: &dyn Scheme,
        schema: &Schema,
        writer: W,
    ) -> Result<StreamJob<W>> {
        if schema.arity() == 0 {
            return Err(F2Error::UnsupportedInput("schema has no attributes".into()));
        }
        let mut sink = FrameSink::new(writer)?;
        let header =
            encode_header(scheme.name(), self.config().seed, self.config().chunk_rows, schema);
        sink.write_frame(FRAME_HEADER, &header)?;
        Ok(StreamJob {
            seed: self.config().seed,
            chunk_rows: self.config().chunk_rows,
            schema: schema.clone(),
            sink,
            payload: Vec::new(),
            progress: StreamProgress::start(),
        })
    }
}

impl<W: Write> StreamJob<W> {
    /// Continue a stream of `schema` whose first `bytes` bytes (`frames`
    /// frames, preamble excluded) `writer` already holds and `progress` already
    /// accounts for; `writer` must be positioned right after them. `payload` is
    /// the buffer the reopen pass encoded its replayed chunks in, kept as the
    /// job's chunk payload buffer.
    pub(crate) fn resumed(
        engine: &Engine,
        schema: &Schema,
        writer: W,
        bytes: u64,
        frames: u64,
        progress: StreamProgress,
        payload: Vec<u8>,
    ) -> Self {
        StreamJob {
            seed: engine.config().seed,
            chunk_rows: engine.config().chunk_rows,
            schema: schema.clone(),
            sink: FrameSink::resume(writer, bytes, frames),
            payload,
            progress,
        }
    }

    /// Check that `chunk` may be appended next, without touching the job: it
    /// must have the stream's schema and `1..=chunk_rows` rows, and no chunk may
    /// follow a short one (chunk boundaries would diverge from the in-memory
    /// path's). [`StreamJob::append_chunk`] runs this check first, so a refused
    /// chunk leaves the job and its store as they were.
    pub fn check_chunk(&self, chunk: &TableView<'_>) -> Result<()> {
        let chunk_len = chunk.row_count();
        let chunk_rows = self.chunk_rows;
        if chunk.schema() != &self.schema {
            return Err(F2Error::UnsupportedInput(
                "chunk schema disagrees with the stream's schema".into(),
            ));
        }
        if chunk_len == 0 || chunk_len > chunk_rows {
            return Err(F2Error::UnsupportedInput(format!(
                "chunk of {chunk_len} rows, expected 1..={chunk_rows}"
            )));
        }
        if self.progress.chunks.last().is_some_and(|prev| prev.rows.len() != chunk_rows) {
            return Err(F2Error::UnsupportedInput(
                "chunk after a short chunk: only the stream's final chunk may be short \
                 (chunk boundaries would diverge from the in-memory path)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Encrypt `chunk` under its derived chunk seed and append its frame,
    /// returning the chunk's provenance record. A chunk that
    /// [`StreamJob::check_chunk`] refuses is a typed error, never silent
    /// damage. A caller holding an owned table appends `&table.as_view()`.
    pub fn append_chunk(
        &mut self,
        scheme: &dyn Scheme,
        chunk: &TableView<'_>,
    ) -> Result<&ChunkRecord> {
        self.check_chunk(chunk)?;
        let chunk_len = chunk.row_count();
        let index = self.progress.chunks.len();
        let seed = chunk_seed(self.seed, index as u64);
        let start = Instant::now();
        let outcome = scheme.reseeded(seed).encrypt_view(chunk)?;
        let wall = start.elapsed();
        let (rows, encrypted_rows) = (self.progress.rows, self.progress.encrypted_rows);
        let record = ChunkRecord {
            index,
            rows: rows..rows + chunk_len,
            output_rows: encrypted_rows..encrypted_rows + outcome.encrypted.row_count(),
            seed,
            worker: 0,
            wall,
        };
        {
            let _serialize = f2_obs::span!("engine.chunk.serialize");
            encode_chunk(&record, &outcome, &mut self.payload)?;
        }
        {
            let _write = f2_obs::span!("engine.chunk.write");
            self.sink.write_frame(FRAME_CHUNK, &self.payload)?;
        }
        crate::obs::chunk_encrypted(chunk_len, record.output_rows.len(), wall);
        // Attribute this chunk's volume to the active request trace, if any (the
        // server runs each request under one); no-ops otherwise.
        f2_obs::ctx::add_count("rows", chunk_len as u64);
        f2_obs::ctx::add_count("encrypted_rows", record.output_rows.len() as u64);
        f2_obs::ctx::add_count("chunk_bytes", self.payload.len() as u64);
        self.progress.push(record, &outcome.report);
        // `outcome` (the only live copy of the chunk's ciphertext) drops on return.
        self.progress
            .chunks
            .last()
            .ok_or_else(|| F2Error::UnsupportedInput("chunk was encoded but not recorded".into()))
    }

    /// Pull chunks from `source` until it is exhausted, appending each — the
    /// pull loop of [`Engine::run_streaming`] and [`Engine::resume_streaming`].
    /// Each pulled chunk is a view the source lends until the next pull, which
    /// drops it before reading more rows: one chunk of plaintext at a time.
    pub(crate) fn pump(&mut self, scheme: &dyn Scheme, source: &mut dyn RowSource) -> Result<()> {
        while let Some(chunk) = pull(source, self.chunk_rows)? {
            self.append_chunk(scheme, &chunk)?;
        }
        Ok(())
    }

    /// Write the trailer and end marker, close the stream, and report the
    /// totals.
    pub fn finish(self) -> Result<StreamOutcome> {
        self.finish_into_store().map(|(outcome, _)| outcome)
    }

    /// Like [`StreamJob::finish`], but also hand the store back — for callers
    /// that need to sync, inspect, or reuse it after the stream closes.
    pub fn finish_into_store(mut self) -> Result<(StreamOutcome, W)> {
        self.sink.write_frame(FRAME_TRAILER, &encode_trailer(&self.progress))?;
        let (writer, bytes_written) = self.sink.finish()?;
        crate::obs::stream_bytes_total().add(bytes_written);
        let StreamProgress { chunks, rows, encrypted_rows, report } = self.progress;
        let outcome = StreamOutcome { chunks, rows, encrypted_rows, bytes_written, report };
        Ok((outcome, writer))
    }

    /// Plaintext rows encrypted so far — the row index the next append's
    /// chunk must start at (and the resume point a reconnecting client
    /// re-sends from).
    pub fn rows(&self) -> usize {
        self.progress.rows
    }

    /// Encrypted rows written so far (padding rows included).
    pub fn encrypted_rows(&self) -> usize {
        self.progress.encrypted_rows
    }

    /// Index the next appended chunk will occupy.
    pub fn next_chunk_index(&self) -> usize {
        self.progress.chunks.len()
    }

    /// Provenance of the chunks written so far, in order.
    pub fn chunks(&self) -> &[ChunkRecord] {
        &self.progress.chunks
    }

    /// The stream's pinned chunk size.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Stream bytes written so far, preamble and frame headers included.
    pub fn bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }
}

/// Pull the next chunk of at most `rows` rows from `source` (`None` once the
/// source is exhausted). An error fails the job: the source may have consumed
/// input before it failed, so the stream is finished by resume, never by
/// pulling again.
pub(crate) fn pull<'s>(
    source: &'s mut dyn RowSource,
    rows: usize,
) -> Result<Option<TableView<'s>>> {
    // Span covers source I/O plus chunk assembly (e.g. CSV parsing).
    let _pull = f2_obs::span!("engine.chunk.pull");
    Ok(source.next_chunk(rows)?)
}

/// Cut `store` to `len` bytes and position it there, where a (re)opened job
/// writes next.
pub(crate) fn truncate_store<T: StreamStore>(store: &mut T, len: u64) -> Result<()> {
    store.set_len(len).map_err(IoError::Io)?;
    store.seek(SeekFrom::Start(len)).map_err(IoError::Io)?;
    Ok(())
}
