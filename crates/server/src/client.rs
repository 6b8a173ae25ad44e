//! A blocking client for the service protocol.
//!
//! [`Client`] wraps any `Read + Write` transport (a [`TcpStream`], a
//! [`duplex`](crate::pipe::duplex) pipe end, a fault-injected wrapper) in the
//! same framed, CRC-checked layers the server uses, and exposes one method
//! per request. Typed server errors come back as the exact [`ServerError`]
//! variant the server sent — `Overloaded` carries its retry-after hint,
//! `WrongChunk` the index to re-send from — so callers branch on variants,
//! not on message strings. A transport error ends the conversation: the
//! caller dials again and [`resume`](Client::resume)s, the one recovery path
//! for every broken connection.
//!
//! [`TcpStream`]: std::net::TcpStream

use crate::error::{ServerError, ServerResult};
use crate::proto::{Request, Response};
use crate::transport::Shared;
use f2_io::frame::{FrameReader, FrameSink};
use f2_io::{RowSource, TableSource};
use f2_obs::{IdSource, TraceCtx};
use f2_relation::{Schema, Table};
use std::io::{Read, Write};

/// Reply to a successful `open`: the job's resume credential and geometry.
#[derive(Debug, Clone, Copy)]
pub struct JobOpened {
    /// The job token — keep it; it is the resume credential.
    pub token: u64,
    /// Rows every append must carry (the final one may be shorter).
    pub chunk_rows: u64,
}

/// Reply to a successful `append`.
#[derive(Debug, Clone, Copy)]
pub struct AppendAck {
    /// Plaintext rows the job holds after this append.
    pub rows: u64,
    /// Encrypted rows written so far.
    pub encrypted_rows: u64,
    /// Index the next append must carry.
    pub next_chunk: u64,
}

/// Reply to a successful `finish`.
#[derive(Debug, Clone, Copy)]
pub struct FinishAck {
    /// Total plaintext rows encrypted.
    pub rows: u64,
    /// Total encrypted rows written (padding included).
    pub encrypted_rows: u64,
    /// Chunks in the finished stream.
    pub chunks: u64,
    /// Stream bytes, preamble and frame headers included.
    pub bytes_written: u64,
}

/// Reply to a successful `resume`: where to pick back up.
#[derive(Debug, Clone, Copy)]
pub struct ResumeAck {
    /// The job token (echoed).
    pub token: u64,
    /// Index the next append must carry.
    pub next_chunk: u64,
    /// Rows already durably encrypted — re-send from this row onward.
    pub rows_done: u64,
    /// Rows every append must carry.
    pub chunk_rows: u64,
}

/// Request-tracing state on a tracing-enabled [`Client`].
struct ClientTrace {
    /// Mints one fresh request id per request.
    ids: IdSource,
    /// The conversation's trace id, shared by every request this client sends.
    trace_id: u64,
    /// The context attached to the most recent request.
    last_sent: Option<TraceCtx>,
    /// The context the server echoed on the most recent successful reply.
    last_echo: Option<TraceCtx>,
}

/// A blocking protocol client over any byte transport.
pub struct Client<T: Read + Write> {
    sink: FrameSink<Shared<T>>,
    frames: FrameReader<Shared<T>>,
    trace: Option<ClientTrace>,
}

impl<T: Read + Write> Client<T> {
    /// Connect over `transport`: exchange preambles with the server.
    pub fn connect(transport: T) -> ServerResult<Self> {
        let shared = Shared::new(transport);
        let reader_shared = shared.clone();
        match FrameSink::new(shared) {
            Ok(sink) => {
                let frames = FrameReader::new(reader_shared)?;
                Ok(Client { sink, frames, trace: None })
            }
            // A shedding or draining server rejects inline: it writes its
            // typed reply and hangs up, possibly before our preamble goes
            // out. The reply is still buffered — surface it instead of the
            // raw broken-pipe error.
            Err(write_err) => {
                let salvaged =
                    FrameReader::new(reader_shared).and_then(|mut frames| frames.next_frame());
                match salvaged {
                    Ok(Some(frame)) => match Response::decode(frame.frame_type, &frame.payload) {
                        Err(typed) => Err(typed),
                        Ok(_) => Err(write_err.into()),
                    },
                    _ => Err(write_err.into()),
                }
            }
        }
    }

    /// Turn on request tracing: every request from here on carries a wire
    /// trace context (one trace id for the whole conversation, a fresh
    /// request id per request), and the server's echo is kept for
    /// [`last_server_trace`](Client::last_server_trace).
    ///
    /// Requires a trace-aware server — an older server rejects the unknown
    /// trailing field as a `BadRequest`, which is why tracing is opt-in.
    #[must_use]
    pub fn with_tracing(mut self, ids: IdSource) -> Self {
        let trace_id = ids.next_id();
        self.trace = Some(ClientTrace { ids, trace_id, last_sent: None, last_echo: None });
        self
    }

    /// The trace context attached to the most recent request, when tracing
    /// is on.
    #[must_use]
    pub fn last_trace(&self) -> Option<TraceCtx> {
        self.trace.as_ref().and_then(|t| t.last_sent)
    }

    /// The trace context the server echoed on the most recent successful
    /// reply — confirmation of which trace the server filed the work under.
    #[must_use]
    pub fn last_server_trace(&self) -> Option<TraceCtx> {
        self.trace.as_ref().and_then(|t| t.last_echo)
    }

    /// Open a new encryption job for `tenant`.
    pub fn open(&mut self, tenant: &str, schema: &Schema) -> ServerResult<JobOpened> {
        match self.request(&Request::Open { tenant: tenant.to_string(), schema: schema.clone() })? {
            Response::Open { token, chunk_rows } => Ok(JobOpened { token, chunk_rows }),
            other => Err(unexpected("open", &other)),
        }
    }

    /// Append one chunk of rows to the job.
    pub fn append(
        &mut self,
        token: u64,
        chunk_index: u64,
        table: Table,
    ) -> ServerResult<AppendAck> {
        match self.request(&Request::Append { token, chunk_index, table })? {
            Response::Append { rows, encrypted_rows, next_chunk } => {
                Ok(AppendAck { rows, encrypted_rows, next_chunk })
            }
            other => Err(unexpected("append", &other)),
        }
    }

    /// Finish the job's stream and retire the token.
    pub fn finish(&mut self, token: u64) -> ServerResult<FinishAck> {
        match self.request(&Request::Finish { token })? {
            Response::Finish { rows, encrypted_rows, chunks, bytes_written } => {
                Ok(FinishAck { rows, encrypted_rows, chunks, bytes_written })
            }
            other => Err(unexpected("finish", &other)),
        }
    }

    /// Reattach to a persisted job (after a disconnect, a server fault, or a
    /// full server restart).
    pub fn resume(&mut self, tenant: &str, token: u64, schema: &Schema) -> ServerResult<ResumeAck> {
        match self.request(&Request::Resume {
            tenant: tenant.to_string(),
            token,
            schema: schema.clone(),
        })? {
            Response::Resume { token, next_chunk, rows_done, chunk_rows } => {
                Ok(ResumeAck { token, next_chunk, rows_done, chunk_rows })
            }
            other => Err(unexpected("resume", &other)),
        }
    }

    /// Convenience: encrypt a whole table through one job — open, append in
    /// server-sized chunks, finish.
    pub fn encrypt_table(&mut self, tenant: &str, table: &Table) -> ServerResult<FinishAck> {
        let opened = self.open(tenant, table.schema())?;
        let chunk_rows = usize::try_from(opened.chunk_rows.max(1)).unwrap_or(usize::MAX);
        let mut source = TableSource::new(table);
        let mut chunk_index = 0_u64;
        while let Some(chunk) = source.next_chunk(chunk_rows)? {
            self.append(opened.token, chunk_index, chunk.to_table())?;
            chunk_index = chunk_index.saturating_add(1);
        }
        self.finish(opened.token)
    }

    /// End the conversation cleanly: the server sees an orderly close, not a
    /// disconnect.
    pub fn close(self) -> ServerResult<()> {
        let Client { sink, frames, trace: _ } = self;
        drop(frames);
        sink.finish()?;
        Ok(())
    }

    fn request(&mut self, request: &Request) -> ServerResult<Response> {
        let ctx = self.trace.as_mut().map(|trace| {
            let ctx = TraceCtx::new(trace.trace_id, trace.ids.next_id());
            trace.last_sent = Some(ctx);
            trace.last_echo = None;
            ctx
        });
        let (ty, payload) = request.encode(ctx.as_ref());
        // A shedding or draining server replies and hangs up without reading
        // our request, so the write may fail while a typed reply already sits
        // buffered in the transport. Always attempt the read; surface the
        // write error only when no reply arrived.
        let wrote = self.sink.write_frame(ty, &payload);
        match self.frames.next_frame() {
            Ok(Some(frame)) => {
                let (response, echo) = Response::decode(frame.frame_type, &frame.payload)?;
                if let Some(trace) = self.trace.as_mut() {
                    trace.last_echo = echo;
                }
                Ok(response)
            }
            Ok(None) => Err(match wrote {
                Ok(()) => ServerError::Disconnected,
                Err(err) => err.into(),
            }),
            Err(read_err) => Err(match wrote {
                Ok(()) => read_err.into(),
                Err(err) => err.into(),
            }),
        }
    }
}

fn unexpected(what: &str, got: &Response) -> ServerError {
    ServerError::BadRequest(format!("unexpected reply to {what}: {got:?}"))
}
