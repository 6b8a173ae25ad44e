//! The request/reply protocol: typed messages over `F2WS` frames.
//!
//! lint: untrusted-input
//!
//! Every connection is a sequence of length-prefixed, CRC-checked frames (the
//! same [`f2_io::FrameSink`] / [`f2_io::FrameReader`] layer the encrypted
//! stream format uses, so transport corruption surfaces as a typed
//! [`IoError`](f2_io::IoError) before any payload byte is parsed). The frame
//! *type* byte selects the message; the payload is a flat
//! [`wire`](f2_engine::wire) record. This module is the protocol's only
//! parser and printer, and it is in f2-lint's `untrusted-input` scope: no
//! panics, no unchecked indexing, no allocations sized by unvalidated input —
//! a hostile payload must decode to [`ServerError::BadRequest`], never
//! undefined behavior or an abort.
//!
//! Request frames: `OPEN` (new session for a tenant + schema), `APPEND` (one
//! chunk of rows for a job token), `FINISH` (close the stream), `RESUME`
//! (reattach to a persisted job). Replies mirror them; errors travel as a
//! `(code, a, b, message)` record that `decode_error` turns back into the
//! exact [`ServerError`] variant.

use crate::error::{ServerError, ServerResult};
use f2_engine::persist::{decode_table, put_schema, put_table, take_schema};
use f2_engine::wire::{Reader, Writer};
use f2_obs::TraceCtx;
use f2_relation::{Schema, Table};
use std::time::Duration;

/// Request frame: open a new encryption session.
pub const REQ_OPEN: u8 = 0x10;
/// Request frame: append one chunk of plaintext rows to a job.
pub const REQ_APPEND: u8 = 0x11;
/// Request frame: finish a job's stream (trailer + end frame).
pub const REQ_FINISH: u8 = 0x12;
/// Request frame: reattach to a persisted job after a disconnect or restart.
pub const REQ_RESUME: u8 = 0x13;

/// Reply frame for [`REQ_OPEN`].
pub const RESP_OPEN: u8 = 0x20;
/// Reply frame for [`REQ_APPEND`].
pub const RESP_APPEND: u8 = 0x21;
/// Reply frame for [`REQ_FINISH`].
pub const RESP_FINISH: u8 = 0x22;
/// Reply frame for [`REQ_RESUME`].
pub const RESP_RESUME: u8 = 0x23;
/// Reply frame carrying a typed [`ServerError`].
pub const RESP_ERR: u8 = 0x2F;

/// Cap on a tenant name — longer is a malformed request, not a bigger buffer.
pub const MAX_TENANT_BYTES: usize = 128;
/// Cap on an encoded schema — 64 KiB covers thousands of attributes.
pub const MAX_SCHEMA_BYTES: usize = 64 * 1024;

/// Tag byte introducing the optional trailing trace-context field.
///
/// A traced message appends `TRACE_TAG | trace_id | request_id` (17 bytes)
/// after its base fields. [`Request::encode`] / [`Response::encode`] emit it
/// only when given a context, so untraced messages are byte-identical to the
/// previous protocol revision; [`Request::decode`] / [`Response::decode`]
/// accept either shape, which is what keeps old and new peers interoperable.
pub const TRACE_TAG: u8 = 0x01;

/// Append the optional trace-context tail (tag + two little-endian `u64`s)
/// and finish the payload.
fn finish_traced(mut w: Writer, ctx: Option<&TraceCtx>) -> Vec<u8> {
    if let Some(ctx) = ctx {
        w.put_u8(TRACE_TAG);
        w.put_u64(ctx.trace_id);
        w.put_u64(ctx.request_id);
    }
    w.finish()
}

/// Consume the optional trace-context tail. `None` when the payload ended at
/// the base fields (an untraced peer); an error for any other trailing shape.
fn take_trace(r: &mut Reader<'_>) -> ServerResult<Option<TraceCtx>> {
    if r.remaining() == 0 {
        return Ok(None);
    }
    let tag = r.u8().map_err(bad)?;
    if tag != TRACE_TAG {
        return Err(ServerError::BadRequest(format!("unknown trailing field tag {tag:#04x}")));
    }
    let trace_id = r.u64().map_err(bad)?;
    let request_id = r.u64().map_err(bad)?;
    Ok(Some(TraceCtx::new(trace_id, request_id)))
}

/// One decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Open a new session: the service allocates a job token and starts a
    /// fresh stream for `tenant` with this row `schema`.
    Open {
        /// Tenant whose scheme (keys, parameters) encrypts the job.
        tenant: String,
        /// Schema of every row the job will carry.
        schema: Schema,
    },
    /// Append one chunk of plaintext rows to the job.
    Append {
        /// The job token from `Open` / `Resume`.
        token: u64,
        /// Position the client believes this chunk occupies (0-based).
        chunk_index: u64,
        /// The rows, as an encoded table.
        table: Table,
    },
    /// Close the job's stream and retire the token.
    Finish {
        /// The job token.
        token: u64,
    },
    /// Reattach to a job whose connection (or server) died. The schema is
    /// revalidated against the persisted stream header.
    Resume {
        /// Tenant whose scheme encrypts the job.
        tenant: String,
        /// The job token to reattach to.
        token: u64,
        /// Schema the client believes the job carries.
        schema: Schema,
    },
}

impl Request {
    /// Encode into `(frame_type, payload)` for a [`f2_io::FrameSink`], with the
    /// trace-context tail when `ctx` is given.
    #[must_use]
    pub fn encode(&self, ctx: Option<&TraceCtx>) -> (u8, Vec<u8>) {
        let mut w = Writer::raw();
        let frame_type = match self {
            Request::Open { tenant, schema } => {
                w.put_str(tenant);
                w.put_bytes(&encode_schema(schema));
                REQ_OPEN
            }
            Request::Append { token, chunk_index, table } => {
                w.put_u64(*token);
                w.put_u64(*chunk_index);
                put_table(&mut w, table);
                REQ_APPEND
            }
            Request::Finish { token } => {
                w.put_u64(*token);
                REQ_FINISH
            }
            Request::Resume { tenant, token, schema } => {
                w.put_str(tenant);
                w.put_u64(*token);
                w.put_bytes(&encode_schema(schema));
                REQ_RESUME
            }
        };
        (frame_type, finish_traced(w, ctx))
    }

    /// Decode a request frame plus its optional trace-context tail. Any
    /// structural violation — unknown type, short payload, trailing bytes,
    /// over-cap field, a malformed tail — is a [`ServerError::BadRequest`].
    pub fn decode(frame_type: u8, payload: &[u8]) -> ServerResult<(Request, Option<TraceCtx>)> {
        let mut r = Reader::raw(payload);
        let request = match frame_type {
            REQ_OPEN => {
                let tenant = take_tenant(&mut r)?;
                let schema = take_schema_blob(&mut r)?;
                Request::Open { tenant, schema }
            }
            REQ_APPEND => {
                let token = r.u64().map_err(bad)?;
                let chunk_index = r.u64().map_err(bad)?;
                let table = decode_table(r.bytes().map_err(bad)?)
                    .map_err(|e| ServerError::BadRequest(format!("append table: {e}")))?;
                Request::Append { token, chunk_index, table }
            }
            REQ_FINISH => Request::Finish { token: r.u64().map_err(bad)? },
            REQ_RESUME => {
                let tenant = take_tenant(&mut r)?;
                let token = r.u64().map_err(bad)?;
                let schema = take_schema_blob(&mut r)?;
                Request::Resume { tenant, token, schema }
            }
            other => {
                return Err(ServerError::BadRequest(format!("unknown request frame {other:#04x}")))
            }
        };
        let ctx = take_trace(&mut r)?;
        r.finish().map_err(bad)?;
        Ok((request, ctx))
    }
}

/// One decoded server reply (errors decode to `Err(ServerError)` instead).
#[derive(Debug)]
pub enum Response {
    /// Reply to [`Request::Open`].
    Open {
        /// The allocated job token — the client's resume credential.
        token: u64,
        /// Rows per chunk the job expects (full chunks until the last).
        chunk_rows: u64,
    },
    /// Reply to [`Request::Append`].
    Append {
        /// Plaintext rows the job now holds.
        rows: u64,
        /// Encrypted rows written so far.
        encrypted_rows: u64,
        /// Index the next append must carry.
        next_chunk: u64,
    },
    /// Reply to [`Request::Finish`].
    Finish {
        /// Total plaintext rows encrypted.
        rows: u64,
        /// Total encrypted rows written.
        encrypted_rows: u64,
        /// Chunks in the finished stream.
        chunks: u64,
        /// Stream bytes, preamble and frame headers included.
        bytes_written: u64,
    },
    /// Reply to [`Request::Resume`].
    Resume {
        /// The token (echoed).
        token: u64,
        /// Index the next append must carry.
        next_chunk: u64,
        /// Rows already encrypted — the client re-sends from this row onward.
        rows_done: u64,
        /// Rows per chunk the job expects.
        chunk_rows: u64,
    },
}

impl Response {
    /// Encode into `(frame_type, payload)` for a [`f2_io::FrameSink`], with the
    /// trace-context tail when `ctx` is given. The service echoes the request's
    /// context on success replies so the client can confirm which trace the
    /// server attributed its work to.
    #[must_use]
    pub fn encode(&self, ctx: Option<&TraceCtx>) -> (u8, Vec<u8>) {
        let mut w = Writer::raw();
        let frame_type = match self {
            Response::Open { token, chunk_rows } => {
                w.put_u64(*token);
                w.put_u64(*chunk_rows);
                RESP_OPEN
            }
            Response::Append { rows, encrypted_rows, next_chunk } => {
                w.put_u64(*rows);
                w.put_u64(*encrypted_rows);
                w.put_u64(*next_chunk);
                RESP_APPEND
            }
            Response::Finish { rows, encrypted_rows, chunks, bytes_written } => {
                w.put_u64(*rows);
                w.put_u64(*encrypted_rows);
                w.put_u64(*chunks);
                w.put_u64(*bytes_written);
                RESP_FINISH
            }
            Response::Resume { token, next_chunk, rows_done, chunk_rows } => {
                w.put_u64(*token);
                w.put_u64(*next_chunk);
                w.put_u64(*rows_done);
                w.put_u64(*chunk_rows);
                RESP_RESUME
            }
        };
        (frame_type, finish_traced(w, ctx))
    }

    /// Decode a reply frame plus its optional trace-context tail; [`RESP_ERR`]
    /// decodes to the carried [`ServerError`] (error replies never carry a
    /// tail).
    pub fn decode(frame_type: u8, payload: &[u8]) -> ServerResult<(Response, Option<TraceCtx>)> {
        let mut r = Reader::raw(payload);
        let response = match frame_type {
            RESP_OPEN => {
                Response::Open { token: r.u64().map_err(bad)?, chunk_rows: r.u64().map_err(bad)? }
            }
            RESP_APPEND => Response::Append {
                rows: r.u64().map_err(bad)?,
                encrypted_rows: r.u64().map_err(bad)?,
                next_chunk: r.u64().map_err(bad)?,
            },
            RESP_FINISH => Response::Finish {
                rows: r.u64().map_err(bad)?,
                encrypted_rows: r.u64().map_err(bad)?,
                chunks: r.u64().map_err(bad)?,
                bytes_written: r.u64().map_err(bad)?,
            },
            RESP_RESUME => Response::Resume {
                token: r.u64().map_err(bad)?,
                next_chunk: r.u64().map_err(bad)?,
                rows_done: r.u64().map_err(bad)?,
                chunk_rows: r.u64().map_err(bad)?,
            },
            RESP_ERR => {
                let error = decode_error(&mut r)?;
                r.finish().map_err(bad)?;
                return Err(error);
            }
            other => {
                return Err(ServerError::BadRequest(format!("unknown reply frame {other:#04x}")))
            }
        };
        let ctx = take_trace(&mut r)?;
        r.finish().map_err(bad)?;
        Ok((response, ctx))
    }
}

/// Encode a [`ServerError`] as a [`RESP_ERR`] payload: `code | a | b | message`,
/// where `a`/`b` carry the variant's structured fields (token, chunk indices,
/// row caps, or the retry-after hint in milliseconds).
#[must_use]
pub fn encode_error(error: &ServerError) -> (u8, Vec<u8>) {
    let (a, b) = match error {
        ServerError::UnknownJob(token) | ServerError::JobBusy(token) => (*token, 0),
        ServerError::WrongChunk { expected, got } => (*expected, *got),
        ServerError::TooLarge { rows, cap } => (rows_u64(*rows), rows_u64(*cap)),
        ServerError::Overloaded { retry_after } => (millis_u64(*retry_after), 0),
        _ => (0, 0),
    };
    let mut w = Writer::raw();
    w.put_u16(error.code());
    w.put_u64(a);
    w.put_u64(b);
    w.put_str(&error.to_string());
    (RESP_ERR, w.finish())
}

/// Decode a [`RESP_ERR`] payload back into the [`ServerError`] it carried.
fn decode_error(r: &mut Reader<'_>) -> ServerResult<ServerError> {
    let code = r.u16().map_err(bad)?;
    let a = r.u64().map_err(bad)?;
    let b = r.u64().map_err(bad)?;
    let message = r.str().map_err(bad)?.to_string();
    Ok(match code {
        1 => ServerError::BadRequest(message),
        2 => ServerError::UnknownTenant(message),
        3 => ServerError::UnknownJob(a),
        4 => ServerError::JobBusy(a),
        5 => ServerError::WrongChunk { expected: a, got: b },
        6 => ServerError::TooLarge { rows: rows_usize(a), cap: rows_usize(b) },
        7 => ServerError::Overloaded { retry_after: Duration::from_millis(a) },
        8 => ServerError::ShuttingDown,
        9 => ServerError::DeadlineExpired,
        10 => ServerError::Engine(message),
        11 => ServerError::Internal(message),
        other => {
            return Err(ServerError::BadRequest(format!("unknown error code {other}: {message}")))
        }
    })
}

/// Serialize a schema as a standalone blob (nested wire record).
fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut w = Writer::raw();
    put_schema(&mut w, schema);
    w.finish()
}

fn take_tenant(r: &mut Reader<'_>) -> ServerResult<String> {
    let tenant = r.str().map_err(bad)?;
    if tenant.is_empty() || tenant.len() > MAX_TENANT_BYTES {
        return Err(ServerError::BadRequest(format!(
            "tenant name must be 1..={MAX_TENANT_BYTES} bytes, got {}",
            tenant.len()
        )));
    }
    Ok(tenant.to_string())
}

fn take_schema_blob(r: &mut Reader<'_>) -> ServerResult<Schema> {
    let blob = r.bytes().map_err(bad)?;
    if blob.len() > MAX_SCHEMA_BYTES {
        return Err(ServerError::BadRequest(format!(
            "encoded schema is {} bytes, the cap is {MAX_SCHEMA_BYTES}",
            blob.len()
        )));
    }
    let mut inner = Reader::raw(blob);
    let schema =
        take_schema(&mut inner).map_err(|e| ServerError::BadRequest(format!("schema: {e}")))?;
    inner.finish().map_err(bad)?;
    Ok(schema)
}

fn bad(e: impl std::fmt::Display) -> ServerError {
    ServerError::BadRequest(e.to_string())
}

fn rows_u64(rows: usize) -> u64 {
    u64::try_from(rows).unwrap_or(u64::MAX)
}

fn millis_u64(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn rows_usize(rows: u64) -> usize {
    usize::try_from(rows).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::{Attribute, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("zip", DataType::Text),
            Attribute::new("city", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Open { tenant: "acme".into(), schema: schema() },
            Request::Finish { token: 7 },
            Request::Resume { tenant: "acme".into(), token: 9, schema: schema() },
        ];
        for req in reqs {
            let (ty, payload) = req.encode(None);
            let (back, _) = Request::decode(ty, &payload).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn errors_roundtrip_with_their_structured_fields() {
        let errors = vec![
            ServerError::UnknownJob(42),
            ServerError::JobBusy(7),
            ServerError::WrongChunk { expected: 3, got: 9 },
            ServerError::TooLarge { rows: 1000, cap: 64 },
            ServerError::Overloaded { retry_after: Duration::from_millis(250) },
            ServerError::ShuttingDown,
            ServerError::DeadlineExpired,
            ServerError::BadRequest("nope".into()),
            ServerError::Internal("boom".into()),
        ];
        for error in errors {
            let (ty, payload) = encode_error(&error);
            assert_eq!(ty, RESP_ERR);
            let decoded = Response::decode(ty, &payload).unwrap_err();
            assert_eq!(error.code(), decoded.code());
            match (&error, &decoded) {
                (
                    ServerError::WrongChunk { expected: e1, got: g1 },
                    ServerError::WrongChunk { expected: e2, got: g2 },
                ) => assert_eq!((e1, g1), (e2, g2)),
                (
                    ServerError::Overloaded { retry_after: r1 },
                    ServerError::Overloaded { retry_after: r2 },
                ) => assert_eq!(r1, r2),
                (ServerError::UnknownJob(t1), ServerError::UnknownJob(t2)) => assert_eq!(t1, t2),
                _ => {}
            }
        }
    }

    #[test]
    fn hostile_payloads_decode_to_bad_request_never_panic() {
        // Truncations, trailing garbage, unknown types: all typed errors.
        let (ty, good) = Request::Open { tenant: "t".into(), schema: schema() }.encode(None);
        for cut in 0..good.len() {
            let sliced = good.get(..cut).unwrap_or(&good);
            assert!(Request::decode(ty, sliced).is_err());
        }
        let mut trailing = good.clone();
        trailing.push(0xFF);
        assert!(Request::decode(ty, &trailing).is_err());
        assert!(Request::decode(0x7F, &good).is_err());
        // An over-cap tenant name.
        let mut w = Writer::raw();
        w.put_str(&"x".repeat(MAX_TENANT_BYTES + 1));
        w.put_bytes(&[]);
        assert!(Request::decode(REQ_OPEN, &w.finish()).is_err());
    }

    #[test]
    fn trace_tail_roundtrips_and_stays_optional() {
        let ctx = TraceCtx::new(0x1111_2222_3333_4444, 0x5555_6666_7777_8888);
        let req = Request::Finish { token: 7 };
        // Traceless encode is byte-identical to the previous protocol revision.
        let (ty, plain) = req.encode(None);
        let (ty_traced, traced) = req.encode(Some(&ctx));
        assert_eq!(ty, ty_traced);
        assert_eq!(traced.get(..plain.len()), Some(plain.as_slice()));
        assert_eq!(traced.len(), plain.len() + 17);
        // Both shapes decode.
        let (_, none) = Request::decode(ty, &plain).unwrap();
        assert!(none.is_none());
        let (back, some) = Request::decode(ty, &traced).unwrap();
        assert!(matches!(back, Request::Finish { token: 7 }));
        assert_eq!(some, Some(ctx));
        // Success replies echo the context; error replies never carry one.
        let resp = Response::Open { token: 1, chunk_rows: 64 };
        let (rty, rtraced) = resp.encode(Some(&ctx));
        let (_, echo) = Response::decode(rty, &rtraced).unwrap();
        assert_eq!(echo, Some(ctx));
        let (ety, epayload) = encode_error(&ServerError::ShuttingDown);
        assert!(Response::decode(ety, &epayload).is_err());
    }

    #[test]
    fn hostile_trace_tails_error_cleanly() {
        let ctx = TraceCtx::new(1, 2);
        let (ty, plain) = Request::Finish { token: 3 }.encode(None);
        let (_, traced) = Request::Finish { token: 3 }.encode(Some(&ctx));
        // Every truncation strictly inside the tail is an error; cutting the
        // whole tail off yields the valid untraced shape.
        for cut in plain.len() + 1..traced.len() {
            let sliced = traced.get(..cut).unwrap_or(&traced);
            assert!(Request::decode(ty, sliced).is_err(), "cut {cut}");
        }
        // A wrong tag byte is rejected, as is trailing garbage after the tail.
        let mut wrong_tag = traced.clone();
        if let Some(tag) = wrong_tag.get_mut(plain.len()) {
            *tag = 0x7E;
        }
        assert!(Request::decode(ty, &wrong_tag).is_err());
        let mut overlong = traced.clone();
        overlong.push(0x00);
        assert!(Request::decode(ty, &overlong).is_err());
    }

    #[test]
    fn append_roundtrips_its_table() {
        let t = f2_datagen::Dataset::Orders.generate(8, 3);
        let (ty, payload) =
            Request::Append { token: 5, chunk_index: 2, table: t.clone() }.encode(None);
        match Request::decode(ty, &payload).unwrap().0 {
            Request::Append { token: 5, chunk_index: 2, table } => assert_eq!(table, t),
            other => panic!("decoded {other:?}"),
        }
    }
}
