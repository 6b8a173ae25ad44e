//! The per-connection request loop: frames in, typed replies out.
//!
//! Every request is bracketed by a [`DeadlineGuard`](crate::deadline) (fire →
//! hang up the transport, reply `DeadlineExpired`) and dispatched inside
//! [`catch_unwind`], so a panicking handler costs one connection and parks
//! its job resumable — never the process. Jobs are handled under a checkout
//! discipline: a request takes the job out of the [`Sessions`] table, works
//! on it with no lock held, and a drop guard puts it back — live on success,
//! parked if the handler panicked mid-flight.

use crate::error::{ServerError, ServerResult};
use crate::obs;
use crate::proto::{self, Request, Response};
use crate::server::Core;
use crate::session::{Checkout, LoadedJob, Sessions};
use crate::transport::{Hangup, Shared, Transport};
use f2_io::frame::{FrameReader, FrameSink};
use f2_relation::{Schema, Table};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run one connection to completion. Never panics; never takes the process
/// down with it.
pub(crate) fn serve(core: &Core, mut transport: Box<dyn Transport>) {
    obs::connections_total().inc();
    let _ = transport.set_io_timeout(Some(core.config.idle_timeout));
    let hangup: Arc<dyn Hangup> = Arc::from(transport.hangup_handle());
    let conn_id = core.conns.register(Arc::clone(&hangup));
    let _ = run_connection(core, transport, &hangup);
    core.conns.unregister(conn_id);
    if core.is_draining() {
        obs::drained_total().inc();
    }
}

fn run_connection(
    core: &Core,
    transport: Box<dyn Transport>,
    hangup: &Arc<dyn Hangup>,
) -> ServerResult<()> {
    let shared = Shared::new(transport);
    let mut sink = FrameSink::new(shared.clone())?;
    let mut frames = FrameReader::new(shared)?.with_frame_cap(core.config.frame_cap);
    loop {
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            // FRAME_END: the client closed the conversation cleanly.
            Ok(None) => return Ok(()),
            Err(e) => {
                let err = ServerError::from(e);
                if !matches!(err, ServerError::Io(_)) {
                    // Corrupt/oversized frame: tell the peer why, then close.
                    let (ty, payload) = proto::encode_error(&err);
                    let _ = sink.write_frame(ty, &payload);
                }
                return Err(err);
            }
        };
        obs::requests_total().inc();
        let started = Instant::now();
        // Decode up front (the decoder is panic-free by construction) so a
        // wire trace context, if the client sent one, governs the whole
        // request; untraced requests get server-minted ids.
        let decoded = Request::decode(frame.frame_type, &frame.payload);
        let undecodable = decoded.is_err();
        let wire_ctx = match &decoded {
            Ok((_, ctx)) => *ctx,
            Err(_) => None,
        };
        let ctx = wire_ctx.unwrap_or_else(|| core.ids.next_ctx());
        let trace = f2_obs::journal().begin(ctx, request_kind(frame.frame_type));
        let deadline =
            core.deadlines.register(started + core.config.request_deadline, Arc::clone(hangup));
        let outcome = catch_unwind(AssertUnwindSafe(|| match decoded {
            Ok((request, _)) => dispatch(core, request),
            Err(e) => Err(e),
        }));
        let expired = deadline.expired();
        drop(deadline);
        let reply = match outcome {
            Ok(reply) => reply,
            Err(panic_payload) => {
                obs::worker_panics_total().inc();
                Err(ServerError::Internal(format!(
                    "request handler panicked: {}",
                    panic_message(panic_payload.as_ref())
                )))
            }
        };
        let reply = if expired {
            obs::deadline_expired_total().inc();
            Err(ServerError::DeadlineExpired)
        } else {
            reply
        };
        let elapsed = started.elapsed();
        obs::request_seconds().record_duration(elapsed);
        let outcome_kind = match &reply {
            Ok(_) => "ok",
            Err(error) => error.kind(),
        };
        if let Some(entry) = trace.complete(outcome_kind) {
            account(core, &entry, elapsed);
        }
        // A request frame that does not decode, or an internal failure, ends
        // the conversation after the typed reply; the client reconnects and
        // resumes. A well-formed request a handler refuses (`BadRequest`) keeps
        // the connection: the job and its store are unchanged.
        let close_after = undecodable || matches!(reply, Err(ServerError::Internal(_)));
        // Success replies echo the request's trace context; error replies
        // stay traceless (their encoder predates the field and old clients
        // must keep decoding them).
        let (ty, payload) = match &reply {
            Ok(response) => response.encode(wire_ctx.as_ref()),
            Err(error) => proto::encode_error(error),
        };
        sink.write_frame(ty, &payload)?;
        if expired {
            // The deadline already hung the transport up; stop driving it.
            return Err(ServerError::DeadlineExpired);
        }
        if close_after {
            return Ok(());
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

fn dispatch(core: &Core, request: Request) -> ServerResult<Response> {
    match request {
        Request::Open { tenant, schema } => handle_open(core, tenant, &schema),
        Request::Append { token, chunk_index, table } => {
            handle_append(core, token, chunk_index, table)
        }
        Request::Finish { token } => handle_finish(core, token),
        Request::Resume { tenant, token, schema } => handle_resume(core, &tenant, token, &schema),
    }
}

/// The trace-journal kind a request frame files under.
fn request_kind(frame_type: u8) -> &'static str {
    match frame_type {
        proto::REQ_OPEN => "open",
        proto::REQ_APPEND => "append",
        proto::REQ_FINISH => "finish",
        proto::REQ_RESUME => "resume",
        _ => "unknown",
    }
}

/// Post-request accounting off the completed trace entry: per-tenant counters
/// and the slow-request counter (the journal behind `/tracez` keeps the slowest
/// requests' per-stage breakdowns).
fn account(core: &Core, entry: &f2_obs::TraceEntry, elapsed: Duration) {
    if let Some(tenant) = entry.tenant.as_deref() {
        let tenant_metrics = obs::tenant_metrics(tenant, core.config.tenant_label_cap);
        tenant_metrics.requests.inc();
        tenant_metrics.rows.add(entry.count("rows"));
        tenant_metrics.stream_bytes.add(entry.count("chunk_bytes"));
    }
    if elapsed >= core.config.slow_request_threshold {
        obs::slow_requests_total().inc();
    }
}

fn handle_open(core: &Core, tenant: String, schema: &Schema) -> ServerResult<Response> {
    if core.is_draining() {
        return Err(ServerError::ShuttingDown);
    }
    let scheme =
        core.schemes.scheme(&tenant).ok_or_else(|| ServerError::UnknownTenant(tenant.clone()))?;
    f2_obs::ctx::note_tenant(&tenant);
    let token = core.sessions.allocate(core.stores.as_ref());
    let store = core
        .stores
        .open(token)
        .map_err(|e| ServerError::Internal(format!("job store open: {e}")))?;
    let job = core.sessions.engine_for(token)?.begin_job(scheme.as_ref(), schema, store)?;
    let chunk_rows = as_u64(job.chunk_rows());
    core.sessions.insert_live(token, LoadedJob { tenant, scheme, schema: schema.clone(), job });
    Ok(Response::Open { token, chunk_rows })
}

fn handle_append(
    core: &Core,
    token: u64,
    chunk_index: u64,
    table: Table,
) -> ServerResult<Response> {
    let mut held = acquire(core, token)?;
    let Some(entry) = held.job.as_mut() else {
        return Err(ServerError::Internal("checkout yielded no job".into()));
    };
    f2_obs::ctx::note_tenant(&entry.tenant);
    let rows = table.row_count();
    let cap = entry.job.chunk_rows();
    if rows > cap {
        return Err(ServerError::TooLarge { rows, cap });
    }
    // A chunk the job refuses writes nothing: answer it and keep the job live.
    let chunk = table.as_view();
    entry.job.check_chunk(&chunk).map_err(|e| ServerError::BadRequest(e.to_string()))?;
    let expected = as_u64(entry.job.next_chunk_index());
    if chunk_index != expected {
        return Err(ServerError::WrongChunk { expected, got: chunk_index });
    }
    let scheme = Arc::clone(&entry.scheme);
    match entry.job.append_chunk(scheme.as_ref(), &chunk) {
        Ok(_) => Ok(Response::Append {
            rows: as_u64(entry.job.rows()),
            encrypted_rows: as_u64(entry.job.encrypted_rows()),
            next_chunk: as_u64(entry.job.next_chunk_index()),
        }),
        Err(e) => {
            // The store may hold a torn frame; park so the next touch goes
            // through `resume_job`, which truncates and replays.
            held.park();
            Err(e.into())
        }
    }
}

fn handle_finish(core: &Core, token: u64) -> ServerResult<Response> {
    let mut held = acquire(core, token)?;
    let Some(entry) = held.job.take() else {
        return Err(ServerError::Internal("checkout yielded no job".into()));
    };
    f2_obs::ctx::note_tenant(&entry.tenant);
    // The job is out of the guard now; this settle guard parks it if
    // `finish` fails or panics, so the token can never wedge checked-out.
    let mut settle = SlotGuard {
        sessions: &core.sessions,
        token,
        disposition: Some(Disposition::Park {
            tenant: entry.tenant.clone(),
            schema: entry.schema.clone(),
        }),
    };
    let outcome = entry.job.finish()?;
    settle.disposition = Some(Disposition::Remove);
    drop(settle);
    Ok(Response::Finish {
        rows: as_u64(outcome.rows),
        encrypted_rows: as_u64(outcome.encrypted_rows),
        chunks: as_u64(outcome.chunks.len()),
        bytes_written: outcome.bytes_written,
    })
}

fn handle_resume(core: &Core, tenant: &str, token: u64, schema: &Schema) -> ServerResult<Response> {
    if core.is_draining() {
        return Err(ServerError::ShuttingDown);
    }
    let held = match core.sessions.checkout(token) {
        Ok(Checkout::Live(job)) => Checked { sessions: &core.sessions, token, job: Some(*job) },
        Ok(Checkout::Reload { tenant: stored_tenant, schema: stored_schema }) => {
            reload_checked(core, token, stored_tenant, stored_schema, None)?
        }
        // Not in memory at all: the restart path. The store is the truth;
        // the request supplies the tenant and schema the reload needs.
        Err(ServerError::UnknownJob(_)) => {
            if !core.stores.exists(token) {
                return Err(ServerError::UnknownJob(token));
            }
            core.sessions.claim_for_load(token)?;
            reload_checked(
                core,
                token,
                tenant.to_string(),
                schema.clone(),
                Some(Disposition::Remove),
            )?
        }
        Err(e) => return Err(e),
    };
    let Some(entry) = held.job.as_ref() else {
        return Err(ServerError::Internal("checkout yielded no job".into()));
    };
    // A token is only addressable by its owning tenant; to anyone else it
    // does not exist.
    if entry.tenant != tenant {
        return Err(ServerError::UnknownJob(token));
    }
    f2_obs::ctx::note_tenant(tenant);
    if &entry.schema != schema {
        return Err(ServerError::BadRequest(
            "resume schema disagrees with the job's schema".into(),
        ));
    }
    Ok(Response::Resume {
        token,
        next_chunk: as_u64(entry.job.next_chunk_index()),
        rows_done: as_u64(entry.job.rows()),
        chunk_rows: as_u64(entry.job.chunk_rows()),
    })
}

/// Take exclusive hold of `token`, reloading it from its store if parked.
fn acquire<'a>(core: &'a Core, token: u64) -> ServerResult<Checked<'a>> {
    match core.sessions.checkout(token)? {
        Checkout::Live(job) => Ok(Checked { sessions: &core.sessions, token, job: Some(*job) }),
        Checkout::Reload { tenant, schema } => reload_checked(core, token, tenant, schema, None),
    }
}

/// Reload a checked-out slot from its persisted stream. `on_failure` is what
/// the slot becomes if the reload fails (or panics): `None` re-parks with the
/// given tenant/schema, `Some(Remove)` forgets a freshly claimed slot.
fn reload_checked<'a>(
    core: &'a Core,
    token: u64,
    tenant: String,
    schema: Schema,
    on_failure: Option<Disposition>,
) -> ServerResult<Checked<'a>> {
    let mut claim = SlotGuard {
        sessions: &core.sessions,
        token,
        disposition: Some(on_failure.unwrap_or_else(|| Disposition::Park {
            tenant: tenant.clone(),
            schema: schema.clone(),
        })),
    };
    let scheme =
        core.schemes.scheme(&tenant).ok_or_else(|| ServerError::UnknownTenant(tenant.clone()))?;
    let store = core
        .stores
        .open(token)
        .map_err(|e| ServerError::Internal(format!("job store open: {e}")))?;
    let job = core.sessions.engine_for(token)?.resume_job(scheme.as_ref(), &schema, store)?;
    claim.disposition = None;
    drop(claim);
    Ok(Checked {
        sessions: &core.sessions,
        token,
        job: Some(LoadedJob { tenant, scheme, schema, job }),
    })
}

/// A checked-out job. Drop checks it back in live — or parks it if the
/// thread is unwinding, so a panic mid-append leaves the token resumable.
struct Checked<'a> {
    sessions: &'a Sessions,
    token: u64,
    job: Option<LoadedJob>,
}

impl Checked<'_> {
    /// Park explicitly (the store may hold a torn frame after an error).
    fn park(&mut self) {
        if let Some(job) = self.job.take() {
            self.sessions.park(self.token, job.tenant, job.schema);
        }
    }
}

impl Drop for Checked<'_> {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            if std::thread::panicking() {
                self.sessions.park(self.token, job.tenant, job.schema);
            } else {
                self.sessions.checkin_live(self.token, job);
            }
        }
    }
}

/// What happens to a checked-out slot if its holder bails (error or panic).
enum Disposition {
    /// Forget the token (fresh claim that never produced a job).
    Remove,
    /// Park it for a later resume.
    Park { tenant: String, schema: Schema },
}

struct SlotGuard<'a> {
    sessions: &'a Sessions,
    token: u64,
    disposition: Option<Disposition>,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        match self.disposition.take() {
            Some(Disposition::Remove) => self.sessions.remove(self.token),
            Some(Disposition::Park { tenant, schema }) => {
                self.sessions.park(self.token, tenant, schema);
            }
            None => {}
        }
    }
}

fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}
