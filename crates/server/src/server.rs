//! The supervisor: a bounded worker pool behind a bounded admission queue,
//! with load shedding past the high-water mark and a graceful, deadline-bound
//! drain.
//!
//! The accept loop never blocks on a client: a connection either enters the
//! admission queue, or — past the high-water mark — is shed on the spot with
//! a typed [`Overloaded`](crate::ServerError::Overloaded) reply carrying a
//! retry-after hint. Workers pop connections and run them to completion; the
//! per-request deadline watchdog and the idle I/O timeout bound how long any one
//! connection can hold a worker.
//!
//! Shutdown ([`ServiceHandle::shutdown`]) flips one flag: the accept loop
//! stops, open/resume requests are refused with `ShuttingDown`, queued and
//! in-flight connections drain up to `drain_deadline`, then stragglers are
//! hung up. Jobs those stragglers held stay resumable — their streams
//! already persist every acknowledged chunk, so a drain loses no accepted
//! work and a restarted service reloads them.

use crate::conn;
use crate::deadline::Deadlines;
use crate::error::ServerError;
use crate::obs;
use crate::proto;
use crate::session::{SchemeProvider, Sessions, StoreProvider};
use crate::transport::{Hangup, Transport};
use f2_io::FrameSink;
use f2_relation::parallel::POOL_THREAD_PREFIX;
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for one service instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections (≥ 1).
    pub workers: usize,
    /// Admission-queue high-water mark: connections beyond it are shed.
    pub queue_depth: usize,
    /// Per-request deadline; an expired request hangs the connection up and
    /// replies [`DeadlineExpired`](ServerError::DeadlineExpired).
    pub request_deadline: Duration,
    /// Idle/half-open reaping: a connection silent this long is dropped.
    pub idle_timeout: Duration,
    /// How long a drain waits for in-flight connections before hanging them
    /// up (their jobs stay resumable from their stores).
    pub drain_deadline: Duration,
    /// The backoff hint shed connections receive.
    pub retry_after: Duration,
    /// Rows per chunk for every job this service runs.
    ///
    /// **Threads:** the `workers` are pool threads, so a chunk of at least
    /// 65,536 cells builds its columnar index on the worker that encrypts it
    /// and starts no threads beside them (see
    /// [`EngineConfig::chunk_rows`](f2_engine::EngineConfig::chunk_rows)).
    pub chunk_rows: usize,
    /// Per-connection frame memory cap (bytes); larger frames are refused
    /// before allocation.
    pub frame_cap: usize,
    /// Service seed; each job's engine seed derives deterministically from it
    /// and the job token, so resumes re-derive identical key schedules.
    pub seed: u64,
    /// Requests at least this slow count into `f2_server_slow_requests_total`;
    /// `/tracez` keeps the slowest requests' per-stage breakdowns.
    pub slow_request_threshold: Duration,
    /// Distinct tenants that get their own label on the per-tenant metric
    /// families; tenants past the cap aggregate under `tenant="_other"`.
    pub tenant_label_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            request_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            retry_after: Duration::from_millis(200),
            chunk_rows: 512,
            frame_cap: 1 << 24,
            seed: 0xF2F2_5EED,
            slow_request_threshold: Duration::from_secs(1),
            tenant_label_cap: 32,
        }
    }
}

/// Everything the connection and session layers share.
pub(crate) struct Core {
    pub(crate) config: ServerConfig,
    pub(crate) schemes: Arc<dyn SchemeProvider>,
    pub(crate) stores: Arc<dyn StoreProvider>,
    pub(crate) sessions: Sessions,
    pub(crate) deadlines: Deadlines,
    pub(crate) conns: ConnRegistry,
    /// Mints request/trace ids for requests that arrive without a wire trace
    /// context. Seeded from the service seed, so replayed workloads trace
    /// deterministically.
    pub(crate) ids: f2_obs::IdSource,
    queue: Queue,
    shutdown: AtomicBool,
}

impl Core {
    /// Whether shutdown has been requested (admissions refused from then on).
    pub(crate) fn is_draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Connections currently waiting in the admission queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// Hangup handles of every connection currently being served, so drain can
/// cut stragglers loose.
pub(crate) struct ConnRegistry {
    inner: Mutex<HashMap<u64, Arc<dyn Hangup>>>,
    next: AtomicU64,
}

impl ConnRegistry {
    fn new() -> Self {
        ConnRegistry { inner: Mutex::new(HashMap::new()), next: AtomicU64::new(1) }
    }

    pub(crate) fn register(&self, hangup: Arc<dyn Hangup>) -> u64 {
        let id = self.next.fetch_add(1, Ordering::SeqCst);
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).insert(id, hangup);
        id
    }

    pub(crate) fn unregister(&self, id: u64) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
    }

    fn active(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    fn hangup_all(&self) {
        let handles: Vec<Arc<dyn Hangup>> = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(Arc::clone)
            .collect();
        for handle in handles {
            handle.hangup();
        }
    }
}

/// Outcome of an admission attempt.
enum Push {
    Admitted,
    Full(Box<dyn Transport>),
    Closed(Box<dyn Transport>),
}

/// The bounded admission queue between the accept loop and the worker pool.
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    items: VecDeque<Box<dyn Transport>>,
    closed: bool,
}

impl Queue {
    fn new() -> Self {
        Queue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, transport: Box<dyn Transport>, depth: usize) -> Push {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Push::Closed(transport);
        }
        if state.items.len() >= depth.max(1) {
            return Push::Full(transport);
        }
        state.items.push_back(transport);
        obs::queue_depth().set(depth_i64(state.items.len()));
        drop(state);
        self.ready.notify_one();
        Push::Admitted
    }

    /// Blocks for the next connection; `None` once closed *and* empty, so
    /// workers drain everything already admitted before exiting.
    fn pop(&self) -> Option<Box<dyn Transport>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                obs::queue_depth().set(depth_i64(state.items.len()));
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.ready.notify_all();
    }

    fn is_empty(&self) -> bool {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).items.is_empty()
    }

    fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).items.len()
    }
}

fn depth_i64(len: usize) -> i64 {
    i64::try_from(len).unwrap_or(i64::MAX)
}

/// A source of inbound connections the service runs over.
pub trait Acceptor: Send {
    /// The next connection, if one is ready. `Ok(None)` means "poll again"
    /// (the service checks its shutdown flag between polls); an error ends
    /// the accept loop and starts a drain.
    fn accept(&mut self) -> std::io::Result<Option<Box<dyn Transport>>>;
}

/// TCP acceptor: non-blocking accepts with a short poll sleep, so shutdown
/// is noticed promptly.
pub struct TcpAcceptor {
    listener: TcpListener,
    poll: Duration,
}

impl TcpAcceptor {
    /// Bind a listener on `addr`.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpAcceptor { listener, poll: Duration::from_millis(5) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }
}

impl Acceptor for TcpAcceptor {
    fn accept(&mut self) -> std::io::Result<Option<Box<dyn Transport>>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(self.poll);
                Ok(None)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// In-process acceptor fed through a channel — how tests and chaos suites
/// dial the service with [`duplex`](crate::pipe::duplex) pipe ends (optionally
/// wrapped in fault injectors).
pub struct ChannelAcceptor {
    rx: mpsc::Receiver<Box<dyn Transport>>,
}

/// A `(dialer, acceptor)` pair: transports sent on the dialer are served by
/// a service running the acceptor. Dropping every dialer ends the accept
/// loop with an error (which still drains gracefully).
#[must_use]
pub fn channel_acceptor() -> (mpsc::Sender<Box<dyn Transport>>, ChannelAcceptor) {
    let (tx, rx) = mpsc::channel();
    (tx, ChannelAcceptor { rx })
}

impl Acceptor for ChannelAcceptor {
    fn accept(&mut self) -> std::io::Result<Option<Box<dyn Transport>>> {
        match self.rx.recv_timeout(Duration::from_millis(10)) {
            Ok(transport) => Ok(Some(transport)),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "every dialer dropped"))
            }
        }
    }
}

/// The supervised encryption service. Construct, grab a [`ServiceHandle`]
/// for shutdown, then [`run`](Service::run) it over an [`Acceptor`].
pub struct Service {
    core: Arc<Core>,
}

/// A clonable handle that can request a graceful drain from any thread.
#[derive(Clone)]
pub struct ServiceHandle {
    core: Arc<Core>,
}

impl ServiceHandle {
    /// Request shutdown: admissions stop, in-flight work drains up to the
    /// configured deadline, incomplete jobs stay resumable.
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Service {
    /// A service over the given tenants and job stores.
    #[must_use]
    pub fn new(
        config: ServerConfig,
        schemes: Arc<dyn SchemeProvider>,
        stores: Arc<dyn StoreProvider>,
    ) -> Self {
        let sessions = Sessions::new(config.seed, config.chunk_rows.max(1));
        let deadlines = Deadlines::new();
        let ids = f2_obs::IdSource::seeded(config.seed ^ 0x7261_6365_5F69_6473);
        Service {
            core: Arc::new(Core {
                config,
                schemes,
                stores,
                sessions,
                deadlines,
                conns: ConnRegistry::new(),
                ids,
                queue: Queue::new(),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Shared state for an HTTP scrape listener
    /// ([`HttpServer`](crate::http::HttpServer)) attached to this service:
    /// the global metrics registry, the global trace journal, and a health
    /// source that reports `draining` once shutdown starts and `overloaded`
    /// while the admission queue is at its high-water mark.
    #[must_use]
    pub fn http_state(&self) -> crate::http::HttpState {
        crate::http::HttpState::new(
            f2_obs::global().clone(),
            Arc::clone(f2_obs::journal()),
            Arc::new(CoreHealth { core: Arc::clone(&self.core) }),
        )
    }

    /// A shutdown handle for this service.
    #[must_use]
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle { core: Arc::clone(&self.core) }
    }

    /// Serve connections until shutdown is requested (or the acceptor fails),
    /// then drain and return. One `run` per service instance: the shutdown
    /// flag is sticky.
    pub fn run<A: Acceptor>(&self, mut acceptor: A) -> std::io::Result<()> {
        let core = &*self.core;
        std::thread::scope(|scope| {
            for index in 0..core.config.workers.max(1) {
                // Named as pool threads, so a chunk index they build, or a chunk
                // a resume replay decrypts, starts no helpers.
                let spawned = std::thread::Builder::new()
                    .name(format!("{POOL_THREAD_PREFIX}server-{index}"))
                    .spawn_scoped(scope, move || {
                        while let Some(transport) = core.queue.pop() {
                            conn::serve(core, transport);
                        }
                    });
                if let Err(e) = spawned {
                    // Release any workers already parked on the queue before
                    // bailing, or the scope would never join.
                    core.queue.close();
                    return Err(e);
                }
            }
            let accept_result = loop {
                if core.is_draining() {
                    break Ok(());
                }
                match acceptor.accept() {
                    Ok(Some(transport)) => admit(core, transport),
                    Ok(None) => {}
                    Err(e) => break Err(e),
                }
            };
            core.shutdown.store(true, Ordering::SeqCst);
            core.queue.close();
            drain(core);
            accept_result
        })
    }
}

/// [`crate::http::HealthSource`] over the service core: draining beats
/// overloaded beats ok.
struct CoreHealth {
    core: Arc<Core>,
}

impl crate::http::HealthSource for CoreHealth {
    fn health(&self) -> crate::http::Health {
        if self.core.is_draining() {
            crate::http::Health::Draining
        } else if self.core.queue_len() >= self.core.config.queue_depth.max(1) {
            crate::http::Health::Overloaded
        } else {
            crate::http::Health::Ok
        }
    }
}

/// Admit a connection, or shed it with a typed reply.
fn admit(core: &Core, transport: Box<dyn Transport>) {
    match core.queue.push(transport, core.config.queue_depth) {
        Push::Admitted => {}
        Push::Full(t) => {
            obs::shed_total().inc();
            reject(core, t, &ServerError::Overloaded { retry_after: core.config.retry_after });
        }
        Push::Closed(t) => reject(core, t, &ServerError::ShuttingDown),
    }
}

/// Best-effort typed rejection, written inline on the accept thread with a
/// short timeout so a slow client cannot stall admissions.
fn reject(core: &Core, mut transport: Box<dyn Transport>, error: &ServerError) {
    obs::connections_total().inc();
    let timeout = core.config.idle_timeout.min(Duration::from_millis(250));
    let _ = transport.set_io_timeout(Some(timeout));
    let (ty, payload) = proto::encode_error(error);
    if let Ok(mut sink) = FrameSink::new(transport) {
        let _ = sink.write_frame(ty, &payload);
        let _ = sink.finish();
    }
}

/// Wait for queued + in-flight connections to finish; past the deadline,
/// hang stragglers up (their jobs stay resumable) until everything is gone.
fn drain(core: &Core) {
    let deadline = Instant::now() + core.config.drain_deadline;
    loop {
        if core.queue.is_empty() && core.conns.active() == 0 {
            return;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    while !(core.queue.is_empty() && core.conns.active() == 0) {
        core.conns.hangup_all();
        std::thread::sleep(Duration::from_millis(5));
    }
}
