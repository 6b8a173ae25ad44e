//! Chaos suite: the service under concurrent clients, injected transport
//! faults, killed connections, overload, expired deadlines, and a full
//! drain/restart — the properties the supervisor guarantees:
//!
//! - no panic ever escapes a connection;
//! - every *accepted* job completes **byte-identical** to a local
//!   single-process run of the same engine configuration, or stays
//!   resumable until it does;
//! - shed connections receive a typed `Overloaded` reply with the
//!   configured retry-after hint, and new connections are served again once
//!   the overload clears;
//! - a drain loses zero accepted jobs, and shed / deadline / drain events
//!   are visible in the service's `/metrics` scrape;
//! - a dropped connection or a refused append leaves its job live, so
//!   resuming it replays nothing;
//! - a silent peer is hung up once `idle_timeout` passes: a transport error
//!   ends a connection, and every recovery is a reconnect plus `resume`.

use f2_core::{DetScheme, Scheme, SchemeOutcome, F2};
use f2_crypto::MasterKey;
use f2_engine::{chunk_seed, Engine, EngineConfig};
use f2_io::TableSource;
use f2_io::{FaultPlan, FaultyReader, FaultyWriter, FrameSink, RowSource};
use f2_relation::{Table, TableView};
use f2_server::{
    channel_acceptor, duplex, http::respond, Client, FinishAck, Hangup, MemoryStores, PipeEnd,
    SchemeProvider, ServerConfig, ServerError, ServerScheme, Service, StaticTenants, StoreProvider,
    TcpAcceptor, Transport,
};
use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ───────────────────────── fixtures ─────────────────────────

const SERVICE_SEED: u64 = 0xC0FFEE;

fn f2_scheme(key: u64) -> Arc<dyn ServerScheme> {
    Arc::new(
        F2::builder()
            .alpha(0.5)
            .seed(17)
            .master_key(MasterKey::from_seed(key))
            .build()
            .expect("valid F2 parameters"),
    )
}

fn det_scheme(key: u64) -> Arc<dyn ServerScheme> {
    Arc::new(DetScheme::new(MasterKey::from_seed(key)))
}

fn chaos_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_depth: 64,
        request_deadline: Duration::from_secs(5),
        idle_timeout: Duration::from_millis(500),
        drain_deadline: Duration::from_millis(500),
        retry_after: Duration::from_millis(25),
        chunk_rows: 8,
        frame_cap: 1 << 22,
        seed: SERVICE_SEED,
        slow_request_threshold: Duration::from_secs(1),
        tenant_label_cap: 32,
    }
}

fn table(rows: usize, seed: u64) -> Table {
    f2_datagen::Dataset::Orders.generate(rows, seed)
}

/// The local ground truth: the exact stream a single process produces for the
/// same scheme, chunking, and token-derived engine seed the service uses.
fn reference_stream(
    scheme: &Arc<dyn ServerScheme>,
    data: &Table,
    chunk_rows: usize,
    token: u64,
) -> Vec<u8> {
    let engine =
        Engine::new(EngineConfig { workers: 1, chunk_rows, seed: chunk_seed(SERVICE_SEED, token) })
            .expect("valid engine config");
    let mut job = engine
        .begin_job(scheme.as_ref(), data.schema(), Cursor::new(Vec::new()))
        .expect("begin reference job");
    let mut source = TableSource::new(data);
    while let Some(chunk) = source.next_chunk(chunk_rows).expect("table source") {
        job.append_chunk(scheme.as_ref(), &chunk).expect("reference append");
    }
    let (_, store) = job.finish_into_store().expect("finish reference job");
    store.into_inner()
}

/// Shuts the service down when dropped, so a failed assertion inside a
/// `thread::scope` unwinds into a drain instead of hanging the scope join on
/// a server thread that would otherwise accept forever.
struct ShutdownOnExit(f2_server::ServiceHandle);

impl Drop for ShutdownOnExit {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn metric_value(prometheus: &str, name: &str) -> f64 {
    prometheus
        .lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or(0.0)
}

/// The body of one `/metrics` scrape of `service`: the response its
/// [`HttpServer`](f2_server::HttpServer) would serve.
fn scrape_metrics(service: &Service) -> String {
    let response = respond(b"GET /metrics HTTP/1.1\r\n\r\n", &service.http_state());
    let response = String::from_utf8(response).expect("utf-8 response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    response.split_once("\r\n\r\n").map(|(_, body)| body.to_string()).unwrap_or_default()
}

// ───────────── a fault-injected server-side transport ─────────────

/// Both directions of one pipe end, shareable between the fault wrappers.
#[derive(Clone)]
struct Half(Arc<Mutex<PipeEnd>>);

impl Read for Half {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.lock().expect("transport lock").read(buf)
    }
}

impl Write for Half {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("transport lock").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("transport lock").flush()
    }
}

/// A pipe end whose reads and writes pass through seeded fault injectors —
/// what the service sees when the chaos tests dial it.
struct ChaosTransport {
    reader: FaultyReader<Half>,
    writer: FaultyWriter<Half>,
    shared: Arc<Mutex<PipeEnd>>,
}

fn chaos_wrap(end: PipeEnd, seed: u64) -> ChaosTransport {
    let shared = Arc::new(Mutex::new(end));
    ChaosTransport {
        reader: FaultyReader::new(Half(Arc::clone(&shared)), FaultPlan::random(seed, 8192, 2)),
        writer: FaultyWriter::new(
            Half(Arc::clone(&shared)),
            FaultPlan::random(seed.wrapping_add(1), 8192, 2),
        ),
        shared,
    }
}

impl Read for ChaosTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for ChaosTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

impl Transport for ChaosTransport {
    fn hangup_handle(&self) -> Box<dyn Hangup> {
        self.shared.lock().expect("transport lock").hangup_handle()
    }

    fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.shared.lock().expect("transport lock").set_io_timeout(timeout)
    }
}

// ───────────── a resume-driven client that survives chaos ─────────────

struct ClientPlan<'a> {
    tenant: &'a str,
    data: &'a Table,
    dial: Sender<Box<dyn Transport>>,
    seed: u64,
    /// On the first attempt, drop the connection cold after this many
    /// appends (simulating a client crash mid-stream).
    kill_after_appends: Option<usize>,
    /// Wrap the server side of every dialed connection in fault injectors.
    faulty: bool,
}

/// Drive one job to completion through as many connections as it takes.
/// Returns the token (for byte verification) and the final ack when this
/// driver observed it (a finish whose reply was lost returns `None`).
fn drive_to_completion(plan: &ClientPlan<'_>) -> (u64, Option<FinishAck>) {
    let mut token = None;
    for attempt in 0..80_u64 {
        let (ours, theirs) = duplex();
        let transport: Box<dyn Transport> = if plan.faulty {
            Box::new(chaos_wrap(theirs, plan.seed.wrapping_add(attempt.wrapping_mul(7919))))
        } else {
            Box::new(theirs)
        };
        if plan.dial.send(transport).is_err() {
            break;
        }
        let mut client = match Client::connect(ours) {
            Ok(client) => client,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        match push_through(&mut client, plan, &mut token, attempt) {
            Ok(ack) => return (token.expect("finished job has a token"), Some(ack)),
            // A resume met a retired token: the finish landed but its reply
            // was lost in transit. The byte check below is the arbiter.
            Err(ServerError::UnknownJob(_)) if token.is_some() => {
                return (token.expect("token observed"), None);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("job for tenant {} never completed", plan.tenant);
}

fn push_through(
    client: &mut Client<PipeEnd>,
    plan: &ClientPlan<'_>,
    token: &mut Option<u64>,
    attempt: u64,
) -> Result<FinishAck, ServerError> {
    let (tok, mut next_chunk, rows_done, chunk_rows) = match *token {
        None => {
            let opened = client.open(plan.tenant, plan.data.schema())?;
            *token = Some(opened.token);
            (opened.token, 0, 0, opened.chunk_rows as usize)
        }
        Some(tok) => {
            let ack = client.resume(plan.tenant, tok, plan.data.schema())?;
            (tok, ack.next_chunk, ack.rows_done, ack.chunk_rows as usize)
        }
    };
    let mut source = TableSource::new(plan.data);
    if rows_done > 0 {
        source.seek_to_row(rows_done as usize)?;
    }
    let mut appends = 0;
    while let Some(chunk) = source.next_chunk(chunk_rows.max(1))? {
        if attempt == 0 && plan.kill_after_appends == Some(appends) {
            // Simulated client crash: abandon the connection cold.
            return Err(ServerError::Disconnected);
        }
        let ack = client.append(tok, next_chunk, chunk.to_table())?;
        next_chunk = ack.next_chunk;
        appends += 1;
    }
    client.finish(tok)
}

// ───────────────────────── the chaos drill ─────────────────────────

/// ≥ 8 concurrent clients, mixed F²/deterministic tenants, every server-side
/// socket wrapped in seeded fault injectors, half the clients crashing cold
/// mid-stream. Every job must complete and match the local ground truth
/// byte for byte.
#[test]
fn eight_faulty_clients_complete_byte_identical_jobs() {
    let tenants: Vec<(String, Arc<dyn ServerScheme>)> = (0..8)
        .map(|i| {
            let scheme = if i % 2 == 0 { f2_scheme(100 + i) } else { det_scheme(100 + i) };
            (format!("tenant-{i}"), scheme)
        })
        .collect();
    let mut registry = StaticTenants::new();
    for (name, scheme) in &tenants {
        registry = registry.with_tenant(name.clone(), Arc::clone(scheme));
    }
    let schemes = Arc::new(registry);
    let stores = Arc::new(MemoryStores::new());
    let config = chaos_config();
    let chunk_rows = config.chunk_rows;
    let service = Service::new(config, schemes, Arc::clone(&stores) as Arc<dyn StoreProvider>);
    let handle = service.handle();
    let (dial, acceptor) = channel_acceptor();

    let tables: Vec<Table> = (0..8).map(|i| table(12 + 7 * i, 1000 + i as u64)).collect();

    let completions: Vec<(usize, u64)> = std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle.clone());
        let server = s.spawn(|| service.run(acceptor));
        let clients: Vec<_> = (0..8)
            .map(|i| {
                let plan_dial = dial.clone();
                let tenant = tenants[i].0.clone();
                let data = &tables[i];
                s.spawn(move || {
                    let plan = ClientPlan {
                        tenant: &tenant,
                        data,
                        dial: plan_dial,
                        seed: 0x5EED_0000 + i as u64,
                        kill_after_appends: (i % 2 == 1).then_some(1),
                        faulty: true,
                    };
                    let (token, _ack) = drive_to_completion(&plan);
                    (i, token)
                })
            })
            .collect();
        let completions: Vec<(usize, u64)> =
            clients.into_iter().map(|c| c.join().expect("client thread")).collect();
        handle.shutdown();
        server.join().expect("server thread").expect("server ran");
        completions
    });

    assert_eq!(completions.len(), 8);
    for (i, token) in completions {
        let served = stores.snapshot(token).unwrap_or_else(|| panic!("job {token} left no stream"));
        let expected = reference_stream(&tenants[i].1, &tables[i], chunk_rows, token);
        assert_eq!(
            served, expected,
            "tenant-{i} (token {token}): served stream differs from the local ground truth"
        );
    }
}

// ───────────────────────── load shedding ─────────────────────────

/// With one worker held busy and a one-deep queue, excess connections are
/// shed with a typed `Overloaded` carrying the configured retry-after hint —
/// and the event shows up in the service's `/metrics` scrape.
#[test]
fn excess_connections_are_shed_with_a_typed_overloaded_reply() {
    let schemes = Arc::new(StaticTenants::new().with_tenant("acme", det_scheme(7)));
    let stores = Arc::new(MemoryStores::new());
    // A long idle timeout keeps the worker pinned for the whole test; the
    // pinned connections are released by hangup (dropping our ends), which
    // wakes the blocked reads immediately.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        idle_timeout: Duration::from_secs(30),
        retry_after: Duration::from_millis(37),
        seed: SERVICE_SEED,
        ..ServerConfig::default()
    };
    let retry_after = config.retry_after;
    let service = Service::new(config, schemes, stores);
    let handle = service.handle();
    let (dial, acceptor) = channel_acceptor();
    let schema = table(8, 1).schema().clone();

    std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle.clone());
        let server = s.spawn(|| service.run(acceptor));

        // Occupy the worker: a connection that never sends a request sits in
        // the server's preamble read until we hang it up. Reading the
        // server's preamble back confirms the worker has *popped* it — only
        // then is the queue slot free for the next connection, so the
        // occupancy setup is race-free even with one worker.
        let (mut idle_ours, idle_theirs) = duplex();
        dial.send(Box::new(idle_theirs)).expect("dial");
        let mut preamble_byte = [0_u8; 1];
        idle_ours.read_exact(&mut preamble_byte).expect("worker picked up the pinned connection");
        // Fill the one queue slot the same way (the only worker is busy, so
        // this one stays queued).
        let (queued_ours, queued_theirs) = duplex();
        dial.send(Box::new(queued_theirs)).expect("dial");

        // Everyone else must be shed, typed. The rejection can surface at
        // connect time (the server's reply-and-hangup beat our preamble) or
        // on the first request — both deliver the typed error.
        for attempt in 0..6 {
            let (ours, theirs) = duplex();
            dial.send(Box::new(theirs)).expect("dial");
            let outcome = Client::connect(ours).and_then(|mut c| c.open("acme", &schema));
            match outcome {
                Err(ServerError::Overloaded { retry_after: hint }) => {
                    assert_eq!(hint, retry_after, "retry-after hint must be the configured one");
                }
                other => panic!("attempt {attempt}: expected a typed Overloaded, got {other:?}"),
            }
        }
        drop((idle_ours, queued_ours));

        // Once the pool frees up, connections are admitted and served again…
        let mut served = false;
        for _ in 0..100 {
            let (ours, theirs) = duplex();
            dial.send(Box::new(theirs)).expect("dial");
            let opened = Client::connect(ours).and_then(|mut c| {
                let opened = c.open("acme", &schema)?;
                let _ = c.close();
                Ok(opened)
            });
            if opened.is_ok() {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(served, "a request must be served once the overload clears");

        // …and the scrape reports the shedding.
        let reported = metric_value(&scrape_metrics(&service), "f2_server_shed_total");
        assert!(reported >= 1.0, "the scrape must report f2_server_shed_total >= 1");

        handle.shutdown();
        server.join().expect("server thread").expect("server ran");
    });
}

// ───────────────────────── deadlines ─────────────────────────

/// A scheme that encrypts correctly but slowly — the deadline wheel's prey.
struct SlowScheme {
    inner: Arc<DetScheme>,
    delay: Duration,
}

impl Scheme for SlowScheme {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decrypt(&self, outcome: &SchemeOutcome) -> f2_core::Result<Table> {
        self.inner.decrypt(outcome)
    }

    fn real_rows(&self, outcome: &SchemeOutcome) -> f2_core::Result<Vec<(usize, usize)>> {
        self.inner.real_rows(outcome)
    }

    fn reseeded(&self, _seed: u64) -> Box<dyn Scheme> {
        // Deterministic backend: reseeding is the identity.
        Box::new(SlowScheme { inner: Arc::clone(&self.inner), delay: self.delay })
    }

    fn encrypt_view(&self, view: &TableView<'_>) -> f2_core::Result<SchemeOutcome> {
        std::thread::sleep(self.delay);
        self.inner.encrypt_view(view)
    }
}

/// An append that outlives its deadline gets the connection hung up, the
/// expiry is metered, and the job stays consistent: the committed chunk is
/// visible after resume and the job still finishes byte-identical.
#[test]
fn an_expired_deadline_hangs_up_but_never_corrupts_the_job() {
    let det = Arc::new(DetScheme::new(MasterKey::from_seed(21)));
    let slow: Arc<dyn ServerScheme> =
        Arc::new(SlowScheme { inner: Arc::clone(&det), delay: Duration::from_millis(200) });
    let plain: Arc<dyn ServerScheme> = det;
    let schemes = Arc::new(StaticTenants::new().with_tenant("slow", Arc::clone(&slow)));
    let stores = Arc::new(MemoryStores::new());
    let config = ServerConfig {
        workers: 2,
        request_deadline: Duration::from_millis(40),
        idle_timeout: Duration::from_secs(2),
        chunk_rows: 8,
        seed: SERVICE_SEED,
        ..ServerConfig::default()
    };
    let chunk_rows = config.chunk_rows;
    let service = Service::new(config, schemes, Arc::clone(&stores) as Arc<dyn StoreProvider>);
    let handle = service.handle();
    let (dial, acceptor) = channel_acceptor();
    let data = table(16, 5);

    std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle.clone());
        let server = s.spawn(|| service.run(acceptor));

        let before =
            metric_value(&f2_obs::global().prometheus_string(), "f2_server_deadline_expired_total");

        // The plain resume-driven client: its first append blows the
        // deadline, loses the connection, resumes, and still gets there.
        let plan = ClientPlan {
            tenant: "slow",
            data: &data,
            dial: dial.clone(),
            seed: 0xDEAD,
            kill_after_appends: None,
            faulty: false,
        };
        let (token, _ack) = drive_to_completion(&plan);

        // The expiry was metered, and the scrape serves it.
        let after = metric_value(&scrape_metrics(&service), "f2_server_deadline_expired_total");
        assert!(
            after > before,
            "deadline expiries must be metered (before {before}, after {after})"
        );

        // And the stream is exactly what a calm local run produces.
        let served_stream = stores.snapshot(token).expect("job stream persisted");
        let expected = reference_stream(&slow, &data, chunk_rows, token);
        assert_eq!(served_stream, expected, "deadline chaos corrupted the stream");
        drop(plain);

        handle.shutdown();
        server.join().expect("server thread").expect("server ran");
    });
}

// ───────────────────────── graceful drain ─────────────────────────

/// Shutdown with a half-finished job: the drain completes within its
/// deadline, the drained connection is metered, and a *new* service over the
/// same stores resumes the job to a byte-identical finish — zero accepted
/// work lost.
#[test]
fn a_drain_preserves_half_finished_jobs_across_a_service_restart() {
    let scheme = f2_scheme(55);
    let schemes = Arc::new(StaticTenants::new().with_tenant("acme", Arc::clone(&scheme)));
    let stores = Arc::new(MemoryStores::new());
    let config = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(3),
        drain_deadline: Duration::from_millis(300),
        chunk_rows: 8,
        seed: SERVICE_SEED,
        ..ServerConfig::default()
    };
    let chunk_rows = config.chunk_rows;
    let data = table(24, 9);

    // ── Service A: accept a job, append one chunk, then drain. ──
    let service_a = Service::new(
        config.clone(),
        Arc::clone(&schemes) as Arc<dyn SchemeProvider>,
        Arc::clone(&stores) as Arc<dyn StoreProvider>,
    );
    let handle_a = service_a.handle();
    let (dial_a, acceptor_a) = channel_acceptor();
    let token = std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle_a.clone());
        let server = s.spawn(|| service_a.run(acceptor_a));
        let (ours, theirs) = duplex();
        dial_a.send(Box::new(theirs)).expect("dial");
        let mut client = Client::connect(ours).expect("connect");
        let opened = client.open("acme", data.schema()).expect("open");
        let first = TableSource::new(&data)
            .next_chunk(chunk_rows)
            .expect("chunk")
            .expect("rows")
            .to_table();
        client.append(opened.token, 0, first).expect("append");

        // New work is refused once the drain begins…
        handle_a.shutdown();
        let refused = client.open("acme", data.schema());
        assert!(
            matches!(refused, Err(ServerError::ShuttingDown)),
            "admissions during drain must be refused typed, got {refused:?}"
        );
        // …and the connection (still open, now idle) is cut by the drain
        // deadline rather than held forever.
        server.join().expect("server thread").expect("drain completed");
        opened.token
    });

    // ── Service B over the SAME stores: the job resumes and finishes. ──
    let service_b = Service::new(config, schemes, Arc::clone(&stores) as Arc<dyn StoreProvider>);
    let handle_b = service_b.handle();
    let (dial_b, acceptor_b) = channel_acceptor();
    std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle_b.clone());
        let server = s.spawn(|| service_b.run(acceptor_b));
        let (ours, theirs) = duplex();
        dial_b.send(Box::new(theirs)).expect("dial");
        let mut client = Client::connect(ours).expect("connect");
        let ack = client.resume("acme", token, data.schema()).expect("resume after restart");
        assert_eq!(ack.next_chunk, 1, "the acknowledged chunk survived the drain");
        assert_eq!(ack.rows_done, chunk_rows as u64);

        let mut source = TableSource::new(&data);
        source.seek_to_row(ack.rows_done as usize).expect("seek");
        let mut next = ack.next_chunk;
        while let Some(chunk) = source.next_chunk(chunk_rows).expect("chunk") {
            next = client
                .append(token, next, chunk.to_table())
                .expect("append after restart")
                .next_chunk;
        }
        let fin = client.finish(token).expect("finish after restart");
        assert_eq!(fin.rows, data.row_count() as u64);
        client.open("acme", data.schema()).expect("the connection serves requests after finish");

        // Drain events from service A are visible in B's scrape.
        let text = scrape_metrics(&service_b);
        assert!(
            metric_value(&text, "f2_server_drained_total") >= 1.0,
            "B's scrape must report f2_server_drained_total >= 1"
        );
        let _ = client.close();
        handle_b.shutdown();
        server.join().expect("server thread").expect("server ran");
    });

    let served = stores.snapshot(token).expect("job stream persisted");
    let expected = reference_stream(&scheme, &data, chunk_rows, token);
    assert_eq!(served, expected, "drain + restart must lose nothing");
}

// ───────────────────────── jobs that stay live ─────────────────────────

/// A deterministic scheme that counts its encryptions across every reseeded
/// clone — the record of what the service encrypted, replays included.
struct CountingScheme {
    inner: Arc<DetScheme>,
    encryptions: Arc<AtomicUsize>,
}

impl Scheme for CountingScheme {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn encrypt_view(&self, view: &TableView<'_>) -> f2_core::Result<SchemeOutcome> {
        self.encryptions.fetch_add(1, Ordering::SeqCst);
        self.inner.encrypt_view(view)
    }

    fn decrypt(&self, outcome: &SchemeOutcome) -> f2_core::Result<Table> {
        self.inner.decrypt(outcome)
    }

    fn reseeded(&self, _seed: u64) -> Box<dyn Scheme> {
        // Deterministic backend: reseeding is the identity.
        Box::new(CountingScheme {
            inner: Arc::clone(&self.inner),
            encryptions: Arc::clone(&self.encryptions),
        })
    }
}

/// The chunk size of [`with_counting_service`]'s service.
const LIVE_CHUNK_ROWS: usize = 8;

/// Serve one tenant, `acme`, whose scheme counts its encryptions over a
/// deterministic scheme, to `script` on [`LIVE_CHUNK_ROWS`]-row chunks.
/// `script` dials new connections with the closure it is handed, reads the
/// count from the counter, and returns its job's token. Returns the job's
/// stored stream and the stream a local run over `data` writes, which must be
/// equal.
fn with_counting_service(
    data: &Table,
    script: impl FnOnce(&dyn Fn() -> Client<PipeEnd>, &AtomicUsize) -> u64,
) -> (Vec<u8>, Vec<u8>) {
    let det = Arc::new(DetScheme::new(MasterKey::from_seed(33)));
    let encryptions = Arc::new(AtomicUsize::new(0));
    let counting: Arc<dyn ServerScheme> =
        Arc::new(CountingScheme { inner: Arc::clone(&det), encryptions: Arc::clone(&encryptions) });
    let schemes = Arc::new(StaticTenants::new().with_tenant("acme", counting));
    let stores = Arc::new(MemoryStores::new());
    let config = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(3),
        chunk_rows: LIVE_CHUNK_ROWS,
        seed: SERVICE_SEED,
        ..ServerConfig::default()
    };
    let service = Service::new(config, schemes, Arc::clone(&stores) as Arc<dyn StoreProvider>);
    let handle = service.handle();
    let (dial, acceptor) = channel_acceptor();
    let connect = || {
        let (ours, theirs) = duplex();
        dial.send(Box::new(theirs)).expect("dial");
        Client::connect(ours).expect("connect")
    };

    let token = std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle.clone());
        let server = s.spawn(|| service.run(acceptor));
        let token = script(&connect, &encryptions);
        handle.shutdown();
        server.join().expect("server thread").expect("server ran");
        token
    });

    let served = stores.snapshot(token).expect("job stream persisted");
    let plain: Arc<dyn ServerScheme> = det;
    (served, reference_stream(&plain, data, LIVE_CHUNK_ROWS, token))
}

/// A client that drops its connection mid-job without closing it leaves the
/// job live, not parked: resuming on a new connection reports the job's
/// counters without replaying (re-encrypting) its stored prefix, and the job
/// still finishes byte-identical to a local run.
#[test]
fn a_dropped_connection_leaves_its_job_live_and_resume_replays_nothing() {
    let data = table(24, 13);
    let chunk_rows = LIVE_CHUNK_ROWS;
    let (served, expected) = with_counting_service(&data, |connect, encryptions| {
        // Open a job, append one chunk, and drop the connection cold.
        let mut client = connect();
        let opened = client.open("acme", data.schema()).expect("open");
        let first = TableSource::new(&data)
            .next_chunk(chunk_rows)
            .expect("chunk")
            .expect("rows")
            .to_table();
        client.append(opened.token, 0, first).expect("append");
        assert_eq!(encryptions.load(Ordering::SeqCst), 1);
        drop(client);

        // The job is still live: resume reads its counters and replays nothing.
        let mut client = connect();
        let ack = client.resume("acme", opened.token, data.schema()).expect("resume");
        assert_eq!(ack.next_chunk, 1);
        assert_eq!(ack.rows_done, chunk_rows as u64);
        assert_eq!(encryptions.load(Ordering::SeqCst), 1, "resume re-encrypted the prefix");

        let mut source = TableSource::new(&data);
        source.seek_to_row(ack.rows_done as usize).expect("seek");
        let mut next = ack.next_chunk;
        while let Some(chunk) = source.next_chunk(chunk_rows).expect("chunk") {
            next = client.append(opened.token, next, chunk.to_table()).expect("append").next_chunk;
        }
        assert_eq!(encryptions.load(Ordering::SeqCst), 3, "one encryption per chunk");
        let fin = client.finish(opened.token).expect("finish");
        assert_eq!(fin.rows, data.row_count() as u64);
        let _ = client.close();
        opened.token
    });
    assert_eq!(served, expected, "the resumed job diverged from a local run");
}

/// An append the job refuses (here, one after the job's short final chunk)
/// writes nothing, so it leaves the job live and the connection open: the
/// refusal is a typed `BadRequest`, and a resume on the same connection
/// reports the job's counters without replaying (re-encrypting) its stored
/// prefix.
#[test]
fn a_refused_append_leaves_its_job_live_and_resume_replays_nothing() {
    let data = table(5, 14); // one short chunk
    let (served, expected) = with_counting_service(&data, |connect, encryptions| {
        let mut client = connect();
        let opened = client.open("acme", data.schema()).expect("open");
        client.append(opened.token, 0, data.clone()).expect("short append");
        assert_eq!(encryptions.load(Ordering::SeqCst), 1);
        // No chunk may follow a short one: refused before anything is written.
        match client.append(opened.token, 1, data.clone()) {
            Err(ServerError::BadRequest(message)) => {
                assert!(message.contains("short chunk"), "{message}");
            }
            other => panic!("expected a BadRequest refusal, got {other:?}"),
        }
        assert_eq!(encryptions.load(Ordering::SeqCst), 1);

        // The connection and the job are still live: resume reads its counters
        // and replays nothing.
        let ack = client.resume("acme", opened.token, data.schema()).expect("resume");
        assert_eq!((ack.next_chunk, ack.rows_done), (1, data.row_count() as u64));
        assert_eq!(encryptions.load(Ordering::SeqCst), 1, "resume re-encrypted the prefix");
        let fin = client.finish(opened.token).expect("finish");
        assert_eq!(fin.rows, data.row_count() as u64);
        let _ = client.close();
        opened.token
    });
    assert_eq!(served, expected, "the refused append changed the job's stream");
}

// ───────────────────────── real sockets ─────────────────────────

/// The same service over real TCP: a client encrypts a table end-to-end, and
/// the service's `/metrics` scrape counts the requests.
#[test]
fn the_service_speaks_tcp() {
    let scheme = f2_scheme(77);
    let schemes = Arc::new(StaticTenants::new().with_tenant("acme", Arc::clone(&scheme)));
    let stores = Arc::new(MemoryStores::new());
    let config =
        ServerConfig { workers: 2, chunk_rows: 8, seed: SERVICE_SEED, ..ServerConfig::default() };
    let chunk_rows = config.chunk_rows;
    let service = Service::new(config, schemes, Arc::clone(&stores) as Arc<dyn StoreProvider>);
    let handle = service.handle();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("local addr");
    let data = table(20, 3);

    std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle.clone());
        let server = s.spawn(|| service.run(acceptor));
        let socket = std::net::TcpStream::connect(addr).expect("connect");
        let mut client = Client::connect(socket).expect("client");
        let ack = client.encrypt_table("acme", &data).expect("encrypt over TCP");
        assert_eq!(ack.rows, 20);
        assert_eq!(ack.chunks, 3);
        client.open("acme", data.schema()).expect("the connection serves requests after finish");
        let text = scrape_metrics(&service);
        assert!(
            metric_value(&text, "f2_server_requests_total") >= 1.0,
            "the scrape must count requests"
        );
        let _ = client.close();
        handle.shutdown();
        server.join().expect("server thread").expect("server ran");
    });

    // TCP jobs persist and verify exactly like in-memory ones.
    let (token, bytes) =
        (1..10).find_map(|t| stores.snapshot(t).map(|b| (t, b))).expect("a job stream persisted");
    let expected = reference_stream(&scheme, &data, chunk_rows, token);
    assert_eq!(bytes, expected);
}

/// `idle_timeout` is the whole idle budget: a TCP client that sends nothing,
/// and one that stops after the F2WS preamble, are each hung up within twice
/// the timeout — a timed-out read ends the connection, it is not retried.
#[test]
fn silent_peers_are_hung_up_once_the_idle_timeout_passes() {
    let schemes = Arc::new(StaticTenants::new().with_tenant("acme", det_scheme(7)));
    let stores = Arc::new(MemoryStores::new());
    let idle_timeout = Duration::from_millis(300);
    let config = ServerConfig { idle_timeout, ..ServerConfig::default() };
    let service = Service::new(config, schemes, stores);
    let handle = service.handle();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("local addr");

    std::thread::scope(|s| {
        let _drain_on_panic = ShutdownOnExit(handle.clone());
        let server = s.spawn(|| service.run(acceptor));
        let dial = || {
            let socket = std::net::TcpStream::connect(addr).expect("connect");
            // A backstop so a server that never hangs up fails the test
            // instead of hanging it.
            socket.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            socket
        };
        let silent = (dial(), Instant::now());
        let mut preamble_only = dial();
        let _ = FrameSink::new(&mut preamble_only).expect("send the preamble");
        let preamble_only = (preamble_only, Instant::now());
        for (what, (mut socket, since)) in [("silent", silent), ("preamble-only", preamble_only)] {
            // The server's preamble, then EOF once it hangs up.
            let mut received = Vec::new();
            socket.read_to_end(&mut received).expect("the server hangs up");
            let waited = since.elapsed();
            assert!(
                waited < 2 * idle_timeout,
                "{what} client hung up after {waited:?}, idle_timeout is {idle_timeout:?}"
            );
        }
        handle.shutdown();
        server.join().expect("server thread").expect("server ran");
    });
}
