//! The supervised encryption service end to end: multi-tenant jobs over real
//! TCP, a client crash healed by byte-exact resume, a graceful drain that
//! parks a half-finished job, and a service restart that finishes it — with
//! the whole story visible on the HTTP scrape endpoints (`/metrics`,
//! `/healthz`, `/tracez`) and in per-request trace ids that travel client →
//! server → trace journal.
//!
//! Run with `cargo run --release --example encryption_service`.

use f2::crypto::MasterKey;
use f2::datagen::Dataset;
use f2::server::{
    Client, MemoryStores, SchemeProvider, ServerConfig, Service, StaticTenants, StoreProvider,
    TcpAcceptor,
};
use f2::{RowSource, TableSource, F2};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // ── Two tenants, each with its own scheme and keys ─────────────────────
    let acme = F2::builder()
        .alpha(0.5)
        .seed(7)
        .master_key(MasterKey::from_seed(1001))
        .build()
        .expect("valid F2 parameters");
    let initech = f2::DetScheme::new(MasterKey::from_seed(2002));
    let tenants = Arc::new(
        StaticTenants::new()
            .with_tenant("acme", Arc::new(acme))
            .with_tenant("initech", Arc::new(initech)),
    );
    let stores = Arc::new(MemoryStores::new());
    let config = ServerConfig {
        workers: 2,
        chunk_rows: 32,
        request_deadline: Duration::from_secs(5),
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_millis(300),
        seed: 0xF2_5EED,
        ..ServerConfig::default()
    };

    // ── Service A on a real socket, plus its HTTP scrape listener ──────────
    f2::obs::install_process_metrics();
    let service = Service::new(
        config.clone(),
        Arc::clone(&tenants) as Arc<dyn SchemeProvider>,
        Arc::clone(&stores) as Arc<dyn StoreProvider>,
    );
    let handle = service.handle();
    let http =
        f2::server::HttpServer::bind("127.0.0.1:0", service.http_state()).expect("bind http");
    let http_addr = http.local_addr().expect("http addr");
    let http_handle = http.handle();
    let http_thread = std::thread::spawn(move || http.run());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("local addr");
    let server = std::thread::spawn(move || service.run(acceptor));
    println!("service A listening on {addr}, scrape endpoints on http://{http_addr}");

    // ── 1. The happy path: one call encrypts a whole table, traced ─────────
    let orders = Dataset::Orders.generate(256, 41);
    let mut client = Client::connect(TcpStream::connect(addr).expect("dial"))
        .expect("connect")
        .with_tracing(f2::obs::IdSource::seeded(0xA11CE));
    let ack = client.encrypt_table("acme", &orders).expect("encrypt");
    println!(
        "acme: {} rows -> {} encrypted rows in {} chunks ({} stream bytes)",
        ack.rows, ack.encrypted_rows, ack.chunks, ack.bytes_written
    );
    let echoed = client.last_server_trace().expect("server echoed our trace context");
    println!(
        "acme: last request traced as trace {:016x} / request {:016x}",
        echoed.trace_id, echoed.request_id
    );
    client.close().expect("clean close");

    // The journal saw the same ids; /tracez explains the requests stage by
    // stage, and /healthz reports a serving process.
    let tracez = http_get(http_addr, "/tracez");
    assert!(
        tracez.contains(&format!("{:016x}", echoed.trace_id)),
        "the traced request shows up in /tracez"
    );
    let healthz = http_get(http_addr, "/healthz");
    println!("healthz: {}", healthz.lines().last().unwrap_or_default());
    let metrics = http_get(http_addr, "/metrics");
    assert!(metrics.contains("f2_server_requests_total"), "server families are scraped");
    assert!(metrics.contains("f2_uptime_seconds"), "process metrics are scraped");

    // ── 2. A client crash, healed by resume ────────────────────────────────
    let lineitems = Dataset::Orders.generate(200, 43);
    let mut client = Client::connect(TcpStream::connect(addr).expect("dial")).expect("connect");
    let job = client.open("initech", lineitems.schema()).expect("open");
    let chunk_rows = job.chunk_rows as usize;
    let mut source = TableSource::new(&lineitems);
    let mut next = 0;
    for _ in 0..2 {
        let chunk = source.next_chunk(chunk_rows).expect("chunk").expect("rows");
        next = client.append(job.token, next, chunk.to_table()).expect("append").next_chunk;
    }
    drop(client); // crash: the socket dies mid-job
    println!("initech: client crashed after {next} chunks; reconnecting");

    let mut client = Client::connect(TcpStream::connect(addr).expect("dial")).expect("connect");
    let resumed = retry_resume(&mut client, "initech", job.token, &lineitems);
    println!(
        "initech: resumed at chunk {} ({} rows already durable)",
        resumed.next_chunk, resumed.rows_done
    );
    let mut source = TableSource::new(&lineitems);
    source.seek_to_row(resumed.rows_done as usize).expect("seek");
    let mut next = resumed.next_chunk;
    while let Some(chunk) = source.next_chunk(chunk_rows).expect("chunk") {
        next = client.append(job.token, next, chunk.to_table()).expect("append").next_chunk;
    }
    let fin = client.finish(job.token).expect("finish");
    println!("initech: finished with {} rows across {} chunks", fin.rows, fin.chunks);
    client.close().expect("clean close");

    // ── 3. Graceful drain with a half-finished job on the books ────────────
    let parked = Dataset::Orders.generate(96, 47);
    let mut client = Client::connect(TcpStream::connect(addr).expect("dial")).expect("connect");
    let half = client.open("acme", parked.schema()).expect("open");
    let first =
        TableSource::new(&parked).next_chunk(chunk_rows).expect("chunk").expect("rows").to_table();
    client.append(half.token, 0, first).expect("append");
    handle.shutdown();
    server.join().expect("server thread").expect("graceful drain completed");
    drop(client);
    http_handle.stop();
    http_thread.join().expect("http thread").expect("http listener exits cleanly");
    println!("service A drained; job {} parked resumable", half.token);

    // ── 4. A fresh service over the same stores finishes the parked job ────
    let service =
        Service::new(config, tenants as Arc<dyn SchemeProvider>, stores as Arc<dyn StoreProvider>);
    let handle = service.handle();
    let http =
        f2::server::HttpServer::bind("127.0.0.1:0", service.http_state()).expect("bind http");
    let http_addr = http.local_addr().expect("http addr");
    let http_handle = http.handle();
    let http_thread = std::thread::spawn(move || http.run());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("local addr");
    let server = std::thread::spawn(move || service.run(acceptor));
    println!("service B listening on {addr}, scrape endpoints on http://{http_addr}");

    let mut client = Client::connect(TcpStream::connect(addr).expect("dial")).expect("connect");
    let resumed = retry_resume(&mut client, "acme", half.token, &parked);
    let mut source = TableSource::new(&parked);
    source.seek_to_row(resumed.rows_done as usize).expect("seek");
    let mut next = resumed.next_chunk;
    while let Some(chunk) = source.next_chunk(chunk_rows).expect("chunk") {
        next = client.append(half.token, next, chunk.to_table()).expect("append").next_chunk;
    }
    let fin = client.finish(half.token).expect("finish after restart");
    println!(
        "restart: job {} finished with {} rows — zero accepted work lost",
        half.token, fin.rows
    );
    client.close().expect("clean close");

    // ── 5. The whole story, as service B's `/metrics` scrape reports it ────
    let metrics = http_get(http_addr, "/metrics");
    println!("\nscraped Prometheus snapshot (f2_server_* series):");
    for line in metrics.lines().filter(|l| l.starts_with("f2_server_")) {
        println!("  {line}");
    }
    http_handle.stop();
    http_thread.join().expect("http thread").expect("http listener exits cleanly");
    handle.shutdown();
    server.join().expect("server thread").expect("graceful drain completed");
}

/// A minimal scrape: one GET, whole response (headers + body) as a string.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::Read;
    use std::io::Write;
    let mut stream = TcpStream::connect(addr).expect("dial http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: f2\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

/// Resume, absorbing the small window in which the server is still noticing
/// the previous connection's death (typed `JobBusy` until the job parks).
fn retry_resume(
    client: &mut Client<TcpStream>,
    tenant: &str,
    token: u64,
    data: &f2::Table,
) -> f2::server::ResumeAck {
    for _ in 0..100 {
        match client.resume(tenant, token, data.schema()) {
            Ok(ack) => return ack,
            Err(err) if err.is_retryable() => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => panic!("resume failed: {err}"),
        }
    }
    panic!("job {token} never became resumable");
}
