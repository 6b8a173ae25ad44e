//! End-to-end scrape test: a live service on real TCP, its HTTP listener on
//! a second socket, and a traced client — proving the request trace id is
//! visible at every hop (client → server reply → `/tracez`) and that the
//! scrape endpoints serve the service's own story.

use f2_core::F2;
use f2_crypto::MasterKey;
use f2_obs::IdSource;
use f2_server::{
    Client, HttpServer, MemoryStores, SchemeProvider, ServerConfig, Service, StaticTenants,
    StoreProvider, TcpAcceptor,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One GET over a fresh connection; returns the whole response as a string.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("dial http listener");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

#[test]
fn trace_ids_flow_client_to_server_to_tracez() {
    f2_obs::install_process_metrics();
    let scheme = F2::builder()
        .alpha(0.5)
        .seed(11)
        .master_key(MasterKey::from_seed(404))
        .build()
        .expect("valid F2 parameters");
    let tenants = Arc::new(StaticTenants::new().with_tenant("acme", Arc::new(scheme)));
    let stores = Arc::new(MemoryStores::new());
    let config = ServerConfig {
        workers: 2,
        chunk_rows: 16,
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_millis(300),
        seed: 0x5C4A9E,
        ..ServerConfig::default()
    };
    let service =
        Service::new(config, tenants as Arc<dyn SchemeProvider>, stores as Arc<dyn StoreProvider>);
    let handle = service.handle();

    let http = HttpServer::bind("127.0.0.1:0", service.http_state()).expect("bind http");
    let http_addr = http.local_addr().expect("http addr");
    let http_handle = http.handle();
    let http_thread = std::thread::spawn(move || http.run());

    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind service");
    let addr = acceptor.local_addr().expect("service addr");
    let server = std::thread::spawn(move || service.run(acceptor));

    // A serving process reports ok before any work arrives.
    let healthz = http_get(http_addr, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200 OK\r\n"), "{healthz}");
    assert_eq!(body_of(&healthz), "ok\n");

    // One traced encryption job.
    let data = f2_datagen::Dataset::Orders.generate(64, 9);
    let mut client = Client::connect(TcpStream::connect(addr).expect("dial service"))
        .expect("connect")
        .with_tracing(IdSource::seeded(0xDEC0DE));
    let ack = client.encrypt_table("acme", &data).expect("encrypt");
    assert_eq!(ack.rows, 64);

    // The server echoed exactly the context the client sent.
    let sent = client.last_trace().expect("client minted a trace context");
    let echoed = client.last_server_trace().expect("server echoed the trace context");
    assert_eq!(sent, echoed, "server must echo the client's trace context verbatim");

    // /tracez knows the request: same trace id, per-stage breakdown attached.
    let tracez = http_get(http_addr, "/tracez");
    assert!(tracez.starts_with("HTTP/1.1 200 OK\r\n"), "{tracez}");
    let tracez_body = body_of(&tracez);
    let trace_hex = format!("{:016x}", sent.trace_id);
    assert!(
        tracez_body.contains(&trace_hex),
        "trace {trace_hex} missing from /tracez: {tracez_body}"
    );
    assert!(tracez_body.contains("\"stages\":["), "{tracez_body}");
    assert!(tracez_body.contains("\"tenant\":\"acme\""), "{tracez_body}");

    // /metrics serves the server families, tenant attribution, and the
    // process metrics satellite.
    let metrics = http_get(http_addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{metrics}"
    );
    let metrics_body = body_of(&metrics);
    assert!(metrics_body.contains("f2_server_requests_total"), "{metrics_body}");
    assert!(metrics_body.contains("f2_server_requests_total{tenant=\"acme\"}"), "{metrics_body}");
    assert!(
        metrics_body.contains("f2_server_tenant_rows_total{tenant=\"acme\"}"),
        "{metrics_body}"
    );
    assert!(metrics_body.contains("f2_uptime_seconds"), "{metrics_body}");
    assert!(metrics_body.contains("f2_build_info{"), "{metrics_body}");
    assert!(
        metrics_body.contains("f2_server_http_requests_total{route=\"healthz\"}"),
        "{metrics_body}"
    );

    // The JSON exporter serves the same registry.
    let json = http_get(http_addr, "/metrics.json");
    assert!(json.starts_with("HTTP/1.1 200 OK\r\n"), "{json}");
    assert!(body_of(&json).starts_with("{\"metrics\":["), "{json}");

    client.close().expect("clean close");

    // Unknown routes 404 without disturbing the listener.
    let missing = http_get(http_addr, "/favicon.ico");
    assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"), "{missing}");

    // Drain the service: /healthz flips to draining while the listener lives.
    handle.shutdown();
    server.join().expect("server thread").expect("graceful drain");
    let draining = http_get(http_addr, "/healthz");
    assert!(draining.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{draining}");
    assert_eq!(body_of(&draining), "draining\n");

    http_handle.stop();
    http_thread.join().expect("http thread").expect("listener exits cleanly");
}
