//! f2_server: a supervised, multi-tenant encryption service over the F²
//! engine.
//!
//! The server turns the engine's push-model [`StreamJob`](f2_engine::StreamJob)
//! into a long-running network service with the operational properties the
//! engine alone cannot give you:
//!
//! - **A typed, CRC-checked protocol** ([`proto`]) over the same `F2WS` frame
//!   layer the encrypted streams use: open / append / finish / resume
//!   requests, typed error replies, hostile-input-hardened parsing (in
//!   f2-lint's `untrusted-input` scope).
//! - **Supervision** ([`server`]): a bounded worker pool behind a bounded
//!   admission queue; past the high-water mark connections are shed with a
//!   typed [`Overloaded`](ServerError::Overloaded) reply and a retry-after
//!   hint. Every request runs under a monotonic deadline that one
//!   [`deadline`] watchdog thread fires; idle connections are reaped by I/O
//!   timeout. Any transport error, a timed-out read included, ends the
//!   connection; the client reconnects and resumes.
//! - **Crash-safe tenancy** ([`session`]): each tenant's scheme encrypts its
//!   own jobs; a job's durable state is its stream — every acknowledged
//!   chunk is already persisted with its owner-state blob, so a dropped
//!   connection, a panicking handler, or a full process restart leaves the
//!   job resumable byte-identically via the engine's resume path. Handler
//!   panics are contained per-connection with `catch_unwind`.
//! - **Graceful drain** ([`ServiceHandle::shutdown`]): admissions stop,
//!   in-flight connections finish up to a deadline, stragglers are hung up
//!   with their jobs parked resumable, and the process exits. Accepted work
//!   is never lost.
//!
//! Everything meters into [`f2_obs`]; an [`HttpServer`] ([`http`]) serves the
//! global registry on `/metrics` and `/metrics.json`, plus `/healthz` and
//! `/tracez`, to anything that speaks HTTP. Every request runs under a trace
//! context — adopted from the client's optional wire trace field or minted by
//! the service — so `/tracez` explains recent and slowest requests stage by
//! stage.
//!
//! ```
//! use f2_server::{
//!     channel_acceptor, duplex, Client, MemoryStores, ServerConfig, Service,
//!     StaticTenants,
//! };
//! use std::sync::Arc;
//!
//! let scheme = f2_core::F2::builder()
//!     .alpha(0.5)
//!     .seed(5)
//!     .master_key(f2_crypto::MasterKey::from_seed(11))
//!     .build()
//!     .unwrap();
//! let tenants = Arc::new(StaticTenants::new().with_tenant("acme", Arc::new(scheme)));
//! let stores = Arc::new(MemoryStores::new());
//! let service = Service::new(ServerConfig::default(), tenants, stores);
//! let handle = service.handle();
//!
//! let (dial, acceptor) = channel_acceptor();
//! std::thread::scope(|s| {
//!     s.spawn(|| service.run(acceptor));
//!     let (ours, theirs) = duplex();
//!     dial.send(Box::new(theirs)).unwrap();
//!     let mut client = Client::connect(ours).unwrap();
//!     let table = f2_datagen::Dataset::Orders.generate(64, 7);
//!     let ack = client.encrypt_table("acme", &table).unwrap();
//!     assert_eq!(ack.rows, 64);
//!     client.close().unwrap();
//!     handle.shutdown();
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod deadline;
pub mod error;
pub mod http;
mod obs;
pub mod pipe;
pub mod proto;
pub mod server;
pub mod session;
pub mod transport;

pub use client::{AppendAck, Client, FinishAck, JobOpened, ResumeAck};
pub use deadline::{DeadlineGuard, Deadlines};
pub use error::{ServerError, ServerResult};
/// The backend a tenant's jobs encrypt with: any [`Scheme`](f2_core::Scheme).
pub use f2_core::Scheme as ServerScheme;
pub use http::{Health, HealthSource, HttpServer, HttpServerHandle, HttpState, StaticHealth};
pub use pipe::{duplex, PipeEnd};
pub use proto::{Request, Response};
pub use server::{
    channel_acceptor, Acceptor, ChannelAcceptor, ServerConfig, Service, ServiceHandle, TcpAcceptor,
};
pub use session::{
    BoxStore, DirStores, MemoryStores, SchemeProvider, StaticTenants, StoreProvider,
};
pub use transport::{Hangup, Transport};

// Job streams persist through the same store abstraction the recovery layer
// uses; re-exported so store implementations need only this crate.
pub use f2_io::StreamStore;
