//! # F² — Frequency-Hiding, Functional-Dependency-Preserving Encryption
//!
//! A Rust implementation of the scheme from *"Frequency-Hiding Dependency-Preserving
//! Encryption for Outsourced Databases"* (Boxiang Dong and Hui (Wendy) Wang, ICDE
//! 2017).
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`relation`] — the relational substrate (tables, schemas, partitions, CSV I/O);
//! * [`crypto`] — AES-128, the PRF-based probabilistic cell cipher, the deterministic
//!   baseline and a from-scratch Paillier implementation;
//! * [`fd`] — TANE FD discovery, maximal-attribute-set (MAS) discovery, and the FD
//!   lattice;
//! * [`core`] — the pluggable [`Scheme`] backend API and its four implementations:
//!   [`F2Scheme`] (the paper's scheme, built fluently with [`F2::builder`]),
//!   [`DetScheme`] (deterministic AES), [`ProbScheme`] (per-cell probabilistic
//!   cipher), and [`PaillierScheme`];
//! * [`io`] — streaming dataset I/O: [`RowSource`] chunk producers ([`CsvSource`]
//!   parses CSV/TSV with schema inference in constant memory, [`TableSource`] wraps
//!   in-memory tables as zero-copy views) and the checksummed, compressed `F2WS` v2
//!   frame stream ([`io::FrameSink`] / [`io::FrameReader`]); plus the
//!   fault-tolerance toolkit: [`RetryPolicy`] (bounded, deterministic-jitter
//!   retry of transient failures of single reads and writes, wrapped around a
//!   reader or writer by its owner), frame-level damage recovery
//!   ([`io::FrameReader::recover`](f2_io::FrameReader::recover)), and the seeded
//!   fault-injection harness ([`FaultPlan`] and friends) that makes failure paths
//!   testable;
//! * [`engine`] — the streaming outsourcing layer: [`Engine`] shards a table into
//!   chunks, encrypts them on parallel workers over any [`Scheme`] backend with
//!   per-chunk nonce domains, and reassembles a deterministic outcome —
//!   or streams source → encrypted file end to end in bounded memory
//!   ([`Engine::run_streaming`], `engine::stream::decrypt_streaming`); each
//!   chunk's [`OwnerState`] persists inside the owner-side `F2WS` v2 stream so
//!   decryption can happen in a later process; crashed
//!   streaming jobs resume byte-exactly ([`Engine::resume_streaming`]), damaged
//!   streams salvage chunk-wise ([`decrypt_streaming_lossy`] → [`DamageReport`]),
//!   and worker panics surface as typed [`EngineError::WorkerPanicked`] errors
//!   (see `docs/ROBUSTNESS.md`);
//! * [`server`] — a supervised, multi-tenant encryption service over the engine's
//!   push-model jobs: a typed, CRC-checked request protocol ([`server::proto`]),
//!   a bounded worker pool with admission-queue load shedding (typed
//!   [`Overloaded`](f2_server::ServerError::Overloaded) replies), per-request
//!   deadlines fired by one watchdog thread, crash-resumable per-tenant jobs
//!   (every acknowledged chunk persists with its owner state; panics park the
//!   job, reconnecting clients resume byte-identically), and a graceful,
//!   deadline-bound drain (see `docs/SERVER.md`);
//! * [`attack`] — the frequency-analysis and Kerckhoffs adversaries and the empirical
//!   α-security experiment, runnable against **any** [`Scheme`];
//! * [`datagen`] — TPC-H/TPC-C-style and synthetic workload generators used by the
//!   evaluation;
//! * [`obs`] — the zero-dependency telemetry layer: every pipeline stage records
//!   into the process-wide [`obs::Registry`] (phase and chunk latency
//!   histograms, frame and cipher counters), exportable as Prometheus text
//!   or JSON via [`obs::Registry::write_prometheus`](f2_obs::Registry::write_prometheus) /
//!   [`write_json`](f2_obs::Registry::write_json), and disableable at runtime for a
//!   guaranteed-cheap no-op mode (see `docs/OBSERVABILITY.md`).
//!
//! ## Quick start
//!
//! Every backend goes through the same three calls: build a [`Scheme`], `encrypt`,
//! `decrypt`.
//!
//! ```
//! use f2::{Scheme, F2};
//! use f2::fd::tane::discover_fds;
//! use f2::relation::table;
//!
//! // The data owner's private table: Zip → City holds.
//! let data = table! {
//!     ["Zip", "City", "Name"];
//!     ["07030", "Hoboken",  "alice"],
//!     ["07030", "Hoboken",  "bob"],
//!     ["10001", "NewYork",  "carol"],
//!     ["10001", "NewYork",  "dave"],
//! };
//!
//! // Encrypt with α = 1/2 and split factor 2, without knowing any FD.
//! let scheme = F2::builder().alpha(0.5).split_factor(2).seed(42).build().unwrap();
//! let outcome = scheme.encrypt(&data).unwrap();
//!
//! // The (untrusted) server discovers FDs directly on the encrypted table …
//! let server_fds = discover_fds(&outcome.encrypted);
//! assert!(!server_fds.is_empty());
//!
//! // … and the owner can still recover her table exactly.
//! let recovered = scheme.decrypt(&outcome).unwrap();
//! assert!(recovered.multiset_eq(&data));
//! ```
//!
//! Swapping the backend is one line — `DetScheme::new(key)` (fast, leaks frequencies)
//! or `PaillierScheme::new(512, seed)?` (hides frequencies, destroys FDs, slow) both
//! implement [`Scheme`] — which is how the benchmark registry and the attack harness
//! compare all of them with shared code. F²'s provenance, MAS sets and plaintext
//! schema are reachable via [`SchemeOutcome::f2_state`].
//!
//! ## Streaming outsourcing
//!
//! For large relations, drive any backend through the chunked [`Engine`] and
//! stream the encrypted table, with its owner state, to disk (see
//! `examples/streaming_outsourcing.rs` for the full two-process story):
//!
//! ```
//! use f2::{Engine, EngineConfig, Scheme, TableSource, F2};
//! use f2::engine::load_streamed_outcome;
//! use f2::relation::table;
//!
//! let data = table! {
//!     ["Zip", "City"];
//!     ["07030", "Hoboken"], ["07030", "Hoboken"],
//!     ["10001", "NewYork"], ["10001", "NewYork"],
//! };
//! let scheme = F2::builder().alpha(0.5).seed(42).build().unwrap();
//! let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 2, seed: 42 }).unwrap();
//! let mut stream = Vec::new(); // → a file, or the server
//! engine.run_streaming(&scheme, &mut TableSource::new(&data), &mut stream).unwrap();
//! let (restored, _chunks) = load_streamed_outcome(&scheme, &stream[..]).unwrap(); // → later process
//! assert!(scheme.decrypt(&restored).unwrap().multiset_eq(&data));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use f2_attack as attack;
pub use f2_core as core;
pub use f2_crypto as crypto;
pub use f2_datagen as datagen;
pub use f2_engine as engine;
pub use f2_fd as fd;
pub use f2_io as io;
pub use f2_obs as obs;
pub use f2_relation as relation;
pub use f2_server as server;

pub use f2_core::{
    ChunkState, DetScheme, EncryptionReport, F2Builder, F2Config, F2Error, F2OwnerState, F2Scheme,
    OwnerState, PaillierScheme, ProbScheme, Provenance, RowOrigin, Scheme, SchemeOutcome, F2,
};
pub use f2_engine::{
    decrypt_streaming_lossy, ChunkRecord, DamageReport, Engine, EngineConfig, EngineError,
    EngineOutcome, StreamOutcome,
};
pub use f2_io::{
    CsvOptions, CsvSource, FaultKind, FaultPlan, FaultyReader, FaultyWriter, RetryPolicy,
    RowSource, SkippedRange, StreamStore, TableSource,
};
pub use f2_relation::{AttrSet, Record, Schema, Table, TableView, Value};
pub use f2_server::{ServerConfig, ServerError, Service, ServiceHandle};
