//! # f2-engine — streaming, multi-threaded encryption with persistable owner state
//!
//! The paper's outsourcing story (§2.1) assumes the data owner encrypts a large
//! relation *once* and ships it to the server. The [`Scheme`](f2_core::Scheme)
//! backends encrypt a whole in-memory table single-threaded and keep their owner
//! state in memory — fine for the evaluation harness, a dead end for production
//! outsourcing. This crate adds the missing engine layer:
//!
//! * [`pipeline`] — [`Engine`]: shards a table into row-range chunks, fans the chunks
//!   out to scoped worker threads each driving any
//!   [`Scheme`](f2_core::Scheme) backend, and reassembles a
//!   deterministic, order-stable encrypted table with per-chunk provenance
//!   ([`ChunkRecord`]). Every chunk is encrypted under a seed derived from the engine
//!   seed and the chunk index, so parallel chunks never share a nonce stream and the
//!   output is byte-identical regardless of worker count. Note that F²'s α-security
//!   guarantee then holds *per chunk*, not across chunk boundaries — see
//!   [`EngineConfig::chunk_rows`](pipeline::EngineConfig::chunk_rows) before choosing
//!   a chunk size for a security-sensitive deployment.
//! * [`wire`] — the versioned, length-prefixed binary wire format (`F2WS`). Corrupt
//!   or truncated input decodes to an error, never a panic.
//! * [`persist`] — [`encode_state`](persist::encode_state) /
//!   [`decode_state`](persist::decode_state): the owner-state codec over the wire
//!   format, for both state shapes of the four backends.
//! * [`job`] — [`StreamJob`], the one writer of `F2WS` v2 streams: a header, one
//!   checksummed frame per encrypted chunk (carrying that chunk's owner state), and
//!   a trailer. [`Engine::run_streaming`] drives a job from a
//!   [`RowSource`](f2_io::RowSource), [`Engine::begin_job`] lets a caller push
//!   chunks, and the frame layout lives in [`stream`].
//! * [`resume`] — one crash-safe resume protocol (check and replay each stored
//!   chunk as it is read → truncate → continue) behind two entry points:
//!   [`Engine::resume_streaming`] with the original source, [`Engine::resume_job`]
//!   without one.
//! * [`stream`] and [`lossy`] — the readers: [`load_streamed_outcome`] and
//!   [`decrypt_streaming`] for intact streams, [`decrypt_streaming_lossy`] for
//!   damaged ones. A v2 stream is the one on-disk format, so a table encrypted in
//!   one process decrypts in another.
//!
//! ```
//! use f2_core::{Scheme, F2};
//! use f2_engine::{load_streamed_outcome, Engine, EngineConfig};
//! use f2_io::TableSource;
//! use f2_relation::table;
//!
//! let data = table! {
//!     ["Zip", "City"];
//!     ["07030", "Hoboken"], ["07030", "Hoboken"],
//!     ["10001", "NewYork"], ["10001", "NewYork"],
//! };
//! let scheme = F2::builder().alpha(0.5).seed(7).build().unwrap();
//! let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 2, seed: 7 }).unwrap();
//! // The outcome survives the trip through a v2 stream …
//! let mut stream = Vec::new();
//! engine.run_streaming(&scheme, &mut TableSource::new(&data), &mut stream).unwrap();
//! let (restored, _chunks) = load_streamed_outcome(&scheme, &stream[..]).unwrap();
//! // … and decrypts through the ordinary Scheme::decrypt.
//! assert!(scheme.decrypt(&restored).unwrap().multiset_eq(&data));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod lossy;
pub(crate) mod obs;
pub mod persist;
pub mod pipeline;
pub mod resume;
pub mod stream;
pub use f2_io::wire;

pub use job::StreamJob;
pub use lossy::{decrypt_streaming_lossy, DamageReport};
pub use pipeline::{chunk_seed, ChunkRecord, Engine, EngineConfig, EngineOutcome};
pub use stream::{decrypt_streaming, load_streamed_outcome, StreamOutcome};
pub use wire::{Reader, WireError, Writer};

/// The engine's error type — an alias for [`f2_core::F2Error`], under the name
/// engine callers reach for when matching on streaming failures (for example
/// [`EngineError::WorkerPanicked`](f2_core::F2Error::WorkerPanicked)).
pub use f2_core::F2Error as EngineError;
