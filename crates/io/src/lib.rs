//! # f2-io — streaming dataset I/O for the F² pipeline
//!
//! The paper's outsourcing story (Dong & Wang, ICDE 2017, §2.1) is owner → server
//! data shipping. Everything below the engine used to assume the whole plaintext
//! table and the whole encrypted outcome fit in RAM; this crate is the layer that
//! removes that assumption, separating *transport* from *pipeline* the way real
//! outsourcing clients do:
//!
//! * [`source`] — [`RowSource`]: constant-memory chunk producers. [`CsvSource`] is a
//!   streaming CSV/TSV parser (RFC-4180 quoting including embedded newlines, schema
//!   inference from a bounded sample or explicit typing) that never holds more than
//!   one chunk of parsed rows; [`TableSource`] pumps an in-memory table through the
//!   same interface as zero-copy [`TableView`](f2_relation::TableView) chunks.
//! * [`frame`] — the `F2WS` **v2 stream format**: [`FrameSink`] / [`FrameReader`]
//!   write and read length-prefixed frames with per-frame CRC32 checksums and an
//!   opportunistic varint-RLE byte compressor, incrementally and in constant memory.
//!   Corrupt, truncated, or bit-flipped input decodes to an [`IoError`] — never a
//!   panic.
//! * [`wire`] — the low-level `F2WS` primitives (length-prefixed little-endian
//!   encoding, the v1 single-blob header), re-exported by `f2_engine::wire` for the
//!   owner-state codecs.
//! * [`fault`] / [`retry`] — the fault-tolerance substrate: deterministic,
//!   seeded fault injection ([`FaultPlan`] replayed by [`FaultyReader`] /
//!   [`FaultyWriter`]) and bounded retry with deterministic decorrelated-jitter
//!   backoff ([`RetryPolicy`], [`RetryingReader`] / [`RetryingWriter`]), which
//!   retries single reads and writes, the one layer where a failed call consumed
//!   nothing. [`FrameReader::recover`] resynchronizes a damaged stream to its
//!   next intact frame; see `docs/ROBUSTNESS.md` for the failure model end to
//!   end.
//!
//! The engine composes these into end-to-end streaming encryption
//! (`f2_engine::Engine::run_streaming`): CSV/table source in, checksummed encrypted
//! frame stream out, bounded peak memory in between.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod frame;
pub(crate) mod obs;
pub mod recover;
pub mod retry;
pub mod source;
pub mod wire;

pub use error::{IoError, IoResult};
pub use fault::{Fault, FaultKind, FaultPlan, FaultyReader, FaultyWriter};
pub use frame::{crc32, Frame, FrameReader, FrameSink};
pub use recover::{SkippedRange, StreamStore};
pub use retry::{RetryPolicy, RetryingReader, RetryingWriter};
pub use source::{CsvOptions, CsvSource, RowSource, TableSource};
