//! Cached telemetry handles for the chunk pipeline.
//!
//! The engine exposes two views of the same work: counters for volume (chunks,
//! rows, stream bytes) and latency histograms for the chunk lifecycle. The
//! pull → serialize → write stages of the streaming loop are timed with
//! [`f2_obs::span!`] guards at the call sites; the encrypt stage reuses the
//! wall-clock the pipeline already measures for [`ChunkRecord::wall`]
//! (recorded here via [`chunk_encrypted`]), so instrumenting it adds no clock
//! reads to the encryption path on either the streaming or the in-memory path.
//!
//! [`ChunkRecord::wall`]: crate::pipeline::ChunkRecord::wall

use f2_obs::{Counter, Histogram, Unit};
use std::sync::OnceLock;
use std::time::Duration;

/// Per-chunk encryption latency across both engine paths.
fn chunk_seconds() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        f2_obs::global().histogram(
            "f2_engine_chunk_seconds",
            "Wall-clock encryption time per chunk (streaming and in-memory paths).",
            &[],
            Unit::Seconds,
        )
    })
}

/// The encrypt stage's sample in the span hierarchy — same family the
/// `span!`-timed pull/serialize/write stages record into.
fn encrypt_span_seconds() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| {
        f2_obs::global().histogram(
            "f2_span_seconds",
            "Wall-clock duration of instrumented spans.",
            &[("span", "engine.chunk.encrypt")],
            Unit::Seconds,
        )
    })
}

fn chunks_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_engine_chunks_total",
            "Chunks encrypted by the engine (both paths).",
            &[],
        )
    })
}

fn rows_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_engine_rows_total",
            "Plaintext rows consumed by the engine.",
            &[],
        )
    })
}

fn encrypted_rows_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_engine_encrypted_rows_total",
            "Encrypted rows produced by the engine (padding rows included).",
            &[],
        )
    })
}

/// Bytes of finished v2 streams, preamble and frame headers included — every
/// stream job counts, pulled (`run_streaming`) or pushed (server jobs).
pub(crate) fn stream_bytes_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_engine_stream_bytes_total",
            "Bytes of finished F2WS v2 streams written by engine stream jobs.",
            &[],
        )
    })
}

/// Streams reopened by `Engine::resume_streaming` or `Engine::resume_job`
/// (header-damaged restarts-from-scratch and refused resumes included).
pub(crate) fn resumes() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        f2_obs::global().counter(
            "f2_engine_resume_total",
            "Interrupted F2WS v2 streams reopened for resume (with or without a source).",
            &[],
        )
    })
}

/// Record one encrypted chunk: volume counters plus both latency views of the
/// already-measured encrypt wall-clock.
pub(crate) fn chunk_encrypted(rows: usize, encrypted_rows: usize, wall: Duration) {
    chunks_total().inc();
    rows_total().add(rows as u64);
    encrypted_rows_total().add(encrypted_rows as u64);
    chunk_seconds().record_duration(wall);
    encrypt_span_seconds().record_duration(wall);
}
