//! Fault-tolerant streaming end to end: absorb transient I/O faults where
//! they happen, below the CSV parser and below the frame writer; crash the job
//! mid-stream and resume it byte-exactly; then salvage what survives of a
//! bit-rotted copy.
//!
//! Every fault below is injected deterministically from a seeded `FaultPlan`,
//! exactly as the fault-injection test suite does — see `docs/ROBUSTNESS.md`
//! for the failure model.
//!
//! Run with `cargo run --release --example fault_tolerant_streaming`.

use f2::crypto::MasterKey;
use f2::datagen::Dataset;
use f2::{
    decrypt_streaming_lossy, CsvOptions, CsvSource, DetScheme, Engine, EngineConfig, FaultKind,
    FaultPlan, FaultyReader, FaultyWriter, RetryPolicy, TableSource,
};
use std::io::{Cursor, ErrorKind};

fn main() {
    let data = Dataset::Orders.generate(2_000, 42);
    let scheme = DetScheme::new(MasterKey::from_seed(2026));
    let engine = Engine::new(EngineConfig { workers: 4, chunk_rows: 256, seed: 2026 })
        .expect("valid config");

    // ── 1. Retry: transient faults cost a retry, not the job ───────────────────────
    // The owner of each reader and writer retries where a failed call consumed
    // nothing: three transient faults on the CSV reader, under the parser, and
    // a flaky writer, under the frame layer. The run produces the exact bytes
    // a fault-free run would.
    let mut golden = Vec::new();
    engine
        .run_streaming(&scheme, &mut TableSource::new(&data), &mut golden)
        .expect("fault-free run");

    let csv = f2::relation::csv::to_csv_string(&data);
    let len = csv.len() as u64;
    let reader_plan = FaultPlan::new()
        .with(len / 4, FaultKind::Transient(ErrorKind::TimedOut))
        .with(len / 2, FaultKind::Transient(ErrorKind::ConnectionReset))
        .with(len * 3 / 4, FaultKind::Transient(ErrorKind::WouldBlock));
    let writer_plan = FaultPlan::new()
        .with(golden.len() as u64 / 3, FaultKind::Transient(ErrorKind::TimedOut))
        .with(golden.len() as u64 / 2, FaultKind::ShortWrite(7));
    let policy = RetryPolicy::new(4);
    let mut source = CsvSource::with_retry(
        FaultyReader::new(csv.as_bytes(), reader_plan),
        CsvOptions::csv().with_schema(data.schema().clone()),
        policy.clone(),
    )
    .expect("CSV header parses");
    let mut writer = policy.writer(FaultyWriter::new(Vec::new(), writer_plan));
    let outcome = engine.run_streaming(&scheme, &mut source, &mut writer).expect("retries absorb");
    let stream = writer.into_inner().into_inner();
    assert_eq!(stream, golden);
    println!(
        "Retry: {} chunks / {} CSV rows streamed through 5 injected faults — byte-identical \
         to the fault-free run ({} bytes)",
        outcome.chunks.len(),
        outcome.rows,
        stream.len()
    );

    // ── 2. Crash + resume: a torn stream is repaired in place ──────────────────────
    // A writer that silently drops everything past an offset models a buffered
    // write lost to a crash. Resume scans the surviving prefix, truncates the
    // torn frame, replays the covered rows, and continues.
    let cut = golden.len() * 2 / 3;
    let crash_plan = FaultPlan::new().with(cut as u64, FaultKind::Truncate);
    let mut crashing = FaultyWriter::new(Vec::new(), crash_plan);
    engine
        .run_streaming(&scheme, &mut TableSource::new(&data), &mut crashing)
        .expect("the producer never notices the crash");
    let torn = crashing.into_inner();
    println!(
        "\nCrash: stream torn at byte {cut} of {} ({} bytes survive on disk)",
        golden.len(),
        torn.len()
    );

    let mut store = Cursor::new(torn);
    let resumed = engine
        .resume_streaming(&scheme, &mut TableSource::new(&data), &mut store)
        .expect("resume repairs the store");
    assert_eq!(store.get_ref(), &golden);
    println!(
        "Resume: {} chunks / {} rows — repaired stream is byte-identical to the \
         uninterrupted one",
        resumed.chunks.len(),
        resumed.rows
    );

    // ── 3. Salvage: decrypt around damage a backup picked up ───────────────────────
    // Flip one bit in the middle of the stream: exactly one chunk frame dies.
    // The lossy decryptor recovers every other chunk and accounts for the loss.
    let mut rotted = golden.clone();
    let at = rotted.len() / 2;
    rotted[at] ^= 0x10;
    let mut recovered_rows = 0usize;
    let report = decrypt_streaming_lossy(&scheme, &rotted[..], |chunk| {
        recovered_rows += chunk.row_count();
        Ok(())
    })
    .expect("salvage never fails on frame damage");
    println!(
        "\nSalvage after a bit flip at byte {at}: {}/{} chunks recovered ({} of {} rows), \
         {} damaged bytes skipped in {} range(s), rows lost: {:?}",
        report.chunks_recovered,
        report.chunks_total.expect("trailer survived"),
        recovered_rows,
        data.row_count(),
        report.bytes_skipped,
        report.skipped_ranges.len(),
        report.rows_lost,
    );
    assert!(!report.is_lossless());
    assert_eq!(report.chunks_lost, 1);
}
