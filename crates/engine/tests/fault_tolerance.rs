//! Engine-level fault tolerance: an [`Engine`] carrying a [`RetryPolicy`]
//! absorbs transient source and writer faults without changing a single output
//! byte; without one (the default), the first fault fails the run — fault
//! tolerance is opt-in so the fault-free hot path stays untouched. And a panic
//! inside an encryption worker is contained to a typed
//! [`EngineError::WorkerPanicked`], never a poisoned engine or an aborted
//! process.

use f2_core::{DetScheme, Scheme, SchemeOutcome, F2};
use f2_crypto::MasterKey;
use f2_engine::{Engine, EngineConfig, EngineError};
use f2_io::{FaultKind, FaultPlan, FaultySource, FaultyWriter, RetryPolicy, TableSource};
use f2_relation::{Table, TableView};
use std::io::ErrorKind;

fn fixture(rows: usize) -> Table {
    f2_datagen::Dataset::Orders.generate(rows, 77)
}

fn clean_stream<S: Scheme>(engine: &Engine, scheme: &S, t: &Table) -> Vec<u8> {
    let mut stream = Vec::new();
    engine.run_streaming(scheme, &mut TableSource::new(t), &mut stream).unwrap();
    stream
}

#[test]
fn a_retrying_engine_absorbs_transient_source_faults_byte_exactly() {
    let t = fixture(23);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let config = EngineConfig { workers: 1, chunk_rows: 5, seed: 41 };
    let engine = Engine::new(config).unwrap();
    let golden = clean_stream(&engine, &scheme, &t);

    let retrying = Engine::new(config).unwrap().with_retry(RetryPolicy::no_backoff(4));
    assert!(retrying.retry().is_some_and(RetryPolicy::is_enabled));
    let plan = FaultPlan::new()
        .with(0, FaultKind::Transient(ErrorKind::TimedOut))
        .with(2, FaultKind::Transient(ErrorKind::ConnectionReset))
        .with(5, FaultKind::Transient(ErrorKind::WouldBlock));
    let mut source = FaultySource::new(TableSource::new(&t), plan);
    let mut stream = Vec::new();
    retrying.run_streaming(&scheme, &mut source, &mut stream).unwrap();
    assert_eq!(stream, golden, "absorbed faults must not change the stream bytes");
    // 5 chunk pulls + the final empty pull + 3 retried attempts.
    assert_eq!(source.attempts(), 9);
}

#[test]
fn a_retrying_engine_absorbs_transient_writer_faults_byte_exactly() {
    let t = fixture(23);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let config = EngineConfig { workers: 1, chunk_rows: 5, seed: 41 };
    let engine = Engine::new(config).unwrap();
    let golden = clean_stream(&engine, &scheme, &t);

    let retrying = Engine::new(config).unwrap().with_retry(RetryPolicy::no_backoff(4));
    let plan = FaultPlan::new()
        .with(3, FaultKind::Transient(ErrorKind::TimedOut))
        .with(golden.len() as u64 / 2, FaultKind::Transient(ErrorKind::ConnectionAborted))
        .with(golden.len() as u64 / 3, FaultKind::ShortWrite(2));
    let mut writer = FaultyWriter::new(Vec::new(), plan);
    retrying.run_streaming(&scheme, &mut TableSource::new(&t), &mut writer).unwrap();
    assert_eq!(writer.into_inner(), golden);
}

#[test]
fn without_a_policy_the_first_transient_fault_is_fatal() {
    let t = fixture(23);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 41 }).unwrap();
    assert!(engine.retry().is_none(), "fault tolerance is opt-in");
    let plan = FaultPlan::new().with(1, FaultKind::Transient(ErrorKind::TimedOut));
    let mut source = FaultySource::new(TableSource::new(&t), plan);
    let err = engine.run_streaming(&scheme, &mut source, Vec::new()).unwrap_err();
    assert!(err.to_string().contains("injected transient source fault"), "{err}");
}

#[test]
fn an_exhausted_pull_budget_fails_the_run() {
    let t = fixture(23);
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 41 })
        .unwrap()
        .with_retry(RetryPolicy::no_backoff(3));
    // Four consecutive faulted attempts before chunk 1 arrives: one more than
    // the budget absorbs. (Fault offsets are attempt indices, so a burst means
    // consecutive indices.)
    let mut plan = FaultPlan::new();
    for at in [1u64, 2, 3, 4] {
        plan.push(at, FaultKind::Transient(ErrorKind::TimedOut));
    }
    let mut source = FaultySource::new(TableSource::new(&t), plan);
    let err = engine.run_streaming(&scheme, &mut source, Vec::new()).unwrap_err();
    assert!(err.to_string().contains("injected transient source fault"), "{err}");

    // The same burst under a per-chunk budget that covers it succeeds — and the
    // budget resets between chunks, so four bursts of two faults all pass.
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 5, seed: 41 })
        .unwrap()
        .with_retry(RetryPolicy::no_backoff(3));
    let mut plan = FaultPlan::new();
    for pull in [0u64, 1, 2, 3] {
        plan.push(pull * 3, FaultKind::Transient(ErrorKind::TimedOut));
        plan.push(pull * 3 + 1, FaultKind::Transient(ErrorKind::TimedOut));
    }
    let mut source = FaultySource::new(TableSource::new(&t), plan);
    engine.run_streaming(&scheme, &mut source, Vec::new()).unwrap();
}

// ── Worker panic containment ───────────────────────────────────────────────────────

/// A deterministic backend that panics while encrypting the chunk starting at
/// `panic_at_row` — stands in for a library bug inside a worker thread.
#[derive(Debug, Clone)]
struct PanickyScheme {
    inner: DetScheme,
    panic_at_row: usize,
}

impl Scheme for PanickyScheme {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decrypt(&self, outcome: &SchemeOutcome) -> f2_core::Result<Table> {
        self.inner.decrypt(outcome)
    }
    fn reseeded(&self, _seed: u64) -> Box<dyn Scheme> {
        // Deterministic backend: no encryption-time randomness to re-derive.
        Box::new(self.clone())
    }
    fn encrypt_view(&self, view: &TableView<'_>) -> f2_core::Result<SchemeOutcome> {
        assert!(
            view.parent_range().start != self.panic_at_row,
            "injected worker panic at row {}",
            self.panic_at_row
        );
        self.inner.encrypt_view(view)
    }
}

#[test]
fn a_worker_panic_is_contained_to_a_typed_error() {
    let t = fixture(23);
    let scheme = PanickyScheme {
        inner: DetScheme::new(MasterKey::from_seed(41)),
        panic_at_row: 10, // chunk 2 of five 5-row chunks
    };
    for workers in [1usize, 4] {
        let engine = Engine::new(EngineConfig { workers, chunk_rows: 5, seed: 41 }).unwrap();
        let err = engine.encrypt(&scheme, &t).unwrap_err();
        match err {
            EngineError::WorkerPanicked { chunk, ref message } => {
                assert_eq!(chunk, 2, "workers={workers}");
                assert!(message.contains("injected worker panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got: {other}"),
        }
    }
}

#[test]
fn the_engine_survives_a_contained_panic() {
    // After a panic is contained, the same engine value keeps working: no
    // poisoned locks, no leaked threads, no aborted process.
    let t = fixture(23);
    let engine = Engine::new(EngineConfig { workers: 4, chunk_rows: 5, seed: 41 }).unwrap();
    let panicky =
        PanickyScheme { inner: DetScheme::new(MasterKey::from_seed(41)), panic_at_row: 0 };
    assert!(matches!(
        engine.encrypt(&panicky, &t),
        Err(EngineError::WorkerPanicked { chunk: 0, .. })
    ));
    let clean = DetScheme::new(MasterKey::from_seed(41));
    let run = engine.encrypt(&clean, &t).expect("the engine is reusable after containment");
    assert!(clean.decrypt(&run.outcome).unwrap().multiset_eq(&t));
}

#[test]
fn f2_panics_are_contained_too() {
    // Containment at a different chunk and worker count, and the engine then
    // runs the real F² backend — the catch-unwind boundary sits in the engine,
    // not in any one backend.
    let t = fixture(13);
    let scheme = PanickyScheme {
        inner: DetScheme::new(MasterKey::from_seed(7)),
        panic_at_row: 5, // chunk 1 of three chunks
    };
    let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 5, seed: 7 }).unwrap();
    let err = engine.encrypt(&scheme, &t).unwrap_err();
    assert!(matches!(err, EngineError::WorkerPanicked { chunk: 1, .. }), "{err}");
    // And the F² backend itself, un-wrapped, still works on this engine.
    let f2 = F2::builder().alpha(0.5).seed(7).build().unwrap();
    let run = engine.encrypt(&f2, &t).unwrap();
    assert!(f2.decrypt(&run.outcome).unwrap().multiset_eq(&t));
}
