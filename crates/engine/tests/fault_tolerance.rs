//! Engine-level fault tolerance. A stream job retries nothing itself: whoever
//! owns a reader or a writer wraps it in a [`RetryPolicy`] where a failed call
//! consumed nothing (a CSV reader under [`CsvSource::with_retry`], a writer
//! under [`RetryPolicy::writer`]), and the faults it absorbs change no output
//! byte. A fault that outlasts the policy fails the run, and
//! `resume_streaming` finishes the stream byte-identically. And a panic inside
//! an encryption worker is contained to a typed
//! [`EngineError::WorkerPanicked`], never a poisoned engine or an aborted
//! process.

use f2_core::{DetScheme, Scheme, SchemeOutcome, F2};
use f2_crypto::MasterKey;
use f2_engine::{Engine, EngineConfig, EngineError};
use f2_io::{
    CsvOptions, CsvSource, FaultKind, FaultPlan, FaultyReader, FaultyWriter, FrameReader,
    RetryPolicy, TableSource,
};
use f2_relation::{Table, TableView};
use std::io::{Cursor, ErrorKind};

fn fixture(rows: usize) -> Table {
    f2_datagen::Dataset::Orders.generate(rows, 77)
}

/// 400 Orders rows in 100-row chunks: their CSV rendering outgrows twice the 8 KiB
/// buffer [`CsvSource::with_retry`] fills at construction, so a fault in its
/// second half fires while the run pulls.
struct Setup {
    table: Table,
    csv: String,
    scheme: DetScheme,
    engine: Engine,
    golden: Vec<u8>,
}

fn setup() -> Setup {
    let table = fixture(400);
    let csv = f2_relation::csv::to_csv_string(&table);
    assert!(csv.len() > 2 * 8192, "{} CSV bytes", csv.len());
    let scheme = DetScheme::new(MasterKey::from_seed(41));
    let engine = Engine::new(EngineConfig { workers: 1, chunk_rows: 100, seed: 41 }).unwrap();
    let mut golden = Vec::new();
    engine.run_streaming(&scheme, &mut TableSource::new(&table), &mut golden).unwrap();
    Setup { table, csv, scheme, engine, golden }
}

impl Setup {
    fn options(&self) -> CsvOptions {
        CsvOptions::csv().with_schema(self.table.schema().clone())
    }

    /// A CSV source whose reader replays `plan` under `policy`.
    fn flaky(&self, plan: FaultPlan, policy: RetryPolicy) -> CsvSource<impl std::io::BufRead + '_> {
        CsvSource::with_retry(FaultyReader::new(self.csv.as_bytes(), plan), self.options(), policy)
            .unwrap()
    }
}

#[test]
fn transient_read_faults_under_the_csv_parser_are_absorbed_byte_exactly() {
    let s = setup();
    let len = s.csv.len() as u64;
    let plan = FaultPlan::new()
        .with(len / 2, FaultKind::Transient(ErrorKind::TimedOut))
        .with(len / 2, FaultKind::Transient(ErrorKind::ConnectionReset))
        .with(len - 1, FaultKind::Transient(ErrorKind::WouldBlock));
    let mut source = s.flaky(plan, RetryPolicy::no_backoff(4));
    let mut stream = Vec::new();
    s.engine.run_streaming(&s.scheme, &mut source, &mut stream).unwrap();
    assert_eq!(stream, s.golden, "absorbed faults must not change the stream bytes");
}

#[test]
fn transient_writer_faults_under_a_retrying_writer_are_absorbed_byte_exactly() {
    let s = setup();
    let len = s.golden.len() as u64;
    let plan = FaultPlan::new()
        .with(3, FaultKind::Transient(ErrorKind::TimedOut))
        .with(len / 2, FaultKind::Transient(ErrorKind::ConnectionAborted))
        .with(len / 3, FaultKind::ShortWrite(2));
    let mut writer = RetryPolicy::no_backoff(4).writer(FaultyWriter::new(Vec::new(), plan));
    s.engine.run_streaming(&s.scheme, &mut TableSource::new(&s.table), &mut writer).unwrap();
    assert_eq!(writer.into_inner().into_inner(), s.golden);
}

#[test]
fn a_fault_burst_past_the_budget_fails_the_run_and_resume_finishes_it() {
    let s = setup();
    // Three faults on one read: they outlast a single attempt and a budget of
    // three, and a budget of four heals them.
    let burst = || {
        (0..3).fold(FaultPlan::new(), |plan, _| {
            plan.with(s.csv.len() as u64 / 2, FaultKind::Transient(ErrorKind::TimedOut))
        })
    };
    for budget in [1, 3] {
        let mut store = Cursor::new(Vec::new());
        let mut source = s.flaky(burst(), RetryPolicy::no_backoff(budget));
        let err = s.engine.run_streaming(&s.scheme, &mut source, &mut store).unwrap_err();
        assert!(err.to_string().contains("injected transient read fault"), "{budget}: {err}");
        // The run left the header and the chunks it finished.
        let prefix = store.get_ref();
        assert!(s.golden.starts_with(prefix) && prefix.len() < s.golden.len(), "{budget}");
        let mut frames = FrameReader::new(&prefix[..]).unwrap();
        assert!(frames.next_frame().unwrap().is_some() && frames.next_frame().unwrap().is_some());

        let mut clean = CsvSource::new(s.csv.as_bytes(), s.options()).unwrap();
        s.engine.resume_streaming(&s.scheme, &mut clean, &mut store).unwrap();
        assert_eq!(store.into_inner(), s.golden, "budget {budget}: resume diverged");
    }
    let mut stream = Vec::new();
    let mut source = s.flaky(burst(), RetryPolicy::no_backoff(4));
    s.engine.run_streaming(&s.scheme, &mut source, &mut stream).unwrap();
    assert_eq!(stream, s.golden);
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
