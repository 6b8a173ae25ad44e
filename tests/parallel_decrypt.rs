//! Split decryption returns what one thread returns.
//!
//! Every backend's `Scheme::decrypt` splits a job of at least
//! `DECRYPT_PARALLEL_MIN_CELLS` cells into ranges of rows and runs them on up to
//! `available_parallelism()` threads, except on a worker-pool thread (a name that
//! starts with `POOL_THREAD_PREFIX`), which decrypts every range itself. Each
//! test decrypts one outcome just above the threshold twice, on the test's own
//! thread and on a pool-named thread, and demands the same table, row for row
//! equal to the plaintext. It then corrupts one cell of the last row, which lies
//! in the last range, three ways (a cell that is not bytes, one shorter than the
//! nonce, one whose body does not decode), and for F² duplicates a `Real` origin;
//! both threads must return the same error.

use f2::core::scheme::DECRYPT_PARALLEL_MIN_CELLS;
use f2::crypto::ciphertext::NONCE_LEN;
use f2::crypto::MasterKey;
use f2::engine::{Engine, EngineConfig};
use f2::relation::parallel::POOL_THREAD_PREFIX;
use f2::{
    DetScheme, OwnerState, PaillierScheme, ProbScheme, RowOrigin, Scheme, SchemeOutcome, Table,
    Value, F2,
};
use f2_datagen::Dataset;

/// `outcome` with `edit` applied to a copy of its encrypted table or its state.
fn edited(
    outcome: &SchemeOutcome,
    edit: impl FnOnce(&mut Table, &mut OwnerState),
) -> SchemeOutcome {
    let mut state = match &outcome.state {
        OwnerState::F2(state) => OwnerState::F2(state.clone()),
        OwnerState::CellWise(state) => OwnerState::CellWise(state.clone()),
    };
    let mut encrypted = outcome.encrypted.clone();
    edit(&mut encrypted, &mut state);
    SchemeOutcome { encrypted, state, report: outcome.report.clone() }
}

/// Decrypt `outcome` on the calling thread and on a pool-named thread, which
/// decrypts on one thread.
fn on_both_threads(scheme: &dyn Scheme, outcome: &SchemeOutcome) -> [Result<Table, String>; 2] {
    let decrypt = || scheme.decrypt(outcome).map_err(|err| err.to_string());
    let one_thread = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(format!("{POOL_THREAD_PREFIX}parity"))
            .spawn_scoped(scope, decrypt)
            .unwrap()
            .join()
            .unwrap()
    });
    [decrypt(), one_thread]
}

/// Both threads recover `plain` row for row from `outcome`.
fn assert_parity(scheme: &dyn Scheme, outcome: &SchemeOutcome, plain: &Table) {
    let [split, one_thread] = on_both_threads(scheme, outcome);
    assert_eq!(split, one_thread, "{}: split and one-thread tables differ", scheme.name());
    assert_eq!(split.as_ref(), Ok(plain), "{}: not the plaintext row for row", scheme.name());
}

/// Both threads refuse `outcome`, with the same error text.
fn assert_same_error(scheme: &dyn Scheme, outcome: &SchemeOutcome, case: &str) {
    let [split, one_thread] = on_both_threads(scheme, outcome);
    let split = split.expect_err(&format!("{}: {case} decrypted", scheme.name()));
    assert_eq!(Err(split), one_thread, "{}: {case}", scheme.name());
}

/// Corrupt cell (`row`, 0) of `outcome` three ways, the last through
/// `decode_fault`, which turns the cell into one whose body does not decode.
fn assert_corruptions_fail_alike(
    scheme: &dyn Scheme,
    outcome: &SchemeOutcome,
    row: usize,
    decode_fault: impl Fn(&[u8]) -> Vec<u8>,
) {
    let cell = outcome.encrypted.cell(row, 0).unwrap().as_bytes().unwrap().to_vec();
    let cases = [
        ("a cell that is not bytes", Value::Int(7)),
        ("a cell shorter than the nonce", Value::bytes(cell[..NONCE_LEN - 1].to_vec())),
        ("a cell whose body does not decode", Value::bytes(decode_fault(&cell))),
    ];
    for (case, bad) in cases {
        let bad = edited(outcome, |table, _| table.set_cell(row, 0, bad).unwrap());
        assert_same_error(scheme, &bad, case);
    }
}

/// A symmetric cell `nonce ‖ F_k(nonce) ⊕ p` whose body unmasks to tag 0xFF, which
/// no value has: the first body byte is flipped by the plaintext's tag ⊕ 0xFF.
fn bad_tag(plain: &Value) -> impl Fn(&[u8]) -> Vec<u8> + '_ {
    move |cell| {
        let mut cell = cell.to_vec();
        cell[NONCE_LEN] ^= plain.encode()[0] ^ 0xFF;
        cell
    }
}

/// Rows of an `arity`-column table whose decryption just reaches the threshold.
fn rows_at_threshold(arity: usize) -> usize {
    DECRYPT_PARALLEL_MIN_CELLS.div_ceil(arity)
}

#[test]
fn f2_decrypts_a_merged_engine_outcome_alike_on_every_thread_count() {
    // Twice the fewest rows above the threshold, so the merged outcome spans
    // several 512-row chunks.
    let plain = Dataset::Synthetic.generate(2 * rows_at_threshold(7), 35);
    assert!(plain.row_count() * plain.arity() >= DECRYPT_PARALLEL_MIN_CELLS);
    let scheme = F2::builder().alpha(0.2).split_factor(2).seed(35).build().unwrap();
    let engine = Engine::new(EngineConfig { workers: 2, chunk_rows: 512, seed: 36 }).unwrap();
    let outcome = engine.encrypt(&scheme, &plain).unwrap().outcome;
    assert_parity(&scheme, &outcome, &plain);

    // The output row that carries the last original row, in the last range.
    let last = plain.row_count() - 1;
    let real = scheme.real_rows(&outcome).unwrap();
    let carrier = real.iter().find(|&&(_, original)| original == last).unwrap().0;
    let value = plain.cell(last, 0).unwrap();
    assert_corruptions_fail_alike(&scheme, &outcome, carrier, bad_tag(value));

    // A `Real` origin duplicated onto the last original row's carrier.
    let twice = edited(&outcome, |_, state| {
        let OwnerState::F2(state) = state else { unreachable!() };
        state.provenance.origins[carrier] = RowOrigin::Real { original_row: last - 1 };
    });
    assert_same_error(&scheme, &twice, "a duplicated real origin");
}

#[test]
fn cell_wise_backends_decrypt_alike_on_every_thread_count() {
    let plain = Dataset::Synthetic.generate(rows_at_threshold(7), 36);
    let last = plain.row_count() - 1;
    let value = plain.cell(last, 0).unwrap();
    let master = MasterKey::from_seed(36);
    let det = DetScheme::new(master.clone());
    let prob = ProbScheme::new(master, 36);
    for scheme in [&det as &dyn Scheme, &prob] {
        let outcome = scheme.encrypt(&plain).unwrap();
        assert_parity(scheme, &outcome, &plain);
        assert_corruptions_fail_alike(scheme, &outcome, last, bad_tag(value));
    }
}

#[test]
fn paillier_decrypts_alike_on_every_thread_count() {
    // A 64-bit modulus carries 6 plaintext bytes per frame, so each 9-byte
    // `Int` encoding takes two frames; its first frame alone does not decode.
    let scheme = PaillierScheme::new(64, 37).unwrap();
    let width = scheme.keypair().public().ciphertext_width();
    assert_ne!((NONCE_LEN - 1) % width, 0, "a short cell is no whole number of frames");
    let plain = Dataset::Synthetic.generate(rows_at_threshold(7), 37);
    let last = plain.row_count() - 1;
    assert_eq!(plain.cell(last, 0).unwrap().encode().len(), 9);
    let outcome = scheme.encrypt(&plain).unwrap();
    assert_parity(&scheme, &outcome, &plain);
    assert_corruptions_fail_alike(&scheme, &outcome, last, |cell| cell[..width].to_vec());
}
