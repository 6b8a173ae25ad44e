//! The service provider's cold index on a ciphertext large enough for its fast
//! paths.
//!
//! The provider discovers FDs on a ciphertext it has just received, so its first
//! partition builds the table's columnar index cold. A column longer than its
//! 4,096-cell probe window that is mostly distinct there is interned by sorting
//! instead of hashing, and a table of at least 65,536 cells builds its columns on
//! several threads. The other suites here encrypt tables of a few dozen rows, so
//! this one encrypts a table past both sizes with the two fast cell-wise backends:
//! `probabilistic-prf` makes every column all-distinct, and `deterministic-aes`
//! keeps the plaintext's repeats.

use f2::crypto::MasterKey;
use f2::fd::tane::discover_fds;
use f2::relation::columnar::{PARALLEL_MIN_CELLS, PROBE_CELLS, SORT_MIN_DISTINCT};
use f2::relation::Partition;
use f2::{AttrSet, DetScheme, ProbScheme, Scheme, Table};
use f2_datagen::Dataset;
use std::collections::HashSet;

/// 10,000 Synthetic rows × 7 columns: 70,000 cells.
const ROWS: usize = 10_000;

fn synthetic() -> Table {
    Dataset::Synthetic.generate(ROWS, 42)
}

/// The table as the provider receives it: the same rows, no index built yet.
fn cold_copy(table: &Table) -> Table {
    Table::new(table.schema().clone(), table.rows().to_vec()).unwrap()
}

/// Distinct values among a column's cells in the probe window.
fn distinct_in_window(table: &Table, attr: usize) -> usize {
    let window = &table.rows()[..PROBE_CELLS];
    window.iter().map(|rec| rec.get(attr).unwrap()).collect::<HashSet<_>>().len()
}

/// Interned partitions of a cold table equal the value-keyed oracle's on every
/// single attribute and every pair.
fn assert_partitions_match_generic(cold: &Table, backend: &str) {
    let arity = cold.arity();
    let singles = (0..arity).map(AttrSet::single);
    let pairs = (0..arity).flat_map(|a| (a + 1..arity).map(move |b| AttrSet::from_indices([a, b])));
    for attrs in singles.chain(pairs) {
        let (interned, generic) =
            (Partition::compute(cold, attrs), Partition::compute_generic(cold, attrs));
        assert_eq!(interned.classes(), generic.classes(), "{backend}: partition of {attrs:?}");
        assert_eq!(interned.row_count(), generic.row_count());
    }
}

#[test]
fn probabilistic_ciphertext_partitions_cold_like_the_oracle() {
    let plain = synthetic();
    assert!(ROWS * plain.arity() >= PARALLEL_MIN_CELLS, "past the threaded-build size");
    let outcome = ProbScheme::new(MasterKey::from_seed(5), 5).encrypt(&plain).unwrap();
    let cold = cold_copy(&outcome.encrypted);
    for attr in 0..cold.arity() {
        assert!(distinct_in_window(&cold, attr) >= SORT_MIN_DISTINCT, "column {attr} sorts");
    }
    assert_partitions_match_generic(&cold, "probabilistic-prf");
    for attr in 0..cold.arity() {
        assert_eq!(cold.distinct_count(attr), ROWS, "column {attr} is all-distinct");
    }
}

#[test]
fn deterministic_ciphertext_keeps_the_plaintext_fds_through_a_cold_index() {
    let plain = synthetic();
    let outcome = DetScheme::new(MasterKey::from_seed(6)).encrypt(&plain).unwrap();
    // Deterministic AES is a bijection per column, so every partition, and with
    // them the FDs discovery finds on the cold ciphertext, are the plaintext's.
    assert_eq!(discover_fds(&cold_copy(&outcome.encrypted)), discover_fds(&plain));
    let cold = cold_copy(&outcome.encrypted);
    for attr in 0..cold.arity() {
        assert!(distinct_in_window(&cold, attr) < SORT_MIN_DISTINCT, "column {attr} hashes");
    }
    assert_partitions_match_generic(&cold, "deterministic-aes");
    for attr in 0..cold.arity() {
        assert_eq!(cold.distinct_count(attr), plain.distinct_count(attr), "column {attr}");
    }
}
