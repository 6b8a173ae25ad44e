//! Integration test for the paper's central correctness claim (Theorem 3.7):
//! the FDs of the encrypted table are exactly the FDs of the original table —
//! nothing is lost, and no false positive is introduced.

use f2::fd::oracle::brute_force_fds;
use f2::fd::tane::discover_fds;
use f2::relation::{table, Partition};
use f2::{AttrSet, Scheme, Table, F2};
use f2_datagen::{CustomerConfig, CustomerGenerator, Dataset};

/// Check FD preservation the way the paper's Theorem 3.7 guarantees it: every
/// non-trivial FD with a **non-empty** left-hand side holds in the original table iff
/// it holds in the encrypted table. Constant attributes (FDs of the form `∅ → A`) are
/// intentionally *not* preserved — frequency hiding requires splitting a constant's
/// single value into several ciphertexts, so the encrypted attribute is no longer
/// constant.
fn assert_fds_preserved(plain: &Table, alpha: f64, split: usize, seed: u64) {
    let scheme = F2::builder().alpha(alpha).split_factor(split).seed(seed).build().unwrap();
    let outcome = scheme.encrypt(plain).unwrap();
    assert_interned_partitions_match_generic(&outcome.encrypted);
    let plain_fds = discover_fds(plain);
    let cipher_fds = discover_fds(&outcome.encrypted);
    // Every plaintext FD (with non-empty LHS) must still hold on the ciphertext.
    for fd in plain_fds.iter().filter(|fd| !fd.lhs.is_empty()) {
        assert!(
            fd.holds_in(&outcome.encrypted),
            "FD {} lost by encryption (alpha={alpha}, split={split})\nplain:\n{}\ncipher:\n{}",
            fd.display(plain.schema()),
            plain_fds.display(plain.schema()),
            cipher_fds.display(plain.schema())
        );
    }
    // Every FD the server discovers on the ciphertext must be a true FD of the
    // plaintext — no false positives.
    for fd in cipher_fds.iter().filter(|fd| !fd.lhs.is_empty()) {
        assert!(
            fd.holds_in(plain),
            "false-positive FD {} introduced (alpha={alpha}, split={split})",
            fd.display(plain.schema())
        );
    }
}

/// The interned dictionaries, built cold over the `Value::Bytes` ciphertext, must
/// partition exactly like the value-keyed oracle on every non-empty attribute subset.
/// The FD oracles cannot check this: they call `Partition::compute` themselves.
fn assert_interned_partitions_match_generic(encrypted: &Table) {
    // A fresh copy, so no index built during encryption is reused.
    let cold = Table::new(encrypted.schema().clone(), encrypted.rows().to_vec()).unwrap();
    assert!(cold.arity() <= 5, "at most 31 attribute subsets");
    for bits in 1..1u64 << cold.arity() {
        let attrs = AttrSet::from_bits(bits);
        let (interned, generic) =
            (Partition::compute(&cold, attrs), Partition::compute_generic(&cold, attrs));
        assert_eq!(interned.classes(), generic.classes(), "partition of {attrs:?}");
        assert_eq!(interned.row_count(), generic.row_count());
    }
}

#[test]
fn zip_city_fds_survive_encryption() {
    let t = table! {
        ["Zip", "City", "Name"];
        ["07030", "Hoboken", "alice"],
        ["07030", "Hoboken", "bob"],
        ["07030", "Hoboken", "carol"],
        ["10001", "NewYork", "dave"],
        ["10001", "NewYork", "erin"],
        ["08540", "Princeton", "frank"],
        ["08540", "Princeton", "grace"],
        ["08540", "Princeton", "heidi"],
    };
    for (alpha, split) in [(1.0, 1), (0.5, 2), (0.34, 2), (0.25, 3)] {
        assert_fds_preserved(&t, alpha, split, 7);
    }
}

#[test]
fn figure1_base_table() {
    let t = table! {
        ["A", "B", "C"];
        ["a1", "b1", "c1"],
        ["a1", "b1", "c2"],
        ["a1", "b1", "c3"],
        ["a1", "b1", "c1"],
    };
    assert_fds_preserved(&t, 0.5, 2, 1);
}

#[test]
fn figure3_overlapping_mas_table() {
    // Two overlapping MASs {A,B} and {B,C}; the FD C → B must survive conflict
    // resolution (the paper's running example of §3.3.2).
    let t = table! {
        ["A", "B", "C"];
        ["a3", "b2", "c1"],
        ["a1", "b2", "c1"],
        ["a2", "b2", "c1"],
        ["a2", "b2", "c2"],
        ["a3", "b2", "c2"],
        ["a1", "b1", "c3"],
    };
    for (alpha, split) in [(0.5, 2), (0.34, 1)] {
        assert_fds_preserved(&t, alpha, split, 3);
    }
}

#[test]
fn figure4_false_positive_table() {
    // A → B does not hold in the plaintext; without Step 4 it would become a false
    // positive in the ciphertext (Example 3.1).
    let t = table! {
        ["A", "B"];
        ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"],
        ["a2", "b3"], ["a2", "b3"],
        ["a1", "b2"], ["a1", "b2"], ["a1", "b2"], ["a1", "b2"],
        ["a2", "b4"], ["a2", "b4"], ["a2", "b4"],
    };
    assert_fds_preserved(&t, 1.0 / 3.0, 2, 5);
}

#[test]
fn generated_customer_sample_fds_preserved() {
    // A slice of the TPC-C-style Customer table restricted to the address attributes
    // (ZIP → CITY → STATE planted FDs) plus a payment counter.
    let full =
        CustomerGenerator::new(CustomerConfig { rows: 300, seed: 11, ..CustomerConfig::default() })
            .generate();
    let schema = full.schema().clone();
    let keep = ["C_CITY", "C_STATE", "C_ZIP", "C_CREDIT", "C_PAYMENT_CNT"];
    let indices: Vec<usize> = keep.iter().map(|n| schema.index_of(n).unwrap()).collect();
    let small_schema = f2::Schema::from_names(keep).unwrap();
    let rows = full
        .rows()
        .iter()
        .map(|r| f2::Record::new(indices.iter().map(|&i| r.get(i).unwrap().clone()).collect()))
        .collect();
    let t = Table::new(small_schema, rows).unwrap();
    assert_fds_preserved(&t, 0.25, 2, 13);
}

#[test]
fn random_small_tables_fds_preserved() {
    // A light-weight randomized sweep (the heavier property tests live in the crates).
    for seed in 0..6u64 {
        let t = Dataset::Synthetic.generate(60, seed).truncated(40);
        // Restrict to 4 attributes so the brute-force oracle stays fast, and verify
        // TANE against the oracle on the plaintext side as a sanity check.
        let schema = f2::Schema::from_names(["S0", "S1", "S2", "S3"]).unwrap();
        let rows = t
            .rows()
            .iter()
            .map(|r| f2::Record::new((0..4).map(|i| r.get(i).unwrap().clone()).collect()))
            .collect();
        let small = Table::new(schema, rows).unwrap();
        assert_eq!(discover_fds(&small), brute_force_fds(&small));
        assert_fds_preserved(&small, 0.5, 2, seed);
    }
}
