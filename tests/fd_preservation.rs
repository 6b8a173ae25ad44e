//! Integration test for the paper's central correctness claim (Theorem 3.7):
//! the FDs of the encrypted table are exactly the FDs of the original table —
//! nothing is lost, and no false positive is introduced. The small-table sweeps
//! also check exact decryption and the MAS frequency classes: what an artificial
//! row copies decides both its FDs and its frequency.

use f2::crypto::{splitmix64, MasterKey};
use f2::engine::{Engine, EngineConfig};
use f2::fd::oracle::brute_force_fds;
use f2::fd::tane::discover_fds;
use f2::fd::Fd;
use f2::relation::{table, Partition};
use f2::{AttrSet, Record, Schema, Scheme, Table, Value, F2};
use f2_datagen::{CustomerConfig, CustomerGenerator, Dataset, SyntheticGenerator};
use std::collections::HashMap;

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

/// What one single-shot F² encryption of `plain` breaks, in words; empty when
/// nothing is. Three checks:
/// - an FD with a non-empty left-hand side that holds on one side only, by
///   `brute_force_fds` on both (it has no arity cap, unlike the partition
///   cross-check above);
/// - a decryption that is not the plaintext multiset;
/// - on some MAS, a frequency above 1 shared by fewer than k = ⌈1/α⌉ ciphertext
///   combinations. This is the check of `roundtrip_and_security.rs` that gives
///   α-security (§4.1).
fn single_shot_faults(plain: &Table, alpha: f64, split: usize, seed: u64) -> Vec<String> {
    let scheme = F2::builder().alpha(alpha).split_factor(split).seed(seed).build().unwrap();
    let out = scheme.encrypt(plain).unwrap();
    let cipher = &out.encrypted;
    let schema = plain.schema();
    let mut faults = Vec::new();
    for fd in brute_force_fds(plain).iter().filter(|fd| !fd.lhs.is_empty()) {
        if !fd.holds_in(cipher) {
            faults.push(format!("lost {}", fd.display(schema)));
        }
    }
    for fd in brute_force_fds(cipher).iter().filter(|fd| !fd.lhs.is_empty()) {
        if !fd.holds_in(plain) {
            faults.push(format!("false positive {}", fd.display(schema)));
        }
    }
    if !scheme.decrypt(&out).unwrap().multiset_eq(plain) {
        faults.push("inexact decryption".into());
    }
    let k = (1.0 / alpha).ceil() as usize;
    for &mas in &out.f2_state().unwrap().mas_sets {
        let mut combos_by_freq: HashMap<usize, usize> = HashMap::new();
        for &freq in cipher.frequency_histogram(mas).values() {
            *combos_by_freq.entry(freq).or_default() += 1;
        }
        for (freq, combos) in combos_by_freq {
            if freq > 1 && combos < k {
                faults.push(format!("frequency {freq} of {combos} < {k} combinations on {mas}"));
            }
        }
    }
    faults
}

#[test]
fn six_row_table_with_three_mas_sharing_s2() {
    // The MASs are {S0, S1, S2}, {S2, S3, S4} and {S2, S5}. A singleton class
    // adopts the S2 ciphertext an earlier MAS put on its row, and a later MAS's
    // multi-tuple class overrides it; the singleton's scale copies must carry the
    // override too, or `{S3} → S2` and `{S4} → S2` are lost.
    let rows: [[i64; 7]; 6] = [
        [258, 209, 20, 270, 520, 3, 9810],
        [258, 209, 20, 120, 564, 4, 12360],
        [290, 33, 44, 44, 573, 7, 21132],
        [0, 3, 44, 44, 573, 0, 132],
        [293, 54, 45, 895, 669, 11, 11928],
        [49, 346, 45, 445, 801, 11, 10578],
    ];
    let records =
        rows.iter().map(|row| Record::new(row.iter().map(|&v| Value::Int(v)).collect())).collect();
    let t = Table::new(SyntheticGenerator::schema(), records).unwrap();
    let mut failed = Vec::new();
    for (alpha, split) in [(0.1, 2), (0.2, 2), (0.25, 2), (0.2, 1), (0.2, 3)] {
        for seed in 0..40 {
            let faults = single_shot_faults(&t, alpha, split, seed);
            if !faults.is_empty() {
                failed.push(format!("alpha={alpha} split={split} seed={seed}: {faults:?}"));
            }
        }
    }
    assert!(failed.is_empty(), "{} of 200 encryptions fail, first {:?}", failed.len(), failed[0]);
}

/// A random table of 3–10 rows over 3–6 integer attributes, each attribute
/// drawing from its own 2–4 values. Domains this small make overlapping MASs,
/// singleton classes and type-2 conflicts common.
fn random_small_domain_table(seed: u64) -> Table {
    let mut state = seed;
    let mut below = |n: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(state) % n
    };
    let rows = 3 + below(8);
    let domains: Vec<u64> = (0..3 + below(4)).map(|_| 2 + below(3)).collect();
    let schema = Schema::from_names((0..domains.len()).map(|a| format!("A{a}"))).unwrap();
    let records = (0..rows)
        .map(|_| Record::new(domains.iter().map(|&d| Value::Int(below(d) as i64)).collect()))
        .collect();
    Table::new(schema, records).unwrap()
}

#[test]
fn random_small_domain_tables_keep_fds_and_frequency_classes() {
    // The release build (CI's `plan` job) sweeps more tables than debug can
    // afford.
    let tables = if cfg!(debug_assertions) { 300 } else { 3_000 };
    for alpha in [0.2, 0.5] {
        let failed: Vec<String> = (0..tables)
            .filter_map(|seed| {
                let faults = single_shot_faults(&random_small_domain_table(seed), alpha, 2, seed);
                (!faults.is_empty()).then(|| format!("table {seed}: {faults:?}"))
            })
            .collect();
        assert!(
            failed.is_empty(),
            "alpha={alpha}: {} of {tables} tables fail, first {:?}",
            failed.len(),
            failed[0]
        );
    }
}

#[test]
fn chunked_synthetic_tables_keep_s3_to_s2() {
    // `Engine::encrypt` at the benchmark's settings, on two generated tables
    // whose chunks once lost the planted `S3 → S2` when encrypted alone: the
    // six-row table above is cut down from chunk 25 of the run-seed 105 table,
    // and chunk 97 of the run-seed 114 table lost the FD too.
    let s3_to_s2 = Fd::new(AttrSet::single(3), 2);
    for run in [105u64, 114] {
        let part = |p: u64| splitmix64(run ^ p.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let plain = Dataset::Synthetic.generate(50_000, part(1));
        let scheme = F2::builder()
            .alpha(0.2)
            .split_factor(2)
            .seed(part(2))
            .master_key(MasterKey::from_seed(part(3)))
            .build()
            .unwrap();
        let engine =
            Engine::new(EngineConfig { workers: 2, chunk_rows: 512, seed: part(4) }).unwrap();
        let out = engine.encrypt(&scheme, &plain).unwrap().outcome;
        assert!(s3_to_s2.holds_in(&plain));
        assert!(s3_to_s2.holds_in(&out.encrypted), "run seed {run} loses S3 → S2");
    }
}
