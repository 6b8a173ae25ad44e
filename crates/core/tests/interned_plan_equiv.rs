//! Equivalence suite pinning the interned planning paths (ECG inverted-index
//! grouping, the refactored split planner, witness-based false-positive checks) to
//! their retained generic oracles, plus the golden byte-identity regression for the
//! flat-cell-buffer rewrite of F² encryption.

use f2_core::config::F2Config;
use f2_core::ecg::{group_equivalence_classes, group_equivalence_classes_generic};
use f2_core::fake::FreshValueGenerator;
use f2_core::fpfd::plan_false_positive_elimination;
use f2_core::sse::build_mas_plan;
use f2_core::{Scheme, F2};
use f2_datagen::Dataset;
use f2_relation::{AttrSet, Partition, Record, Schema, Table, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// A value from a tiny, collision-heavy pool.
fn value_from(selector: u8) -> Value {
    match selector % 12 {
        0 => Value::Null,
        s @ 1..=6 => Value::Int(i64::from(s) % 5),
        s => Value::text(["x", "y", "z", "w"][s as usize % 4]),
    }
}

/// Assemble a table from a sampled arity and a flat pool of cell selectors.
fn table_from(arity: usize, cells: Vec<u8>) -> Table {
    let schema = Schema::from_names((0..arity).map(|a| format!("A{a}"))).expect("small schema");
    let records =
        cells.chunks_exact(arity).map(|row| row.iter().map(|&s| value_from(s)).collect()).collect();
    Table::new(schema, records).expect("consistent arity")
}

/// A non-empty attribute subset of the table's schema, from a bitmask seed.
fn attrs_for(table: &Table, mask: u64) -> AttrSet {
    let arity = table.arity();
    let bits = mask % (1u64 << arity);
    let set = AttrSet::from_bits(bits);
    if set.is_empty() {
        AttrSet::single((mask % arity as u64) as usize)
    } else {
        set
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The inverted-index grouping must produce *identical* ECGs — same members,
    /// same order, same fake padding — as the retained O(t²) pairwise oracle.
    #[test]
    fn ecg_grouping_matches_generic_oracle(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..160),
        mask in 0u64..64,
        k in 1usize..=6,
    ) {
        let table = table_from(arity, cells);
        let attrs = attrs_for(&table, mask);
        let partition = Partition::compute(&table, attrs);
        let mut fresh_fast = FreshValueGenerator::for_table(&table);
        let mut fresh_generic = FreshValueGenerator::for_table(&table);
        let fast =
            group_equivalence_classes(partition.classes(), k, attrs.len(), &mut fresh_fast);
        let generic = group_equivalence_classes_generic(
            partition.classes(),
            k,
            attrs.len(),
            &mut fresh_generic,
        );
        prop_assert_eq!(fast, generic);
        prop_assert_eq!(fresh_fast.issued(), fresh_generic.issued());
    }

    /// Same MAS plans end to end: grouping, split points, row assignment.
    #[test]
    fn mas_plan_is_deterministic_and_covers_rows(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..160),
        mask in 0u64..64,
        denom in 1usize..=6,
    ) {
        let table = table_from(arity, cells);
        if !table.is_empty() {
            let attrs = attrs_for(&table, mask);
            let config = F2Config::new(1.0 / denom as f64, 2).unwrap();
            let mut fresh = FreshValueGenerator::for_table(&table);
            let plan = build_mas_plan(&table, attrs, &config, &mut fresh);
            // Every original row appears in exactly one instance.
            let mut seen = std::collections::HashSet::new();
            for inst in &plan.instances {
                for &r in &inst.rows {
                    prop_assert!(seen.insert(r), "row {} assigned twice", r);
                }
            }
            prop_assert_eq!(seen.len(), table.row_count());
            // Capacity-hinted assignment map covers the same rows.
            prop_assert_eq!(plan.row_assignment().len(), table.row_count());
        }
    }

    /// The witness-based FP planner flags exactly the FDs that are violated among
    /// the partition representatives (checked against a naive value-based scan).
    #[test]
    fn fp_plan_matches_naive_violation_scan(
        arity in 2usize..=4,
        cells in vec(0u8..=255, 0..120),
        k in 1usize..=4,
    ) {
        let table = table_from(arity, cells);
        let mas = AttrSet::all(arity);
        let mut fresh = FreshValueGenerator::for_table(&table);
        let plan = plan_false_positive_elimination(&table, &[mas], k, &mut fresh);
        // Naive oracle: maximum violated FDs among representatives, walked in the
        // same lattice order.
        let partition = Partition::compute(&table, mas);
        let reps: Vec<&Vec<Value>> =
            partition.classes().iter().map(|c| c.representative.as_ref()).collect();
        let lattice = f2_fd::lattice::FdLattice::new(mas);
        let naive = lattice.find_maximum_false_positives(|lhs, rhs| {
            let mut seen: std::collections::HashMap<Vec<&Value>, &Value> =
                std::collections::HashMap::new();
            for rep in &reps {
                let key: Vec<&Value> = lhs.iter().map(|a| &rep[a]).collect();
                match seen.get(&key) {
                    Some(prev) if *prev != &rep[rhs] => return true,
                    Some(_) => {}
                    None => {
                        seen.insert(key, &rep[rhs]);
                    }
                }
            }
            false
        });
        prop_assert_eq!(plan.max_false_positives, naive.len());
        prop_assert_eq!(plan.pairs.len(), naive.len() * k);
    }
}

/// A constant MAS column lets no two classes share a group, and a 3-valued one
/// closes every group after at most three members: grouping may stop scanning
/// early there, but must still form exactly the oracle's groups.
#[test]
fn ecg_grouping_with_constant_and_three_valued_columns_matches_generic_oracle() {
    let schema = Schema::from_names(["Const", "Three", "Many"]).expect("small schema");
    let records = (0..90i64)
        .map(|i| {
            Record::new(vec![Value::text("c"), Value::Int(i % 3), Value::Int(i * i % 13 + i % 2)])
        })
        .collect();
    let table = Table::new(schema, records).expect("consistent arity");
    for bits in [0b011u64, 0b101, 0b110, 0b111, 0b001, 0b010] {
        let attrs = AttrSet::from_bits(bits);
        let partition = Partition::compute(&table, attrs);
        for k in 1..=5 {
            let mut fresh_fast = FreshValueGenerator::for_table(&table);
            let mut fresh_generic = FreshValueGenerator::for_table(&table);
            let fast =
                group_equivalence_classes(partition.classes(), k, attrs.len(), &mut fresh_fast);
            let generic = group_equivalence_classes_generic(
                partition.classes(),
                k,
                attrs.len(),
                &mut fresh_generic,
            );
            assert_eq!(fast, generic, "attrs {bits:#b}, k {k}");
            assert_eq!(fresh_fast.issued(), fresh_generic.issued(), "attrs {bits:#b}, k {k}");
            if attrs.contains(0) && k > 1 {
                // No two classes share a group over the constant column.
                assert_eq!(fast.len(), partition.class_count(), "attrs {bits:#b}, k {k}");
            }
        }
    }
}

/// FNV-1a over every cell of the table, row-major, length-prefixed.
fn table_digest(t: &Table) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(&(t.row_count() as u64).to_le_bytes());
    eat(&(t.arity() as u64).to_le_bytes());
    for (_, rec) in t.iter() {
        for v in rec.values() {
            let enc = v.encode();
            eat(&(enc.len() as u64).to_le_bytes());
            eat(&enc);
        }
    }
    h
}

/// Golden regression: F² encryption output must be byte-identical for a fixed seed
/// across the interned-planning / flat-cell-buffer rewrite. The digests below were
/// captured from the pre-rewrite encryptor (PR-3 tree) and must never drift — the
/// whole optimisation stack is required to be unobservable except for speed.
#[test]
fn encryptor_output_is_byte_identical_to_pre_rewrite_golden() {
    let cases: [(Dataset, usize, f64, usize, u64, u64, usize); 3] = [
        (Dataset::Synthetic, 512, 0.2, 2, 7, 0xe073cb4a63aaab22, 4690),
        (Dataset::Orders, 300, 0.25, 2, 11, 0xabeaf08a0a967c00, 5911),
        (Dataset::Customer, 200, 0.5, 3, 3, 0xa569b36ab3dc9c04, 10789),
    ];
    for (dataset, rows, alpha, split, seed, digest, encrypted_rows) in cases {
        let table = dataset.generate(rows, 42);
        let scheme =
            F2::builder().alpha(alpha).split_factor(split).seed(seed).build().expect("valid");
        let out = scheme.encrypt(&table).expect("encrypts");
        assert_eq!(
            out.encrypted.row_count(),
            encrypted_rows,
            "{dataset:?}: encrypted row count drifted"
        );
        assert_eq!(
            table_digest(&out.encrypted),
            digest,
            "{dataset:?}: encrypted bytes drifted from the pre-rewrite golden digest"
        );
        // And the outcome still decrypts to the original.
        let recovered = scheme.decrypt(&out).expect("decrypts");
        assert!(recovered.multiset_eq(&table));
    }
}

/// The interned stack accepts ciphertext tables too (Bytes-valued dictionaries):
/// partitioning an encrypted table must agree with the generic oracle.
#[test]
fn interned_partitions_on_encrypted_tables() {
    let table = Dataset::Synthetic.generate(128, 42);
    let scheme = F2::builder().alpha(0.5).split_factor(2).seed(9).build().expect("valid");
    let out = scheme.encrypt(&table).expect("encrypts");
    for mask in [1u64, 3, 7, 0b101] {
        let attrs = AttrSet::from_bits(mask);
        let interned = Partition::compute(&out.encrypted, attrs);
        let generic = Partition::compute_generic(&out.encrypted, attrs);
        assert_eq!(interned.classes(), generic.classes());
    }
}

/// `Record` construction sanity for the digest helper (kept local to this suite).
#[test]
fn digest_distinguishes_tables() {
    let schema = Schema::from_names(["A"]).unwrap();
    let t1 = Table::new(schema.clone(), vec![Record::new(vec![Value::Int(1)])]).unwrap();
    let t2 = Table::new(schema, vec![Record::new(vec![Value::Int(2)])]).unwrap();
    assert_ne!(table_digest(&t1), table_digest(&t2));
}
