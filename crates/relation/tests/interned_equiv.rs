//! Equivalence suite pinning the interned columnar partition paths to the retained
//! generic (value-keyed) oracles.
//!
//! The dictionary-encoded core must be *unobservable* except for speed: for every
//! table and attribute set, `Partition::compute` must produce exactly the classes —
//! same representatives, same rows, same order — as `Partition::compute_generic`,
//! and the direct stripped path must match `compute_generic().stripped()`. Tables are
//! drawn with small value pools (including cross-type collisions, `Null`, ciphertext-
//! shaped `Bytes` and the order key's edge cases) so duplicate projections are common.
//!
//! The drawn tables stay far below the sizes at which a column's build switches to
//! sorting (past a 4,096-cell probe window that is at least 7/8 distinct) and a
//! table's build to several threads (65,536 cells), so fixed tables past both sizes
//! pin those paths too.

use f2_relation::columnar::{PARALLEL_MIN_CELLS, PROBE_CELLS, SORT_MIN_DISTINCT};
use f2_relation::{AttrSet, Partition, Record, Schema, StrippedPartition, Table, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// A value from a deliberately small, mixed-type pool. Even selectors draw from four
/// hot values so duplicate projections stay common; odd selectors draw from the
/// whole pool: `Null`, cross-type look-alikes of zero, ciphertext-shaped `Bytes`, and
/// the edge cases of the dictionary's order key — extreme and negative Ints,
/// Decimals of several scales, a negative Date, the empty Text and Bytes, Texts and
/// Bytes that share their first 8 bytes or differ only at byte 9, byte strings that
/// differ only by trailing zeros, and `0xFF`-led Bytes.
fn value_from(selector: u8) -> Value {
    let pick = if selector.is_multiple_of(2) { selector / 2 % 4 } else { selector / 2 % 26 };
    match pick {
        0 => Value::Null,
        1 => Value::Int(-1),
        2 => Value::text(""),
        3 => Value::bytes(b"ab".to_vec()),
        4 => Value::Int(i64::MIN),
        5 => Value::Int(0),
        6 => Value::Int(i64::MAX),
        7 => Value::Decimal { digits: 0, scale: 0 },
        8 => Value::Decimal { digits: -1, scale: 1 },
        9 => Value::Decimal { digits: 5, scale: 1 },
        10 => Value::Decimal { digits: i64::MIN, scale: 2 },
        11 => Value::Decimal { digits: 5, scale: 2 },
        12 => Value::Decimal { digits: -5, scale: 3 },
        13 => Value::Date(-1),
        14 => Value::Date(0),
        15 => Value::text("a"),
        16 => Value::text("abcdefgh1"),
        17 => Value::text("abcdefgh2"),
        18 => Value::bytes(Vec::new()),
        19 => Value::bytes(b"ab\0".to_vec()),
        20 => Value::bytes(b"ab\0\0".to_vec()),
        21 => Value::bytes(b"abcdefgh".to_vec()),
        22 => Value::bytes(b"abcdefgh\x01".to_vec()),
        23 => Value::bytes(b"abcdefgh\x02".to_vec()),
        24 => Value::bytes(vec![0xFF]),
        _ => Value::bytes(vec![0xFF; 9]),
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interned_partition_matches_generic(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..160),
        mask in 0u64..64,
    ) {
        let table = table_from(arity, cells);
        let attrs = attrs_for(&table, mask);
        let interned = Partition::compute(&table, attrs);
        let generic = Partition::compute_generic(&table, attrs);
        prop_assert_eq!(interned.classes(), generic.classes());
        prop_assert_eq!(interned.row_count(), generic.row_count());
        prop_assert_eq!(interned.attrs(), generic.attrs());
    }

    #[test]
    fn interned_stripped_matches_generic(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..160),
        mask in 0u64..64,
    ) {
        let table = table_from(arity, cells);
        let attrs = attrs_for(&table, mask);
        let direct = StrippedPartition::for_attrs(&table, attrs);
        let oracle = Partition::compute_generic(&table, attrs).stripped();
        prop_assert_eq!(direct, oracle);
    }

    #[test]
    fn empty_projection_matches_generic(arity in 1usize..=4, cells in vec(0u8..=255, 0..120)) {
        let table = table_from(arity, cells);
        let interned = Partition::compute(&table, AttrSet::EMPTY);
        let generic = Partition::compute_generic(&table, AttrSet::EMPTY);
        prop_assert_eq!(interned.classes(), generic.classes());
    }

    #[test]
    fn product_matches_direct_interned(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..160),
        ma in 0u64..64,
        mb in 0u64..64,
    ) {
        let table = table_from(arity, cells);
        let a = attrs_for(&table, ma);
        let b = attrs_for(&table, mb);
        let pa = StrippedPartition::for_attrs(&table, a);
        let pb = StrippedPartition::for_attrs(&table, b);
        let via_product = pa.product(&pb);
        // Product output is sorted by row sets, the direct path by representatives;
        // compare as multisets of classes.
        let mut direct: Vec<Vec<usize>> =
            StrippedPartition::for_attrs(&table, a.union(b)).classes().to_vec();
        let mut product: Vec<Vec<usize>> = via_product.classes().to_vec();
        direct.sort();
        product.sort();
        prop_assert_eq!(direct, product);
    }

    #[test]
    fn mutation_invalidates_cached_dictionaries(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..120),
        mask in 0u64..64,
    ) {
        let mut table = table_from(arity, cells);
        let attrs = attrs_for(&table, mask);
        // Build (and cache) the columnar index…
        let before = Partition::compute(&table, attrs);
        prop_assert_eq!(before.classes(), Partition::compute_generic(&table, attrs).classes());
        // …then mutate the table and require the recomputed partition to match the
        // generic oracle again (a stale dictionary would disagree).
        table.push_row(Record::new(vec![Value::Int(77); arity])).unwrap();
        table.set_cell(0, 0, Value::text("mutated")).unwrap();
        let after = Partition::compute(&table, attrs);
        prop_assert_eq!(after.classes(), Partition::compute_generic(&table, attrs).classes());
        prop_assert_eq!(after.row_count(), table.row_count());

        // `append` invalidates too.
        let extra = table_from(arity, vec![1, 2, 3, 4, 5, 6, 7, 8][..arity].to_vec());
        table.append(extra).unwrap();
        let appended = Partition::compute(&table, attrs);
        prop_assert_eq!(appended.classes(), Partition::compute_generic(&table, attrs).classes());
    }

    #[test]
    fn frequency_histogram_matches_manual_count(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..120),
        mask in 0u64..64,
    ) {
        let table = table_from(arity, cells);
        let attrs = attrs_for(&table, mask);
        let hist = table.frequency_histogram(attrs);
        let mut manual: std::collections::HashMap<Vec<Value>, usize> =
            std::collections::HashMap::new();
        for (_, rec) in table.iter() {
            *manual.entry(rec.project(attrs)).or_insert(0) += 1;
        }
        prop_assert_eq!(hist, manual);
    }

    #[test]
    fn all_values_and_distinct_counts_match_scan(arity in 1usize..=4, cells in vec(0u8..=255, 0..120)) {
        let table = table_from(arity, cells);
        let mut manual = std::collections::HashSet::new();
        for (_, rec) in table.iter() {
            for v in rec.values() {
                manual.insert(v.clone());
            }
        }
        prop_assert_eq!(table.all_values(), manual);
        for a in 0..table.arity() {
            let mut col = std::collections::HashSet::new();
            for (_, rec) in table.iter() {
                col.insert(rec.get(a).unwrap().clone());
            }
            prop_assert_eq!(table.distinct_count(a), col.len());
        }
    }

    #[test]
    fn view_to_table_matches_the_standalone_sub_table(
        arity in 1usize..=4,
        cells in vec(0u8..=255, 0..120),
        lo_per_mille in 0u64..=1000,
        hi_per_mille in 0u64..=1000,
        mask in 0u64..=u64::MAX,
    ) {
        // A materialised view must be indistinguishable from a table built from
        // scratch over the same rows — and so must every partition computed
        // through it.
        let table = table_from(arity, cells);
        let n = table.row_count() as u64;
        let (a, b) = (lo_per_mille * n / 1000, hi_per_mille * n / 1000);
        let range = (a.min(b) as usize)..(a.max(b) as usize);
        let view = table.view(range.clone()).expect("range in bounds");
        let materialised = view.to_table();
        let standalone =
            Table::new(table.schema().clone(), table.rows()[range].to_vec()).expect("sub-table");
        prop_assert_eq!(&materialised, &standalone);
        let attrs = attrs_for(&materialised, mask);
        let (p, q) = (materialised.partition(attrs), standalone.partition(attrs));
        prop_assert_eq!(p.classes(), q.classes());
    }
}

/// Rows of the fixed large table: 4 columns × 20,000 rows is past the threaded-build
/// size (65,536 cells), and every column is longer than the 4,096-cell probe window.
const LARGE_ROWS: usize = 20_000;

/// A fixed pseudo-random `u64` per index (splitmix64).
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A ciphertext-shaped cell: 16 bytes whose first 8 are shared by each group of
/// four consecutive indexes, so order keys tie and `Value::cmp` settles them; every
/// 64th cell is the bare 8-byte head, a proper prefix of its group mates.
fn cipher_cell(index: u64) -> Value {
    let mut bytes = mix(index / 4).to_be_bytes().to_vec();
    if !index.is_multiple_of(64) {
        bytes.extend(mix(index).to_be_bytes());
    }
    Value::bytes(bytes)
}

/// The fixed large table, one column per shape:
/// 0. ciphertext-shaped `Bytes`, mostly distinct (the sort strategy), where every
///    16th row repeats the cell five rows back;
/// 1. few distinct values of mixed type, drawn from `value_from` (the hash
///    strategy throughout);
/// 2. 100 values repeated through the probe window, every value unique after it
///    (the hash strategy, though the rest is all new);
/// 3. mixed types, mostly distinct (the sort strategy): Ints, Decimals of four
///    scales, Texts sharing their first 8 bytes, Dates and `Bytes`, with every 16th
///    cell an edge value from `value_from`.
fn large_table() -> Table {
    let records = (0..LARGE_ROWS as u64)
        .map(|row| {
            let cipher = cipher_cell(if row % 16 == 15 { row - 5 } else { row });
            let few = value_from((mix(row) % 256) as u8);
            let switch = if row < PROBE_CELLS as u64 {
                Value::Int((row % 100) as i64)
            } else {
                Value::Int(row as i64)
            };
            let m = mix(row ^ 0xABCD);
            let mixed = match row % 16 {
                0 => value_from(m as u8),
                1..=3 => Value::Int(m as i64 >> 20),
                4..=6 => Value::Decimal { digits: m as i64 >> 40, scale: (row % 4) as u8 },
                7..=10 => Value::text(format!("abcdefgh{}", m % 50_000)),
                11..=12 => Value::Date((m % 40_000) as i32 - 20_000),
                _ => cipher_cell(m % 100_000),
            };
            Record::new(vec![cipher, few, switch, mixed])
        })
        .collect();
    let schema = Schema::from_names(["cipher", "few", "switch", "mixed"]).expect("schema");
    Table::new(schema, records).expect("consistent arity")
}

/// Distinct values among a column's first `n` cells.
fn distinct_in_first(table: &Table, attr: usize, n: usize) -> usize {
    let head: std::collections::HashSet<&Value> =
        table.rows()[..n].iter().map(|rec| rec.get(attr).expect("arity")).collect();
    head.len()
}

#[test]
fn large_columns_intern_like_a_sort_and_dedup() {
    let table = large_table();
    // The table reaches the threaded build, and its shapes the strategies they are
    // meant to.
    const { assert!(LARGE_ROWS > PROBE_CELLS) };
    assert!(LARGE_ROWS * table.arity() >= PARALLEL_MIN_CELLS);
    let window: Vec<usize> =
        (0..table.arity()).map(|a| distinct_in_first(&table, a, PROBE_CELLS)).collect();
    assert!(window[0] >= SORT_MIN_DISTINCT && window[3] >= SORT_MIN_DISTINCT, "{window:?}");
    assert!(window[1] < SORT_MIN_DISTINCT && window[2] < SORT_MIN_DISTINCT, "{window:?}");

    let index = table.columnar();
    assert_eq!(index.arity(), table.arity());
    assert_eq!(index.row_count(), LARGE_ROWS);
    for attr in 0..table.arity() {
        let column: Vec<&Value> = table.rows().iter().map(|rec| rec.get(attr).unwrap()).collect();
        let mut oracle: Vec<Value> = column.iter().map(|&v| v.clone()).collect();
        oracle.sort();
        oracle.dedup();
        let dictionary = index.column(attr);
        assert_eq!(dictionary.values(), &oracle[..], "dictionary of column {attr}");
        assert_eq!(dictionary.ids().len(), LARGE_ROWS);
        for (row, (&id, &cell)) in dictionary.ids().iter().zip(&column).enumerate() {
            assert_eq!(dictionary.value_of(id), cell, "column {attr}, row {row}");
        }
    }
}

#[test]
fn large_partitions_match_generic_on_singles_and_pairs() {
    let table = large_table();
    let arity = table.arity();
    let singles = (0..arity).map(AttrSet::single);
    let pairs = (0..arity).flat_map(|a| (a + 1..arity).map(move |b| AttrSet::from_indices([a, b])));
    for attrs in singles.chain(pairs) {
        let generic = Partition::compute_generic(&table, attrs);
        let interned = Partition::compute(&table, attrs);
        assert_eq!(interned.classes(), generic.classes(), "partition of {attrs:?}");
        assert_eq!(interned.row_count(), generic.row_count());
        assert_eq!(StrippedPartition::for_attrs(&table, attrs), generic.stripped(), "{attrs:?}");
    }
}
