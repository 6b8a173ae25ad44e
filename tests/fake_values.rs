//! The bytes F² writes for its artificial values, pinned where the table itself
//! holds values in the reserved fake-value space.
//!
//! Fake equivalence classes, conflict fills and false-positive pairs all draw
//! fresh values `"\u{1}f2:{counter:08x}"` from one generator, which must skip
//! every counter whose text the table already holds. The table below holds the
//! texts of counters 0 and 4, so the first fake class starts at counter 1 and
//! the second one takes counters 3 and 5. It also holds `"\u{1}f2:5"`, which
//! carries the prefix but is no counter's text, so nothing skips it. Any change
//! to which counter a fake class, a fill or a pair receives, or to the order they
//! are drawn in, changes these digests.

use f2::engine::persist::encode_state;
use f2::{Record, Scheme, Table, Value, F2};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over every cell of `table`, row-major, each encoding length-prefixed.
fn table_digest(table: &Table) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(table.row_count() as u64).to_le_bytes());
    for (_, record) in table.iter() {
        for value in record.values() {
            let encoded = value.encode();
            h = fnv1a(h, &(encoded.len() as u64).to_le_bytes());
            h = fnv1a(h, &encoded);
        }
    }
    h
}

/// 60 rows over three attributes whose first two columns carry the texts of
/// fresh-value counters 0 and 4 among ordinary values.
fn table_with_reserved_texts() -> Table {
    let a = ["\u{1}f2:00000000", "north", "south", "east", "west"];
    let b = ["red", "\u{1}f2:00000004", "green", "\u{1}f2:5"];
    let records = (0..60usize)
        .map(|i| {
            Record::new(vec![
                Value::text(a[i % a.len()]),
                Value::text(b[i * i % b.len()]),
                Value::Int((i % 7) as i64),
            ])
        })
        .collect();
    Table::new(f2::Schema::from_names(["A", "B", "C"]).unwrap(), records).unwrap()
}

#[test]
fn fake_values_skip_reserved_texts_with_pinned_bytes() {
    let plain = table_with_reserved_texts();
    let f2 = F2::builder().alpha(0.25).split_factor(2).seed(5).build().unwrap();
    let outcome = f2.encrypt(&plain).unwrap();
    let overhead = &outcome.report.overhead;
    // Fake classes, conflict fills and false-positive pairs all draw values here.
    assert!(
        overhead.group_rows > 0 && overhead.syn_rows > 0 && overhead.fp_rows > 0,
        "{overhead:?}"
    );
    let state = encode_state(&outcome.state).unwrap();
    assert_eq!(
        (outcome.encrypted.row_count(), table_digest(&outcome.encrypted)),
        (386, 0x8b0a_2121_78d1_18e3),
        "encrypted table drifted"
    );
    assert_eq!(
        (state.len(), fnv1a(FNV_OFFSET, &state)),
        (4745, 0x4b7e_f716_9418_6d5b),
        "owner state drifted"
    );
    assert!(f2.decrypt(&outcome).unwrap().multiset_eq(&plain));
}
