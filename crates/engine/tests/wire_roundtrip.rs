//! Property tests for the `F2WS` wire format: randomly generated tables and owner
//! states round-trip exactly, corrupt or truncated blobs always decode to an
//! error — never a panic and never a silently wrong value — and the selective
//! table decoder builds exactly the selected rows of what the full decoder builds,
//! refusing every blob the full decoder refuses. A blob held as a view of a larger
//! payload decodes exactly like a copy of it, its byte-string cells viewing the
//! payload.

use f2_core::{Scheme, SchemeOutcome, F2};
use f2_engine::persist::{
    decode_state, decode_table, decode_table_rows, encode_state, encode_table,
};
use f2_relation::{Bytes, Record, Schema, Table, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build a value from two sampled integers (variant selector + payload).
fn value_from(variant: u8, payload: i64) -> Value {
    match variant % 6 {
        0 => Value::Null,
        1 => Value::Int(payload),
        2 => Value::Decimal { digits: payload, scale: (payload % 7).unsigned_abs() as u8 },
        3 => Value::Text(format!("v{payload}")),
        4 => Value::Date(payload as i32),
        _ => Value::bytes(payload.to_le_bytes().to_vec()),
    }
}

/// Assemble a table from sampled dimensions and a flat pool of sampled cells.
fn table_from(arity: usize, cells: Vec<(u8, i64)>) -> Table {
    let schema = Schema::from_names((0..arity).map(|a| format!("a{a}"))).expect("small schema");
    let records = cells
        .chunks_exact(arity)
        .map(|row| Record::new(row.iter().map(|&(v, p)| value_from(v, p)).collect()))
        .collect();
    Table::new(schema, records).expect("consistent arity")
}

/// The rows of a `rows`-row table a sampled mask selects: row `i` when bit `i % 64`
/// is set.
fn selection(rows: usize, mask: u64) -> Vec<usize> {
    (0..rows).filter(|row| mask >> (row % 64) & 1 == 1).collect()
}

/// `table`'s `rows`, in order, as a table of their own.
fn only_rows(table: &Table, rows: &[usize]) -> Table {
    let records = rows.iter().map(|&row| table.row(row).expect("row in range").clone()).collect();
    Table::new(table.schema().clone(), records).expect("same schema")
}

/// The selections every damaged blob is decoded under: none, a sampled one, all.
fn selections(rows: usize, mask: u64) -> [Vec<usize>; 3] {
    [Vec::new(), selection(rows, mask), (0..rows).collect()]
}

/// [`decode_table_rows`] of a blob held in a buffer of its own.
fn decode_rows(blob: &[u8], selected: Option<&[usize]>) -> f2_core::Result<(Table, usize)> {
    decode_table_rows(&Bytes::copy_from_slice(blob), selected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn selective_decode_builds_exactly_the_selected_rows(
        arity in 1usize..6,
        cells in vec((0u8..=255, 0u64..=u64::MAX), 0..60),
        mask in 0u64..=u64::MAX,
    ) {
        let cells: Vec<(u8, i64)> = cells.into_iter().map(|(v, p)| (v, p as i64)).collect();
        let table = table_from(arity, cells);
        let blob = encode_table(&table);
        for rows in selections(table.row_count(), mask) {
            let (selected, count) = decode_rows(&blob, Some(&rows)).expect("own encoding");
            prop_assert_eq!(count, table.row_count());
            prop_assert_eq!(selected, only_rows(&table, &rows));
        }
        let (all, count) = decode_rows(&blob, None).expect("own encoding");
        prop_assert_eq!((all, count), (table.clone(), table.row_count()));
        // A selection the table cannot satisfy is refused, not truncated.
        let past_the_end = [table.row_count()];
        prop_assert!(decode_rows(&blob, Some(&past_the_end)).is_err());
        if table.row_count() >= 2 {
            prop_assert!(decode_rows(&blob, Some(&[1, 0])).is_err());
            prop_assert!(decode_rows(&blob, Some(&[1, 1])).is_err());
        }
    }

    #[test]
    fn damaged_tables_are_refused_under_every_selection(
        arity in 1usize..5,
        cells in vec((0u8..=255, 0u64..=u64::MAX), 4..40),
        cut_per_mille in 0u64..1000,
        flip_pos in 0u64..u64::MAX,
        flip_mask in 1u8..=255,
        mask in 0u64..=u64::MAX,
    ) {
        let cells: Vec<(u8, i64)> = cells.into_iter().map(|(v, p)| (v, p as i64)).collect();
        let table = table_from(arity, cells);
        let blob = encode_table(&table);
        let cut = (blob.len() as u64 * cut_per_mille / 1000) as usize;
        prop_assert!(decode_table(&blob[..cut]).is_err());
        for rows in selections(table.row_count(), mask) {
            prop_assert!(decode_rows(&blob[..cut], Some(&rows)).is_err());
        }

        let mut corrupt = blob.clone();
        let pos = (flip_pos % blob.len() as u64) as usize;
        corrupt[pos] ^= flip_mask;
        match decode_table(&corrupt) {
            Err(_) => {
                for rows in selections(table.row_count(), mask) {
                    prop_assert!(decode_rows(&corrupt, Some(&rows)).is_err());
                }
            }
            // A flip the full decoder accepts (inside a byte string, say): every
            // selection of its rows builds exactly those rows.
            Ok(decoded) => {
                for rows in selections(decoded.row_count(), mask) {
                    let (selected, count) =
                        decode_rows(&corrupt, Some(&rows)).expect("full decode accepted it");
                    prop_assert_eq!(count, decoded.row_count());
                    prop_assert_eq!(selected, only_rows(&decoded, &rows));
                }
            }
        }
    }

    #[test]
    fn a_blob_viewed_in_its_payload_decodes_like_a_copy_of_it(
        arity in 1usize..5,
        cells in vec((0u8..=255, 0u64..=u64::MAX), 0..40),
        head in vec(0u8..=255, 0..12),
        tail in vec(0u8..=255, 0..12),
        cut_per_mille in 0u64..1500,
        flip_pos in 0u64..u64::MAX,
        flip_mask in 0u8..=255,
        mask in 0u64..=u64::MAX,
    ) {
        let cells: Vec<(u8, i64)> = cells.into_iter().map(|(v, p)| (v, p as i64)).collect();
        let table = table_from(arity, cells);
        // Intact (a cut past the end), cut short, or with a byte flipped.
        let mut blob = encode_table(&table);
        blob.truncate((blob.len() as u64 * cut_per_mille / 1000) as usize);
        if let Some(len) = std::num::NonZeroU64::new(blob.len() as u64) {
            blob[(flip_pos % len) as usize] ^= flip_mask;
        }
        let payload = Bytes::from([&head[..], &blob, &tail].concat());
        let view = payload.slice(head.len()..head.len() + blob.len());
        let copy = Bytes::copy_from_slice(&blob);
        let heap = payload.as_ptr_range();
        let rows = decode_table(&blob).map_or(table.row_count(), |t| t.row_count());
        let [none, sampled, all] = selections(rows, mask);
        for selected in [None, Some(&none[..]), Some(&sampled[..]), Some(&all[..])] {
            let from_view = decode_table_rows(&view, selected).map_err(|e| e.to_string());
            let from_copy = decode_table_rows(&copy, selected).map_err(|e| e.to_string());
            if let Ok((decoded, _)) = &from_view {
                for (_, record) in decoded.iter() {
                    for cell in record.values().iter().filter_map(Value::as_bytes) {
                        let inside = heap.start <= cell.as_ptr()
                            && cell.as_ptr_range().end <= heap.end;
                        prop_assert!(inside, "a byte-string cell is a view of the payload");
                    }
                }
            }
            prop_assert_eq!(from_view, from_copy);
        }
    }

    #[test]
    fn tables_roundtrip_exactly(
        arity in 1usize..6,
        cells in vec((0u8..=255, 0u64..=u64::MAX), 0..60),
    ) {
        let cells: Vec<(u8, i64)> = cells.into_iter().map(|(v, p)| (v, p as i64)).collect();
        let table = table_from(arity, cells);
        let blob = encode_table(&table);
        prop_assert_eq!(decode_table(&blob).expect("own encoding decodes"), table);
    }

    #[test]
    fn truncated_tables_error_not_panic(
        arity in 1usize..5,
        cells in vec((0u8..=255, 0u64..=u64::MAX), 4..40),
        cut_per_mille in 0u64..1000,
    ) {
        let cells: Vec<(u8, i64)> = cells.into_iter().map(|(v, p)| (v, p as i64)).collect();
        let blob = encode_table(&table_from(arity, cells));
        // Cut anywhere strictly inside the blob: decoding must error (the format has
        // no optional trailer, so every byte is load-bearing).
        let cut = (blob.len() as u64 * cut_per_mille / 1000) as usize;
        prop_assert!(decode_table(&blob[..cut]).is_err());
    }

    #[test]
    fn corrupted_tables_never_panic(
        arity in 1usize..5,
        cells in vec((0u8..=255, 0u64..=u64::MAX), 4..40),
        flip_pos in 0u64..u64::MAX,
        flip_mask in 1u8..=255,
    ) {
        let cells: Vec<(u8, i64)> = cells.into_iter().map(|(v, p)| (v, p as i64)).collect();
        let table = table_from(arity, cells);
        let mut blob = encode_table(&table);
        let pos = (flip_pos % blob.len() as u64) as usize;
        blob[pos] ^= flip_mask;
        // A single byte flip may still decode (e.g. inside text content) — but it must
        // never panic, and a successful decode of a *header/table-structure* flip must
        // not fabricate a different shape silently: whatever comes back is a Table the
        // caller can inspect. The property under test is purely "no panic".
        let _ = decode_table(&blob);
    }

    #[test]
    fn f2_state_blobs_survive_corruption_without_panicking(
        seed in 0u64..1000,
        cut_per_mille in 0u64..1000,
        flip_mask in 1u8..=255,
    ) {
        let table = f2_relation::table! {
            ["Zip", "City"];
            ["07030", "Hoboken"], ["07030", "Hoboken"],
            ["10001", "NewYork"], ["10001", "NewYork"],
            ["08540", "Princeton"], ["08540", "Princeton"],
        };
        let scheme = F2::builder().alpha(0.5).seed(seed).build().expect("valid");
        let outcome = scheme.encrypt(&table).expect("encrypt");
        let blob = encode_state(&outcome.state).expect("save");

        // Exact roundtrip first.
        let restored = SchemeOutcome {
            encrypted: outcome.encrypted.clone(),
            state: decode_state(&blob).expect("load own blob"),
            report: Default::default(),
        };
        prop_assert!(scheme.decrypt(&restored).expect("decrypt").multiset_eq(&table));

        // Truncation errors, never panics.
        let cut = (blob.len() as u64 * cut_per_mille / 1000) as usize;
        prop_assert!(decode_state(&blob[..cut]).is_err());

        // Byte flips never panic (they may decode if the flip hits a benign spot).
        let mut corrupt = blob.clone();
        let pos = (seed % blob.len() as u64) as usize;
        corrupt[pos] ^= flip_mask;
        let _ = decode_state(&corrupt);
    }
}
