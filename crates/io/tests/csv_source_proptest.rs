//! Property tests for the streaming CSV source: whatever `f2_relation::csv` writes,
//! [`CsvSource`] and `read_csv` parse back — chunk by chunk, at any chunk size,
//! through quoting, escapes, embedded line breaks, and every typed column — and
//! hostile inputs error instead of panicking.

use f2_io::{CsvOptions, CsvSource, RowSource};
use f2_relation::csv::{from_csv_string, to_csv_string};
use f2_relation::{Attribute, DataType, Record, Schema, Table, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// Character set exercising the quoting rules: delimiters, quotes, line breaks,
/// carriage returns, tabs, unicode.
const CHARSET: &[char] =
    &['a', 'Z', '0', '9', ' ', ',', '"', '\n', '\r', '\'', 'é', '|', '\t', '_', '-'];

/// Non-empty text payloads over [`CHARSET`] (an empty field reads back as NULL).
fn text_value() -> impl Strategy<Value = String> {
    vec(0usize..CHARSET.len(), 1..12)
        .prop_map(|indices| indices.into_iter().map(|i| CHARSET[i]).collect())
}

/// One typed cell per column type, from a sampled integer (and, for decimals, a
/// sampled scale).
fn cell_for(dt: DataType, payload: i64, scale: u8, nullable: bool) -> Value {
    if nullable && payload % 7 == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::Int(payload),
        DataType::Decimal => Value::Decimal { digits: payload, scale },
        DataType::Date => Value::Date(payload as i32),
        DataType::Bytes => Value::bytes(payload.to_le_bytes().to_vec()),
        DataType::Text | DataType::Any => Value::text(format!("t{payload}")),
    }
}

fn drain_concat(source: &mut dyn RowSource, max_rows: usize) -> Table {
    let mut all = Table::empty(source.schema().clone());
    while let Some(chunk) = source.next_chunk(max_rows).expect("valid chunk") {
        assert!(chunk.row_count() >= 1 && chunk.row_count() <= max_rows);
        all.append(chunk.to_table()).expect("schemas agree");
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_tables_roundtrip_through_any_chunk_size(
        arity in 1usize..5,
        cells in vec(text_value(), 1..60),
        chunk_rows in 1usize..9,
    ) {
        let schema = Schema::from_names((0..arity).map(|a| format!("c{a}"))).expect("schema");
        let records: Vec<Record> = cells
            .chunks_exact(arity)
            .map(|row| Record::new(row.iter().map(Value::text).collect()))
            .collect();
        let table = Table::new(schema.clone(), records).expect("consistent arity");
        let csv = to_csv_string(&table);
        prop_assert_eq!(&from_csv_string(&schema, &csv).expect("own output parses"), &table);
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv().with_schema(schema))
            .expect("own output parses");
        let parsed = drain_concat(&mut source, chunk_rows);
        prop_assert_eq!(parsed, table);
    }

    #[test]
    fn typed_tables_roundtrip_with_explicit_schemas(
        payloads in vec((0u64..=u64::MAX, 0u8..=u8::MAX, 0u8..2), 1..40),
        chunk_rows in 1usize..9,
    ) {
        let types =
            [DataType::Int, DataType::Decimal, DataType::Date, DataType::Bytes, DataType::Text];
        let schema = Schema::new(
            types.iter().enumerate().map(|(i, &dt)| Attribute::new(format!("c{i}"), dt)).collect(),
        )
        .expect("schema");
        let records: Vec<Record> = payloads
            .iter()
            .map(|&(payload, scale, nullable)| {
                let payload = payload as i64;
                Record::new(
                    types.iter().map(|&dt| cell_for(dt, payload, scale, nullable == 1)).collect(),
                )
            })
            .collect();
        let table = Table::new(schema.clone(), records).expect("consistent arity");
        let csv = to_csv_string(&table);
        prop_assert_eq!(&from_csv_string(&schema, &csv).expect("own output parses"), &table);
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv().with_schema(schema))
            .expect("own output parses");
        prop_assert_eq!(drain_concat(&mut source, chunk_rows), table);
    }

    #[test]
    fn inference_recovers_uniformly_typed_columns(
        payloads in vec(0u64..=u64::from(u32::MAX), 1..40),
        chunk_rows in 1usize..9,
    ) {
        // One column per inferable type, every field canonical for its type.
        let mut csv = String::from("i,d,t,dt,b");
        for &p in &payloads {
            let p = p as u32 as i64;
            csv.push_str(&format!("\n{p},{p}.5,x{p},@{},0x{:02x}", p as i32, (p & 0xff) as u8));
        }
        csv.push('\n');
        let mut source =
            CsvSource::new(csv.as_bytes(), CsvOptions::csv()).expect("inference succeeds");
        let inferred: Vec<DataType> =
            source.schema().attributes().iter().map(|a| a.data_type).collect();
        prop_assert_eq!(
            inferred,
            vec![DataType::Int, DataType::Decimal, DataType::Text, DataType::Date, DataType::Bytes]
        );
        let parsed = drain_concat(&mut source, chunk_rows);
        prop_assert_eq!(parsed.row_count(), payloads.len());
        prop_assert_eq!(parsed.cell(0, 0).unwrap(), &Value::Int(payloads[0] as u32 as i64));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_csv_source(
        bytes in vec(0u8..=255, 0..400),
        chunk_rows in 1usize..5,
    ) {
        // Invalid UTF-8, stray quotes, ragged rows: construction and pulling may
        // error (and a caller may keep pulling after an error) but never panic.
        if let Ok(mut source) = CsvSource::new(bytes.as_slice(), CsvOptions::csv()) {
            let mut errors = 0;
            for _ in 0..64 {
                match source.next_chunk(chunk_rows) {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        errors += 1;
                        if errors > 8 { break; }
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_documents_error_not_panic(
        cells in vec(text_value(), 4..40),
        cut_per_mille in 0u64..1000,
    ) {
        let schema = Schema::from_names(["a", "b"]).expect("schema");
        let records: Vec<Record> = cells
            .chunks_exact(2)
            .map(|row| Record::new(row.iter().map(Value::text).collect()))
            .collect();
        let table = Table::new(schema.clone(), records).expect("consistent arity");
        let csv = to_csv_string(&table);
        let cut = (csv.len() as u64 * cut_per_mille / 1000) as usize;
        // Cut at a UTF-8 boundary at or below the target.
        let cut = (0..=cut).rev().find(|&i| csv.is_char_boundary(i)).unwrap_or(0);
        // A truncated document either parses to a prefix of the rows or errors —
        // it must never panic and never invent cells.
        if let Ok(parsed) = from_csv_string(&schema, &csv[..cut]) {
            prop_assert!(parsed.row_count() <= table.row_count());
        }
        match CsvSource::new(&csv.as_bytes()[..cut], CsvOptions::csv().with_schema(schema)) {
            Err(_) => {}
            Ok(mut source) => loop {
                match source.next_chunk(8) {
                    Ok(Some(chunk)) => {
                        for (_, rec) in chunk.to_table().iter() {
                            prop_assert_eq!(rec.arity(), 2);
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break,
                }
            },
        }
    }
}
