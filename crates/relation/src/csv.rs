//! Minimal CSV import/export.
//!
//! The outsourcing workflow of the paper ships a table from the data owner to the
//! server; in this reproduction the interchange format is CSV. The implementation is
//! self-contained (no external crate): RFC-4180-style quoting, header row, and a typed
//! parse driven by the destination schema.

use crate::{DataType, Record, RelationError, Result, Schema, Table, Value};
use std::io::{BufRead, BufReader, Read, Write};

/// Serialize a table to CSV, with a header row of attribute names.
///
/// `Bytes` cells are hex-encoded with a `0x` prefix so encrypted tables survive a
/// round trip.
pub fn write_csv<W: Write>(table: &Table, mut out: W) -> std::io::Result<()> {
    let names = table.schema().names();
    writeln!(out, "{}", names.iter().map(|n| quote(n)).collect::<Vec<_>>().join(","))?;
    let mut line = String::new();
    for (_, rec) in table.iter() {
        line.clear();
        for (i, v) in rec.values().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&quote(&render(v)));
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Serialize a table to a CSV string.
pub fn to_csv_string(table: &Table) -> String {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

/// Parse a CSV document (with header) into a table, interpreting cells according to
/// the provided schema's data types.
pub fn read_csv<R: Read>(schema: &Schema, input: R) -> Result<Table> {
    let mut reader = BufReader::new(input);
    let mut raw = String::new();
    let mut next_record = |raw: &mut String| {
        read_record(&mut reader, raw).map_err(|e| RelationError::Csv(e.to_string()))
    };
    if next_record(&mut raw)? == 0 {
        return Err(RelationError::Csv("empty input".into()));
    }
    let header_fields = split_line(&raw)?;
    if header_fields.len() != schema.arity() {
        return Err(RelationError::Csv(format!(
            "header has {} fields, schema has {}",
            header_fields.len(),
            schema.arity()
        )));
    }
    let mut table = Table::empty(schema.clone());
    while next_record(&mut raw)? > 0 {
        if raw.is_empty() && schema.arity() != 1 {
            // A blank line cannot be a row of a multi-column table; for single-column
            // tables it legitimately encodes a NULL cell.
            continue;
        }
        let fields = split_line(&raw)?;
        if fields.len() != schema.arity() {
            return Err(RelationError::Csv(format!(
                "row has {} fields, expected {}",
                fields.len(),
                schema.arity()
            )));
        }
        let mut values = Vec::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            values.push(parse_value(f, schema.attribute(i)?)?);
        }
        table.push_row(Record::new(values))?;
    }
    Ok(table)
}

/// Parse a CSV string into a table.
pub fn from_csv_string(schema: &Schema, csv: &str) -> Result<Table> {
    read_csv(schema, csv.as_bytes())
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Int(i) => i.to_string(),
        Value::Decimal { .. } => v.to_string(),
        Value::Text(s) => s.clone(),
        Value::Date(d) => format!("@{d}"),
        Value::Bytes(b) => {
            let mut s = String::with_capacity(2 + b.len() * 2);
            s.push_str("0x");
            for byte in b.iter() {
                s.push_str(&format!("{byte:02x}"));
            }
            s
        }
    }
}

/// Parse one CSV field according to an attribute's declared [`DataType`] — the typed
/// parse shared by [`read_csv`] and the streaming `f2_io::CsvSource`. An empty field
/// is NULL for every type; a non-empty field that does not fit the type errors.
pub fn parse_typed_field(field: &str, attr: &crate::Attribute) -> Result<Value> {
    parse_value(field, attr)
}

fn parse_value(field: &str, attr: &crate::Attribute) -> Result<Value> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    let type_err =
        || RelationError::TypeError { attribute: attr.name.clone(), value: field.to_owned() };
    match attr.data_type {
        DataType::Int => field.parse::<i64>().map(Value::Int).map_err(|_| type_err()),
        DataType::Decimal => {
            let (whole, frac) = field.split_once('.').unwrap_or((field, ""));
            let scale = u8::try_from(frac.len()).map_err(|_| type_err())?;
            let digits: i64 = format!("{whole}{frac}").parse().map_err(|_| type_err())?;
            Ok(Value::Decimal { digits, scale })
        }
        DataType::Date => field
            .strip_prefix('@')
            .and_then(|d| d.parse::<i32>().ok())
            .map(Value::Date)
            .ok_or_else(type_err),
        DataType::Bytes => {
            let hex = field.strip_prefix("0x").ok_or_else(type_err)?;
            if hex.len() % 2 != 0 {
                return Err(type_err());
            }
            let mut bytes = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                let b = u8::from_str_radix(&hex[i..i + 2], 16).map_err(|_| type_err())?;
                bytes.push(b);
            }
            Ok(Value::bytes(bytes))
        }
        DataType::Text | DataType::Any => Ok(Value::text(field)),
    }
}

fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Read one CSV/TSV record's raw text into `raw` (cleared first) and return how
/// many physical lines it spans — 0 at end of input. The record reader shared by
/// [`read_csv`] and the streaming `f2_io::CsvSource`.
///
/// A quoted field may hold line breaks: while the record's quote count is odd, the
/// next physical line is appended, and every line terminator inside the quoted
/// field is kept verbatim. Only the record's own terminator (`\n` or `\r\n`) is
/// trimmed. A quoted field still open at end of input is returned as read, for
/// [`split_record`] to reject. Each physical line costs one `read_line` and one
/// scan of its bytes for quotes.
pub fn read_record<R: BufRead>(reader: &mut R, raw: &mut String) -> std::io::Result<usize> {
    raw.clear();
    let mut lines = 0;
    let mut in_quotes = false;
    loop {
        let from = raw.len();
        if reader.read_line(raw)? == 0 {
            break;
        }
        lines += 1;
        let line = raw.as_bytes().get(from..).unwrap_or_default();
        in_quotes ^= line.iter().filter(|&&b| b == b'"').count() % 2 == 1;
        if !in_quotes {
            break;
        }
    }
    if raw.ends_with('\n') {
        raw.pop();
        if raw.ends_with('\r') {
            raw.pop();
        }
    }
    Ok(lines)
}

/// Split one logical CSV/TSV record into unescaped fields: RFC-4180 quoting with a
/// configurable single-byte delimiter. Shared by [`read_csv`] and the streaming
/// `f2_io::CsvSource`. Strict on malformed quoting: a quote may only *open* at the
/// start of a field — silently entering quote mode mid-field would swallow the rest
/// of the record (and, for multi-line parsers, following rows) into one cell — and
/// an unterminated quote errors.
pub fn split_record(raw: &str, delimiter: u8) -> Result<Vec<String>> {
    let delimiter = delimiter as char;
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = raw.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    cur.push('"');
                    chars.next();
                }
                '"' => in_quotes = false,
                _ => cur.push(c),
            }
        } else if c == '"' {
            if !cur.is_empty() {
                return Err(RelationError::Csv(format!(
                    "quote in unquoted field after `{cur}` (quote the whole field, or escape \
                     the quote by doubling it inside a quoted field)"
                )));
            }
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut cur));
        } else {
            cur.push(c);
        }
    }
    if in_quotes {
        return Err(RelationError::Csv("unterminated quoted field".into()));
    }
    fields.push(cur);
    Ok(fields)
}

fn split_line(line: &str) -> Result<Vec<String>> {
    split_record(line, b',')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, Attribute};

    #[test]
    fn roundtrip_text_table() {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        let t = Table::new(
            schema.clone(),
            vec![record!["hello", "world"], record!["with,comma", "with\"quote"]],
        )
        .unwrap();
        let csv = to_csv_string(&t);
        let back = from_csv_string(&schema, &csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_typed_table() {
        let schema = Schema::new(vec![
            Attribute::new("id", DataType::Int),
            Attribute::new("price", DataType::Decimal),
            Attribute::new("day", DataType::Date),
            Attribute::new("blob", DataType::Bytes),
        ])
        .unwrap();
        let t = Table::new(
            schema.clone(),
            vec![Record::new(vec![
                Value::Int(42),
                Value::money(1999),
                Value::Date(10),
                Value::bytes(vec![0xde, 0xad]),
            ])],
        )
        .unwrap();
        let csv = to_csv_string(&t);
        assert!(csv.contains("0xdead"));
        let back = from_csv_string(&schema, &csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn null_roundtrip() {
        let schema = Schema::from_names(["A"]).unwrap();
        let t = Table::new(schema.clone(), vec![Record::new(vec![Value::Null])]).unwrap();
        let back = from_csv_string(&schema, &to_csv_string(&t)).unwrap();
        assert!(back.cell(0, 0).unwrap().is_null());
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        assert!(from_csv_string(&schema, "A\nx\n").is_err());
        assert!(from_csv_string(&schema, "").is_err());
        assert!(from_csv_string(&schema, "A,B\nonlyone\n").is_err());
    }

    #[test]
    fn bad_typed_values_are_rejected() {
        let schema = Schema::new(vec![Attribute::new("id", DataType::Int)]).unwrap();
        assert!(from_csv_string(&schema, "id\nnot_a_number\n").is_err());
        let schema = Schema::new(vec![Attribute::new("b", DataType::Bytes)]).unwrap();
        assert!(from_csv_string(&schema, "b\nzz\n").is_err());
        assert!(from_csv_string(&schema, "b\n0xzz\n").is_err());
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        let schema = Schema::from_names(["A"]).unwrap();
        assert!(from_csv_string(&schema, "A\n\"oops\n").is_err());
    }

    #[test]
    fn line_breaks_and_carriage_returns_in_cells_roundtrip() {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        let t = Table::new(
            schema.clone(),
            vec![record!["a\r\nb", "c\r"], record!["d\ne", "\r"], record!["plain", "f"]],
        )
        .unwrap();
        let csv = to_csv_string(&t);
        assert!(csv.contains("\"c\r\""), "a trailing carriage return is quoted: {csv:?}");
        assert_eq!(from_csv_string(&schema, &csv).unwrap(), t);
        // CRLF record terminators are trimmed; CRLF inside a quoted field is kept.
        let crlf = "A,B\r\n\"x\r\ny\",z\r\n";
        let back = from_csv_string(&schema, crlf).unwrap();
        assert_eq!(back.rows(), &[record!["x\r\ny", "z"]]);
    }

    #[test]
    fn decimal_fractions_longer_than_a_u8_scale_are_rejected() {
        let schema = Schema::new(vec![Attribute::new("d", DataType::Decimal)]).unwrap();
        let widest = format!("d\n0.{}1\n", "0".repeat(254));
        let t = from_csv_string(&schema, &widest).unwrap();
        assert_eq!(t.cell(0, 0).unwrap(), &Value::Decimal { digits: 1, scale: u8::MAX });
        let too_wide = format!("d\n0.{}1\n", "0".repeat(255));
        assert!(matches!(
            from_csv_string(&schema, &too_wide),
            Err(RelationError::TypeError { .. })
        ));
    }

    #[test]
    fn quoted_fields_with_embedded_separators() {
        let fields = split_line("a,\"b,c\",\"d\"\"e\"").unwrap();
        assert_eq!(fields, vec!["a", "b,c", "d\"e"]);
    }
}
