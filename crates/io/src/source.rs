//! Constant-memory row sources: where plaintext chunks come from.
//!
//! lint: untrusted-input — CSV and table inputs arrive from outside the trust
//! boundary; the panic-freedom rules are enforced by `f2-lint`.
//!
//! The streaming engine pulls its input through the [`RowSource`] trait: a schema
//! plus a `next_chunk(max_rows)` pump. A source never needs to hold more than one
//! chunk of parsed rows, so encrypting a dataset much larger than RAM is bounded by
//! the chunk size, not the dataset size. Two sources ship here:
//!
//! * [`CsvSource`] — a **streaming CSV/TSV parser**: RFC-4180 quoting (including
//!   quoted delimiters, escaped `""` quotes, and line breaks *inside* quoted
//!   fields, through the record reader it shares with `f2_relation::csv`), a header
//!   row, and either an explicit [`Schema`] or per-column **type inference** from a
//!   bounded sample of leading rows ([`INFERENCE_SAMPLE_ROWS`]). Rows are parsed as
//!   they are pulled; the only buffering beyond one chunk is the inference sample.
//! * [`TableSource`] — adapts an in-memory [`Table`]: chunks are borrowed
//!   [`TableView`]s, so pumping a table through the streaming path clones nothing.
//!
//! Every chunk is a borrowed [`TableView`]: [`TableSource`] lends a range of the
//! table it wraps, and [`CsvSource`] lends a whole-table view of the chunk it just
//! parsed, which it drops at the start of the next pull — so a source never holds
//! two chunks of plaintext, and consumers handle one chunk type.
//!
//! A failed pull never loses rows: the rows a [`CsvSource`] pull parsed before
//! its error go back to the source. A malformed record costs only itself, and
//! the next pull goes on after it. A failed read is different: the reader has
//! consumed part of a record, so the source fails for good and the stream is
//! finished by resume from a reopened source. [`CsvSource::with_retry`] absorbs
//! transient read errors *below* the parser (a [`RetryingReader`] under the
//! [`BufRead`] buffer), where a failed read has consumed nothing.

use crate::error::{IoError, IoResult};
use crate::retry::{RetryPolicy, RetryingReader};
use f2_relation::csv::{parse_typed_field, read_record, split_record};
use f2_relation::{Attribute, DataType, Record, Schema, Table, TableView};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Rows buffered (at most) to infer column types when no explicit schema is given.
pub const INFERENCE_SAMPLE_ROWS: usize = 256;

/// A pull-based producer of plaintext row chunks with a fixed schema.
///
/// Contract: chunks are consecutive, non-overlapping row ranges of the underlying
/// dataset, each holding at least one and at most `max_rows` rows; after the first
/// `None` the source is exhausted and keeps returning `None`. A pull that fails
/// may have consumed input, so it is not retried: the engine fails the stream
/// job, and resume finishes the stream from a reopened source.
pub trait RowSource {
    /// The schema every produced chunk conforms to.
    fn schema(&self) -> &Schema;

    /// Produce the next chunk of at most `max_rows` rows (`max_rows ≥ 1`), or `None`
    /// when the source is exhausted. The chunk borrows the source until the next
    /// pull.
    fn next_chunk(&mut self, max_rows: usize) -> IoResult<Option<TableView<'_>>>;
}

/// Validate the shared `max_rows ≥ 1` precondition of [`RowSource::next_chunk`].
fn check_max_rows(max_rows: usize) -> IoResult<()> {
    if max_rows == 0 {
        return Err(IoError::Malformed("a chunk must hold at least one row".into()));
    }
    Ok(())
}

// ── TableSource ────────────────────────────────────────────────────────────────────

/// A [`RowSource`] over an in-memory [`Table`]: chunks are borrowed row-range views,
/// so nothing is cloned.
#[derive(Debug)]
pub struct TableSource<'a> {
    table: &'a Table,
    cursor: usize,
}

impl<'a> TableSource<'a> {
    /// Wrap a table.
    pub fn new(table: &'a Table) -> Self {
        TableSource { table, cursor: 0 }
    }

    /// Position the source so the next produced row is data row `row` (0-based);
    /// seeking past the end of the table is an error. A push-model client uses it
    /// to re-send a resumed job from the rows the job already holds.
    pub fn seek_to_row(&mut self, row: usize) -> IoResult<()> {
        if row > self.table.row_count() {
            return Err(IoError::Malformed(format!(
                "seek to row {row} is past the table's {} rows",
                self.table.row_count()
            )));
        }
        self.cursor = row;
        Ok(())
    }
}

impl RowSource for TableSource<'_> {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next_chunk(&mut self, max_rows: usize) -> IoResult<Option<TableView<'_>>> {
        check_max_rows(max_rows)?;
        if self.cursor >= self.table.row_count() {
            return Ok(None);
        }
        let end = (self.cursor + max_rows).min(self.table.row_count());
        let view = self
            .table
            .view(self.cursor..end)
            .map_err(|e| IoError::Malformed(format!("table chunk range out of bounds: {e}")))?;
        self.cursor = end;
        Ok(Some(view))
    }
}

// ── CsvSource ──────────────────────────────────────────────────────────────────────

/// Configuration of a [`CsvSource`].
#[derive(Debug, Clone, Default)]
pub struct CsvOptions {
    delimiter: u8,
    schema: Option<Schema>,
}

impl CsvOptions {
    /// Comma-separated values with type inference.
    pub fn csv() -> Self {
        CsvOptions { delimiter: b',', schema: None }
    }

    /// Tab-separated values with type inference.
    pub fn tsv() -> Self {
        CsvOptions { delimiter: b'\t', schema: None }
    }

    /// Use an explicit schema instead of inference: the header must have the same
    /// arity, and every field must parse under its attribute's [`DataType`].
    pub fn with_schema(mut self, schema: Schema) -> Self {
        self.schema = Some(schema);
        self
    }

    /// Use a custom single-byte delimiter.
    pub fn with_delimiter(mut self, delimiter: u8) -> Self {
        self.delimiter = delimiter;
        self
    }
}

/// A streaming CSV/TSV [`RowSource`]. See the [module docs](self) for the parsing
/// and inference rules; construction consumes the header (and, in inference mode, a
/// bounded row sample), after which [`RowSource::next_chunk`] parses rows on demand.
#[derive(Debug)]
pub struct CsvSource<R: BufRead> {
    reader: R,
    delimiter: u8,
    schema: Schema,
    /// Rows consumed during schema inference or handed back by a failed pull,
    /// served before fresh parsing resumes.
    buffered: VecDeque<Record>,
    /// Whether the schema's types were inferred from a sample (vs declared by the
    /// caller) — decides how a type mismatch on a later row is explained.
    inferred_types: bool,
    /// The chunk the last pull parsed, lent out as a view until the next pull.
    chunk: Option<Table>,
    /// 1-based line of the most recently *started* record (header = line 1).
    line: u64,
    exhausted: bool,
    /// Line of the record a failed read stopped inside: no later pull can tell
    /// where the next record starts.
    failed_at: Option<u64>,
}

impl CsvSource<BufReader<std::fs::File>> {
    /// Open a file as a CSV/TSV source.
    pub fn open(path: impl AsRef<Path>, options: CsvOptions) -> IoResult<Self> {
        let file = std::fs::File::open(path)?;
        Self::new(BufReader::new(file), options)
    }
}

impl<R: Read> CsvSource<BufReader<RetryingReader<R>>> {
    /// Wrap an unbuffered reader with a [`RetryingReader`] *under* the
    /// [`BufRead`] buffer, so transient read errors are retried where a failed
    /// `read` has consumed nothing.
    ///
    /// The layering is the point: a record's bytes are accumulated across
    /// `read` calls, so an error surfacing *above* the buffer leaves part of a
    /// record consumed, and the source fails every later pull. With the retry
    /// below the buffer, transient errors are healed before the parser ever
    /// sees a byte; only an error that outlasts the policy fails the source.
    pub fn with_retry(reader: R, options: CsvOptions, policy: RetryPolicy) -> IoResult<Self> {
        Self::new(BufReader::new(policy.reader(reader)), options)
    }
}

impl<R: BufRead> CsvSource<R> {
    /// Wrap any buffered reader (a `&[u8]` works for in-memory documents). Reads the
    /// header immediately; with no explicit schema, additionally buffers up to
    /// [`INFERENCE_SAMPLE_ROWS`] rows and infers each column's [`DataType`] from
    /// them.
    pub fn new(reader: R, options: CsvOptions) -> IoResult<Self> {
        let delimiter = if options.delimiter == 0 { b',' } else { options.delimiter };
        let mut source = CsvSource {
            reader,
            delimiter,
            schema: Schema::new(vec![])
                .map_err(|e| IoError::Malformed(format!("empty schema rejected: {e}")))?,
            buffered: VecDeque::new(),
            line: 0,
            exhausted: false,
            failed_at: None,
            inferred_types: options.schema.is_none(),
            chunk: None,
        };
        let (_, header) = source
            .read_raw_record(false)?
            .ok_or(IoError::Csv { line: 1, message: "empty input (no header row)".into() })?;
        match options.schema {
            Some(schema) => {
                if header.len() != schema.arity() {
                    return Err(IoError::Csv {
                        line: 1,
                        message: format!(
                            "header has {} fields, the explicit schema has {}",
                            header.len(),
                            schema.arity()
                        ),
                    });
                }
                // Names must match position for position: arity alone would let a
                // reordered schema silently apply the wrong type (and, downstream,
                // the wrong per-attribute encryption key) to every column.
                for (i, (got, attr)) in header.iter().zip(schema.attributes()).enumerate() {
                    if got != &attr.name {
                        return Err(IoError::Csv {
                            line: 1,
                            message: format!(
                                "header column {i} is `{got}` but the explicit schema expects \
                                 `{}` there — the schema must list the file's columns in file \
                                 order",
                                attr.name
                            ),
                        });
                    }
                }
                source.schema = schema;
            }
            None => source.infer_schema(header)?,
        }
        Ok(source)
    }

    /// Buffer up to [`INFERENCE_SAMPLE_ROWS`] rows, pick the narrowest [`DataType`]
    /// consistent with every sampled value per column, and parse the sample under
    /// the inferred schema.
    fn infer_schema(&mut self, header: Vec<String>) -> IoResult<()> {
        let arity = header.len();
        let mut sample: Vec<(u64, Vec<String>)> = Vec::new();
        while sample.len() < INFERENCE_SAMPLE_ROWS {
            // Blank-line skipping needs the final arity; it is already known here.
            let Some((line, fields)) = self.read_raw_record(arity != 1)? else { break };
            if fields.len() != arity {
                return Err(arity_error(line, fields.len(), arity));
            }
            sample.push((line, fields));
        }
        let attrs = header
            .into_iter()
            .enumerate()
            .map(|(a, name)| {
                let column =
                    sample.iter().map(|(_, fields)| fields.get(a).map_or("", String::as_str));
                Attribute::new(name, infer_type(column))
            })
            .collect();
        self.schema = Schema::new(attrs)
            .map_err(|e| IoError::Csv { line: 1, message: format!("invalid header: {e}") })?;
        for (line, fields) in sample {
            let record = self.parse_record(&fields, line)?;
            self.buffered.push_back(record);
        }
        Ok(())
    }

    /// Read one raw record through [`read_record`]: handles quoted delimiters,
    /// escaped quotes, and line breaks inside quoted fields (a record may span
    /// several physical lines). Returns the 1-based line the record started on
    /// plus its unescaped fields, or `None` at end of input.
    fn read_raw_record(&mut self, skip_blank: bool) -> IoResult<Option<(u64, Vec<String>)>> {
        let mut raw = String::new();
        loop {
            let started_at = self.line + 1;
            let lines = read_record(&mut self.reader, &mut raw)?;
            if lines == 0 {
                return Ok(None);
            }
            self.line += lines as u64;
            if raw.is_empty() && skip_blank {
                // A blank line cannot be a row of a multi-column table.
                continue;
            }
            let fields = split_record(&raw, self.delimiter).map_err(|e| {
                let message = match e {
                    f2_relation::RelationError::Csv(m) => m,
                    other => other.to_string(),
                };
                IoError::Csv { line: started_at, message }
            })?;
            return Ok(Some((started_at, fields)));
        }
    }

    /// Parse one raw record under the source schema.
    fn parse_record(&self, fields: &[String], line: u64) -> IoResult<Record> {
        if fields.len() != self.schema.arity() {
            return Err(arity_error(line, fields.len(), self.schema.arity()));
        }
        let mut values = Vec::with_capacity(fields.len());
        for (field, attr) in fields.iter().zip(self.schema.attributes()) {
            let value = parse_typed_field(field, attr).map_err(|e| {
                let remedy = if self.inferred_types {
                    format!(
                        "{:?} was inferred for column `{}` from the first {} rows and the row \
                         on line {line} contradicts it; pass an explicit schema \
                         (`CsvOptions::with_schema`) to override the inference",
                        attr.data_type, attr.name, INFERENCE_SAMPLE_ROWS
                    )
                } else {
                    format!(
                        "column `{}` is declared {:?} by the explicit schema",
                        attr.name, attr.data_type
                    )
                };
                IoError::Csv { line, message: format!("{e} ({remedy})") }
            })?;
            values.push(value);
        }
        Ok(Record::new(values))
    }

    /// Parse records into `records` until it holds `max_rows` or the input
    /// ends, serving the buffered rows first.
    fn fill_chunk(&mut self, records: &mut Vec<Record>, max_rows: usize) -> IoResult<()> {
        while records.len() < max_rows {
            if let Some(buffered) = self.buffered.pop_front() {
                records.push(buffered);
                continue;
            }
            if self.exhausted {
                break;
            }
            match self.read_raw_record(self.schema.arity() != 1)? {
                Some((line, fields)) => records.push(self.parse_record(&fields, line)?),
                None => self.exhausted = true,
            }
        }
        Ok(())
    }
}

impl<R: BufRead> RowSource for CsvSource<R> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self, max_rows: usize) -> IoResult<Option<TableView<'_>>> {
        // Drop the previous chunk before parsing the next: one chunk of plaintext
        // at a time.
        self.chunk = None;
        check_max_rows(max_rows)?;
        if let Some(line) = self.failed_at {
            return Err(IoError::Csv {
                line,
                message: "an earlier read failed inside this record, so the source cannot \
                          go on; resume from a reopened source"
                    .into(),
            });
        }
        let mut records = Vec::with_capacity(max_rows.min(4096));
        if let Err(e) = self.fill_chunk(&mut records, max_rows) {
            // Hand the chunk's already-parsed rows back before surfacing the
            // error: a caller that pulls past a malformed record still receives
            // every valid row (only the malformed record itself is consumed).
            for record in records.into_iter().rev() {
                self.buffered.push_front(record);
            }
            if matches!(e, IoError::Io(_)) {
                self.failed_at = Some(self.line + 1);
            }
            return Err(e);
        }
        if records.is_empty() {
            return Ok(None);
        }
        let table = Table::new(self.schema.clone(), records)
            .map_err(|e| IoError::Malformed(format!("chunk assembly failed: {e}")))?;
        Ok(Some(self.chunk.insert(table).as_view()))
    }
}

fn arity_error(line: u64, got: usize, expected: usize) -> IoError {
    IoError::Csv { line, message: format!("row has {got} fields, expected {expected}") }
}

/// The narrowest [`DataType`] every sampled (non-empty) field of a column fits:
/// `Int` ⊂ `Decimal`; then `Date` (`@<days>`), `Bytes` (`0x…` hex), and finally
/// `Text`, which accepts anything. An all-empty (or empty-sample) column is `Text`.
fn infer_type<'a>(column: impl Iterator<Item = &'a str> + Clone) -> DataType {
    let mut nonempty = column.filter(|f| !f.is_empty()).peekable();
    if nonempty.peek().is_none() {
        return DataType::Text;
    }
    for candidate in [DataType::Int, DataType::Decimal, DataType::Date, DataType::Bytes] {
        let probe = Attribute::new("probe", candidate);
        if nonempty.clone().all(|f| parse_typed_field(f, &probe).is_ok()) {
            return candidate;
        }
    }
    DataType::Text
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::Value;

    fn drain(source: &mut dyn RowSource, max_rows: usize) -> Vec<Table> {
        let mut chunks = Vec::new();
        while let Some(chunk) = source.next_chunk(max_rows).unwrap() {
            assert!(chunk.row_count() >= 1 && chunk.row_count() <= max_rows);
            chunks.push(chunk.to_table());
        }
        chunks
    }

    fn concat(chunks: Vec<Table>) -> Table {
        let mut iter = chunks.into_iter();
        let mut all = iter.next().expect("at least one chunk");
        for chunk in iter {
            all.append(chunk).unwrap();
        }
        all
    }

    #[test]
    fn table_source_yields_borrowed_ranges() {
        let t = f2_relation::table! {
            ["A"]; ["r0"], ["r1"], ["r2"], ["r3"], ["r4"]
        };
        let mut source = TableSource::new(&t);
        assert_eq!(source.schema(), t.schema());
        let first = source.next_chunk(2).unwrap().unwrap();
        assert_eq!(first.parent_range(), 0..2);
        assert!(std::ptr::eq(first.parent(), &t), "a borrowed range of the wrapped table");
        let sizes: Vec<usize> =
            std::iter::from_fn(|| source.next_chunk(2).unwrap().map(|c| c.row_count())).collect();
        assert_eq!(sizes, vec![2, 1]);
        assert!(source.next_chunk(2).unwrap().is_none());
        assert!(source.next_chunk(0).is_err());
    }

    #[test]
    fn csv_source_streams_chunks_that_concat_to_the_document() {
        let csv = "A,B\n1,x\n2,y\n3,z\n4,w\n5,v\n";
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
        assert_eq!(source.schema().attribute(0).unwrap().data_type, DataType::Int);
        assert_eq!(source.schema().attribute(1).unwrap().data_type, DataType::Text);
        let chunks = drain(&mut source, 2);
        assert_eq!(chunks.iter().map(Table::row_count).collect::<Vec<_>>(), vec![2, 2, 1]);
        let all = concat(chunks);
        assert_eq!(all.row_count(), 5);
        assert_eq!(all.cell(0, 0).unwrap(), &Value::Int(1));
        assert_eq!(all.cell(4, 1).unwrap(), &Value::text("v"));
    }

    #[test]
    fn quoting_covers_delimiters_escapes_and_embedded_newlines() {
        let csv = "A,B\n\"with,comma\",\"with\"\"quote\"\n\"line\nbreak\",plain\n";
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
        let all = concat(drain(&mut source, 10));
        assert_eq!(all.cell(0, 0).unwrap(), &Value::text("with,comma"));
        assert_eq!(all.cell(0, 1).unwrap(), &Value::text("with\"quote"));
        assert_eq!(all.cell(1, 0).unwrap(), &Value::text("line\nbreak"));
    }

    #[test]
    fn tsv_and_custom_delimiters() {
        let tsv = "A\tB\n1\tx\n";
        let mut source = CsvSource::new(tsv.as_bytes(), CsvOptions::tsv()).unwrap();
        let all = concat(drain(&mut source, 10));
        assert_eq!(all.cell(0, 0).unwrap(), &Value::Int(1));
        let psv = "A|B\n1|x\n";
        let mut source =
            CsvSource::new(psv.as_bytes(), CsvOptions::csv().with_delimiter(b'|')).unwrap();
        assert_eq!(concat(drain(&mut source, 10)).cell(0, 1).unwrap(), &Value::text("x"));
    }

    #[test]
    fn inference_picks_the_narrowest_type() {
        let csv = "i,d,t,dt,b,mixed,empty\n\
                   1,1.5,abc,@10,0xdead,7,\n\
                   -2,2,def,@-3,0x00,x,\n";
        let source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
        let types: Vec<DataType> =
            source.schema().attributes().iter().map(|a| a.data_type).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Decimal,
                DataType::Text,
                DataType::Date,
                DataType::Bytes,
                DataType::Text,
                DataType::Text,
            ]
        );
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        let schema = Schema::new(vec![
            Attribute::new("id", DataType::Text), // digits kept as text
            Attribute::new("name", DataType::Text),
        ])
        .unwrap();
        let csv = "id,name\n007,bond\n";
        let mut source =
            CsvSource::new(csv.as_bytes(), CsvOptions::csv().with_schema(schema)).unwrap();
        let all = concat(drain(&mut source, 10));
        assert_eq!(all.cell(0, 0).unwrap(), &Value::text("007"));
        // Arity mismatch against the declared schema is rejected at the header.
        let schema = Schema::from_names(["only-one"]).unwrap();
        assert!(
            CsvSource::new("a,b\n1,2\n".as_bytes(), CsvOptions::csv().with_schema(schema)).is_err()
        );
        // So is a reordered schema: same arity, wrong column names in place — the
        // types (and per-attribute keys downstream) would land on the wrong data.
        let swapped = Schema::new(vec![
            Attribute::new("account_id", DataType::Int),
            Attribute::new("amount", DataType::Int),
        ])
        .unwrap();
        let err = CsvSource::new(
            "amount,account_id\n5,77\n".as_bytes(),
            CsvOptions::csv().with_schema(swapped),
        )
        .unwrap_err();
        assert!(err.to_string().contains("file order"), "{err}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        // Row on line 3 has the wrong arity; inference reads it during new().
        let err = CsvSource::new("A,B\n1,2\nonly-one\n".as_bytes(), CsvOptions::csv()).unwrap_err();
        assert!(matches!(err, IoError::Csv { line: 3, .. }), "{err}");
        // A row *past* the inference sample that violates the inferred type errors
        // at pull time and mentions the remedy.
        let csv = format!(
            "A\n{}\nnot-a-number\n",
            (1..=300).map(|i| i.to_string()).collect::<Vec<_>>().join("\n")
        );
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
        assert_eq!(source.schema().attribute(0).unwrap().data_type, DataType::Int);
        let err = loop {
            match source.next_chunk(64) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("the malformed row must surface"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, IoError::Csv { line: 302, .. }), "{err}");
        // The contradiction names the column, the inferred type, and the remedy.
        assert!(err.to_string().contains("Int was inferred for column `A`"), "{err}");
        assert!(err.to_string().contains("explicit schema"), "{err}");
        // A declared schema reports "declared", not "inferred".
        let schema = Schema::new(vec![Attribute::new("A", DataType::Int)]).unwrap();
        let err = CsvSource::new("A\nx\n".as_bytes(), CsvOptions::csv().with_schema(schema))
            .unwrap()
            .next_chunk(8)
            .unwrap_err();
        assert!(err.to_string().contains("declared Int by the explicit schema"), "{err}");
        // Empty input and unterminated quotes error cleanly.
        assert!(CsvSource::new("".as_bytes(), CsvOptions::csv()).is_err());
        let err = CsvSource::new("A\n\"open\n".as_bytes(), CsvOptions::csv()).unwrap_err();
        assert!(matches!(err, IoError::Csv { line: 2, .. }), "{err}");
    }

    #[test]
    fn rows_parsed_before_a_mid_chunk_error_are_not_lost() {
        // A cell that does not parse under its type, and a quote inside an
        // unquoted field: either record fails its pull mid-chunk, at line 4.
        let int = Schema::new(vec![Attribute::new("A", DataType::Int)]).unwrap();
        let sized = Schema::new(vec![
            Attribute::new("size", DataType::Int),
            Attribute::new("label", DataType::Text),
        ])
        .unwrap();
        for (csv, schema, max_rows) in [
            ("A\n1\n2\nbad\n4\n", int, 3),
            ("size,label\n1,a\n2,b\n3,6\"x\" pipe\n4,d\n", sized, 10),
        ] {
            let mut source =
                CsvSource::new(csv.as_bytes(), CsvOptions::csv().with_schema(schema)).unwrap();
            let err = source.next_chunk(max_rows).unwrap_err();
            assert!(matches!(err, IoError::Csv { line: 4, .. }), "{err}");
            // A caller that resumes still receives the rows parsed before the error
            // (only the malformed record itself is consumed).
            let chunk = source.next_chunk(max_rows).unwrap().unwrap().to_table();
            assert_eq!(
                chunk.rows().iter().map(|r| r.get(0).unwrap().clone()).collect::<Vec<_>>(),
                vec![Value::Int(1), Value::Int(2), Value::Int(4)],
                "{csv:?}"
            );
            assert!(source.next_chunk(max_rows).unwrap().is_none());
        }
    }

    #[test]
    fn bare_quotes_in_unquoted_fields_error_instead_of_merging_rows() {
        // The second row's `6"` starts an (invalid) quoted span; before the strict
        // check, quote balancing silently swallowed row 3 into row 2's cell.
        let err =
            CsvSource::new("size,label\n1,6\" pipe\n2,8\" pipe\n".as_bytes(), CsvOptions::csv())
                .unwrap_err();
        assert!(matches!(err, IoError::Csv { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("unquoted field"), "{err}");
        // Properly quoted, the same content parses.
        let csv = "size,label\n1,\"6\"\" pipe\"\n2,\"8\"\" pipe\"\n";
        let mut source = CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap();
        let all = concat(drain(&mut source, 10));
        assert_eq!(all.cell(0, 1).unwrap(), &Value::text("6\" pipe"));
        assert_eq!(all.row_count(), 2);
    }

    #[test]
    fn transient_read_faults_below_the_parser_are_absorbed() {
        use crate::fault::{FaultKind, FaultPlan, FaultyReader};
        // Big enough that the BufReader refills mid-record; the faults fire on
        // refills, after partial record bytes are already out of the buffer.
        let mut csv = String::from("id,tag\n");
        for i in 0..1500 {
            csv.push_str(&format!("{i:06},row-{i:06}\n"));
        }
        let plan = FaultPlan::new()
            .with(8_700, FaultKind::Transient(std::io::ErrorKind::TimedOut))
            .with(17_000, FaultKind::Transient(std::io::ErrorKind::ConnectionReset));
        let clean =
            concat(drain(&mut CsvSource::new(csv.as_bytes(), CsvOptions::csv()).unwrap(), 64));
        // The retry sits *below* the parser: every pull succeeds, nothing is
        // lost or duplicated (`drain` unwraps, so a surfaced error panics).
        let mut source = CsvSource::with_retry(
            FaultyReader::new(csv.as_bytes(), plan),
            CsvOptions::csv(),
            RetryPolicy::no_backoff(4),
        )
        .unwrap();
        let all = concat(drain(&mut source, 64));
        assert_eq!(all.row_count(), clean.row_count());
        assert!(all.multiset_eq(&clean), "healed parse must match the clean parse exactly");
    }

    #[test]
    fn every_pull_after_a_failed_read_fails() {
        use crate::fault::{FaultKind, FaultPlan, FaultyReader};
        // The same fault with no retry below the parser: the failed refill leaves
        // part of a record consumed, so pulling on would lose or split rows. The
        // pull reports the read error and every later one names the record's line.
        let mut csv = String::from("id,tag\n");
        for i in 0..1500 {
            csv.push_str(&format!("{i:06},row-{i:06}\n"));
        }
        let plan = FaultPlan::new().with(8_700, FaultKind::Transient(std::io::ErrorKind::TimedOut));
        let mut source = CsvSource::new(
            BufReader::new(FaultyReader::new(csv.as_bytes(), plan)),
            CsvOptions::csv(),
        )
        .unwrap();
        let mut rows = 0u64;
        let err = loop {
            match source.next_chunk(64) {
                Ok(Some(chunk)) => rows += chunk.row_count() as u64,
                Ok(None) => panic!("the read fault must surface"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, IoError::Io(ref e) if e.kind() == std::io::ErrorKind::TimedOut));
        for _ in 0..3 {
            let err = source.next_chunk(64).unwrap_err();
            // The failed record is in the failed chunk: data row `rows` is on line `rows + 2`.
            let IoError::Csv { line, .. } = err else { panic!("{err}") };
            assert!((rows + 2..rows + 2 + 64).contains(&line), "line {line} after {rows} rows");
            assert!(err.to_string().contains("an earlier read failed"), "{err}");
        }
    }

    #[test]
    fn table_source_seeks_anywhere() {
        let t = f2_relation::table! { ["A"]; ["r0"], ["r1"], ["r2"], ["r3"], ["r4"] };
        let mut source = TableSource::new(&t);
        source.seek_to_row(3).unwrap();
        assert_eq!(source.next_chunk(10).unwrap().unwrap().row_count(), 2);
        source.seek_to_row(0).unwrap(); // rewind is fine
        assert_eq!(source.next_chunk(10).unwrap().unwrap().row_count(), 5);
        assert!(source.seek_to_row(6).is_err());
    }

    #[test]
    fn blank_lines_are_rows_only_for_single_column_tables() {
        let mut source = CsvSource::new("A,B\n1,2\n\n3,4\n".as_bytes(), CsvOptions::csv()).unwrap();
        assert_eq!(concat(drain(&mut source, 10)).row_count(), 2);
        let mut source = CsvSource::new("A\nx\n\ny\n".as_bytes(), CsvOptions::csv()).unwrap();
        let all = concat(drain(&mut source, 10));
        assert_eq!(all.row_count(), 3);
        assert!(all.cell(1, 0).unwrap().is_null());
    }
}
