//! In-memory tables.

use crate::columnar::ColumnarIndex;
use crate::{AttrSet, Partition, Record, RelationError, Result, Schema, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Index of a row within a [`Table`].
pub type RowId = usize;

/// A row-major in-memory relation: a [`Schema`] plus a vector of [`Record`]s.
///
/// This is the paper's table `D` (and, once encrypted, `D̂`). All F² machinery —
/// partition computation, MAS discovery, TANE, the encryption pipeline — operates on
/// this type.
///
/// The table lazily builds a dictionary-encoded [`ColumnarIndex`] (per-attribute
/// `Value → u32` dictionaries plus column-major id arrays) the first time a partition
/// or related query needs it, and caches it; every mutating method invalidates the
/// cache. See [`Table::columnar`] and the [`crate::columnar`] module docs for the
/// invariants.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    records: Vec<Record>,
    /// Lazily-built interned columnar index. Behind `Arc` so clones share the build;
    /// reset by every mutation. Deliberately ignored by `PartialEq`.
    columns: OnceLock<Arc<ColumnarIndex>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.records == other.records
    }
}

impl Eq for Table {}

impl Table {
    /// Create an empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table { schema, records: Vec::new(), columns: OnceLock::new() }
    }

    /// Create a table from a schema and records, validating arity.
    pub fn new(schema: Schema, records: Vec<Record>) -> Result<Self> {
        for r in &records {
            if r.arity() != schema.arity() {
                return Err(RelationError::ArityMismatch {
                    expected: schema.arity(),
                    got: r.arity(),
                });
            }
        }
        Ok(Table { schema, records, columns: OnceLock::new() })
    }

    /// The table's interned columnar index, built on first use and cached until the
    /// next mutation. This is the substrate of [`Table::partition`] and every other
    /// partition-shaped query. On a table of at least 65,536 cells the first call
    /// builds the columns on up to `available_parallelism()` threads (never more
    /// than the arity), the calling thread among them; see [`ColumnarIndex::build`].
    /// A worker-pool thread ([`POOL_THREAD_PREFIX`](crate::parallel::POOL_THREAD_PREFIX))
    /// builds all the columns itself.
    pub fn columnar(&self) -> &ColumnarIndex {
        self.columns.get_or_init(|| Arc::new(ColumnarIndex::build(self)))
    }

    /// Drop the cached columnar index (called by every mutating method — the
    /// dictionaries describe a snapshot of the rows and must never outlive it).
    fn invalidate_columns(&mut self) {
        self.columns.take();
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (the paper's `n`).
    pub fn row_count(&self) -> usize {
        self.records.len()
    }

    /// Number of attributes (the paper's `m`).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Access a row.
    pub fn row(&self, id: RowId) -> Result<&Record> {
        self.records
            .get(id)
            .ok_or(RelationError::RowOutOfRange { row: id, rows: self.records.len() })
    }

    /// Mutable access to a row. Invalidates the cached columnar index (only when the
    /// row exists — a failed probe mutates nothing and keeps the cache).
    pub fn row_mut(&mut self, id: RowId) -> Result<&mut Record> {
        let rows = self.records.len();
        if id >= rows {
            return Err(RelationError::RowOutOfRange { row: id, rows });
        }
        self.invalidate_columns();
        Ok(&mut self.records[id])
    }

    /// All rows in order.
    pub fn rows(&self) -> &[Record] {
        &self.records
    }

    /// Iterate over `(RowId, &Record)`.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Record)> {
        self.records.iter().enumerate()
    }

    /// Access a single cell.
    pub fn cell(&self, row: RowId, attr: usize) -> Result<&Value> {
        let r = self.row(row)?;
        r.get(attr)
            .ok_or(RelationError::AttributeIndexOutOfRange { index: attr, arity: self.arity() })
    }

    /// Overwrite a single cell.
    pub fn set_cell(&mut self, row: RowId, attr: usize, value: Value) -> Result<()> {
        let arity = self.arity();
        if attr >= arity {
            return Err(RelationError::AttributeIndexOutOfRange { index: attr, arity });
        }
        self.row_mut(row)?.set(attr, value);
        Ok(())
    }

    /// Append a row, validating arity. Returns its [`RowId`].
    pub fn push_row(&mut self, record: Record) -> Result<RowId> {
        if record.arity() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                got: record.arity(),
            });
        }
        self.invalidate_columns();
        self.records.push(record);
        Ok(self.records.len() - 1)
    }

    /// Append all rows of another table with an identical schema.
    pub fn extend_from(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(RelationError::SchemaMismatch);
        }
        self.invalidate_columns();
        self.records.extend(other.records.iter().cloned());
        Ok(())
    }

    /// Append all rows of another table with an identical schema, consuming it — no
    /// per-record clone. The streaming engine merges encrypted chunks through this.
    pub fn append(&mut self, other: Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(RelationError::SchemaMismatch);
        }
        self.invalidate_columns();
        self.records.extend(other.records);
        Ok(())
    }

    /// Keep only the first `n` rows (used by the size-sweep benchmarks, Fig. 7/9).
    pub fn truncated(&self, n: usize) -> Table {
        Table {
            schema: self.schema.clone(),
            records: self.records.iter().take(n).cloned().collect(),
            columns: OnceLock::new(),
        }
    }

    /// The value of row `row` projected on `attrs` (the paper's `r[X]`).
    pub fn project_row(&self, row: RowId, attrs: AttrSet) -> Result<Vec<Value>> {
        Ok(self.row(row)?.project(attrs))
    }

    /// Compute the partition π_X of this table under attribute set `attrs`
    /// (Definition 3.3).
    pub fn partition(&self, attrs: AttrSet) -> Partition {
        Partition::compute(self, attrs)
    }

    /// `|σ_{A=r[A]}(D)|`: the number of rows sharing row `row`'s value on `attrs`.
    pub fn frequency_of_row(&self, row: RowId, attrs: AttrSet) -> Result<usize> {
        let target = self.project_row(row, attrs)?;
        Ok(self.records.iter().filter(|r| r.project(attrs) == target).count())
    }

    /// Frequency histogram of the projections of all rows onto `attrs`: maps each
    /// distinct value combination to its number of occurrences. This is the frequency
    /// knowledge `freq(P)` the adversary holds in the security game (Section 2.4).
    ///
    /// Derived from the interned partition (one representative clone per distinct
    /// combination instead of one projection clone per row).
    pub fn frequency_histogram(&self, attrs: AttrSet) -> HashMap<Vec<Value>, usize> {
        self.columnar()
            .partition(attrs)
            .classes()
            .iter()
            .map(|c| ((*c.representative).clone(), c.size()))
            .collect()
    }

    /// Number of distinct values of a single attribute.
    pub fn distinct_count(&self, attr: usize) -> usize {
        if attr >= self.arity() {
            return 0;
        }
        self.columnar().column(attr).distinct_count()
    }

    /// Collect every distinct value appearing anywhere in the table.
    ///
    /// The F² scheme repeatedly needs values "that do not exist in the original
    /// dataset" (fake ECs, conflict resolution, artificial records); callers use this
    /// set to verify freshness. Served from the column dictionaries: O(distinct)
    /// clones instead of O(rows × arity).
    pub fn all_values(&self) -> std::collections::HashSet<Value> {
        self.columnar().all_values()
    }

    /// Total serialized size of the table in bytes (Table 1 of the paper reports
    /// dataset sizes; we report the same measure for generated data).
    pub fn size_bytes(&self) -> usize {
        self.records.iter().map(Record::size_bytes).sum()
    }

    /// Test multiset equality of rows with another table (ignoring row order).
    ///
    /// Used by round-trip tests: decrypting `D̂` with provenance must reproduce `D`
    /// exactly as a multiset of records.
    pub fn multiset_eq(&self, other: &Table) -> bool {
        if self.schema != other.schema || self.row_count() != other.row_count() {
            return false;
        }
        let mut a = self.records.clone();
        let mut b = other.records.clone();
        a.sort();
        b.sort();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;

    fn sample() -> Table {
        let schema = Schema::from_names(["A", "B", "C"]).unwrap();
        Table::new(
            schema,
            vec![
                record!["a1", "b1", "c1"],
                record!["a1", "b1", "c2"],
                record!["a1", "b1", "c3"],
                record!["a1", "b1", "c1"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_arity() {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        let err = Table::new(schema.clone(), vec![record!["x"]]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { expected: 2, got: 1 }));
        let mut t = Table::empty(schema);
        assert!(t.push_row(record!["x", "y"]).is_ok());
        assert!(t.push_row(record!["x"]).is_err());
    }

    #[test]
    fn cell_access() {
        let t = sample();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.cell(2, 2).unwrap(), &Value::text("c3"));
        assert!(t.cell(9, 0).is_err());
        assert!(t.cell(0, 9).is_err());
    }

    #[test]
    fn set_cell_and_mutation() {
        let mut t = sample();
        t.set_cell(1, 2, Value::text("zz")).unwrap();
        assert_eq!(t.cell(1, 2).unwrap(), &Value::text("zz"));
        assert!(t.set_cell(1, 10, Value::Null).is_err());
        assert!(t.set_cell(10, 1, Value::Null).is_err());
    }

    #[test]
    fn frequency_matches_paper_example() {
        // Figure 1(a): value (a1, b1) appears 4 times on {A, B}; c1 appears twice on C.
        let t = sample();
        let ab = AttrSet::from_indices([0, 1]);
        assert_eq!(t.frequency_of_row(0, ab).unwrap(), 4);
        let c = AttrSet::single(2);
        assert_eq!(t.frequency_of_row(0, c).unwrap(), 2);
        assert_eq!(t.frequency_of_row(2, c).unwrap(), 1);
    }

    #[test]
    fn histogram() {
        let t = sample();
        let h = t.frequency_histogram(AttrSet::single(2));
        assert_eq!(h.len(), 3);
        assert_eq!(h[&vec![Value::text("c1")]], 2);
        assert_eq!(h[&vec![Value::text("c2")]], 1);
    }

    #[test]
    fn distinct_and_all_values() {
        let t = sample();
        assert_eq!(t.distinct_count(0), 1);
        assert_eq!(t.distinct_count(2), 3);
        let vals = t.all_values();
        assert!(vals.contains(&Value::text("a1")));
        assert!(vals.contains(&Value::text("c3")));
        assert_eq!(vals.len(), 5);
    }

    #[test]
    fn truncation_and_extension() {
        let t = sample();
        let t2 = t.truncated(2);
        assert_eq!(t2.row_count(), 2);
        let mut t3 = t.clone();
        t3.extend_from(&t2).unwrap();
        assert_eq!(t3.row_count(), 6);
        t3.append(t2).unwrap();
        assert_eq!(t3.row_count(), 8);

        let other = Table::empty(Schema::from_names(["X"]).unwrap());
        assert!(t3.clone().extend_from(&other).is_err());
        assert!(t3.clone().append(other).is_err());
    }

    #[test]
    fn multiset_equality_ignores_order() {
        let schema = Schema::from_names(["A"]).unwrap();
        let t1 = Table::new(schema.clone(), vec![record!["x"], record!["y"]]).unwrap();
        let t2 = Table::new(schema.clone(), vec![record!["y"], record!["x"]]).unwrap();
        let t3 = Table::new(schema, vec![record!["y"], record!["y"]]).unwrap();
        assert!(t1.multiset_eq(&t2));
        assert!(!t1.multiset_eq(&t3));
    }

    #[test]
    fn size_bytes_is_positive() {
        assert!(sample().size_bytes() > 0);
    }
}
