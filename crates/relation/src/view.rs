//! Borrowed row-range views over a [`Table`] — the zero-copy chunk substrate of the
//! streaming engine.
//!
//! The engine shards a table into row-range chunks. A [`TableView`] is a borrowed
//! slice of the parent's records, so consumers that iterate rows (the cell-wise
//! encryption backends) never clone a chunk.
//!
//! Consumers that genuinely need an owned `Table` (the F² encryptor pipeline, whose
//! planning layers take `&Table`) call [`TableView::to_table`], which clones the
//! range's records; like any table, the copy builds its columnar index on first use.

use crate::{Record, RelationError, Result, RowId, Schema, Table, Value};
use std::ops::Range;

/// A borrowed, immutable view of a contiguous row range of a [`Table`].
///
/// Views are cheap to create and clone (a reference plus a range); they never
/// outlive or mutate their parent. Row ids are **view-local**: row `0` of the view
/// is row `range.start` of the parent.
#[derive(Debug, Clone)]
pub struct TableView<'a> {
    table: &'a Table,
    range: Range<usize>,
}

impl Table {
    /// A borrowed view of the row range `range`, validated against the table bounds.
    pub fn view(&self, range: Range<usize>) -> Result<TableView<'_>> {
        if range.start > range.end || range.end > self.row_count() {
            return Err(RelationError::RowOutOfRange {
                row: range.end.max(range.start),
                rows: self.row_count(),
            });
        }
        Ok(TableView { table: self, range })
    }

    /// A view covering the whole table.
    pub fn as_view(&self) -> TableView<'_> {
        TableView { table: self, range: 0..self.row_count() }
    }
}

impl<'a> TableView<'a> {
    /// The parent table this view borrows from.
    pub fn parent(&self) -> &'a Table {
        self.table
    }

    /// The parent row range the view covers.
    pub fn parent_range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// The (parent's) schema.
    pub fn schema(&self) -> &'a Schema {
        self.table.schema()
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.table.arity()
    }

    /// Number of rows in the view.
    pub fn row_count(&self) -> usize {
        self.range.len()
    }

    /// True if the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The viewed rows, as a borrowed slice of the parent's records.
    pub fn rows(&self) -> &'a [Record] {
        &self.table.rows()[self.range.clone()]
    }

    /// Iterate over `(view-local RowId, &Record)`.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &'a Record)> {
        self.rows().iter().enumerate()
    }

    /// Access a row by view-local id.
    pub fn row(&self, id: RowId) -> Result<&'a Record> {
        self.rows().get(id).ok_or(RelationError::RowOutOfRange { row: id, rows: self.row_count() })
    }

    /// Access a single cell by view-local row id.
    pub fn cell(&self, row: RowId, attr: usize) -> Result<&'a Value> {
        let r = self.row(row)?;
        r.get(attr)
            .ok_or(RelationError::AttributeIndexOutOfRange { index: attr, arity: self.arity() })
    }

    /// Total serialized size of the viewed rows in bytes.
    pub fn size_bytes(&self) -> usize {
        self.rows().iter().map(Record::size_bytes).sum()
    }

    /// Materialise the view as an owned [`Table`] by cloning the range's records.
    pub fn to_table(&self) -> Table {
        Table::new(self.schema().clone(), self.rows().to_vec())
            .expect("a view's rows have its parent's arity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, AttrSet};

    fn sample() -> Table {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        Table::new(
            schema,
            vec![
                record!["a2", "b1"],
                record!["a1", "b2"],
                record!["a1", "b1"],
                record!["a3", "b2"],
                record!["a1", "b1"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn view_bounds_are_validated() {
        let t = sample();
        assert!(t.view(0..5).is_ok());
        assert!(t.view(2..2).is_ok());
        assert!(t.view(0..6).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = t.view(3..1);
        assert!(reversed.is_err());
    }

    #[test]
    fn view_exposes_the_range() {
        let t = sample();
        let v = t.view(1..4).unwrap();
        assert_eq!(v.row_count(), 3);
        assert_eq!(v.arity(), 2);
        assert_eq!(v.cell(0, 0).unwrap(), &Value::text("a1"));
        assert_eq!(v.cell(2, 1).unwrap(), &Value::text("b2"));
        assert!(v.cell(3, 0).is_err());
        assert!(v.cell(0, 2).is_err());
        assert_eq!(v.rows().len(), 3);
        assert_eq!(v.iter().count(), 3);
        assert_eq!(v.parent_range(), 1..4);
        assert_eq!(t.as_view().row_count(), t.row_count());
        assert_eq!(v.size_bytes(), v.to_table().size_bytes());
    }

    #[test]
    fn to_table_equals_cloned_subtable_and_partitions_agree() {
        let t = sample();
        let view = t.view(1..5).unwrap();
        let materialised = view.to_table();
        let cloned = Table::new(t.schema().clone(), t.rows()[1..5].to_vec()).unwrap();
        assert_eq!(materialised, cloned);
        for attrs in [AttrSet::single(0), AttrSet::single(1), AttrSet::from_indices([0, 1])] {
            assert_eq!(materialised.partition(attrs).classes(), cloned.partition(attrs).classes());
        }
    }
}
