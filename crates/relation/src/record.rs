//! Records (tuples).

use crate::{AttrSet, Value};
use std::fmt;

/// A single tuple: one [`Value`] per schema attribute, in schema order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Build a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Access a cell by attribute index.
    pub fn get(&self, attr: usize) -> Option<&Value> {
        self.values.get(attr)
    }

    /// Mutable access to a cell.
    pub fn get_mut(&mut self, attr: usize) -> Option<&mut Value> {
        self.values.get_mut(attr)
    }

    /// Overwrite a cell. Panics if out of range.
    pub fn set(&mut self, attr: usize, value: Value) {
        self.values[attr] = value;
    }

    /// All cells in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Project the record onto an attribute set: the paper's `r[X]`.
    ///
    /// Values are returned in ascending attribute-index order, so two records have
    /// equal projections iff they agree on every attribute of `attrs`.
    pub fn project(&self, attrs: AttrSet) -> Vec<Value> {
        attrs.iter().filter_map(|a| self.values.get(a).cloned()).collect()
    }

    /// True if `self` and `other` agree on every attribute in `attrs`
    /// (the paper's `r1[X] = r2[X]`).
    pub fn agrees_on(&self, other: &Record, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| self.values.get(a) == other.values.get(a))
    }

    /// The set of attributes on which `self` and `other` agree — the *agree set*,
    /// whose maximal elements over all record pairs are exactly the MASs.
    pub fn agree_set(&self, other: &Record, universe: AttrSet) -> AttrSet {
        let mut s = AttrSet::new();
        for a in universe.iter() {
            if self.values.get(a) == other.values.get(a) {
                s.insert(a);
            }
        }
        s
    }

    /// Total serialized size of the record in bytes.
    pub fn size_bytes(&self) -> usize {
        self.values.iter().map(Value::size_bytes).sum()
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

impl FromIterator<Value> for Record {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Record::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Build a [`Record`] tersely in tests and examples:
/// `record![1, "a", Value::Null]`.
#[macro_export]
macro_rules! record {
    ($($v:expr),* $(,)?) => {
        $crate::Record::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[&str]) -> Record {
        Record::new(vals.iter().map(|s| Value::text(*s)).collect())
    }

    #[test]
    fn projection_follows_index_order() {
        let rec = r(&["a", "b", "c", "d"]);
        let p = rec.project(AttrSet::from_indices([3, 1]));
        assert_eq!(p, vec![Value::text("b"), Value::text("d")]);
        assert_eq!(rec.project(AttrSet::EMPTY), Vec::<Value>::new());
    }

    #[test]
    fn agreement() {
        let r1 = r(&["a", "b", "c"]);
        let r2 = r(&["a", "x", "c"]);
        assert!(r1.agrees_on(&r2, AttrSet::from_indices([0, 2])));
        assert!(!r1.agrees_on(&r2, AttrSet::from_indices([0, 1])));
        assert_eq!(r1.agree_set(&r2, AttrSet::all(3)), AttrSet::from_indices([0, 2]));
    }

    #[test]
    fn set_and_get() {
        let mut rec = r(&["a", "b"]);
        rec.set(1, Value::Int(9));
        assert_eq!(rec.get(1), Some(&Value::Int(9)));
        assert_eq!(rec.get(5), None);
        *rec.get_mut(0).unwrap() = Value::Null;
        assert!(rec.get(0).unwrap().is_null());
    }

    #[test]
    fn record_macro() {
        let rec = record![1i64, "x"];
        assert_eq!(rec.arity(), 2);
        assert_eq!(rec.get(0), Some(&Value::Int(1)));
        assert_eq!(rec.get(1), Some(&Value::text("x")));
    }

    #[test]
    fn display_and_size() {
        let rec = record![1i64, "ab"];
        assert_eq!(rec.to_string(), "(1, ab)");
        assert_eq!(rec.size_bytes(), 10);
    }
}
