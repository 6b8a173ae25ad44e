//! Dictionary-encoded (interned) columnar storage — the fast substrate under every
//! partition computation.
//!
//! Profiling the F² pipeline showed that ~90% of encryption time was spent in the
//! planning layers, and most of that in hashing `Vec<Value>` projections row by row:
//! every `Partition::compute` cloned one `Vec<Value>` per row per attribute set. The
//! [`ColumnarIndex`] removes that cost structurally: each attribute gets a
//! **dictionary** mapping its distinct [`Value`]s to dense `u32` ids, plus a
//! column-major `row → id` array. Partitions then group rows by *id tuples* (integer
//! hashing, no clones), and representatives are materialised once per equivalence
//! class instead of once per row.
//!
//! # Invariants
//!
//! * **Id order = value order.** Within one column, ids are assigned in ascending
//!   [`Value`] order (`Ord`), so comparing id tuples lexicographically is exactly
//!   comparing representative tuples — partitions built from ids sort identically to
//!   the generic `Vec<Value>`-keyed path ([`Partition::compute_generic`]).
//! * **Ids are stable only within one build.** They are *not* persisted anywhere and
//!   carry no meaning across two different `ColumnarIndex` instances (two builds of
//!   the same table produce the same ids, but a table with one extra row may not).
//! * **Lazy build, mutation invalidates.** [`crate::Table::columnar`] builds the index
//!   on first use and caches it; every mutating method (`push_row`, `set_cell`,
//!   `row_mut`, `extend_from`, `append`) drops the cache, so a stale dictionary can
//!   never be observed. Cloning a table shares the already-built index (it is
//!   immutable behind an `Arc`).
//!
//! # Build cost
//!
//! A cold [`ColumnarIndex::build`] runs [`intern_values`] once per attribute, which
//! reads each cell once: one keyed [`FastHasher`] hash per cell, kept beside the value
//! in the dedupe map so that growing the map re-hashes nothing and a probe compares a
//! `u64` before any value. A value seen for the first time is cloned and given its
//! order key while its bytes are in cache. Then the distinct values are sorted by
//! that key, a `(variant rank, u64 prefix)` pair (`Value::order_key`) that never
//! contradicts [`Value`]'s order: `a < b` implies `key(a) ≤ key(b)`, and equal values
//! have equal keys. [`Value::cmp`] runs only within a run of tied keys — Texts or Bytes
//! that agree on their first 8 bytes, Decimals past 56 bits — so on ciphertext
//! (`Bytes` cells, nearly all distinct) the sort compares integers and follows no
//! pointer.
//!
//! The generic value-keyed implementations are retained as equivalence oracles and
//! exercised against this module by the property tests in
//! `crates/relation/tests/interned_equiv.rs`.

use crate::hash::{fast_map_with_capacity, FastHasher, FastMap};
use crate::{AttrSet, EquivalenceClass, Partition, RowId, StrippedPartition, Table, Value};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// One attribute's dictionary: its distinct values in ascending order, plus the
/// column-major `row → id` array.
#[derive(Debug, Clone)]
pub struct ColumnDictionary {
    /// `id → value`, ascending [`Value`] order.
    values: Vec<Value>,
    /// `row → id`.
    ids: Vec<u32>,
}

impl ColumnDictionary {
    fn build(table: &Table, attr: usize) -> Self {
        let iter = table.rows().iter().map(|rec| rec.get(attr).expect("arity validated"));
        let (ids, values) = intern_values(iter);
        ColumnDictionary { values, ids }
    }

    /// Number of distinct values in the column.
    pub fn distinct_count(&self) -> usize {
        self.values.len()
    }

    /// The value a dense id stands for.
    pub fn value_of(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// The distinct values, in ascending order (`id → value`).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The column-major `row → id` array.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

/// A cell borrowed for interning, carrying its keyed [`FastHasher`] hash: the dedupe
/// map re-hashes on growth and probes by this `u64`, and compares the values only
/// when two hashes agree.
struct HashedCell<'a> {
    hash: u64,
    value: &'a Value,
}

impl Hash for HashedCell<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for HashedCell<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.value == other.value
    }
}

impl Eq for HashedCell<'_> {}

/// The dedupe map's hasher: it hands on a [`HashedCell`]'s cached hash unchanged,
/// so neither a probe nor a growth step hashes anything again. It computes no hash
/// of its own, so the map's collision resistance is the keyed [`FastHasher`]'s.
#[derive(Default)]
struct CachedHash(u64);

impl Hasher for CachedHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a HashedCell hashes as one u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Intern a sequence of values: returns the dense id of every element (in sequence
/// order) plus the dictionary (`id → value`, ascending [`Value`] order, so id
/// comparisons order exactly like value comparisons).
///
/// Cost (see the [module docs](self#build-cost)): one keyed [`FastHasher`] hash per
/// element, kept in the dedupe map so growth re-hashes nothing; then a sort of the
/// distinct values' integer order keys. The keys never contradict value order
/// (`a < b` implies `key(a) ≤ key(b)`), so sorting them and then each run of tied
/// keys by [`Value::cmp`] yields exactly the value order.
pub fn intern_values<'a, I>(values: I) -> (Vec<u32>, Vec<Value>)
where
    I: Iterator<Item = &'a Value>,
{
    let (lo, _) = values.size_hint();
    let hasher = BuildHasherDefault::<FastHasher>::default();
    let mut first: HashMap<HashedCell<'a>, u32, BuildHasherDefault<CachedHash>> =
        HashMap::with_capacity_and_hasher(lo.min(4096), BuildHasherDefault::default());
    // The distinct values in first-encounter order, and per value the sort key
    // `rank << 96 | prefix << 32 | first-encounter id`.
    let mut distinct: Vec<Value> = Vec::new();
    let mut keys: Vec<u128> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(lo);
    for value in values {
        let next = distinct.len() as u32;
        let cell = HashedCell { hash: hasher.hash_one(value), value };
        let id = *first.entry(cell).or_insert_with(|| {
            let (rank, prefix) = value.order_key();
            keys.push(u128::from(rank) << 96 | u128::from(prefix) << 32 | u128::from(next));
            distinct.push(value.clone());
            next
        });
        ids.push(id);
    }
    // Free the map before the remap tables are allocated.
    drop(first);
    // Reassign ids in ascending value order.
    let first_id = |key: &u128| *key as u32 as usize;
    keys.sort_unstable();
    for tied in keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        tied.sort_unstable_by(|a, b| distinct[first_id(a)].cmp(&distinct[first_id(b)]));
    }
    let mut remap = vec![0u32; distinct.len()];
    let mut values_sorted = Vec::with_capacity(distinct.len());
    for (new_id, key) in keys.iter().enumerate() {
        remap[first_id(key)] = new_id as u32;
        // Each value moves out exactly once; the `Null` left behind is dropped unread.
        values_sorted.push(std::mem::replace(&mut distinct[first_id(key)], Value::Null));
    }
    for id in &mut ids {
        *id = remap[*id as usize];
    }
    (ids, values_sorted)
}

/// Dense `row → group` labelling of a table projection: rows share a group id iff
/// they agree on every attribute of the projected set.
#[derive(Debug)]
pub struct RowGroups {
    /// `row → group id` (dense, but in first-encounter order — *not* sorted).
    pub group_of: Vec<u32>,
    /// Number of distinct groups.
    pub group_count: usize,
}

/// The dictionary-encoded columnar index of one [`Table`]. See the
/// [module docs](self) for the invariants.
#[derive(Debug, Clone)]
pub struct ColumnarIndex {
    columns: Vec<ColumnDictionary>,
    row_count: usize,
}

impl ColumnarIndex {
    /// Build the index: one dictionary per attribute, each from [`intern_values`] —
    /// one keyed hash per cell (n·m in all), then per attribute a sort of its
    /// distinct values' integer order keys, with [`Value::cmp`] only on tied keys
    /// (see the [module docs](self#build-cost)).
    pub fn build(table: &Table) -> Self {
        let columns = (0..table.arity()).map(|a| ColumnDictionary::build(table, a)).collect();
        ColumnarIndex { columns, row_count: table.row_count() }
    }

    /// Rows covered.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Attributes covered.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One attribute's dictionary.
    pub fn column(&self, attr: usize) -> &ColumnDictionary {
        &self.columns[attr]
    }

    /// Label every row with a dense group id over the projection on `attrs`, by
    /// iterative pairwise refinement: start from the first column's ids and refine
    /// with each further column through a `(group, id) → group'` map — integer keys
    /// only, no value clones, O(n) per attribute.
    pub fn row_groups(&self, attrs: AttrSet) -> RowGroups {
        let n = self.row_count;
        let mut iter = attrs.iter();
        let Some(first) = iter.next() else {
            // Empty projection: every row agrees with every other.
            return RowGroups { group_of: vec![0; n], group_count: usize::from(n > 0) };
        };
        let mut group_of = self.columns[first].ids.clone();
        let mut group_count = self.columns[first].values.len();
        for attr in iter {
            let ids = &self.columns[attr].ids;
            let mut map: FastMap<u64, u32> = fast_map_with_capacity(group_count.min(n));
            let mut next = 0u32;
            for r in 0..n {
                let key = (u64::from(group_of[r]) << 32) | u64::from(ids[r]);
                let g = *map.entry(key).or_insert_with(|| {
                    let g = next;
                    next += 1;
                    g
                });
                group_of[r] = g;
            }
            group_count = next as usize;
        }
        RowGroups { group_of, group_count }
    }

    /// Bucket rows by group id: per group, the member rows in ascending order, plus
    /// one witness row per group (its first member). Sizes are counted first so
    /// every bucket is allocated exactly once.
    fn grouped_rows(&self, groups: &RowGroups) -> (Vec<Vec<RowId>>, Vec<RowId>) {
        let mut counts: Vec<u32> = vec![0; groups.group_count];
        for &g in &groups.group_of {
            counts[g as usize] += 1;
        }
        let mut rows: Vec<Vec<RowId>> =
            counts.iter().map(|&c| Vec::with_capacity(c as usize)).collect();
        let mut witness: Vec<RowId> = vec![0; groups.group_count];
        for (r, &g) in groups.group_of.iter().enumerate() {
            let bucket = &mut rows[g as usize];
            if bucket.is_empty() {
                witness[g as usize] = r;
            }
            bucket.push(r);
        }
        (rows, witness)
    }

    /// Order group indexes by their projected id tuples (≡ by representative value
    /// tuples, because ids are value-sorted within each column).
    fn order_groups(&self, attrs: AttrSet, witness: &[RowId]) -> Vec<usize> {
        let cols: Vec<&[u32]> = attrs.iter().map(|a| self.columns[a].ids()).collect();
        if cols.len() == 1 {
            // Single attribute: group ids *are* dictionary ids, already value-sorted.
            return (0..witness.len()).collect();
        }
        // Flat per-group key tuples so the comparator is one slice compare.
        let m = cols.len();
        let mut keys: Vec<u32> = Vec::with_capacity(witness.len() * m);
        for &r in witness {
            keys.extend(cols.iter().map(|c| c[r]));
        }
        let mut order: Vec<usize> = (0..witness.len()).collect();
        order.sort_unstable_by(|&ga, &gb| {
            keys[ga * m..(ga + 1) * m].cmp(&keys[gb * m..(gb + 1) * m])
        });
        order
    }

    /// Compute the partition `π_attrs` — same classes, same order as
    /// [`Partition::compute_generic`], built from id tuples.
    pub fn partition(&self, attrs: AttrSet) -> Partition {
        let groups = self.row_groups(attrs);
        let (mut rows, witness) = self.grouped_rows(&groups);
        let attr_list: Vec<usize> = attrs.iter().collect();
        let classes: Vec<EquivalenceClass> = self
            .order_groups(attrs, &witness)
            .into_iter()
            .map(|g| {
                let representative = attr_list
                    .iter()
                    .map(|&a| {
                        let col = &self.columns[a];
                        col.value_of(col.ids[witness[g]]).clone()
                    })
                    .collect();
                EquivalenceClass {
                    representative: std::sync::Arc::new(representative),
                    rows: std::mem::take(&mut rows[g]),
                }
            })
            .collect();
        Partition::from_parts(attrs, classes, self.row_count)
    }

    /// Compute the stripped partition of `attrs` directly: singleton groups are
    /// dropped before any row list or representative is materialised, so the only
    /// allocations are the duplicate classes themselves (on real data the vast
    /// majority of groups are singletons). Class order matches
    /// `partition(attrs).stripped()` (representative order).
    pub fn stripped(&self, attrs: AttrSet) -> StrippedPartition {
        let groups = self.row_groups(attrs);
        let mut counts: Vec<u32> = vec![0; groups.group_count];
        for &g in &groups.group_of {
            counts[g as usize] += 1;
        }
        // Witnesses for the duplicate groups only.
        let mut witness: Vec<RowId> = vec![usize::MAX; groups.group_count];
        let mut dup_groups: Vec<usize> = Vec::new();
        for (r, &g) in groups.group_of.iter().enumerate() {
            if counts[g as usize] > 1 && witness[g as usize] == usize::MAX {
                witness[g as usize] = r;
                dup_groups.push(g as usize);
            }
        }
        // Order duplicate groups by id tuple (≡ representative order); single-attr
        // group ids are dictionary ids, so plain id order is value order there.
        let cols: Vec<&[u32]> = attrs.iter().map(|a| self.columns[a].ids()).collect();
        if cols.len() <= 1 {
            dup_groups.sort_unstable();
        } else {
            let m = cols.len();
            let mut keys: Vec<u32> = Vec::with_capacity(dup_groups.len() * m);
            for &g in &dup_groups {
                keys.extend(cols.iter().map(|c| c[witness[g]]));
            }
            let mut order: Vec<usize> = (0..dup_groups.len()).collect();
            order
                .sort_unstable_by(|&a, &b| keys[a * m..(a + 1) * m].cmp(&keys[b * m..(b + 1) * m]));
            dup_groups = order.into_iter().map(|i| dup_groups[i]).collect();
        }
        // slot[g] = output class index of duplicate group g.
        let mut slot: Vec<u32> = vec![u32::MAX; groups.group_count];
        let mut classes: Vec<Vec<RowId>> = Vec::with_capacity(dup_groups.len());
        for (i, &g) in dup_groups.iter().enumerate() {
            slot[g] = i as u32;
            classes.push(Vec::with_capacity(counts[g] as usize));
        }
        for (r, &g) in groups.group_of.iter().enumerate() {
            let s = slot[g as usize];
            if s != u32::MAX {
                classes[s as usize].push(r);
            }
        }
        StrippedPartition::from_classes(classes, self.row_count)
    }

    /// One witness row per distinct projection on `attrs` (the first row of each
    /// group, in first-encounter order). Consumers that only need the *equality
    /// structure* of the distinct projections — e.g. the false-positive-FD violation
    /// checks, which compare representative tuples — can read the witnesses' column
    /// ids directly instead of materialising a partition.
    pub fn group_witnesses(&self, attrs: AttrSet) -> Vec<RowId> {
        let groups = self.row_groups(attrs);
        let mut witness: Vec<RowId> = vec![usize::MAX; groups.group_count];
        for (r, &g) in groups.group_of.iter().enumerate() {
            if witness[g as usize] == usize::MAX {
                witness[g as usize] = r;
            }
        }
        witness
    }

    /// Every distinct value of the table: the union of the column dictionaries.
    /// O(total distinct) clones instead of O(n·m).
    pub fn all_values(&self) -> std::collections::HashSet<Value> {
        self.distinct_values().cloned().collect()
    }

    /// Iterate every dictionary entry (per-column distinct values; a value appearing
    /// in several columns is yielded once per column).
    pub fn distinct_values(&self) -> impl Iterator<Item = &Value> {
        self.columns.iter().flat_map(|col| col.values().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record, Schema};

    fn sample() -> Table {
        let schema = Schema::from_names(["A", "B", "C"]).unwrap();
        Table::new(
            schema,
            vec![
                record!["a2", "b1", "c1"],
                record!["a1", "b1", "c2"],
                record!["a1", "b2", "c3"],
                record!["a1", "b1", "c1"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn dictionary_ids_are_value_sorted() {
        let t = sample();
        let idx = ColumnarIndex::build(&t);
        let col = idx.column(0);
        assert_eq!(col.distinct_count(), 2);
        // "a1" < "a2" so a1 gets id 0 even though a2 appears first.
        assert_eq!(col.value_of(0), &Value::text("a1"));
        assert_eq!(col.value_of(1), &Value::text("a2"));
        assert_eq!(col.ids(), &[1, 0, 0, 0]);
    }

    #[test]
    fn row_groups_match_projections() {
        let t = sample();
        let idx = ColumnarIndex::build(&t);
        let g = idx.row_groups(AttrSet::from_indices([0, 1]));
        assert_eq!(g.group_count, 3);
        // Rows 1 and 3 share (a1, b1).
        assert_eq!(g.group_of[1], g.group_of[3]);
        assert_ne!(g.group_of[0], g.group_of[1]);
        assert_ne!(g.group_of[2], g.group_of[1]);
    }

    #[test]
    fn empty_attrs_single_group() {
        let t = sample();
        let idx = ColumnarIndex::build(&t);
        let g = idx.row_groups(AttrSet::EMPTY);
        assert_eq!(g.group_count, 1);
        assert!(g.group_of.iter().all(|&x| x == 0));
    }

    #[test]
    fn all_values_matches_table() {
        let t = sample();
        let idx = ColumnarIndex::build(&t);
        assert_eq!(idx.all_values().len(), 7);
        assert_eq!(idx.all_values(), t.all_values());
    }

    #[test]
    fn interning_orders_ids_by_value() {
        let vals = [Value::Int(5), Value::Int(1), Value::Int(5), Value::Int(3)];
        let (ids, dict) = intern_values(vals.iter());
        assert_eq!(dict, vec![Value::Int(1), Value::Int(3), Value::Int(5)]);
        assert_eq!(ids, vec![2, 0, 2, 1]);

        // The order-key edge set, reversed and then every other one again, against
        // a sort-and-dedup oracle.
        let edges = crate::value::order_key_edges();
        let vals: Vec<Value> = edges.iter().rev().chain(edges.iter().step_by(2)).cloned().collect();
        let (ids, dict) = intern_values(vals.iter());
        let mut oracle = vals.clone();
        oracle.sort();
        oracle.dedup();
        assert_eq!(dict, oracle);
        let looked_up: Vec<Value> = ids.iter().map(|&id| dict[id as usize].clone()).collect();
        assert_eq!(looked_up, vals);
    }
}
