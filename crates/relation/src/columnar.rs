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
//! A cold [`ColumnarIndex::build`] runs [`intern_values`] once per attribute. It
//! reads each cell once and picks one of two strategies from what the column shows
//! in its first 4,096 cells, the probe window:
//!
//! * **Hash**, for repetitive columns. Each cell gets one keyed [`FastHasher`] hash,
//!   kept beside the value in the dedupe map, so growing the map re-hashes nothing
//!   and a probe compares a `u64` before any value. A value seen for the first time
//!   is cloned and given its order key while its bytes are in cache. Then the
//!   distinct values are sorted by that key.
//! * **Sort**, for distinct-heavy columns. If at least 7/8 of the window's cells
//!   were new to the map, the map stops there. Every later cell becomes an element
//!   of its own, keyed but not hashed, and the window's distinct values and these
//!   cells are sorted together by key; one scan then gives equal neighbours one id.
//!   On ciphertext (`Bytes` cells, nearly all distinct) this saves a hash per cell
//!   and the random probes of a map that would grow to the column's length.
//!
//! The switch reads the map's own size at the end of the window, so a repetitive
//! column pays nothing for it, and a column no longer than the window (every
//! 512-row chunk's) always hashes. Both strategies sort by the same key, a
//! `(variant rank, u64 prefix)` pair (`Value::order_key`) that never contradicts
//! [`Value`]'s order: `a < b` implies `key(a) ≤ key(b)`, and equal values have
//! equal keys. [`Value::cmp`] runs only within a run of tied keys — Texts or Bytes
//! that agree on their first 8 bytes, Decimals past 56 bits — so on ciphertext the
//! sort compares integers and follows no pointer. Both give the same dictionary and
//! ids.
//!
//! A table of at least 65,536 cells ([`PARALLEL_MIN_CELLS`]) builds its columns on
//! `min(available_parallelism(), arity)` threads, the calling thread among them,
//! through [`run_parts`] with one part per column: each thread takes the next
//! column nobody has taken, so no more column builds are live at once than there
//! are threads. On a 2-vCPU host the F² ciphertext of the 50,000-row Synthetic
//! table (72,892 rows × 7, 65,245–69,085 distinct per column) builds 1.8–3.1×
//! faster this way than hashing every column on one thread (medians of 15 cold
//! builds, five alternating rounds).
//!
//! A build on a worker of a pool — a thread whose name starts with
//! [`POOL_THREAD_PREFIX`](crate::parallel::POOL_THREAD_PREFIX), as the engine's
//! `Engine::encrypt` workers and the server's workers are named — builds every
//! column on its caller. Both rules are the one thread rule of [`crate::parallel`],
//! which `Scheme::decrypt` follows too.
//!
//! The generic value-keyed implementations are retained as equivalence oracles and
//! exercised against this module by the property tests in
//! `crates/relation/tests/interned_equiv.rs`.

use crate::hash::{fast_map_with_capacity, FastHasher, FastMap};
use crate::parallel::{run_parts, threads_for};
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

/// Cells the dedupe map of [`intern_values`] reads before the column's strategy is
/// chosen (the probe window). It is also the map's initial capacity, so the probe
/// never grows the map, and it is 8× a 512-row chunk, so a chunk's index never
/// reaches the choice.
pub const PROBE_CELLS: usize = 4096;

/// A column whose probe window holds at least this many distinct values (7/8 of
/// [`PROBE_CELLS`]) sorts its remaining cells instead of hashing them. Measured on
/// a 2-vCPU host (medians of 11 interns per column, three rounds): each column of
/// the F² ciphertext of the 50,000-row Synthetic table (72,892 rows, 65,245–69,085
/// distinct, 3,718–3,924 in the window) sorts in 7–14 ms and hashes in 12–25 ms;
/// the all-distinct key columns of Orders and Customer sort as fast as they hash or
/// faster. Synthetic's plaintext column of 7,897 distinct values in 50,000 rows,
/// which hashes in 1.5–2.5 ms and sorts in 2.7–5.2 ms, shows 3,201 in its window.
///
/// The switch trusts the window alone: a column mostly new there sorts every
/// later cell even if it repeats after the window, and one that repeats there
/// hashes every later cell even if it is unique after it. Either way the
/// dictionary and ids are the same; only the build time differs.
pub const SORT_MIN_DISTINCT: usize = PROBE_CELLS / 8 * 7;

/// Intern a sequence of values: returns the dense id of every element (in sequence
/// order) plus the dictionary (`id → value`, ascending [`Value`] order, so id
/// comparisons order exactly like value comparisons).
///
/// Cost (see the [module docs](self#build-cost)): the first 4,096 values (the probe
/// window) go through a dedupe map, one keyed [`FastHasher`] hash each, kept in the
/// map so growth re-hashes nothing. If fewer than 7/8 of the window's values were
/// new, the rest go through the map too (the hash strategy); otherwise every later
/// value becomes an element of its own (the sort strategy). Either way the
/// elements' integer order keys are sorted once. The keys never contradict value
/// order (`a < b` implies `key(a) ≤ key(b)`, equal values have equal keys), so
/// sorting them and then each run of tied keys by [`Value::cmp`] yields exactly the
/// value order, with equal values side by side; one pass over the runs sorts them
/// and gives equal neighbours one id.
pub fn intern_values<'a, I>(values: I) -> (Vec<u32>, Vec<Value>)
where
    I: Iterator<Item = &'a Value>,
{
    let mut cells = values;
    let (lo, _) = cells.size_hint();
    let hasher = BuildHasherDefault::<FastHasher>::default();
    let mut first: HashMap<HashedCell<'a>, u32, BuildHasherDefault<CachedHash>> =
        HashMap::with_capacity_and_hasher(lo.min(PROBE_CELLS), BuildHasherDefault::default());
    let key = |value: &Value, element: usize| {
        let (rank, prefix) = value.order_key();
        u128::from(rank) << 96 | u128::from(prefix) << 32 | element as u128
    };
    // The interned elements are the distinct values the map met, in first-encounter
    // order, then (sort strategy) every later cell, one element each. Per element
    // its sort key `rank << 96 | prefix << 32 | element`; per row its element, until
    // the remap below turns elements into ids.
    let mut distinct: Vec<Value> = Vec::new();
    let mut keys: Vec<u128> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(lo);
    let mut sort_rest = false;
    for value in cells.by_ref() {
        let next = distinct.len();
        let cell = HashedCell { hash: hasher.hash_one(value), value };
        let id = *first.entry(cell).or_insert_with(|| {
            keys.push(key(value, next));
            distinct.push(value.clone());
            next as u32
        });
        ids.push(id);
        if sorts_rest(ids.len(), distinct.len()) {
            sort_rest = true;
            break;
        }
    }
    // Free the map before the sort's tables are allocated.
    drop(first);
    let mut rest: Vec<&'a Value> = Vec::new();
    if sort_rest {
        let (lo, _) = cells.size_hint();
        rest.reserve(lo);
        keys.reserve(lo);
        for value in cells {
            let element = distinct.len() + rest.len();
            keys.push(key(value, element));
            ids.push(element as u32);
            rest.push(value);
        }
    }
    keys.sort_unstable();
    // Ids in ascending value order. Equal values have equal keys, so each run of
    // tied keys holds every repeat of its values: sorted by `Value::cmp`, an element
    // opens a new id unless it equals the element before it.
    let mut remap = vec![0u32; keys.len()];
    let mut values_sorted: Vec<Value> = Vec::with_capacity(keys.len());
    for tied in keys.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
        tied.sort_unstable_by(|a, b| {
            element(&distinct, &rest, *a).cmp(element(&distinct, &rest, *b))
        });
        for (i, &key) in tied.iter().enumerate() {
            let e = key as u32 as usize;
            if i == 0 || values_sorted.last() != Some(element(&distinct, &rest, key)) {
                values_sorted.push(match e.checked_sub(distinct.len()) {
                    // Each distinct value moves out exactly once; the `Null` left
                    // behind is dropped unread.
                    None => std::mem::replace(&mut distinct[e], Value::Null),
                    Some(r) => rest[r].clone(),
                });
            }
            remap[e] = values_sorted.len() as u32 - 1;
        }
    }
    for id in &mut ids {
        *id = remap[*id as usize];
    }
    // The sort strategy sized the dictionary for one value per element; a column
    // that repeats after its window keeps only its distinct values. (On the hash
    // path every element is distinct, and this does nothing.)
    values_sorted.shrink_to_fit();
    (ids, values_sorted)
}

/// Whether [`intern_values`] sorts a column's remaining cells, having read `cells`
/// of them and found `distinct` different values: only at the end of the probe
/// window, and only if at least 7/8 of the window was new.
fn sorts_rest(cells: usize, distinct: usize) -> bool {
    cells == PROBE_CELLS && distinct >= SORT_MIN_DISTINCT
}

/// The interned element a sort key of [`intern_values`] names: a distinct value the
/// dedupe map kept, or (past them) a cell the sort strategy borrowed.
fn element<'v>(distinct: &'v [Value], rest: &[&'v Value], key: u128) -> &'v Value {
    let e = key as u32 as usize;
    match e.checked_sub(distinct.len()) {
        None => &distinct[e],
        Some(r) => rest[r],
    }
}

/// Tables of at least this many cells build their columns on several threads
/// (the index build's threshold under the one thread rule of [`crate::parallel`]).
/// Measured on a 2-vCPU host (medians of 31 cold builds): spawning and joining a
/// scoped thread takes about 40 µs and `available_parallelism` about 20 µs. Two
/// threads built Customer's 4,096 rows × 21 (86,016 cells) in 4.0 ms against
/// 4.8–6.5 ms on one, and Orders' 8,192 rows × 9 (73,728 cells) in 1.8–2.3 ms
/// against 2.2–2.8 ms; the repetitive Synthetic plaintext of 8,192 rows × 7 (57,344
/// cells) built no faster on two (1.1–1.3 ms against 1.1 ms).
pub const PARALLEL_MIN_CELLS: usize = 1 << 16;

/// Build every column dictionary of `table` on up to `threads` threads through
/// [`run_parts`], one part per column, and return them in column order with the
/// number of threads that built them.
fn build_columns_on(table: &Table, threads: usize) -> (Vec<ColumnDictionary>, usize) {
    run_parts(table.arity(), threads, |attr| ColumnDictionary::build(table, attr))
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
    threads: usize,
}

impl ColumnarIndex {
    /// Build the index: one dictionary per attribute, each from [`intern_values`],
    /// which hashes the column's first 4,096 cells and then hashes or sorts the rest
    /// (see the [module docs](self#build-cost)). A table of at least 65,536 cells
    /// builds its columns on up to `min(available_parallelism(), arity)` threads,
    /// the calling thread among them, unless the caller is a worker-pool thread
    /// ([`POOL_THREAD_PREFIX`](crate::parallel::POOL_THREAD_PREFIX)), which builds
    /// them all itself: the one thread rule of [`crate::parallel`].
    pub fn build(table: &Table) -> Self {
        let arity = table.arity();
        let threads = threads_for(table.row_count() * arity, PARALLEL_MIN_CELLS, arity);
        let (columns, threads) = build_columns_on(table, threads);
        ColumnarIndex { columns, row_count: table.row_count(), threads }
    }

    /// Threads that built the index, the calling one included.
    pub fn threads(&self) -> usize {
        self.threads
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
        assert_interns_like_sort_and_dedup(&vals);
    }

    /// `intern_values` gives the sorted, deduplicated values as its dictionary, and
    /// every element the id of its own value.
    fn assert_interns_like_sort_and_dedup(vals: &[Value]) {
        let (ids, dict) = intern_values(vals.iter());
        let mut oracle = vals.to_vec();
        oracle.sort();
        oracle.dedup();
        assert_eq!(dict, oracle);
        let looked_up: Vec<&Value> = ids.iter().map(|&id| &dict[id as usize]).collect();
        assert!(looked_up.iter().copied().eq(vals), "ids of {} values", vals.len());
    }

    #[test]
    fn the_strategy_switches_at_the_end_of_a_mostly_new_probe_window() {
        assert!(sorts_rest(PROBE_CELLS, SORT_MIN_DISTINCT));
        assert!(sorts_rest(PROBE_CELLS, PROBE_CELLS));
        assert!(!sorts_rest(PROBE_CELLS, SORT_MIN_DISTINCT - 1));
        assert!(!sorts_rest(PROBE_CELLS - 1, PROBE_CELLS - 1));

        // Bytes whose first 8 bytes each group of three shares, so keys tie and
        // `Value::cmp` settles them; the scrambled head puts them out of order.
        let value = |i: u64| {
            let head = (i / 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Value::bytes([head.to_be_bytes(), i.to_be_bytes()].concat())
        };
        // Windows one short of and exactly at the switch, each followed by cells
        // that repeat window values and cells that are new, cut at lengths around
        // the window's end.
        for window_distinct in [SORT_MIN_DISTINCT - 1, SORT_MIN_DISTINCT] {
            let distinct = window_distinct as u64;
            let window = (0..PROBE_CELLS as u64).map(|i| value(i % distinct));
            let rest = (0..3000u64)
                .map(|i| value(if i % 2 == 0 { i * 7 % distinct } else { distinct + i }));
            let column: Vec<Value> = window.chain(rest).collect();
            for len in [PROBE_CELLS - 1, PROBE_CELLS, PROBE_CELLS + 1, column.len()] {
                assert_interns_like_sort_and_dedup(&column[..len]);
            }
        }
    }

    #[test]
    fn every_thread_count_builds_the_columns_in_order() {
        let t = sample();
        let serial: Vec<ColumnDictionary> =
            (0..t.arity()).map(|a| ColumnDictionary::build(&t, a)).collect();
        // 8 threads on 3 columns: the helpers past the arity find no column left.
        for threads in [1, 2, 3, 8] {
            let (built, started) = build_columns_on(&t, threads);
            assert!((1..=threads).contains(&started), "{threads} threads");
            assert_eq!(built.len(), serial.len(), "{threads} threads");
            for (attr, (got, want)) in built.iter().zip(&serial).enumerate() {
                assert_eq!(got.values(), want.values(), "{threads} threads, column {attr}");
                assert_eq!(got.ids(), want.ids(), "{threads} threads, column {attr}");
            }
        }
    }
}
