//! Step 4 — eliminating false-positive FDs (§3.4).
//!
//! Steps 1–3 make every equivalence class group collision-free, which can *create* FDs
//! in the encrypted table that do not hold in the original data (Example 3.1). The data
//! owner walks the FD lattice of every MAS (Figure 5); for every *maximum false
//! positive* `X → Y` (violated in the plaintext, hence accidentally satisfied in the
//! ciphertext) she inserts `k = ⌈1/α⌉` pairs of artificial records that share a fresh
//! value on `X` but disagree on `Y`, which re-violates the FD in the encrypted table.
//! Inserting `k` pairs rather than one keeps the artificial records indistinguishable
//! under the α-security argument of Section 4.

use crate::fake::FreshValueGenerator;
use f2_fd::lattice::FdLattice;
use f2_relation::hash::{fast_map_with_capacity, FastMap};
use f2_relation::{AttrSet, RowId, Table, Value};
use std::collections::HashMap;

/// A pair of artificial plaintext records that re-violates one false-positive FD.
///
/// Both rows are full-arity plaintext rows made entirely of fresh values; they share
/// the same values on `shared_attrs` (the FD's left-hand side) and differ everywhere
/// else. The encryptor must encrypt the shared cells to the *same ciphertext* so the
/// server observes the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpRecordPair {
    /// The MAS whose lattice produced this pair.
    pub mas_index: usize,
    /// Attributes on which the two rows share a value (the false-positive FD's LHS).
    pub shared_attrs: AttrSet,
    /// First artificial row (full arity).
    pub row1: Vec<Value>,
    /// Second artificial row (full arity).
    pub row2: Vec<Value>,
}

/// The Step-4 plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FpPlan {
    /// Artificial record pairs to insert.
    pub pairs: Vec<FpRecordPair>,
    /// Number of maximum false-positive FDs that were eliminated.
    pub max_false_positives: usize,
}

impl FpPlan {
    /// Total number of artificial records (2 per pair).
    pub fn record_count(&self) -> usize {
        self.pairs.len() * 2
    }
}

/// Identify the maximum false-positive FDs of every MAS and build the artificial
/// records that eliminate them. `k` is ⌈1/α⌉.
pub fn plan_false_positive_elimination(
    table: &Table,
    mas_sets: &[AttrSet],
    k: usize,
    fresh: &mut FreshValueGenerator,
) -> FpPlan {
    let mas_witnesses: Vec<(AttrSet, Vec<RowId>)> =
        mas_sets.iter().map(|&mas| (mas, table.columnar().group_witnesses(mas))).collect();
    let false_positives = maximum_false_positives(table, &mas_witnesses);
    false_positive_record_pairs(&false_positives, table.arity(), k, fresh)
}

/// The maximum false-positive FDs of every MAS, as `(mas_index, lhs)` pairs in
/// lattice order, from caller-supplied witness rows (one row per equivalence class
/// of each MAS partition, any order). The encryptor already holds every `π_M` for
/// the SSE step and passes `rows[0]` of each class, so Step 4 never regroups the
/// table. Draws no fresh value, so the encryptor knows Step 4's output size before
/// Steps 2 and 3 run.
pub(crate) fn maximum_false_positives(
    table: &Table,
    mas_witnesses: &[(AttrSet, Vec<RowId>)],
) -> Vec<(usize, AttrSet)> {
    let mut false_positives = Vec::new();
    for (mas_index, (mas, witnesses)) in mas_witnesses.iter().enumerate() {
        let mas = *mas;
        if mas.len() < 2 {
            continue;
        }
        // Representative tuples of π_M as dense value ids: the violation check of
        // §3.4 only needs one witness row per equivalence class, and only equality
        // structure — so the lattice walk below compares the witnesses' dictionary
        // ids straight off the columnar index; no value is ever cloned or hashed.
        let columnar = table.columnar();
        let mas_attrs: Vec<usize> = mas.iter().collect();
        let rep_ids: Vec<Vec<u32>> = mas_attrs
            .iter()
            .map(|&a| {
                let ids = columnar.column(a).ids();
                witnesses.iter().map(|&r| ids[r]).collect()
            })
            .collect();
        let position_of: HashMap<usize, usize> =
            mas_attrs.iter().enumerate().map(|(p, &a)| (a, p)).collect();

        let lattice = FdLattice::new(mas);
        // The same LHS is probed once per RHS outside it; cache its refinement so
        // each distinct LHS is grouped exactly once per MAS. The witness scan per
        // node uses one reusable dense array (group ids are dense by construction).
        let mut lhs_cache: FastMap<u64, Vec<u32>> = FastMap::default();
        let mut witness_scratch: Vec<u32> = Vec::new();
        let violated_nodes = lattice.find_maximum_false_positives(|lhs, rhs| {
            let group_of = lhs_cache
                .entry(lhs.bits())
                .or_insert_with(|| lhs_groups(&rep_ids, &position_of, lhs));
            rhs_disagrees_within_groups(group_of, &rep_ids[position_of[&rhs]], &mut witness_scratch)
        });
        false_positives.extend(violated_nodes.into_iter().map(|node| (mas_index, node.lhs)));
    }
    false_positives
}

/// The `k` artificial record pairs of arity `arity` that eliminate each of
/// `false_positives` (from [`maximum_false_positives`]), over fresh values.
pub(crate) fn false_positive_record_pairs(
    false_positives: &[(usize, AttrSet)],
    arity: usize,
    k: usize,
    fresh: &mut FreshValueGenerator,
) -> FpPlan {
    let mut plan = FpPlan { pairs: Vec::new(), max_false_positives: false_positives.len() };
    for &(mas_index, lhs) in false_positives {
        for _ in 0..k {
            // Shared fresh values on X; everything else fresh and distinct.
            let mut shared: Vec<Option<Value>> = vec![None; arity];
            for a in lhs.iter() {
                shared[a] = Some(fresh.next_value());
            }
            let make_row = |fresh: &mut FreshValueGenerator| {
                (0..arity)
                    .map(|a| shared[a].clone().unwrap_or_else(|| fresh.next_value()))
                    .collect::<Vec<Value>>()
            };
            let row1 = make_row(fresh);
            let row2 = make_row(fresh);
            plan.pairs.push(FpRecordPair { mas_index, shared_attrs: lhs, row1, row2 });
        }
    }
    plan
}

/// Does there exist a pair of equivalence classes agreeing on `lhs` but differing on
/// `rhs`? (I.e. is the FD `lhs → rhs` violated among the class representatives?)
///
/// `rep_ids` is position-major: `rep_ids[p][c]` is the interned value id of class
/// `c`'s representative at MAS position `p`. The check refines classes into LHS
/// groups by folding one position at a time through `(group, id)` integer keys —
/// the same linearisation the partition core uses — and reports a violation as soon
/// as one group sees two distinct RHS ids.
#[cfg(test)]
fn violated_among_representatives(
    rep_ids: &[Vec<u32>],
    position_of: &HashMap<usize, usize>,
    lhs: AttrSet,
    rhs: usize,
) -> bool {
    let group_of = lhs_groups(rep_ids, position_of, lhs);
    rhs_disagrees_within_groups(&group_of, &rep_ids[position_of[&rhs]], &mut Vec::new())
}

/// Dense `class → LHS-group` labelling: classes share a group iff their
/// representatives agree on every LHS position (the partition core's pairwise
/// refinement linearisation over integer keys).
fn lhs_groups(rep_ids: &[Vec<u32>], position_of: &HashMap<usize, usize>, lhs: AttrSet) -> Vec<u32> {
    let mut lhs_pos = lhs.iter().map(|a| position_of[&a]);
    let t = rep_ids.first().map_or(0, Vec::len);
    let Some(first) = lhs_pos.next() else {
        // Empty LHS: all classes share one group.
        return vec![0; t];
    };
    let mut group_of: Vec<u32> = rep_ids[first].clone();
    for p in lhs_pos {
        let ids = &rep_ids[p];
        let mut map: FastMap<u64, u32> = fast_map_with_capacity(t);
        let mut next = 0u32;
        for c in 0..t {
            let key = (u64::from(group_of[c]) << 32) | u64::from(ids[c]);
            group_of[c] = *map.entry(key).or_insert_with(|| {
                let g = next;
                next += 1;
                g
            });
        }
    }
    group_of
}

/// Does some LHS group contain two classes with different RHS ids? `witness` is a
/// caller-owned dense scratch (group ids are dense), re-filled per call.
fn rhs_disagrees_within_groups(group_of: &[u32], rhs_ids: &[u32], witness: &mut Vec<u32>) -> bool {
    // One RHS witness per LHS group; a second, different witness is a violation.
    const UNSEEN: u32 = u32::MAX;
    let groups = group_of.iter().copied().max().map_or(0, |g| g as usize + 1);
    witness.clear();
    witness.resize(groups, UNSEEN);
    for (c, &g) in group_of.iter().enumerate() {
        let slot = &mut witness[g as usize];
        if *slot == UNSEEN {
            // RHS ids are dictionary/interned ids well below the sentinel.
            *slot = rhs_ids[c];
        } else if *slot != rhs_ids[c] {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::table;

    #[test]
    fn figure4_example_produces_pairs() {
        // Figure 4(a): A → B does not hold in D ({a1,b1} vs {a1,b2} collide on A), so it
        // is a false positive after Steps 1–3 and must be eliminated with k pairs.
        let t = table! {
            ["A", "B"];
            ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"],
            ["a2", "b3"], ["a2", "b3"],
            ["a1", "b2"], ["a1", "b2"], ["a1", "b2"], ["a1", "b2"],
            ["a2", "b4"], ["a2", "b4"], ["a2", "b4"],
        };
        let mas = AttrSet::all(2);
        let mut fresh = FreshValueGenerator::for_table(&t);
        let k = 3;
        let plan = plan_false_positive_elimination(&t, &[mas], k, &mut fresh);
        // A → B is violated in D (a1 maps to both b1 and b2) while B → A holds, so
        // exactly one maximum false positive is eliminated with k pairs.
        assert_eq!(plan.max_false_positives, 1);
        assert_eq!(plan.pairs.len(), k);
        assert_eq!(plan.record_count(), 2 * k);
        for pair in &plan.pairs {
            // Shared on X, different on the rest, all values fresh.
            for a in pair.shared_attrs.iter() {
                assert_eq!(pair.row1[a], pair.row2[a]);
            }
            let other: Vec<usize> = (0..2).filter(|a| !pair.shared_attrs.contains(*a)).collect();
            for a in other {
                assert_ne!(pair.row1[a], pair.row2[a]);
            }
            for v in pair.row1.iter().chain(pair.row2.iter()) {
                assert!(matches!(v, Value::Text(s) if s.starts_with(crate::fake::FAKE_PREFIX)));
                assert!(!t.all_values().contains(v));
            }
        }
    }

    #[test]
    fn true_fds_are_not_eliminated() {
        // Zip → City holds, so the node Zip : City must NOT trigger artificial records;
        // Name-related FDs (violated) must.
        let t = table! {
            ["Zip", "City"];
            ["07030", "Hoboken"],
            ["07030", "Hoboken"],
            ["10001", "NewYork"],
            ["10001", "NewYork"],
        };
        let mas = AttrSet::all(2);
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = plan_false_positive_elimination(&t, &[mas], 2, &mut fresh);
        // Both Zip → City and City → Zip hold in this instance, so no false positives.
        assert_eq!(plan.max_false_positives, 0);
        assert!(plan.pairs.is_empty());
    }

    #[test]
    fn theorem_3_6_lower_bound() {
        // With one MAS whose ECs have collisions, at least 2k artificial records are
        // added (Theorem 3.6 lower bound).
        let t = table! {
            ["A", "B"];
            ["x", "1"], ["x", "1"],
            ["x", "2"], ["x", "2"],
        };
        let k = 4;
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = plan_false_positive_elimination(&t, &[AttrSet::all(2)], k, &mut fresh);
        assert!(plan.record_count() >= 2 * k);
    }

    #[test]
    fn single_attribute_mas_is_skipped() {
        let t = table! {
            ["A", "B"];
            ["x", "1"], ["x", "2"], ["y", "3"],
        };
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = plan_false_positive_elimination(&t, &[AttrSet::single(0)], 3, &mut fresh);
        assert_eq!(plan.max_false_positives, 0);
    }

    #[test]
    fn violation_check() {
        // Classes (a1,b1), (a1,b2), (a2,b3) interned position-major.
        let reps = [
            vec![Value::text("a1"), Value::text("b1")],
            vec![Value::text("a1"), Value::text("b2")],
            vec![Value::text("a2"), Value::text("b3")],
        ];
        let rep_ids: Vec<Vec<u32>> = (0..2)
            .map(|p| f2_relation::columnar::intern_values(reps.iter().map(|r| &r[p])).0)
            .collect();
        let positions: HashMap<usize, usize> = [(0usize, 0usize), (1, 1)].into_iter().collect();
        assert!(violated_among_representatives(&rep_ids, &positions, AttrSet::single(0), 1));
        assert!(!violated_among_representatives(&rep_ids, &positions, AttrSet::single(1), 0));
    }
}
