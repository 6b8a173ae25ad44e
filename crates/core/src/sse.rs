//! Step 2 — the splitting-and-scaling encryption plan for one MAS.
//!
//! [`build_mas_plan`] turns the partition of a MAS into a list of *ciphertext
//! instances*: each instance has a plaintext value combination (real or fake), the set
//! of original rows that will carry it, and the number of artificial copies the scaling
//! phase adds. [`crate::F2Scheme`]'s `encrypt` then materialises these instances as
//! actual ciphertexts and resolves conflicts between overlapping MASs.

use crate::config::F2Config;
use crate::ecg::{ClassValues, Ecg};
use crate::fake::FreshValueGenerator;
use crate::split::plan_split;
use f2_relation::{AttrSet, Partition, RowId, Table};

/// Safety floor of the split: no equivalence class is split so far that an instance
/// keeps fewer than this many *real* rows. The paper's proof of Theorem 3.7 relies on
/// split instances still witnessing FD violations for attributes outside the MAS, and
/// two real rows per instance guarantee it; a lower floor could only weaken that.
const MIN_REAL_ROWS_PER_INSTANCE: usize = 2;

/// One ciphertext instance of a MAS plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstancePlan {
    /// Plaintext values on the MAS attributes (ascending attribute-index order):
    /// the originating ECG member's, so splitting a class into ϖ instances costs ϖ
    /// pointer bumps (or counter copies, for a fake class), not ϖ deep clones.
    pub values: ClassValues,
    /// Original rows assigned to this instance.
    pub rows: Vec<RowId>,
    /// Artificial copies added by the scaling phase (counted as SCALE overhead).
    pub scale_copies: usize,
    /// Artificial rows stemming from a fake equivalence class (counted as GROUP
    /// overhead). Fake-EC instances have no original rows.
    pub fake_rows: usize,
    /// Number of *original* rows in the equivalence class this instance was split from
    /// (used by the conflict-resolution rule: only classes with ≥ 2 original tuples can
    /// produce type-2 conflicts).
    pub ec_real_size: usize,
    /// Index of the ECG this instance belongs to.
    pub ecg_index: usize,
}

impl InstancePlan {
    /// The homogenised frequency of the instance (original rows + artificial rows).
    pub fn frequency(&self) -> usize {
        self.rows.len() + self.scale_copies + self.fake_rows
    }
}

/// The complete Step-2 plan for one MAS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasPlan {
    /// The MAS attributes.
    pub mas: AttrSet,
    /// All ciphertext instances.
    pub instances: Vec<InstancePlan>,
    /// Number of equivalence classes in the MAS partition (the paper's `t`).
    pub ec_count: usize,
    /// Number of ECGs formed.
    pub ecg_count: usize,
}

impl MasPlan {
    /// Total artificial rows this plan adds through scaling.
    pub fn scale_rows(&self) -> usize {
        self.instances.iter().map(|i| i.scale_copies).sum()
    }

    /// Total artificial rows this plan adds through fake equivalence classes.
    pub fn group_rows(&self) -> usize {
        self.instances.iter().map(|i| i.fake_rows).sum()
    }

    /// Map from original row id to the index of its instance.
    pub fn row_assignment(&self) -> std::collections::HashMap<RowId, usize> {
        let rows: usize = self.instances.iter().map(|i| i.rows.len()).sum();
        let mut map = std::collections::HashMap::with_capacity(rows);
        for (idx, inst) in self.instances.iter().enumerate() {
            for &r in &inst.rows {
                map.insert(r, idx);
            }
        }
        map
    }
}

/// Build the Step-2 plan for one MAS of the table.
pub fn build_mas_plan(
    table: &Table,
    mas: AttrSet,
    config: &F2Config,
    fresh: &mut FreshValueGenerator,
) -> MasPlan {
    build_mas_plan_from(&Partition::compute(table, mas), table.columnar(), config, fresh)
}

/// [`build_mas_plan`] over an already-computed MAS partition — the encryptor computes
/// each `π_M` once and shares it between this planner and the false-positive step.
/// The grouping step reads witness ids straight off the table's column dictionaries
/// instead of re-interning representatives.
pub fn build_mas_plan_from(
    partition: &Partition,
    columnar: &f2_relation::ColumnarIndex,
    config: &F2Config,
    fresh: &mut FreshValueGenerator,
) -> MasPlan {
    let mas = partition.attrs();
    let ec_count = partition.class_count();
    // Column-dictionary ids are value-sorted, exactly the contract the interned
    // grouping needs; the witness row of each class carries them.
    let positions: Vec<(Vec<u32>, usize)> = mas
        .iter()
        .map(|a| {
            let col = columnar.column(a);
            let ids = partition.classes().iter().map(|c| col.ids()[c.rows[0]]).collect();
            (ids, col.distinct_count())
        })
        .collect();
    let groups: Vec<Ecg> = crate::ecg::group_equivalence_classes_interned(
        partition.classes(),
        &positions,
        config.ecg_size(),
        mas.len(),
        fresh,
    );
    let mut instances = Vec::new();
    for (ecg_index, group) in groups.iter().enumerate() {
        let sizes: Vec<usize> = group.members.iter().map(|m| m.size()).collect();
        let plan = plan_split(&sizes, config.split_factor, MIN_REAL_ROWS_PER_INSTANCE);
        for (member, member_plan) in group.members.iter().zip(plan.members.iter()) {
            // Distribute the member's rows over its instances according to the planned
            // base frequencies.
            let mut cursor = 0usize;
            for (freq, &copies) in
                member_plan.instance_frequencies.iter().zip(member_plan.copies.iter())
            {
                if member.is_fake() {
                    instances.push(InstancePlan {
                        values: member.representative.clone(),
                        rows: Vec::new(),
                        scale_copies: 0,
                        fake_rows: freq + copies,
                        ec_real_size: 0,
                        ecg_index,
                    });
                } else {
                    let rows = member.rows[cursor..cursor + freq].to_vec();
                    cursor += freq;
                    instances.push(InstancePlan {
                        values: member.representative.clone(),
                        rows,
                        scale_copies: copies,
                        fake_rows: 0,
                        ec_real_size: member.rows.len(),
                        ecg_index,
                    });
                }
            }
            if !member.is_fake() {
                debug_assert_eq!(cursor, member.rows.len(), "all rows of the EC are assigned");
            }
        }
    }
    MasPlan { mas, instances, ec_count, ecg_count: groups.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::table;
    use std::collections::HashSet;

    fn figure2_like_table() -> Table {
        // Two attributes forming one MAS with several classes of different sizes.
        table! {
            ["A", "B"];
            ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"],
            ["a1x", "b2"], ["a1x", "b2"], ["a1x", "b2"], ["a1x", "b2"],
            ["a2", "b2x"], ["a2", "b2x"], ["a2", "b2x"],
            ["a2x", "b1x"], ["a2x", "b1x"],
            ["a3", "b3"], ["a3", "b3"],
        }
    }

    #[test]
    fn plan_covers_every_row_exactly_once() {
        let t = figure2_like_table();
        let config = F2Config::new(1.0 / 3.0, 2).unwrap();
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = build_mas_plan(&t, AttrSet::all(2), &config, &mut fresh);
        let mut seen = HashSet::new();
        for inst in &plan.instances {
            for &r in &inst.rows {
                assert!(seen.insert(r), "row {r} assigned twice");
            }
        }
        assert_eq!(seen.len(), t.row_count());
        assert_eq!(plan.ec_count, 5);
        assert!(plan.ecg_count >= 2);
    }

    #[test]
    fn instances_within_an_ecg_share_the_same_frequency() {
        let t = figure2_like_table();
        let config = F2Config::new(0.25, 2).unwrap();
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = build_mas_plan(&t, AttrSet::all(2), &config, &mut fresh);
        use std::collections::HashMap;
        let mut by_ecg: HashMap<usize, HashSet<usize>> = HashMap::new();
        for inst in &plan.instances {
            by_ecg.entry(inst.ecg_index).or_default().insert(inst.frequency());
        }
        for (ecg, freqs) in by_ecg {
            assert_eq!(freqs.len(), 1, "ECG {ecg} has non-homogeneous frequencies: {freqs:?}");
        }
    }

    #[test]
    fn requirement_2_instances_of_one_ec_have_distinct_assignments() {
        // Instances originating from the same EC must be distinct ciphertexts; at the
        // plan level this means their row sets are disjoint (checked above) and each
        // instance will get its own nonce during assembly. Here we check the plan keeps
        // the per-EC real size so the encryptor can enforce Requirement 2.
        let t = figure2_like_table();
        let config = F2Config::new(0.5, 3).unwrap();
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = build_mas_plan(&t, AttrSet::all(2), &config, &mut fresh);
        for inst in &plan.instances {
            if !inst.rows.is_empty() {
                assert!(inst.ec_real_size >= inst.rows.len());
            }
        }
    }

    #[test]
    fn overhead_accounting() {
        let t = figure2_like_table();
        let config = F2Config::new(0.2, 2).unwrap(); // k = 5 forces fake ECs
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = build_mas_plan(&t, AttrSet::all(2), &config, &mut fresh);
        // 5 real classes, k = 5 → at least one group, possibly with fakes if collisions
        // prevent grouping all five together. Either way accounting must be consistent.
        let total_rows: usize = plan.instances.iter().map(|i| i.rows.len()).sum();
        assert_eq!(total_rows, t.row_count());
        let artificial: usize = plan.group_rows() + plan.scale_rows();
        let freq_sum: usize = plan.instances.iter().map(|i| i.frequency()).sum();
        assert_eq!(freq_sum, total_rows + artificial);
    }

    #[test]
    fn alpha_one_gives_no_fakes() {
        let t = figure2_like_table();
        let config = F2Config::new(1.0, 1).unwrap();
        let mut fresh = FreshValueGenerator::for_table(&t);
        let plan = build_mas_plan(&t, AttrSet::all(2), &config, &mut fresh);
        assert_eq!(plan.group_rows(), 0);
        assert_eq!(plan.scale_rows(), 0);
        // With ϖ = 1 and k = 1 every EC maps to exactly one instance.
        assert_eq!(plan.instances.len(), plan.ec_count);
    }
}
