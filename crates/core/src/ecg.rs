//! Step 2.1 — grouping of equivalence classes into ECGs (§3.2.1).
//!
//! Every equivalence class of a MAS partition is placed into exactly one *equivalence
//! class group* (ECG). To provide α-security each ECG must contain at least
//! `k = ⌈1/α⌉` classes, and for security under Kerckhoffs's principle the classes of a
//! group must be pairwise **collision-free**: no two of them share a value on any MAS
//! attribute (Definition 3.4). Classes of similar size are grouped together to minimise
//! the copies the scaling phase has to add; when not enough collision-free classes are
//! available, *fake* classes with values that do not exist in the dataset are added.
//!
//! A fake class holds no values, only the [`FakeRun`] of fresh-value counters the
//! generator issued for it ([`ClassValues::Fake`]); its values are encoded when its
//! ciphertexts are made. Fresh values collide with nothing, so no collision test
//! ever reads them.

use crate::fake::{FakeRun, FreshValueGenerator, FRESH_ENCODED_LEN};
use f2_relation::{EquivalenceClass, RowId, Value};
use std::sync::Arc;

/// The values of an equivalence class on its MAS attributes, in ascending
/// attribute-index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassValues {
    /// A real class's representative tuple, shared (`Arc`) with its partition class,
    /// so grouping and the split planner hand the same tuple to every derived
    /// instance without per-instance clones.
    Real(Arc<Vec<Value>>),
    /// A fake class's fresh values, as the counters the generator issued for them.
    Fake(FakeRun),
}

impl ClassValues {
    /// Append the [`Value::encode`] bytes of the value at MAS position `pos` to `out`;
    /// `fresh` is the generator that issued a fake class's run.
    pub(crate) fn encode_into(&self, pos: usize, fresh: &FreshValueGenerator, out: &mut Vec<u8>) {
        match self {
            ClassValues::Real(values) => values[pos].encode_into(out),
            ClassValues::Fake(run) => fresh.encode_run_value(*run, pos, out),
        }
    }

    /// [`Value::encode`] length of the value at MAS position `pos`; exact for a fake
    /// class while its counters are below 2³².
    pub(crate) fn encoded_len(&self, pos: usize) -> usize {
        match self {
            ClassValues::Real(values) => values[pos].encoded_len(),
            ClassValues::Fake(_) => FRESH_ENCODED_LEN,
        }
    }

    /// The real representative tuple, or `None` for a fake class.
    pub(crate) fn real(&self) -> Option<&[Value]> {
        match self {
            ClassValues::Real(values) => Some(values),
            ClassValues::Fake(_) => None,
        }
    }
}

/// One member of an ECG: either a real equivalence class or a fake one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcEntry {
    /// The class's values on the MAS attributes.
    pub representative: ClassValues,
    /// The original rows belonging to the class (empty for fake classes).
    pub rows: Vec<RowId>,
    /// Size of the class when it is fake (real classes use `rows.len()`).
    fake_size: usize,
}

impl EcEntry {
    /// Build an entry from a real equivalence class.
    pub fn real(class: &EquivalenceClass) -> Self {
        EcEntry {
            representative: ClassValues::Real(class.representative.clone()),
            rows: class.rows.clone(),
            fake_size: 0,
        }
    }

    /// Build a fake entry of the given size over `attr_count` fresh values.
    pub fn fake(size: usize, attr_count: usize, fresh: &mut FreshValueGenerator) -> Self {
        EcEntry {
            representative: ClassValues::Fake(fresh.next_run(attr_count)),
            rows: Vec::new(),
            fake_size: size.max(1),
        }
    }

    /// Number of (real or virtual) tuples in the class — the paper's frequency `f`.
    pub fn size(&self) -> usize {
        if self.is_fake() {
            self.fake_size
        } else {
            self.rows.len()
        }
    }

    /// True if the entry is a fake class added by grouping.
    pub fn is_fake(&self) -> bool {
        matches!(self.representative, ClassValues::Fake(_))
    }

    /// Collision test (Definition 3.4): two classes collide if they share a value on
    /// any single attribute position. A fake class's values are fresh, so it
    /// collides with no other class.
    pub fn collides_with(&self, other: &EcEntry) -> bool {
        match (self.representative.real(), other.representative.real()) {
            (Some(a), Some(b)) => a.iter().zip(b).any(|(x, y)| x == y),
            _ => false,
        }
    }
}

/// An equivalence class group.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ecg {
    /// Members, sorted by ascending size.
    pub members: Vec<EcEntry>,
}

impl Ecg {
    /// Number of member classes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of fake member classes.
    pub fn fake_members(&self) -> usize {
        self.members.iter().filter(|m| m.is_fake()).count()
    }

    /// True if all members are pairwise collision-free.
    pub fn is_collision_free(&self) -> bool {
        for i in 0..self.members.len() {
            for j in (i + 1)..self.members.len() {
                if self.members[i].collides_with(&self.members[j]) {
                    return false;
                }
            }
        }
        true
    }
}

/// Group the equivalence classes of one MAS partition into collision-free ECGs of at
/// least `k` members each, adding fake classes where necessary.
///
/// The collision structure is resolved through **per-attribute inverted indexes over
/// interned value ids**: every class's representative values are interned to dense
/// ids once, each (attribute, id) bucket lists the classes carrying that value, and
/// "collides with some group member" becomes an epoch-stamped bucket-membership
/// check — O(1) per candidate — instead of the former O(|group| × |MAS|) pairwise
/// value comparison. Grouping is near-linear in the class count plus the number of
/// value collisions; the greedy assignment (and therefore the output) is identical
/// to [`group_equivalence_classes_generic`], the retained quadratic oracle.
pub fn group_equivalence_classes(
    classes: &[EquivalenceClass],
    k: usize,
    attr_count: usize,
    fresh: &mut FreshValueGenerator,
) -> Vec<Ecg> {
    // Intern every representative position: rep_ids[p][c] is the dense id of class
    // c's value on MAS position p, ids assigned in ascending Value order so id
    // comparisons order exactly like value comparisons.
    let positions: Vec<(Vec<u32>, usize)> = (0..attr_count)
        .map(|p| {
            let (ids, dict) =
                f2_relation::columnar::intern_values(classes.iter().map(|c| &c.representative[p]));
            (ids, dict.len())
        })
        .collect();
    group_equivalence_classes_interned(classes, &positions, k, attr_count, fresh)
}

/// [`group_equivalence_classes`] with caller-supplied per-position value ids
/// (`positions[p] = (ids, id_bound)` where `ids[c]` is class `c`'s value id at MAS
/// position `p` and every id is `< id_bound`). Ids must order like the values they
/// stand for — the table's column-dictionary ids do, so the SSE planner passes
/// witness ids straight off the columnar index instead of re-interning
/// representatives.
pub fn group_equivalence_classes_interned(
    classes: &[EquivalenceClass],
    positions: &[(Vec<u32>, usize)],
    k: usize,
    attr_count: usize,
    fresh: &mut FreshValueGenerator,
) -> Vec<Ecg> {
    assert!(k >= 1, "ECG size must be at least 1");
    let t = classes.len();
    // Inverted index: per position, value id → classes carrying that value, in a
    // flat counting-sort layout (offsets + one class array, no per-bucket Vec).
    let buckets: Vec<(Vec<u32>, Vec<u32>)> = positions
        .iter()
        .map(|(ids, distinct)| {
            let mut offsets = vec![0u32; *distinct + 1];
            for &id in ids {
                offsets[id as usize + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
            let mut flat = vec![0u32; ids.len()];
            let mut cursor = offsets.clone();
            for (c, &id) in ids.iter().enumerate() {
                let slot = &mut cursor[id as usize];
                flat[*slot as usize] = c as u32;
                *slot += 1;
            }
            (offsets, flat)
        })
        .collect();

    // Sort by ascending size (ties broken by representative for determinism; the
    // interned id tuples compare identically to the representatives). Keys are laid
    // out flat so the comparator is a size compare plus one slice compare.
    let mut keys: Vec<u32> = Vec::with_capacity(t * attr_count);
    for c in 0..t {
        keys.extend(positions.iter().map(|(ids, _)| ids[c]));
    }
    let mut order: Vec<usize> = (0..t).collect();
    order.sort_unstable_by(|&a, &b| {
        classes[a].size().cmp(&classes[b].size()).then_with(|| {
            keys[a * attr_count..(a + 1) * attr_count]
                .cmp(&keys[b * attr_count..(b + 1) * attr_count])
        })
    });

    let mut assigned = vec![false; t];
    // blocked[c] == epoch ⇔ class c shares a value with a member of the group
    // currently being assembled.
    let mut blocked: Vec<u32> = vec![0; t];
    let mut epoch: u32 = 0;
    let block_for = |member: usize, epoch: u32, blocked: &mut Vec<u32>| {
        for ((ids, _), (offsets, flat)) in positions.iter().zip(&buckets) {
            let id = ids[member] as usize;
            for &c in &flat[offsets[id] as usize..offsets[id + 1] as usize] {
                blocked[c as usize] = epoch;
            }
        }
    };
    let mut open = OpenClasses {
        live: buckets
            .iter()
            .map(|(offsets, _)| offsets.windows(2).map(|w| w[1] - w[0]).collect())
            .collect(),
        unassigned: t,
        open: vec![0; positions.len()],
    };
    let mut groups = Vec::new();
    for (pos, &start) in order.iter().enumerate() {
        if assigned[start] {
            continue;
        }
        let mut group = Ecg { members: vec![EcEntry::real(&classes[start])] };
        assigned[start] = true;
        open.begin_group();
        // Greedily add the closest-size collision-free classes.
        if open.admit(positions, start) && k > 1 {
            epoch += 1;
            block_for(start, epoch, &mut blocked);
            for &cand in order.iter().skip(pos + 1) {
                if assigned[cand] || blocked[cand] == epoch {
                    continue;
                }
                group.members.push(EcEntry::real(&classes[cand]));
                assigned[cand] = true;
                if !open.admit(positions, cand) || group.len() >= k {
                    break;
                }
                block_for(cand, epoch, &mut blocked);
            }
        }
        // Pad with fake classes of the group's minimum size.
        let min_size = group.members.iter().map(EcEntry::size).min().unwrap_or(1);
        while group.len() < k {
            group.members.push(EcEntry::fake(min_size, attr_count, fresh));
        }
        // Keep members sorted by size (split-point selection expects ascending order).
        group.members.sort_by_key(EcEntry::size);
        groups.push(group);
    }
    groups
}

/// The classes that could still join the group under assembly, counted per MAS
/// position: `open[p]` is the number of unassigned classes whose value at position
/// `p` no member holds. Once it is 0 at some position, every unassigned class
/// collides with the group there, so the scan for members can stop early with the
/// same result.
struct OpenClasses {
    /// `live[p][id]`: unassigned classes carrying value `id` at position `p`.
    live: Vec<Vec<u32>>,
    unassigned: usize,
    open: Vec<usize>,
}

impl OpenClasses {
    /// Start a group: no member holds any value yet.
    fn begin_group(&mut self) {
        self.open.fill(self.unassigned);
    }

    /// Admit class `m`, unassigned and colliding with no member, to the group: it
    /// leaves the unassigned classes, and every class sharing one of its values is
    /// no longer open at that position. True while another class could still join.
    fn admit(&mut self, positions: &[(Vec<u32>, usize)], m: usize) -> bool {
        self.unassigned -= 1;
        for ((ids, _), (live, open)) in
            positions.iter().zip(self.live.iter_mut().zip(&mut self.open))
        {
            let id = ids[m] as usize;
            *open -= live[id] as usize;
            live[id] -= 1;
        }
        self.open.iter().all(|&o| o > 0)
    }
}

/// The original O(t²) pairwise-scan implementation, retained as the equivalence
/// oracle for the inverted-index path (see `crates/core/tests/interned_plan_equiv.rs`).
pub fn group_equivalence_classes_generic(
    classes: &[EquivalenceClass],
    k: usize,
    attr_count: usize,
    fresh: &mut FreshValueGenerator,
) -> Vec<Ecg> {
    assert!(k >= 1, "ECG size must be at least 1");
    // Sort by ascending size (ties broken by representative for determinism).
    let mut order: Vec<usize> = (0..classes.len()).collect();
    order.sort_by(|&a, &b| {
        classes[a]
            .size()
            .cmp(&classes[b].size())
            .then_with(|| classes[a].representative.cmp(&classes[b].representative))
    });
    let mut assigned = vec![false; classes.len()];
    let mut groups = Vec::new();
    for (pos, &start) in order.iter().enumerate() {
        if assigned[start] {
            continue;
        }
        let mut group = Ecg { members: vec![EcEntry::real(&classes[start])] };
        assigned[start] = true;
        // Greedily add the closest-size collision-free classes.
        if k > 1 {
            for &cand in order.iter().skip(pos + 1) {
                if group.len() >= k {
                    break;
                }
                if assigned[cand] {
                    continue;
                }
                let entry = EcEntry::real(&classes[cand]);
                if group.members.iter().all(|m| !m.collides_with(&entry)) {
                    group.members.push(entry);
                    assigned[cand] = true;
                }
            }
        }
        // Pad with fake classes of the group's minimum size.
        let min_size = group.members.iter().map(EcEntry::size).min().unwrap_or(1);
        while group.len() < k {
            group.members.push(EcEntry::fake(min_size, attr_count, fresh));
        }
        // Keep members sorted by size (split-point selection expects ascending order).
        group.members.sort_by_key(EcEntry::size);
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::Value;

    fn ec(rep: &[&str], rows: &[usize]) -> EquivalenceClass {
        EquivalenceClass {
            representative: Arc::new(rep.iter().map(|s| Value::text(*s)).collect()),
            rows: rows.to_vec(),
        }
    }

    /// The five classes of Figure 2.
    fn figure2_classes() -> Vec<EquivalenceClass> {
        vec![
            ec(&["a1", "b1"], &[0, 3, 4, 6, 11]),
            ec(&["a1", "b2"], &[1, 5, 7, 13]),
            ec(&["a2", "b2"], &[2, 8, 15]),
            ec(&["a2", "b1"], &[9, 10]),
            ec(&["a3", "b3"], &[12, 14]),
        ]
    }

    #[test]
    fn figure2_grouping_with_one_third_security() {
        // α = 1/3 → k = 3. The paper groups {C1, C3, fake} and {C2, C4, C5}.
        let classes = figure2_classes();
        let mut fresh = FreshValueGenerator::new();
        let groups = group_equivalence_classes(&classes, 3, 2, &mut fresh);
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert!(g.len() >= 3, "each ECG must have at least k classes");
            assert!(g.is_collision_free(), "ECG members must be collision-free");
        }
        // Exactly one fake class is needed in total (5 real classes → 6 slots).
        let fakes: usize = groups.iter().map(Ecg::fake_members).sum();
        assert_eq!(fakes, 1);
        // C1 = (a1,b1) and C2 = (a1,b2) must not share a group (collision on a1);
        // likewise C2/C3 (b2) and C3/C4 (a2).
        for g in &groups {
            let reps: Vec<&[Value]> =
                g.members.iter().filter_map(|m| m.representative.real()).collect();
            for i in 0..reps.len() {
                for j in (i + 1)..reps.len() {
                    assert!(
                        reps[i].iter().zip(reps[j].iter()).all(|(a, b)| a != b),
                        "collision inside an ECG"
                    );
                }
            }
        }
    }

    #[test]
    fn every_class_is_assigned_exactly_once() {
        let classes = figure2_classes();
        let mut fresh = FreshValueGenerator::new();
        let groups = group_equivalence_classes(&classes, 2, 2, &mut fresh);
        let mut all_rows: Vec<usize> =
            groups.iter().flat_map(|g| g.members.iter().flat_map(|m| m.rows.clone())).collect();
        all_rows.sort_unstable();
        assert_eq!(all_rows, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn k_equal_one_means_singleton_groups_without_fakes() {
        let classes = figure2_classes();
        let mut fresh = FreshValueGenerator::new();
        let groups = group_equivalence_classes(&classes, 1, 2, &mut fresh);
        assert_eq!(groups.len(), classes.len());
        assert!(groups.iter().all(|g| g.fake_members() == 0));
        assert_eq!(fresh.issued(), 0);
    }

    #[test]
    fn colliding_classes_force_fakes() {
        // All classes share value "x" on attribute 0 → no two can share a group.
        let classes =
            vec![ec(&["x", "1"], &[0, 1]), ec(&["x", "2"], &[2, 3]), ec(&["x", "3"], &[4, 5, 6])];
        let mut fresh = FreshValueGenerator::new();
        let groups = group_equivalence_classes(&classes, 2, 2, &mut fresh);
        assert_eq!(groups.len(), 3);
        for g in &groups {
            assert_eq!(g.len(), 2);
            assert_eq!(g.fake_members(), 1);
            assert!(g.is_collision_free());
            // The fake class copies the group's minimum size.
            let real_size = g.members.iter().find(|m| !m.is_fake()).unwrap().size();
            let fake_size = g.members.iter().find(|m| m.is_fake()).unwrap().size();
            assert_eq!(fake_size, real_size);
        }
    }

    #[test]
    fn members_are_sorted_by_size() {
        let classes = figure2_classes();
        let mut fresh = FreshValueGenerator::new();
        for g in group_equivalence_classes(&classes, 3, 2, &mut fresh) {
            let sizes: Vec<usize> = g.members.iter().map(EcEntry::size).collect();
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            assert_eq!(sizes, sorted);
        }
    }

    #[test]
    fn fake_entry_properties() {
        let mut fresh = FreshValueGenerator::new();
        let fake = EcEntry::fake(4, 3, &mut fresh);
        assert!(fake.is_fake());
        assert_eq!(fake.size(), 4);
        assert_eq!(fresh.issued(), 3);
        assert_eq!(fake.representative.real(), None);
        let mut out = Vec::new();
        fake.representative.encode_into(2, &fresh, &mut out);
        let mut third = FreshValueGenerator::new();
        third.next_run(2);
        assert_eq!(out, third.next_value().encode());
        let real = EcEntry::real(&ec(&["a"], &[7]));
        assert!(!real.is_fake());
        assert_eq!(real.size(), 1);
        assert!(!fake.collides_with(&real));
        assert!(real.collides_with(&real));
    }
}
