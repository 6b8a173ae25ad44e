//! Step 2.2 — choosing the optimal split point and the scaling targets (§3.2.2).
//!
//! Within one ECG (classes sorted by ascending size `f₁ ≤ … ≤ f_k`) the scheme picks a
//! *split point* `j`: classes before `j` are not split, classes from `j` on are split
//! into up to ϖ ciphertext instances. Afterwards the scaling phase pads every instance
//! with copies until all instances of the group share the same frequency `T`. The split
//! point is chosen to minimise the number of copies added (the paper's cases R₁/R₂);
//! we evaluate the cost of every candidate `j` directly, which is O(k²) for a group of
//! `k` classes and subsumes both cases.
//!
//! One refinement over the paper: the effective per-class
//! split factor is capped so that every instance of a class of size ≥ 2 keeps at least
//! `min_real_rows` original rows. This preserves the witnesses of FD violations for
//! attributes outside the MAS, which the paper's Theorem 3.7 argument needs.

/// The split-and-scale plan for one ECG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// Index of the first member that is split (members are ordered by ascending size).
    pub split_point: usize,
    /// The homogenised frequency every ciphertext instance reaches after scaling.
    pub target_frequency: usize,
    /// Per-member plans, in the same order as the ECG members.
    pub members: Vec<MemberSplit>,
}

/// How one equivalence class is split and scaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberSplit {
    /// Frequencies of the ciphertext instances before scaling (they sum to the class
    /// size — Requirement 1 of Definition 3.1).
    pub instance_frequencies: Vec<usize>,
    /// Copies added to each instance by the scaling phase.
    pub copies: Vec<usize>,
}

impl MemberSplit {
    /// Number of ciphertext instances for the class.
    pub fn instance_count(&self) -> usize {
        self.instance_frequencies.len()
    }

    /// Total copies added for this class.
    pub fn total_copies(&self) -> usize {
        self.copies.iter().sum()
    }
}

impl SplitPlan {
    /// Total number of copies the scaling phase adds for the whole ECG.
    pub fn total_copies(&self) -> usize {
        self.members.iter().map(MemberSplit::total_copies).sum()
    }
}

/// Split `size` tuples into `parts` instances as evenly as possible.
fn even_split(size: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1).min(size.max(1));
    let base = size / parts;
    let rem = size % parts;
    (0..parts).map(|i| if i < rem { base + 1 } else { base }).filter(|&f| f > 0).collect()
}

/// The effective split factor for a class of the given size.
fn effective_split(size: usize, split_factor: usize, min_real_rows: usize) -> usize {
    if size < 2 {
        return 1;
    }
    let cap = (size / min_real_rows.max(1)).max(1);
    split_factor.min(cap).max(1)
}

/// Compute the optimal split plan for an ECG whose member sizes (ascending) are given.
pub fn plan_split(sizes: &[usize], split_factor: usize, min_real_rows: usize) -> SplitPlan {
    assert!(!sizes.is_empty(), "an ECG has at least one member");
    debug_assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "sizes must be ascending");
    let k = sizes.len();
    // Candidate costs are evaluated arithmetically: splitting member `i` into `wᵢ`
    // even parts yields `wᵢ` instances with maximum `⌈fᵢ/wᵢ⌉` and sum `fᵢ`, so for a
    // split point `j` the scaling cost is `target × instance_count − Σf` without
    // materialising any frequency vector. (The former implementation rebuilt every
    // candidate's `Vec<Vec<usize>>`, O(k²) allocations per ECG.)
    let total: usize = sizes.iter().sum();
    let splits: Vec<(usize, usize)> = sizes
        .iter()
        .map(|&f| {
            if f == 0 {
                // even_split(0, ·) filters the zero instance away entirely.
                (0, 0)
            } else if split_factor > 1 {
                let w = effective_split(f, split_factor, min_real_rows);
                let parts = w.max(1).min(f);
                (parts, f.div_ceil(parts))
            } else {
                (1, f)
            }
        })
        .collect();
    // Suffix aggregates over the split variants (members ≥ j are split).
    let mut suffix_count = vec![0usize; k + 1];
    let mut suffix_max = vec![0usize; k + 1];
    for i in (0..k).rev() {
        suffix_count[i] = suffix_count[i + 1] + splits[i].0;
        suffix_max[i] = suffix_max[i + 1].max(splits[i].1);
    }
    let mut best: Option<(usize, usize)> = None; // (cost, j)
                                                 // j = k means "split nothing"; j = 0 means "split everything".
    for j in (0..=k).rev() {
        // Members i < j stay unsplit: sizes are ascending, so their max is sizes[j-1].
        let unsplit_max = if j > 0 { sizes[j - 1] } else { 0 };
        let target = unsplit_max.max(suffix_max[j]);
        let count = j + suffix_count[j];
        let cost = target * count - total;
        // Prefer lower cost; on ties prefer the smaller split point (more splitting),
        // which lowers the homogenised frequency at no extra cost — strictly better for
        // frequency hiding.
        let better = match &best {
            None => true,
            Some((best_cost, _)) => cost <= *best_cost,
        };
        if better {
            best = Some((cost, j));
        }
    }
    let (_, j) = best.expect("at least one candidate evaluated");
    // Materialise only the winning candidate.
    let freqs: Vec<Vec<usize>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            if i >= j && split_factor > 1 {
                even_split(f, effective_split(f, split_factor, min_real_rows))
            } else {
                vec![f]
            }
        })
        .collect();
    let target = freqs.iter().flatten().copied().max().unwrap_or(0);
    let members = freqs
        .into_iter()
        .map(|instance_frequencies| {
            let copies = instance_frequencies.iter().map(|&f| target - f).collect();
            MemberSplit { instance_frequencies, copies }
        })
        .collect();
    SplitPlan { split_point: j, target_frequency: target, members }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn even_split_distributes_remainder() {
        assert_eq!(even_split(7, 2), vec![4, 3]);
        assert_eq!(even_split(6, 3), vec![2, 2, 2]);
        assert_eq!(even_split(5, 10), vec![1, 1, 1, 1, 1]);
        assert_eq!(even_split(1, 3), vec![1]);
        assert_eq!(even_split(0, 3), Vec::<usize>::new());
    }

    #[test]
    fn effective_split_respects_min_real_rows() {
        assert_eq!(effective_split(10, 4, 2), 4);
        assert_eq!(effective_split(6, 4, 2), 3);
        assert_eq!(effective_split(3, 4, 2), 1);
        assert_eq!(effective_split(2, 4, 2), 1);
        assert_eq!(effective_split(1, 4, 2), 1);
        assert_eq!(effective_split(10, 4, 1), 4);
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4: ECG1 = {C2 (2), C1 (5)} with ϖ = 2 (min_real_rows relaxed to 1 to
        // mirror the paper exactly): C1 splits into 3+2... the paper shows frequencies
        // homogenised at 3 with instances (3,3) for C1 and 3 for C2 after scaling.
        let plan = plan_split(&[2, 5], 2, 1);
        assert_eq!(plan.target_frequency, 3);
        // Member 0 (size 2): one instance of 2, scaled to 3 → 1 copy.
        assert_eq!(plan.members[0].instance_frequencies, vec![2]);
        assert_eq!(plan.members[0].copies, vec![1]);
        // Member 1 (size 5): split into (3, 2), scaled to 3 → 1 copy.
        assert_eq!(plan.members[1].instance_frequencies, vec![3, 2]);
        assert_eq!(plan.members[1].copies, vec![0, 1]);
        assert_eq!(plan.total_copies(), 2);
    }

    #[test]
    fn no_split_factor_means_pure_scaling() {
        let plan = plan_split(&[1, 2, 5], 1, 2);
        assert_eq!(plan.target_frequency, 5);
        assert_eq!(plan.total_copies(), (5 - 1) + (5 - 2));
        assert!(plan.members.iter().all(|m| m.instance_count() == 1));
    }

    #[test]
    fn splitting_reduces_copies_for_skewed_groups() {
        // Sizes 1,1,1,9 with ϖ=3: without splitting we would add 3×8 = 24 copies;
        // splitting the large class into 3×3 adds only 3×2 = 6.
        let no_split = plan_split(&[1, 1, 1, 9], 1, 1);
        let with_split = plan_split(&[1, 1, 1, 9], 3, 1);
        assert!(with_split.total_copies() < no_split.total_copies());
        assert_eq!(with_split.target_frequency, 3);
    }

    #[test]
    fn requirement_1_frequencies_sum_to_class_size() {
        let sizes = vec![1, 2, 3, 8, 13];
        let plan = plan_split(&sizes, 4, 2);
        for (i, m) in plan.members.iter().enumerate() {
            assert_eq!(m.instance_frequencies.iter().sum::<usize>(), sizes[i]);
        }
    }

    #[test]
    fn singleton_group() {
        let plan = plan_split(&[4], 2, 2);
        assert_eq!(plan.target_frequency, 2);
        assert_eq!(plan.members[0].instance_frequencies, vec![2, 2]);
        assert_eq!(plan.total_copies(), 0);
    }

    /// The former candidate-materialising planner (every split point's frequency
    /// vectors rebuilt), kept as the equivalence oracle for the arithmetic
    /// suffix-aggregate evaluation.
    fn plan_split_oracle(sizes: &[usize], split_factor: usize, min_real_rows: usize) -> SplitPlan {
        let k = sizes.len();
        let mut best: Option<(usize, usize, Vec<Vec<usize>>)> = None;
        for j in (0..=k).rev() {
            let mut freqs: Vec<Vec<usize>> = Vec::with_capacity(k);
            for (i, &f) in sizes.iter().enumerate() {
                if i >= j && split_factor > 1 {
                    let w = effective_split(f, split_factor, min_real_rows);
                    freqs.push(even_split(f, w));
                } else {
                    freqs.push(vec![f]);
                }
            }
            let target = freqs.iter().flatten().copied().max().unwrap_or(0);
            let cost: usize = freqs.iter().flatten().map(|&f| target - f).sum();
            let better = match &best {
                None => true,
                Some((best_cost, _, _)) => cost <= *best_cost,
            };
            if better {
                best = Some((cost, j, freqs));
            }
        }
        let (_, j, freqs) = best.expect("at least one candidate evaluated");
        let target = freqs.iter().flatten().copied().max().unwrap_or(0);
        let members = freqs
            .into_iter()
            .map(|instance_frequencies| {
                let copies = instance_frequencies.iter().map(|&f| target - f).collect();
                MemberSplit { instance_frequencies, copies }
            })
            .collect();
        SplitPlan { split_point: j, target_frequency: target, members }
    }

    proptest! {
        #[test]
        fn arithmetic_cost_evaluation_matches_oracle(
            mut sizes in proptest::collection::vec(0usize..40, 1..8),
            split in 1usize..6,
            min_real in 1usize..3,
        ) {
            sizes.sort_unstable();
            let fast = plan_split(&sizes, split, min_real);
            let oracle = plan_split_oracle(&sizes, split, min_real);
            prop_assert_eq!(fast, oracle);
        }

        #[test]
        fn plan_invariants(
            mut sizes in proptest::collection::vec(1usize..40, 1..8),
            split in 1usize..6,
            min_real in 1usize..3,
        ) {
            sizes.sort_unstable();
            let plan = plan_split(&sizes, split, min_real);
            // Requirement 1: instance frequencies of each member sum to its size.
            for (i, m) in plan.members.iter().enumerate() {
                prop_assert_eq!(m.instance_frequencies.iter().sum::<usize>(), sizes[i]);
                prop_assert_eq!(m.instance_frequencies.len(), m.copies.len());
                // After scaling every instance reaches the target frequency.
                for (f, c) in m.instance_frequencies.iter().zip(m.copies.iter()) {
                    prop_assert_eq!(f + c, plan.target_frequency);
                }
                // Effective-split cap: members of size ≥ 2 keep ≥ min_real real rows
                // per instance whenever they are split at all.
                if m.instance_count() > 1 {
                    for &f in &m.instance_frequencies {
                        prop_assert!(f >= min_real);
                    }
                }
            }
            // The chosen plan is no worse than the two extremes (split all / split none).
            let split_all: usize = {
                let p = plan_split(&sizes, split, min_real);
                p.total_copies()
            };
            prop_assert!(plan.total_copies() <= split_all);
        }
    }
}
