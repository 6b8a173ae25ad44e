//! Synthetic dataset with a controlled MAS structure (Table 1, "Synthetic").
//!
//! The paper's synthetic dataset has 7 attributes and exactly two MASs that overlap at
//! one attribute; its distinguishing property is a *very large number of equivalence
//! classes* (up to ~1 M), which makes the splitting-and-scaling step dominate the
//! encryption time (Figures 6(a) and 7(a)). This generator reproduces that structure:
//!
//! * attributes `S0,S1,S2` form the first MAS (small-to-medium domains),
//! * attributes `S2,…,S6` form the second MAS (moderate domains, so the number of ECs
//!   grows roughly linearly with the row count),
//! * the two MASs overlap exactly at `S2`,
//! * an FD `S0 → S1` is planted inside the first MAS and `S3 → S4` inside the second.
//!
//! The paper states sizes of three and six attributes for the two MASs; with only seven
//! attributes and a single-attribute overlap that arithmetic does not close (3 + 6 − 1
//! = 8), so we use sizes three and five — the overlap structure and EC counts, which are
//! what drive the measured behaviour, are preserved.

use f2_relation::{Attribute, DataType, Record, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticConfig {
    /// Number of rows.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Domain size of `S0` (first MAS); `S1` is derived from it via the planted FD.
    pub domain_a: usize,
    /// Domain size of `S2` (the overlap attribute).
    pub domain_overlap: usize,
    /// Approximate number of equivalence classes of the second MAS per 1,000 rows —
    /// the knob that reproduces the "many ECs" property.
    pub ec_density: usize,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            rows: 10_000,
            seed: 42,
            domain_a: 400,
            domain_overlap: 50,
            ec_density: 350,
        }
    }
}

/// Generator for the synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    config: SyntheticConfig,
}

impl SyntheticGenerator {
    /// Create a generator.
    pub fn new(config: SyntheticConfig) -> Self {
        SyntheticGenerator { config }
    }

    /// The 7-attribute schema.
    pub fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("S0", DataType::Int),
            Attribute::new("S1", DataType::Int),
            Attribute::new("S2", DataType::Int),
            Attribute::new("S3", DataType::Int),
            Attribute::new("S4", DataType::Int),
            Attribute::new("S5", DataType::Int),
            Attribute::new("S6", DataType::Int),
        ])
        .expect("static schema is valid")
    }

    /// Generate the table.
    pub fn generate(&self) -> Table {
        let c = &self.config;
        let mut rng = StdRng::seed_from_u64(c.seed);
        let rows = c.rows;
        // Second-MAS equivalence classes: each class id determines S3..S6 jointly so the
        // projection on {S2..S6} repeats for rows sharing a class id.
        let target_classes = ((rows * c.ec_density) / 1_000).max(1);
        let mut records = Vec::with_capacity(rows);
        // Full rows must be unique (otherwise the full schema itself would become a
        // MAS); reject (S0, class) pairs that were already emitted.
        let mut seen: std::collections::HashSet<(i64, u64)> = std::collections::HashSet::new();
        for row_idx in 0..rows {
            let (a, class) = loop {
                let a = (rng.next_u64() % c.domain_a.max(1) as u64) as i64;
                let class = rng.next_u64() % target_classes as u64;
                if seen.insert((a, class)) {
                    break (a, class);
                }
                if seen.len() >= c.domain_a.max(1) * target_classes {
                    // Domain exhausted: fall back to a guaranteed-fresh pair.
                    let fresh = (c.domain_a as i64) + row_idx as i64;
                    break (fresh, class);
                }
            };
            // Planted FD S0 → S1.
            let b = (a * 7 + 3) % (c.domain_a.max(1) as i64);
            let overlap = (class % c.domain_overlap.max(1) as u64) as i64;
            let s3 = (class % 1_000) as i64;
            // Planted FD S3 → S4.
            let s4 = (s3 * 13 + 1) % 997;
            let s5 = (class / 1_000) as i64;
            let s6 = ((class % 7_919) as i64) * 3;
            records.push(Record::new(vec![
                Value::Int(a),
                Value::Int(b),
                Value::Int(overlap),
                Value::Int(s3),
                Value::Int(s4),
                Value::Int(s5),
                Value::Int(s6),
            ]));
        }
        Table::new(Self::schema(), records).expect("generated rows match the schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::AttrSet;

    #[test]
    fn schema_has_seven_attributes() {
        assert_eq!(SyntheticGenerator::schema().arity(), 7);
    }

    #[test]
    fn deterministic_generation() {
        let cfg = SyntheticConfig { rows: 300, seed: 5, ..SyntheticConfig::default() };
        assert_eq!(
            SyntheticGenerator::new(cfg).generate(),
            SyntheticGenerator::new(cfg).generate()
        );
    }

    #[test]
    fn planted_fds_hold() {
        let t =
            SyntheticGenerator::new(SyntheticConfig { rows: 3_000, ..SyntheticConfig::default() })
                .generate();
        // S0 → S1: rows agreeing on S0 agree on S1 (S1 is a function of S0).
        let p0 = t.partition(AttrSet::single(0));
        let p01 = t.partition(AttrSet::from_indices([0, 1]));
        assert_eq!(p0.class_count(), p01.class_count());
        // S3 → S4 likewise.
        let p3 = t.partition(AttrSet::single(3));
        let p34 = t.partition(AttrSet::from_indices([3, 4]));
        assert_eq!(p3.class_count(), p34.class_count());
    }

    #[test]
    fn two_mas_structure() {
        let t =
            SyntheticGenerator::new(SyntheticConfig { rows: 4_000, ..SyntheticConfig::default() })
                .generate();
        // First MAS candidate {S0,S1,S2} is non-unique; second {S2..S6} is non-unique;
        // and the full schema is unique (no duplicated complete rows w.h.p.).
        assert!(t.partition(AttrSet::from_indices([0, 1, 2])).has_duplicates());
        assert!(t.partition(AttrSet::from_indices([2, 3, 4, 5, 6])).has_duplicates());
        assert!(!t.partition(AttrSet::all(7)).has_duplicates());
    }

    #[test]
    fn ec_density_knob_controls_class_count() {
        let sparse = SyntheticGenerator::new(SyntheticConfig {
            rows: 4_000,
            ec_density: 50,
            ..SyntheticConfig::default()
        })
        .generate();
        let dense = SyntheticGenerator::new(SyntheticConfig {
            rows: 4_000,
            ec_density: 700,
            ..SyntheticConfig::default()
        })
        .generate();
        let attrs = AttrSet::from_indices([2, 3, 4, 5, 6]);
        let sparse_classes = sparse.partition(attrs).class_count();
        let dense_classes = dense.partition(attrs).class_count();
        assert!(
            dense_classes > sparse_classes * 2,
            "dense {dense_classes} vs sparse {sparse_classes}"
        );
    }
}
