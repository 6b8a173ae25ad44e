//! # f2-datagen — workload generators for the F² evaluation
//!
//! The paper evaluates F² on two TPC benchmark tables and one synthetic dataset
//! (Table 1):
//!
//! | dataset   | attributes | tuples | size    |
//! |-----------|-----------:|-------:|---------|
//! | Orders    | 9          | 15 M   | 1.64 GB |
//! | Customer  | 21         | 0.96 M | 282 MB  |
//! | Synthetic | 7          | 4 M    | 224 MB  |
//!
//! We do not have the authors' dumps, so this crate generates datasets with the same
//! *structural* properties (schema shape, per-attribute domain cardinalities, overlap
//! structure of the maximal attribute sets, planted FDs), scaled to row counts that are
//! practical on a development machine. The benchmark harness sweeps the row count, so
//! the paper's size-scaling figures keep their shape.
//!
//! * [`orders`] — a TPC-H-style `ORDERS` table: 9 attributes, several small-domain
//!   columns (`OrderStatus` with 3 values, `OrderPriority` with 5, a constant
//!   `ShipPriority`), which is what gives the real Orders dataset its many overlapping
//!   MASs and heavy EC collisions (the paper's explanation of Figure 9(b)).
//! * [`customer`] — a TPC-C-style `CUSTOMER` table: 21 attributes, high-cardinality
//!   `C_LAST`/`C_BALANCE` (the paper quotes "more than 4,000 unique values across
//!   120,000 records"), plus planted address FDs (`ZIP → CITY`, `ZIP → STATE`,
//!   `CITY → STATE`) so the data-cleaning example has something to discover.
//! * [`synthetic`] — a parameterised table with two overlapping MASs and a huge number
//!   of equivalence classes, reproducing the workload that makes the SSE step dominate
//!   in Figures 6(a)/7(a).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod customer;
pub mod distributions;
pub mod orders;
pub mod synthetic;

pub use customer::{CustomerConfig, CustomerGenerator};
pub use distributions::{TextPool, Zipf};
pub use orders::{OrdersConfig, OrdersGenerator};
pub use synthetic::{SyntheticConfig, SyntheticGenerator};

use f2_relation::Table;

/// A named dataset used by the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// TPC-H-style Orders.
    Orders,
    /// TPC-C-style Customer.
    Customer,
    /// Synthetic two-MAS dataset.
    Synthetic,
}

impl Dataset {
    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Orders => "Orders",
            Dataset::Customer => "Customer",
            Dataset::Synthetic => "Synthetic",
        }
    }

    /// Generate the dataset with the given row count and seed, using each generator's
    /// default structural parameters.
    pub fn generate(&self, rows: usize, seed: u64) -> Table {
        match self {
            Dataset::Orders => {
                OrdersGenerator::new(OrdersConfig { rows, seed, ..OrdersConfig::default() })
                    .generate()
            }
            Dataset::Customer => {
                CustomerGenerator::new(CustomerConfig { rows, seed, ..CustomerConfig::default() })
                    .generate()
            }
            Dataset::Synthetic => SyntheticGenerator::new(SyntheticConfig {
                rows,
                seed,
                ..SyntheticConfig::default()
            })
            .generate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_names() {
        assert_eq!(Dataset::Orders.name(), "Orders");
        assert_eq!(Dataset::Customer.name(), "Customer");
        assert_eq!(Dataset::Synthetic.name(), "Synthetic");
    }

    #[test]
    fn dataset_generate_dispatches() {
        assert_eq!(Dataset::Orders.generate(50, 1).arity(), 9);
        assert_eq!(Dataset::Customer.generate(50, 1).arity(), 21);
        assert_eq!(Dataset::Synthetic.generate(50, 1).arity(), 7);
    }
}
