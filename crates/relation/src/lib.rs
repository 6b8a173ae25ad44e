//! # f2-relation — in-memory relational substrate for the F² encryption scheme
//!
//! lint: planning — crate-wide: no new `thread_local!` caches (`f2-lint` rule
//! `thread-local`); interned-relation sharing must stay explicit.
//!
//! The F² paper (Dong & Wang, ICDE 2017) operates on a private relational table `D`
//! with `m` attributes and `n` records, encrypts it cell-by-cell, and reasons about
//! *partitions* (equivalence classes of tuples that agree on an attribute set).
//!
//! This crate provides that substrate:
//!
//! * [`Value`] — a typed, hashable, orderable cell value (integers, text, decimals,
//!   raw ciphertext bytes, null),
//! * [`Schema`] / [`Attribute`] — named, typed columns,
//! * [`Record`] and [`Table`] — row-major in-memory relations,
//! * [`AttrSet`] — a compact bit-set over attribute indices (the `X`, `Y`, `A` of the
//!   paper's definitions),
//! * [`Partition`] / [`EquivalenceClass`] — Definition 3.3 of the paper, plus stripped
//!   partitions and partition products as used by TANE and the MAS finder,
//! * [`ColumnarIndex`] — the dictionary-encoded (interned) columnar core under every
//!   partition computation, built lazily per table ([`Table::columnar`]) and cached,
//! * CSV import/export and table statistics.
//!
//! # Dictionary-encoding invariants
//!
//! The interned core obeys three rules (see [`columnar`] for details):
//!
//! 1. **Ids order like values.** Each column's dictionary assigns dense `u32` ids in
//!    ascending [`Value`] order, so partitions grouped and sorted by id tuples are
//!    byte-for-byte identical to the retained value-keyed oracle
//!    ([`Partition::compute_generic`]).
//! 2. **Ids are build-local.** They carry no meaning across two index builds and are
//!    never persisted.
//! 3. **Mutation invalidates.** `push_row`, `set_cell`, `row_mut`, `extend_from` and
//!    `append` drop the cached index; the next partition-shaped query rebuilds it.
//!    Clones share an already-built index.
//!
//! Everything is deterministic and free of external dependencies beyond `bytes`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrset;
pub mod builder;
pub mod columnar;
pub mod csv;
pub mod error;
pub mod hash;
pub mod parallel;
pub mod partition;
pub mod record;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod view;

pub use attrset::AttrSet;
pub use builder::TableBuilder;
pub use bytes::Bytes;
pub use columnar::{ColumnDictionary, ColumnarIndex};
pub use error::RelationError;
pub use hash::{FastMap, FastSet};
pub use partition::{EquivalenceClass, Partition, ProductScratch, StrippedPartition};
pub use record::Record;
pub use schema::{Attribute, DataType, Schema};
pub use stats::{AttributeStats, TableStats};
pub use table::{RowId, Table};
pub use value::Value;
pub use view::TableView;

/// Convenient `Result` alias used throughout the relational substrate.
pub type Result<T> = std::result::Result<T, RelationError>;
