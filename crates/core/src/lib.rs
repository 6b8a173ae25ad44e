//! # f2-core — the F² frequency-hiding, FD-preserving encryption scheme
//!
//! lint: planning — crate-wide: no new `thread_local!` caches (`f2-lint` rule
//! `thread-local`); scheme state must flow through owner state, not ambient TLS.
//!
//! This crate implements the paper's primary contribution (Dong & Wang, ICDE 2017):
//! an encryption scheme that lets a data owner outsource a relational table to an
//! honest-but-curious server such that
//!
//! * the server can still discover the table's functional dependencies (FDs are
//!   preserved exactly — no FD is lost and no false-positive FD is introduced,
//!   Theorem 3.7), and
//! * the ciphertext value frequencies are flattened, so the scheme is α-secure against
//!   the frequency analysis attack even under Kerckhoffs's principle (Section 4).
//!
//! The scheme's four steps map to the modules of this crate:
//!
//! | paper step | module |
//! |---|---|
//! | Step 1 — find maximal attribute sets | [`f2_fd::mas`] (invoked from `encryptor`) |
//! | Step 2.1 — group equivalence classes  | [`ecg`] |
//! | Step 2.2 — splitting & scaling        | [`split`], [`sse`] |
//! | Step 3 — conflict resolution          | `encryptor` (assembly) |
//! | Step 4 — eliminate false-positive FDs | [`fpfd`] |
//!
//! The primary entry point is the [`scheme`] module: every backend of the paper's
//! evaluation — F² itself, the deterministic AES baseline, the per-cell probabilistic
//! cipher, and Paillier — implements the pluggable [`Scheme`] trait
//! (`name` / `encrypt` / `decrypt`), so harnesses and applications are written once
//! against `&dyn Scheme`. The F² backend, [`F2Scheme`], is built fluently with
//! [`F2::builder`]; its owner-side [`Provenance`] and MAS sets are reachable through
//! [`SchemeOutcome::f2_state`]. The server side only ever sees the encrypted
//! [`f2_relation::Table`].
//!
//! ```
//! use f2_core::{Scheme, F2};
//! use f2_relation::table;
//!
//! let data = table! {
//!     ["Zip", "City", "Name"];
//!     ["07030", "Hoboken", "alice"],
//!     ["07030", "Hoboken", "bob"],
//!     ["10001", "NewYork", "carol"],
//!     ["10001", "NewYork", "dave"],
//! };
//! let scheme = F2::builder().alpha(0.5).split_factor(2).seed(7).build().unwrap();
//! let outcome = scheme.encrypt(&data).unwrap();
//! assert!(outcome.encrypted.row_count() >= data.row_count());
//! let recovered = scheme.decrypt(&outcome).unwrap();
//! assert!(recovered.multiset_eq(&data));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod decryptor;
pub mod ecg;
mod encryptor;
pub mod error;
pub mod fake;
pub mod fpfd;
pub(crate) mod obs;
pub mod provenance;
pub mod report;
pub mod scheme;
pub mod split;
pub mod sse;

pub use config::F2Config;
pub use error::F2Error;
pub use fake::FreshValueGenerator;
pub use provenance::{Provenance, RowOrigin};
pub use report::{EncryptionReport, OverheadBreakdown, StepTimings};
pub use scheme::{
    CellWiseState, ChunkState, DetScheme, F2Builder, F2OwnerState, F2Scheme, OwnerState,
    PaillierScheme, ProbScheme, Scheme, SchemeOutcome, F2,
};

/// Result alias for F² operations.
pub type Result<T> = std::result::Result<T, F2Error>;
