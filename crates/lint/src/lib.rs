//! `f2_lint` — repo-aware static analysis for the F² workspace.
//!
//! F² carries invariants that `rustc` and `clippy` cannot know about: frame and CSV
//! parsers must never panic on hostile bytes, the Paillier/Montgomery/AES paths
//! must not branch or index on key material, per-chunk cipher seeds must flow
//! through one authority, and planning code must not grow hidden `thread_local!`
//! state. This crate encodes those invariants as lint rules and enforces them in
//! CI.
//!
//! # Design
//!
//! The analyzer is deliberately **dependency-free** — a hand-rolled [`lexer`], a
//! brace-matching [`scope`] pass, and lexical [`rules`] — rather than a `syn`-based
//! AST walker. That keeps the workspace's vendored-shims-only policy intact, lets
//! the lint build before (and independently of) every crate it checks, and is
//! sufficient: every rule here is decidable from tokens plus function extents.
//!
//! # Workflow
//!
//! * `cargo run -p f2-lint` — analyze, print diagnostics, write `LINT_report.json`.
//! * `cargo run -p f2-lint -- --check` — same, but exit non-zero on findings not
//!   covered by the committed `LINT_baseline.json`, or on baseline entries no
//!   finding matches any more (the CI mode).
//! * `cargo run -p f2-lint -- --update-baseline` — accept current findings as the
//!   new debt baseline.
//!
//! Suppression inside source is per-line and must carry a reason:
//!
//! ```text
//! // lint: allow(truncating-cast) — value masked to 7 bits first
//! ```
//!
//! Scope annotations opt files into rule families: `//! lint: untrusted-input`
//! (panic-freedom rules), `//! lint: planning` (thread-local rule; crate-wide when
//! on a `lib.rs`), `//! lint: chunk-seed-authority` (may call `chunk_seed`). The
//! constant-time rules instead key off the committed registry at
//! `crates/lint/secret_functions.reg` — see [`registry`].
//!
//! See `docs/STATIC_ANALYSIS.md` for the full rule catalogue and workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod baseline;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod scope;

pub use analyzer::{analyze, analyze_source, find_workspace_root, Analysis, REGISTRY_PATH};
pub use baseline::{report_json, Baseline, Partition};
pub use registry::Registry;
pub use rules::{CheckResult, FileFlags, Finding};
