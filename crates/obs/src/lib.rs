//! Zero-dependency telemetry for the F² pipeline.
//!
//! The workspace's only runtime visibility used to be the offline
//! `BENCH_report.json` snapshot; this crate is the live counterpart. It provides
//! four layers, all std-only (no serde, no tracing stack), in the same spirit as
//! `f2-lint`'s hand-rolled tooling:
//!
//! 1. **Metrics registry** ([`Registry`]) — atomic [`Counter`]s, [`Gauge`]s, and
//!    log-bucketed [`Histogram`]s with static label sets. A process-wide default
//!    lives behind [`global()`]; tests build scoped registries with
//!    [`Registry::new`] so they never race each other. Every registry carries an
//!    enabled flag shared with all of its handles: when disabled, recording is a
//!    single relaxed load and branch, so the no-op mode is measurably ~0 cost.
//! 2. **Phase spans** ([`Span`], [`span!`]) — RAII timers that record elapsed
//!    wall-clock into a histogram on drop. Hierarchy is encoded in dotted span
//!    names (`engine.chunk.encrypt`), which become the `span` label of the
//!    `f2_span_seconds` family on the global registry.
//! 3. **Exporters** — deterministic-ordered Prometheus text exposition and JSON
//!    snapshots targeting any [`std::io::Write`] (the encoders `f2_server`'s
//!    HTTP `/metrics` endpoint mounts directly).
//! 4. **Request traces** ([`ctx`], [`TraceJournal`]) — a per-thread trace
//!    context ([`TraceCtx`]) that existing `span!` sites attribute to with zero
//!    signature churn, feeding a bounded lock-free journal of completed request
//!    traces (per-stage durations, tenant, outcome, byte/row counts) that
//!    `f2_server`'s `/tracez` endpoint renders.
//!
//! # Artifact neutrality
//!
//! Instrumentation must never change what the pipeline produces. Nothing in this
//! crate feeds back into planning, encryption, or the wire format: timings and
//! counts are observed, not consumed. The engine's `obs_neutrality` suite pins
//! byte-identical streams with instrumentation enabled and disabled, and
//! `bench_guard` bounds instrumented overhead on the tracked 10k-row workload.
//!
//! # Metric naming
//!
//! Names follow Prometheus conventions: `f2_<crate>_<what>_<unit>` for
//! histograms/gauges and `f2_<crate>_<what>_total` for counters. Label sets are
//! static — a handle is registered once per (name, label-set) and cached by the
//! instrumented call site in a `OnceLock`. See `docs/OBSERVABILITY.md` for the
//! full catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
mod export;
mod journal;
mod metrics;
mod registry;
mod span;

pub use ctx::{IdSource, TraceCtx, TraceGuard};
pub use journal::{journal, Stage, TraceEntry, TraceJournal, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Gauge, Histogram, Unit,
    BUCKET_COUNT,
};
pub use registry::{global, install_process_metrics, Registry};
pub use span::Span;

/// Time a lexical scope into the global registry's `f2_span_seconds` histogram.
///
/// `span!("engine.chunk.encrypt")` returns an RAII guard; when it drops, the
/// elapsed wall-clock is recorded under the label `span="engine.chunk.encrypt"`
/// and attributed to the thread's active request trace, if any. The histogram
/// handle is registered once per call site and cached in a `OnceLock`, so
/// steady-state cost is one static load plus the recording itself — and when the
/// global registry is disabled and no request trace is active the guard skips the
/// clock reads entirely.
///
/// The span name must be a `'static` dotted path; hierarchy lives in the name
/// (`<crate>.<unit>.<stage>`), not in runtime parent/child links.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __F2_SPAN_HIST: ::std::sync::OnceLock<$crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::Span::enter(
            $name,
            __F2_SPAN_HIST.get_or_init(|| {
                $crate::global().histogram(
                    "f2_span_seconds",
                    "Wall-clock duration of instrumented spans.",
                    &[("span", $name)],
                    $crate::Unit::Seconds,
                )
            }),
        )
    }};
}
