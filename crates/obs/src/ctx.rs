//! Request-scoped trace contexts.
//!
//! A [`TraceCtx`] is two 64-bit ids: a *trace id* shared by every request in
//! one logical conversation (a client connection, a whole `encrypt_table`
//! call) and a *request id* unique to one request. Ids come from an
//! [`IdSource`] — a splitmix64 sequence that is fully deterministic when
//! seeded, so tests and replay tooling can predict every id a service will
//! mint.
//!
//! The context is carried by a **thread-local current-context guard**
//! ([`TraceGuard`]): the server installs it at the top of a request, and from
//! then on every [`Span`](crate::Span) that drops on that thread attributes
//! its elapsed time to the active request, and instrumented code can tag the
//! request with counts ([`add_count`]) and a tenant ([`note_tenant`]) — all
//! with **zero signature churn**: the engine and io layers never see a trace
//! argument. When the guard completes, the accumulated per-stage breakdown
//! becomes a [`TraceEntry`] in the owning [`TraceJournal`].
//!
//! When no guard is installed (every non-server code path), the hooks cost a
//! thread-local load and an `Option` check — they never allocate, lock, or
//! read the clock. Artifact neutrality is structural: nothing here feeds back
//! into planning or encryption.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::journal::{Stage, TraceEntry, TraceJournal};

/// A request-scoped pair of ids: the conversation (`trace_id`) and the single
/// request within it (`request_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Shared by every request in one logical conversation.
    pub trace_id: u64,
    /// Unique to one request within the conversation.
    pub request_id: u64,
}

impl TraceCtx {
    /// A context from explicit ids.
    #[must_use]
    pub fn new(trace_id: u64, request_id: u64) -> TraceCtx {
        TraceCtx { trace_id, request_id }
    }
}

/// splitmix64: the standard 64-bit finalizer-based generator. One step per id
/// keeps ids well-distributed even from small sequential seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A shared, lock-free id generator. Clones share the same sequence (an
/// atomic counter pushed through splitmix64), so concurrent callers never
/// mint the same id twice. Deterministic when [`seeded`](IdSource::seeded).
#[derive(Debug, Clone)]
pub struct IdSource {
    state: Arc<AtomicU64>,
}

impl IdSource {
    /// A deterministic source: the id sequence is a pure function of `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> IdSource {
        IdSource { state: Arc::new(AtomicU64::new(seed)) }
    }

    /// The next id in the sequence. Never zero (zero is reserved as "absent"
    /// in diagnostics), at the cost of one id per 2^64 being skipped.
    #[must_use]
    pub fn next_id(&self) -> u64 {
        let raw = self.state.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(raw);
        if id == 0 {
            splitmix64(raw.wrapping_add(u64::MAX / 2))
        } else {
            id
        }
    }

    /// A fresh context: new trace id, new request id.
    #[must_use]
    pub fn next_ctx(&self) -> TraceCtx {
        TraceCtx { trace_id: self.next_id(), request_id: self.next_id() }
    }
}

/// The per-thread in-flight trace: ids plus the accumulating breakdown.
struct ActiveTrace {
    ctx: TraceCtx,
    kind: &'static str,
    started: Instant,
    /// `(stage name, total ns, completions)` — accumulated, not per-event, so
    /// a request touching the same span many times stays O(#stage-names).
    stages: Vec<(&'static str, u64, u64)>,
    counts: Vec<(&'static str, u64)>,
    tenant: Option<String>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// True when the calling thread has an active trace context.
///
/// This is the hot-path check [`Span`](crate::Span) uses to decide whether it
/// must read the clock even when the metrics registry is disabled.
#[must_use]
pub fn active() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

/// The calling thread's active trace context, if any.
#[must_use]
pub fn current() -> Option<TraceCtx> {
    ACTIVE.with(|slot| slot.borrow().as_ref().map(|t| t.ctx))
}

/// Attribute `ns` of stage `name` to the active trace (no-op without one).
/// [`Span`](crate::Span) calls this on drop; code that measures durations
/// without spans (e.g. the F² phase timings) can call it directly.
pub fn record_stage(name: &'static str, ns: u64) {
    ACTIVE.with(|slot| {
        if let Some(trace) = slot.borrow_mut().as_mut() {
            if let Some(entry) = trace.stages.iter_mut().find(|(n, _, _)| *n == name) {
                entry.1 = entry.1.saturating_add(ns);
                entry.2 = entry.2.saturating_add(1);
            } else {
                trace.stages.push((name, ns, 1));
            }
        }
    });
}

/// Add `n` to the named count (rows, bytes, frames …) of the active trace.
/// A no-op without an active trace.
pub fn add_count(name: &'static str, n: u64) {
    ACTIVE.with(|slot| {
        if let Some(trace) = slot.borrow_mut().as_mut() {
            if let Some(entry) = trace.counts.iter_mut().find(|(k, _)| *k == name) {
                entry.1 = entry.1.saturating_add(n);
            } else {
                trace.counts.push((name, n));
            }
        }
    });
}

/// Tag the active trace with the tenant it serves (first caller wins).
/// A no-op without an active trace.
pub fn note_tenant(tenant: &str) {
    ACTIVE.with(|slot| {
        if let Some(trace) = slot.borrow_mut().as_mut() {
            if trace.tenant.is_none() {
                trace.tenant = Some(tenant.to_string());
            }
        }
    });
}

/// Begin a trace on the [global journal](crate::journal()). See
/// [`TraceJournal::begin`].
pub fn begin(ctx: TraceCtx, kind: &'static str) -> TraceGuard {
    crate::journal::journal().begin(ctx, kind)
}

impl TraceJournal {
    /// Install `ctx` as the calling thread's active trace until the returned
    /// guard completes (or drops). While active, every finished span and
    /// every [`add_count`] on this thread accrues to the trace; completion
    /// records a [`TraceEntry`] into this journal.
    ///
    /// When the journal is disabled the guard is inert: nothing is installed
    /// and completion records nothing.
    pub fn begin(self: &Arc<Self>, ctx: TraceCtx, kind: &'static str) -> TraceGuard {
        if !self.is_enabled() {
            return TraceGuard { journal: Arc::clone(self), armed: false };
        }
        let trace = ActiveTrace {
            ctx,
            kind,
            started: Instant::now(),
            stages: Vec::new(),
            counts: Vec::new(),
            tenant: None,
        };
        let armed = ACTIVE.with(|slot| {
            // Nested begins on one thread would be a bug in the caller; keep
            // the outer trace rather than silently losing it.
            let mut slot = slot.borrow_mut();
            if slot.is_none() {
                *slot = Some(trace);
                true
            } else {
                false
            }
        });
        TraceGuard { journal: Arc::clone(self), armed }
    }
}

/// RAII holder of the thread's active trace; see [`TraceJournal::begin`].
#[must_use = "the trace is journaled when the guard completes"]
pub struct TraceGuard {
    journal: Arc<TraceJournal>,
    armed: bool,
}

impl TraceGuard {
    /// Finish the trace with `outcome` ("ok", an error kind, …): uninstall the
    /// thread-local context, journal the completed entry, and return it so the
    /// caller can drive per-tenant metrics or a slow-request log off the same
    /// record. Returns `None` when the guard is inert (journal disabled).
    pub fn complete(mut self, outcome: &str) -> Option<Arc<TraceEntry>> {
        self.finish(outcome)
    }

    fn finish(&mut self, outcome: &str) -> Option<Arc<TraceEntry>> {
        if !self.armed {
            return None;
        }
        self.armed = false;
        let trace = ACTIVE.with(|slot| slot.borrow_mut().take())?;
        let total = trace.started.elapsed().as_nanos();
        let total_ns = if total > u128::from(u64::MAX) { u64::MAX } else { total as u64 };
        let entry = TraceEntry {
            trace_id: trace.ctx.trace_id,
            request_id: trace.ctx.request_id,
            kind: trace.kind,
            tenant: trace.tenant,
            outcome: outcome.to_string(),
            total_ns,
            stages: trace
                .stages
                .into_iter()
                .map(|(name, total_ns, count)| Stage { name, total_ns, count })
                .collect(),
            counts: trace.counts,
        };
        Some(self.journal.record(entry))
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        // A guard dropped without `complete` (an unwind above the request
        // loop) still journals, marked abandoned, and always uninstalls the
        // thread-local so the worker thread starts its next request clean.
        let _ = self.finish("abandoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sources_are_deterministic_and_nonzero() {
        let a = IdSource::seeded(7);
        let b = IdSource::seeded(7);
        let ids: Vec<u64> = (0..64).map(|_| a.next_id()).collect();
        let again: Vec<u64> = (0..64).map(|_| b.next_id()).collect();
        assert_eq!(ids, again);
        assert!(ids.iter().all(|&id| id != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids must not repeat");
    }

    #[test]
    fn clones_share_one_sequence() {
        let a = IdSource::seeded(3);
        let b = a.clone();
        assert_ne!(a.next_id(), b.next_id());
    }

    #[test]
    fn hooks_are_inert_without_an_active_trace() {
        assert!(!active());
        assert_eq!(current(), None);
        record_stage("stage", 5);
        add_count("rows", 5);
        note_tenant("acme");
        assert!(!active());
    }

    #[test]
    fn guard_installs_accumulates_and_journals() {
        let journal = Arc::new(TraceJournal::with_capacity(4));
        let guard = journal.begin(TraceCtx::new(0xAA, 0xBB), "test");
        assert!(active());
        assert_eq!(current(), Some(TraceCtx::new(0xAA, 0xBB)));
        record_stage("phase.a", 10);
        record_stage("phase.a", 5);
        record_stage("phase.b", 1);
        add_count("rows", 8);
        add_count("rows", 8);
        note_tenant("acme");
        note_tenant("other");
        let entry = guard.complete("ok").expect("armed guard journals");
        assert!(!active());
        assert_eq!(entry.trace_id, 0xAA);
        assert_eq!(entry.request_id, 0xBB);
        assert_eq!(entry.kind, "test");
        assert_eq!(entry.tenant.as_deref(), Some("acme"));
        assert_eq!(entry.outcome, "ok");
        assert_eq!(entry.count("rows"), 16);
        let a = entry.stages.iter().find(|s| s.name == "phase.a").expect("phase.a");
        assert_eq!((a.total_ns, a.count), (15, 2));
        assert_eq!(journal.recent().len(), 1);
    }

    #[test]
    fn disabled_journal_yields_inert_guards() {
        let journal = Arc::new(TraceJournal::with_capacity(4));
        journal.set_enabled(false);
        let guard = journal.begin(TraceCtx::new(1, 2), "test");
        assert!(!active());
        assert!(guard.complete("ok").is_none());
        assert_eq!(journal.recent().len(), 0);
    }

    #[test]
    fn dropped_guard_journals_as_abandoned() {
        let journal = Arc::new(TraceJournal::with_capacity(4));
        {
            let _guard = journal.begin(TraceCtx::new(9, 9), "test");
        }
        let recent = journal.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].outcome, "abandoned");
        assert!(!active());
    }

    #[test]
    fn nested_begin_keeps_the_outer_trace() {
        let journal = Arc::new(TraceJournal::with_capacity(4));
        let outer = journal.begin(TraceCtx::new(1, 1), "outer");
        let inner = journal.begin(TraceCtx::new(2, 2), "inner");
        assert_eq!(current(), Some(TraceCtx::new(1, 1)));
        assert!(inner.complete("ok").is_none());
        assert_eq!(current(), Some(TraceCtx::new(1, 1)));
        let entry = outer.complete("ok").expect("outer journals");
        assert_eq!(entry.trace_id, 1);
    }
}
