//! RAII span timers.
//!
//! A [`Span`] reads the clock on entry and records the elapsed nanoseconds into
//! its histogram on drop. When the owning registry is disabled *and* no request
//! trace is active on this thread, `enter` skips the clock read entirely and drop
//! is a no-op — the span costs a few relaxed loads, preserving the registry's
//! ~0-overhead guarantee. With a request trace active (see [`crate::ctx`]), drop
//! also attributes the elapsed time to the current request's per-stage breakdown.

use std::time::Instant;

use crate::metrics::Histogram;

/// An in-flight timed region; when dropped, records into its histogram and
/// attributes its duration to the thread's active request trace, if any.
///
/// Usually constructed through the [`span!`](crate::span!) macro, which owns the
/// histogram registration; `enter` is public for callers that manage their own
/// histogram handles (e.g. scoped registries in tests).
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    hist: Option<Histogram>,
}

impl Span {
    /// Start timing `name` into `hist`. Reads the clock only when the histogram
    /// records or a request trace is active on this thread.
    #[must_use]
    pub fn enter(name: &'static str, hist: &Histogram) -> Span {
        let recording = hist.is_enabled();
        if recording || crate::ctx::active() {
            Span { name, start: Some(Instant::now()), hist: recording.then(|| hist.clone()) }
        } else {
            Span { name, start: None, hist: None }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos();
        let ns = if ns > u128::from(u64::MAX) { u64::MAX } else { ns as u64 };
        if let Some(hist) = &self.hist {
            hist.record(ns);
        }
        crate::ctx::record_stage(self.name, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Unit;
    use crate::registry::Registry;

    #[test]
    fn span_records_into_histogram() {
        let reg = Registry::new();
        let hist = reg.histogram("f2_span_seconds", "spans", &[("span", "t")], Unit::Seconds);
        {
            let _s = Span::enter("t", &hist);
        }
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn disabled_span_skips_clock_and_recording() {
        let reg = Registry::new();
        reg.set_enabled(false);
        let hist = reg.histogram("f2_span_seconds", "spans", &[("span", "t")], Unit::Seconds);
        {
            let s = Span::enter("t", &hist);
            assert!(s.start.is_none());
        }
        assert_eq!(hist.count(), 0);
    }
}
