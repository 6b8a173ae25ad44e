//! Bounded retry with deterministic decorrelated-jitter backoff.
//!
//! A transient `io::Error` — a timeout, a reset connection, a `WouldBlock` from
//! an overloaded pipe — should cost a retry, not a whole streaming encryption
//! job. [`RetryPolicy`] is the one place that decides *which* errors are worth
//! retrying and *how long* to wait between attempts:
//!
//! | `ErrorKind`                                   | classification |
//! |-----------------------------------------------|----------------|
//! | `Interrupted`¹, `WouldBlock`, `TimedOut`      | transient      |
//! | `ConnectionReset`, `ConnectionAborted`        | transient      |
//! | everything else (`NotFound`, `BrokenPipe`, …) | fatal          |
//!
//! ¹ `std`'s `read_exact` / `write_all` loops absorb `Interrupted` before this
//! layer ever sees it; it is classified here for callers issuing raw reads.
//!
//! Backoff is **decorrelated jitter** (`delay = min(cap, uniform(base, 3·prev))`)
//! driven by a seeded splitmix64 generator, so a run's retry schedule is fully
//! deterministic and reproducible — the property the fault-injection suite
//! depends on. Every absorbed failure increments `f2_io_retries_total`.
//!
//! Retrying is only sound at a layer where a failed operation consumed nothing.
//! The `std` contracts guarantee exactly that for single `read`/`write` calls,
//! so [`RetryingReader`] / [`RetryingWriter`] wrap a transport at that level,
//! and nothing above it retries: whoever owns a reader or a writer wraps it
//! ([`CsvSource::with_retry`](crate::CsvSource::with_retry) puts the reader
//! under the CSV parser; a [`RetryPolicy::writer`] can be handed to the
//! engine's `run_streaming`). An error that gets past them fails the stream job,
//! which resume then finishes. A service connection does not retry either: a
//! transport error ends it, and the client reconnects and resumes the job.

use crate::fault::splitmix64;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

/// Bounded-attempt retry with deterministic decorrelated-jitter backoff. See the
/// [module docs](self) for the classification table and soundness rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (the first try included). `1` disables
    /// retrying; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Lower bound of every backoff delay.
    pub base_delay: Duration,
    /// Upper bound (cap) of every backoff delay.
    pub max_delay: Duration,
    /// Seed of the jitter generator — same seed, same backoff schedule.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy of `max_attempts` total attempts with millisecond-scale backoff
    /// (2 ms base, 250 ms cap).
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            seed: 0xF2_0DE1,
        }
    }

    /// `max_attempts` attempts with zero delay between them — for tests that
    /// exercise the retry logic without sleeping.
    pub fn no_backoff(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// Re-seed the jitter generator.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether an [`ErrorKind`] is worth retrying (see the classification table
    /// in the [module docs](self)).
    pub fn is_transient(kind: ErrorKind) -> bool {
        matches!(
            kind,
            ErrorKind::Interrupted
                | ErrorKind::WouldBlock
                | ErrorKind::TimedOut
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
        )
    }

    /// Run a raw `std::io` operation under this policy: transient failures are
    /// absorbed (with backoff) until the attempt budget runs out; the first
    /// fatal error — or the last transient one — is returned as-is.
    pub fn run_io<T>(&self, mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
        let (mut failures, mut rng, mut prev) = (0u32, self.seed, self.base_delay);
        loop {
            let error = match op() {
                Ok(value) => return Ok(value),
                Err(error) => error,
            };
            failures = failures.saturating_add(1);
            if failures >= self.max_attempts.max(1) || !Self::is_transient(error.kind()) {
                return Err(error);
            }
            crate::obs::retries().inc();
            let delay = self.next_delay(&mut rng, prev);
            prev = delay.max(self.base_delay);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }

    /// Next decorrelated-jitter delay: `min(cap, uniform(base, 3·prev))`. Public
    /// so callers (and the fault-injection suite) can inspect the deterministic
    /// schedule a given seed produces; `rng` is the caller-held generator state,
    /// initially the policy's seed.
    pub fn next_delay(&self, rng: &mut u64, prev: Duration) -> Duration {
        let base = duration_nanos(self.base_delay);
        let cap = duration_nanos(self.max_delay);
        let hi = duration_nanos(prev).saturating_mul(3).max(base);
        let span = hi - base;
        let nanos = if span == 0 {
            base
        } else {
            base.saturating_add(splitmix64(rng) % span.saturating_add(1))
        };
        Duration::from_nanos(nanos.min(cap))
    }

    /// Wrap a reader so every `read` call runs under this policy.
    pub fn reader<R: Read>(&self, inner: R) -> RetryingReader<R> {
        RetryingReader { inner, policy: self.clone() }
    }

    /// Wrap a writer so every `write`/`flush` call runs under this policy.
    pub fn writer<W: Write>(&self, inner: W) -> RetryingWriter<W> {
        RetryingWriter { inner, policy: self.clone() }
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ── Retrying transports ────────────────────────────────────────────────────────────

/// A [`Read`] adapter that absorbs transient errors per the wrapped
/// [`RetryPolicy`]. Sound because a failed `read` is guaranteed to have consumed
/// nothing, so the retried call resumes exactly where the failed one started.
#[derive(Debug)]
pub struct RetryingReader<R: Read> {
    inner: R,
    policy: RetryPolicy,
}

impl<R: Read> Read for RetryingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let inner = &mut self.inner;
        self.policy.run_io(|| inner.read(buf))
    }
}

/// A [`Write`] adapter that absorbs transient errors per the wrapped
/// [`RetryPolicy`]. Sound because a failed `write` is guaranteed to have written
/// nothing. Short writes are left to the caller's `write_all` loop — they are
/// progress, not failure.
#[derive(Debug)]
pub struct RetryingWriter<W: Write> {
    inner: W,
    policy: RetryPolicy,
}

impl<W: Write> RetryingWriter<W> {
    /// Unwrap the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for RetryingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let inner = &mut self.inner;
        self.policy.run_io(|| inner.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.policy.run_io(|| inner.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyReader, FaultyWriter};
    use std::io::Cursor;

    #[test]
    fn classification_matches_the_table() {
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
        ] {
            assert!(RetryPolicy::is_transient(kind), "{kind:?}");
        }
        for kind in [ErrorKind::NotFound, ErrorKind::BrokenPipe, ErrorKind::UnexpectedEof] {
            assert!(!RetryPolicy::is_transient(kind), "{kind:?}");
        }
    }

    /// Run `op` under `policy`, handing it the 1-based call number. Returns the
    /// outcome and the number of calls made.
    fn attempt(
        policy: &RetryPolicy,
        mut op: impl FnMut(u32) -> std::io::Result<u32>,
    ) -> (std::io::Result<u32>, u32) {
        let mut calls = 0;
        let out = policy.run_io(|| {
            calls += 1;
            op(calls)
        });
        (out, calls)
    }

    #[test]
    fn run_io_takes_transients_within_budget_and_reports_the_last() {
        let policy = RetryPolicy::no_backoff(3);
        let (out, calls) = attempt(&policy, |call| {
            if call < 3 {
                Err(std::io::Error::new(ErrorKind::TimedOut, "flaky"))
            } else {
                Ok(99)
            }
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(calls, 3);
        // Budget exhausted: the last transient error surfaces.
        let (out, calls) = attempt(&policy, |call| {
            Err(std::io::Error::new(ErrorKind::WouldBlock, format!("call {call}")))
        });
        assert_eq!(out.unwrap_err().to_string(), "call 3");
        assert_eq!(calls, 3);
        // Fatal errors are not retried at all.
        let (out, calls) =
            attempt(&policy, |_| Err(std::io::Error::new(ErrorKind::NotFound, "gone")));
        assert_eq!(out.unwrap_err().kind(), ErrorKind::NotFound);
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_nanos(100),
            max_delay: Duration::from_nanos(900),
            seed: 42,
        };
        let schedule = |p: &RetryPolicy| {
            let mut rng = p.seed;
            let mut prev = p.base_delay;
            let mut out = Vec::new();
            for _ in 0..6 {
                let d = p.next_delay(&mut rng, prev);
                prev = d.max(p.base_delay);
                out.push(d);
            }
            out
        };
        let a = schedule(&policy);
        assert_eq!(a, schedule(&policy), "same seed, same schedule");
        assert!(a.iter().all(|d| *d >= policy.base_delay && *d <= policy.max_delay));
        let reseeded = policy.clone().with_seed(43);
        assert_ne!(a, schedule(&reseeded), "different seed, different jitter");
    }

    #[test]
    fn retrying_transports_absorb_injected_faults() {
        let data: Vec<u8> = (0..=63).collect();
        let plan = FaultPlan::new()
            .with(10, FaultKind::Transient(ErrorKind::TimedOut))
            .with(40, FaultKind::Transient(ErrorKind::ConnectionReset));
        let mut reader =
            RetryPolicy::no_backoff(3).reader(FaultyReader::new(Cursor::new(data.clone()), plan));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);

        let plan = FaultPlan::new()
            .with(5, FaultKind::Transient(ErrorKind::WouldBlock))
            .with(6, FaultKind::ShortWrite(1));
        let mut writer = RetryPolicy::no_backoff(3).writer(FaultyWriter::new(Vec::new(), plan));
        writer.write_all(&data).unwrap();
        writer.flush().unwrap();
        assert_eq!(writer.into_inner().into_inner(), data);
    }

    #[test]
    fn a_single_attempt_fails_on_the_first_transient() {
        let plan = FaultPlan::new().with(3, FaultKind::Transient(ErrorKind::TimedOut));
        let mut reader =
            RetryPolicy::no_backoff(1).reader(FaultyReader::new(Cursor::new(vec![0u8; 16]), plan));
        let mut out = Vec::new();
        assert!(reader.read_to_end(&mut out).is_err());
    }
}
