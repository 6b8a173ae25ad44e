//! Deterministic fault injection: seeded wrappers that make every I/O failure
//! mode reproducible in tests.
//!
//! lint: untrusted-input — these wrappers sit on the same byte paths as real
//! transports and must themselves be panic-free; rules enforced by `f2-lint`.
//!
//! Robustness code is only trustworthy if its failure paths are *exercised*, and
//! real storage fails rarely and unreproducibly. This module makes failure a
//! first-class, deterministic input: a [`FaultPlan`] is an explicit schedule of
//! faults pinned to byte offsets, and the [`FaultyReader`] / [`FaultyWriter`]
//! wrappers replay that schedule exactly. [`FaultPlan::random`] derives a plan from a seed with a
//! splitmix64 generator, so a failing property test shrinks to a one-line repro.
//!
//! Four fault kinds cover the failure model of `docs/ROBUSTNESS.md`:
//!
//! * [`FaultKind::Transient`] — the operation touching the offset fails once
//!   with the given [`std::io::ErrorKind`], then heals: what
//!   [`RetryPolicy`](crate::retry::RetryPolicy) absorbs.
//! * [`FaultKind::ShortWrite`] — the write touching the offset accepts only a
//!   prefix: exercises `write_all`-style loops.
//! * [`FaultKind::BitFlip`] — the byte at the offset is XORed with a mask:
//!   exercises checksums and [`FrameReader::recover`](crate::FrameReader::recover).
//! * [`FaultKind::Truncate`] — the stream ends at the offset: readers see EOF,
//!   writers silently lose the tail (a crash mid-stream — what
//!   `Engine::resume_streaming` repairs).

use std::io::{ErrorKind, Read, Write};

/// Advance a splitmix64 state and return the next pseudo-random word. The same
/// generator the engine uses for chunk-seed derivation; duplicated here because
/// `f2-io` sits below `f2-crypto` in the dependency graph.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What goes wrong when a fault fires. See the [module docs](self) for the
/// semantics of each kind on readers and writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation touching the offset once with this error kind, then heal.
    Transient(ErrorKind),
    /// Accept at most this many bytes of the write touching the offset (min 1).
    ShortWrite(usize),
    /// XOR the byte at the offset with this mask (a zero mask is a no-op).
    BitFlip(u8),
    /// End the stream at the offset: reads report EOF, written bytes at or past
    /// the offset are silently dropped (the producer still sees success — exactly
    /// a buffered write lost to a crash).
    Truncate,
}

/// One scheduled fault: a [`FaultKind`] pinned to a byte offset of the stream
/// a [`FaultyReader`] or [`FaultyWriter`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Byte offset the fault is pinned to.
    pub at: u64,
    /// What goes wrong there.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults. One-shot faults ([`FaultKind::Transient`],
/// [`FaultKind::ShortWrite`], [`FaultKind::BitFlip`]) are consumed when they
/// fire; [`FaultKind::Truncate`] is permanent.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (wrappers behave transparently).
    pub fn new() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// Builder-style: add a fault at `at`.
    #[must_use]
    pub fn with(mut self, at: u64, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Add a fault at `at`.
    pub fn push(&mut self, at: u64, kind: FaultKind) {
        self.faults.push(Fault { at, kind });
    }

    /// The scheduled faults still pending, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether no faults remain pending.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derive a plan of `count` faults over offsets `[0, len)` from a seed: a
    /// deterministic mix of transient errors, bit flips, and short writes. The
    /// same `(seed, len, count)` always yields the same plan. Truncations are
    /// never generated (they end a stream outright) — add one explicitly with
    /// [`FaultPlan::with`] when the scenario calls for it.
    pub fn random(seed: u64, len: u64, count: usize) -> Self {
        let mut state = seed ^ 0xF2F2_0FA0_17F1_A217;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at = if len == 0 { 0 } else { splitmix64(&mut state) % len };
            let kind = match splitmix64(&mut state) % 3 {
                0 => {
                    // Non-`Interrupted` kinds only: `std` read/write loops absorb
                    // `Interrupted` themselves, which would mask the fault.
                    let kind = match splitmix64(&mut state) % 4 {
                        0 => ErrorKind::WouldBlock,
                        1 => ErrorKind::TimedOut,
                        2 => ErrorKind::ConnectionReset,
                        _ => ErrorKind::ConnectionAborted,
                    };
                    FaultKind::Transient(kind)
                }
                1 => FaultKind::BitFlip(
                    u8::try_from(1u64 << (splitmix64(&mut state) % 8)).unwrap_or(1),
                ),
                _ => FaultKind::ShortWrite(
                    usize::try_from((splitmix64(&mut state) % 64) + 1).unwrap_or(1),
                ),
            };
            plan.push(at, kind);
        }
        plan
    }

    /// The earliest scheduled truncation offset, if any.
    pub fn truncate_at(&self) -> Option<u64> {
        self.faults
            .iter()
            .filter_map(|f| matches!(f.kind, FaultKind::Truncate).then_some(f.at))
            .min()
    }

    /// Consume the first pending [`FaultKind::Transient`] whose offset falls in
    /// `[start, start + len)`.
    fn take_transient_touching(&mut self, start: u64, len: usize) -> Option<ErrorKind> {
        let len = len as u64;
        let idx = self.faults.iter().position(|f| {
            matches!(f.kind, FaultKind::Transient(_)) && f.at >= start && f.at - start < len
        })?;
        match self.faults.swap_remove(idx).kind {
            FaultKind::Transient(kind) => Some(kind),
            _ => None,
        }
    }

    /// Consume the first pending [`FaultKind::ShortWrite`] whose offset falls in
    /// `[start, start + len)`.
    fn take_short_write_touching(&mut self, start: u64, len: usize) -> Option<usize> {
        let len = len as u64;
        let idx = self.faults.iter().position(|f| {
            matches!(f.kind, FaultKind::ShortWrite(_)) && f.at >= start && f.at - start < len
        })?;
        match self.faults.swap_remove(idx).kind {
            FaultKind::ShortWrite(max) => Some(max),
            _ => None,
        }
    }

    /// Apply and consume every pending [`FaultKind::BitFlip`] whose offset falls
    /// inside the buffer that starts at stream offset `start`.
    fn apply_flips(&mut self, start: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        let mut i = 0;
        while i < self.faults.len() {
            let Some(&Fault { at, kind }) = self.faults.get(i) else { break };
            if let FaultKind::BitFlip(mask) = kind {
                if at >= start && at - start < len {
                    if let Some(byte) =
                        usize::try_from(at - start).ok().and_then(|off| buf.get_mut(off))
                    {
                        *byte ^= mask;
                    }
                    self.faults.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
    }
}

// ── FaultyReader ───────────────────────────────────────────────────────────────────

/// A [`Read`] wrapper that replays a [`FaultPlan`] against the byte stream:
/// transient errors fire on the read touching their offset (consuming nothing,
/// per the `Read` contract), bit flips corrupt delivered bytes in place, and a
/// truncation makes the stream end early.
#[derive(Debug)]
pub struct FaultyReader<R: Read> {
    inner: R,
    plan: FaultPlan,
    pos: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wrap a reader with a fault schedule.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultyReader { inner, plan, pos: 0 }
    }

    /// Byte offset of the next read.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Unwrap the underlying reader.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let window = match self.plan.truncate_at() {
            Some(cut) if self.pos >= cut => return Ok(0),
            Some(cut) => usize::try_from(cut - self.pos).unwrap_or(usize::MAX).min(buf.len()),
            None => buf.len(),
        };
        if let Some(kind) = self.plan.take_transient_touching(self.pos, window) {
            return Err(std::io::Error::new(kind, "injected transient read fault"));
        }
        let (target, _) = buf.split_at_mut(window.min(buf.len()));
        let n = self.inner.read(target)?;
        let (delivered, _) = target.split_at_mut(n.min(target.len()));
        self.plan.apply_flips(self.pos, delivered);
        self.pos += n as u64;
        Ok(n)
    }
}

// ── FaultyWriter ───────────────────────────────────────────────────────────────────

/// A [`Write`] wrapper that replays a [`FaultPlan`] against the byte stream:
/// transient errors fire on the write touching their offset (consuming nothing,
/// per the `Write` contract), short writes accept only a prefix, bit flips
/// corrupt bytes on their way down, and a truncation silently drops everything
/// at or past its offset while still reporting success — the "crash with a
/// dirty page cache" scenario crash-safe resume exists for.
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    plan: FaultPlan,
    pos: u64,
}

impl<W: Write> FaultyWriter<W> {
    /// Wrap a writer with a fault schedule.
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        FaultyWriter { inner, plan, pos: 0 }
    }

    /// Byte offset of the next write, as the *producer* sees it (dropped bytes
    /// past a truncation still advance it — the producer believes they landed).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Unwrap the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(kind) = self.plan.take_transient_touching(self.pos, buf.len()) {
            return Err(std::io::Error::new(kind, "injected transient write fault"));
        }
        let window = match self.plan.take_short_write_touching(self.pos, buf.len()) {
            Some(max) => max.clamp(1, buf.len()),
            None => buf.len(),
        };
        let (accepted, _) = buf.split_at(window.min(buf.len()));
        let deliver = match self.plan.truncate_at() {
            Some(cut) if self.pos >= cut => 0,
            Some(cut) => usize::try_from(cut - self.pos).unwrap_or(usize::MAX).min(accepted.len()),
            None => accepted.len(),
        };
        if deliver > 0 {
            let (head, _) = accepted.split_at(deliver);
            let mut bytes = head.to_vec();
            self.plan.apply_flips(self.pos, &mut bytes);
            self.inner.write_all(&bytes)?;
        }
        self.pos += accepted.len() as u64;
        Ok(accepted.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn random_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::random(7, 1024, 8);
        let b = FaultPlan::random(7, 1024, 8);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.faults().len(), 8);
        let c = FaultPlan::random(8, 1024, 8);
        assert_ne!(a.faults(), c.faults());
        assert!(a.faults().iter().all(|f| f.at < 1024));
        assert!(a.truncate_at().is_none(), "random plans never truncate");
    }

    #[test]
    fn reader_flips_truncates_and_errors_once() {
        let data: Vec<u8> = (0..=99).collect();
        let plan = FaultPlan::new()
            .with(10, FaultKind::BitFlip(0xFF))
            .with(5, FaultKind::Transient(ErrorKind::TimedOut))
            .with(50, FaultKind::Truncate);
        let mut reader = FaultyReader::new(Cursor::new(data), plan);
        let mut out = Vec::new();
        // First read hits the transient fault once …
        let err = reader.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert_eq!(reader.position(), 0, "a failed read consumes nothing");
        // … the retried read heals, delivers the flipped byte, and ends at the cut.
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(out[10], 10 ^ 0xFF);
        assert_eq!(out[9], 9);
        assert!(reader.plan.is_empty() || reader.plan.truncate_at().is_some());
    }

    #[test]
    fn writer_short_writes_are_absorbed_by_write_all() {
        let plan = FaultPlan::new().with(3, FaultKind::ShortWrite(2));
        let mut writer = FaultyWriter::new(Vec::new(), plan);
        writer.write_all(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(writer.into_inner(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn writer_truncation_drops_the_tail_silently() {
        let plan = FaultPlan::new().with(4, FaultKind::Truncate);
        let mut writer = FaultyWriter::new(Vec::new(), plan);
        writer.write_all(b"abcdefgh").unwrap(); // producer sees success
        assert_eq!(writer.position(), 8);
        assert_eq!(writer.into_inner(), b"abcd".to_vec());
    }
}
