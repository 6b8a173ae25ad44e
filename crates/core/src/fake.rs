//! Generation of artificial ("fake") plaintext values.
//!
//! Three of the four F² steps need values "that do not exist in the original dataset":
//! fake equivalence classes added during grouping (§3.2.1), the fresh values `v_X`,
//! `v_Y` used by conflict resolution (§3.3), and the artificial record pairs that
//! eliminate false-positive FDs (§3.4). The server cannot distinguish them from real
//! values because everything is encrypted before outsourcing. The data owner never
//! recognises them by value either: F² decryption tells artificial rows and patched
//! cells apart by the provenance recorded at encryption time. The reserved prefix
//! only keeps generated values disjoint from the table's own.
//!
//! Every fresh value is the text of a counter, `{FAKE_PREFIX}{counter:08x}`. A fake
//! equivalence class keeps only the counters it was issued, as a [`FakeRun`]: its
//! values are encoded straight into the ciphertext buffer when the class is
//! encrypted, so padding a group never builds a `String`.

use f2_relation::{Table, Value};

/// Reserved prefix identifying artificial plaintext values.
pub const FAKE_PREFIX: &str = "\u{1}f2:";

/// [`Value::encode`] length of a fresh value whose counter is below 2³², i.e. has
/// the 8 hex digits of `{:08x}`.
pub(crate) const FRESH_ENCODED_LEN: usize = 1 + FAKE_PREFIX.len() + 8;

/// A generator of plaintext values guaranteed to be fresh: distinct from every value in
/// the original dataset and from every previously generated fake value.
#[derive(Debug, Clone)]
pub struct FreshValueGenerator {
    counter: u64,
    /// The counters whose text the table holds (ascending): the only counters whose
    /// value would not be fresh, so the generator steps over them. Almost every
    /// table has none, and then nothing is probed.
    reserved: Vec<u64>,
}

/// The |MAS| fresh values of one fake equivalence class, kept as the counters the
/// generator issued for it: the value at MAS position `p` is the text of the `p`-th
/// counter from `first` that the table does not hold, so only the generator that
/// issued the run can read it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FakeRun {
    first: u64,
}

impl FreshValueGenerator {
    /// Create a generator that avoids every value occurring in `table`.
    pub fn for_table(table: &Table) -> Self {
        let mut reserved: Vec<u64> = table
            .columnar()
            .distinct_values()
            .filter_map(|v| match v {
                Value::Text(s) => counter_of(s),
                _ => None,
            })
            .collect();
        reserved.sort_unstable();
        FreshValueGenerator { counter: 0, reserved }
    }

    /// Create a generator with no exclusions (for tests).
    pub fn new() -> Self {
        FreshValueGenerator { counter: 0, reserved: Vec::new() }
    }

    /// Produce the next fresh value.
    pub fn next_value(&mut self) -> Value {
        Value::text(FakeText::new(self.next_counter()).as_str())
    }

    /// Append the [`Value::encode`] bytes of the next fresh value to `out` — what
    /// `self.next_value().encode()` would give, with no `String` built.
    pub(crate) fn next_encoded(&mut self, out: &mut Vec<u8>) {
        Value::encode_text_into(FakeText::new(self.next_counter()).as_str(), out);
    }

    /// Issue the next `len` fresh values as one run, for a fake equivalence class:
    /// the counters `len` calls of [`FreshValueGenerator::next_value`] would use,
    /// without building the values.
    pub(crate) fn next_run(&mut self, len: usize) -> FakeRun {
        let run = FakeRun { first: self.counter };
        for _ in 0..len {
            self.next_counter();
        }
        run
    }

    /// Append the [`Value::encode`] bytes of `run`'s value at position `pos` to `out`.
    /// `run` must come from this generator, and `pos` be below its length.
    pub(crate) fn encode_run_value(&self, run: FakeRun, pos: usize, out: &mut Vec<u8>) {
        Value::encode_text_into(FakeText::new(self.run_counter(run, pos)).as_str(), out);
    }

    /// Number of fresh values handed out so far, counters stepped over included.
    pub fn issued(&self) -> u64 {
        self.counter
    }

    fn is_reserved(&self, counter: u64) -> bool {
        !self.reserved.is_empty() && self.reserved.binary_search(&counter).is_ok()
    }

    fn next_counter(&mut self) -> u64 {
        while self.is_reserved(self.counter) {
            self.counter += 1;
        }
        self.counter += 1;
        self.counter - 1
    }

    /// The `pos`-th counter from `run.first` that is not reserved.
    fn run_counter(&self, run: FakeRun, pos: usize) -> u64 {
        if self.reserved.is_empty() {
            return run.first + pos as u64;
        }
        (run.first..).filter(|&c| !self.is_reserved(c)).nth(pos).expect("counters never run out")
    }
}

impl Default for FreshValueGenerator {
    fn default() -> Self {
        FreshValueGenerator::new()
    }
}

/// The counter whose fresh value is `text`, if there is one.
fn counter_of(text: &str) -> Option<u64> {
    let digits = text.strip_prefix(FAKE_PREFIX)?;
    // `from_str_radix` also takes a sign and capitals; only the canonical rendering
    // is a generated value.
    let counter = u64::from_str_radix(digits, 16).ok()?;
    (FakeText::new(counter).as_str() == text).then_some(counter)
}

/// `{FAKE_PREFIX}{counter:08x}` rendered on the stack, without the `format!`
/// machinery (this sits on the artificial-row hot path).
struct FakeText {
    buf: [u8; FAKE_PREFIX.len() + 16],
    len: usize,
}

impl FakeText {
    fn new(counter: u64) -> FakeText {
        // `{:08x}`: at least 8 digits, more once the counter passes `u32::MAX`.
        let digits = (16 - counter.leading_zeros() as usize / 4).max(8);
        let mut buf = [0u8; FAKE_PREFIX.len() + 16];
        let (prefix, rest) = buf.split_at_mut(FAKE_PREFIX.len());
        prefix.copy_from_slice(FAKE_PREFIX.as_bytes());
        for (i, digit) in rest[..digits].iter_mut().enumerate() {
            let nibble = (counter >> (4 * (digits - 1 - i))) & 0xf;
            *digit = b"0123456789abcdef"[nibble as usize];
        }
        FakeText { buf, len: FAKE_PREFIX.len() + digits }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("the prefix and hex digits are ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::table;

    fn take(g: &mut FreshValueGenerator, n: usize) -> Vec<Value> {
        (0..n).map(|_| g.next_value()).collect()
    }

    #[test]
    fn fresh_values_are_distinct() {
        let mut g = FreshValueGenerator::new();
        let vs = take(&mut g, 100);
        let set: std::collections::HashSet<_> = vs.iter().collect();
        assert_eq!(set.len(), 100);
        assert_eq!(g.issued(), 100);
        assert!(vs.iter().all(|v| matches!(v, Value::Text(s) if s.starts_with(FAKE_PREFIX))));
        assert!(vs.iter().all(|v| v.encode().len() == FRESH_ENCODED_LEN));
    }

    #[test]
    fn fresh_values_avoid_table_values() {
        let t = table! {
            ["A"];
            ["x"],
            ["y"],
        };
        let mut g = FreshValueGenerator::for_table(&t);
        for _ in 0..50 {
            let v = g.next_value();
            assert!(!t.all_values().contains(&v));
        }
    }

    #[test]
    fn generated_values_skip_prefixed_table_values() {
        let taken = [format!("{FAKE_PREFIX}00000000"), format!("{FAKE_PREFIX}00000002")];
        // Prefixed texts that no counter renders to reserve nothing.
        let t = table! {
            ["A", "B"];
            [taken[0].as_str(), "x"],
            ["y", taken[1].as_str()],
            ["\u{1}f2:1", "\u{1}f2:+0000003"],
            ["\u{1}f2:0000000A", "\u{1}f2:000000004"],
        };
        let expected: Vec<Value> = ["00000001", "00000003", "00000004"]
            .map(|d| Value::text(format!("{FAKE_PREFIX}{d}")))
            .to_vec();
        let mut by_value = FreshValueGenerator::for_table(&t);
        assert_eq!(take(&mut by_value, 3), expected);
        let mut by_encoding = FreshValueGenerator::for_table(&t);
        for v in &expected {
            let mut out = vec![0xEE];
            by_encoding.next_encoded(&mut out);
            assert_eq!(out[1..], v.encode()[..]);
        }
        let mut by_run = FreshValueGenerator::for_table(&t);
        let run = by_run.next_run(3);
        for (pos, v) in expected.iter().enumerate() {
            let mut out = Vec::new();
            by_run.encode_run_value(run, pos, &mut out);
            assert_eq!(out, v.encode());
        }
        assert_eq!(by_value.issued(), 5);
        assert_eq!(by_encoding.issued(), 5);
        assert_eq!(by_run.issued(), 5);
    }

    #[test]
    fn next_encoded_is_the_encoding_of_next_value() {
        // Across the counter's 8-digit boundary, where `{:08x}` grows a digit.
        for first in [0, 0xfff_fffe, u64::from(u32::MAX) - 2, u64::MAX - 3] {
            let mut by_value = FreshValueGenerator { counter: first, reserved: Vec::new() };
            let mut by_encoding = by_value.clone();
            for step in 0..3 {
                let counter = first + step;
                let v = by_value.next_value();
                assert_eq!(v, Value::text(format!("{FAKE_PREFIX}{counter:08x}")));
                let mut out = Vec::new();
                by_encoding.next_encoded(&mut out);
                assert_eq!(out, v.encode(), "counter {counter:#x}");
            }
        }
        let mut past = FreshValueGenerator { counter: 1 << 32, reserved: Vec::new() };
        assert_eq!(past.next_value(), Value::text(format!("{FAKE_PREFIX}100000000")));
    }

    #[test]
    fn a_run_encodes_as_successive_next_values() {
        // Runs of 1, 3 and 5 values, one after another, across the 8-digit boundary,
        // with and without reserved counters inside the runs.
        let boundary = u64::from(u32::MAX);
        for reserved in [vec![], vec![boundary - 1, boundary + 2, boundary + 3]] {
            let mut by_value = FreshValueGenerator { counter: boundary - 3, reserved };
            let mut by_run = by_value.clone();
            for len in [1, 3, 5] {
                let run = by_run.next_run(len);
                for pos in 0..len {
                    let expected = by_value.next_value().encode();
                    let mut out = vec![0xEE];
                    by_run.encode_run_value(run, pos, &mut out);
                    assert_eq!(out[1..], expected[..], "run {run:?} position {pos}");
                }
                assert_eq!(by_run.issued(), by_value.issued());
            }
        }
        let mut empty = FreshValueGenerator::new();
        empty.next_run(0);
        assert_eq!(empty.issued(), 0);
    }
}
